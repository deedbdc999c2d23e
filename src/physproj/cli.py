"""Command-line interface.

Subcommands: gen-data, train, project, rollout, experiment. Every command
accepts --config (flat JSON with ExperimentConfig keys), --seed and
--out-dir overrides. Exit codes: 0 success, 1 configuration/validation
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from physproj import springmass
from physproj.constraints import (
    OUTPUT_NAMES,
    EnergyConstraint,
    LtpConstraints,
    LtpSchema,
    TransformSpec,
    normalize,
    write_ltp_csv,
)
from physproj.errors import PhysprojError, ProjectionError, TrainingDivergedError, ValidationError
from physproj.nn import forward, load_network, save_network
from physproj.pipeline.config import EXPERIMENT_KINDS, load_config
from physproj.pipeline.csvio import write_csv, write_manifest, write_spring_dataset_csv, write_trajectory_csv
from physproj.pipeline.experiments import (
    load_ltp_data,
    load_spring_data,
    prepare_ltp,
    prepare_spring,
    run_experiment,
    train_ltp_net,
    train_spring_net,
)
from physproj.projector import ProjectionSpec, project_batch
from physproj.springmass import STATE_NAMES, SpringParams


def cmd_gen_data(args, cfg) -> int:
    write_manifest(cfg.out_dir, cfg.items())
    if args.system == "spring":
        (inputs, targets), _ = load_spring_data(cfg)
        write_spring_dataset_csv(os.path.join(cfg.out_dir, "spring_dataset.csv"), inputs, targets)
    else:
        (inputs, outputs), _ = load_ltp_data(cfg)
        write_ltp_csv(os.path.join(cfg.out_dir, "ltp_dataset.csv"), inputs, outputs)
    return 0


def cmd_train(args, cfg) -> int:
    if args.system == "ltp" and cfg.ltp_n_members > 1:
        raise ValidationError(
            f"a model file holds one network; 'train ltp' needs ltp_n_members=1, got {cfg.ltp_n_members}"
        )
    write_manifest(cfg.out_dir, cfg.items())
    if args.system == "spring":
        ctx = prepare_spring(cfg)
        net, history = train_spring_net(ctx, cfg, args.physics)
    else:
        ctx = prepare_ltp(cfg)
        net, history = train_ltp_net(ctx, cfg, cfg.seed + 2, args.physics)
        with open(os.path.join(cfg.out_dir, "input_transform.json"), "w", encoding="utf-8") as fh:
            fh.write(ctx.in_spec.to_json() + "\n")
    save_network(os.path.join(cfg.out_dir, "model.txt"), net, transform=ctx.out_spec)
    write_csv(
        os.path.join(cfg.out_dir, "history.csv"),
        ["epoch", "train_loss", "val_loss", "data_loss", "physics_loss", "learning_rate", "epoch_seconds"],
        [
            (i, history.train_loss[i], history.val_loss[i], history.data_loss[i], history.physics_loss[i], history.learning_rate[i], history.epoch_seconds[i])
            for i in range(history.n_epochs())
        ],
    )
    return 0


def cmd_project(args, cfg) -> int:
    write_manifest(cfg.out_dir, cfg.items())
    net, out_spec = load_network(args.model)
    if out_spec is None:
        raise ValidationError(f"model file {args.model} carries no transform spec")
    # the test split is the experiments'; the transforms are the ones saved with the model
    if args.system == "spring":
        x_test = prepare_spring(cfg).splits["test"][0]
        preds = forward(net, normalize(x_test, out_spec))
        params = SpringParams()
        # one constraint for the whole split, anchored per point at its input energy
        constraint = EnergyConstraint(params, None, out_spec)
        inputs = springmass.energy(x_test, params)[:, None]
        tol = cfg.spring_projection_tol
        names = STATE_NAMES
    else:
        path = os.path.join(os.path.dirname(os.path.abspath(args.model)), "input_transform.json")
        try:
            with open(path, encoding="utf-8") as fh:
                in_spec = TransformSpec.from_json(fh.read())
        except (OSError, KeyError, ValueError) as exc:
            raise ValidationError(f"cannot read the input transform saved with the model, {path}: {exc}") from exc
        inputs = prepare_ltp(cfg).splits["test"][0]
        preds = forward(net, normalize(inputs, in_spec))
        constraint = LtpConstraints(LtpSchema(), out_spec)
        tol = cfg.ltp_projection_tol
        names = OUTPUT_NAMES
    results = project_batch(preds, constraint, inputs, ProjectionSpec(tolerance=tol))
    rows = [
        (i, r.status, r.iterations, r.kkt_norm, r.seconds, *r.projected)
        for i, r in enumerate(results)
    ]
    write_csv(
        os.path.join(cfg.out_dir, "projected.csv"),
        ["index", "status", "iterations", "kkt_norm", "item_seconds", *names],
        rows,
    )
    return 0


def cmd_rollout(args, cfg) -> int:
    write_manifest(cfg.out_dir, cfg.items())
    net, spec = load_network(args.model)
    if spec is None:
        raise ValidationError(f"model file {args.model} carries no transform spec")
    params = SpringParams()
    ic = np.asarray(cfg.spring_initial_state, dtype=np.float64)[None]
    projector = None
    if args.project:
        constraint = EnergyConstraint(params, None, spec)
        anchors = springmass.energy(ic, params)[:, None]
        pspec = ProjectionSpec(tolerance=cfg.spring_projection_tol)
        projector = lambda ys, active: project_batch(ys, constraint, anchors[active], pspec)
    result = springmass.rollout(
        lambda z: forward(net, z), ic, cfg.spring_steps_single, spec, projector=projector, params=params
    )
    result.raise_failure()
    write_trajectory_csv(
        os.path.join(cfg.out_dir, "trajectory.csv"), result.states[:, 0], result.energies[:, 0], cfg.spring_delta_t
    )
    return 0


def cmd_experiment(args, cfg) -> int:
    cfg.kind = args.kind
    run_experiment(cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="physproj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out-dir", default=None, help="override output directory")

    p = sub.add_parser("gen-data", help="write a dataset CSV")
    p.add_argument("system", choices=["spring", "ltp-synthetic"])
    common(p)

    p = sub.add_parser("train", help="train a surrogate and save the model file")
    p.add_argument("system", choices=["spring", "ltp"])
    p.add_argument("--physics", action="store_true", help="train the physics-regularized variant")
    common(p)

    p = sub.add_parser("project", help="project model predictions for the test split")
    p.add_argument("system", choices=["spring", "ltp"])
    p.add_argument("--model", required=True, help="model file written by 'train'")
    common(p)

    p = sub.add_parser("rollout", help="roll a spring-mass trajectory through a model")
    p.add_argument("--model", required=True)
    p.add_argument("--project", action="store_true", help="project each step onto the energy shell")
    common(p)

    p = sub.add_parser("experiment", help="run a full experiment")
    p.add_argument("kind", choices=list(EXPERIMENT_KINDS))
    common(p)
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "project": cmd_project,
    "rollout": cmd_rollout,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out_dir})
        return COMMANDS[args.command](args, cfg)
    except (ValidationError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, ProjectionError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PhysprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
