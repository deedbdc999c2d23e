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
    INPUT_NAMES,
    OUTPUT_NAMES,
    EnergyConstraint,
    LtpConstraints,
    LtpSchema,
    fit_transform,
    generate_synthetic_ltp,
    normalize,
    write_ltp_csv,
)
from physproj.errors import PhysprojError, ProjectionError, TrainingDivergedError, ValidationError
from physproj.nn import (
    LtpResidualTerm,
    SpringEnergyTerm,
    forward,
    load_network,
    save_network,
    train,
    xavier_init,
)
from physproj.pipeline.config import EXPERIMENT_KINDS, load_config
from physproj.pipeline.csvio import (
    load_spring_dataset_csv,
    write_csv,
    write_manifest,
    write_spring_dataset_csv,
    write_trajectory_csv,
)
from physproj.pipeline.experiments import load_ltp_data, ltp_train_config, run_experiment, spring_train_config
from physproj.pipeline.metrics import split_dataset
from physproj.projector import ProjectionSpec, project, project_batch
from physproj.springmass import STATE_NAMES, SpringParams


def _spring_data(cfg):
    if cfg.spring_dataset_csv is not None:
        return load_spring_dataset_csv(cfg.spring_dataset_csv)
    params = SpringParams()
    return springmass.generate_dataset(
        params, cfg.spring_e_max, cfg.spring_n_samples, cfg.spring_delta_t, cfg.spring_n_substeps, cfg.seed
    )


def cmd_gen_data(args, cfg) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_manifest(cfg.out_dir, cfg.items())
    if args.system == "spring":
        inputs, targets = _spring_data(cfg)
        write_spring_dataset_csv(os.path.join(cfg.out_dir, "spring_dataset.csv"), inputs, targets)
    else:
        inputs, outputs = generate_synthetic_ltp(cfg.ltp_n_samples, cfg.seed)
        write_ltp_csv(os.path.join(cfg.out_dir, "ltp_dataset.csv"), inputs, outputs)
    return 0


def cmd_train(args, cfg) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_manifest(cfg.out_dir, cfg.items())
    if args.system == "spring":
        data = _spring_data(cfg)
        train_set, val_set, _ = split_dataset(data, cfg.split_fractions, cfg.seed + 1)
        spec = fit_transform(train_set[0], STATE_NAMES, skew_threshold=np.inf)
        dims = (4, *cfg.spring_hidden, 4)
        lam = cfg.spring_lambda if args.physics else 0.0
        tcfg = spring_train_config(cfg, lam)
        physics = SpringEnergyTerm(SpringParams(), spec, weight=lam) if args.physics else None
        in_spec = spec
    else:
        data = load_ltp_data(cfg, cfg.ltp_n_samples, cfg.seed)[0]
        train_set, val_set, _ = split_dataset(data, cfg.split_fractions, cfg.seed + 1)
        in_spec = fit_transform(train_set[0], INPUT_NAMES, skew_threshold=np.inf)
        spec = fit_transform(train_set[1], OUTPUT_NAMES, skew_threshold=cfg.ltp_skew_threshold)
        dims = (3, *cfg.ltp_hidden, 17)
        lam = cfg.ltp_lambda if args.physics else 0.0
        split = (lam / 3.0,) * 3 if args.physics else None
        tcfg = ltp_train_config(cfg, cfg.seed + 2, lam, split)
        physics = LtpResidualTerm(LtpConstraints(LtpSchema(), spec), in_spec, split) if args.physics else None

    def norm_pair(pair):
        return (normalize(pair[0], in_spec), normalize(pair[1], spec))

    net, history = train(
        xavier_init(dims, seed=cfg.seed + 2), norm_pair(train_set), norm_pair(val_set), tcfg, physics=physics
    )
    save_network(os.path.join(cfg.out_dir, "model.txt"), net, transform=spec)
    if args.system == "ltp":
        with open(os.path.join(cfg.out_dir, "input_transform.json"), "w", encoding="utf-8") as fh:
            fh.write(in_spec.to_json() + "\n")
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_manifest(cfg.out_dir, cfg.items())
    net, out_spec = load_network(args.model)
    if out_spec is None:
        raise ValidationError(f"model file {args.model} carries no transform spec")
    if args.system == "spring":
        data = _spring_data(cfg)
        _, _, test_set = split_dataset(data, cfg.split_fractions, cfg.seed + 1)
        x_test, _ = test_set
        preds = forward(net, normalize(x_test, out_spec))
        params = SpringParams()
        # one constraint for the whole split, anchored per point at its input energy
        constraint = EnergyConstraint(params, None, out_spec)
        inputs = springmass.energy(x_test, params)[:, None]
        tol = cfg.spring_projection_tol
        names = STATE_NAMES
    else:
        with open(os.path.join(os.path.dirname(os.path.abspath(args.model)), "input_transform.json"), encoding="utf-8") as fh:
            from physproj.constraints import TransformSpec

            in_spec = TransformSpec.from_json(fh.read())
        data = load_ltp_data(cfg, cfg.ltp_n_samples, cfg.seed)[0]
        _, _, test_set = split_dataset(data, cfg.split_fractions, cfg.seed + 1)
        inputs, _ = test_set
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_manifest(cfg.out_dir, cfg.items())
    net, spec = load_network(args.model)
    if spec is None:
        raise ValidationError(f"model file {args.model} carries no transform spec")
    params = SpringParams()
    ic = np.asarray(cfg.spring_initial_state, dtype=np.float64)
    projector = None
    if args.project:
        constraint = EnergyConstraint(params, springmass.energy(ic, params), spec)
        pspec = ProjectionSpec(tolerance=cfg.spring_projection_tol)
        projector = lambda y: project(y, constraint, None, pspec)
    result = springmass.rollout(
        lambda z: forward(net, z), ic, cfg.spring_steps_single, spec, projector=projector, params=params
    )
    write_trajectory_csv(os.path.join(cfg.out_dir, "trajectory.csv"), result.states, result.energies, cfg.spring_delta_t)
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
