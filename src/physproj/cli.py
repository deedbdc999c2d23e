"""Command-line interface.

Subcommands: gen-data, train, project, rollout, experiment. Every command
accepts --config (flat JSON with ExperimentConfig keys), --seed and
--out-dir; main checks and echoes that config once, as the experiment the
command belongs to (plasma data: ltp-compare, else spring-single). Exit
codes: 0 success, 1 invalid config or unwritable output, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from physproj import springmass
from physproj.constraints import OUTPUT_NAMES, normalize
from physproj.errors import DenormalizationOverflowError, PhysprojError, ProjectionError, TrainingDivergedError, ValidationError
from physproj.nn import forward, load_network, save_network
from physproj.pipeline.config import EXPERIMENT_KINDS, load_config
from physproj.pipeline.csvio import write_csv, write_ltp_csv, write_manifest, write_spring_dataset_csv, write_trajectory_csv
from physproj.pipeline.experiments import (
    PARAMS,
    RUNNERS,
    energy_projector,
    load_ltp_data,
    load_spring_data,
    prepare_ltp,
    prepare_spring,
    project_predictions,
    projection_rows,
    timed,
    train_ltp_net,
    train_spring_net,
)
from physproj.springmass import STATE_NAMES


def cmd_gen_data(args, cfg) -> int:
    if args.system == "spring":
        (inputs, targets), _ = load_spring_data(cfg)
        write_spring_dataset_csv(os.path.join(cfg.out_dir, "spring_dataset.csv"), inputs, targets)
    else:
        (inputs, outputs), _ = load_ltp_data(cfg)
        write_ltp_csv(os.path.join(cfg.out_dir, "ltp_dataset.csv"), inputs, outputs)
    return 0


def cmd_train(args, cfg) -> int:
    if args.system == "spring":
        ctx = prepare_spring(cfg)
        net, history = train_spring_net(ctx, cfg, args.physics)
    else:
        ctx = prepare_ltp(cfg)
        net, history = train_ltp_net(ctx, cfg, cfg.seed + 2, args.physics)
    save_network(os.path.join(cfg.out_dir, "model.txt"), net, ctx.out_spec, ctx.in_spec)
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
    net, out_spec, in_spec = load_network(args.model)
    # the test split is the experiments'; the transforms are the ones saved in the model file
    x_test = (prepare_spring if args.system == "spring" else prepare_ltp)(cfg).splits["test"][0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing model fails by status or named error
        preds = forward(net, normalize(x_test, in_spec))
        if args.system == "spring":  # each point onto the shell of its input's energy
            projector = energy_projector(out_spec, springmass.energy(x_test, PARAMS), cfg.spring_projection_tol)
            project, names = (lambda: projector(preds, slice(None))), STATE_NAMES
        else:
            project, names = (lambda: project_predictions(out_spec, preds, x_test, cfg.ltp_projection_tol)[0]), OUTPUT_NAMES
        seconds = {}
        with timed(seconds, "projection_seconds"):
            result = project()
    rows = ((*row, *p) for row, p in zip(projection_rows(result, seconds["projection_seconds"]), result.projected))
    write_csv(
        os.path.join(cfg.out_dir, "projected.csv"),
        ["index", "status", "iterations", "kkt_norm", "item_seconds", *names],
        rows,
    )
    return 0


def cmd_rollout(args, cfg) -> int:
    net, spec, _ = load_network(args.model)  # a spring model's input transform is its state transform
    ic = np.asarray(cfg.spring_initial_state, dtype=np.float64)[None]
    projector = energy_projector(spec, springmass.energy(ic, PARAMS), cfg.spring_projection_tol) if args.project else None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing model fails by status or named error
        result = springmass.rollout(lambda z: forward(net, z), ic, cfg.spring_steps_single, spec, projector=projector, params=PARAMS)
    result.raise_failure()
    write_trajectory_csv(
        os.path.join(cfg.out_dir, "trajectory.csv"), result.states[:, 0], result.energies[:, 0], cfg.spring_delta_t
    )
    return 0


def cmd_experiment(args, cfg) -> int:
    RUNNERS[cfg.kind](cfg)
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
        # a command is checked and echoed as the experiment whose data and networks it builds
        kind = getattr(args, "kind", "spring-single" if getattr(args, "system", "spring") == "spring" else "ltp-compare")
        cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out_dir, "kind": kind})
        write_manifest(cfg.out_dir, cfg.items())
        return COMMANDS[args.command](args, cfg)
    # ahead of ValidationError, which DenormalizationOverflowError subclasses: its values came out of a numerical failure
    except (TrainingDivergedError, ProjectionError, DenormalizationOverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:  # OSError: an output path that cannot be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PhysprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
