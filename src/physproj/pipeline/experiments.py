"""The six experiments, and the builders every physproj command trains through.

``run_experiment`` takes an ExperimentConfig, writes manifest.txt plus the
experiment's CSV artifacts into config.out_dir, and returns a MetricsReport.
``prepare_spring``/``prepare_ltp`` turn a config into data, splits and
feature transforms, and ``train_spring_net``/``train_ltp_net`` train one
network on them; the CLI calls the same functions. All randomness flows
from config.seed through fixed offsets (dataset, split, per-model training,
initial conditions, resamples), so reruns with the same config produce
byte-identical CSVs apart from *_seconds columns. Every *_seconds value
is measured by ``timed``. Trainings that share nothing run side by side in
worker processes through ``run_parallel``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from physproj import springmass
from physproj.constraints import (
    INPUT_NAMES,
    OUTPUT_NAMES,
    EnergyConstraint,
    LtpConstraints,
    LtpSchema,
    TransformSpec,
    denormalize,
    fit_transform,
    generate_synthetic_ltp,
    load_ltp_csv,
    normalize,
)
from physproj.constraints.ltp import TORR_TO_PA, synthetic_outputs
from physproj.errors import PhysprojError, ValidationError
from physproj.nn import (
    EarlyStopConfig,
    LtpResidualTerm,
    PlateauConfig,
    SpringEnergyTerm,
    TrainConfig,
    forward,
    train,
    xavier_init,
)
from physproj.pipeline.config import ExperimentConfig
from physproj.pipeline.csvio import load_spring_dataset_csv, write_csv, write_manifest, write_trajectory_csv
from physproj.pipeline.metrics import improvement_rates, rmse, rmse_variation_rate, split_dataset
# project is not called here; bench/tracing.py wraps experiments.project by name
from physproj.projector import CONVERGED, ProjectionSpec, project, project_batch  # noqa: F401
from physproj.springmass import STATE_NAMES, SpringParams

PARAMS = SpringParams()
SCHEMA = LtpSchema()
FOCUS_OUTPUTS = ("O2_X", "O2_plus", "ne")
LAW_VARIANTS = (
    ("all", (0, 1, 2)),
    ("pressure", (0,)),
    ("current", (1,)),
    ("neutrality", (2,)),
    ("pressure+current", (0, 1)),
    ("pressure+neutrality", (0, 2)),
    ("current+neutrality", (1, 2)),
)


@dataclass
class MetricsReport:
    """Aggregated experiment outcome; experiments fill the fields they use."""

    per_output_rmse: dict = field(default_factory=dict)  # model -> {output: rmse}
    constraint_rmse: dict = field(default_factory=dict)  # model -> {law: rmse}
    r_mean: dict = field(default_factory=dict)  # model pair -> percent
    r_all: dict = field(default_factory=dict)
    n_nonconverged: int = 0
    phase_seconds: dict = field(default_factory=dict)


@contextmanager
def timed(seconds: dict, key: str):
    """Add the wall time of the ``with`` block to ``seconds[key]``, also when it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start


def run_parallel(tasks: list):
    """The results of ``tasks``, zero-argument callables that share nothing, in task order.

    They run in one worker process per usable CPU, at most one per task.
    Workers are forked, so they inherit ``tasks`` with every closure and
    array they hold; only results and exceptions are pickled back. A task's
    exception re-raises here with its type, message and attributes, and a
    worker that dies (killed by the system, say) raises PhysprojError. With
    one worker the tasks run inline. A task must not call run_parallel.
    """
    n_workers = min(len(tasks), len(os.sched_getaffinity(0)))
    if n_workers <= 1:
        return [task() for task in tasks]
    # imported here, not at module import, where they would add ~10 ms to every command's start-up
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(n_workers, mp_context=fork, initializer=_start_worker, initargs=(tasks,)) as pool:
            return list(pool.map(_run_inherited_task, range(len(tasks))))
    except BrokenProcessPool as exc:
        raise PhysprojError(f"a worker process died: {exc}") from exc


_inherited_tasks: list = []  # set only in run_parallel's workers, to the task list they were forked with

# OpenBLAS's thread-count setter, as named in plain, 64-bit-integer and numpy's scipy-openblas builds
OPENBLAS_SET_NUM_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _start_worker(tasks: list) -> None:
    """Keep the task list, and limit every OpenBLAS loaded in this worker to one thread.

    The workers already fill the usable CPUs. With their own BLAS threads on
    top, each worker's threads spin waiting for cores the others hold: on a
    2-core machine, criterion 8 took 44 s in one process, 102 s in two
    workers with two OpenBLAS threads each and 20 s with one. Other BLAS
    libraries are left as they are.
    """
    import ctypes

    global _inherited_tasks
    _inherited_tasks = tasks
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in os.path.basename(line.split()[-1])}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in OPENBLAS_SET_NUM_THREADS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                break


def _run_inherited_task(index: int):
    return _inherited_tasks[index]()


# ---------------------------------------------------------------------------
# data, splits, transforms and training, shared with the CLI


@dataclass
class DataContext:
    """A dataset split with cfg.seed + 1, and transforms fit on its training split.

    Spring-mass inputs and outputs are both states and share one transform,
    so there ``in_spec`` is ``out_spec``.
    """

    in_spec: TransformSpec
    out_spec: TransformSpec
    splits: dict  # 'train'/'val'/'test' -> (X_phys, Y_phys)
    norm: dict  # same keys -> (X_norm, Y_norm)
    synthetic: bool  # generated rather than loaded from a dataset CSV


def load_spring_data(cfg: ExperimentConfig):
    """((inputs, next states), synthetic) from spring_dataset_csv, or generated."""
    if cfg.spring_dataset_csv is not None:
        return load_spring_dataset_csv(cfg.spring_dataset_csv), False
    data = springmass.generate_dataset(
        PARAMS, cfg.spring_e_max, cfg.spring_n_samples, cfg.spring_delta_t, cfg.spring_n_substeps, cfg.seed
    )
    return data, True


def load_ltp_data(cfg: ExperimentConfig):
    """((inputs, outputs), synthetic) from ltp_dataset_csv, or generated."""
    if cfg.ltp_dataset_csv is not None:
        column_map = None
        if cfg.ltp_column_map is not None:
            import json

            try:
                with open(cfg.ltp_column_map, encoding="utf-8") as fh:
                    column_map = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ValidationError(f"cannot read column map {cfg.ltp_column_map}: {exc}") from exc
        return load_ltp_csv(cfg.ltp_dataset_csv, column_map), False
    return generate_synthetic_ltp(cfg.ltp_n_samples, cfg.seed), True


def _data_context(cfg: ExperimentConfig, load, fit) -> DataContext:
    """``load(cfg)`` the data, split it, and ``fit(train_set) -> (in_spec, out_spec)``."""
    data, synthetic = load(cfg)
    train_set, val_set, test_set = split_dataset(data, cfg.split_fractions, cfg.seed + 1)
    in_spec, out_spec = fit(train_set)
    splits = {"train": train_set, "val": val_set, "test": test_set}
    norm = {key: (normalize(x, in_spec), normalize(y, out_spec)) for key, (x, y) in splits.items()}
    return DataContext(in_spec, out_spec, splits, norm, synthetic)


def prepare_spring(cfg: ExperimentConfig) -> DataContext:
    """Spring-mass data; one min-max transform, fit on the training inputs, scales all states."""

    def fit(train_set):
        spec = fit_transform(train_set[0], STATE_NAMES, skew_threshold=np.inf)
        return spec, spec

    return _data_context(cfg, load_spring_data, fit)


def prepare_ltp(cfg: ExperimentConfig) -> DataContext:
    """Plasma data; outputs skewed beyond ltp_skew_threshold are log-scaled."""

    def fit(train_set):
        return (
            fit_transform(train_set[0], INPUT_NAMES, skew_threshold=np.inf),
            fit_transform(train_set[1], OUTPUT_NAMES, skew_threshold=cfg.ltp_skew_threshold),
        )

    return _data_context(cfg, load_ltp_data, fit)


def train_spring_net(ctx: DataContext, cfg: ExperimentConfig, physics: bool):
    """Train the spring-mass NN, or with ``physics`` the PINN; returns (net, history).

    Both start from the same initialization and shuffle stream, so the
    four-model comparison isolates the effect of the physics term.
    """
    lam = cfg.spring_lambda if physics else 0.0
    term = SpringEnergyTerm(PARAMS, ctx.out_spec, weight=lam) if physics else None
    tcfg = TrainConfig(
        learning_rate=cfg.spring_lr,
        max_epochs=cfg.spring_epochs,
        batch_size=cfg.spring_batch,
        lambda_physics=lam,
        seed=cfg.seed + 2,
    )
    net = xavier_init((4, *cfg.spring_hidden, 4), seed=cfg.seed + 2)
    return train(net, ctx.norm["train"], ctx.norm["val"], tcfg, physics=term)


def train_ltp_net(ctx: DataContext, cfg: ExperimentConfig, seed: int, physics: bool):
    """Train one LTP network (the PINN with ``physics``); returns (net, history).

    ``seed`` seeds both the initialization and the shuffle stream.
    """
    lam = cfg.ltp_lambda if physics else 0.0
    term = LtpResidualTerm(LtpConstraints(SCHEMA, ctx.out_spec), ctx.in_spec, (lam / 3.0,) * 3) if physics else None
    tcfg = TrainConfig(
        learning_rate=cfg.ltp_lr,
        max_epochs=cfg.ltp_max_epochs,
        batch_size=cfg.ltp_batch,
        lambda_physics=lam,
        early_stop=EarlyStopConfig(cfg.early_stop_alpha, cfg.early_stop_strip),
        lr_plateau=PlateauConfig(cfg.plateau_patience, cfg.plateau_factor),
        seed=seed,
    )
    net = xavier_init((3, *cfg.ltp_hidden, 17), seed=seed)
    return train(net, ctx.norm["train"], ctx.norm["val"], tcfg, physics=term)


def _ensemble(nets: list):
    """Predictor on normalized inputs: the mean output of ``nets``."""
    return lambda z: np.stack([forward(net, z) for net in nets]).mean(axis=0)


def _train_ltp_model(ctx: DataContext, cfg: ExperimentConfig, seed: int, physics: bool):
    """The ensemble of cfg.ltp_n_members networks seeded seed, seed + 1, ..."""
    return _ensemble([train_ltp_net(ctx, cfg, seed + i, physics)[0] for i in range(cfg.ltp_n_members)])


# ---------------------------------------------------------------------------
# spring-mass experiments


def _spring_models(cfg: ExperimentConfig, seconds: dict):
    """The data context and the trained {"nn", "pinn"} networks, each phase timed into ``seconds``."""
    with timed(seconds, "data_generation_seconds"):
        ctx = prepare_spring(cfg)
    with timed(seconds, "training_seconds"):
        (nn, _), (pinn, _) = run_parallel([partial(train_spring_net, ctx, cfg, physics) for physics in (False, True)])
    return ctx, {"nn": nn, "pinn": pinn}


def _rollout_four(ctx: DataContext, models: dict, initial_states: np.ndarray, n_steps: int, tol: float) -> dict:
    """Lockstep rollouts of NN, PINN, and their projected counterparts.

    Each trajectory is projected onto its own energy shell; failures are
    recorded per trajectory.
    """
    anchors = springmass.energy(initial_states, PARAMS)
    constraint = EnergyConstraint(PARAMS, None, ctx.out_spec)
    pspec = ProjectionSpec(tolerance=tol)
    projector = lambda ys, active: project_batch(ys, constraint, anchors[active, None], pspec)

    out = {}
    for name, net in models.items():
        model_fn = lambda z, net=net: forward(net, z)
        out[name] = springmass.rollout(model_fn, initial_states, n_steps, ctx.out_spec, params=PARAMS)
        out[name + "_projection"] = springmass.rollout(
            model_fn, initial_states, n_steps, ctx.out_spec, projector=projector, params=PARAMS
        )
    return out


def _trajectory_rmses(states, energies, truth_norm: np.ndarray, spec, anchors) -> np.ndarray:
    """Per-variable normalized RMSE (x1, v1, x2, v2) then energy RMSE in J, per trajectory."""
    pred_norm = normalize(states, spec)
    state_rmse = np.sqrt(np.mean((pred_norm[1:] - truth_norm[1:]) ** 2, axis=0))
    energy_rmse = np.sqrt(np.mean((energies[1:] - anchors) ** 2, axis=0))
    return np.concatenate([state_rmse, energy_rmse[..., None]], axis=-1)


def run_spring_single(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    ctx, models = _spring_models(cfg, report.phase_seconds)
    ic = np.asarray(cfg.spring_initial_state, dtype=np.float64)
    anchor = springmass.energy(ic, PARAMS)
    n_steps = cfg.spring_steps_single

    truth = springmass.true_trajectory(ic, PARAMS, n_steps, cfg.spring_delta_t, cfg.spring_n_substeps)
    truth_norm = normalize(truth, ctx.out_spec)
    write_trajectory_csv(
        os.path.join(cfg.out_dir, "trajectory_truth.csv"),
        truth,
        np.asarray(springmass.energy(truth, PARAMS)),
        cfg.spring_delta_t,
    )

    rollouts = _rollout_four(ctx, models, ic[None], n_steps, cfg.spring_projection_tol)
    rows = []
    for name, result in rollouts.items():
        result.raise_failure()  # single-trajectory run has nothing to fall back on
        states, energies = result.states[:, 0], result.energies[:, 0]
        write_trajectory_csv(os.path.join(cfg.out_dir, f"trajectory_{name}.csv"), states, energies, cfg.spring_delta_t)
        rmses = _trajectory_rmses(states, energies, truth_norm, ctx.out_spec, anchor)
        report.per_output_rmse[name] = dict(zip((*STATE_NAMES, "energy_J"), rmses))
        rows.append((name, *rmses))
    write_csv(
        os.path.join(cfg.out_dir, "rmse_summary.csv"),
        ["model", "rmse_x1", "rmse_v1", "rmse_x2", "rmse_v2", "rmse_energy_J"],
        rows,
    )
    return report


def run_spring_many(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    ctx, models = _spring_models(cfg, report.phase_seconds)
    n_steps = cfg.spring_steps_many
    rng = np.random.default_rng(cfg.seed + 4)
    initial_states = springmass.sample_states(PARAMS, cfg.spring_e_max, cfg.spring_n_trajectories, rng)

    model_names = ("nn", "pinn", "nn_projection", "pinn_projection")
    with timed(report.phase_seconds, "rollout_seconds"):
        truths = springmass.true_trajectory(initial_states, PARAMS, n_steps, cfg.spring_delta_t, cfg.spring_n_substeps)
        truth_norm = normalize(truths, ctx.out_spec)
        anchors = springmass.energy(initial_states, PARAMS)
        rollouts = _rollout_four(ctx, models, initial_states, n_steps, cfg.spring_projection_tol)
        rmses = {name: _trajectory_rmses(r.states, r.energies, truth_norm, ctx.out_spec, anchors) for name, r in rollouts.items()}
        done = {name: result.failed_step == 0 for name, result in rollouts.items()}  # False: projection failed
    report.n_nonconverged = sum(int((~ok).sum()) for ok in done.values())

    variables = (*STATE_NAMES, "energy_J")
    dist_rows = []
    for t in range(cfg.spring_n_trajectories):
        for name in model_names:
            if done[name][t]:
                dist_rows.extend((t, name, var, val) for var, val in zip(variables, rmses[name][t]))
            else:
                dist_rows.append((t, name, "failed", "nan"))
    write_csv(os.path.join(cfg.out_dir, "trajectories.csv"), ["trajectory", "model", "variable", "rmse"], dist_rows)

    rate_rows = []
    for base, projected in (("nn", "nn_projection"), ("pinn", "pinn_projection")):
        keep = done[projected]
        r_mean, r_all = improvement_rates(rmses[base][keep, :4], rmses[projected][keep, :4])
        pair = f"{base}->projection"
        report.r_mean[pair] = r_mean
        report.r_all[pair] = r_all
        rate_rows.append((pair, r_mean, r_all, int(keep.sum())))
    write_csv(
        os.path.join(cfg.out_dir, "rates.csv"),
        ["pair", "r_mean_pct", "r_all_pct", "n_trajectories_used"],
        rate_rows,
    )

    summary_rows = []
    for name in model_names:
        entries = rmses[name][done[name]]
        means = entries.mean(axis=0)
        stds = entries.std(axis=0, ddof=0)
        report.per_output_rmse[name] = dict(zip(variables, means))
        summary_rows.append((name, *means, *stds, len(entries)))
    write_csv(
        os.path.join(cfg.out_dir, "summary.csv"),
        ["model"]
        + [f"mean_rmse_{v}" for v in variables]
        + [f"std_rmse_{v}" for v in variables]
        + ["n_trajectories_used"],
        summary_rows,
    )
    write_csv(
        os.path.join(cfg.out_dir, "nonconverged.csv"),
        ["n_nonconverged_projections"],
        [(report.n_nonconverged,)],
    )
    return report


# ---------------------------------------------------------------------------
# low-temperature plasma experiments


def _project_predictions(ctx: DataContext, preds: np.ndarray, x_phys: np.ndarray, tol: float, laws=(0, 1, 2)):
    constraint = LtpConstraints(SCHEMA, ctx.out_spec, laws=laws)
    results = project_batch(preds, constraint, x_phys, ProjectionSpec(tolerance=tol))
    projected = np.stack([r.projected for r in results])
    converged = np.array([r.status == CONVERGED for r in results])
    return projected, converged, results


def _per_output_rmse_rows(model: str, pred_norm, y_norm, y_phys, out_spec, mask=None):
    """Rows (model, output, rmse_normalized, rmse_physical); mask selects samples."""
    if mask is not None:
        pred_norm, y_norm, y_phys = pred_norm[mask], y_norm[mask], y_phys[mask]
    pred_phys = denormalize(pred_norm, out_spec)
    norm_rmse = rmse(pred_norm, y_norm, per_output=True)
    phys_rmse = rmse(pred_phys, y_phys, per_output=True)
    return [
        (model, name, norm_rmse[j], phys_rmse[j]) for j, name in enumerate(out_spec.names)
    ], dict(zip(out_spec.names, norm_rmse))


def run_ltp_compare(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    seconds = report.phase_seconds
    with timed(seconds, "data_generation_seconds"):
        ctx = prepare_ltp(cfg)
    x_test, y_test = ctx.splits["test"]
    xn_test, yn_test = ctx.norm["test"]

    with timed(seconds, "training_seconds"):
        # shared seeds: the PINN members differ from the NN members only through their loss
        seeds = range(cfg.seed + 2, cfg.seed + 2 + cfg.ltp_n_members)
        tasks = [partial(train_ltp_net, ctx, cfg, seed, physics) for physics in (False, True) for seed in seeds]
        nets = [net for net, _ in run_parallel(tasks)]
        predictors = {"nn": _ensemble(nets[: len(seeds)]), "pinn": _ensemble(nets[len(seeds) :])}

    preds = {name: fn(xn_test) for name, fn in predictors.items()}
    status_rows = []
    masks = {}
    batch_seconds = {}
    with timed(seconds, "projection_seconds"):
        for name in ("nn", "pinn"):
            with timed(batch_seconds, name):
                projected, converged, results = _project_predictions(ctx, preds[name], x_test, cfg.ltp_projection_tol)
            preds[name + "_projection"] = projected
            masks[name + "_projection"] = converged
            report.n_nonconverged += int((~converged).sum())
            item_seconds = batch_seconds[name] / max(len(results), 1)
            status_rows.extend(
                (name + "_projection", i, r.status, r.iterations, r.kkt_norm, item_seconds)
                for i, r in enumerate(results)
            )
    write_csv(
        os.path.join(cfg.out_dir, "projection_status.csv"),
        ["model", "index", "status", "iterations", "kkt_norm", "item_seconds"],
        status_rows,
    )

    rmse_rows = []
    constraint_rows = []
    all_laws = LtpConstraints(SCHEMA, ctx.out_spec)
    for name in ("nn", "pinn", "nn_projection", "pinn_projection"):
        mask = masks.get(name)
        rows, by_output = _per_output_rmse_rows(name, preds[name], yn_test, y_test, ctx.out_spec, mask)
        rmse_rows.extend(rows)
        report.per_output_rmse[name] = by_output
        pred_used = preds[name] if mask is None else preds[name][mask]
        x_used = x_test if mask is None else x_test[mask]
        residuals = all_laws.residual(x_used, pred_used)
        law_rmse = np.sqrt(np.mean(residuals**2, axis=0))
        report.constraint_rmse[name] = dict(zip(LtpConstraints.LAW_NAMES, law_rmse))
        constraint_rows.extend((name, law, law_rmse[k]) for k, law in enumerate(LtpConstraints.LAW_NAMES))
    write_csv(
        os.path.join(cfg.out_dir, "per_output_rmse.csv"),
        ["model", "output", "rmse_normalized", "rmse_physical"],
        rmse_rows,
    )
    write_csv(
        os.path.join(cfg.out_dir, "constraint_rmse.csv"),
        ["model", "law", "rmse_scaled"],
        constraint_rows,
    )

    # per-law ablation of the projection applied to the plain NN predictions
    ablation_rows = []
    nn_rows, _ = _per_output_rmse_rows("nn", preds["nn"], yn_test, y_test, ctx.out_spec)
    ablation_rows.extend(("nn", output, value_norm) for _, output, value_norm, _ in nn_rows)
    for variant, laws in LAW_VARIANTS:
        if laws == (0, 1, 2):  # the full law set is the nn_projection model above
            projected, converged = preds["nn_projection"], masks["nn_projection"]
        else:
            projected, converged, _ = _project_predictions(ctx, preds["nn"], x_test, cfg.ltp_projection_tol, laws)
        rows, _ = _per_output_rmse_rows(variant, projected, yn_test, y_test, ctx.out_spec, converged)
        ablation_rows.extend((variant, output, value_norm) for _, output, value_norm, _ in rows)
    write_csv(
        os.path.join(cfg.out_dir, "ablation.csv"),
        ["variant", "output", "rmse_normalized"],
        ablation_rows,
    )
    return report


def _trend_inputs(cfg: ExperimentConfig) -> np.ndarray:
    """Log-spaced pressure slice at fixed current and radius."""
    from physproj.constraints.ltp import P_TORR_RANGE

    p_torr = np.logspace(np.log10(P_TORR_RANGE[0]), np.log10(P_TORR_RANGE[1]), cfg.trend_n_points)
    grid = np.stack(
        [p_torr * TORR_TO_PA, np.full_like(p_torr, cfg.trend_current), np.full_like(p_torr, cfg.trend_radius)],
        axis=-1,
    )
    return grid


def _trend_rows(ctx: DataContext, cfg: ExperimentConfig, predict_fn):
    grid = _trend_inputs(cfg)
    ne_idx = SCHEMA.idx("ne")
    pred = predict_fn(normalize(grid, ctx.in_spec))
    projected, converged, _ = _project_predictions(ctx, pred, grid, cfg.ltp_projection_tol)
    truth = synthetic_outputs(grid)[:, ne_idx]
    pred_phys = denormalize(pred, ctx.out_spec)[:, ne_idx]
    proj_phys = denormalize(projected, ctx.out_spec)[:, ne_idx]
    return [
        (grid[i, 0], truth[i], pred_phys[i], proj_phys[i], int(converged[i]))
        for i in range(len(grid))
    ]


def _score(ctx: DataContext, cfg: ExperimentConfig, predict):
    """Mean-17 and focus-3 normalized test RMSEs before and after projection, and the non-converged count."""
    xn_test, yn_test = ctx.norm["test"]
    pred = predict(xn_test)
    projected, converged, _ = _project_predictions(ctx, pred, ctx.splits["test"][0], cfg.ltp_projection_tol)
    nn_rmse = rmse(pred, yn_test, per_output=True)
    proj_rmse = rmse(projected[converged], yn_test[converged], per_output=True)
    focus = [SCHEMA.idx(name) for name in FOCUS_OUTPUTS]
    return (nn_rmse.mean(), proj_rmse.mean(), nn_rmse[focus].mean(), proj_rmse[focus].mean()), int((~converged).sum())


def _architecture_task(ctx: DataContext, cfg: ExperimentConfig, i: int, width: int):
    """sweep.csv row of the i-th hidden width, its trend slice or None, and its non-converged count.

    A PhysprojError makes the row ``failed:<error>`` and drops the slice and count.
    """
    dims = (3, width, width, 17)
    n_params = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    arch_cfg = replace(cfg, ltp_hidden=(width, width))
    seconds = {}
    try:
        with timed(seconds, "train_seconds"):
            predict = _train_ltp_model(ctx, arch_cfg, cfg.seed + 100 + i, physics=False)
            (mean_nn, mean_proj, focus_nn, focus_proj), n_failed = _score(ctx, cfg, predict)
        trend = _trend_rows(ctx, arch_cfg, predict) if ctx.synthetic and width in cfg.trend_architectures else None
    except PhysprojError as exc:
        return (width, n_params, f"failed:{type(exc).__name__}", *(["nan"] * 7), seconds["train_seconds"]), None, 0
    row = (
        width,
        n_params,
        "ok",
        mean_nn,
        mean_proj,
        rmse_variation_rate(mean_nn, mean_proj),
        focus_nn,
        focus_proj,
        rmse_variation_rate(focus_nn, focus_proj),
        n_failed,
        seconds["train_seconds"],
    )
    return row, trend, n_failed


def run_ablation_arch(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    with timed(report.phase_seconds, "data_generation_seconds"):
        ctx = prepare_ltp(cfg)
    results = run_parallel([partial(_architecture_task, ctx, cfg, i, width) for i, width in enumerate(cfg.architectures)])
    rows = []
    for width, (row, trend, n_failed) in zip(cfg.architectures, results):
        if trend is not None:
            write_csv(
                os.path.join(cfg.out_dir, f"trend_arch_{width}.csv"),
                ["P_pa", "ne_true", "ne_nn", "ne_projection", "converged"],
                trend,
            )
        rows.append(row)
        report.n_nonconverged += n_failed
    write_csv(
        os.path.join(cfg.out_dir, "sweep.csv"),
        [
            "hidden_width",
            "n_parameters",
            "status",
            "rmse_nn_mean17",
            "rmse_projection_mean17",
            "variation_mean17_pct",
            "rmse_nn_focus3",
            "rmse_projection_focus3",
            "variation_focus3_pct",
            "n_nonconverged",
            "train_seconds",
        ],
        rows,
    )
    return report


def _resample_task(ctx: DataContext, cfg: ExperimentConfig, size: int, rep: int):
    """Scores, non-converged count, train_seconds and trend slice (or None) of one resample of ``size`` points."""
    x_pool, y_pool = ctx.splits["train"]
    rng = np.random.default_rng([cfg.seed, size, rep])
    idx = rng.choice(len(x_pool), size=size, replace=False)
    sub_norm = (normalize(x_pool[idx], ctx.in_spec), normalize(y_pool[idx], ctx.out_spec))
    sub_ctx = replace(ctx, norm={**ctx.norm, "train": sub_norm})
    seconds = {}
    with timed(seconds, "train_seconds"):
        predict = _train_ltp_model(sub_ctx, cfg, cfg.seed + 1000 * size + rep, physics=False)
        scores, n_failed = _score(ctx, cfg, predict)
    trend = _trend_rows(ctx, cfg, predict) if ctx.synthetic and size in cfg.trend_sizes and rep == 0 else None
    return scores, n_failed, seconds["train_seconds"], trend


def run_small_samples(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    with timed(report.phase_seconds, "data_generation_seconds"):
        ctx = prepare_ltp(replace(cfg, ltp_n_samples=cfg.pool_size))  # transforms fit on the pool's training split
    n_pool = len(ctx.splits["train"][0])
    jobs = [(size, rep) for size in cfg.sizes if size <= n_pool for rep in range(cfg.n_resamples)]
    results = dict(zip(jobs, run_parallel([partial(_resample_task, ctx, cfg, size, rep) for size, rep in jobs])))

    replicate_rows = []
    sweep_rows = []
    for size in cfg.sizes:
        if size > n_pool:
            replicate_rows.append((size, "all", "failed:pool_too_small", "nan", "nan"))
            continue
        per_rep = []
        train_seconds = 0.0
        nonconv_total = 0
        for rep in range(cfg.n_resamples):
            scores, n_failed, seconds, trend = results[size, rep]
            train_seconds += seconds
            nonconv_total += n_failed
            per_rep.append(scores)
            replicate_rows.append((size, rep, "ok", scores[0], scores[1]))
            if trend is not None:
                write_csv(
                    os.path.join(cfg.out_dir, f"trend_size_{size}.csv"),
                    ["P_pa", "ne_true", "ne_nn", "ne_projection", "converged"],
                    trend,
                )
        means = np.array(per_rep).mean(axis=0)
        sweep_rows.append(
            (
                size,
                cfg.n_resamples,
                means[0],
                means[1],
                rmse_variation_rate(means[0], means[1]),
                means[2],
                means[3],
                rmse_variation_rate(means[2], means[3]),
                nonconv_total,
                train_seconds,
            )
        )
        report.n_nonconverged += nonconv_total
    write_csv(
        os.path.join(cfg.out_dir, "resamples.csv"),
        ["size", "replicate", "status", "rmse_nn_mean17", "rmse_projection_mean17"],
        replicate_rows,
    )
    write_csv(
        os.path.join(cfg.out_dir, "sweep.csv"),
        [
            "size",
            "n_resamples",
            "rmse_nn_mean17",
            "rmse_projection_mean17",
            "variation_mean17_pct",
            "rmse_nn_focus3",
            "rmse_projection_focus3",
            "variation_focus3_pct",
            "n_nonconverged",
            "train_seconds",
        ],
        sweep_rows,
    )
    return report


def run_timing(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    seconds = report.phase_seconds
    with timed(seconds, "data_generation_seconds"):
        ctx = prepare_ltp(cfg)
    xn_test = ctx.norm["test"][0]

    with timed(seconds, "training_seconds"):
        predict = _train_ltp_model(ctx, cfg, cfg.seed + 2, physics=False)

    with timed(seconds, "inference_seconds"):
        _ = predict(xn_test)

    extra = generate_synthetic_ltp(cfg.timing_n_test, cfg.seed + 60)[0] if ctx.synthetic else ctx.splits["test"][0]
    preds = predict(normalize(extra, ctx.in_spec))
    with timed(seconds, "projection_seconds"):
        _, converged, _ = _project_predictions(ctx, preds, extra, cfg.ltp_projection_tol)
    report.n_nonconverged = int((~converged).sum())

    base = seconds["data_generation_seconds"] + seconds["training_seconds"] + seconds["inference_seconds"]
    overhead_pct = 100.0 * seconds["projection_seconds"] / base if base > 0 else float("inf")
    n_points = {
        "data_generation": cfg.ltp_n_samples,
        "training": len(ctx.norm["train"][0]),
        "inference": len(xn_test),
        "projection": len(extra),
    }
    write_csv(
        os.path.join(cfg.out_dir, "timing.csv"),
        ["phase", "n_points", "phase_seconds"],
        [(phase, n, seconds[phase + "_seconds"]) for phase, n in n_points.items()],
    )
    write_csv(
        os.path.join(cfg.out_dir, "overhead.csv"),
        ["projection_overhead_pct_seconds", "n_nonconverged"],
        [(overhead_pct, report.n_nonconverged)],
    )
    return report


RUNNERS = {
    "spring-single": run_spring_single,
    "spring-many": run_spring_many,
    "ltp-compare": run_ltp_compare,
    "ablation-arch": run_ablation_arch,
    "small-samples": run_small_samples,
    "timing": run_timing,
}


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Validate ``cfg``, echo it to manifest.txt in cfg.out_dir, and run cfg.kind."""
    cfg.validate()
    write_manifest(cfg.out_dir, cfg.items())
    return RUNNERS[cfg.kind](cfg)
