"""The six experiments, and the builders every physproj command trains and projects through.

``run_experiment`` takes an ExperimentConfig, writes manifest.txt plus the
experiment's CSV artifacts into config.out_dir, and returns a MetricsReport.
``prepare_spring``/``prepare_ltp`` turn a config into data, splits and
feature transforms, ``train_spring_net``/``train_ltp_net`` train one
network on them, and ``energy_projector``/``project_predictions`` project
onto each law set; the CLI calls the same functions. All randomness flows
from config.seed through fixed offsets (dataset, split, per-model training,
initial conditions, resamples), so reruns with the same config produce
byte-identical CSVs apart from *_seconds columns. Every *_seconds value
is measured by ``timed``. Trainings that share nothing, each with the
spring rollouts or ltp-compare projections of its net, and the spring
ground truth run side by side in worker processes through ``run_parallel``.
"""

from __future__ import annotations

import json
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
    normalize,
)
from physproj.constraints.ltp import P_TORR_RANGE, TORR_TO_PA, synthetic_outputs
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
from physproj.pipeline.csvio import load_ltp_csv, load_spring_dataset_csv, write_csv, write_manifest, write_trajectory_csv
from physproj.pipeline.metrics import improvement_rates, rmse, rmse_variation_rate, split_dataset
# project is not called here; bench/tracing.py wraps experiments.project by name
from physproj.projector import CONVERGED, ProjectionSpec, project, project_batch  # noqa: F401
from physproj.springmass import STATE_NAMES, SpringParams

PARAMS = SpringParams()
SCHEMA = LtpSchema()
FOCUS_OUTPUTS = ("O2_X", "O2_plus", "ne")
FULL_LAWS = (0, 1, 2)
LAW_VARIANTS = (
    ("all", FULL_LAWS),
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

    They run in one worker process per usable CPU, but in no more workers
    than tasks; a task still queued goes to the first worker that frees.
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


def _train_net(ctx: DataContext, layer_dims: tuple, term, **settings):
    """Train a Glorot-initialized net of ``layer_dims`` on ctx's normalized splits with the
    physics term ``term``; ``settings`` are the TrainConfig fields, and their seed also seeds
    the initialization. Returns (net, history)."""
    tcfg = TrainConfig(**settings)
    net = xavier_init(layer_dims, seed=tcfg.seed)
    return train(net, ctx.norm["train"], ctx.norm["val"], tcfg, physics=term)


def train_spring_net(ctx: DataContext, cfg: ExperimentConfig, physics: bool):
    """Train the spring-mass NN, or with ``physics`` the PINN; returns (net, history).

    Both start from the same initialization and shuffle stream, so the
    four-model comparison isolates the effect of the physics term.
    """
    term = SpringEnergyTerm(PARAMS, ctx.out_spec, weight=cfg.spring_lambda) if physics else None
    return _train_net(
        ctx, (4, *cfg.spring_hidden, 4), term,
        learning_rate=cfg.spring_lr, max_epochs=cfg.spring_epochs, batch_size=cfg.spring_batch, seed=cfg.seed + 2,
    )


def train_ltp_net(ctx: DataContext, cfg: ExperimentConfig, seed: int, physics: bool):
    """Train one LTP network (the PINN with ``physics``); returns (net, history).

    ``seed`` seeds both the initialization and the shuffle stream.
    """
    term = LtpResidualTerm(LtpConstraints(SCHEMA, ctx.out_spec), ctx.in_spec, cfg.ltp_lambda) if physics else None
    return _train_net(
        ctx, (3, *cfg.ltp_hidden, 17), term,
        learning_rate=cfg.ltp_lr, max_epochs=cfg.ltp_max_epochs, batch_size=cfg.ltp_batch,
        early_stop=EarlyStopConfig(cfg.early_stop_alpha, cfg.early_stop_strip),
        lr_plateau=PlateauConfig(cfg.plateau_patience, cfg.plateau_factor),
        seed=seed,
    )


def energy_projector(out_spec: TransformSpec, anchors: np.ndarray, tol: float):
    """The ``projector(ys, rows)`` that ``springmass.rollout`` takes: it projects the
    normalized spring states ``ys`` at tolerance ``tol``, each onto the energy
    shell of its own anchor in ``anchors[rows]`` (J). One constraint serves every anchor."""
    constraint = EnergyConstraint(PARAMS, None, out_spec)
    pspec = ProjectionSpec(tolerance=tol)
    return lambda ys, rows: project_batch(ys, constraint, anchors[rows, None], pspec)


def project_predictions(out_spec: TransformSpec, preds: np.ndarray, x_phys: np.ndarray, tol: float, laws=FULL_LAWS):
    """Normalized LTP predictions projected onto the laws ``laws`` at the physical inputs
    ``x_phys``: the ProjectionResult, and the mask of converged points."""
    result = project_batch(preds, LtpConstraints(SCHEMA, out_spec, laws=laws), x_phys, ProjectionSpec(tolerance=tol))
    return result, result.status == CONVERGED


def projection_rows(result, seconds: float):
    """Rows (index, status, iterations, kkt_norm, item_seconds) of a batch ``result`` projected in ``seconds``."""
    n = len(result.status)
    return zip(range(n), result.status, result.iterations, result.kkt_norm, [seconds / max(n, 1)] * n)


# ---------------------------------------------------------------------------
# spring-mass experiments


def _spring_task(ctx: DataContext, cfg: ExperimentConfig, physics: bool, initial_states: np.ndarray, anchors, n_steps: int):
    """Train the NN (the PINN with ``physics``), then roll it out from ``initial_states``, plain and projected.

    The projected rollout keeps trajectory i on the energy shell of ``anchors[i]``, its initial
    energy (J), and records a failed projection in its RolloutResult instead of raising.
    Returns ((plain, projected), training seconds, rollout seconds).
    """
    seconds = {}
    with timed(seconds, "training"):
        net, _ = train_spring_net(ctx, cfg, physics)
    with timed(seconds, "rollout"):
        projector = energy_projector(ctx.out_spec, anchors, cfg.spring_projection_tol)
        model_fn = lambda z: forward(net, z)
        plain = springmass.rollout(model_fn, initial_states, n_steps, ctx.out_spec, params=PARAMS)
        projected = springmass.rollout(model_fn, initial_states, n_steps, ctx.out_spec, projector=projector, params=PARAMS)
    return (plain, projected), seconds["training"], seconds["rollout"]


def _truth_task(cfg: ExperimentConfig, initial_states: np.ndarray, n_steps: int):
    """The true trajectories from ``initial_states``, and their integration time."""
    seconds = {}
    with timed(seconds, "truth"):
        truth = springmass.true_trajectory(initial_states, PARAMS, n_steps, cfg.spring_delta_t, cfg.spring_n_substeps)
    return truth, seconds["truth"]


def _spring_runs(cfg: ExperimentConfig, initial_states: np.ndarray, n_steps: int, seconds: dict):
    """(out_spec, anchors, rollouts, truth): the state transform, the initial energies (J) computed
    once for both nets, the rollouts {"nn", "nn_projection", "pinn", "pinn_projection"} and the
    true trajectories. The data splits stay here; callers keep only what they score with.

    One task per net trains it and runs both its rollouts; the ground truth is the last task, so
    with two workers it runs in the one that frees first, the NN's, while the PINN still trains.
    ``seconds`` gets the tasks' own training and rollout times, each summed over the tasks.
    """
    with timed(seconds, "data_generation_seconds"):
        ctx = prepare_spring(cfg)
    anchors = springmass.energy(initial_states, PARAMS)
    tasks = [partial(_spring_task, ctx, cfg, physics, initial_states, anchors, n_steps) for physics in (False, True)]
    (nn, nn_train, nn_rollout), (pinn, pinn_train, pinn_rollout), (truth, truth_seconds) = run_parallel(
        [*tasks, partial(_truth_task, cfg, initial_states, n_steps)]
    )
    seconds["training_seconds"] = nn_train + pinn_train
    seconds["rollout_seconds"] = nn_rollout + pinn_rollout + truth_seconds
    rollouts = {"nn": nn[0], "nn_projection": nn[1], "pinn": pinn[0], "pinn_projection": pinn[1]}
    return ctx.out_spec, anchors, rollouts, truth


def _trajectory_rmses(states, energies, truth_norm: np.ndarray, spec, anchors) -> np.ndarray:
    """Per-variable normalized RMSE (x1, v1, x2, v2) then energy RMSE in J, per trajectory."""
    state_rmse = rmse(normalize(states, spec)[1:], truth_norm[1:])
    energy_rmse = rmse(energies[1:], np.broadcast_to(anchors, energies[1:].shape))
    return np.concatenate([state_rmse, energy_rmse[..., None]], axis=-1)


def run_spring_single(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    ic = np.asarray(cfg.spring_initial_state, dtype=np.float64)
    spec, anchors, rollouts, truths = _spring_runs(cfg, ic[None], cfg.spring_steps_single, report.phase_seconds)

    truth = truths[:, 0]
    truth_norm = normalize(truth, spec)
    write_trajectory_csv(
        os.path.join(cfg.out_dir, "trajectory_truth.csv"),
        truth,
        np.asarray(springmass.energy(truth, PARAMS)),
        cfg.spring_delta_t,
    )

    rows = []
    for name, result in rollouts.items():
        result.raise_failure()  # single-trajectory run has nothing to fall back on
        states, energies = result.states[:, 0], result.energies[:, 0]
        write_trajectory_csv(os.path.join(cfg.out_dir, f"trajectory_{name}.csv"), states, energies, cfg.spring_delta_t)
        rmses = _trajectory_rmses(states, energies, truth_norm, spec, anchors[0])
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
    rng = np.random.default_rng(cfg.seed + 4)
    initial_states = springmass.sample_states(PARAMS, cfg.spring_e_max, cfg.spring_n_trajectories, rng)
    spec, anchors, rollouts, truths = _spring_runs(cfg, initial_states, cfg.spring_steps_many, report.phase_seconds)

    model_names = ("nn", "pinn", "nn_projection", "pinn_projection")
    truth_norm = normalize(truths, spec)
    rmses = {name: _trajectory_rmses(r.states, r.energies, truth_norm, spec, anchors) for name, r in rollouts.items()}
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


def _ltp_task(ctx: DataContext, cfg: ExperimentConfig, physics: bool, law_subsets: tuple):
    """Train the NN (the PINN with ``physics``), predict the test split, and project the predictions
    onto the full law set, timed, then untimed onto each law set of ``law_subsets``. Returns
    (predictions, {laws: (ProjectionResult, converged mask)}, training seconds, projection seconds)."""
    x_test, xn_test = ctx.splits["test"][0], ctx.norm["test"][0]
    seconds = {}
    with timed(seconds, "training"):
        # a shared seed: the PINN differs from the NN only through its loss
        net, _ = train_ltp_net(ctx, cfg, cfg.seed + 2, physics)
    pred = forward(net, xn_test)
    with timed(seconds, "projection"):
        projections = {FULL_LAWS: project_predictions(ctx.out_spec, pred, x_test, cfg.ltp_projection_tol)}
    for laws in law_subsets:
        projections[laws] = project_predictions(ctx.out_spec, pred, x_test, cfg.ltp_projection_tol, laws)
    return pred, projections, seconds["training"], seconds["projection"]


def run_ltp_compare(cfg: ExperimentConfig) -> MetricsReport:
    """One task per net trains it, predicts the test split and projects the predictions:
    the NN's onto the full law set and each ablation subset, the PINN's onto the full set.
    So with two workers the NN's projections run while the PINN still trains."""
    report = MetricsReport()
    seconds = report.phase_seconds
    with timed(seconds, "data_generation_seconds"):
        ctx = prepare_ltp(cfg)
    x_test, y_test = ctx.splits["test"]
    yn_test = ctx.norm["test"][1]

    tasks = [
        partial(_ltp_task, ctx, cfg, False, tuple(laws for _, laws in LAW_VARIANTS[1:])),
        partial(_ltp_task, ctx, cfg, True, ()),
    ]
    outcomes = dict(zip(("nn", "pinn"), run_parallel(tasks)))  # name -> what _ltp_task returns
    seconds["training_seconds"] = sum(outcome[2] for outcome in outcomes.values())
    seconds["projection_seconds"] = sum(outcome[3] for outcome in outcomes.values())

    preds = {name: outcome[0] for name, outcome in outcomes.items()}
    masks = {name: np.ones(len(x_test), dtype=bool) for name in preds}  # the unprojected models score every point
    status_rows = []
    for name, (_, projections, _, batch_seconds) in outcomes.items():
        result, converged = projections[FULL_LAWS]
        preds[name + "_projection"] = result.projected
        masks[name + "_projection"] = converged
        report.n_nonconverged += int((~converged).sum())
        status_rows.extend((name + "_projection", *row) for row in projection_rows(result, batch_seconds))
    write_csv(
        os.path.join(cfg.out_dir, "projection_status.csv"),
        ["model", "index", "status", "iterations", "kkt_norm", "item_seconds"],
        status_rows,
    )

    scores = {}  # model -> normalized RMSE per output
    rmse_rows = []
    constraint_rows = []
    all_laws = LtpConstraints(SCHEMA, ctx.out_spec)
    for name in ("nn", "pinn", "nn_projection", "pinn_projection"):
        mask = masks[name]
        pred = preds[name][mask]
        scores[name] = rmse(pred, yn_test[mask])
        physical = rmse(denormalize(pred, ctx.out_spec), y_test[mask])
        report.per_output_rmse[name] = dict(zip(ctx.out_spec.names, scores[name]))
        rmse_rows.extend((name, output, scores[name][j], physical[j]) for j, output in enumerate(ctx.out_spec.names))
        residuals = all_laws.residual(x_test[mask], pred)
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

    # per-law ablation of the projection applied to the plain NN predictions; nn and all reuse the scores above
    ablation = {"nn": scores["nn"], "all": scores["nn_projection"]}
    for variant, laws in LAW_VARIANTS[1:]:
        result, converged = outcomes["nn"][1][laws]
        ablation[variant] = rmse(result.projected[converged], yn_test[converged])
    write_csv(
        os.path.join(cfg.out_dir, "ablation.csv"),
        ["variant", "output", "rmse_normalized"],
        [(variant, output, value) for variant, values in ablation.items() for output, value in zip(ctx.out_spec.names, values)],
    )
    return report


TREND_COLUMNS = ["P_pa", "ne_true", "ne_nn", "ne_projection", "converged"]
# the sweep.csv columns that ablation-arch and small-samples share, filled by _score_cells
SCORE_COLUMNS = [
    "rmse_nn_mean17",
    "rmse_projection_mean17",
    "variation_mean17_pct",
    "rmse_nn_focus3",
    "rmse_projection_focus3",
    "variation_focus3_pct",
    "n_nonconverged",
    "train_seconds",
]


def _trend_rows(ctx: DataContext, cfg: ExperimentConfig, net):
    """TREND_COLUMNS rows: ne along a log-spaced pressure slice at cfg.trend_current and cfg.trend_radius."""
    p_torr = np.logspace(np.log10(P_TORR_RANGE[0]), np.log10(P_TORR_RANGE[1]), cfg.trend_n_points)
    grid = np.stack(
        [p_torr * TORR_TO_PA, np.full_like(p_torr, cfg.trend_current), np.full_like(p_torr, cfg.trend_radius)],
        axis=-1,
    )
    ne_idx = SCHEMA.idx("ne")
    pred = forward(net, normalize(grid, ctx.in_spec))
    result, converged = project_predictions(ctx.out_spec, pred, grid, cfg.ltp_projection_tol)
    truth = synthetic_outputs(grid)[:, ne_idx]
    pred_phys = denormalize(pred, ctx.out_spec)[:, ne_idx]
    proj_phys = denormalize(result.projected, ctx.out_spec)[:, ne_idx]
    return list(zip(grid[:, 0], truth, pred_phys, proj_phys, converged.astype(int)))


def _score(ctx: DataContext, cfg: ExperimentConfig, net):
    """Mean-17 and focus-3 normalized test RMSEs of ``net`` before and after projection, and the non-converged count."""
    xn_test, yn_test = ctx.norm["test"]
    pred = forward(net, xn_test)
    result, converged = project_predictions(ctx.out_spec, pred, ctx.splits["test"][0], cfg.ltp_projection_tol)
    nn_rmse = rmse(pred, yn_test)
    proj_rmse = rmse(result.projected[converged], yn_test[converged])
    focus = [SCHEMA.idx(name) for name in FOCUS_OUTPUTS]
    return (nn_rmse.mean(), proj_rmse.mean(), nn_rmse[focus].mean(), proj_rmse[focus].mean()), int((~converged).sum())


def _score_cells(scores, n_failed: int, train_seconds: float) -> tuple:
    """The SCORE_COLUMNS cells of a sweep.csv row, from ``_score``'s four RMSEs."""
    mean_nn, mean_proj, focus_nn, focus_proj = scores
    mean_var, focus_var = rmse_variation_rate(mean_nn, mean_proj), rmse_variation_rate(focus_nn, focus_proj)
    return mean_nn, mean_proj, mean_var, focus_nn, focus_proj, focus_var, n_failed, train_seconds


def _sweep_task(ctx: DataContext, cfg: ExperimentConfig, seed: int, rows, trend: bool):
    """One sweep point: train on the training rows ``rows``, score, and build the trend slice if ``trend``.

    Returns ((scores, non-converged count, trend rows or None), train_seconds),
    where train_seconds covers training and scoring. A PhysprojError is
    returned in place of the triple, not raised, and each sweep decides what
    it means.
    """
    x_train, y_train = ctx.norm["train"]
    sub_ctx = replace(ctx, norm={**ctx.norm, "train": (x_train[rows], y_train[rows])})
    seconds = {}
    try:
        with timed(seconds, "train"):
            net, _ = train_ltp_net(sub_ctx, cfg, seed, physics=False)
            scores, n_failed = _score(ctx, cfg, net)
        return (scores, n_failed, _trend_rows(ctx, cfg, net) if trend else None), seconds["train"]
    except PhysprojError as exc:
        return exc, seconds["train"]


def run_ablation_arch(cfg: ExperimentConfig) -> MetricsReport:
    """One sweep point per hidden width; a failed width gets a ``failed:<error>`` row."""
    report = MetricsReport()
    with timed(report.phase_seconds, "data_generation_seconds"):
        ctx = prepare_ltp(cfg)
    trend = [ctx.synthetic and width in cfg.trend_architectures for width in cfg.architectures]
    tasks = [
        partial(_sweep_task, ctx, replace(cfg, ltp_hidden=(width, width)), cfg.seed + 100 + i, slice(None), trend[i])
        for i, width in enumerate(cfg.architectures)
    ]
    rows = []
    for width, (outcome, train_seconds) in zip(cfg.architectures, run_parallel(tasks)):
        dims = (3, width, width, 17)
        n_params = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
        if isinstance(outcome, PhysprojError):
            rows.append((width, n_params, f"failed:{type(outcome).__name__}", *["nan"] * (len(SCORE_COLUMNS) - 1), train_seconds))
            continue
        scores, n_failed, trend_rows = outcome
        if trend_rows is not None:
            write_csv(os.path.join(cfg.out_dir, f"trend_arch_{width}.csv"), TREND_COLUMNS, trend_rows)
        rows.append((width, n_params, "ok", *_score_cells(scores, n_failed, train_seconds)))
        report.n_nonconverged += n_failed
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ["hidden_width", "n_parameters", "status", *SCORE_COLUMNS], rows)
    return report


def run_small_samples(cfg: ExperimentConfig) -> MetricsReport:
    """cfg.n_resamples sweep points per training-set size, drawn from one pool; a failed resample aborts the sweep."""
    report = MetricsReport()
    with timed(report.phase_seconds, "data_generation_seconds"):
        ctx = prepare_ltp(replace(cfg, ltp_n_samples=cfg.pool_size))  # transforms fit on the pool's training split
    n_pool = len(ctx.splits["train"][0])
    jobs = [(size, rep) for size in cfg.sizes if size <= n_pool for rep in range(cfg.n_resamples)]
    tasks = [
        partial(
            _sweep_task,
            ctx,
            cfg,
            cfg.seed + 1000 * size + rep,
            np.random.default_rng([cfg.seed, size, rep]).choice(n_pool, size=size, replace=False),
            ctx.synthetic and size in cfg.trend_sizes and rep == 0,
        )
        for size, rep in jobs
    ]
    results = dict(zip(jobs, run_parallel(tasks)))
    for outcome, _ in results.values():
        if isinstance(outcome, PhysprojError):
            raise outcome

    replicate_rows = []
    sweep_rows = []
    for size in cfg.sizes:
        if size > n_pool:
            replicate_rows.append((size, "all", "failed:pool_too_small", "nan", "nan"))
            continue
        outcomes = [results[size, rep] for rep in range(cfg.n_resamples)]
        for rep, ((scores, _, trend_rows), _) in enumerate(outcomes):
            replicate_rows.append((size, rep, "ok", scores[0], scores[1]))
            if trend_rows is not None:
                write_csv(os.path.join(cfg.out_dir, f"trend_size_{size}.csv"), TREND_COLUMNS, trend_rows)
        means = np.array([scores for (scores, _, _), _ in outcomes]).mean(axis=0)
        n_failed = sum(n for (_, n, _), _ in outcomes)
        sweep_rows.append((size, cfg.n_resamples, *_score_cells(means, n_failed, sum(s for _, s in outcomes))))
        report.n_nonconverged += n_failed
    write_csv(
        os.path.join(cfg.out_dir, "resamples.csv"),
        ["size", "replicate", "status", "rmse_nn_mean17", "rmse_projection_mean17"],
        replicate_rows,
    )
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ["size", "n_resamples", *SCORE_COLUMNS], sweep_rows)
    return report


def run_timing(cfg: ExperimentConfig) -> MetricsReport:
    report = MetricsReport()
    seconds = report.phase_seconds
    with timed(seconds, "data_generation_seconds"):
        ctx = prepare_ltp(cfg)
    xn_test = ctx.norm["test"][0]

    with timed(seconds, "training_seconds"):
        net, _ = train_ltp_net(ctx, cfg, cfg.seed + 2, physics=False)

    with timed(seconds, "inference_seconds"):
        _ = forward(net, xn_test)

    extra = generate_synthetic_ltp(cfg.timing_n_test, cfg.seed + 60)[0] if ctx.synthetic else ctx.splits["test"][0]
    preds = forward(net, normalize(extra, ctx.in_spec))
    with timed(seconds, "projection_seconds"):
        _, converged = project_predictions(ctx.out_spec, preds, extra, cfg.ltp_projection_tol)
    report.n_nonconverged = int((~converged).sum())

    base = seconds["data_generation_seconds"] + seconds["training_seconds"] + seconds["inference_seconds"]
    overhead_pct = 100.0 * seconds["projection_seconds"] / base if base > 0 else float("inf")
    n_points = {
        "data_generation": sum(len(x) for x, _ in ctx.splits.values()),
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
