import ctypes
import itertools
import json
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from physproj.cli import main as cli_main
from physproj.errors import PhysprojError, ProjectionError, ValidationError
from physproj.nn import forward, load_network, save_network, xavier_init
from physproj.pipeline import ExperimentConfig, experiments, load_config, run_experiment
from physproj.pipeline.experiments import (
    load_spring_data,
    prepare_ltp,
    prepare_spring,
    run_parallel,
    train_ltp_net,
)
from physproj.pipeline.csvio import load_ltp_csv, load_spring_dataset_csv, write_spring_dataset_csv
from physproj.pipeline.metrics import improvement_rates, rmse, rmse_variation_rate, split_dataset
from physproj.projector import CONVERGED, MAX_ITERATIONS

TINY_SPRING = dict(
    seed=3,
    spring_n_samples=400,
    spring_epochs=3,
    spring_hidden=(8, 8),
    spring_steps_single=6,
    spring_steps_many=5,
    spring_n_trajectories=3,
)
TINY_LTP = dict(
    seed=3,
    ltp_n_samples=150,
    ltp_max_epochs=8,
    ltp_hidden=(8, 8),
    trend_n_points=5,
)


# ---------------------------------------------------------------------------
# metrics


def test_split_sizes_and_partition():
    x = np.arange(1000.0)[:, None]
    y = 2.0 * x
    train, val, test = split_dataset((x, y), (0.8, 0.1, 0.1), seed=0)
    assert len(train[0]) == 800 and len(val[0]) == 100 and len(test[0]) == 100
    combined = np.sort(np.concatenate([train[0][:, 0], val[0][:, 0], test[0][:, 0]]))
    assert np.array_equal(combined, x[:, 0])


def test_split_all_training():
    x = np.arange(10.0)[:, None]
    train, val, test = split_dataset((x, x), (1.0, 0.0, 0.0), seed=0)
    assert len(train[0]) == 10 and len(val[0]) == 0 and len(test[0]) == 0


def test_split_deterministic_and_validated():
    x = np.arange(50.0)[:, None]
    a = split_dataset((x, x), (0.8, 0.1, 0.1), seed=7)
    b = split_dataset((x, x), (0.8, 0.1, 0.1), seed=7)
    assert np.array_equal(a[0][0], b[0][0])
    with pytest.raises(ValidationError):
        split_dataset((x, x), (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValidationError):
        split_dataset((x[:3], x[:3]), (0.8, 0.1, 0.1), seed=0)
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):  # sums to 1, and would leave the test split empty
        split_dataset((x, x), (0.9, 0.2, -0.1), seed=0)


def test_rmse_values():
    a = np.array([[1.0, -1.0], [2.0, 5.0]])
    assert np.array_equal(rmse(a, a), [0.0, 0.0])
    pred = np.array([[3.0, 1.0], [4.0, -1.0]])
    target = np.zeros((2, 2))
    assert np.allclose(rmse(pred, target), [np.sqrt(12.5), 1.0])
    with pytest.raises(ValidationError):
        rmse(np.zeros((2, 1)), np.zeros((3, 1)))


def test_improvement_rates_trivial_cases():
    base = np.ones((4, 4))
    assert improvement_rates(base, base) == (0.0, 0.0)
    assert improvement_rates(base, base * 0.5) == (100.0, 100.0)


def test_improvement_rates_constructed_case():
    # mean improves for 2 of 3 trajectories, all variables only for 1
    base = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    proj = np.array([[0.5, 0.5], [0.3, 1.2], [1.2, 1.1]])
    r_mean, r_all = improvement_rates(base, proj)
    assert r_mean == pytest.approx(200.0 / 3.0, abs=0.01)
    assert r_all == pytest.approx(100.0 / 3.0, abs=0.01)


def test_r_all_never_exceeds_r_mean():
    rng = np.random.default_rng(1)
    for _ in range(50):
        base = rng.uniform(0.1, 1.0, size=(10, 4))
        proj = rng.uniform(0.1, 1.0, size=(10, 4))
        r_mean, r_all = improvement_rates(base, proj)
        assert r_all <= r_mean + 1e-12


def test_variation_rate():
    assert rmse_variation_rate(0.05, 0.05) == 0.0
    assert rmse_variation_rate(0.050, 0.048) == pytest.approx(-4.0)
    assert rmse_variation_rate(1.0, 0.5) < 0.0
    with pytest.raises(ValidationError):
        rmse_variation_rate(0.0, 1.0)


# ---------------------------------------------------------------------------
# config


def test_config_from_json_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "timing", "ltp_n_samples": 123, "sizes": [10, 20]}))
    cfg = load_config(path, {"seed": 9, "out_dir": str(tmp_path)})
    assert cfg.kind == "timing" and cfg.ltp_n_samples == 123 and cfg.seed == 9
    assert cfg.sizes == (10, 20)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"not_a_field": 1}))
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ValidationError):
        load_config("/nonexistent/cfg.json")


def test_config_validation_errors(tmp_path, capsys):
    column_map = tmp_path / "map.json"
    column_map.write_text("{}")
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bogus").validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(architectures=()).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(split_fractions=(0.5, 0.2, 0.2)).validate()
    for key, value in (
        ("spring_epochs", -3),
        ("ltp_max_epochs", -1),
        ("spring_steps_single", 0),
        ("spring_steps_many", 0),
        ("spring_projection_tol", 0.0),
        ("ltp_projection_tol", -1e-8),
        ("trend_n_points", 0),
        ("trend_n_points", -1),
        ("plateau_patience", 0),
        ("plateau_patience", -2),
        ("early_stop_strip", 0),
        ("early_stop_strip", -1),
        ("plateau_factor", 0.0),
        ("plateau_factor", -1.0),
        ("plateau_factor", 1.5),
        ("plateau_factor", float("nan")),
        ("trend_current", 0.0),
        ("trend_current", -0.03),
        ("trend_radius", 0.0),
        ("trend_radius", -0.012),
        ("trend_radius", float("nan")),
        ("architectures", (8, 0)),
        ("architectures", (-2,)),
        ("sizes", (0,)),
        ("sizes", (20, -3)),
        ("architectures", (4, 4)),  # a repeated width would train and write its trend slice twice
        ("sizes", (20, 50, 20)),
        ("early_stop_alpha", -1.0),
        ("early_stop_alpha", float("nan")),
        *((key, value) for key in ("spring_lr", "ltp_lr") for value in (float("nan"), float("inf"), 0.0, -1.0)),
        *(("spring_delta_t", value) for value in (float("nan"), float("inf"), 0.0, -0.05)),
        *(("spring_e_max", value) for value in (float("nan"), float("inf"), 0.0, -1.0)),
        ("spring_n_substeps", 0),
        ("spring_n_substeps", -2),
        ("spring_hidden", (0,)),
        ("spring_hidden", (22, -1, 9)),
        ("ltp_hidden", (50, 0)),
        ("ltp_skew_threshold", float("nan")),
        ("split_fractions", (0.9, 0.2, -0.1)),
        ("split_fractions", (1.2, -0.1, -0.1)),
        *((key, value) for key in ("pool_size", "timing_n_test", "spring_batch", "ltp_batch") for value in (0, -3)),
        ("spring_initial_state", (float("nan"), 0.0, 0.0, 0.0)),
        ("spring_initial_state", (-0.16, float("inf"), 0.09, -0.16)),
        *((key, float("inf")) for key in ("spring_projection_tol", "ltp_projection_tol", "trend_current", "trend_radius")),
        *((key, str(tmp_path / "missing")) for key in ("spring_dataset_csv", "ltp_dataset_csv", "ltp_column_map")),
        ("ltp_column_map", str(column_map)),  # a map without the dataset CSV it would rename
    ):
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig(**{key: value}).validate()
    # the CLI reads such values from JSON, which also takes NaN and Infinity
    for values in (
        {"split_fractions": [0.9, 0.2, -0.1]},
        {"spring_delta_t": float("nan")},
        {"spring_delta_t": float("inf")},
        {"ltp_batch": -3},
        {"spring_initial_state": [float("nan"), 0, 0, 0]},
        {"spring_e_max": -1},
        {"spring_n_substeps": 0},
        {"spring_hidden": [0]},
        {"ltp_projection_tol": float("inf")},
        {"ltp_column_map": str(column_map)},
        {"ltp_n_members": 2},  # not an ExperimentConfig key
        {"architectures": [4, 4]},
        {"sizes": [20, 20]},
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        capsys.readouterr()
        assert cli_main(["gen-data", "spring", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(values)) in err and "Traceback" not in err
    ExperimentConfig(spring_hidden=(), ltp_hidden=()).validate()  # no hidden layer: a linear map


@pytest.mark.parametrize("fractions", [(0.9, 0.0, 0.1), (0.9, 0.1, 0.0)], ids=["no_validation", "no_test"])
def test_plasma_experiments_reject_an_empty_validation_or_test_fraction(tmp_path, capsys, fractions):
    for kind in ("ltp-compare", "ablation-arch", "small-samples", "timing"):
        with pytest.raises(ValidationError, match="split_fractions"):
            ExperimentConfig(kind=kind, split_fractions=fractions).validate()
    for kind in ("spring-single", "spring-many"):
        ExperimentConfig(kind=kind, split_fractions=fractions).validate()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"split_fractions": fractions}))
    # train and project build the ltp-compare data, so they are checked as ltp-compare
    for argv in (["experiment", "ablation-arch"], ["train", "ltp"], ["project", "ltp", "--model", str(tmp_path / "m.txt")]):
        capsys.readouterr()
        assert cli_main([*argv, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "split_fractions" in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "a"),
        ("seed", None),
        ("seed", True),
        ("seed", -1),
        ("spring_epochs", 2.0),
        ("spring_projection_tol", "x"),
        ("spring_lr", False),
        ("split_fractions", None),
        ("split_fractions", [1.0]),
        ("spring_initial_state", [0.1, 0.2]),
        ("spring_hidden", [8, "8"]),
        ("spring_hidden", [8.5]),
        ("out_dir", 5),
        ("ltp_dataset_csv", 3),
    ],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ValidationError, match=key):
        load_config(path)
    assert cli_main(["gen-data", "spring", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_accepts_ints_for_floats_and_null_for_optional_paths(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spring_lr": 1, "split_fractions": [1, 0, 0], "ltp_dataset_csv": None}))
    cfg = load_config(path)
    assert cfg.spring_lr == 1 and cfg.split_fractions == (1, 0, 0) and cfg.ltp_dataset_csv is None


# ---------------------------------------------------------------------------
# experiments (tiny scale)


def _strip_time_columns(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        keep = [i for i, name in enumerate(header) if not name.endswith("_seconds")]
        lines = [",".join(header[i] for i in keep)]
        for line in fh:
            cells = line.rstrip("\n").split(",")
            lines.append(",".join(cells[i] for i in keep))
    return "\n".join(lines)


def _run_twice_and_compare(kind, extra, tmp_path, phases):
    """Run ``kind`` twice into one directory; its report times exactly ``phases``."""
    out = tmp_path / kind
    cfg = ExperimentConfig(kind=kind, out_dir=str(out), **extra)
    run_experiment(cfg)
    first = {
        name: _strip_time_columns(out / name)
        for name in sorted(os.listdir(out))
        if name.endswith(".csv")
    }
    report = run_experiment(cfg)  # same directory: out_dir identical in the manifest
    for name, before in first.items():
        assert _strip_time_columns(out / name) == before, f"{kind}/{name} not reproducible"
    assert report.phase_seconds.keys() == {phase + "_seconds" for phase in phases}
    assert all(seconds >= 0.0 for seconds in report.phase_seconds.values())
    return out


def test_spring_single_artifacts_and_determinism(tmp_path):
    out = _run_twice_and_compare("spring-single", TINY_SPRING, tmp_path, ("data_generation", "training", "rollout"))
    files = set(os.listdir(out))
    assert {"manifest.txt", "rmse_summary.csv", "trajectory_truth.csv", "trajectory_nn.csv"} <= files
    with open(out / "rmse_summary.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "model,rmse_x1,rmse_v1,rmse_x2,rmse_v2,rmse_energy_J"
    assert len(rows) == 5  # header + 4 models
    with open(out / "trajectory_nn.csv") as fh:
        assert len(fh.read().strip().splitlines()) == TINY_SPRING["spring_steps_single"] + 2


def test_spring_many_artifacts(tmp_path):
    out = _run_twice_and_compare("spring-many", TINY_SPRING, tmp_path, ("data_generation", "training", "rollout"))
    with open(out / "trajectories.csv") as fh:
        rows = fh.read().strip().splitlines()
    # header + trajectories x models x (4 states + energy)
    assert len(rows) == 1 + TINY_SPRING["spring_n_trajectories"] * 4 * 5
    with open(out / "rates.csv") as fh:
        rates = fh.read().strip().splitlines()
    assert rates[0] == "pair,r_mean_pct,r_all_pct,n_trajectories_used"
    assert len(rates) == 3


def test_spring_many_leaves_out_a_failed_projected_trajectory(tmp_path, monkeypatch):
    """Trajectory 1 of the NN's projected rollout fails at step 3: it gets one failed row,
    the rates and the summary leave it out, and the nonconverged count counts it."""
    _force_cpus(monkeypatch, 1)  # the tasks run inline, the NN's first
    real, made = experiments.energy_projector, itertools.count()

    def energy_projector(out_spec, anchors, tol):
        project, steps, nn = real(out_spec, anchors, tol), itertools.count(1), next(made) == 0

        def projector(ys, rows):
            result = project(ys, rows)
            if nn and next(steps) == 3:
                result.status[rows == 1] = MAX_ITERATIONS
            return result

        return projector

    monkeypatch.setattr(experiments, "energy_projector", energy_projector)
    out = tmp_path / "many"
    report = run_experiment(ExperimentConfig(kind="spring-many", out_dir=str(out), **TINY_SPRING))
    assert report.n_nonconverged == 1
    read = lambda name: [line.split(",") for line in (out / name).read_text().strip().splitlines()[1:]]
    rows = read("trajectories.csv")
    assert [row for row in rows if row[:2] == ["1", "nn_projection"]] == [["1", "nn_projection", "failed", "nan"]]
    assert len(rows) == TINY_SPRING["spring_n_trajectories"] * 4 * 5 - 4
    assert {row[0]: row[-1] for row in read("rates.csv")} == {"nn->projection": "2", "pinn->projection": "3"}
    used = {row[0]: row[-1] for row in read("summary.csv")}
    assert used == {"nn": "3", "pinn": "3", "nn_projection": "2", "pinn_projection": "3"}
    assert read("nonconverged.csv") == [["1"]]


def test_ltp_compare_artifacts(tmp_path):
    out = _run_twice_and_compare("ltp-compare", TINY_LTP, tmp_path, ("data_generation", "training", "projection"))
    with open(out / "per_output_rmse.csv") as fh:
        scores = [line.split(",") for line in fh.read().strip().splitlines()]
    assert len(scores) == 1 + 4 * 17
    with open(out / "ablation.csv") as fh:
        ablation = [line.split(",") for line in fh.read().strip().splitlines()]
    # nn + all + 3 singles + 3 pairs, 17 outputs each
    assert len(ablation) == 1 + 8 * 17
    # the plain NN and the full law set are scored once: ablation's nn and all rows are those normalized cells
    for variant, model in (("nn", "nn"), ("all", "nn_projection")):
        expected = [[output, value] for name, output, value, _ in scores[1:] if name == model]
        assert len(expected) == 17 and [cells[1:] for cells in ablation[1:] if cells[0] == variant] == expected
    with open(out / "constraint_rmse.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 1 + 4 * 3
    with open(out / "projection_status.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert len(rows) == 2 * 15  # nn and pinn over the test split
    i_seconds = header.index("item_seconds")
    assert all(float(row[i_seconds]) >= 0.0 for row in rows)


def test_ablation_arch_sweep(tmp_path):
    extra = {**TINY_LTP, "architectures": (2, 8), "trend_architectures": (8,)}
    out = _run_twice_and_compare("ablation-arch", extra, tmp_path, ("data_generation",))
    with open(out / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().strip().splitlines()
    assert len(rows) == 2
    # hand-counted parameter total for [3, 8, 8, 17]
    cells = rows[1].split(",")
    assert cells[0] == "8" and cells[1] == "257"
    # projection beats the raw network on the focus outputs at small widths
    i_var = header.index("variation_focus3_pct")
    assert all(float(r.split(",")[i_var]) < 0.0 for r in rows)
    assert os.path.exists(out / "trend_arch_8.csv")


def test_ablation_arch_trend_failure_leaves_one_failed_row(tmp_path, monkeypatch):
    def failing_trend(*args):
        raise ValidationError("trend slice failed")

    monkeypatch.setattr(experiments, "_trend_rows", failing_trend)
    out = tmp_path / "arch"
    extra = {**TINY_LTP, "architectures": (2, 8), "trend_architectures": (8,)}
    run_experiment(ExperimentConfig(kind="ablation-arch", out_dir=str(out), **extra))
    with open(out / "sweep.csv") as fh:
        rows = [line.split(",")[:3] for line in fh.read().strip().splitlines()[1:]]
    assert rows == [["2", "65", "ok"], ["8", "257", "failed:ValidationError"]]
    assert not os.path.exists(out / "trend_arch_8.csv")


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_failed_resample_aborts_small_samples(tmp_path, monkeypatch, n_cpus):
    def failing_trend(*args):
        raise ValidationError("trend slice failed")

    monkeypatch.setattr(experiments, "_trend_rows", failing_trend)
    _force_cpus(monkeypatch, n_cpus)
    out = tmp_path / "small"
    extra = {**TINY_LTP, "pool_size": 200, "sizes": (20, 40), "n_resamples": 2, "trend_sizes": (40,)}
    with pytest.raises(ValidationError, match="trend slice failed"):
        run_experiment(ExperimentConfig(kind="small-samples", out_dir=str(out), **extra))
    assert sorted(os.listdir(out)) == ["manifest.txt"]


def test_small_samples_sweep(tmp_path):
    extra = {**TINY_LTP, "pool_size": 200, "sizes": (20, 40), "n_resamples": 2, "trend_sizes": (40,)}
    out = _run_twice_and_compare("small-samples", extra, tmp_path, ("data_generation",))
    with open(out / "resamples.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 1 + 2 * 2
    with open(out / "sweep.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 3


def test_small_samples_marks_a_size_above_the_pool(tmp_path):
    """A pool of 100 splits off fewer than 90 training rows: size 90 gets one
    failed replicate row and no sweep row, and size 20 runs as usual."""
    extra = {**TINY_LTP, "pool_size": 100, "sizes": (20, 90), "n_resamples": 1}
    out = tmp_path / "small"
    run_experiment(ExperimentConfig(kind="small-samples", out_dir=str(out), **extra))
    resamples = (out / "resamples.csv").read_text().strip().splitlines()[1:]
    assert resamples[1:] == ["90,all,failed:pool_too_small,nan,nan"] and resamples[0].startswith("20,0,ok,")
    assert [line.split(",")[0] for line in (out / "sweep.csv").read_text().strip().splitlines()[1:]] == ["20"]


def test_default_sizes_fit_the_training_split_of_the_default_pool():
    """Every default size can be drawn from the default pool's training split,
    and every default trend size is swept, so each writes its slice."""
    cfg = ExperimentConfig()
    pool = np.zeros((cfg.pool_size, 1)), np.zeros((cfg.pool_size, 1))
    n_train = len(split_dataset(pool, cfg.split_fractions, cfg.seed)[0][0])
    assert max(cfg.sizes) <= n_train
    assert set(cfg.trend_sizes) <= set(cfg.sizes)


def test_small_samples_writes_trend_slices_only_for_swept_sizes(tmp_path):
    """The benchmark's sizes with the default trend_sizes (200, 600, 2400):
    600 and 2400 are not swept, so they write no slice and raise nothing."""
    extra = {**TINY_LTP, "pool_size": 300, "sizes": (20, 200), "n_resamples": 2}
    out = tmp_path / "small"
    run_experiment(ExperimentConfig(kind="small-samples", out_dir=str(out), **extra))
    assert [name for name in sorted(os.listdir(out)) if name.startswith("trend")] == ["trend_size_200.csv"]


def _force_cpus(monkeypatch, n):
    """Make run_parallel see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_run_parallel_forks_workers_and_reraises_task_errors(monkeypatch):
    _force_cpus(monkeypatch, 2)
    local = np.arange(3.0)  # inherited by the workers: a lambda cannot be pickled
    results = run_parallel([lambda: (os.getpid(), local.sum()), lambda: (os.getpid(), 2.0 * local.sum())])
    assert [value for _, value in results] == [3.0, 6.0]
    assert os.getpid() not in {pid for pid, _ in results}

    def fail():
        raise ProjectionError("projection failed at rollout step 3", step=3, status="max_iterations")

    with pytest.raises(ProjectionError, match="rollout step 3") as info:
        run_parallel([lambda: 1, fail, lambda: 2])
    assert (info.value.step, info.value.status) == (3, "max_iterations")

    def time_out(signum, frame):
        raise TimeoutError("run_parallel waited on a dead worker")

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(60)
    try:
        with pytest.raises(PhysprojError, match="worker process died"):
            run_parallel([lambda: 1, lambda: os._exit(1)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    _force_cpus(monkeypatch, 1)
    assert run_parallel([os.getpid, os.getpid]) == [os.getpid()] * 2


def test_run_parallel_queues_tasks_beyond_the_workers_and_keeps_task_order(monkeypatch):
    _force_cpus(monkeypatch, 2)
    results = run_parallel([lambda i=i: (i, os.getpid()) for i in range(3)])
    assert [i for i, _ in results] == [0, 1, 2]
    workers = {pid for _, pid in results}
    assert os.getpid() not in workers and len(workers) <= 2


def _openblas_threads():
    """Thread count of each OpenBLAS library loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in os.path.basename(line.split()[-1])})
    names = [name.replace("set_", "get_") for name in experiments.OPENBLAS_SET_NUM_THREADS]
    return [getattr(lib, next(n for n in names if hasattr(lib, n)))() for lib in map(ctypes.CDLL, paths)]


def test_run_parallel_workers_run_openblas_on_one_thread(monkeypatch):
    before = _openblas_threads()
    if not before:
        pytest.skip("numpy loaded no OpenBLAS")
    _force_cpus(monkeypatch, 2)
    assert run_parallel([_openblas_threads, _openblas_threads]) == [[1] * len(before)] * 2
    assert _openblas_threads() == before


@pytest.mark.parametrize("kind", ["spring-single", "spring-many", "ltp-compare", "ablation-arch", "small-samples", "timing"])
def test_one_and_two_workers_write_identical_csvs(tmp_path, monkeypatch, kind):
    if kind.startswith("spring"):
        extra = TINY_SPRING
    else:
        extra = {
            **TINY_LTP,
            "architectures": (2, 8, 3),
            "trend_architectures": (8,),
            "pool_size": 200,
            "sizes": (20, 40),
            "n_resamples": 2,
            "trend_sizes": (40,),
            "timing_n_test": 20,
        }
    outputs = {}
    # three CPUs: the spring kinds' three tasks each get a worker
    for n_cpus in (1, 2, 3) if kind.startswith("spring") else (1, 2):
        _force_cpus(monkeypatch, n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        run_experiment(ExperimentConfig(kind=kind, out_dir=str(out), **extra))
        outputs[n_cpus] = {name: _strip_time_columns(out / name) for name in os.listdir(out) if name.endswith(".csv")}
    assert outputs[1] and all(csvs == outputs[1] for csvs in outputs.values())


def test_timing_artifacts(tmp_path):
    extra = {**TINY_LTP, "timing_n_test": 20}
    out = tmp_path / "timing"
    cfg = ExperimentConfig(kind="timing", out_dir=str(out), **extra)
    report = run_experiment(cfg)
    assert report.phase_seconds.keys() == {
        "data_generation_seconds",
        "training_seconds",
        "inference_seconds",
        "projection_seconds",
    }
    with open(out / "timing.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "phase,n_points,phase_seconds"
    assert all(float(r.split(",")[2]) >= 0.0 for r in rows[1:])


def test_timing_counts_the_rows_of_a_dataset_csv(tmp_path):
    from physproj.constraints import generate_synthetic_ltp
    from physproj.pipeline.csvio import write_ltp_csv

    write_ltp_csv(tmp_path / "ltp.csv", *generate_synthetic_ltp(60, 0))
    cfg = ExperimentConfig(kind="timing", out_dir=str(tmp_path / "t"), **{**TINY_LTP, "ltp_dataset_csv": str(tmp_path / "ltp.csv")})
    run_experiment(cfg)
    with open(tmp_path / "t" / "timing.csv") as fh:
        n_points = {row.split(",")[0]: row.split(",")[1] for row in fh.read().strip().splitlines()[1:]}
    assert n_points == {"data_generation": "60", "training": "48", "inference": "6", "projection": "6"}


def test_spring_dataset_csv_round_trip(tmp_path):
    from physproj import springmass as sm

    inputs, targets = sm.generate_dataset(sm.SpringParams(), 5.0, 20, 0.05, 10, seed=0)
    path = tmp_path / "ds.csv"
    write_spring_dataset_csv(path, inputs, targets)
    x2, y2 = load_spring_dataset_csv(path)
    assert np.array_equal(inputs, x2)
    assert np.array_equal(targets, y2)


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, extra=None):
    cfg = {
        "seed": 5,
        "spring_n_samples": 300,
        "spring_epochs": 2,
        "spring_hidden": [6, 6],
        "spring_steps_single": 4,
        "ltp_n_samples": 120,
        "ltp_max_epochs": 5,
        "ltp_hidden": [6, 6],
    }
    cfg.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_full_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert cli_main(["gen-data", "spring", "--config", cfg, "--out-dir", str(tmp_path / "gs")]) == 0
    assert os.path.exists(tmp_path / "gs" / "spring_dataset.csv")
    assert cli_main(["gen-data", "ltp-synthetic", "--config", cfg, "--out-dir", str(tmp_path / "gl")]) == 0
    assert cli_main(["train", "spring", "--config", cfg, "--out-dir", str(tmp_path / "ms")]) == 0
    assert cli_main(["train", "ltp", "--physics", "--config", cfg, "--out-dir", str(tmp_path / "ml")]) == 0
    assert "kind=ltp-compare\n" in (tmp_path / "ml" / "manifest.txt").read_text()
    assert sorted(os.listdir(tmp_path / "ml")) == ["history.csv", "manifest.txt", "model.txt"]  # the model file stands alone
    model = str(tmp_path / "ms" / "model.txt")
    assert cli_main(["rollout", "--model", model, "--project", "--config", cfg, "--out-dir", str(tmp_path / "r")]) == 0
    with open(tmp_path / "r" / "trajectory.csv") as fh:
        assert len(fh.read().strip().splitlines()) == 6  # header + 5 states
    assert cli_main(["project", "spring", "--model", model, "--config", cfg, "--out-dir", str(tmp_path / "ps")]) == 0
    ltp_model = str(tmp_path / "ml" / "model.txt")
    assert cli_main(["project", "ltp", "--model", ltp_model, "--config", cfg, "--out-dir", str(tmp_path / "pl")]) == 0
    with open(tmp_path / "pl" / "projected.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[:5] == ["index", "status", "iterations", "kkt_norm", "item_seconds"]
    _assert_projected_csv_is_a_direct_projection(tmp_path, load_config(cfg), model, ltp_model)


def _assert_projected_csv_is_a_direct_projection(tmp_path, cfg, spring_model, ltp_model):
    """Every cell of the CLI's projected.csv files outside item_seconds is the row of a direct project_batch call."""
    from physproj import springmass as sm
    from physproj.constraints import OUTPUT_NAMES, EnergyConstraint, LtpConstraints, LtpSchema, normalize
    from physproj.pipeline.csvio import fmt
    from physproj.projector import ProjectionSpec, project_batch

    net, spec, spring_in_spec = load_network(spring_model)
    assert spring_in_spec.to_json() == spec.to_json()  # a spring model's one state transform, on both lines
    x_test = prepare_spring(cfg).splits["test"][0]
    params = sm.SpringParams()
    spring = project_batch(
        forward(net, normalize(x_test, spec)),
        EnergyConstraint(params, None, spec),
        sm.energy(x_test, params)[:, None],
        ProjectionSpec(tolerance=cfg.spring_projection_tol),
    )
    net, out_spec, in_spec = load_network(ltp_model)
    x_test = prepare_ltp(cfg).splits["test"][0]
    ltp = project_batch(
        forward(net, normalize(x_test, in_spec)),
        LtpConstraints(LtpSchema(), out_spec),
        x_test,
        ProjectionSpec(tolerance=cfg.ltp_projection_tol),
    )
    for out, names, result in (("ps", sm.STATE_NAMES, spring), ("pl", OUTPUT_NAMES, ltp)):
        rows = zip(range(len(result.status)), result.status, result.iterations, result.kkt_norm, *result.projected.T)
        expected = [",".join(["index", "status", "iterations", "kkt_norm", *names])]
        expected += [",".join(fmt(v) for v in row) for row in rows]
        assert len(expected) > 1 and _strip_time_columns(tmp_path / out / "projected.csv") == "\n".join(expected)


def test_cli_experiment_and_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, {"timing_n_test": 10})
    out = tmp_path / "exp"
    assert cli_main(["experiment", "timing", "--config", cfg, "--out-dir", str(out)]) == 0
    with open(out / "manifest.txt") as fh:
        manifest = fh.read()
    assert "ltp_n_samples=120" in manifest
    assert "kind=timing" in manifest


def test_cli_rejects_a_config_kind_that_contradicts_the_command(tmp_path, capsys):
    # the command names the kind: a file kind that differs is an error, not silently overridden
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"kind": "timing", "spring_n_samples": 50}))
    for command in (["gen-data", "spring"], ["experiment", "ltp-compare"]):
        out = tmp_path / command[0]
        capsys.readouterr()
        assert cli_main([*command, "--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'kind'" in err and "Traceback" not in err
        assert not out.exists()
    cfg = _write_cfg(tmp_path, {"kind": "timing", "timing_n_test": 10})  # a file kind that agrees is kept
    assert cli_main(["experiment", "timing", "--config", cfg, "--out-dir", str(tmp_path / "t")]) == 0
    assert "kind=timing\n" in (tmp_path / "t" / "manifest.txt").read_text()


@pytest.mark.filterwarnings("error::UserWarning")  # no numpy warning above the error line
def test_cli_validation_exit_code(tmp_path):
    assert cli_main(["experiment", "timing", "--config", "/nonexistent.json"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert cli_main(["experiment", "timing", "--config", str(bad)]) == 1
    # dataset CSVs with a non-numeric cell, a missing column or no data rows
    spring_csv = tmp_path / "spring.csv"
    spring_csv.write_text("x1,v1,x2,v2,x1_next,v1_next,x2_next,v2_next\n1,2,3,abc,5,6,7,8\n")
    cfg = _write_cfg(tmp_path, {"spring_dataset_csv": str(spring_csv)})
    assert cli_main(["experiment", "spring-single", "--config", cfg, "--out-dir", str(tmp_path / "s")]) == 1
    spring_csv.write_text("x1,v1,x2,v2,x1_next,v1_next,x2_next\n1,2,3,4,5,6,7\n")
    assert cli_main(["gen-data", "spring", "--config", cfg, "--out-dir", str(tmp_path / "s")]) == 1
    spring_csv.write_text("x1,v1,x2,v2,x1_next,v1_next,x2_next,v2_next\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_spring_dataset_csv(spring_csv)
    assert cli_main(["gen-data", "spring", "--config", cfg, "--out-dir", str(tmp_path / "s")]) == 1
    ltp_csv = tmp_path / "ltp.csv"
    ltp_csv.write_text("P,I,R\n1,abc,3\n")
    cfg = _write_cfg(tmp_path, {"ltp_dataset_csv": str(ltp_csv)})
    assert cli_main(["experiment", "timing", "--config", cfg, "--out-dir", str(tmp_path / "l")]) == 1


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8", "out_dir_under_a_file"])
def test_cli_unreadable_config_or_unwritable_out_dir_exit_code(tmp_path, capsys, case):
    cfg, out = _write_cfg(tmp_path), tmp_path / "o"
    if case == "config_is_a_directory":
        cfg = str(tmp_path)
    elif case == "config_not_utf8":
        (tmp_path / "latin1.json").write_bytes('{"out_dir": "r\xe9sultats"}'.encode("latin-1"))
        cfg = str(tmp_path / "latin1.json")
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
    capsys.readouterr()
    assert cli_main(["gen-data", "spring", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.filterwarnings("error::UserWarning")  # no numpy warning above the error line
@pytest.mark.parametrize(
    "case, column_map",
    [
        ("no_rows", None),
        ("map_list", [1]),
        ("map_of_number", {"P": 3}),
        ("map_text_scale", {"P": {"scale": "x"}}),
        ("map_nan_scale", {"P": {"scale": float("nan")}}),  # JSON takes NaN and Infinity
        ("map_infinite_scale", {"ne": {"column": "ne", "scale": float("-inf")}}),
        ("map_unknown_key", {"Pressure": {"column": "P", "scale": 2.0}}),  # P's name misspelt
    ],
)
def test_malformed_ltp_csv_or_column_map_exit_code(tmp_path, capsys, case, column_map):
    from physproj.constraints import generate_synthetic_ltp
    from physproj.pipeline.csvio import write_ltp_csv

    csv = tmp_path / "ltp.csv"
    write_ltp_csv(csv, *generate_synthetic_ltp(20, 0))
    if case == "no_rows":
        csv.write_text(csv.read_text().splitlines()[0] + "\n")
    extra = {"ltp_dataset_csv": str(csv)}
    if column_map is not None:
        (tmp_path / "map.json").write_text(json.dumps(column_map))
        extra["ltp_column_map"] = str(tmp_path / "map.json")
    match = {
        "no_rows": "no data rows",
        "map_nan_scale": "scale nan for column 'P'",
        "map_infinite_scale": "scale -inf for column 'ne'",
        "map_unknown_key": r"column map key\(s\) \['Pressure'\]",
    }
    with pytest.raises(ValidationError, match=match.get(case)):
        load_ltp_csv(csv, column_map)
    cfg = _write_cfg(tmp_path, extra)
    capsys.readouterr()
    assert cli_main(["gen-data", "ltp-synthetic", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_projected_rollout_failure_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"spring_projection_tol": 1e-300})  # no step can converge
    assert cli_main(["train", "spring", "--config", cfg, "--out-dir", str(tmp_path / "ms")]) == 0
    model = str(tmp_path / "ms" / "model.txt")
    capsys.readouterr()
    assert cli_main(["rollout", "--model", model, "--project", "--config", cfg, "--out-dir", str(tmp_path / "r")]) == 2
    assert "projection failed at rollout step" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "r" / "trajectory.csv")


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_failed_projected_rollout_ends_spring_single(tmp_path, monkeypatch, capsys, n_cpus):
    # the projected rollouts run in the training workers; their failure is raised in the parent
    _force_cpus(monkeypatch, n_cpus)
    extra = {**TINY_SPRING, "spring_projection_tol": 1e-300}  # no step can converge
    out = tmp_path / "e"
    with pytest.raises(ProjectionError, match="projection failed at rollout step 1 with status") as info:
        run_experiment(ExperimentConfig(kind="spring-single", out_dir=str(out), **extra))
    assert info.value.step == 1 and info.value.status not in ("", CONVERGED)
    assert not os.path.exists(out / "rmse_summary.csv")
    cfg = _write_cfg(tmp_path, extra)
    capsys.readouterr()
    assert cli_main(["experiment", "spring-single", "--config", cfg, "--out-dir", str(tmp_path / "c")]) == 2
    assert f"projection failed at rollout step 1 with status '{info.value.status}'" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a physics-regularized plasma net that diverges: its outputs overflow on de-normalization -> exit code 2
    _force_cpus(monkeypatch, 2)  # the experiment trains in workers; their error keeps its type
    cfg = _write_cfg(tmp_path, {"ltp_lr": 5, "ltp_max_epochs": 20, "ltp_n_samples": 300})
    for command in (["train", "ltp", "--physics"], ["experiment", "ltp-compare"]):
        capsys.readouterr()
        assert cli_main([*command, "--config", cfg, "--out-dir", str(tmp_path / command[0])]) == 2
        assert capsys.readouterr().err == "numerical failure: denormalization overflowed to a non-finite value\n"


def _overflowing_spring_model(tmp_path, cfg):
    """A trained spring model with W0 scaled by 1e200: finite weights whose outputs overflow."""
    assert cli_main(["train", "spring", "--config", cfg, "--out-dir", str(tmp_path / "m")]) == 0
    model = tmp_path / "m" / "model.txt"
    lines = model.read_text().splitlines()
    lines[5] = "W0 " + " ".join(repr(float(v) * 1e200) for v in lines[5].split(" ")[1:])
    model.write_text("\n".join(lines) + "\n")
    return str(model)


def test_cli_rollout_of_an_overflowing_network_exit_code(tmp_path, capsys):
    """A numerical failure (exit 2), with or without projection, reported on one stderr line and no warning."""
    cfg = _write_cfg(tmp_path, {"spring_epochs": 1, "spring_steps_single": 5})
    model = _overflowing_spring_model(tmp_path, cfg)
    for flags, message in (([], "denormalization overflowed"), (["--project"], "projection failed at rollout step")):
        capsys.readouterr()
        assert cli_main(["rollout", "--model", model, *flags, "--config", cfg, "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}") and err.count("\n") == 1 and err.endswith("\n")


def test_cli_project_spring_of_an_overflowing_network(tmp_path, capsys):
    """Each point's status says the projection failed; numpy prints no warning."""
    cfg = _write_cfg(tmp_path, {"spring_epochs": 1, "spring_steps_single": 5})
    model = _overflowing_spring_model(tmp_path, cfg)
    capsys.readouterr()
    assert cli_main(["project", "spring", "--model", model, "--config", cfg, "--out-dir", str(tmp_path / "p")]) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "p" / "projected.csv") as fh:
        statuses = [line.split(",")[1] for line in fh.readlines()[1:]]
    assert statuses and CONVERGED not in statuses


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("system, cell", [("spring", 1), ("spring", 6), ("ltp", 2), ("ltp", 12)], ids=["spring-in", "spring-out", "ltp-in", "ltp-out"])
def test_dataset_csv_with_a_non_finite_cell_exit_code(tmp_path, capsys, system, cell, value):
    """A NaN or infinite input or output cell is rejected when the dataset is read, before any training."""
    cfg = _write_cfg(tmp_path)
    assert cli_main(["gen-data", system if system == "spring" else "ltp-synthetic", "--config", cfg, "--out-dir", str(tmp_path / "g")]) == 0
    csv = tmp_path / "g" / f"{system}_dataset.csv"
    lines = csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[cell] = value
    lines[3] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    column = lines[0].split(",")[cell]
    with pytest.raises(ValidationError, match=f"dataset csv {csv} holds {value} in column '{column}' \\(data row 3\\)"):
        (load_spring_dataset_csv if system == "spring" else load_ltp_csv)(csv)
    cfg = _write_cfg(tmp_path, {f"{system}_dataset_csv": str(csv)})
    commands = [["train", "spring"], ["experiment", "spring-single"]] if system == "spring" else [["experiment", "ltp-compare"]]
    for command in commands:
        capsys.readouterr()
        assert cli_main([*command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(csv) in err and "Traceback" not in err


def test_spring_experiment_reads_generated_dataset_csv(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    assert cli_main(["gen-data", "spring", "--config", cfg_path, "--out-dir", str(tmp_path / "gs")]) == 0
    generated = replace(load_config(cfg_path), kind="spring-single", out_dir=str(tmp_path / "generated"))
    loaded = replace(generated, out_dir=str(tmp_path / "loaded"), spring_dataset_csv=str(tmp_path / "gs" / "spring_dataset.csv"))
    (x_gen, y_gen), synthetic = load_spring_data(generated)
    (x_csv, y_csv), from_csv = load_spring_data(loaded)
    assert synthetic and not from_csv
    assert np.array_equal(x_gen, x_csv) and np.array_equal(y_gen, y_csv)

    run_experiment(generated)
    run_experiment(loaded)
    names = sorted(n for n in os.listdir(generated.out_dir) if n.endswith(".csv"))
    assert names == sorted(n for n in os.listdir(loaded.out_dir) if n.endswith(".csv"))
    for name in names:
        assert _strip_time_columns(tmp_path / "loaded" / name) == _strip_time_columns(tmp_path / "generated" / name), name


def test_cli_train_ltp_saves_the_experiments_network(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "ml"
    assert cli_main(["train", "ltp", "--config", cfg_path, "--out-dir", str(out)]) == 0
    cfg = load_config(cfg_path)
    ctx = prepare_ltp(cfg)
    net, _ = train_ltp_net(ctx, cfg, cfg.seed + 2, physics=False)
    save_network(str(tmp_path / "direct.txt"), net, ctx.out_spec, ctx.in_spec)
    assert (out / "model.txt").read_bytes() == (tmp_path / "direct.txt").read_bytes()


def test_ltp_compare_scores_the_networks_train_ltp_saves(tmp_path):
    """The nn and pinn rows of per_output_rmse.csv are those of the model files `train ltp` writes."""
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "compare"
    assert cli_main(["experiment", "ltp-compare", "--config", cfg_path, "--out-dir", str(out)]) == 0
    with open(out / "per_output_rmse.csv") as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:]]
    xn_test, yn_test = prepare_ltp(load_config(cfg_path)).norm["test"]
    for name, flags in (("nn", []), ("pinn", ["--physics"])):
        assert cli_main(["train", "ltp", *flags, "--config", cfg_path, "--out-dir", str(tmp_path / name)]) == 0
        net = load_network(str(tmp_path / name / "model.txt"))[0]
        scored = [float(value) for model, _, value, _ in rows if model == name]
        assert scored == list(rmse(forward(net, xn_test), yn_test))


def _model_file(tmp_path, case):
    from physproj import springmass as sm
    from physproj.constraints import fit_transform

    path = tmp_path / "model.txt"
    if case == "missing":
        return str(path)
    inputs, _ = sm.generate_dataset(sm.SpringParams(), 5.0, 50, 0.05, 10, seed=0)
    spec = fit_transform(inputs, sm.STATE_NAMES)
    save_network(str(path), xavier_init((4, 3, 4), seed=0), spec, spec)
    lines = path.read_text().splitlines()
    if case == "truncated":
        lines = lines[:2]
    elif case == "single_width":
        lines[1] = "layer_dims 4"
    elif case == "zero_slope":  # max(z, 0 * z) is NaN at z = +inf
        lines[2] = "activation leaky_relu 0.0"
    elif case == "other_slope":  # a valid leaky ReLU, but not the one the networks compute
        lines[2] = "activation leaky_relu 0.3"
    elif case == "identity_activation":
        lines[2] = "activation identity 0.01"
    elif case == "no_transform":
        lines[3] = "transform none"
    elif case == "nan_bias":  # every prediction of the network would be NaN
        lines[6] = "b0 nan " + lines[6].split(" ", 2)[2]
    elif case == "infinite_weight":
        lines[5] = "W0 -inf " + lines[5].split(" ", 2)[2]
    elif case in ("nan_bound", "nan_input_bound"):  # a NaN min would pass the max <= min check
        at = 3 if case == "nan_bound" else 4
        key, text = lines[at].split(" ", 1)
        transform = json.loads(text)
        transform["mins"][0] = float("nan")
        lines[at] = f"{key} {json.dumps(transform)}"
    elif case == "huge_int_bound":  # JSON reads the integer, which no float can hold
        transform = json.loads(lines[3].removeprefix("transform "))
        transform["mins"][0] = 10**400
        lines[3] = "transform " + json.dumps(transform)
    elif case == "deep_transform":  # too deep for the JSON decoder's recursion
        lines[3] = "transform " + "[" * 100_000 + "]" * 100_000
    elif case == "input_width_mismatch":  # the network takes 4 inputs
        lines[4] = "input_transform " + fit_transform(inputs[:, :3], sm.STATE_NAMES[:3]).to_json()
    else:  # unparsable weight
        lines[5] = lines[5].replace(" ", " x", 1)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", [["project", "spring"], ["rollout"]], ids=["project", "rollout"])
@pytest.mark.parametrize(
    "case",
    [
        "missing",
        "truncated",
        "unparsable",
        "single_width",
        "zero_slope",
        "other_slope",
        "identity_activation",
        "no_transform",
        "nan_bias",
        "infinite_weight",
        "nan_bound",
        "nan_input_bound",
        "huge_int_bound",
        "deep_transform",
        "input_width_mismatch",
    ],
)
def test_cli_malformed_model_exit_code(tmp_path, capsys, command, case):
    model = _model_file(tmp_path, case)
    with pytest.raises(ValidationError):
        load_network(model)
    args = [*command, "--model", model, "--config", _write_cfg(tmp_path), "--out-dir", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    where = {
        "truncated": "line 3 (activation)",
        "unparsable": "line 6 (W0)",
        "single_width": "line 2 (layer_dims)",
        "zero_slope": "line 3 (activation)",
        "other_slope": "line 3 (activation)",
        "identity_activation": "line 3 (activation)",
        "no_transform": "line 4 (transform)",
        "nan_bias": "line 7 (b0)",
        "infinite_weight": "line 6 (W0)",
        "nan_bound": "line 4 (transform): non-finite min or max for feature(s) ['x1']",
        "nan_input_bound": "line 5 (input_transform): non-finite min or max for feature(s) ['x1']",
        "huge_int_bound": "line 4 (transform): OverflowError: int too large to convert to float",
        "deep_transform": "line 4 (transform): RecursionError: ",
        "input_width_mismatch": "line 5 (input_transform): 3 features for a layer of width 4",
    }
    assert (f"malformed model file {model}: " + where[case] if case in where else "") in err


def test_cli_project_ltp_without_input_transform_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli_main(["train", "ltp", "--config", cfg, "--out-dir", str(tmp_path / "ml")]) == 0
    model = tmp_path / "ml" / "model.txt"
    lines = model.read_text().splitlines()
    assert lines[4].startswith("input_transform ")
    model.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
    capsys.readouterr()
    assert cli_main(["project", "ltp", "--model", str(model), "--config", cfg, "--out-dir", str(tmp_path / "pl")]) == 1
    assert capsys.readouterr().err == f"error: malformed model file {model}: line 5 (input_transform): the line starts 'W0'\n"


def test_cli_project_ltp_with_a_non_finite_input_transform_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli_main(["train", "ltp", "--config", cfg, "--out-dir", str(tmp_path / "ml")]) == 0
    model = tmp_path / "ml" / "model.txt"
    lines = model.read_text().splitlines()
    transform = json.loads(lines[4].removeprefix("input_transform "))
    transform["maxs"][2] = float("inf")
    lines[4] = "input_transform " + json.dumps(transform)
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["project", "ltp", "--model", str(model), "--config", cfg, "--out-dir", str(tmp_path / "pl")]) == 1
    expected = f"error: malformed model file {model}: line 5 (input_transform): non-finite min or max for feature(s) ['R']\n"
    assert capsys.readouterr().err == expected


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """bench/tracing.py wraps package functions by name; a removed name breaks every traced run."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import tracing

    from physproj.pipeline import experiments

    original = experiments.project_batch
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert experiments.project_batch is original
