"""The three workloads: experiment configs and checks on their outputs.

Every config runs at experiment seed 0, the seed of the acceptance suite.
The experiments' cost, their failure counts and the paper's improvement
rates all depend on that seed (README.md gives the figures), so a workload
whose seed moved would not measure the same work in every run.

``check`` reads the CSVs the experiment wrote and tests properties the
method must have; it never compares with a stored copy of earlier output.
It returns (projections attempted, projections failed, problems found).
"""

import csv
import os

from physproj.projector import CONVERGED

WORKLOADS = {
    "spring-many": {"kind": "spring-many", "seed": 0},
    "small-samples": {"kind": "small-samples", "seed": 0, "sizes": [20, 200], "n_resamples": 4},
    "ltp-compare": {"kind": "ltp-compare", "seed": 0},
}

# acceptance-suite thresholds for the paper's spring-mass improvement rates
R_MEAN_MIN_PCT = 85.0
R_ALL_MIN_PCT = 45.0


def _rows(cfg, name):
    with open(os.path.join(cfg.out_dir, name), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _n_test(cfg, n_samples):
    # split_dataset gives the test split floor(n * fraction) samples
    return int(n_samples * cfg.split_fractions[2])


def check_spring_many(cfg, problems):
    import numpy as np

    from physproj import springmass

    n_traj = cfg.spring_n_trajectories
    failed = int(_rows(cfg, "nonconverged.csv")[0]["n_nonconverged_projections"])
    attempted = 2 * n_traj  # one projected rollout per trajectory and net

    # initial conditions as the experiment draws them (seed offset 4)
    params = springmass.SpringParams()
    rng = np.random.default_rng(cfg.seed + 4)
    e0 = springmass.energy(springmass.sample_states(params, cfg.spring_e_max, n_traj, rng), params)
    limit = cfg.spring_projection_tol * np.maximum(e0, 1.0)

    groups: dict = {}
    for row in _rows(cfg, "trajectories.csv"):
        groups.setdefault((int(row["trajectory"]), row["model"]), {})[row["variable"]] = row["rmse"]
    models = ("nn", "pinn", "nn_projection", "pinn_projection")
    if set(groups) != {(t, m) for t in range(n_traj) for m in models}:
        problems.append("trajectories.csv does not hold every trajectory of every model")
        return attempted, failed
    failed_rows = [key for key, var in groups.items() if "failed" in var]
    if len(failed_rows) != failed or any(not m.endswith("_projection") for _, m in failed_rows):
        problems.append(f"trajectories.csv marks {len(failed_rows)} failed rollouts, nonconverged.csv {failed}")
    for (t, model), var in groups.items():
        if model.endswith("_projection") and "failed" not in var:
            if not float(var["energy_J"]) <= limit[t] * (1.0 + 1e-9):
                problems.append(f"{model} trajectory {t}: energy RMSE {var['energy_J']} J above {limit[t]:.3e} J")

    summary = {row["model"]: float(row["mean_rmse_energy_J"]) for row in _rows(cfg, "summary.csv")}
    for base in ("nn", "pinn"):
        if not summary[base] >= 10.0 * summary[base + "_projection"]:
            problems.append(f"{base} mean energy RMSE {summary[base]:.3e} J is not 10x {base}_projection's")

    rates = {row["pair"]: row for row in _rows(cfg, "rates.csv")}
    nn = rates["nn->projection"]
    if not (float(nn["r_mean_pct"]) >= R_MEAN_MIN_PCT and float(nn["r_all_pct"]) >= R_ALL_MIN_PCT):
        problems.append(f"nn->projection rates R_mean {nn['r_mean_pct']}%, R_all {nn['r_all_pct']}% below the paper's")
    used = sum(int(row["n_trajectories_used"]) for row in rates.values())
    if used != attempted - failed:
        problems.append(f"rates.csv uses {used} projected rollouts, expected {attempted - failed}")
    return attempted, failed


def check_small_samples(cfg, problems):
    n_test = _n_test(cfg, cfg.pool_size)
    sweep = _rows(cfg, "sweep.csv")
    if [int(row["size"]) for row in sweep] != list(cfg.sizes):
        problems.append(f"sweep.csv sizes {[row['size'] for row in sweep]}, expected {list(cfg.sizes)}")
    attempted = failed = 0
    for row in sweep:
        attempted += int(row["n_resamples"]) * n_test
        failed += int(row["n_nonconverged"])
        if not float(row["rmse_projection_focus3"]) < float(row["rmse_nn_focus3"]):
            problems.append(f"size {row['size']}: projected focus-3 RMSE {row['rmse_projection_focus3']} not below the NN's")
    resamples = _rows(cfg, "resamples.csv")
    if len(resamples) != len(cfg.sizes) * cfg.n_resamples or any(r["status"] != "ok" for r in resamples):
        problems.append(f"resamples.csv holds {len(resamples)} rows, not {len(cfg.sizes) * cfg.n_resamples} ok ones")
    if attempted != len(cfg.sizes) * cfg.n_resamples * n_test:
        problems.append(f"sweep.csv accounts for {attempted} projections")
    return attempted, failed


def check_ltp_compare(cfg, problems):
    tol = cfg.ltp_projection_tol
    status = _rows(cfg, "projection_status.csv")
    n_test = _n_test(cfg, cfg.ltp_n_samples)
    for model in ("nn_projection", "pinn_projection"):
        indices = sorted(int(row["index"]) for row in status if row["model"] == model)
        if indices != list(range(n_test)):
            problems.append(f"projection_status.csv holds {len(indices)} {model} rows, expected {n_test}")
    attempted = len(status)
    failed = sum(row["status"] != CONVERGED for row in status)
    for row in status:
        if row["status"] == CONVERGED and not float(row["kkt_norm"]) <= tol:
            problems.append(f"{row['model']} point {row['index']} converged with KKT norm {row['kkt_norm']} > {tol}")

    law_rmse = {(row["model"], row["law"]): float(row["rmse_scaled"]) for row in _rows(cfg, "constraint_rmse.csv")}
    for (model, law), value in law_rmse.items():
        if not model.endswith("_projection"):
            continue
        base = law_rmse[(model[: -len("_projection")], law)]
        if not (value <= 10.0 * tol and value * 1e4 <= base):
            problems.append(f"{model} {law} RMSE {value:.3e}: above {10.0 * tol:.0e} or not 1e4x below {base:.3e}")
    return attempted, failed


CHECKS = {
    "spring-many": check_spring_many,
    "small-samples": check_small_samples,
    "ltp-compare": check_ltp_compare,
}


def check(workload, cfg):
    problems: list[str] = []
    attempted, failed = CHECKS[workload](cfg, problems)
    return attempted, failed, problems
