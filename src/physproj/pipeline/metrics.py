"""Dataset splitting and the error metrics used across experiments."""

from __future__ import annotations

import numpy as np

from physproj.errors import ValidationError


def split_dataset(
    dataset: tuple[np.ndarray, np.ndarray],
    fractions: tuple[float, float, float],
    seed: int,
):
    """Seeded shuffle, then contiguous train/validation/test split.

    Splits are disjoint and exhaustive; sizes are floor(n * fraction) with
    the remainder going to the training split.
    """
    x, y = (np.asarray(a) for a in dataset)
    if abs(sum(fractions) - 1.0) > 1e-9 or not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValidationError("split fractions must lie in [0, 1] and sum to 1")
    n = x.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_val - n_test
    if n_train <= 0 or (fractions[1] > 0 and n_val == 0) or (fractions[2] > 0 and n_test == 0):
        raise ValidationError(f"dataset of {n} samples is too small for fractions {fractions}")
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]
    idx_test = order[n_train + n_val :]
    return (x[idx_train], y[idx_train]), (x[idx_val], y[idx_val]), (x[idx_test], y[idx_test])


def rmse(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Column-wise root mean squared error: one value per output."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValidationError(f"shape mismatch in rmse: {p.shape} vs {t.shape}")
    return np.sqrt(((p - t) ** 2).mean(axis=0))


def improvement_rates(base_rmses: np.ndarray, projected_rmses: np.ndarray) -> tuple[float, float]:
    """Percentage of trajectories improved on average (R_mean) and in every
    variable simultaneously (R_all). Inputs are (n_trajectories, n_variables)
    arrays of per-trajectory RMSEs; improvement is a strict decrease.
    """
    base = np.atleast_2d(np.asarray(base_rmses, dtype=np.float64))
    proj = np.atleast_2d(np.asarray(projected_rmses, dtype=np.float64))
    if base.shape != proj.shape:
        raise ValidationError("base and projected RMSE arrays must have the same shape")
    r_mean = 100.0 * np.mean(proj.mean(axis=1) < base.mean(axis=1))
    r_all = 100.0 * np.mean(np.all(proj < base, axis=1))
    return float(r_mean), float(r_all)


def rmse_variation_rate(base: float, projected: float) -> float:
    """Relative RMSE change in percent; negative when projection helps."""
    if base == 0.0:
        raise ValidationError("variation rate undefined for base RMSE of 0")
    return 100.0 * (projected - base) / base
