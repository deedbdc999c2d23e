"""Feature scaling between physical and normalized space.

Each feature is mapped to [-1, 1] by min-max scaling. Features flagged for a
log transform are first converted to log10 before scaling, so the stored
min/max bounds live in log space for those features. The inverse chain
(affine back to bounds, then 10**u where flagged) is exact up to rounding.
The module also holds the inverse's Jacobian diagonal, evaluated at the
physical values, which the constraint Jacobians and Hessians chain through,
and the skewness rule that decides which features get the log transform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from physproj.errors import DegenerateFeatureError, ValidationError

LN10 = float(np.log(10.0))


@dataclass(frozen=True)
class TransformSpec:
    """Per-feature scaling bounds, with optional log10 pre-transform.

    ``mins``/``maxs`` are bounds of the (possibly log-transformed) values.
    ``names`` fixes the vector layout used throughout the package.
    ``width`` is ``maxs - mins``, ``any_log`` whether any feature is
    log-flagged, and ``diag_slope``/``diag_offset`` give the inverse's
    Jacobian diagonal ``diag_slope * physical + diag_offset`` (see
    :func:`jacobian_diag_from_physical`); all four are derived once here and
    not serialized.
    """

    names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray
    log_flags: np.ndarray = field(default=None)  # type: ignore[assignment]
    width: np.ndarray = field(init=False, repr=False, compare=False)
    any_log: bool = field(init=False, repr=False, compare=False)
    diag_slope: np.ndarray = field(init=False, repr=False, compare=False)
    diag_offset: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        flags = self.log_flags
        if flags is None:
            flags = np.zeros(len(self.names), dtype=bool)
        flags = np.asarray(flags, dtype=bool)
        if not (len(self.names) == mins.size == maxs.size == flags.size):
            raise ValidationError("TransformSpec field lengths disagree")
        if np.any(maxs <= mins):
            bad = [self.names[i] for i in np.nonzero(maxs <= mins)[0]]
            raise DegenerateFeatureError(f"max <= min for feature(s) {bad}")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        object.__setattr__(self, "log_flags", flags)
        object.__setattr__(self, "width", maxs - mins)
        object.__setattr__(self, "any_log", bool(flags.any()))
        half = self.width / 2.0
        object.__setattr__(self, "diag_slope", np.where(flags, half * LN10, 0.0))
        object.__setattr__(self, "diag_offset", np.where(flags, 0.0, half))

    @property
    def dim(self) -> int:
        return len(self.names)

    def to_json(self) -> str:
        return json.dumps(
            {
                "names": list(self.names),
                "mins": self.mins.tolist(),
                "maxs": self.maxs.tolist(),
                "log_flags": [bool(f) for f in self.log_flags],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TransformSpec":
        obj = json.loads(text)
        return cls(
            names=tuple(obj["names"]),
            mins=np.array(obj["mins"], dtype=np.float64),
            maxs=np.array(obj["maxs"], dtype=np.float64),
            log_flags=np.array(obj["log_flags"], dtype=bool),
        )


def normalize(values: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Map physical values to [-1, 1] per feature (log10 first where flagged).

    Accepts a single vector (dim,) or a batch (n, dim). Log-flagged entries
    must be strictly positive.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape[-1] != spec.dim:
        raise ValidationError(f"expected {spec.dim} features, got shape {v.shape}")
    u = v.copy()
    if spec.any_log:
        logged = v[..., spec.log_flags]
        if np.any(logged <= 0.0):
            raise ValidationError("non-positive value on a log-flagged feature")
        u[..., spec.log_flags] = np.log10(logged)
    return 2.0 * (u - spec.mins) / spec.width - 1.0


def denormalize(z: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Inverse of :func:`normalize`; values outside [-1, 1] extrapolate linearly."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != spec.dim:
        raise ValidationError(f"expected {spec.dim} features, got shape {z.shape}")
    u = (z + 1.0) * spec.width / 2.0 + spec.mins
    if spec.any_log:
        with np.errstate(over="ignore"):  # overflow is raised as an error below
            u[..., spec.log_flags] = np.power(10.0, u[..., spec.log_flags])
    if not np.isfinite(u).all():
        raise ValidationError("denormalization overflowed to a non-finite value")
    return u


def jacobian_diag_from_physical(phys: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Diagonal of d(physical)/d(normalized) at the point that de-normalizes to ``phys``.

    Linear features contribute (max - min)/2; log-flagged ones pick up the
    extra d(10^u)/du = ln(10) * 10^u factor, and there 10^u is ``phys``.
    Always a new array, shaped like ``phys``. For finite ``phys`` the slope
    and offset leave each entry exact: a zero slope adds a signed zero, and
    the zero offset of a log feature adds zero to a positive product.
    """
    return phys * spec.diag_slope + spec.diag_offset


def sample_skewness(x: np.ndarray) -> float:
    """Biased sample skewness g1 = m3 / m2^(3/2)."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean()
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        return 0.0
    m3 = np.mean(centered**3)
    return float(m3 / m2**1.5)


def fit_transform(
    data: np.ndarray,
    names: tuple[str, ...],
    skew_threshold: float = 2.0,
) -> TransformSpec:
    """Fit per-feature bounds from data, log-flagging skewed positive features.

    A feature gets a log10 transform when its sample skewness exceeds
    ``skew_threshold`` and all its values are strictly positive; bounds are
    then computed in log space. ``skew_threshold=inf`` (or NaN) flags no
    feature, and ``-inf`` flags every strictly positive one. Fit on the training split only.
    """
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValidationError("cannot fit a transform on an empty dataset")
    if x.shape[1] != len(names):
        raise ValidationError(f"data has {x.shape[1]} columns but {len(names)} names given")
    dim = x.shape[1]
    flags = np.zeros(dim, dtype=bool)
    mins = np.empty(dim)
    maxs = np.empty(dim)
    for j in range(dim):
        col = x[:, j]
        if skew_threshold < np.inf and sample_skewness(col) > skew_threshold and np.all(col > 0.0):
            flags[j] = True
            col = np.log10(col)
        lo, hi = float(col.min()), float(col.max())
        if hi <= lo:
            raise DegenerateFeatureError(f"feature '{names[j]}' is constant; cannot scale")
        mins[j], maxs[j] = lo, hi
    return TransformSpec(names=tuple(names), mins=mins, maxs=maxs, log_flags=flags)
