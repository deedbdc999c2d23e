"""Constraint residuals g(x, p) = 0 and their Jacobians w.r.t. normalized outputs.

Residuals are evaluated on de-normalized (physical) outputs and then
nondimensionalized: the pressure and current laws divide by their input
values, the quasi-neutrality law by the predicted electron density, and the
energy law by max(anchor, 1 J). That keeps mixed-unit residuals comparable
under the identity metric of the projection solver. All Jacobians
are analytic, including the ln(10) * 10^u factor on log-scaled outputs, and
are verified against finite differences in the test suite.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from physproj import springmass
from physproj.constraints.ltp import ELEMENTARY_CHARGE, K_BOLTZMANN, LtpSchema
from physproj.constraints.transform import TransformSpec, denormalize, jacobian_diag_from_physical
from physproj.errors import ValidationError

NE_SCALE_FLOOR = 1e6  # m^-3, lower clamp for the quasi-neutrality scale


class ConstraintSet:
    """Vector residual with analytic Jacobian, batched over samples.

    Every public method accepts a single sample (p of shape (dim,), x a
    vector or None) or batches (leading axis n). Subclasses implement the
    batched ``_residual``/``_jacobian`` and may override ``_lagrangian_hessian``
    and, to share work between the two, ``_residual_and_jacobian``.
    """

    residual_dim: int = 0
    output_spec: TransformSpec | None = None

    def residual(self, x, p_norm) -> np.ndarray:
        return self._batched(self._residual, x, p_norm)

    def jacobian(self, x, p_norm) -> np.ndarray:
        return self._batched(self._jacobian, x, p_norm)

    def residual_and_jacobian(self, x, p_norm) -> tuple[np.ndarray, np.ndarray]:
        """(residual(x, p), jacobian(x, p)), bit for bit; a subclass that can
        share work between the two overrides ``_residual_and_jacobian``."""
        return self._batched(self._residual_and_jacobian, x, p_norm)

    def lagrangian_hessian(self, x, p_norm, lam) -> np.ndarray:
        """sum_k lam_k * Hessian of residual k, (dim, dim) or batched (n, dim, dim):
        the curvature of the projection solver's Newton steps."""
        return self._batched(self._lagrangian_hessian, x, p_norm, np.atleast_2d(np.asarray(lam, dtype=np.float64)))

    @staticmethod
    def _batched(fn, x, p_norm, *args):
        """``fn(x, p, *args)`` on the batch form of one sample or a batch; one sample's results are unwrapped."""
        p = np.asarray(p_norm, dtype=np.float64)
        single = p.ndim == 1
        if x is not None:
            x = np.asarray(x, dtype=np.float64)
            x = np.atleast_2d(x) if single else x
        out = fn(x, np.atleast_2d(p), *args)
        if not single:
            return out
        return tuple(a[0] for a in out) if isinstance(out, tuple) else out[0]

    def _residual(self, x, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _jacobian(self, x, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _residual_and_jacobian(self, x, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._residual(x, p), self._jacobian(x, p)

    def _lagrangian_hessian(self, x, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Central differences of the analytic Jacobian; subclasses override
        with exact expressions."""
        h = 1e-6
        out = np.zeros((*p.shape, p.shape[1]))
        for j in range(p.shape[1]):
            step = h * np.eye(p.shape[1])[j]
            diff = self._jacobian(x, p + step) - self._jacobian(x, p - step)
            out[:, :, j] = (diff.transpose(0, 2, 1) @ lam[:, :, None])[:, :, 0] / (2.0 * h)
        return 0.5 * (out + out.transpose(0, 2, 1))


def _column_sum(y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row sums of the columns ``idx``, added left to right for any batch size
    (``y[:, idx].sum(axis=1)`` adds a lone row pairwise, a batch column-wise).
    Past two columns, the last of the running sums down the gathered columns
    costs less than adding them one by one."""
    if len(idx) > 2:
        return np.add.accumulate(y.T[idx], axis=0)[-1]
    total = y[:, idx[0]]
    for i in idx[1:]:
        total = total + y[:, i]
    return total


def _chain_rule(y: np.ndarray, spec: TransformSpec, hess_phys: np.ndarray, grad_phys: np.ndarray) -> np.ndarray:
    """Normalized-space Hessians D H D + diag(grad * T'') at the de-normalized outputs ``y`` from
    physical-space ones H, where D = T' and grad is the physical gradient of the residual.

    On a log-flagged feature y = 10^u with u affine in the normalized value, so
    T'' = ln(10) * (width / 2) * D there (``spec.diag_slope * D``); on a linear
    feature T'' is zero, and so is its slope.
    """
    diag = jacobian_diag_from_physical(y, spec)
    out = diag[:, :, None] * hess_phys
    out *= diag[:, None, :]
    idx = np.arange(y.shape[1])
    out[:, idx, idx] += grad_phys * (spec.diag_slope * diag)
    return out


class _PhysicalLaws(ConstraintSet):
    """Laws on the de-normalized outputs y. A subclass gives ``_shared(x, y)``, the
    per-row quantities its laws share, and ``_phys_residual(q)`` and
    ``_scaled_jacobian(q)`` (w.r.t. the normalized outputs), which read them from
    ``q``: each call de-normalizes once and computes the shared quantities once."""

    def _shared_at(self, x, p: np.ndarray):
        return self._shared(x, denormalize(p, self.output_spec))

    def _residual(self, x, p: np.ndarray) -> np.ndarray:
        return self._phys_residual(self._shared_at(x, p))

    def _jacobian(self, x, p: np.ndarray) -> np.ndarray:
        return self._scaled_jacobian(self._shared_at(x, p))

    def _residual_and_jacobian(self, x, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = self._shared_at(x, p)
        return self._phys_residual(q), self._scaled_jacobian(q)


class _EnergyRows(NamedTuple):
    """What one energy-law call (residual, Jacobian, both or curvature) reads at a batch of
    points; its energies and gradients come from one ``springmass.energy_and_gradient`` call."""

    phys: np.ndarray  # de-normalized states, (n, 4)
    energy: np.ndarray  # their mechanical energies, (n,)
    grad: np.ndarray  # their energy gradients dE/d[x1, v1, x2, v2], (n, 4)
    anchor: np.ndarray | float  # per point, or one for the batch
    scale: np.ndarray | float  # max(anchor, 1 J), per point as a column (n, 1)


class EnergyConstraint(_PhysicalLaws):
    """Single residual: mechanical energy of the de-normalized state vs anchor.

    The anchor is ``anchor_energy``, or per point the first column of the
    constraint input ``x``, so one object serves a batch of trajectories.
    Each call checks the anchors once and reads one ``_EnergyRows``.
    """

    residual_dim = 1

    def __init__(self, params: springmass.SpringParams, anchor_energy: float | None, state_spec: TransformSpec):
        if anchor_energy is not None and anchor_energy < 0.0:
            raise ValidationError("anchor energy must be non-negative")
        self.params = params
        self._hessian = springmass.energy_hessian(params)  # physical, before the 1 / scale
        self.anchor = None if anchor_energy is None else float(anchor_energy)
        self.scale = None if anchor_energy is None else max(self.anchor, 1.0)
        self.output_spec = state_spec

    def _shared(self, x, phys: np.ndarray) -> _EnergyRows:
        anchor, scale = self.anchor, self.scale
        if x is not None:
            anchor = np.asarray(x, dtype=np.float64)[:, 0]
            if np.any(anchor < 0.0):
                raise ValidationError("anchor energy must be non-negative")
            scale = np.maximum(anchor, 1.0)[:, None]
        elif anchor is None:
            raise ValidationError("energy constraint needs an anchor energy or per-point anchors in x")
        return _EnergyRows(phys, *springmass.energy_and_gradient(phys, self.params), anchor, scale)

    def _phys_residual(self, q: _EnergyRows) -> np.ndarray:
        return (q.energy - q.anchor)[:, None] / q.scale

    def _scaled_jacobian(self, q: _EnergyRows) -> np.ndarray:
        return (q.grad / q.scale * jacobian_diag_from_physical(q.phys, self.output_spec))[:, None, :]

    def _lagrangian_hessian(self, x, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
        q = self._shared_at(x, p)
        hess_phys = self._hessian / np.reshape(q.scale, (-1, 1, 1))
        return lam[:, :1, None] * _chain_rule(q.phys, self.output_spec, hess_phys, q.grad / q.scale)


class _LtpRows(NamedTuple):
    """What the three LTP laws share at a batch of points, one entry per row."""

    y: np.ndarray  # de-normalized outputs, (n, 17)
    p_in: np.ndarray  # the (P, I, R) inputs
    i_in: np.ndarray
    radius: np.ndarray
    tg: np.ndarray
    ne: np.ndarray
    vd: np.ndarray
    heavy: np.ndarray  # sum of the 11 heavy-species densities
    pos: np.ndarray  # sum of the positive-ion densities
    neg: np.ndarray  # sum of the negative-ion densities
    ne_scale: np.ndarray  # max(ne, NE_SCALE_FLOOR), the quasi-neutrality scale
    raw3: np.ndarray  # ne - pos + neg, the quasi-neutrality residual before scaling


class LtpConstraints(_PhysicalLaws):
    """Pressure balance, discharge current, and quasi-neutrality residuals.

    ``laws`` selects a subset (by index: 0 pressure, 1 current, 2
    neutrality) for the per-law projection ablations. The pressure sum
    counts the 11 heavy species, not the electrons.

    One call (residual, Jacobian, both, or Lagrangian Hessian) checks ``x``
    once and computes once what the laws share (``_LtpRows``): the input
    columns, Tg, ne and vd, the heavy-species and ion sums, the
    quasi-neutrality scale and its unscaled residual. Each law's residual and
    gradient are written once (``_law_residual``, ``_law_gradient``), and
    the Jacobian writes only their non-zero entries.
    """

    LAW_NAMES = ("pressure", "current", "neutrality")

    def __init__(self, schema: LtpSchema, output_spec: TransformSpec, laws: tuple[int, ...] = (0, 1, 2)):
        if not laws or any(l not in (0, 1, 2) for l in laws) or len(set(laws)) != len(laws):
            raise ValidationError(f"laws must be a non-empty subset of (0, 1, 2), got {laws}")
        if tuple(output_spec.names) != tuple(schema.output_names):
            raise ValidationError("output transform layout does not match the schema")
        self.output_spec = output_spec
        self.laws = tuple(laws)
        self.residual_dim = len(self.laws)
        self._law_idx = np.array(self.laws, dtype=np.intp)
        self._heavy = np.asarray(schema.heavy_indices(), dtype=np.intp)
        self._pos = np.asarray(schema.positive_indices(), dtype=np.intp)
        self._neg = np.asarray(schema.negative_indices(), dtype=np.intp)
        self._ne = schema.idx(schema.electron)
        self._tg = schema.idx("Tg")
        self._vd = schema.idx("vd")

    def _shared(self, x, y: np.ndarray) -> _LtpRows:
        if x is None:
            raise ValidationError("LTP constraints need the (P, I, R) input vector")
        x = np.atleast_2d(x)
        ne = y[:, self._ne]
        pos, neg = _column_sum(y, self._pos), _column_sum(y, self._neg)
        return _LtpRows(
            y, x[:, 0], x[:, 1], x[:, 2], y[:, self._tg], ne, y[:, self._vd],
            _column_sum(y, self._heavy), pos, neg, np.maximum(ne, NE_SCALE_FLOOR), ne - pos + neg,
        )

    @staticmethod
    def _law_residual(law: int, q: _LtpRows) -> np.ndarray:
        if law == 0:
            return (q.p_in - q.heavy * K_BOLTZMANN * q.tg) / q.p_in
        if law == 1:
            return (q.i_in - ELEMENTARY_CHARGE * q.ne * q.vd * np.pi * q.radius**2) / q.i_in
        return q.raw3 / q.ne_scale

    def _law_gradient(self, law: int, q: _LtpRows):
        """Law ``law``'s non-zero partial derivatives w.r.t. the physical outputs, as
        (columns, values) pairs: (n, 1) values for an index array, (n,) for one column."""
        if law == 0:
            return (self._heavy, (-K_BOLTZMANN * q.tg / q.p_in)[:, None]), (self._tg, -K_BOLTZMANN * q.heavy / q.p_in)
        if law == 1:
            area = np.pi * q.radius**2
            return (self._ne, -ELEMENTARY_CHARGE * q.vd * area / q.i_in), (self._vd, -ELEMENTARY_CHARGE * q.ne * area / q.i_in)
        # quasi-neutrality, including the derivative of its 1/ne scale
        inv = 1.0 / q.ne_scale
        clamped = q.ne <= NE_SCALE_FLOOR
        return (
            (self._pos, -inv[:, None]),
            (self._neg, inv[:, None]),
            (self._ne, np.where(clamped, inv, (q.ne_scale - q.raw3) / q.ne_scale**2)),
        )

    def _phys_residual(self, q: _LtpRows) -> np.ndarray:
        out = np.empty((len(self.laws), len(q.y))).T  # law-major: the layout its callers' means have always added in
        for k, law in enumerate(self.laws):
            out[:, k] = self._law_residual(law, q)
        return out

    def _phys_jacobian(self, q: _LtpRows, laws: tuple[int, ...], jac: np.ndarray) -> np.ndarray:
        """``jac``, zeros of shape (n, len(laws), dim), with the gradients of ``laws``
        w.r.t. the physical outputs written into their fixed non-zero pattern."""
        for k, law in enumerate(laws):
            for cols, values in self._law_gradient(law, q):
                jac[:, k, cols] = values
        return jac

    def _scaled_jacobian(self, q: _LtpRows) -> np.ndarray:
        # law-major, the layout the physics term's einsum has always summed over
        jac = self._phys_jacobian(q, self.laws, np.zeros((len(self.laws), *q.y.shape)).transpose(1, 0, 2))
        jac *= jacobian_diag_from_physical(q.y, self.output_spec)[:, None, :]
        return jac

    def _lagrangian_hessian(self, x, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Exact curvature of lam . g in normalized space, per point."""
        q = self._shared_at(x, p)
        n, dim = p.shape
        lam_full = np.zeros((n, 3))
        lam_full[:, self._law_idx] = lam

        hess = np.zeros((n, dim, dim))
        # pressure law: bilinear in each heavy density and Tg
        cross = (-K_BOLTZMANN / q.p_in * lam_full[:, 0])[:, None]
        hess[:, self._heavy, self._tg] += cross
        hess[:, self._tg, self._heavy] += cross
        # current law: bilinear in ne and vd
        cross = -ELEMENTARY_CHARGE * np.pi * q.radius**2 / q.i_in * lam_full[:, 1]
        hess[:, self._ne, self._vd] += cross
        hess[:, self._vd, self._ne] += cross
        # quasi-neutrality: rational in ne unless the scale is clamped
        rational = q.ne > NE_SCALE_FLOOR
        ne = np.where(rational, q.ne, 1.0)  # clamped rows add zeros below
        w3 = np.where(rational, lam_full[:, 2], 0.0)
        charge = q.pos - q.neg
        hess[:, self._ne, self._ne] += w3 * (-2.0 * charge / ne**3)
        hess[:, self._ne, self._pos] += (w3 / ne**2)[:, None]
        hess[:, self._pos, self._ne] += (w3 / ne**2)[:, None]
        hess[:, self._ne, self._neg] += (-w3 / ne**2)[:, None]
        hess[:, self._neg, self._ne] += (-w3 / ne**2)[:, None]

        grad_phys = (lam_full[:, None, :] @ self._phys_jacobian(q, (0, 1, 2), np.zeros((n, 3, dim))))[:, 0, :]
        return _chain_rule(q.y, self.output_spec, hess, grad_phys)
