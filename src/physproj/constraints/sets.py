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

import numpy as np

from physproj import springmass
from physproj.constraints.ltp import ELEMENTARY_CHARGE, K_BOLTZMANN, LtpSchema
from physproj.constraints.transform import LN10, TransformSpec, denormalize, jacobian_diag_from_physical
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


def _column_sum(y: np.ndarray, idx) -> np.ndarray:
    """Row sums of the columns ``idx``, added left to right for any batch size
    (``y[:, idx].sum(axis=1)`` adds a lone row pairwise, a batch column-wise)."""
    total = y[:, idx[0]]
    for i in idx[1:]:
        total = total + y[:, i]
    return total


def _chain_rule(y: np.ndarray, spec: TransformSpec, hess_phys: np.ndarray, grad_phys: np.ndarray) -> np.ndarray:
    """Normalized-space Hessians D H D + diag(grad * T'') at the de-normalized outputs ``y`` from
    physical-space ones H, where D = T' and grad is the physical gradient of the residual.

    On a log-flagged feature y = 10^u with u affine in the normalized value, so
    T'' = ln(10) * (width / 2) * D there; on a linear feature T'' is zero.
    """
    diag = jacobian_diag_from_physical(y, spec)
    out = diag[:, :, None] * hess_phys
    out *= diag[:, None, :]
    idx = np.arange(y.shape[1])
    out[:, idx, idx] += grad_phys * np.where(spec.log_flags, LN10 * (spec.width / 2.0) * diag, 0.0)
    return out


class _PhysicalLaws(ConstraintSet):
    """Laws on the de-normalized outputs y: a subclass gives ``_phys_residual(x, y)``
    and ``_scaled_jacobian(x, y)`` (w.r.t. the normalized outputs); each call de-normalizes once."""

    def _residual(self, x, p: np.ndarray) -> np.ndarray:
        return self._phys_residual(x, denormalize(p, self.output_spec))

    def _jacobian(self, x, p: np.ndarray) -> np.ndarray:
        return self._scaled_jacobian(x, denormalize(p, self.output_spec))

    def _residual_and_jacobian(self, x, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = denormalize(p, self.output_spec)
        return self._phys_residual(x, y), self._scaled_jacobian(x, y)


class EnergyConstraint(_PhysicalLaws):
    """Single residual: mechanical energy of the de-normalized state vs anchor.

    The anchor is ``anchor_energy``, or per point the first column of the
    constraint input ``x``, so one object serves a batch of trajectories.
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

    def _anchor_scale(self, x):
        """Anchor and residual scale max(anchor, 1 J), per point when x is given."""
        if x is None:
            if self.anchor is None:
                raise ValidationError("energy constraint needs an anchor energy or per-point anchors in x")
            return self.anchor, self.scale
        anchor = np.asarray(x, dtype=np.float64)[:, 0]
        if np.any(anchor < 0.0):
            raise ValidationError("anchor energy must be non-negative")
        return anchor, np.maximum(anchor, 1.0)

    def _phys_residual(self, x, phys: np.ndarray) -> np.ndarray:
        anchor, scale = self._anchor_scale(x)
        return ((np.asarray(springmass.energy(phys, self.params)) - anchor) / scale)[:, None]

    def _scaled_jacobian(self, x, phys: np.ndarray) -> np.ndarray:
        _, scale = self._anchor_scale(x)
        grad = springmass.energy_gradient(phys, self.params) / np.reshape(scale, (-1, 1))
        return (grad * jacobian_diag_from_physical(phys, self.output_spec))[:, None, :]

    def _lagrangian_hessian(self, x, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
        scale = np.reshape(self._anchor_scale(x)[1], (-1, 1))
        hess_phys = self._hessian / scale[:, :, None]
        phys = denormalize(p, self.output_spec)
        grad_phys = springmass.energy_gradient(phys, self.params) / scale
        return lam[:, :1, None] * _chain_rule(phys, self.output_spec, hess_phys, grad_phys)


class LtpConstraints(_PhysicalLaws):
    """Pressure balance, discharge current, and quasi-neutrality residuals.

    ``laws`` selects a subset (by index: 0 pressure, 1 current, 2
    neutrality) for the per-law projection ablations. The pressure sum
    counts the 11 heavy species, not the electrons.
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
        self._pressure_idx = list(schema.heavy_indices())
        self._pos = schema.positive_indices()
        self._neg = schema.negative_indices()
        self._ne = schema.idx(schema.electron)
        self._tg = schema.idx("Tg")
        self._vd = schema.idx("vd")

    def _phys_residual(self, x, y: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        p_in, i_in, radius = x[:, 0], x[:, 1], x[:, 2]
        tg = y[:, self._tg]
        ne = y[:, self._ne]
        vd = y[:, self._vd]
        r1 = (p_in - _column_sum(y, self._pressure_idx) * K_BOLTZMANN * tg) / p_in
        r2 = (i_in - ELEMENTARY_CHARGE * ne * vd * np.pi * radius**2) / i_in
        ne_scale = np.maximum(ne, NE_SCALE_FLOOR)
        r3 = (ne - _column_sum(y, self._pos) + _column_sum(y, self._neg)) / ne_scale
        return np.stack([r1, r2, r3], axis=-1)[:, self.laws]

    @staticmethod
    def _check_x(x) -> np.ndarray:
        if x is None:
            raise ValidationError("LTP constraints need the (P, I, R) input vector")
        return np.atleast_2d(x)

    def _phys_jacobian(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """All three law gradients w.r.t. the physical outputs, (n, 3, dim)."""
        n, dim = y.shape
        p_in, i_in, radius = x[:, 0], x[:, 1], x[:, 2]
        tg = y[:, self._tg]
        ne = y[:, self._ne]
        vd = y[:, self._vd]

        jac = np.zeros((n, 3, dim))
        # pressure law
        jac[:, 0, self._pressure_idx] = (-K_BOLTZMANN * tg / p_in)[:, None]
        jac[:, 0, self._tg] = -K_BOLTZMANN * _column_sum(y, self._pressure_idx) / p_in
        # current law
        area = np.pi * radius**2
        jac[:, 1, self._ne] = -ELEMENTARY_CHARGE * vd * area / i_in
        jac[:, 1, self._vd] = -ELEMENTARY_CHARGE * ne * area / i_in
        # quasi-neutrality, including the derivative of its 1/ne scale
        ne_scale = np.maximum(ne, NE_SCALE_FLOOR)
        jac[:, 2, self._pos] = (-1.0 / ne_scale)[:, None]
        jac[:, 2, self._neg] = (1.0 / ne_scale)[:, None]
        raw3 = ne - _column_sum(y, self._pos) + _column_sum(y, self._neg)
        clamped = ne <= NE_SCALE_FLOOR
        jac[:, 2, self._ne] = np.where(clamped, 1.0 / ne_scale, (ne_scale - raw3) / ne_scale**2)
        return jac

    def _scaled_jacobian(self, x, y: np.ndarray) -> np.ndarray:
        diag = jacobian_diag_from_physical(y, self.output_spec)
        return self._phys_jacobian(self._check_x(x), y)[:, self.laws, :] * diag[:, None, :]

    def _lagrangian_hessian(self, x, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Exact curvature of lam . g in normalized space, per point."""
        x = np.atleast_2d(x)
        y = denormalize(p, self.output_spec)
        n, dim = p.shape
        lam_full = np.zeros((n, 3))
        lam_full[:, list(self.laws)] = lam
        p_in, i_in, radius = x[:, 0], x[:, 1], x[:, 2]
        ne = y[:, self._ne]

        hess = np.zeros((n, dim, dim))
        # pressure law: bilinear in each heavy density and Tg
        cross = (-K_BOLTZMANN / p_in * lam_full[:, 0])[:, None]
        hess[:, self._pressure_idx, self._tg] += cross
        hess[:, self._tg, self._pressure_idx] += cross
        # current law: bilinear in ne and vd
        cross = -ELEMENTARY_CHARGE * np.pi * radius**2 / i_in * lam_full[:, 1]
        hess[:, self._ne, self._vd] += cross
        hess[:, self._vd, self._ne] += cross
        # quasi-neutrality: rational in ne unless the scale is clamped
        rational = ne > NE_SCALE_FLOOR
        ne = np.where(rational, ne, 1.0)  # clamped rows add zeros below
        w3 = np.where(rational, lam_full[:, 2], 0.0)
        charge = _column_sum(y, self._pos) - _column_sum(y, self._neg)
        hess[:, self._ne, self._ne] += w3 * (-2.0 * charge / ne**3)
        hess[:, self._ne, self._pos] += (w3 / ne**2)[:, None]
        hess[:, self._pos, self._ne] += (w3 / ne**2)[:, None]
        hess[:, self._ne, self._neg] += (-w3 / ne**2)[:, None]
        hess[:, self._neg, self._ne] += (-w3 / ne**2)[:, None]

        grad_phys = (lam_full[:, None, :] @ self._phys_jacobian(x, y))[:, 0, :]
        return _chain_rule(y, self.output_spec, hess, grad_phys)
