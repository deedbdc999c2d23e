import copy
import functools

import numpy as np
import pytest

from physproj import springmass as sm
from physproj.constraints import (
    ELEMENTARY_CHARGE,
    K_BOLTZMANN,
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
from physproj.constraints.ltp import I_RANGE, P_TORR_RANGE, R_RANGE, TORR_TO_PA, sample_inputs, synthetic_outputs
from physproj.constraints.sets import NE_SCALE_FLOOR, ConstraintSet
from physproj.constraints.transform import LN10
from physproj.errors import ValidationError
from physproj.nn import LtpResidualTerm
from physproj.pipeline.csvio import load_ltp_csv, write_ltp_csv

PARAMS = sm.SpringParams()
PAPER_IC = np.array([-0.16, -2.18, 0.09, -0.16])
SCHEMA = LtpSchema()


def spring_spec():
    inputs, _ = sm.generate_dataset(PARAMS, 5.0, 400, 0.05, 10, seed=2)
    return fit_transform(inputs, sm.STATE_NAMES, skew_threshold=np.inf)


def ltp_specs(n=400, seed=0):
    x, y = generate_synthetic_ltp(n, seed)
    return x, y, fit_transform(y, OUTPUT_NAMES, skew_threshold=2.0)


def fd_default(cs):
    """A copy of ``cs`` whose Lagrangian Hessian is ConstraintSet's finite-difference default."""
    fd = copy.copy(cs)
    fd._lagrangian_hessian = functools.partial(ConstraintSet._lagrangian_hessian, fd)
    return fd


# ---------------------------------------------------------------------------
# energy constraint


def test_energy_constraint_zero_on_matching_state():
    spec = spring_spec()
    anchor = sm.energy(PAPER_IC, PARAMS)
    cs = EnergyConstraint(PARAMS, anchor, spec)
    assert abs(cs.residual(None, normalize(PAPER_IC, spec))[0]) < 1e-4


def test_energy_constraint_scale_is_max_anchor_one():
    spec = spring_spec()
    state = PARAMS.equilibrium()  # E = 0
    cs_small = EnergyConstraint(PARAMS, 0.5, spec)
    assert cs_small.scale == 1.0
    assert cs_small.residual(None, normalize(state, spec))[0] == pytest.approx(-0.5)
    cs_big = EnergyConstraint(PARAMS, 4.0, spec)
    assert cs_big.scale == 4.0
    assert cs_big.residual(None, normalize(state, spec))[0] == pytest.approx(-1.0)


def test_energy_jacobian_vanishes_at_equilibrium():
    spec = spring_spec()
    cs = EnergyConstraint(PARAMS, 1.0, spec)
    jac = cs.jacobian(None, normalize(PARAMS.equilibrium(), spec))
    assert np.allclose(jac, 0.0, atol=1e-12)


def test_energy_jacobian_matches_finite_differences():
    # atol absorbs the finite-difference cancellation noise, ~eps/(2h)
    spec = spring_spec()
    cs = EnergyConstraint(PARAMS, 3.5405, spec)
    rng = np.random.default_rng(0)
    h = 1e-7
    for _ in range(100):
        z = rng.uniform(-1.1, 1.1, 4)
        jac = cs.jacobian(None, z)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (cs.residual(None, z + e)[0] - cs.residual(None, z - e)[0]) / (2 * h)
            assert abs(jac[0, j] - fd) <= 1e-6 * max(abs(jac[0, j]), abs(fd)) + 5e-9


def test_energy_lagrangian_hessian_matches_fd_default():
    spec = spring_spec()
    cs = EnergyConstraint(PARAMS, 2.0, spec)
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, 4)
    lam = np.array([0.7])
    analytic = cs.lagrangian_hessian(None, z, lam)
    fd = fd_default(cs).lagrangian_hessian(None, z, lam)
    assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# plasma constraints: the three law examples


def plain_spec():
    """All-linear transform sized so handcrafted values sit well inside it.

    Spans too far above a value lose round-trip precision to cancellation,
    which is why the fitted transforms always use data-derived bounds.
    """
    maxs = np.array([1e18, 1e24] + [1e18] * 10 + [2000.0, 2000.0, 1e-18, 1e6, 10.0])
    return TransformSpec(names=OUTPUT_NAMES, mins=np.zeros(17), maxs=maxs)


def handcrafted(**values):
    y = np.zeros(17)
    y[SCHEMA.idx("Tg")] = 300.0
    y[SCHEMA.idx("Tnw")] = 300.0
    for name, v in values.items():
        y[SCHEMA.idx(name)] = v
    return y


def test_pressure_law_single_species_gas():
    spec = plain_spec()
    cs = LtpConstraints(SCHEMA, spec)
    pressure, tg = 133.3, 300.0
    y = handcrafted(O2_X=pressure / (K_BOLTZMANN * tg), Tg=tg)
    x = np.array([pressure, 0.03, 0.012])
    r = cs.residual(x, normalize(y, spec))
    assert abs(r[0]) < 1e-6


def test_current_law_solved_drift_velocity():
    spec = plain_spec()
    cs = LtpConstraints(SCHEMA, spec)
    current, radius, ne = 0.03, 0.012, 1e16
    vd = current / (ELEMENTARY_CHARGE * ne * np.pi * radius**2)
    assert vd == pytest.approx(4.139e4, rel=1e-3)
    y = handcrafted(ne=ne, vd=vd)
    r = cs.residual(np.array([133.3, current, radius]), normalize(y, spec))
    assert abs(r[1]) < 1e-12


def test_quasi_neutrality_balanced_populations():
    spec = plain_spec()
    cs = LtpConstraints(SCHEMA, spec)
    y = handcrafted(ne=1e16, O2_plus=1.05e16, O_plus=1e14, O_minus=6e14)
    r = cs.residual(np.array([133.3, 0.03, 0.012]), normalize(y, spec))
    assert abs(r[2]) < 1e-12


def test_quasi_neutrality_sign_conventions():
    spec = plain_spec()
    cs = LtpConstraints(SCHEMA, spec)
    x = np.array([133.3, 0.03, 0.012])
    base = handcrafted(ne=1e16, O2_plus=1.05e16, O_plus=1e14, O_minus=6e14)
    r0 = cs.residual(x, normalize(base, spec))[2]
    more_negative = base.copy()
    more_negative[SCHEMA.idx("O_minus")] *= 2.0
    assert cs.residual(x, normalize(more_negative, spec))[2] > r0
    more_positive = base.copy()
    more_positive[SCHEMA.idx("O2_plus")] *= 2.0
    assert cs.residual(x, normalize(more_positive, spec))[2] < r0


def test_structural_sparsity_of_jacobian():
    x, y, spec = ltp_specs()
    cs = LtpConstraints(SCHEMA, spec)
    jac = cs.jacobian(x[0], normalize(y[0], spec))
    # the current law sees only ne and vd
    for name in OUTPUT_NAMES:
        j = SCHEMA.idx(name)
        if name not in ("ne", "vd"):
            assert jac[1, j] == 0.0
    # the pressure law never sees E/N, vd, Te, Tnw or the electrons
    for name in ("EN", "vd", "Te", "Tnw", "ne"):
        assert jac[0, SCHEMA.idx(name)] == 0.0
    # quasi-neutrality sees only the charged species
    for name in OUTPUT_NAMES:
        j = SCHEMA.idx(name)
        if name not in ("ne", "O2_plus", "O_plus", "O_minus"):
            assert jac[2, j] == 0.0


def test_doubling_species_perturbs_only_referencing_laws():
    x, y, spec = ltp_specs()
    cs = LtpConstraints(SCHEMA, spec)
    base = y[3].copy()
    r0 = cs.residual(x[3], normalize(base, spec))
    assert np.all(np.abs(r0) < 1e-12)
    bumped = base.copy()
    bumped[SCHEMA.idx("O3")] *= 2.0  # neutral: pressure law only
    r = cs.residual(x[3], normalize(bumped, spec))
    assert abs(r[0]) > 1e-8 and abs(r[1]) < 1e-12 and abs(r[2]) < 1e-12
    bumped = base.copy()
    bumped[SCHEMA.idx("O_minus")] *= 2.0  # ion: pressure and neutrality
    r = cs.residual(x[3], normalize(bumped, spec))
    assert abs(r[0]) > 1e-16 and abs(r[1]) < 1e-12 and abs(r[2]) > 1e-8


def test_ltp_jacobian_matches_finite_differences():
    # atol absorbs the finite-difference cancellation noise, ~eps/(2h)
    x, y, spec = ltp_specs()
    cs = LtpConstraints(SCHEMA, spec)
    rng = np.random.default_rng(2)
    h = 1e-7
    for k in range(100):
        i = rng.integers(0, len(x))
        z = normalize(y[i], spec) + rng.normal(0.0, 0.05, 17)
        jac = cs.jacobian(x[i], z)
        for j in range(17):
            e = np.zeros(17)
            e[j] = h
            fd = (cs.residual(x[i], z + e) - cs.residual(x[i], z - e)) / (2 * h)
            limit = 1e-6 * np.maximum(np.abs(jac[:, j]), np.abs(fd)) + 5e-9
            assert np.all(np.abs(jac[:, j] - fd) <= limit)


def test_ltp_lagrangian_hessian_matches_fd_default():
    x, y, paper_spec = ltp_specs()
    # a threshold of -1e9 log-flags every output, so every diagonal entry carries the log curvature
    every_log = fit_transform(y, OUTPUT_NAMES, skew_threshold=-1e9)
    assert every_log.log_flags.all()
    for spec in (paper_spec, every_log):
        cs = LtpConstraints(SCHEMA, spec)
        rng = np.random.default_rng(3)
        for k in range(5):
            i = rng.integers(0, len(x))
            z = normalize(y[i], spec) + rng.normal(0.0, 0.05, 17)
            lam = rng.normal(size=3)
            analytic = cs.lagrangian_hessian(x[i], z, lam)
            fd = fd_default(cs).lagrangian_hessian(x[i], z, lam)
            assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-7)


def test_law_subsets_for_ablation():
    x, y, spec = ltp_specs()
    full = LtpConstraints(SCHEMA, spec)
    sub = LtpConstraints(SCHEMA, spec, laws=(0, 2))
    assert sub.residual_dim == 2
    z = normalize(y[7], spec) + 0.02
    r_full = full.residual(x[7], z)
    r_sub = sub.residual(x[7], z)
    assert np.allclose(r_sub, r_full[[0, 2]])
    assert sub.jacobian(x[7], z).shape == (2, 17)
    with pytest.raises(ValidationError):
        LtpConstraints(SCHEMA, spec, laws=(0, 0))


@pytest.mark.parametrize("laws", [(0, 1, 2), (2,), (0, 2)])
def test_residual_and_jacobian_equal_the_separate_calls_bit_for_bit(laws):
    x, y, spec = ltp_specs()
    z = normalize(y[:50], spec) + np.random.default_rng(5).normal(0.0, 0.05, (50, 17))
    states = sm.sample_states(PARAMS, 5.0, 50, np.random.default_rng(6))
    energy_cs = EnergyConstraint(PARAMS, None, spring_spec())  # the base class's two calls
    anchors = sm.energy(states, PARAMS)[:, None] + 0.1
    cases = [
        (LtpConstraints(SCHEMA, spec, laws=laws), x[:50], z),
        (energy_cs, anchors, normalize(states, energy_cs.output_spec)),
    ]
    for cs, inputs, points in cases:
        for xs, ps in ((inputs, points), (inputs[3], points[3])):  # a batch and a single point
            r, j = cs.residual_and_jacobian(xs, ps)
            assert r.tobytes() == cs.residual(xs, ps).tobytes()
            assert j.tobytes() == cs.jacobian(xs, ps).tobytes()


def _parent_diag(phys, spec):
    """jacobian_diag_from_physical as it was, before TransformSpec held its slope and offset."""
    half = spec.width / 2.0
    if not spec.log_flags.any():
        return np.full(np.shape(phys), half)
    return np.where(spec.log_flags, half * LN10 * phys, half)


def _parent_chain_rule(y, spec, hess_phys, grad_phys):
    """sets._chain_rule as it was, on the parent's diagonal."""
    diag = _parent_diag(y, spec)
    out = diag[:, :, None] * hess_phys
    out *= diag[:, None, :]
    idx = np.arange(y.shape[1])
    out[:, idx, idx] += grad_phys * np.where(spec.log_flags, LN10 * (spec.width / 2.0) * diag, 0.0)
    return out


class _ParentLtp(ConstraintSet):
    """The LTP laws as they were before one call shared its sums, kept verbatim
    as the reference the shared pass must match bit for bit: each of
    ``_phys_residual`` and ``_phys_jacobian`` computes its own column sums, and
    the Hessian recomputes them through ``_phys_jacobian``."""

    def __init__(self, schema, output_spec, laws=(0, 1, 2)):
        self.output_spec = output_spec
        self.laws = tuple(laws)
        self.residual_dim = len(self.laws)
        self._pressure_idx = list(schema.heavy_indices())
        self._pos = schema.positive_indices()
        self._neg = schema.negative_indices()
        self._ne = schema.idx(schema.electron)
        self._tg = schema.idx("Tg")
        self._vd = schema.idx("vd")

    def _residual(self, x, p):
        return self._phys_residual(x, denormalize(p, self.output_spec))

    def _jacobian(self, x, p):
        return self._scaled_jacobian(x, denormalize(p, self.output_spec))

    @staticmethod
    def _column_sum(y, idx):
        total = y[:, idx[0]]
        for i in idx[1:]:
            total = total + y[:, i]
        return total

    def _phys_residual(self, x, y):
        x = self._check_x(x)
        p_in, i_in, radius = x[:, 0], x[:, 1], x[:, 2]
        tg = y[:, self._tg]
        ne = y[:, self._ne]
        vd = y[:, self._vd]
        r1 = (p_in - self._column_sum(y, self._pressure_idx) * K_BOLTZMANN * tg) / p_in
        r2 = (i_in - ELEMENTARY_CHARGE * ne * vd * np.pi * radius**2) / i_in
        ne_scale = np.maximum(ne, NE_SCALE_FLOOR)
        r3 = (ne - self._column_sum(y, self._pos) + self._column_sum(y, self._neg)) / ne_scale
        return np.stack([r1, r2, r3], axis=-1)[:, self.laws]

    @staticmethod
    def _check_x(x):
        if x is None:
            raise ValidationError("LTP constraints need the (P, I, R) input vector")
        return np.atleast_2d(x)

    def _phys_jacobian(self, x, y):
        n, dim = y.shape
        p_in, i_in, radius = x[:, 0], x[:, 1], x[:, 2]
        tg = y[:, self._tg]
        ne = y[:, self._ne]
        vd = y[:, self._vd]

        jac = np.zeros((n, 3, dim))
        # pressure law
        jac[:, 0, self._pressure_idx] = (-K_BOLTZMANN * tg / p_in)[:, None]
        jac[:, 0, self._tg] = -K_BOLTZMANN * self._column_sum(y, self._pressure_idx) / p_in
        # current law
        area = np.pi * radius**2
        jac[:, 1, self._ne] = -ELEMENTARY_CHARGE * vd * area / i_in
        jac[:, 1, self._vd] = -ELEMENTARY_CHARGE * ne * area / i_in
        # quasi-neutrality, including the derivative of its 1/ne scale
        ne_scale = np.maximum(ne, NE_SCALE_FLOOR)
        jac[:, 2, self._pos] = (-1.0 / ne_scale)[:, None]
        jac[:, 2, self._neg] = (1.0 / ne_scale)[:, None]
        raw3 = ne - self._column_sum(y, self._pos) + self._column_sum(y, self._neg)
        clamped = ne <= NE_SCALE_FLOOR
        jac[:, 2, self._ne] = np.where(clamped, 1.0 / ne_scale, (ne_scale - raw3) / ne_scale**2)
        return jac

    def _scaled_jacobian(self, x, y):
        diag = _parent_diag(y, self.output_spec)
        return self._phys_jacobian(self._check_x(x), y)[:, self.laws, :] * diag[:, None, :]

    def _lagrangian_hessian(self, x, p, lam):
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
        charge = self._column_sum(y, self._pos) - self._column_sum(y, self._neg)
        hess[:, self._ne, self._ne] += w3 * (-2.0 * charge / ne**3)
        hess[:, self._ne, self._pos] += (w3 / ne**2)[:, None]
        hess[:, self._pos, self._ne] += (w3 / ne**2)[:, None]
        hess[:, self._ne, self._neg] += (-w3 / ne**2)[:, None]
        hess[:, self._neg, self._ne] += (-w3 / ne**2)[:, None]

        grad_phys = (lam_full[:, None, :] @ self._phys_jacobian(x, y))[:, 0, :]
        return _parent_chain_rule(y, self.output_spec, hess, grad_phys)


def _parent_term_loss_and_grad(lambdas, cs, x_phys, y_norm):
    """LtpResidualTerm.loss_and_output_grad as it was, on the constraint set ``cs``."""
    r, jac = cs.residual_and_jacobian(x_phys, np.atleast_2d(y_norm))
    grad = (2.0 / r.shape[0]) * np.einsum("k,nk,nkd->nd", lambdas, r, jac)
    return float(np.dot(lambdas, np.mean(r**2, axis=0))), grad


def _assert_same_array(a, b):
    """Same dtype, shape, bytes and memory layout: a reduction over rows adds in the order the layout gives."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert all(sa == sb for sa, sb, k in zip(a.strides, b.strides, a.shape) if k > 1)  # a lone row or law has any stride


@pytest.mark.parametrize("laws", [(0, 1, 2), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (2, 0, 1)])
def test_shared_pass_matches_the_parent_laws_byte_for_byte(laws):
    """One pass over the laws gives the bytes of the per-law code it replaced:
    residual, Jacobian, joint call, Lagrangian Hessian and the physics term,
    on batches, a single point, and rows whose quasi-neutrality scale is clamped."""
    x, y, spec = ltp_specs()
    new, old = LtpConstraints(SCHEMA, spec, laws=laws), _ParentLtp(SCHEMA, spec, laws=laws)
    term = LtpResidualTerm(new, None, 0.3)
    rng = np.random.default_rng(sum(10**i * k for i, k in enumerate(laws)))
    for n in (1, 2, 32, 64, 300):
        for sigma in (0.05, 1.0):
            zs = normalize(y[:n], spec) + rng.normal(0.0, sigma, (n, 17))
            if n >= 32:  # clamped scales: ne at, below and far below NE_SCALE_FLOOR
                phys = denormalize(zs, spec)
                phys[:3, SCHEMA.idx("ne")] = (NE_SCALE_FLOOR, 0.5 * NE_SCALE_FLOOR, -2e15)
                zs = normalize(phys, spec)
            lams = rng.normal(size=(n, len(laws)))
            cases = [(x[:n], zs, lams)] + ([(x[0], zs[0], lams[0])] if n == 1 else [])  # a batch, a single point
            for xs, ps, lam in cases:
                _assert_same_array(new.residual(xs, ps), old.residual(xs, ps))
                _assert_same_array(new.jacobian(xs, ps), old.jacobian(xs, ps))
                for a, b in zip(new.residual_and_jacobian(xs, ps), old.residual_and_jacobian(xs, ps)):
                    _assert_same_array(a, b)
                _assert_same_array(new.lagrangian_hessian(xs, ps, lam), old.lagrangian_hessian(xs, ps, lam))
            loss, grad = term.loss_and_output_grad(x[:n], zs)
            ref_loss, ref_grad = _parent_term_loss_and_grad(term.lambdas, old, x[:n], zs)
            assert loss == ref_loss or (np.isnan(loss) and np.isnan(ref_loss))
            _assert_same_array(grad, ref_grad)


def test_ltp_jacobian_matches_finite_differences_where_the_scale_is_clamped():
    """At ne ~ -2e15 m^-3, where small-samples' stalled points land, the
    quasi-neutrality scale is clamped to NE_SCALE_FLOOR: the Jacobian and the
    joint call must still be the residual's derivative there."""
    x, y, spec = ltp_specs()
    rng = np.random.default_rng(21)
    h = 1e-5  # the laws are at most bilinear in the linear outputs, so truncation stays far below the noise
    for laws in ((0, 1, 2), (2,)):
        cs = LtpConstraints(SCHEMA, spec, laws=laws)
        for k in range(20):
            i = rng.integers(0, len(x))
            phys = denormalize(normalize(y[i], spec) + rng.normal(0.0, 0.05, 17), spec)
            phys[SCHEMA.idx("ne")] = -rng.uniform(1.7e15, 2.3e15)
            z = normalize(phys, spec)
            jac = cs.jacobian(x[i], z)
            r_joint, jac_joint = cs.residual_and_jacobian(x[i], z)
            assert np.array_equal(r_joint, cs.residual(x[i], z)) and np.array_equal(jac_joint, jac)
            assert denormalize(z, spec)[SCHEMA.idx("ne")] < -1e15  # far below the clamp
            # |r3| ~ 2e9 here: the central difference cancels ~eps * |r| / h of it
            noise = 5e-9 + 8.0 * np.finfo(np.float64).eps * np.abs(r_joint) / h
            for j in range(17):
                e = np.zeros(17)
                e[j] = h
                fd = (cs.residual(x[i], z + e) - cs.residual(x[i], z - e)) / (2 * h)
                limit = 1e-6 * np.maximum(np.abs(jac[:, j]), np.abs(fd)) + noise
                assert np.all(np.abs(jac[:, j] - fd) <= limit), (laws, k, j)


# ---------------------------------------------------------------------------
# synthetic data generator


def test_synthetic_data_satisfies_all_laws_exactly():
    x, y, spec = ltp_specs(n=1000, seed=0)
    cs = LtpConstraints(SCHEMA, spec)
    r = cs.residual(x, normalize(y, spec))
    assert np.abs(r).max() < 1e-12


def test_synthetic_inputs_cover_the_box():
    x, _ = generate_synthetic_ltp(1000, 1)
    p_torr = x[:, 0] / TORR_TO_PA
    for values, (lo, hi) in ((p_torr, P_TORR_RANGE), (x[:, 1], I_RANGE), (x[:, 2], R_RANGE)):
        span = hi - lo
        assert values.min() < lo + 0.02 * span
        assert values.max() > hi - 0.02 * span


def test_synthetic_deterministic():
    a = generate_synthetic_ltp(100, 5)
    b = generate_synthetic_ltp(100, 5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValidationError):
        generate_synthetic_ltp(0, 1)


def test_synthetic_outputs_positive_and_dominated_by_o2x():
    x, y = generate_synthetic_ltp(1000, 2)
    assert np.all(y[:, :12] > 0.0)
    n_total = x[:, 0] / (K_BOLTZMANN * y[:, SCHEMA.idx("Tg")])
    assert np.all(y[:, SCHEMA.idx("O2_X")] / n_total > 0.8)


def test_fit_transform_flags_the_four_paper_outputs():
    _, y = generate_synthetic_ltp(1000, 0)
    spec = fit_transform(y[:800], OUTPUT_NAMES, skew_threshold=2.0)
    flagged = {n for n, f in zip(spec.names, spec.log_flags) if f}
    assert flagged == {"O_1D", "O_plus", "EN", "Te"}


def test_synthetic_outputs_pure_function_of_inputs():
    rng = np.random.default_rng(9)
    x = sample_inputs(20, rng)
    assert np.array_equal(synthetic_outputs(x), synthetic_outputs(x.copy()))


# ---------------------------------------------------------------------------
# CSV round trip and column mapping


def test_ltp_csv_round_trip(tmp_path):
    x, y = generate_synthetic_ltp(50, 3)
    path = tmp_path / "data.csv"
    write_ltp_csv(path, x, y)
    x2, y2 = load_ltp_csv(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)
    # residuals survive the round trip exactly
    spec = fit_transform(y2, OUTPUT_NAMES, skew_threshold=2.0)
    cs = LtpConstraints(SCHEMA, spec)
    assert np.abs(cs.residual(x2, normalize(y2, spec))).max() < 1e-12


def test_ltp_csv_column_mapping(tmp_path):
    # third-party layout: renamed columns, pressure in Torr, shuffled order
    x, y = generate_synthetic_ltp(10, 4)
    path = tmp_path / "external.csv"
    header = ["pressure_torr", "I", "R"] + [f"out_{n}" for n in OUTPUT_NAMES]
    rows = np.hstack([x[:, :1] / TORR_TO_PA, x[:, 1:], y])
    rows = rows[:, ::-1]  # reverse column order on disk
    with open(path, "w") as fh:
        fh.write(",".join(header[::-1]) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    column_map = {"P": {"column": "pressure_torr", "scale": TORR_TO_PA}}
    column_map.update({n: {"column": f"out_{n}"} for n in OUTPUT_NAMES})
    x2, y2 = load_ltp_csv(path, column_map)
    assert np.allclose(x2, x, rtol=1e-15)
    assert np.array_equal(y2, y)


def test_ltp_csv_missing_column_raises(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("P,I\n1.0,2.0\n")
    with pytest.raises(ValidationError):
        load_ltp_csv(path)


def test_ltp_csv_rows_wider_than_header_load_and_narrower_rows_raise(tmp_path):
    x, y = generate_synthetic_ltp(5, 2)
    path = tmp_path / "data.csv"
    write_ltp_csv(path, x, y)
    header, *rows = path.read_text().splitlines()
    wide = tmp_path / "wide.csv"  # an unnamed trailing column, as some exporters write
    wide.write_text("\n".join([header, *(row + ",0" for row in rows)]) + "\n")
    x2, y2 = load_ltp_csv(wide)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("\n".join([header, *(row.rsplit(",", 1)[0] for row in rows)]) + "\n")
    with pytest.raises(ValidationError, match="needs rows of"):
        load_ltp_csv(narrow)


# ---------------------------------------------------------------------------
# batched Lagrangian Hessians


def _assert_rows_match_single(cs, xs, zs, lams):
    batch = cs.lagrangian_hessian(xs, zs, lams)
    assert batch.shape == (len(zs), zs.shape[1], zs.shape[1])
    for i in range(len(zs)):
        single = cs.lagrangian_hessian(None if xs is None else xs[i], zs[i], lams[i])
        assert single.shape == batch.shape[1:]
        assert np.array_equal(single, batch[i])


def test_batched_energy_hessian_matches_single_points():
    spec = spring_spec()
    rng = np.random.default_rng(11)
    zs = rng.uniform(-1.1, 1.1, (8, 4))
    lams = rng.normal(size=(8, 1))
    _assert_rows_match_single(EnergyConstraint(PARAMS, 2.0, spec), None, zs, lams)
    anchors = rng.uniform(0.1, 4.0, (8, 1))  # per-point anchors through x
    _assert_rows_match_single(EnergyConstraint(PARAMS, None, spec), anchors, zs, lams)
    for i in range(8):
        fixed = EnergyConstraint(PARAMS, anchors[i, 0], spec)
        assert np.array_equal(fixed.lagrangian_hessian(None, zs[i], lams[i]), EnergyConstraint(PARAMS, None, spec).lagrangian_hessian(anchors[i], zs[i], lams[i]))


def test_batched_ltp_hessian_matches_single_points_including_clamped_scale():
    from physproj.constraints.sets import NE_SCALE_FLOOR

    x, y, spec = ltp_specs()
    rng = np.random.default_rng(12)
    phys = denormalize(normalize(y[:10], spec) + rng.normal(0.0, 0.02, (10, 17)), spec)
    phys[6:8, SCHEMA.idx("ne")] = 0.5 * NE_SCALE_FLOOR  # the ne <= NE_SCALE_FLOOR branch
    phys[8:, SCHEMA.idx("ne")] = -1e14
    zs = normalize(phys, spec)
    for laws in ((0, 1, 2), (1, 2)):
        lams = rng.normal(size=(10, len(laws)))
        _assert_rows_match_single(LtpConstraints(SCHEMA, spec, laws=laws), x[:10], zs, lams)


def test_batched_fd_default_hessian_matches_single_points():
    x, y, spec = ltp_specs()
    cs = fd_default(LtpConstraints(SCHEMA, spec))
    rng = np.random.default_rng(13)
    zs = normalize(y[:5], spec) + rng.normal(0.0, 0.05, (5, 17))
    lams = rng.normal(size=(5, 3))
    batch = cs.lagrangian_hessian(x[:5], zs, lams)
    for i in range(5):
        assert np.array_equal(cs.lagrangian_hessian(x[i], zs[i], lams[i]), batch[i])


def test_energy_constraint_without_anchor_needs_per_point_anchors():
    cs = EnergyConstraint(PARAMS, None, spring_spec())
    with pytest.raises(ValidationError):
        cs.residual(None, np.zeros(4))
    with pytest.raises(ValidationError):
        cs.residual(np.array([[-1.0]]), np.zeros((1, 4)))
