import itertools
from collections import Counter

import numpy as np
import pytest

from physproj import projector
from physproj import springmass as sm
from physproj.constraints import ConstraintSet, EnergyConstraint, denormalize, fit_transform, normalize
from physproj.errors import ValidationError
from physproj.projector import (
    CONVERGED,
    MAX_ITERATIONS,
    NONFINITE_INPUT,
    SINGULAR_SYSTEM,
    ProjectionSpec,
    kkt_residual,
    project,
    project_batch,
)

PARAMS = sm.SpringParams()


class Line(ConstraintSet):
    """g(p) = p - 0.5 in one dimension."""

    residual_dim = 1

    def _residual(self, x, p):
        return (p[:, 0] - 0.5)[:, None]

    def _jacobian(self, x, p):
        return np.ones((p.shape[0], 1, 1))


class Circle(ConstraintSet):
    """g(p) = p1^2 + p2^2 - 1; Hessian exercised through the FD default."""

    residual_dim = 1

    def _residual(self, x, p):
        return (p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0)[:, None]

    def _jacobian(self, x, p):
        return (2.0 * p)[:, None, :]


def energy_constraint(anchor=3.5405):
    inputs, _ = sm.generate_dataset(PARAMS, 5.0, 400, 0.05, 10, seed=2)
    spec = fit_transform(inputs, sm.STATE_NAMES, skew_threshold=np.inf)
    return EnergyConstraint(PARAMS, anchor, spec), spec


def test_feasible_input_is_fixed_point_in_zero_iterations():
    result = project(np.array([0.5]), Line(), None, ProjectionSpec(tolerance=1e-10))
    assert result.status == CONVERGED
    assert result.iterations == 0
    assert result.projected[0] == 0.5
    assert np.all(result.multipliers == 0.0)


def test_linear_constraint_closed_form():
    result = project(np.array([0.7]), Line(), None, ProjectionSpec(tolerance=1e-12))
    assert result.status == CONVERGED
    assert result.projected[0] == pytest.approx(0.5, abs=1e-12)
    # stationarity 2(p - y) + lam = 0 fixes lam = 0.4 for g = p - 0.5
    assert result.multipliers[0] == pytest.approx(0.4, abs=1e-10)
    stat, feas = kkt_residual(result.projected, result.multipliers, np.array([0.7]), Line(), None, ProjectionSpec())
    assert stat < 1e-12 and feas < 1e-12


def test_circle_nearest_point():
    result = project(np.array([2.0, 0.0]), Circle(), None, ProjectionSpec(tolerance=1e-10))
    assert result.status == CONVERGED
    assert np.allclose(result.projected, [1.0, 0.0], atol=1e-8)


def test_circle_from_inside():
    result = project(np.array([0.3, 0.4]), Circle(), None, ProjectionSpec(tolerance=1e-10))
    assert result.status == CONVERGED
    assert np.allclose(result.projected, [0.6, 0.8], atol=1e-8)


def test_kkt_residual_values():
    # p = y feasible, lam = 0 -> both norms zero
    stat, feas = kkt_residual(np.array([0.5]), np.zeros(1), np.array([0.5]), Line(), None, ProjectionSpec())
    assert stat == 0.0 and feas == 0.0
    # hand-computed toy case: p=(1,1), lam=2, y=(0,0) on the circle set
    stat, feas = kkt_residual(np.array([1.0, 1.0]), np.array([2.0]), np.zeros(2), Circle(), None, ProjectionSpec())
    # stationarity = 2(p-y) + J^T lam = (2,2) + (4,4) -> inf-norm 6; g = 1
    assert stat == pytest.approx(6.0)
    assert feas == pytest.approx(1.0)


def test_energy_shell_projection_meets_tolerance():
    cs, spec = energy_constraint()
    pspec = ProjectionSpec(tolerance=1e-6)
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.uniform(-1.2, 1.2, 4)
        result = project(y, cs, None, pspec)
        assert result.status == CONVERGED
        state = None
        from physproj.constraints import denormalize

        state = denormalize(result.projected, spec)
        assert abs(sm.energy(state, PARAMS) - cs.anchor) <= 1e-6 * cs.scale


def test_idempotence():
    cs, _ = energy_constraint()
    pspec = ProjectionSpec(tolerance=1e-8)
    rng = np.random.default_rng(1)
    for _ in range(100):
        y = rng.uniform(-1.0, 1.0, 4)
        first = project(y, cs, None, pspec)
        second = project(first.projected, cs, None, pspec)
        assert second.status == CONVERGED
        assert second.iterations == 0
        assert np.max(np.abs(second.projected - first.projected)) <= 2.0 * pspec.tolerance


def test_local_optimality_against_feasible_cloud():
    # brute-force oracle: exact samples of the circle manifold
    rng = np.random.default_rng(2)
    angles = rng.uniform(0.0, 2.0 * np.pi, 10000)
    cloud = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    pspec = ProjectionSpec(tolerance=1e-10)
    for _ in range(25):
        y = rng.uniform(-2.0, 2.0, 2)
        result = project(y, Circle(), None, pspec)
        assert result.status == CONVERGED
        d_ret = np.linalg.norm(result.projected - y)
        d_cloud = np.linalg.norm(cloud - y, axis=1).min()
        assert d_cloud >= d_ret - 1e-6


def test_duplicated_law_converges_to_the_single_law_projection():
    class TwoCircles(Circle):
        """The circle law stated twice: rank-deficient but consistent."""

        residual_dim = 2

        def _residual(self, x, p):
            return np.repeat(super()._residual(x, p), 2, axis=1)

        def _jacobian(self, x, p):
            return np.repeat(super()._jacobian(x, p), 2, axis=1)

    ys = np.random.default_rng(8).uniform(-2.0, 2.0, (200, 2))
    pspec = ProjectionSpec(tolerance=1e-10)
    once, twice = project_batch(ys, Circle(), None, pspec), project_batch(ys, TwoCircles(), None, pspec)
    assert np.all(once.status == CONVERGED) and np.all(twice.status == CONVERGED)
    assert np.abs(twice.projected - once.projected).max() <= 1e-9


def test_determinism():
    cs, _ = energy_constraint()
    y = np.array([0.9, -0.8, 0.1, 0.2])
    a = project(y, cs, None, ProjectionSpec(tolerance=1e-8))
    b = project(y, cs, None, ProjectionSpec(tolerance=1e-8))
    assert np.array_equal(a.projected, b.projected)
    assert a.iterations == b.iterations and a.kkt_norm == b.kkt_norm


def test_rejects_nonfinite_input():
    with pytest.raises(ValidationError):
        project(np.array([np.nan, 0.0]), Circle(), None, ProjectionSpec())


def test_spec_validation():
    for bad in (dict(tolerance=0.0), dict(tolerance=float("nan")), dict(tolerance=float("inf")), dict(max_iterations=0)):
        with pytest.raises(ValidationError):
            ProjectionSpec(**bad)
    # a non-integer budget is rejected before any solve could run forever on it
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValidationError, match="integer"):
            ProjectionSpec(max_iterations=bad)
    assert ProjectionSpec(max_iterations=np.int64(3)).max_iterations == 3


def test_batch_order_preserved_and_permutation_equivariant():
    cs, _ = energy_constraint()
    rng = np.random.default_rng(3)
    ys = rng.uniform(-1, 1, size=(20, 4))
    pspec = ProjectionSpec(tolerance=1e-8)
    results = project_batch(ys, cs, None, pspec)
    perm = rng.permutation(20)
    permuted = project_batch(ys[perm], cs, None, pspec)
    assert np.array_equal(permuted.projected, results.projected[perm])
    assert np.array_equal(permuted.iterations, results.iterations[perm])


def test_batch_isolates_per_item_failures():
    class Fragile(Line):
        def _residual(self, x, p):
            if np.any(p > 10.0):
                raise ValidationError("synthetic failure")
            return super()._residual(x, p)

    ys = np.array([[0.7], [11.0], [0.2], [np.nan]])
    results = project_batch(ys, Fragile(), None, ProjectionSpec(tolerance=1e-10))
    assert list(results.status) == [CONVERGED, SINGULAR_SYSTEM, CONVERGED, NONFINITE_INPUT]
    assert results.projected[1, 0] == 11.0  # untouched input returned
    assert np.isnan(results.projected[3, 0]) and results.iterations[3] == 0


def test_singular_constraint_reports_status():
    class Degenerate(ConstraintSet):
        residual_dim = 1

        def _residual(self, x, p):
            return np.full((p.shape[0], 1), 1.0)  # infeasible everywhere

        def _jacobian(self, x, p):
            return np.zeros((p.shape[0], 1, 2))  # rank-deficient

    # one restoration step, whose Gram system is singular, then Newton steps
    # that cannot move the point while delta climbs from 1e-10 past _MAX_DELTA
    for budget, expected in ((20, (SINGULAR_SYSTEM, 18)), (10, (MAX_ITERATIONS, 10))):
        result = project(np.zeros(2), Degenerate(), None, ProjectionSpec(tolerance=1e-8, max_iterations=budget))
        assert (result.status, result.iterations) == expected


def test_converged_kkt_norm_below_tolerance():
    cs, _ = energy_constraint()
    rng = np.random.default_rng(4)
    for tol in (1e-3, 1e-8):
        pspec = ProjectionSpec(tolerance=tol)
        for _ in range(50):
            y = rng.uniform(-1, 1, 4)
            result = project(y, cs, None, pspec)
            assert result.status == CONVERGED
            assert result.kkt_norm <= tol
            stat, feas = kkt_residual(result.projected, result.multipliers, y, cs, None, pspec)
            assert stat <= tol and feas <= tol


def _assert_same_result(a, batch, i):
    """``project``'s result ``a`` equals row ``i`` of the batch result ``batch``, and has scalar types."""
    assert (type(a.iterations), type(a.kkt_norm), type(a.status)) == (int, float, str)
    assert a.status == batch.status[i] and a.iterations == batch.iterations[i]
    assert np.array_equal(a.projected, batch.projected[i])
    assert np.array_equal(a.multipliers, batch.multipliers[i])
    assert a.kkt_norm == batch.kkt_norm[i]


def test_batch_result_holds_one_row_per_point():
    cs, _ = energy_constraint(anchor=None)
    pspec = ProjectionSpec(tolerance=1e-8)
    empty = project_batch(np.zeros((0, 4)), cs, np.zeros((0, 1)), pspec)
    assert (empty.projected.shape, empty.multipliers.shape) == ((0, 4), (0, 1))
    assert empty.iterations.shape == empty.kkt_norm.shape == empty.status.shape == (0,)
    rng = np.random.default_rng(9)
    ys, anchors = rng.uniform(-1.5, 1.5, (7, 4)), rng.uniform(0.2, 4.5, (7, 1))
    batch = project_batch(ys, cs, anchors, pspec)
    assert (batch.projected.shape, batch.multipliers.shape) == ((7, 4), (7, 1))
    assert batch.iterations.shape == batch.kkt_norm.shape == batch.status.shape == (7,)
    assert np.issubdtype(batch.iterations.dtype, np.integer) and batch.kkt_norm.dtype == np.float64
    assert all(type(status) is str for status in batch.status)
    for y, anchor in zip(ys, anchors):  # project(y) is row 0 of y's own one-point batch
        _assert_same_result(project(y, cs, anchor, pspec), project_batch(y[None], cs, anchor[None], pspec), 0)


def test_project_equals_batch_row_bit_for_bit_on_energy_shell():
    cs, _ = energy_constraint()
    rng = np.random.default_rng(5)
    ys = np.concatenate([rng.uniform(-1.2, 1.2, (30, 4)), rng.uniform(-4.0, 4.0, (10, 4))])
    pspec = ProjectionSpec(tolerance=1e-8)
    batch = project_batch(ys, cs, None, pspec)
    for i, y in enumerate(ys):
        _assert_same_result(project(y, cs, None, pspec), batch, i)


def _noisy_ltp_batch():
    """24 LTP points near the manifold (x, ys, output transform): some with a
    clamped quasi-neutrality scale or a negative density, some far off."""
    from physproj.constraints import OUTPUT_NAMES, LtpSchema, generate_synthetic_ltp
    from physproj.constraints.sets import NE_SCALE_FLOOR

    x, y = generate_synthetic_ltp(400, 0)
    spec = fit_transform(y, OUTPUT_NAMES, skew_threshold=2.0)
    rng = np.random.default_rng(6)
    phys = denormalize(normalize(y[:24], spec) + rng.normal(0.0, 0.05, (24, 17)), spec)
    phys[16:20, LtpSchema().idx("ne")] = 0.5 * NE_SCALE_FLOOR  # clamped quasi-neutrality scale
    phys[20:, LtpSchema().idx("ne")] = -1e14
    ys = normalize(phys, spec)
    ys[:4] += rng.normal(0.0, 0.5, (4, 17))  # far-off starts that need restoration
    return x[:24], ys, spec


def test_project_equals_batch_row_bit_for_bit_on_ltp_laws(monkeypatch):
    from physproj.constraints import LtpConstraints, LtpSchema

    x, ys, spec = _noisy_ltp_batch()
    pspec = ProjectionSpec(tolerance=1e-8)
    whole = projector._BLOCK_BYTES
    for laws in ((0, 1, 2), (2,)):
        cs = LtpConstraints(LtpSchema(), spec, laws=laws)
        point_bytes = projector._POINT_MATRICES * 8 * (17 + len(laws)) ** 2
        # the 24 points as one block, and in blocks of 5, 5, 5, 5 and 4
        for budget in (whole, 5 * point_bytes):
            monkeypatch.setattr(projector, "_BLOCK_BYTES", budget)
            batch = project_batch(ys, cs, x, pspec)
            for i in range(len(ys)):
                _assert_same_result(project(ys[i], cs, x[i], pspec), batch, i)


def test_each_ltp_iterate_is_evaluated_once(monkeypatch):
    """Rows de-normalized by the constraint calls of one LTP batch: each
    iterate's residual comes from the trial that found it, and the start's
    residual and Jacobian from one call."""
    from physproj.constraints import LtpConstraints, LtpSchema, sets

    x, ys, spec = _noisy_ltp_batch()
    rows = []
    monkeypatch.setattr(sets, "denormalize", lambda p, s: rows.append(len(p)) or denormalize(p, s))
    batch = project_batch(ys, LtpConstraints(LtpSchema(), spec), x, ProjectionSpec(tolerance=1e-8))
    iterations = batch.iterations.sum()
    # evaluating the residual again at every iterate, and the start apart from
    # its Jacobian, de-normalized 519 rows for the same 24 solves
    assert iterations == 117 and sum(rows) == 330
    assert sum(rows) <= 519 - iterations


def test_restoration_and_newton_steps_share_the_iteration_budget():
    """Restoration takes at most half of max_iterations, and iterations counts
    both kinds of step: census (max_iterations, converged, total iterations)."""
    from physproj.constraints import LtpConstraints, LtpSchema

    x, ys, spec = _noisy_ltp_batch()
    cs = LtpConstraints(LtpSchema(), spec)
    census = {}
    for budget in (1, 2, 3, 4, 6, 10, 100):
        batch = project_batch(ys, cs, x, ProjectionSpec(tolerance=1e-8, max_iterations=budget))
        assert np.all(batch.iterations <= budget)
        assert np.all(batch.iterations[batch.status == MAX_ITERATIONS] == budget)
        statuses = Counter(batch.status)
        census[budget] = (statuses[MAX_ITERATIONS], statuses[CONVERGED], batch.iterations.sum())
    assert census == {
        1: (24, 0, 24),
        2: (24, 0, 48),
        3: (15, 9, 72),
        4: (12, 12, 93),
        6: (1, 23, 113),
        10: (0, 24, 117),
        100: (0, 24, 117),
    }


def test_far_from_manifold_ltp_starts():
    """200 training targets pushed off the LTP manifold by noise of scale 0.8
    (normalized): no fewer than 170 converge, here pinned exactly."""
    from physproj.constraints import LtpConstraints, LtpSchema
    from physproj.pipeline.config import ExperimentConfig
    from physproj.pipeline.experiments import prepare_ltp

    ctx = prepare_ltp(ExperimentConfig(kind="ltp-compare", seed=0))
    ys = ctx.norm["train"][1][:200] + np.random.default_rng(0).normal(0.0, 0.8, (200, 17))
    batch = project_batch(ys, LtpConstraints(LtpSchema(), ctx.out_spec), ctx.splits["train"][0][:200], ProjectionSpec())
    assert Counter(batch.status) == {CONVERGED: 170, MAX_ITERATIONS: 16, SINGULAR_SYSTEM: 14}
    assert batch.iterations.sum() == 3320


def test_point_leaving_before_its_first_kkt_check_returns_its_restored_iterate():
    class HoledCircle(Circle):
        """Jacobian rows are NaN, without raising, where 1.2 < p2 < 2."""

        def _jacobian(self, x, p):
            jac = super()._jacobian(x, p)
            jac[(p[:, 1] > 1.2) & (p[:, 1] < 2.0)] = np.nan
            return jac

    # two restoration steps lead into the hole, where the third finds no
    # direction: the point leaves with the best iterate seen, not with y
    pspec = ProjectionSpec(tolerance=1e-10)
    result = project(np.array([0.0, 4.0]), HoledCircle(), None, pspec)
    assert (result.status, result.iterations) == (SINGULAR_SYSTEM, 3)
    assert np.allclose(result.projected, [0.0, 1.29779412], rtol=0.0, atol=1e-8)
    result = project(np.array([0.1, 4.0]), HoledCircle(), None, pspec)
    assert np.allclose(result.projected, [0.03244042, 1.29761675], rtol=0.0, atol=1e-8)


def test_batch_isolates_points_whose_constraint_raises_mid_solve():
    class FragileCircle(Circle):
        """Refuses points beyond x = 1.5; counts the batch sizes it refused."""

        refused = []

        def _residual(self, x, p):
            if np.any(p[:, 0] > 1.5):
                self.refused.append(len(p))
                raise ValidationError("synthetic failure")
            return super()._residual(x, p)

    # the start near the centre takes a capped restoration step to x = 2.05,
    # which raises inside a batch of three; the last start raises at once
    ys = np.array([[0.3, 0.4], [0.05, 0.0], [0.0, 2.0], [1.6, 0.0]])
    pspec = ProjectionSpec(tolerance=1e-10)
    batch = project_batch(ys, FragileCircle(), None, pspec)
    assert 3 in FragileCircle.refused
    for i, y in enumerate(ys):
        _assert_same_result(project(y, FragileCircle(), None, pspec), batch, i)
    assert list(batch.status) == [CONVERGED] * 3 + [SINGULAR_SYSTEM]
    assert np.allclose(batch.projected[1], [1.0, 0.0], atol=1e-8)
    assert np.array_equal(batch.projected[3], ys[3])


def test_batch_isolates_points_whose_jacobian_or_curvature_raises():
    class Tripwire(Circle):
        """The circle with exact curvature. Its Jacobian raises on points tagged
        x = 1 and its curvature on points tagged x = 2; the start's joint call
        never raises. Counts the batch sizes each refused."""

        refused = Counter()

        def _residual_and_jacobian(self, x, p):
            return self._residual(x, p), super()._jacobian(x, p)

        def _jacobian(self, x, p):
            if np.any(x[:, 0] == 1.0):
                self.refused["jacobian", len(p)] += 1
                raise ValidationError("synthetic Jacobian failure")
            return super()._jacobian(x, p)

        def _lagrangian_hessian(self, x, p, lam):
            if np.any(x[:, 0] == 2.0):
                self.refused["curvature", len(p)] += 1
                raise ValidationError("synthetic curvature failure")
            return 2.0 * lam[:, :, None] * np.eye(2)

    # tagged 1: a far start whose restoration step is accepted, and a start
    # within the restoration target whose Newton step is; tagged 2: a far start
    # and a near one, whose first Newton pass asks for the curvature
    ys = np.array([[0.3, 0.4], [0.0, 4.0], [0.6, 0.8003], [0.05, 0.0], [0.0, 3.0], [0.8, 0.6001], [2.0, 0.5]])
    tags = np.array([[0.0], [1.0], [1.0], [0.0], [2.0], [2.0], [0.0]])
    pspec = ProjectionSpec(tolerance=1e-10)
    batch = project_batch(ys, Tripwire(), tags, pspec)
    assert {kind for kind, size in Tripwire.refused if size > 1} == {"jacobian", "curvature"}
    for i, (y, tag) in enumerate(zip(ys, tags)):
        if tag[0]:
            assert np.array_equal(batch.projected[i], y) and np.all(batch.multipliers[i] == 0.0)
            assert (batch.iterations[i], batch.status[i]) == (0, SINGULAR_SYSTEM)
        else:
            assert batch.status[i] == CONVERGED
            _assert_same_result(project(y, Tripwire(), tag, pspec), batch, i)


def test_energy_anchors_per_point_match_one_constraint_per_point():
    _, spec = energy_constraint()
    rng = np.random.default_rng(7)
    ys = rng.uniform(-1.0, 1.0, (12, 4))
    anchors = rng.uniform(0.2, 4.5, 12)
    pspec = ProjectionSpec(tolerance=1e-8)
    batch = project_batch(ys, EnergyConstraint(PARAMS, None, spec), anchors[:, None], pspec)
    for i, (y, anchor) in enumerate(zip(ys, anchors)):
        _assert_same_result(project(y, EnergyConstraint(PARAMS, anchor, spec), None, pspec), batch, i)


def _far_ltp_starts(n, sigma=0.8):
    """The first ``n`` training targets pushed off the LTP manifold by noise of
    scale ``sigma``: ys, inputs, constraints. At sigma 0.8 and n <= 200 they are
    the first n points of the stress set of test_far_from_manifold_ltp_starts."""
    from physproj.constraints import LtpConstraints, LtpSchema
    from physproj.pipeline.config import ExperimentConfig
    from physproj.pipeline.experiments import prepare_ltp

    ctx = prepare_ltp(ExperimentConfig(kind="ltp-compare", seed=0))
    ys = ctx.norm["train"][1][:n] + np.random.default_rng(0).normal(0.0, sigma, (n, 17))
    return ys, ctx.splits["train"][0][:n], LtpConstraints(LtpSchema(), ctx.out_spec)


@pytest.mark.parametrize("sigma", [0.05, 0.8])
def test_a_block_keeps_its_memory_budget(sigma):
    """The tracemalloc peak of a 300-point LTP batch, one block, stays within
    the _POINT_MATRICES saddle-point matrices per point that size its blocks."""
    import tracemalloc

    ys, xs, cs = _far_ltp_starts(300, sigma)
    project_batch(ys[:8], cs, xs[:8], ProjectionSpec())  # one-time costs, such as lazy imports, stay out of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        project_batch(ys, cs, xs, ProjectionSpec())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / 300 <= projector._POINT_MATRICES * 8 * (17 + 3) ** 2


def test_no_kkt_check_runs_on_zero_points(monkeypatch):
    """A lockstep iteration whose running points all restore skips the Newton pass. Noisy
    energy-shell batches at noise 1 and 2 and the LTP stress set each reach such an iteration."""
    sizes = []
    kkt_check = projector._Block.kkt_check
    monkeypatch.setattr(projector._Block, "kkt_check", lambda b, rows: sizes.append(rows.size) or kkt_check(b, rows))
    _, spec = energy_constraint()
    states, _ = sm.generate_dataset(PARAMS, 5.0, 400, 0.05, 10, seed=2)
    for sigma, seed in itertools.product((1.0, 2.0), range(10)):
        rng = np.random.default_rng(seed)
        clean = states[rng.choice(len(states), 100, replace=False)]
        ys = normalize(clean, spec) + rng.normal(0.0, sigma, (100, 4))
        project_batch(ys, EnergyConstraint(PARAMS, None, spec), sm.energy(clean, PARAMS)[:, None], ProjectionSpec(tolerance=1e-4))
    ys, xs, cs = _far_ltp_starts(200)
    project_batch(ys, cs, xs, ProjectionSpec())
    assert len(sizes) > 200 and 0 not in sizes


_BACKTRACK = 0.5
_MIN_ALPHA = 1e-12


def _halving_loop(p, g, dp, pending, accept):
    """The reference line search: one ``accept`` call per step length, halving from 1 down to 1e-12."""
    alpha, length, new_p, new_g = np.zeros(len(p)), np.ones(len(p)), p.copy(), g.copy()
    while pending.size:
        ok, at, g_at = accept(pending, p[pending] + length[pending, None] * dp[pending], length[pending])
        alpha[pending[ok]], new_p[pending[ok]], new_g[pending[ok]] = length[pending[ok]], at[ok], g_at[ok]
        length[pending[~ok]] *= _BACKTRACK
        pending = pending[~ok & (length[pending] >= _MIN_ALPHA)]
    return alpha, new_p, new_g


def _reference_backtrack(log):
    """``_backtrack`` as the halving loop, whose first call goes to ``full`` when given.
    Counts in ``log`` the line searches that went past the full step (restoration's
    have no ``full``, the Newton ones do) and the full steps a second-order correction took."""

    def backtrack(p, g, dp, pending, accept, full=None):
        kind, calls = ("newton" if full else "restoration"), []

        def judge(rows, trials, lengths):
            calls.append(len(rows))
            if len(calls) > 1:
                log[kind] += len(calls) == 2
                return accept(rows, trials, lengths)
            if not full:
                return accept(rows, trials, lengths)
            plain = accept(rows, trials.copy(), lengths)[0]
            ok, at, g_at = full(rows, trials, lengths)
            log["correction"] += np.sum(ok & ~plain)
            return ok, at, g_at

        return _halving_loop(p, g, dp, pending, judge)

    return backtrack


def _assert_same_bytes(a, b):
    for field in ("projected", "multipliers", "iterations", "kkt_norm"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), field
    assert list(a.status) == list(b.status)


def _reference_cases():
    """(name, ys, inputs, constraint set, spec, block budget) for the line-search reference test."""
    from physproj.constraints import LtpConstraints, LtpSchema

    ys, xs, cs = _far_ltp_starts(200)
    x, noisy, spec = _noisy_ltp_batch()
    circle = np.concatenate([np.random.default_rng(8).uniform(-2.0, 2.0, (100, 2)), [[0.0, 4.0], [0.05, 0.0], [3.0, 3.0]]])
    tight = ProjectionSpec(tolerance=1e-10)
    small = 5 * projector._POINT_MATRICES * 8 * (17 + 3) ** 2  # blocks of 5 points, one rejected row per trial call
    return [
        ("far starts", ys, xs, cs, ProjectionSpec(), projector._BLOCK_BYTES),
        ("far starts, small blocks", ys[:40], xs[:40], cs, ProjectionSpec(), small),
        ("noisy, all laws", noisy, x, LtpConstraints(LtpSchema(), spec), ProjectionSpec(), projector._BLOCK_BYTES),
        ("noisy, neutrality", noisy, x, LtpConstraints(LtpSchema(), spec, laws=(2,)), ProjectionSpec(), projector._BLOCK_BYTES),
        ("circle", circle, None, Circle(), tight, projector._BLOCK_BYTES),
    ]


def test_line_search_matches_the_halving_loop_bit_for_bit(monkeypatch):
    """Trying every shorter length at once picks the length, point and residual
    that halving one length at a time picks, so every result field is identical."""
    logs = {}
    for name, ys, xs, cs, pspec, budget in _reference_cases():
        monkeypatch.setattr(projector, "_BLOCK_BYTES", budget)
        batched = project_batch(ys, cs, xs, pspec)
        logs[name] = Counter()
        with monkeypatch.context() as patched:
            patched.setattr(projector, "_backtrack", _reference_backtrack(logs[name]))
            reference = project_batch(ys, cs, xs, pspec)
        _assert_same_bytes(batched, reference)
    # on the far starts, in whole and in small blocks, both line searches went
    # past the full step, and second-order corrections took full steps
    for name in ("far starts", "far starts, small blocks"):
        assert logs[name]["restoration"] and logs[name]["newton"] and logs[name]["correction"], (name, logs[name])


def test_a_line_search_makes_two_residual_calls_and_one_for_corrections(monkeypatch):
    """Named beforehand: a line search calls ``residual`` once on the full
    steps and once on every shorter length of the rows that rejected them; the
    Newton one calls it once more, between the two, on the second-order
    corrections. A halving loop calls it once per length."""
    ys, xs, cs = _far_ltp_starts(16)
    calls, searches = [0], []
    residual = cs.residual
    monkeypatch.setattr(cs, "residual", lambda x, p: calls.__setitem__(0, calls[0] + 1) or residual(x, p))
    backtrack = projector._backtrack

    def counted(p, g, dp, pending, accept, *full):
        before = calls[0]
        alpha, new_p, new_g = backtrack(p, g, dp, pending, accept, *full)
        searches.append((accept.__name__, np.any(alpha[pending] < 1.0), calls[0] - before))
        return alpha, new_p, new_g

    monkeypatch.setattr(projector, "_backtrack", counted)
    project_batch(ys, cs, xs, ProjectionSpec())
    for kind, most in (("decrease", 2), ("armijo", 3)):
        mine = [(short, n) for name, short, n in searches if name == kind]
        assert any(short for short, _ in mine)  # some rows went past the full step
        assert max(n for _, n in mine) == most
