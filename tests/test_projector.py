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
    for once, twice in zip(project_batch(ys, Circle(), None, pspec), project_batch(ys, TwoCircles(), None, pspec)):
        assert once.status == twice.status == CONVERGED
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
    for bad in (dict(tolerance=0.0), dict(tolerance=float("nan")), dict(max_iterations=0)):
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
    for i, j in enumerate(perm):
        assert np.array_equal(permuted[i].projected, results[j].projected)
        assert permuted[i].iterations == results[j].iterations


def test_batch_isolates_per_item_failures():
    class Fragile(Line):
        def _residual(self, x, p):
            if np.any(p > 10.0):
                raise ValidationError("synthetic failure")
            return super()._residual(x, p)

    ys = np.array([[0.7], [11.0], [0.2], [np.nan]])
    results = project_batch(ys, Fragile(), None, ProjectionSpec(tolerance=1e-10))
    assert results[0].status == CONVERGED
    assert results[1].status == SINGULAR_SYSTEM
    assert results[2].status == CONVERGED
    assert results[1].projected[0] == 11.0  # untouched input returned
    assert results[3].status == NONFINITE_INPUT
    assert np.isnan(results[3].projected[0]) and results[3].iterations == 0


def test_singular_constraint_reports_status():
    class Degenerate(ConstraintSet):
        residual_dim = 1

        def _residual(self, x, p):
            return np.full((p.shape[0], 1), 1.0)  # infeasible everywhere

        def _jacobian(self, x, p):
            return np.zeros((p.shape[0], 1, 2))  # rank-deficient

    result = project(np.zeros(2), Degenerate(), None, ProjectionSpec(tolerance=1e-8, max_iterations=20))
    assert result.status in (SINGULAR_SYSTEM, "max_iterations")


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


def _assert_same_result(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert np.array_equal(a.projected, b.projected)
    assert np.array_equal(a.multipliers, b.multipliers)
    assert a.kkt_norm == b.kkt_norm


def test_project_equals_batch_row_bit_for_bit_on_energy_shell():
    cs, _ = energy_constraint()
    rng = np.random.default_rng(5)
    ys = np.concatenate([rng.uniform(-1.2, 1.2, (30, 4)), rng.uniform(-4.0, 4.0, (10, 4))])
    pspec = ProjectionSpec(tolerance=1e-8)
    batch = project_batch(ys, cs, None, pspec)
    for y, result in zip(ys, batch):
        _assert_same_result(project(y, cs, None, pspec), result)


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
            for i, result in enumerate(batch):
                _assert_same_result(project(ys[i], cs, x[i], pspec), result)


def test_each_ltp_iterate_is_evaluated_once(monkeypatch):
    """Rows de-normalized by the constraint calls of one LTP batch: each
    iterate's residual comes from the trial that found it, and the start's
    residual and Jacobian from one call."""
    from physproj.constraints import LtpConstraints, LtpSchema, sets

    x, ys, spec = _noisy_ltp_batch()
    rows = []
    monkeypatch.setattr(sets, "denormalize", lambda p, s: rows.append(len(p)) or denormalize(p, s))
    batch = project_batch(ys, LtpConstraints(LtpSchema(), spec), x, ProjectionSpec(tolerance=1e-8))
    iterations = sum(r.iterations for r in batch)
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
        assert all(r.iterations <= budget for r in batch)
        assert all(r.iterations == budget for r in batch if r.status == MAX_ITERATIONS)
        statuses = Counter(r.status for r in batch)
        census[budget] = (statuses[MAX_ITERATIONS], statuses[CONVERGED], sum(r.iterations for r in batch))
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
    assert Counter(r.status for r in batch) == {CONVERGED: 170, MAX_ITERATIONS: 16, SINGULAR_SYSTEM: 14}
    assert sum(r.iterations for r in batch) == 3320


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
    for y, result in zip(ys, batch):
        _assert_same_result(project(y, FragileCircle(), None, pspec), result)
    assert [r.status for r in batch] == [CONVERGED] * 3 + [SINGULAR_SYSTEM]
    assert np.allclose(batch[1].projected, [1.0, 0.0], atol=1e-8)
    assert np.array_equal(batch[3].projected, ys[3])


def test_energy_anchors_per_point_match_one_constraint_per_point():
    _, spec = energy_constraint()
    rng = np.random.default_rng(7)
    ys = rng.uniform(-1.0, 1.0, (12, 4))
    anchors = rng.uniform(0.2, 4.5, 12)
    pspec = ProjectionSpec(tolerance=1e-8)
    batch = project_batch(ys, EnergyConstraint(PARAMS, None, spec), anchors[:, None], pspec)
    for y, anchor, result in zip(ys, anchors, batch):
        _assert_same_result(project(y, EnergyConstraint(PARAMS, anchor, spec), None, pspec), result)
