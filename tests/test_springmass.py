import numpy as np
import pytest

from physproj import springmass as sm
from physproj.constraints import fit_transform, normalize
from physproj.errors import ProjectionError, ValidationError

PARAMS = sm.SpringParams()
PAPER_IC = np.array([-0.16, -2.18, 0.09, -0.16])  # x1, v1, x2, v2


def test_params_must_be_positive():
    with pytest.raises(ValidationError):
        sm.SpringParams(m1=-1.0)


def test_rhs_equilibrium_is_fixed_point():
    assert np.allclose(sm.rhs(PARAMS.equilibrium(), PARAMS), 0.0)


def test_rhs_wall_spring_only():
    # x1 stretched 0.5 m, second spring at natural length
    deriv = sm.rhs(np.array([1.0, 0.0, 1.5, 0.0]), PARAMS)
    assert np.allclose(deriv, [0.0, -2.5, 0.0, 0.0])


def test_rhs_pure_velocities():
    deriv = sm.rhs(np.array([0.5, 1.0, 1.0, -1.0]), PARAMS)
    assert np.allclose(deriv, [1.0, 0.0, -1.0, 0.0])


def test_rhs_momentum_identity():
    # total momentum change equals the wall-spring force on random states
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = rng.uniform(-2.0, 2.0, size=4)
        deriv = sm.rhs(state, PARAMS)
        wall_force = -PARAMS.k1 * (state[0] - PARAMS.L1)
        assert abs(PARAMS.m1 * deriv[1] + PARAMS.m2 * deriv[3] - wall_force) < 1e-12


def test_energy_values():
    assert sm.energy(PARAMS.equilibrium(), PARAMS) == 0.0
    assert abs(sm.energy(PAPER_IC, PARAMS) - 3.5405) < 1e-4
    assert sm.energy(PAPER_IC, PARAMS) < 5.0
    only_v1 = np.array([0.5, 1.0, 1.0, 0.0])
    assert abs(sm.energy(only_v1, PARAMS) - 0.5) < 1e-15


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(50):
        state = rng.uniform(-2.0, 2.0, size=4)
        grad = sm.energy_gradient(state, PARAMS)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (sm.energy(state + e, PARAMS) - sm.energy(state - e, PARAMS)) / (2 * h)
            assert abs(grad[j] - fd) < 1e-6 * max(1.0, abs(fd))


def test_rk4_equilibrium_fixed_point():
    eq = PARAMS.equilibrium()
    assert np.allclose(sm.rk4_step(eq, PARAMS, 0.1), eq)


def test_rk4_convergence_order():
    # Richardson ratios against a much finer reference integration
    rng = np.random.default_rng(2)
    horizon = 0.8
    for _ in range(5):
        state = sm.sample_state(PARAMS, 5.0, rng)
        ref = sm.integrate(state, PARAMS, horizon, 3200)
        err = [
            np.linalg.norm(sm.integrate(state, PARAMS, horizon, n) - ref)
            for n in (8, 16, 32)
        ]
        for coarse, fine in zip(err[:-1], err[1:]):
            order = np.log2(coarse / fine)
            assert 3.8 <= order <= 4.2


def test_rk4_ten_second_energy_drift():
    e0 = sm.energy(PAPER_IC, PARAMS)
    state = PAPER_IC.copy()
    drift = 0.0
    for _ in range(100):  # 100 x 100 steps of dt = 1e-3
        state = sm.integrate(state, PARAMS, 0.1, 100)
        drift = max(drift, abs(sm.energy(state, PARAMS) - e0))
    assert drift < 1e-6


def test_integrate_single_substep_equals_rk4_step():
    state = PAPER_IC
    assert np.array_equal(sm.integrate(state, PARAMS, 0.05, 1), sm.rk4_step(state, PARAMS, 0.05))


def test_integrate_substep_convergence():
    a = sm.integrate(PAPER_IC, PARAMS, 0.05, 50)
    b = sm.integrate(PAPER_IC, PARAMS, 0.05, 500)
    assert np.linalg.norm(a - b) < 1e-9


def test_sample_states_respect_energy_threshold():
    rng = np.random.default_rng(3)
    states = sm.sample_states(PARAMS, 5.0, 2000, rng)
    assert np.all(sm.energy(states, PARAMS) < 5.0)


@pytest.mark.parametrize("e_max", [0.0, -1.0, np.inf, np.nan])
def test_sample_states_rejects_energy_budgets_that_are_not_positive_and_finite(e_max):
    with pytest.raises(ValidationError, match="e_max"):
        sm.sample_states(PARAMS, e_max, 5, np.random.default_rng(0))


def test_sampling_acceptance_rate():
    # box-to-ellipsoid volume ratio is pi^2/32 ~ 0.308 for any parameters
    rng = np.random.default_rng(4)
    e_max = 5.0
    q1 = rng.uniform(-1, 1, 10000) * np.sqrt(2 * e_max / PARAMS.k1)
    v1 = rng.uniform(-1, 1, 10000) * np.sqrt(2 * e_max / PARAMS.m1)
    q2 = rng.uniform(-1, 1, 10000) * np.sqrt(2 * e_max / PARAMS.k2)
    v2 = rng.uniform(-1, 1, 10000) * np.sqrt(2 * e_max / PARAMS.m2)
    box = np.stack([PARAMS.L1 + q1, v1, PARAMS.L1 + q1 + PARAMS.L2 + q2, v2], axis=-1)
    rate = np.mean(sm.energy(box, PARAMS) < e_max)
    assert 0.05 < rate < 0.5
    assert abs(rate - np.pi**2 / 32.0) < 0.02


def test_sampling_deterministic():
    a = sm.sample_states(PARAMS, 5.0, 50, np.random.default_rng(7))
    b = sm.sample_states(PARAMS, 5.0, 50, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_generate_dataset_targets_conserve_energy():
    inputs, targets = sm.generate_dataset(PARAMS, 5.0, 500, 0.05, 50, seed=0)
    assert np.all(sm.energy(inputs, PARAMS) < 5.0)
    assert np.all(sm.energy(targets, PARAMS) < 5.0 + 1e-6)
    assert np.allclose(sm.energy(inputs, PARAMS), sm.energy(targets, PARAMS), atol=1e-9)


def test_generate_dataset_deterministic_and_consistent():
    a = sm.generate_dataset(PARAMS, 5.0, 20, 0.05, 50, seed=9)
    b = sm.generate_dataset(PARAMS, 5.0, 20, 0.05, 50, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    # targets really are the integrated inputs
    assert np.allclose(a[1], sm.integrate(a[0], PARAMS, 0.05, 50))


def _state_spec():
    inputs, _ = sm.generate_dataset(PARAMS, 5.0, 400, 0.05, 10, seed=1)
    return fit_transform(inputs, sm.STATE_NAMES, skew_threshold=np.inf)


def test_rollout_with_exact_model_tracks_ground_truth():
    from physproj.constraints import denormalize

    spec = _state_spec()

    def oracle(z):
        return normalize(sm.integrate(denormalize(z, spec), PARAMS, 0.05, 50), spec)

    result = sm.rollout(oracle, PAPER_IC[None], 20, spec, params=PARAMS)
    truth = sm.true_trajectory(PAPER_IC, PARAMS, 20, 0.05, 50)
    assert result.states.shape == (21, 1, 4)
    assert result.energies.shape == (21, 1)
    assert np.allclose(result.states[:, 0], truth, atol=1e-9)
    assert result.failed_step.tolist() == [0] and result.failed_status.tolist() == [""]
    result.raise_failure()  # nothing failed, so nothing is raised


@pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 1, 4)])
def test_rollout_takes_only_a_batch_of_states(shape):
    with pytest.raises(ValidationError, match=r"\(n, 4\)"):
        sm.rollout(lambda z: z, np.zeros(shape), 3, _state_spec(), params=PARAMS)


def test_rollout_with_projector_pins_energy():
    from physproj.constraints import EnergyConstraint
    from physproj.nn import forward, xavier_init
    from physproj.projector import ProjectionSpec, project_batch

    spec = _state_spec()
    net = xavier_init([4, 8, 8, 4], seed=0)  # untrained: wild predictions
    anchor = sm.energy(PAPER_IC, PARAMS)
    constraint = EnergyConstraint(PARAMS, anchor, spec)
    pspec = ProjectionSpec(tolerance=1e-6)
    result = sm.rollout(
        lambda z: forward(net, z),
        PAPER_IC[None],
        30,
        spec,
        projector=lambda ys, active: project_batch(ys, constraint, None, pspec),
        params=PARAMS,
    )
    scale = max(anchor, 1.0)
    assert result.failed_step[0] == 0
    assert np.max(np.abs(result.energies[1:, 0] - anchor)) <= 1e-6 * scale


def test_rollout_surfaces_projection_failure_step():
    from physproj.projector import ProjectionResult

    spec = _state_spec()

    def failing_projector(ys, active):
        return [
            ProjectionResult(projected=y, multipliers=np.zeros(1), iterations=0, kkt_norm=np.inf, status="max_iterations")
            for y in ys
        ]

    result = sm.rollout(lambda z: z, PAPER_IC[None], 5, spec, projector=failing_projector, params=PARAMS)
    assert np.all(np.isnan(result.states[1:]))
    with pytest.raises(ProjectionError, match="projection failed at rollout step 1 with status 'max_iterations'") as err:
        result.raise_failure()
    assert err.value.step == 1
    assert err.value.status == "max_iterations"


def test_rollout_reports_a_nonfinite_prediction_as_nonfinite_input():
    from physproj.constraints import EnergyConstraint
    from physproj.projector import ProjectionSpec, project_batch

    spec = _state_spec()
    constraint = EnergyConstraint(PARAMS, None, spec)
    anchors = sm.energy(PAPER_IC[None], PARAMS)[:, None]
    result = sm.rollout(
        lambda z: np.full_like(z, np.nan),
        PAPER_IC[None],
        5,
        spec,
        projector=lambda ys, active: project_batch(ys, constraint, anchors[active], ProjectionSpec()),
        params=PARAMS,
    )
    with pytest.raises(ProjectionError, match="rollout step 1 with status 'nonfinite_input'") as err:
        result.raise_failure()
    assert err.value.step == 1
    assert err.value.status == "nonfinite_input"


def test_lockstep_rollout_equals_single_state_rollouts_including_a_failure():
    from physproj.constraints import EnergyConstraint, denormalize
    from physproj.projector import project_batch, ProjectionSpec

    spec = _state_spec()
    rng = np.random.default_rng(5)
    states = sm.sample_states(PARAMS, 4.0, 6, rng)
    anchors = sm.energy(states, PARAMS)

    def drifting(z):  # exact dynamics, then a 2% error that leaves the energy shell
        return normalize(1.02 * sm.integrate(denormalize(z, spec), PARAMS, 0.05, 10), spec)

    # a wall in x1 between the two trajectories that reach farthest, so one run trips it mid-way
    reach = np.sort(sm.true_trajectory(states, PARAMS, 12, 0.05, 10)[:, :, 0].max(axis=0))
    wall = normalize(np.array([0.5 * (reach[-1] + reach[-2]), 0.0, 0.0, 0.0]), spec)[0]

    class Walled(EnergyConstraint):
        def _residual(self, x, p):
            if np.any(p[:, 0] > wall):
                raise ValidationError("beyond the wall")
            return super()._residual(x, p)

    constraint = Walled(PARAMS, None, spec)
    pspec = ProjectionSpec(tolerance=1e-8)

    def run(batch_states, batch_anchors):
        projector = lambda ys, active: project_batch(ys, constraint, batch_anchors[active, None], pspec)
        return sm.rollout(drifting, batch_states, 12, spec, projector=projector, params=PARAMS)

    batch = run(states, anchors)
    assert batch.states.shape == (13, 6, 4) and batch.energies.shape == (13, 6)
    for t in range(6):
        alone = run(states[t : t + 1], anchors[t : t + 1])
        assert (alone.failed_step[0], alone.failed_status[0]) == (batch.failed_step[t], batch.failed_status[t])
        assert alone.states[:, 0].tobytes() == batch.states[:, t].tobytes()
        assert alone.energies[:, 0].tobytes() == batch.energies[:, t].tobytes()
    failed = np.flatnonzero(batch.failed_step)
    assert len(failed) == 1 and batch.failed_step[failed[0]] > 1
    assert batch.failed_status[failed[0]] == "singular_system"
    assert np.all(np.isnan(batch.states[batch.failed_step[failed[0]] :, failed[0]]))
    with pytest.raises(ProjectionError) as err:
        run(states[failed], anchors[failed]).raise_failure()
    assert (err.value.step, err.value.status) == (batch.failed_step[failed[0]], "singular_system")
