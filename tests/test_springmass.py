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

    result = sm.rollout(oracle, PAPER_IC, 20, spec, params=PARAMS)
    truth = sm.true_trajectory(PAPER_IC, PARAMS, 20, 0.05, 50)
    assert np.allclose(result.states, truth, atol=1e-9)
    assert result.states.shape == (21, 4)
    assert result.energies.shape == (21,)


def test_rollout_with_projector_pins_energy():
    from physproj.constraints import EnergyConstraint
    from physproj.nn import forward, xavier_init
    from physproj.projector import ProjectionSpec, project

    spec = _state_spec()
    net = xavier_init([4, 8, 8, 4], seed=0)  # untrained: wild predictions
    anchor = sm.energy(PAPER_IC, PARAMS)
    constraint = EnergyConstraint(PARAMS, anchor, spec)
    pspec = ProjectionSpec(tolerance=1e-6)
    result = sm.rollout(
        lambda z: forward(net, z),
        PAPER_IC,
        30,
        spec,
        projector=lambda y: project(y, constraint, None, pspec),
        params=PARAMS,
    )
    scale = max(anchor, 1.0)
    assert np.max(np.abs(result.energies[1:] - anchor)) <= 1e-6 * scale


def test_rollout_surfaces_projection_failure_step():
    from physproj.projector import ProjectionResult

    spec = _state_spec()

    def failing_projector(y):
        return ProjectionResult(projected=y, multipliers=np.zeros(1), iterations=0, kkt_norm=np.inf, status="max_iterations")

    with pytest.raises(ProjectionError) as err:
        sm.rollout(lambda z: z, PAPER_IC, 5, spec, projector=failing_projector, params=PARAMS)
    assert err.value.step == 1
    assert err.value.status == "max_iterations"


def test_lockstep_rollout_equals_single_state_rollouts_including_a_failure():
    from physproj.constraints import EnergyConstraint, denormalize
    from physproj.errors import ValidationError
    from physproj.projector import project, project_batch, ProjectionSpec

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
    batch = sm.rollout(
        drifting, states, 12, spec, projector=lambda ys, active: project_batch(ys, constraint, anchors[active, None], pspec), params=PARAMS
    )
    assert batch.states.shape == (13, 6, 4) and batch.energies.shape == (13, 6)
    for t in range(6):
        projector = lambda y, t=t: project(y, constraint, [anchors[t]], pspec)
        try:
            single = sm.rollout(drifting, states[t], 12, spec, projector=projector, params=PARAMS)
        except ProjectionError as exc:
            assert (batch.failed_step[t], batch.failed_status[t]) == (exc.step, exc.status)
            assert np.all(np.isnan(batch.states[exc.step :, t]))
            continue
        assert batch.failed_step[t] == 0
        assert np.array_equal(batch.states[:, t], single.states)
        assert np.array_equal(batch.energies[:, t], single.energies)
    failed = np.flatnonzero(batch.failed_step)
    assert len(failed) == 1 and batch.failed_step[failed[0]] > 1
    assert batch.failed_status[failed[0]] == "singular_system"
