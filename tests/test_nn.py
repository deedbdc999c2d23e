import pickle
from dataclasses import replace

import numpy as np
import pytest

from physproj import springmass as sm
from physproj.constraints import INPUT_NAMES, OUTPUT_NAMES, LtpConstraints, LtpSchema, denormalize, fit_transform, normalize
from physproj.constraints.transform import jacobian_diag_from_physical
from physproj.constraints.ltp import generate_synthetic_ltp
from physproj.errors import TrainingDivergedError, ValidationError
from physproj.nn import (
    AdamState,
    EarlyStopConfig,
    LtpResidualTerm,
    Network,
    PlateauConfig,
    SpringEnergyTerm,
    TrainConfig,
    TrainHistory,
    adam_step,
    backward,
    forward,
    forward_cached,
    load_network,
    mse,
    mse_gradient,
    plateau_lr,
    pq_alpha_should_stop,
    save_network,
    train,
    xavier_init,
)
from physproj.nn.network import _forward_into, _layer_arrays


# ---------------------------------------------------------------------------
# initialization


def test_xavier_shapes_match_paper_architecture():
    net = xavier_init([4, 22, 98, 9, 4], seed=7)
    assert [w.shape for w in net.weights] == [(22, 4), (98, 22), (9, 98), (4, 9)]
    assert [b.shape for b in net.biases] == [(22,), (98,), (9,), (4,)]
    assert all(np.all(b == 0.0) for b in net.biases)


def test_xavier_respects_bound_per_layer():
    net = xavier_init([5, 13, 3], seed=1)
    for w, (fan_in, fan_out) in zip(net.weights, [(5, 13), (13, 3)]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)


def test_xavier_single_weight_bound_is_sqrt3():
    for seed in range(20):
        net = xavier_init([1, 1], seed=seed)
        assert abs(net.weights[0][0, 0]) <= np.sqrt(3.0)
        assert net.biases[0][0] == 0.0


def test_xavier_deterministic():
    a = xavier_init([3, 7, 2], seed=42)
    b = xavier_init([3, 7, 2], seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_xavier_rejects_bad_dims():
    with pytest.raises(ValidationError):
        xavier_init([4], seed=0)
    with pytest.raises(ValidationError):
        xavier_init([4, 0, 2], seed=0)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_network_outputs_zero():
    net = xavier_init([3, 5, 2], seed=0)
    net = net.with_parameters([np.zeros_like(p) for p in net.parameters()])
    out = forward(net, np.ones((4, 3)))
    assert np.all(out == 0.0)


def test_forward_single_affine_layer():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    net = Network(layer_dims=(3, 2), weights=[w], biases=[b])
    x = rng.normal(size=3)
    assert np.allclose(forward(net, x), w @ x + b)


def test_forward_matches_hand_rolled_evaluation():
    # independent oracle: explicit per-layer matrix arithmetic
    rng = np.random.default_rng(1)
    net = xavier_init([4, 6, 5, 3], seed=3)
    x = rng.normal(size=(8, 4))
    a = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = np.where(z > 0, z, 0.01 * z) if i < 2 else z
    assert np.allclose(forward(net, x), a, atol=1e-12)


def test_forward_into_reused_arrays_equals_forward_bit_for_bit():
    """The layer loop that train's validation pass runs on arrays made once gives forward's
    bits at every row count, also when the arrays still hold another call's rows."""
    net = xavier_init((4, 22, 98, 9, 4), seed=3)
    x = np.random.default_rng(3).normal(size=(2000, 4))
    pre, hidden = _layer_arrays(net, 2000)
    for n in (2000, 1, 300, 64, 2000, 1, 64):
        rows = ([z[:n] for z in pre], [a[:n] for a in hidden])
        out = _forward_into(net, x[:n], *rows)
        cache = forward_cached(net, x[:n])
        assert out.tobytes() == forward(net, x[:n]).tobytes() == cache.output.tobytes()
        for mine, fresh in zip(rows[0] + rows[1], cache.pre_activations + cache.hidden[1:]):
            assert mine.tobytes() == fresh.tobytes()


def test_forward_rejects_width_mismatch():
    net = xavier_init([4, 3], seed=0)
    with pytest.raises(ValidationError):
        forward(net, np.ones(5))


# ---------------------------------------------------------------------------
# losses


def test_mse_values():
    assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0
    assert mse(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)
    with pytest.raises(ValidationError):
        mse(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_output_grad_gives_zero_grads():
    net = xavier_init([3, 4, 2], seed=0)
    cache = forward_cached(net, np.ones((5, 3)))
    grads = backward(net, cache, np.zeros((5, 2)))
    assert all(np.all(g == 0.0) for g in grads)


def test_backward_single_affine_layer_closed_form():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    net = Network(layer_dims=(3, 2), weights=[w], biases=[b])
    x = rng.normal(size=(1, 3))
    t = rng.normal(size=(1, 2))
    cache = forward_cached(net, x)
    grads = backward(net, cache, mse_gradient(cache.output, t))
    resid = (w @ x[0] + b - t[0])  # closed form: dL/dW = 2 r x^T / n_elems
    assert np.allclose(grads[0], 2.0 * np.outer(resid, x[0]) / t.size, atol=1e-12)
    assert np.allclose(grads[1], 2.0 * resid / t.size, atol=1e-12)


def _fd_loss_grads(net, x, t, h=1e-6):
    """Central finite differences of the MSE loss w.r.t. every parameter."""
    params = net.parameters()
    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = mse(forward(net.with_parameters(params), x), t)
            flat[j] = orig - h
            lm = mse(forward(net.with_parameters(params), x), t)
            flat[j] = orig
            g.ravel()[j] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


@pytest.mark.parametrize("dims,seed", [((3, 5, 2), 0), ((2, 4, 4, 3), 1), ((4, 6, 5, 4, 2), 5)])
def test_backward_matches_finite_differences(dims, seed):
    rng = np.random.default_rng(seed)
    net = xavier_init(dims, seed=seed)
    x = rng.normal(size=(6, dims[0]))
    t = rng.normal(size=(6, dims[-1]))
    cache = forward_cached(net, x)
    # finite differences are only valid away from the activation kink
    assert all(np.abs(z).min() > 1e-4 for z in cache.pre_activations[:-1])
    analytic = backward(net, cache, mse_gradient(cache.output, t))
    numeric = _fd_loss_grads(net, x, t)
    for a, n in zip(analytic, numeric):
        err = np.maximum(np.abs(a - n) - 1e-9, 0.0)  # FD cancellation noise floor
        rel = err / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        assert rel.max() < 1e-5


def test_backward_rejects_stale_cache():
    net = xavier_init([3, 4, 2], seed=0)
    other = xavier_init([3, 5, 2], seed=0)
    cache = forward_cached(other, np.ones((2, 3)))
    with pytest.raises(ValidationError):
        backward(net, cache, np.zeros((2, 2)))


def test_backward_rejects_an_output_grad_for_another_batch():
    net = xavier_init([3, 4, 2], seed=0)
    cache = forward_cached(net, np.ones((5, 3)))
    with pytest.raises(ValidationError, match="output_grad"):
        backward(net, cache, np.zeros((4, 2)))
    with pytest.raises(ValidationError, match="output_grad"):
        backward(net, cache, np.zeros(2))  # one row's gradient against a 5-row cache


def test_backward_into_given_views_equals_a_fresh_call():
    net = xavier_init([3, 6, 5, 2], seed=9)
    x, t = np.random.default_rng(9).normal(size=(7, 3)), np.random.default_rng(10).normal(size=(7, 2))
    cache = forward_cached(net, x)
    out_grad = mse_gradient(cache.output, t)
    buffer = np.full_like(net.theta, np.nan)
    views = net.views(buffer)
    returned = backward(net, cache, out_grad, out=views)
    assert returned is views
    assert buffer.tobytes() == backward(net, cache, out_grad)[0].base.tobytes()

    other = xavier_init([3, 5, 5, 2], seed=9)
    with pytest.raises(ValidationError):
        backward(net, forward_cached(other, x), out_grad, out=views)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_params():
    theta = np.array([1.0, -2.0, 0.5])
    state = AdamState.initialize(theta)
    adam_step(theta, np.zeros(3), state, 0.01)
    assert np.array_equal(theta, [1.0, -2.0, 0.5])
    assert state.t == 1


def test_adam_first_step_bias_corrected():
    theta = np.array([0.0])
    adam_step(theta, np.array([1.0]), AdamState.initialize(theta), 0.001)
    assert abs(theta[0] + 0.001) < 1e-5


def test_adam_deterministic():
    a, b = np.array([0.3, -0.7]), np.array([0.3, -0.7])
    grad = np.array([0.1, 0.2])
    sa, sb = AdamState.initialize(a), AdamState.initialize(b)
    adam_step(a, grad, sa, 0.01)
    adam_step(b, grad, sb, 0.01)
    assert np.array_equal(a, b)
    assert np.array_equal(sa.m, sb.m)


def test_adam_states_keep_their_own_buffers():
    rng = np.random.default_rng(11)
    grads = rng.normal(size=(2, 4, 6))  # per state, per step
    alone = []
    for k in range(2):
        theta = np.linspace(-1.0, 1.0, 6)
        state = AdamState.initialize(theta)
        for g in grads[k]:
            adam_step(theta, g, state, 0.05)
        alone.append((theta, state))
    thetas = [np.linspace(-1.0, 1.0, 6) for _ in range(2)]
    states = [AdamState.initialize(theta) for theta in thetas]
    for step in range(4):
        for k in (1, 0):
            adam_step(thetas[k], grads[k][step], states[k], 0.05)
    for k in range(2):
        assert thetas[k].tobytes() == alone[k][0].tobytes()
        assert states[k].m.tobytes() == alone[k][1].m.tobytes() and states[k].v.tobytes() == alone[k][1].v.tobytes()
    assert not np.shares_memory(states[0].scratch, states[1].scratch)


def test_adam_rejects_nonfinite_gradients():
    theta = np.array([0.0])
    with pytest.raises(TrainingDivergedError):
        adam_step(theta, np.array([np.nan]), AdamState.initialize(theta), 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_nonfinite_gradient_leaves_the_parameters_and_state_untouched(bad):
    rng = np.random.default_rng(8)
    theta = rng.normal(size=50)
    state = AdamState.initialize(theta)
    for _ in range(3):
        adam_step(theta, rng.normal(size=50), state, 0.01)
    before = theta.copy(), state.m.copy(), state.v.copy(), state.t
    grad = rng.normal(size=50)
    grad[17] = bad
    with pytest.raises(TrainingDivergedError, match="non-finite gradient"):
        adam_step(theta, grad, state, 0.01)
    assert theta.tobytes() == before[0].tobytes()
    assert state.m.tobytes() == before[1].tobytes() and state.v.tobytes() == before[2].tobytes()
    assert state.t == before[3]


def test_adam_takes_a_finite_gradient_whose_sum_overflows():
    theta = np.zeros(2)
    state = AdamState.initialize(theta)
    with np.errstate(over="ignore"):  # the sum is inf, and so is each entry's square in the update
        adam_step(theta, np.array([1e308, 1e308]), state, 0.01)
    assert state.t == 1 and np.isfinite(theta).all() and np.isfinite(state.m).all()


# ---------------------------------------------------------------------------
# physics losses


def _spring_setup():
    params = sm.SpringParams()
    inputs, _ = sm.generate_dataset(params, 5.0, 300, 0.05, 10, seed=0)
    spec = fit_transform(inputs, sm.STATE_NAMES, skew_threshold=np.inf)
    return params, spec


def test_physics_loss_springmass_identity_is_zero():
    params, spec = _spring_setup()
    term = SpringEnergyTerm(params, spec, weight=1.0)
    batch = normalize(sm.sample_states(params, 5.0, 10, np.random.default_rng(1)), spec)
    assert term.loss_and_output_grad(term.inputs(batch), batch)[0] == 0.0


def test_physics_loss_springmass_single_sample():
    # energies 3.5 J in, 3.0 J out (kinetic only, springs at rest length) -> squared gap 0.25
    params, spec = _spring_setup()
    term = SpringEnergyTerm(params, spec, weight=1.0)
    state_in = np.array([[0.5, np.sqrt(7.0), 1.0, 0.0]])
    state_out = np.array([[0.5, np.sqrt(6.0), 1.0, 0.0]])
    loss, _ = term.loss_and_output_grad(term.inputs(normalize(state_in, spec)), normalize(state_out, spec))
    assert loss == pytest.approx(0.25)


def test_physics_loss_springmass_rk4_next_state_conserves():
    params, spec = _spring_setup()
    term = SpringEnergyTerm(params, spec, weight=1.0)
    ic = np.array([[-0.16, -2.18, 0.09, -0.16]])
    nxt = sm.integrate(ic, params, 0.05, 50)
    loss, _ = term.loss_and_output_grad(term.inputs(normalize(ic, spec)), normalize(nxt, spec))
    assert loss < 1e-9


def test_spring_energy_term_gradient_matches_fd():
    params, spec = _spring_setup()
    term = SpringEnergyTerm(params, spec, weight=0.4)
    rng = np.random.default_rng(3)
    e_in = term.inputs(rng.uniform(-0.8, 0.8, size=(5, 4)))
    y = rng.uniform(-0.8, 0.8, size=(5, 4))
    _, grad = term.loss_and_output_grad(e_in, y)
    h = 1e-6
    for i in range(5):
        for j in range(4):
            yp, ym = y.copy(), y.copy()
            yp[i, j] += h
            ym[i, j] -= h
            fd = (term.loss_and_output_grad(e_in, yp)[0] - term.loss_and_output_grad(e_in, ym)[0]) / (2 * h)
            assert abs(grad[i, j] - fd) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("log_flagged", [False, True], ids=["linear", "log-flagged"])
def test_spring_energy_term_equals_the_energy_law_calls_bit_for_bit(log_flagged):
    params, spec = _spring_setup()
    if log_flagged:  # x2 scaled in log10 space, where it stays positive
        flags = np.array([False, False, True, False])
        spec = replace(spec, mins=np.where(flags, -1.0, spec.mins), maxs=np.where(flags, 0.5, spec.maxs), log_flags=flags)
    term = SpringEnergyTerm(params, spec, weight=0.4)
    rng = np.random.default_rng(6)
    e_in = term.inputs(rng.uniform(-0.8, 0.8, size=(64, 4)))
    y = rng.uniform(-0.8, 0.8, size=(64, 4))
    y_phys = denormalize(y, spec)
    diff = sm.energy(y_phys, params) - e_in
    grad = 0.4 * (2.0 / diff.size) * diff[:, None] * sm.energy_and_gradient(y_phys, params)[1] * jacobian_diag_from_physical(y_phys, spec)
    loss, got = term.loss_and_output_grad(e_in, y)
    assert loss == 0.4 * float(np.mean(diff**2))
    assert np.array_equal(got, grad)


def test_physics_loss_equals_the_loss_of_loss_and_output_grad():
    params, spec = _spring_setup()
    rng = np.random.default_rng(8)
    spring = SpringEnergyTerm(params, spec, weight=0.4)
    x, y, in_spec, out_spec, cs = _ltp_setup()
    ltp = LtpResidualTerm(cs, in_spec, 0.035)
    cases = [
        (spring, spring.inputs(rng.uniform(-0.8, 0.8, (30, 4))), rng.uniform(-0.8, 0.8, (30, 4))),
        (ltp, ltp.inputs(normalize(x[:30], in_spec)), normalize(y[:30], out_spec) + rng.normal(0.0, 0.1, (30, 17))),
    ]
    for term, inputs, y_norm in cases:
        for rows in (slice(None), slice(3, 4)):
            assert term.loss(inputs[rows], y_norm[rows]) == term.loss_and_output_grad(inputs[rows], y_norm[rows])[0]


def _ltp_setup(n=200, seed=0):
    x, y = generate_synthetic_ltp(n, seed)
    in_spec = fit_transform(x, INPUT_NAMES, skew_threshold=np.inf)
    out_spec = fit_transform(y, OUTPUT_NAMES, skew_threshold=2.0)
    return x, y, in_spec, out_spec, LtpConstraints(LtpSchema(), out_spec)


def test_physics_loss_ltp_zero_on_consistent_data():
    x, y, in_spec, out_spec, cs = _ltp_setup()
    term = LtpResidualTerm(cs, in_spec, 0.015)
    loss, _ = term.loss_and_output_grad(term.inputs(normalize(x[:20], in_spec)), normalize(y[:20], out_spec))
    assert loss < 1e-25


def test_physics_loss_ltp_zero_lambdas():
    x, y, in_spec, out_spec, cs = _ltp_setup()
    term = LtpResidualTerm(cs, in_spec, 0.0)
    bad = normalize(y[:10], out_spec) + 0.3
    assert term.loss_and_output_grad(term.inputs(normalize(x[:10], in_spec)), bad)[0] == 0.0


def test_physics_loss_ltp_weighted_sum_arithmetic():
    # perturb O2_X so the scaled pressure residual is exactly 0.1
    x, y, in_spec, out_spec, cs = _ltp_setup()
    schema = LtpSchema()
    sample = y[0].copy()
    from physproj.constraints import K_BOLTZMANN

    heavy = schema.heavy_indices()
    target_sum = 0.9 * x[0, 0] / (K_BOLTZMANN * sample[schema.idx("Tg")])
    sample[schema.idx("O2_X")] += target_sum - sample[heavy].sum()
    z = normalize(sample[None, :], out_spec)
    r = cs.residual(x[:1], z)[0]
    assert abs(r[0] - 0.1) < 1e-9 and abs(r[1]) < 1e-12 and abs(r[2]) < 1e-9
    # the weight is split evenly over the laws: 0.015 / 3 over all three, 0.005 on the pressure law alone
    for laws, weight in (((0, 1, 2), 0.015), ((0,), 0.005)):
        term = LtpResidualTerm(LtpConstraints(schema, out_spec, laws), in_spec, weight)
        loss, _ = term.loss_and_output_grad(term.inputs(normalize(x[:1], in_spec)), z)
        assert loss == pytest.approx(5e-5, rel=1e-6)


def test_ltp_residual_term_gradient_matches_fd():
    x, y, in_spec, out_spec, cs = _ltp_setup()
    term = LtpResidualTerm(cs, in_spec, 0.015)
    rng = np.random.default_rng(4)
    x_phys = term.inputs(normalize(x[:4], in_spec))
    yn = normalize(y[:4], out_spec) + rng.normal(0, 0.05, size=(4, 17))
    _, grad = term.loss_and_output_grad(x_phys, yn)
    h = 1e-6
    rel_err = 0.0
    for i in range(4):
        for j in range(17):
            yp, ym = yn.copy(), yn.copy()
            yp[i, j] += h
            ym[i, j] -= h
            fd = (term.loss_and_output_grad(x_phys, yp)[0] - term.loss_and_output_grad(x_phys, ym)[0]) / (2 * h)
            denom = max(abs(grad[i, j]), abs(fd), 1e-7)
            rel_err = max(rel_err, abs(grad[i, j] - fd) / denom)
    assert rel_err < 1e-5


def test_overflowing_log_flagged_output_is_rejected():
    # denormalize raises on a non-finite result; the constraint calls and the PINN term rely on it
    x, y, in_spec, out_spec, cs = _ltp_setup()
    term = LtpResidualTerm(cs, in_spec, 0.015)
    assert out_spec.log_flags.any()
    z = normalize(y[:3], out_spec)
    z[1, np.flatnonzero(out_spec.log_flags)[0]] = 1e6
    x_phys = term.inputs(normalize(x[:3], in_spec))
    for call in (cs.residual, cs.jacobian, cs.residual_and_jacobian, term.loss_and_output_grad):
        with pytest.raises(ValidationError, match="overflowed"):
            call(x_phys, z)


# ---------------------------------------------------------------------------
# schedules


def test_pq_alpha_improving_validation_never_stops():
    tr = np.linspace(1.0, 0.1, 30)
    va = np.linspace(1.1, 0.2, 30)
    assert not pq_alpha_should_stop(tr, va, alpha=2.0, strip_length=5)


def test_pq_alpha_flat_strip_with_rising_validation_stops():
    tr = [1.0] * 10
    va = [0.5, 0.4, 0.35, 0.36, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7]
    assert pq_alpha_should_stop(tr, va, alpha=2.0, strip_length=5)


def test_pq_alpha_ratio_threshold():
    # strip sums to 5.005 with min 1 -> progress P_5 = 1; validation 5% above
    # its optimum -> GL = 5; ratio 5 stops for alpha=3, not for alpha=10
    tr = [2.0, 2.0, 1.00125, 1.00125, 1.00125, 1.00125, 1.0]
    va = [1.0, 0.8, 0.85, 0.85, 0.85, 0.85, 0.84]
    strip = np.array(tr[-5:])
    assert abs(1000.0 * (strip.sum() / (5 * strip.min()) - 1.0) - 1.0) < 1e-9
    assert abs(100.0 * (va[-1] / min(va) - 1.0) - 5.0) < 1e-9
    assert pq_alpha_should_stop(tr, va, alpha=3.0, strip_length=5)
    assert not pq_alpha_should_stop(tr, va, alpha=10.0, strip_length=5)


def test_pq_alpha_short_history_and_divergence():
    assert not pq_alpha_should_stop([1.0, 0.9], [1.0, 0.9], alpha=2.0, strip_length=5)
    with pytest.raises(TrainingDivergedError):
        pq_alpha_should_stop([1.0, np.nan, 1.0, 1.0, 1.0], [1.0] * 5, alpha=2.0, strip_length=5)


def test_plateau_lr_improving_history_unchanged():
    va = np.linspace(1.0, 0.5, 20)
    assert plateau_lr(va, patience=10, factor=0.1, current_lr=1e-3) == 1e-3


def test_plateau_lr_flat_history_reduces_by_factor():
    va = [0.5] * 11  # patience + 1
    assert plateau_lr(va, patience=10, factor=0.1, current_lr=1e-3) == pytest.approx(1e-4)


def test_plateau_lr_two_consecutive_plateaus_compound():
    va = [0.5] * 11
    lr = plateau_lr(va, patience=10, factor=0.1, current_lr=1e-3)
    # the trainer passes the history slice since the last reduction
    lr = plateau_lr([0.5] * 11, patience=10, factor=0.1, current_lr=lr)
    assert lr == pytest.approx(1e-5)


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_epochs_returns_initial_network():
    net = xavier_init([1, 3, 1], seed=0)
    x = np.linspace(-1, 1, 20)[:, None]
    trained, history = train(net, (x, 2 * x), None, TrainConfig(max_epochs=0))
    assert history.n_epochs() == 0
    assert trained.theta.tobytes() == net.theta.tobytes()
    assert not np.shares_memory(trained.theta, net.theta)
    for a, b in zip(net.parameters(), trained.parameters()):
        assert np.array_equal(a, b)


def test_train_empty_training_set_rejected():
    net = xavier_init([1, 1], seed=0)
    with pytest.raises(ValidationError):
        train(net, (np.zeros((0, 1)), np.zeros((0, 1))), None, TrainConfig(max_epochs=1))


def test_train_recovers_affine_map():
    # least-squares oracle: noiseless y = 2x + 1 has exact solution (2, 1)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(100, 1))
    y = 2.0 * x + 1.0
    net = Network(layer_dims=(1, 1), weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    cfg = TrainConfig(learning_rate=0.05, max_epochs=2000, batch_size=len(x), seed=1)
    trained, _ = train(net, (x, y), None, cfg)
    assert abs(trained.weights[0][0, 0] - 2.0) < 1e-2
    assert abs(trained.biases[0][0] - 1.0) < 1e-2


def test_train_returned_model_no_worse_than_initial_on_validation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 3))
    y = rng.normal(size=(80, 2))
    net = xavier_init([3, 6, 2], seed=5)
    val = (x[60:], y[60:])
    initial = mse(forward(net, val[0]), val[1])
    trained, _ = train(net, (x[:60], y[:60]), val, TrainConfig(learning_rate=1e-3, max_epochs=5, seed=5))
    assert mse(forward(trained, val[0]), val[1]) <= initial


def test_train_deterministic_bit_for_bit():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=(50, 1))
    cfg = TrainConfig(learning_rate=1e-3, max_epochs=4, batch_size=16, seed=9)
    a, _ = train(xavier_init([2, 4, 1], seed=9), (x[:40], y[:40]), (x[40:], y[40:]), cfg)
    b, _ = train(xavier_init([2, 4, 1], seed=9), (x[:40], y[:40]), (x[40:], y[40:]), cfg)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def test_train_divergence_detected():
    x = np.array([[np.inf]])
    y = np.array([[0.0]])
    net = xavier_init([1, 1], seed=0)
    with pytest.raises(TrainingDivergedError):
        train(net, (x, y), None, TrainConfig(max_epochs=1))


def test_train_validates_lambda_split():
    params, spec = _spring_setup()
    x = normalize(sm.sample_states(params, 5.0, 10, np.random.default_rng(0)), spec)
    for weight in (1.5, -0.1, np.nan):
        with pytest.raises(ValidationError, match="weight"):
            train(xavier_init([4, 4], seed=0), (x, x), None, TrainConfig(max_epochs=0), SpringEnergyTerm(params, spec, weight))
    for lr in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    for batch_size in (0, -3):
        with pytest.raises(ValidationError, match="batch_size"):
            TrainConfig(batch_size=batch_size)


def test_train_config_rejects_bad_max_epochs():
    for max_epochs in (-1, 2.5, True, np.float64(3.0)):
        with pytest.raises(ValidationError, match="max_epochs"):
            TrainConfig(max_epochs=max_epochs)
    assert TrainConfig(max_epochs=np.int64(3)).max_epochs == 3


@pytest.mark.parametrize(
    "val_x_shape, val_y_shape",
    [((10, 3), (10, 2)), ((10, 2), (10, 1)), ((10, 2), (12, 2))],
    ids=["input_width", "target_width", "row_count"],
)
def test_train_rejects_a_validation_set_of_the_wrong_shape(val_x_shape, val_y_shape):
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
    val = rng.normal(size=val_x_shape), rng.normal(size=val_y_shape)
    with pytest.raises(ValidationError, match="validation"):
        train(xavier_init([2, 4, 2], seed=0), (x, y), val, TrainConfig(max_epochs=1))


def _seed_train(net, train_set, val_set, config, physics):
    """The training loop as first written, for the bit-for-bit comparison:
    physics inputs recomputed per batch, mse and mse_gradient, the
    per-parameter backward list and Adam on their np.concatenate."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lam = physics.weight if physics is not None else 0.0
    x, y = train_set
    n = len(x)
    batch = min(config.batch_size, n)
    rng = np.random.default_rng(config.seed)
    work = net.copy()
    m, v, t = np.zeros_like(work.theta), np.zeros_like(work.theta), 0

    def evaluate(model):
        pred = forward(model, val_set[0])
        data = mse(pred, val_set[1])
        if physics is None:
            return data
        return (1.0 - lam) * data + physics.loss_and_output_grad(physics.inputs(val_set[0]), pred)[0]

    history = TrainHistory()
    best, best_val = net.copy(), evaluate(net) if val_set is not None else np.inf
    lr, since_drop = config.learning_rate, 0
    for _ in range(config.max_epochs):
        order = rng.permutation(n)
        sums = [0.0, 0.0, 0.0]  # data, physics, total
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            cache = forward_cached(work, x[idx])
            data = mse(cache.output, y[idx])
            out_grad = mse_gradient(cache.output, y[idx])
            phys = 0.0
            if physics is not None:
                out_grad = (1.0 - lam) * out_grad
                phys, phys_grad = physics.loss_and_output_grad(physics.inputs(x[idx]), cache.output)
                out_grad = out_grad + phys_grad
            total = (1.0 - lam) * data + phys if physics is not None else data
            g = np.concatenate([np.ravel(d) for d in backward(work, cache, out_grad)])
            t += 1
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g**2
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            work.theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
            sums = [sums[0] + data, sums[1] + phys, sums[2] + total]
        n_batches = len(range(0, n, batch))
        history.train_loss.append(sums[2] / n_batches)
        history.data_loss.append(sums[0] / n_batches)
        history.physics_loss.append(sums[1] / n_batches)
        history.learning_rate.append(lr)
        history.val_loss.append(evaluate(work) if val_set is not None else history.train_loss[-1])
        if history.val_loss[-1] < best_val:
            best, best_val = work.copy(), history.val_loss[-1]
        if config.lr_plateau is not None:
            since_drop += 1
            plateau = config.lr_plateau
            new_lr = plateau_lr(history.val_loss[-since_drop:], plateau.patience, plateau.factor, lr)
            if new_lr != lr:
                lr, since_drop = new_lr, 0
        stop = config.early_stop
        if stop is not None and pq_alpha_should_stop(
            history.train_loss, history.val_loss, stop.alpha, stop.strip_length
        ):
            break
    return best, history


def _seed_train_cases():
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(70, 3)), rng.normal(size=(70, 2))
    yield "plain", xavier_init([3, 8, 2], seed=1), (x[:50], y[:50]), None, TrainConfig(1e-2, 4, 16, seed=2), None

    params, spec = _spring_setup()
    states, nxt = sm.generate_dataset(params, 5.0, 120, 0.05, 10, seed=1)
    xs, ys = normalize(states, spec), normalize(nxt, spec)
    term = SpringEnergyTerm(params, spec, weight=0.3)
    cfg = TrainConfig(1e-3, 3, 32, seed=4)
    yield "spring", xavier_init([4, 10, 4], seed=3), (xs[:100], ys[:100]), (xs[100:], ys[100:]), cfg, term

    x, y, in_spec, out_spec, cs = _ltp_setup()
    xn, yn = normalize(x, in_spec), normalize(y, out_spec)
    term = LtpResidualTerm(cs, in_spec, 0.015)
    cfg = TrainConfig(3e-3, 40, 32, EarlyStopConfig(2.0, 3), PlateauConfig(1, 0.5), seed=6)
    yield "ltp", xavier_init([3, 12, 17], seed=5), (xn[:160], yn[:160]), (xn[160:], yn[160:]), cfg, term


def _ragged_case(case):
    """``case`` for 3 epochs of batch 24 with a validation set, so the last batch of every epoch is ragged."""
    name, net, train_set, val_set, cfg, term = case
    if val_set is None:
        val_set = train_set[0][-12:], train_set[1][-12:]
    return name + "-ragged", net, train_set, val_set, replace(cfg, max_epochs=3, batch_size=24), term


_TRAIN_CASES = list(_seed_train_cases())


@pytest.mark.parametrize("case", _TRAIN_CASES + [_ragged_case(c) for c in _TRAIN_CASES], ids=lambda case: case[0])
def test_train_matches_the_seed_loop_bit_for_bit(case):
    name, net, train_set, val_set, cfg, term = case
    trained, history = train(net, train_set, val_set, cfg, physics=term)
    expected, expected_history = _seed_train(net, train_set, val_set, cfg, term)
    assert trained.theta.tobytes() == expected.theta.tobytes()
    for key in ("train_loss", "val_loss", "data_loss", "physics_loss", "learning_rate"):
        assert np.array_equal(getattr(history, key), getattr(expected_history, key)), key
    if name.endswith("-ragged"):
        assert len(train_set[0]) % cfg.batch_size and history.n_epochs() == 3
    elif cfg.early_stop is not None:  # both schedules took effect
        assert history.n_epochs() < cfg.max_epochs and len(set(history.learning_rate)) > 1


def test_train_returns_an_interior_best_epoch_as_its_own_copy():
    _, net, (x, y), _, cfg, _ = next(_seed_train_cases())  # the plain case
    val_set = x[-6:], y[-6:]
    train_set = x[:-6], y[:-6]
    cfg = replace(cfg, learning_rate=3e-2, max_epochs=8)
    trained, history = train(net, train_set, val_set, cfg)
    expected, _ = _seed_train(net, train_set, val_set, cfg, None)
    best = int(np.argmin(history.val_loss))
    # the checkpoint is neither the initial net nor the last epoch's
    assert 0 < best < history.n_epochs() - 1
    assert history.val_loss[best] < mse(forward(net, val_set[0]), val_set[1])
    assert trained.theta.tobytes() == expected.theta.tobytes()
    assert mse(forward(trained, val_set[0]), val_set[1]) == history.val_loss[best]
    again, _ = train(net, train_set, val_set, cfg)
    assert again.theta.tobytes() == trained.theta.tobytes()
    for other in (net, again):
        for p in other.parameters():
            assert not np.shares_memory(trained.theta, p)


def test_parameters_are_views_of_one_vector_and_training_leaves_input_alone():
    net = xavier_init([2, 3, 1], seed=4)
    assert net.theta.size == 2 * 3 + 3 + 3 * 1 + 1
    for p in net.parameters():
        assert np.shares_memory(p, net.theta)
    net.parameters()[2][0, 1] = 7.0  # W1 follows W0 and b0 in theta
    assert net.theta[2 * 3 + 3 + 1] == 7.0

    for other in (net.copy(), net.with_parameters(net.parameters())):
        assert np.array_equal(other.theta, net.theta)
        assert not np.shares_memory(other.theta, net.theta)
        other.theta[:] = 0.0
        assert net.theta[2 * 3 + 3 + 1] == 7.0

    before = net.theta.copy()
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(20, 2)), rng.normal(size=(20, 1))
    trained, history = train(net, (x, y), None, TrainConfig(learning_rate=1e-2, max_epochs=2, batch_size=8))
    assert history.n_epochs() == 2
    assert np.array_equal(net.theta, before)
    assert not np.array_equal(trained.theta, before)


def test_pickled_network_keeps_theta_and_its_views():
    net = xavier_init([3, 7, 5, 2], seed=6)
    net.theta[:] = np.random.default_rng(1).normal(size=net.theta.size)
    net.theta[[0, 1, 2]] = (-0.0, np.nextafter(0.0, 1.0), 1e300)
    loaded = pickle.loads(pickle.dumps(net))
    assert loaded.theta.tobytes() == net.theta.tobytes()
    assert loaded.layer_dims == net.layer_dims
    for p in loaded.parameters():
        assert p.base is loaded.theta
    loaded.theta[:] = 0.0
    assert all(not p.any() for p in loaded.parameters())


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    net = xavier_init([3, 8, 2], seed=13)
    x, _ = generate_synthetic_ltp(50, 0)
    spec = fit_transform(x, INPUT_NAMES, skew_threshold=np.inf)
    path = tmp_path / "model.txt"
    save_network(path, net, transform=spec)
    assert path.read_text().splitlines()[2] == "activation leaky_relu 0.01"
    loaded, loaded_spec = load_network(path)
    assert loaded.layer_dims == net.layer_dims
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)
    assert loaded_spec.names == spec.names
    assert np.array_equal(loaded_spec.mins, spec.mins)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NOT-A-MODEL\n")
    with pytest.raises(ValidationError):
        load_network(path)
