"""Two-mass, two-spring chain: dynamics, RK4 integration, and datasets.

A wall-mounted spring (k1, natural length L1) holds mass m1; a second spring
(k2, L2) couples m1 to m2. Motion is frictionless along one axis, so the
mechanical energy is conserved and serves as the physical constraint for the
surrogate models built on top of this module.

State vectors are laid out as [x1, v1, x2, v2]; every function here accepts
either a single state (4,) or a batch (n, 4), except ``rollout``, which
takes a batch only.

``integrate``, ``true_trajectory`` and ``generate_dataset`` share one RK4
kernel that reuses its buffers: blocks of up to 2,048 states are advanced,
every substep and trajectory step, inside one workspace made once per call
(393 KB at most), bit for bit the textbook formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from physproj.constraints import transform
from physproj.errors import ProjectionError, ValidationError
from physproj.projector import CONVERGED

STATE_NAMES = ("x1", "v1", "x2", "v2")
_BLOCK_ROWS = 2048  # states integrated at once: a (6, 4, 2048) workspace of 393 KB


@dataclass(frozen=True)
class SpringParams:
    """Masses (kg), spring constants (N/m) and natural lengths (m)."""

    m1: float = 1.0
    m2: float = 1.0
    k1: float = 5.0
    k2: float = 2.0
    L1: float = 0.5
    L2: float = 0.5
    # per coordinate of ``_coordinates``, its weight w in the energy 0.5 * sum(w * u**2), and 0.5 * w
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _half_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("m1", "m2", "k1", "k2", "L1", "L2"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"SpringParams.{name} must be strictly positive")
        weights = np.array([self.k1, self.m1, self.k2, self.m2])
        for name, value in (("_weights", weights), ("_half_weights", 0.5 * weights)):
            value.flags.writeable = False  # shared by every call with these parameters
            object.__setattr__(self, name, value)

    def equilibrium(self) -> np.ndarray:
        return np.array([self.L1, 0.0, self.L1 + self.L2, 0.0])


def rhs(state: np.ndarray, params: SpringParams) -> np.ndarray:
    """Time derivative of [x1, v1, x2, v2] under Hooke's law forces."""
    s = np.asarray(state, dtype=np.float64)
    rows = s.reshape(-1, 4)
    out = np.empty(rows.shape)
    _rhs_into(rows.T, params, out.T, np.empty((2, len(rows))))
    return out.reshape(s.shape)


def _rhs_into(s: np.ndarray, params: SpringParams, out: np.ndarray, tmp: np.ndarray) -> None:
    """``rhs`` of the states ``s`` laid out component-first, (4, n), written into ``out`` (4, n).

    ``tmp`` is scratch with at least two rows of n. The operations and their
    operands are those of a1 = (-k1 * (x1 - L1) + k2 * stretch2) / m1 and
    a2 = -k2 * stretch2 / m2, so every bit is theirs.
    """
    x1, _, x2, _ = s
    np.copyto(out[0::2], s[1::2])  # dx1/dt = v1, dx2/dt = v2
    stretch2, pull = tmp[0], tmp[1]
    np.subtract(x2, x1, out=stretch2)
    stretch2 -= params.L2
    a1 = np.subtract(x1, params.L1, out=out[1])
    a1 *= -params.k1
    a1 += np.multiply(stretch2, params.k2, out=pull)
    a1 /= params.m1
    a2 = np.multiply(stretch2, -params.k2, out=out[3])
    a2 /= params.m2


def _coordinates(s: np.ndarray, params: SpringParams | None) -> np.ndarray:
    """States with each position replaced by its spring's stretch: [x1 - L1, v1, x2 - x1 - L2, v2]
    (without ``params``, the natural lengths are left out)."""
    u = s.copy()
    u[..., 2] -= s[..., 0]
    if params is not None:
        u[..., 0] -= params.L1
        u[..., 2] -= params.L2
    return u


def _energy(u: np.ndarray, params: SpringParams) -> np.ndarray:
    terms = params._half_weights * u**2
    return terms[..., 1] + terms[..., 3] + terms[..., 0] + terms[..., 2]  # kinetic first: the order fixes the rounding


def _energy_gradient(u: np.ndarray, params: SpringParams) -> np.ndarray:
    grad = params._weights * u
    grad[..., 0] -= grad[..., 2]  # x1 also shortens the coupling spring
    return grad


def energy(state: np.ndarray, params: SpringParams) -> np.ndarray | float:
    """Mechanical energy in J: kinetic of both masses plus elastic potential."""
    e = _energy(_coordinates(np.asarray(state, dtype=np.float64), params), params)
    return float(e) if e.ndim == 0 else e


def energy_hessian(params: SpringParams) -> np.ndarray:
    """d²E/d[x1, v1, x2, v2]², (4, 4): the same at every state, since the energy is quadratic in it."""
    return _energy_gradient(_coordinates(np.eye(4), None), params)  # the gradient is linear in the stretches


def energy_and_gradient(states: np.ndarray, params: SpringParams) -> tuple[np.ndarray, np.ndarray]:
    """``energy`` and dE/d[x1, v1, x2, v2], from one computation of each spring's stretch.

    The energy is bit-identical to ``energy``'s; the gradient vanishes exactly at the equilibrium state.
    """
    u = _coordinates(np.asarray(states, dtype=np.float64), params)
    return _energy(u, params), _energy_gradient(u, params)


def _rk4_into(s: np.ndarray, params: SpringParams, dt: float, ws: np.ndarray) -> None:
    """One classical RK4 step of size ``dt`` on the states ``s`` (4, n), in place.

    ``ws`` is a (6, 4, n) workspace: k1-k4, the stage point and the ``rhs``
    scratch. Each stage is s + (0.5 * dt) * k and the update
    s + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), added left to right, so the
    result is bit for bit that of the same formula on fresh arrays.
    """
    k1, k2, k3, k4, stage, tmp = ws
    half = 0.5 * dt
    _rhs_into(s, params, k1, tmp)
    np.multiply(k1, half, out=stage)
    stage += s
    _rhs_into(stage, params, k2, tmp)
    np.multiply(k2, half, out=stage)
    stage += s
    _rhs_into(stage, params, k3, tmp)
    np.multiply(k3, dt, out=stage)
    stage += s
    _rhs_into(stage, params, k4, tmp)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    s += k2


def _rk4_path(states: np.ndarray, params: SpringParams, horizon: float, n_substeps: int, n_steps: int) -> np.ndarray:
    """The states (..., 4) after each of ``n_steps`` advances by ``horizon`` seconds in
    ``n_substeps`` RK4 steps, (n_steps, ..., 4).

    Rows run in blocks of at most ``_BLOCK_ROWS`` through one component-first
    workspace, so no step allocates; rows are independent, so no bit depends
    on the blocking.
    """
    if not 0.0 < horizon < np.inf:
        raise ValidationError("horizon must be positive and finite")
    if n_substeps < 1:
        raise ValidationError("n_substeps must be >= 1")
    dt = horizon / n_substeps
    rows = states.reshape(-1, 4)
    path = np.empty((n_steps, *rows.shape))
    width = max(min(len(rows), _BLOCK_ROWS), 1)
    block, ws = np.empty((4, width)), np.empty((6, 4, width))
    for start in range(0, len(rows), width):
        stop = min(start + width, len(rows))
        s, w = block[:, : stop - start], ws[:, :, : stop - start]
        np.copyto(s, rows[start:stop].T)
        for i in range(n_steps):
            for _ in range(n_substeps):
                _rk4_into(s, params, dt, w)
            path[i, start:stop] = s.T
    return path.reshape(n_steps, *states.shape)


def integrate(state: np.ndarray, params: SpringParams, horizon: float, n_substeps: int) -> np.ndarray:
    """Advance the state by ``horizon`` seconds using n_substeps RK4 steps."""
    return _rk4_path(np.asarray(state, dtype=np.float64), params, horizon, n_substeps, 1)[0]


def sample_states(params: SpringParams, e_max: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` states with energy below ``e_max`` by box rejection sampling.

    The box bounds each coordinate by the value it would need to carry the
    whole energy budget alone, so the admissible region is fully covered and
    the acceptance probability stays bounded away from zero.
    """
    if not 0.0 < e_max < np.inf:
        raise ValidationError("e_max must be positive and finite")
    q1_max = np.sqrt(2.0 * e_max / params.k1)
    q2_max = np.sqrt(2.0 * e_max / params.k2)
    v1_max = np.sqrt(2.0 * e_max / params.m1)
    v2_max = np.sqrt(2.0 * e_max / params.m2)
    out = np.empty((n, 4))
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        q1 = rng.uniform(-q1_max, q1_max, m)
        v1 = rng.uniform(-v1_max, v1_max, m)
        q2 = rng.uniform(-q2_max, q2_max, m)
        v2 = rng.uniform(-v2_max, v2_max, m)
        cand = np.stack([params.L1 + q1, v1, params.L1 + q1 + params.L2 + q2, v2], axis=-1)
        accepted = cand[energy(cand, params) < e_max]
        take = min(len(accepted), n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def sample_state(params: SpringParams, e_max: float, rng: np.random.Generator) -> np.ndarray:
    return sample_states(params, e_max, 1, rng)[0]


def generate_dataset(
    params: SpringParams,
    e_max: float,
    n: int,
    delta_t: float,
    n_substeps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled states and their integrated successors, (inputs, targets).

    Both arrays have shape (n, 4); reproducible for a given seed.
    """
    if n < 1:
        raise ValidationError("dataset size must be >= 1")
    rng = np.random.default_rng(seed)
    inputs = sample_states(params, e_max, n, rng)
    targets = integrate(inputs, params, delta_t, n_substeps)
    return inputs, targets


@dataclass
class RolloutResult:
    """Predicted trajectories of a batch of n initial states.

    Per trajectory, ``failed_step`` is the step of its first failed
    projection (0 if none) and ``failed_status`` that projection's status;
    the states after it are NaN.
    """

    states: np.ndarray  # (n_steps + 1, n, 4), physical units, row 0 = initial
    energies: np.ndarray  # (n_steps + 1, n), in J
    failed_step: np.ndarray  # (n,) int
    failed_status: np.ndarray  # (n,) str, "" if none

    def raise_failure(self) -> None:
        """Raise ProjectionError naming the step and status of the first trajectory that failed, if any."""
        for step, status in zip(self.failed_step.tolist(), self.failed_status):
            if step:
                raise ProjectionError(f"projection failed at rollout step {step} with status '{status}'", step=step, status=status)


def rollout(
    model_fn,
    initial_states: np.ndarray,
    n_steps: int,
    spec,
    projector=None,
    params: SpringParams = SpringParams(),
) -> RolloutResult:
    """Autoregressive prediction of n trajectories in lockstep, with optional output projection.

    ``initial_states`` is (n, 4). Each step makes one ``model_fn`` call on
    the (k, 4) states still running, normalized by the state transform
    ``spec``, and ``projector(ys_norm, active)`` gets their predictions with
    their indices into the batch and returns one ProjectionResult with k
    rows, as ``project_batch`` does. A trajectory leaves the batch at its
    first failed projection, which is recorded in the result.

    The projection output (still normalized) replaces the raw prediction
    before de-normalizing and feeding back; its anchor should be each
    trajectory's initial energy.
    """
    state = np.asarray(initial_states, dtype=np.float64)
    if state.ndim != 2 or state.shape[1] != 4:
        raise ValidationError(f"initial states must have shape (n, 4), got {state.shape}")
    states = np.full((n_steps + 1, *state.shape), np.nan)
    states[0] = state
    failed_step = np.zeros(len(state), dtype=int)
    failed_status = np.full(len(state), "", dtype=object)
    active = np.arange(len(state))
    for step in range(1, n_steps + 1):
        if not active.size:
            break
        y = np.asarray(model_fn(transform.normalize(states[step - 1, active], spec)), dtype=np.float64)
        if projector is not None:
            result = projector(y, active)
            ok = result.status == CONVERGED
            failed_step[active[~ok]] = step
            failed_status[active[~ok]] = result.status[~ok]
            y = result.projected[ok]
            active = active[ok]
        states[step, active] = transform.denormalize(y, spec)
    return RolloutResult(states, energy(states, params), failed_step, failed_status)


def true_trajectory(
    initial_state: np.ndarray,
    params: SpringParams,
    n_steps: int,
    delta_t: float,
    n_substeps: int,
) -> np.ndarray:
    """Ground-truth trajectory with row 0 the initial state.

    A single state (4,) yields (n_steps + 1, 4); a batch (n, 4) is
    integrated in lockstep and yields (n_steps + 1, n, 4).
    """
    state = np.asarray(initial_state, dtype=np.float64)
    return np.concatenate([state[None], _rk4_path(state, params, delta_t, n_substeps, n_steps)])
