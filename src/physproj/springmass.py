"""Two-mass, two-spring chain: dynamics, RK4 integration, and datasets.

A wall-mounted spring (k1, natural length L1) holds mass m1; a second spring
(k2, L2) couples m1 to m2. Motion is frictionless along one axis, so the
mechanical energy is conserved and serves as the physical constraint for the
surrogate models built on top of this module.

State vectors are laid out as [x1, v1, x2, v2]; every function here accepts
either a single state (4,) or a batch (n, 4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from physproj.errors import ProjectionError, ValidationError
from physproj.projector import CONVERGED

STATE_NAMES = ("x1", "v1", "x2", "v2")


@dataclass(frozen=True)
class SpringParams:
    """Masses (kg), spring constants (N/m) and natural lengths (m)."""

    m1: float = 1.0
    m2: float = 1.0
    k1: float = 5.0
    k2: float = 2.0
    L1: float = 0.5
    L2: float = 0.5

    def __post_init__(self):
        for name in ("m1", "m2", "k1", "k2", "L1", "L2"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"SpringParams.{name} must be strictly positive")

    def equilibrium(self) -> np.ndarray:
        return np.array([self.L1, 0.0, self.L1 + self.L2, 0.0])


def rhs(state: np.ndarray, params: SpringParams) -> np.ndarray:
    """Time derivative of [x1, v1, x2, v2] under Hooke's law forces."""
    s = np.asarray(state, dtype=np.float64)
    x1, v1, x2, v2 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    stretch2 = x2 - x1 - params.L2
    a1 = (-params.k1 * (x1 - params.L1) + params.k2 * stretch2) / params.m1
    a2 = -params.k2 * stretch2 / params.m2
    return np.stack([v1, a1, v2, a2], axis=-1)


def energy(state: np.ndarray, params: SpringParams) -> np.ndarray | float:
    """Mechanical energy in J: kinetic of both masses plus elastic potential."""
    s = np.asarray(state, dtype=np.float64)
    x1, v1, x2, v2 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    e = (
        0.5 * params.m1 * v1**2
        + 0.5 * params.m2 * v2**2
        + 0.5 * params.k1 * (x1 - params.L1) ** 2
        + 0.5 * params.k2 * (x2 - x1 - params.L2) ** 2
    )
    return float(e) if e.ndim == 0 else e


def energy_gradient(state: np.ndarray, params: SpringParams) -> np.ndarray:
    """dE/d[x1, v1, x2, v2]; vanishes exactly at the equilibrium state."""
    s = np.asarray(state, dtype=np.float64)
    x1, v1, x2, v2 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    stretch2 = x2 - x1 - params.L2
    return np.stack(
        [
            params.k1 * (x1 - params.L1) - params.k2 * stretch2,
            params.m1 * v1,
            params.k2 * stretch2,
            params.m2 * v2,
        ],
        axis=-1,
    )


def rk4_step(state: np.ndarray, params: SpringParams, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size ``dt``."""
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    s = np.asarray(state, dtype=np.float64)
    k1 = rhs(s, params)
    k2 = rhs(s + 0.5 * dt * k1, params)
    k3 = rhs(s + 0.5 * dt * k2, params)
    k4 = rhs(s + dt * k3, params)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(state: np.ndarray, params: SpringParams, horizon: float, n_substeps: int) -> np.ndarray:
    """Advance the state by ``horizon`` seconds using n_substeps RK4 steps."""
    if horizon <= 0.0:
        raise ValidationError("horizon must be positive")
    if n_substeps < 1:
        raise ValidationError("n_substeps must be >= 1")
    dt = horizon / n_substeps
    s = np.asarray(state, dtype=np.float64)
    for _ in range(n_substeps):
        s = rk4_step(s, params, dt)
    return s


def sample_states(params: SpringParams, e_max: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` states with energy below ``e_max`` by box rejection sampling.

    The box bounds each coordinate by the value it would need to carry the
    whole energy budget alone, so the admissible region is fully covered and
    the acceptance probability stays bounded away from zero.
    """
    if e_max <= 0.0:
        raise ValidationError("e_max must be positive")
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
    """Predicted trajectories; a batch of n has a trailing trajectory axis.

    Per trajectory, ``failed_step`` is the step of its first failed
    projection (0 if none) and ``failed_status`` that projection's status;
    the states after it are NaN.
    """

    states: np.ndarray  # (n_steps + 1, 4) or (n_steps + 1, n, 4), physical units, row 0 = initial
    energies: np.ndarray  # (n_steps + 1,) or (n_steps + 1, n), in J
    seconds: float = 0.0
    failed_step: np.ndarray | None = None
    failed_status: np.ndarray | None = None


def rollout(
    model_fn,
    initial_state: np.ndarray,
    n_steps: int,
    transform,
    projector=None,
    params: SpringParams = SpringParams(),
) -> RolloutResult:
    """Autoregressive trajectory prediction with optional output projection.

    A single state (4,) is rolled out alone: ``model_fn`` maps a normalized
    state (4,) to the normalized next state, ``projector(y_norm)`` returns a
    ProjectionResult, and a failed projection raises ProjectionError. A
    batch (n, 4) is rolled out in lockstep: each step makes one
    ``model_fn`` call on the (k, 4) states still running, and
    ``projector(ys_norm, active)`` gets their predictions with their indices
    into the batch and returns k ProjectionResults. A trajectory leaves the
    batch at its first failed projection, which is recorded in the result.

    The projection output (still normalized) replaces the raw prediction
    before de-normalizing and feeding back; its anchor should be each
    trajectory's initial energy.
    """
    from physproj.constraints.transform import denormalize, normalize  # local to avoid cycle

    start = time.perf_counter()
    state = np.asarray(initial_state, dtype=np.float64)
    single = state.ndim == 1
    states = np.full((n_steps + 1, *np.atleast_2d(state).shape), np.nan)
    states[0] = state
    failed_step = np.zeros(len(states[0]), dtype=int)
    failed_status = np.full(len(states[0]), "", dtype=object)
    active = np.arange(len(states[0]))
    for step in range(1, n_steps + 1):
        if not active.size:
            break
        z = normalize(states[step - 1, active], transform)
        y = np.atleast_2d(np.asarray(model_fn(z[0] if single else z), dtype=np.float64))
        if projector is not None:
            results = [projector(y[0])] if single else projector(y, active)
            ok = np.array([r.status == CONVERGED for r in results])
            if single and not ok[0]:
                raise ProjectionError(
                    f"projection failed at rollout step {step} with status '{results[0].status}'",
                    step=step,
                    status=results[0].status,
                )
            failed_step[active[~ok]] = step
            failed_status[active[~ok]] = [results[i].status for i in np.flatnonzero(~ok)]
            y = np.stack([r.projected for r in results])[ok]
            active = active[ok]
        states[step, active] = denormalize(y, transform)
    if single:
        states = states[:, 0]
    return RolloutResult(states, np.asarray(energy(states, params)), time.perf_counter() - start, failed_step, failed_status)


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
    out = np.empty((n_steps + 1, *state.shape))
    out[0] = state
    for i in range(1, n_steps + 1):
        state = integrate(state, params, delta_t, n_substeps)
        out[i] = state
    return out
