"""Nearest-point projection onto a constraint manifold, batched over points.

Solves  minimize ||p - y||^2  subject to g(x, p) = 0  by damped Newton
iteration on the first-order optimality system

    2 (p - y) + J(p)^T lam = 0,      g(x, p) = 0.

Starting points that violate the constraints badly first go through a
Gauss-Newton feasibility-restoration phase on ||g||^2 alone. The Newton
phase then re-estimates the multipliers by least squares at every iterate,
assembles the saddle-point system with the exact Lagrangian curvature
(convexified on the constraint tangent space when indefinite, so saddle
regions yield damped, well-sized steps), caps step lengths on the scale of
the output space, and backtracks on the exact l1 penalty
||p - y||^2 + mu * ||g||_1 with a second-order correction before giving
up on a full step. A small multiple ``delta`` of the identity regularizes
the saddle-point system. It is raised in one place: at the end of an
iteration that did not move the point (a singular system gives a zero
step), and the point ends ``singular_system`` once ``delta`` exceeds
``_MAX_DELTA``. It shrinks again as steps succeed.

The points of a batch run this iteration in lockstep, in blocks sized to
bound memory. Each keeps its own iterate, multipliers, regularization,
step length and status, and leaves the active set the moment it converges
or fails; the linear algebra is stacked over the active points (one
``solve``, ``svd`` and ``eigvalsh`` call per stage), and line-search trials
are evaluated only on the points that need them. ``project`` is a batch of
one. A constraint call that raises on a batch is repeated point by point,
so a failing point never aborts the others. Problems here are tiny
(<= 17 variables, <= 3 constraints), so dense linear algebra is plenty.

Starting from p0 = y means an already-feasible prediction is returned
unchanged in zero iterations, and the solver finds the local solution on
y's side of the manifold; no global search is attempted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from physproj.errors import PhysprojError, ValidationError

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
SINGULAR_SYSTEM = "singular_system"
NONFINITE_INPUT = "nonfinite_input"

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MIN_ALPHA = 1e-12
_MAX_DELTA = 1e6
_STEP_CAP = 2.0  # outputs live on a [-1, 1]-ish scale; bound each Newton step
_BLOCK_ENTRIES = 2**13  # entries of a block's stacked saddle-point systems (64 KB): bounds memory


@dataclass(frozen=True)
class ProjectionSpec:
    """Solver settings."""

    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValidationError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")


@dataclass
class ProjectionResult:
    projected: np.ndarray
    multipliers: np.ndarray
    iterations: int
    kkt_norm: float
    status: str
    seconds: float = 0.0


def kkt_residual(p, lam, y, constraint_set, input_x, spec: ProjectionSpec) -> tuple[float, float]:
    """Infinity norms of (stationarity, feasibility) at (p, lam)."""
    p = np.asarray(p, dtype=np.float64)
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    g = np.atleast_1d(constraint_set.residual(input_x, p))
    jac = np.atleast_2d(constraint_set.jacobian(input_x, p))
    stationarity = 2.0 * (p - y) + jac.T @ lam
    return float(np.abs(stationarity).max()), float(np.abs(g).max())


def _rows(fn, shape, error, *args):
    """``fn(*args)`` over a batch, and the mask of rows it raised ``error`` on.

    After a raise the call is repeated row by row, so only the rows that
    raise again are lost (as NaN). ``None`` arguments pass through. The result
    is C-contiguous, so row reductions add in the same order for any batch.
    """
    raised = np.zeros(len(args[-1]), dtype=bool)
    if not raised.size:
        return np.zeros((0, *shape)), raised
    try:
        return np.ascontiguousarray(fn(*args)), raised
    except error:
        out = np.full((raised.size, *shape), np.nan)
    for i in range(raised.size):
        try:
            out[i] = fn(*(a if a is None else a[i : i + 1] for a in args))[0]
        except error:
            raised[i] = True
    return out, raised


def _solve(a, b):
    """Stacked a x = b, with the mask of exactly singular systems."""
    return _rows(lambda a_, b_: np.linalg.solve(a_, b_[..., None])[..., 0], b.shape[1:], np.linalg.LinAlgError, a, b)


def _newton_step(kkt_matrix, rhs_p, rhs_g):
    """Primal parts of the stacked saddle-point solutions; a row whose system
    is singular, or whose solution is not finite, gets a zero step."""
    sol, singular = _solve(kkt_matrix, np.concatenate([rhs_p, rhs_g], axis=1))
    sol[singular | ~np.all(np.isfinite(sol), axis=1)] = 0.0
    return sol[:, : rhs_p.shape[1]]


def _matvec(a, v):
    return (a @ v[..., None])[..., 0]


def _capped(dp):
    """Rows of ``dp`` scaled down onto the step cap, and their uncapped lengths."""
    step_len = np.abs(dp).max(axis=1)
    scale = np.divide(_STEP_CAP, step_len, out=np.ones_like(step_len), where=step_len > _STEP_CAP)
    return dp * scale[:, None], step_len


def _evaluate(fn, shape, xs, rows, *args, failed=None):
    """Constraint call ``fn(x, *args)`` on the points ``rows``: the values and
    the mask of points it did not raise on (the others are marked in ``failed``)."""
    out, raised = _rows(fn, shape, PhysprojError, None if xs is None else xs[rows], *args)
    if failed is not None:
        failed[rows[raised]] = True
    return out, ~raised


def _restore_feasibility(p, act, xs, constraint_set, failed, target: float, budget: int) -> np.ndarray:
    """Gauss-Newton with backtracking on ||g||^2 until near the manifold.

    Run before the optimality phase when the start point is far from
    feasible; minimizing the violation alone avoids the tug-of-war between
    distance and feasibility that stalls merit line searches out there.
    Moves the points ``act`` of ``p`` in place, marks those whose constraint
    calls raise in ``failed``, and returns the steps used. A point whose
    Gram system is singular, or whose line search finds no decrease, stops
    here; the regularized Newton phase takes it over.
    """
    m = constraint_set.residual_dim
    used = np.zeros(len(p), dtype=int)
    while act.size:
        act = act[used[act] < budget]
        g, ok = _evaluate(constraint_set.residual, (m,), xs, act, p[act], failed=failed)
        ok &= np.abs(g).max(axis=1) > target
        act, g = act[ok], g[ok]
        jac, ok = _evaluate(constraint_set.jacobian, (m, p.shape[1]), xs, act, p[act], failed=failed)
        act, g, jac = act[ok], g[ok], jac[ok]
        # row equilibration: violated laws can differ by many orders of
        # magnitude (scale clamps), which would make the Gram matrix singular
        row_scale = 1.0 / np.maximum(np.linalg.norm(jac, axis=2), 1e-300)
        jac_eq = jac * row_scale[:, :, None]
        used[act] += 1
        sol, singular = _solve(jac_eq @ jac_eq.transpose(0, 2, 1), g * row_scale)
        dp, step_len = _capped(-_matvec(jac_eq.transpose(0, 2, 1), sol))
        live = ~singular & np.isfinite(step_len) & (step_len > 1e-15)
        psi0 = np.sum(g * g, axis=1)
        alpha = np.ones(len(act))
        moved = np.zeros(len(act), dtype=bool)
        pending = np.flatnonzero(live)
        while pending.size:
            trial = p[act[pending]] + alpha[pending, None] * dp[pending]
            g_trial, ok = _evaluate(constraint_set.residual, (m,), xs, act[pending], trial)
            ok &= np.all(np.isfinite(g_trial), axis=1) & (np.sum(g_trial * g_trial, axis=1) < psi0[pending])
            p[act[pending[ok]]] = trial[ok]
            moved[pending[ok]] = True
            alpha[pending[~ok]] *= _BACKTRACK
            pending = pending[~ok & (alpha[pending] >= _MIN_ALPHA)]
        act = act[moved]
    return used


def project(y, constraint_set, input_x=None, spec: ProjectionSpec = ProjectionSpec()) -> ProjectionResult:
    """Project ``y`` (normalized output space) onto g(x, p) = 0.

    Returns the first iterate whose stationarity and feasibility infinity
    norms both fall under ``spec.tolerance``. On failure the best iterate
    seen is returned, flagged with a non-converged status.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValidationError("y must be a finite vector")
    return project_batch(y[None, :], constraint_set, input_x, spec)[0]


def project_batch(ys, constraint_set, inputs_x=None, spec: ProjectionSpec = ProjectionSpec()) -> list[ProjectionResult]:
    """Independent projections in input order; failures never abort the batch.

    Row i of ``inputs_x`` is the constraint input of point i. A point whose
    y is not finite comes back unchanged with status ``nonfinite_input``,
    one whose own constraint calls raise with ``singular_system``. Points
    are solved in lockstep blocks sized so that memory does not grow with
    the batch. ``seconds`` of every result is the batch time split evenly
    across its points.
    """
    start = time.perf_counter()
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    xs = None if inputs_x is None else np.atleast_2d(np.asarray(inputs_x, dtype=np.float64))
    if xs is not None and len(xs) != len(ys):
        raise ValidationError("inputs_x length does not match ys")
    size = max(1, _BLOCK_ENTRIES // (ys.shape[1] + constraint_set.residual_dim) ** 2)
    blocks = [
        _project_block(ys[lo : lo + size], None if xs is None else xs[lo : lo + size], constraint_set, spec)
        for lo in range(0, len(ys), size)
    ]
    seconds = (time.perf_counter() - start) / max(len(ys), 1)
    return [ProjectionResult(*row, seconds) for block in blocks for row in zip(*block)]


def _project_block(ys, xs, constraint_set, spec: ProjectionSpec):
    """Lockstep solve of one block: points, multipliers, iterations, KKT norms, statuses."""
    n, dim = ys.shape
    m = constraint_set.residual_dim
    eye = np.eye(dim)

    p = ys.copy()
    lam = np.zeros((n, m))
    best_kkt, best_p, best_lam = np.full(n, np.inf), p.copy(), lam.copy()  # what each point returns
    delta = np.zeros(n)
    status = np.full(n, MAX_ITERATIONS, dtype=object)
    iterations = np.zeros(n, dtype=int)
    nonfinite = ~np.all(np.isfinite(ys), axis=1)
    broken = nonfinite.copy()

    act = np.flatnonzero(~broken)
    target = max(1e-3, 10.0 * spec.tolerance)
    g0, ok = _evaluate(constraint_set.residual, (m,), xs, act, p[act], failed=broken)
    far = act[ok & (np.abs(g0).max(axis=1) > target)]
    restore_steps = _restore_feasibility(p, far, xs, constraint_set, broken, target, spec.max_iterations // 2)
    best_p[:] = p
    newton_budget = spec.max_iterations - restore_steps

    def leave(rows, why):
        status[rows] = why
        iterations[rows] = it + restore_steps[rows]

    def merit(rows, trial, mu):
        """Exact l1 penalty ||p - y||^2 + mu * ||g||_1 at trial points, and g.

        A squared feasibility penalty is not exact: accepting steps whose
        objective must legitimately grow (the projection can lie farther from
        y than a nearby feasible iterate) would need mu ~ 1/||g||; the l1 form
        accepts them for any finite mu above the multiplier norm."""
        g_trial, ok = _evaluate(constraint_set.residual, (m,), xs, rows, trial)
        ok &= np.all(np.isfinite(g_trial), axis=1)
        d = trial - ys[rows]
        phi = np.sum(d * d, axis=1) + mu * np.abs(g_trial).sum(axis=1)
        return np.where(ok, phi, np.inf), np.where(ok[:, None], g_trial, np.nan)

    act = np.flatnonzero(~broken)
    it = 0
    while act.size:
        g, ok = _evaluate(constraint_set.residual, (m,), xs, act, p[act], failed=broken)
        jac, ok_jac = _evaluate(constraint_set.jacobian, (m, dim), xs, act, p[act], failed=broken)
        ok &= ok_jac & np.all(np.isfinite(g), axis=1) & np.all(np.isfinite(jac), axis=(1, 2))
        leave(act[~ok], SINGULAR_SYSTEM)  # no-op for broken points, whose result is y
        act, g, jac = act[ok], g[ok], jac[ok]

        # multipliers are always the least-squares estimate for the current
        # point, so the dual never lags behind partial primal steps; the
        # minimum-norm solution of J^T lam = -2 (p - y) comes from the SVD
        # of J, with lstsq's default cutoff for negligible singular values
        u, svals, vt = np.linalg.svd(jac)
        r = svals.shape[1]
        grad_obj = 2.0 * (p[act] - ys[act])
        keep = svals > np.finfo(np.float64).eps * max(dim, m) * svals[:, :1]
        inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=keep)
        lam[act] = _matvec(u[:, :, :r], _matvec(vt[:, :r], -grad_obj) * inv)
        stationarity = grad_obj + _matvec(jac.transpose(0, 2, 1), lam[act])
        kkt = np.maximum(np.abs(stationarity).max(axis=1), np.abs(g).max(axis=1))
        converged = kkt <= spec.tolerance
        better = (kkt < best_kkt[act]) | converged  # a converged point returns its last iterate
        rows = act[better]
        best_kkt[rows], best_p[rows], best_lam[rows] = kkt[better], p[rows], lam[rows]
        leave(act[converged], CONVERGED)
        spent = ~converged & (it == newton_budget[act])
        leave(act[spent], MAX_ITERATIONS)
        go = ~converged & ~spent
        act, g, jac, svals, vt, grad_obj = act[go], g[go], jac[go], svals[go], vt[go], grad_obj[go]

        # Lagrangian curvature for true Newton steps; harmless zeros at lam=0
        curvature, ok = _evaluate(constraint_set.lagrangian_hessian, (dim, dim), xs, act, p[act], lam[act], failed=broken)
        act, g, jac, svals, vt, grad_obj, curvature = (a[ok] for a in (act, g, jac, svals, vt, grad_obj, curvature))
        curvature[~np.all(np.isfinite(curvature), axis=(1, 2))] = 0.0
        hessian = 2.0 * eye + curvature
        # convexify: the Hessian must be comfortably positive definite on the
        # tangent space of the linearized constraints, or the step aims at a
        # saddle. The shift grows with the indefiniteness so saddle regions
        # get well-sized damped steps (a barely positive floor would leave
        # the system near singular, with huge steps and garbage multipliers),
        # while healthy curvature near a minimizer keeps the pure Newton tail.
        if m < dim:
            rank = np.sum(svals > 1e-12 * np.maximum(svals[:, :1], 1.0), axis=1)
            for rk in np.unique(rank):
                rows = np.flatnonzero(rank == rk)
                tangent, h = vt[rows, rk:], hessian[rows]
                thresh = 0.01 * (1.0 + np.abs(np.diagonal(h, axis1=1, axis2=2)).max(axis=1))
                min_eig = np.linalg.eigvalsh(tangent @ h @ tangent.transpose(0, 2, 1))[:, 0]
                shift = np.where(min_eig < thresh, thresh - min_eig + np.maximum(0.0, -min_eig), 0.0)
                hessian[rows] = h + shift[:, None, None] * eye

        # assemble and solve the saddle-point systems for the steps dp
        d_reg = delta[act, None, None]
        kkt_matrix = np.block([[hessian + d_reg * eye, jac.transpose(0, 2, 1)], [jac, -d_reg * np.eye(m)]])
        dp = _newton_step(kkt_matrix, -grad_obj, -g)
        # far from the linearized manifold (small constraint gradient):
        # ask only for a partial feasibility gain so the step stays on
        # the scale of the output space
        step_len = np.abs(dp).max(axis=1)
        partial = np.flatnonzero(step_len > _STEP_CAP)
        sigma = _STEP_CAP / step_len[partial]
        dp[partial] = _newton_step(kkt_matrix[partial], -grad_obj[partial], -sigma[:, None] * g[partial])
        p_a, k = p[act], len(act)

        # stationarity component can exceed the cap too; clipping keeps the
        # direction (and its descent sign) on the output scale
        dp, _ = _capped(dp)
        # exact-penalty weight: a finite mu above the multiplier norm makes
        # the l1 merit accept every step the true problem wants; the
        # least-squares multiplier is the trustworthy estimate here
        mu = 2.0 * np.abs(lam[act]).max(axis=1) + 0.1
        jd = _matvec(jac, dp)
        descent = np.sum(grad_obj * dp, axis=1) + mu * np.where(g == 0.0, np.abs(jd), np.sign(g) * jd).sum(axis=1)
        d0 = p_a - ys[act]
        bar0 = np.sum(d0 * d0, axis=1) + mu * np.abs(g).sum(axis=1)  # merit at p
        alpha = np.zeros(k)  # 0 marks a step the line search did not accept
        new_p = p_a + dp

        # a step too small to matter means no usable primal direction at
        # this regularization: it goes straight to the delta bump below
        idle = np.abs(dp).max(axis=1) <= 1e-14 * (1.0 + np.abs(p_a).max(axis=1))
        trying = np.flatnonzero(~idle & (descent <= -1e-16))
        phi_full, g_full = merit(act[trying], new_p[trying], mu[trying])
        ok = phi_full <= bar0[trying] + _ARMIJO_C1 * descent[trying]
        alpha[trying[ok]] = 1.0
        # second-order correction: cancel the constraint curvature picked up
        # over the full step before giving up on it
        soc = np.flatnonzero(~ok & np.all(np.isfinite(g_full), axis=1))
        j_soc = jac[trying[soc]]
        correction, singular = _solve(j_soc @ j_soc.transpose(0, 2, 1), g_full[soc])
        dq = -_matvec(j_soc.transpose(0, 2, 1), correction)
        valid = ~singular & np.all(np.isfinite(dq), axis=1)
        soc = trying[soc[valid]]
        corrected = new_p[soc] + dq[valid]
        phi_soc, _ = merit(act[soc], corrected, mu[soc])
        ok_soc = phi_soc <= bar0[soc] + _ARMIJO_C1 * descent[soc]
        alpha[soc[ok_soc]], new_p[soc[ok_soc]] = 1.0, corrected[ok_soc]
        trial = np.full(k, _BACKTRACK)
        pending = trying[alpha[trying] == 0.0]
        while pending.size:
            step = p_a[pending] + trial[pending, None] * dp[pending]
            phi, _ = merit(act[pending], step, mu[pending])
            accept = phi <= bar0[pending] + _ARMIJO_C1 * trial[pending] * descent[pending]
            alpha[pending[accept]], new_p[pending[accept]] = trial[pending[accept]], step[accept]
            trial[pending[~accept]] *= _BACKTRACK
            pending = pending[~accept & (trial[pending] >= _MIN_ALPHA)]

        moved = alpha > 0.0
        p[act[moved]] = new_p[moved]
        shrink = act[alpha >= 0.5]
        delta[shrink] *= 0.1
        delta[shrink[delta[shrink] < 1e-14]] = 0.0
        bump = act[~moved]
        delta[bump] = np.maximum(delta[bump] * 10.0, 1e-10)
        leave(bump[delta[bump] > _MAX_DELTA], SINGULAR_SYSTEM)
        act = act[moved | (delta[act] <= _MAX_DELTA)]
        it += 1

    # a point whose y is not finite, or whose own constraint calls raised, comes back unchanged
    best_p[broken], best_lam[broken], best_kkt[broken] = ys[broken], 0.0, np.inf
    iterations[broken], status[broken] = 0, SINGULAR_SYSTEM
    status[nonfinite] = NONFINITE_INPUT
    return best_p, best_lam, iterations.tolist(), best_kkt.tolist(), status
