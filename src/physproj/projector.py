"""Nearest-point projection onto a constraint manifold, batched over points.

Solves  minimize ||p - y||^2  subject to g(x, p) = 0  by damped Newton
iteration on the first-order optimality system

    2 (p - y) + J(p)^T lam = 0,      g(x, p) = 0.

A point far from the manifold starts in feasibility restoration, a mode of
the one solver loop: Gauss-Newton steps on ||g||^2 alone, at most half of
``max_iterations`` (``iterations`` counts both kinds of step). In the pass
where that ends it takes Newton steps, which re-estimate the multipliers by
least squares at every iterate, solve the saddle-point system with the exact
Lagrangian curvature (convexified on the constraint tangent space when
indefinite), cap step lengths, and backtrack on the exact l1 penalty
||p - y||^2 + mu * ||g||_1, with a second-order correction before giving up
on a full step. A small multiple ``delta`` of the identity regularizes the
system: it grows tenfold after a Newton step that did not move the point (a
singular system gives a zero step) until the point ends ``singular_system``
above ``_MAX_DELTA``, and shrinks again as steps succeed.

The points of a batch iterate in lockstep, in blocks whose temporaries fit a
memory budget in bytes (a 300-point batch of 17-dimensional points is one
block). Each keeps its own iterate, multipliers, regularization and status,
and leaves the active set the moment it converges or fails; the linear
algebra is stacked over the active points. Each iterate is evaluated once:
its residual comes from the line-search trial that found it, its Jacobian
from one call when it is accepted, and the start's both from one
``residual_and_jacobian`` call. A constraint call that raises on a batch is
repeated point by point, so a failing point never aborts the others.
Problems are tiny (<= 17 variables, <= 3 constraints): dense algebra is plenty.

Starting from p0 = y means an already-feasible prediction is returned
unchanged in zero iterations, and the solver finds the local solution on
y's side of the manifold; no global search is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
_BLOCK_BYTES = 2**22  # a block's temporaries: bounds memory, and holds a 300-point LTP batch whole
_POINT_MATRICES = 4  # a point's temporaries in saddle-point matrices (tracemalloc: 13.0 KB per LTP point)


@dataclass(frozen=True)
class ProjectionSpec:
    """Solver settings."""

    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if not self.tolerance > 0.0:  # NaN too: no point could ever converge
            raise ValidationError("tolerance must be positive")
        # a fractional budget is never reached exactly, so its solves would never end
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise ValidationError("max_iterations must be an integer >= 1")


@dataclass
class ProjectionResult:
    projected: np.ndarray
    multipliers: np.ndarray
    iterations: int
    kkt_norm: float
    status: str


def kkt_residual(p, lam, y, constraint_set, input_x, spec: ProjectionSpec) -> tuple[float, float]:
    """Infinity norms of (stationarity, feasibility) at (p, lam)."""
    p, lam, y = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (p, lam, y))
    g, jac = constraint_set.residual_and_jacobian(input_x, p)
    stationarity = 2.0 * (p - y) + np.atleast_2d(jac).T @ lam
    return float(np.abs(stationarity).max()), float(np.abs(g).max())


def _rows(fn, shape, error, *args):
    """``fn(*args)`` over a batch, and the mask of rows it raised ``error`` on.

    ``shape`` is a result row's shape, or a list of them when ``fn`` returns a
    tuple. After a raise the call is repeated row by row, so only the rows
    that raise again are lost (as NaN); ``None`` arguments pass through.
    Results are C-contiguous, so row reductions add in the same order for any batch."""
    many = isinstance(shape, list)
    shapes, call = (shape, fn) if many else ([shape], lambda *a: (fn(*a),))
    raised = np.zeros(len(args[-1]), dtype=bool)
    try:
        out = [np.ascontiguousarray(a) for a in call(*args)] if raised.size else [np.zeros((0, *s)) for s in shapes]
    except error:
        out = [np.full((raised.size, *s), np.nan) for s in shapes]
        for i in range(raised.size):
            try:
                for o, row in zip(out, call(*(a if a is None else a[i : i + 1] for a in args))):
                    o[i] = row[0]
            except error:
                raised[i] = True
    return (out if many else out[0]), raised


def _solve(a, b):
    """Stacked a x = b, with the mask of exactly singular systems."""
    return _rows(lambda a_, b_: np.linalg.solve(a_, b_[..., None])[..., 0], b.shape[1:], np.linalg.LinAlgError, a, b)


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


def _backtrack(p, g, dp, pending, accept):
    """Step lengths 1, 1/2, 1/4, ... (down to ``_MIN_ALPHA``) along the rows
    ``pending`` of ``dp`` from ``p`` (residuals ``g``), until ``accept(rows,
    trials, lengths)`` returns its mask, points and residuals. Returns the
    accepted lengths (0: none), and the points and residuals (unmoved: ``p``, ``g``)."""
    alpha, length, new_p, new_g = np.zeros(len(p)), np.ones(len(p)), p.copy(), g.copy()
    while pending.size:
        ok, at, g_at = accept(pending, p[pending] + length[pending, None] * dp[pending], length[pending])
        alpha[pending[ok]], new_p[pending[ok]], new_g[pending[ok]] = length[pending[ok]], at[ok], g_at[ok]
        length[pending[~ok]] *= _BACKTRACK
        pending = pending[~ok & (length[pending] >= _MIN_ALPHA)]
    return alpha, new_p, new_g


def _convexify(hessian, svals, vt):
    """Shift the Hessians in place until comfortably positive definite on the
    tangent spaces of the linearized constraints (rows of ``vt`` past the
    Jacobian's rank), or steps aim at saddles. The shift grows with the
    indefiniteness: a barely positive floor would leave saddle regions near
    singular, with huge steps and garbage multipliers."""
    diag = np.arange(hessian.shape[1])
    rank = np.sum(svals > 1e-12 * np.maximum(svals[:, :1], 1.0), axis=1)
    for rk in np.unique(rank):
        rows = np.flatnonzero(rank == rk)
        tangent, h = vt[rows, rk:], hessian if rows.size == len(hessian) else hessian[rows]  # no copy for one rank
        thresh = 0.01 * (1.0 + np.abs(np.diagonal(h, axis1=1, axis2=2)).max(axis=1))
        min_eig = np.linalg.eigvalsh(tangent @ h @ tangent.transpose(0, 2, 1))[:, 0]
        shift = np.where(min_eig < thresh, thresh - min_eig + np.maximum(0.0, -min_eig), 0.0)
        hessian[rows[:, None], diag, diag] += shift[:, None]


def _newton_steps(hessian, jac, g, grad_obj, delta):
    """Primal parts dp of [[H + delta I, J^T], [J, -delta I]] [dp; dlam] = -[grad_obj; g],
    assembled in place. A singular system, or a solution that is not finite, gives a
    zero step; a step beyond the cap is clipped onto it, keeping its direction."""
    k, m, dim = jac.shape
    diag = np.arange(dim)
    kkt_matrix = np.empty((k, dim + m, dim + m))
    kkt_matrix[:, :dim, :dim] = hessian
    kkt_matrix[:, diag, diag] += delta[:, None]
    kkt_matrix[:, :dim, dim:] = jac.transpose(0, 2, 1)
    kkt_matrix[:, dim:, :dim] = jac
    kkt_matrix[:, dim:, dim:] = -delta[:, None, None] * np.eye(m)
    sol, singular = _solve(kkt_matrix, np.concatenate([-grad_obj, -g], axis=1))
    sol[singular | ~np.all(np.isfinite(sol), axis=1)] = 0.0
    return _capped(sol[:, :dim])[0]


def project(y, constraint_set, input_x=None, spec: ProjectionSpec = ProjectionSpec()) -> ProjectionResult:
    """Project ``y`` (normalized output space) onto g(x, p) = 0.

    Returns the first iterate whose stationarity and feasibility infinity
    norms both fall under ``spec.tolerance``; on failure the best iterate
    seen, flagged with a non-converged status."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValidationError("y must be a finite vector")
    return project_batch(y[None, :], constraint_set, input_x, spec)[0]


def project_batch(ys, constraint_set, inputs_x=None, spec: ProjectionSpec = ProjectionSpec()) -> list[ProjectionResult]:
    """Independent projections in input order; failures never abort the batch.

    Row i of ``inputs_x`` is the constraint input of point i. A point whose
    y is not finite comes back unchanged with status ``nonfinite_input``,
    one whose own constraint calls raise with ``singular_system``. Points
    are solved in lockstep blocks whose temporaries fit ``_BLOCK_BYTES``, so
    memory does not grow with the batch. A point's result does not depend on
    its batch or block as long as the constraint set computes rows independently."""
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    xs = None if inputs_x is None else np.atleast_2d(np.asarray(inputs_x, dtype=np.float64))
    if xs is not None and len(xs) != len(ys):
        raise ValidationError("inputs_x length does not match ys")
    size = max(1, _BLOCK_BYTES // (_POINT_MATRICES * 8 * (ys.shape[1] + constraint_set.residual_dim) ** 2))
    blocks = (_project_block(ys[lo : lo + size], None if xs is None else xs[lo : lo + size], constraint_set, spec)
              for lo in range(0, len(ys), size))
    return [ProjectionResult(*row) for block in blocks for row in zip(*block)]


def _project_block(ys, xs, constraint_set, spec: ProjectionSpec):
    """Lockstep solve of one block: points, multipliers, iterations, KKT norms, statuses."""
    n, dim = ys.shape
    m = constraint_set.residual_dim

    p = ys.copy()
    lam = np.zeros((n, m))
    best_kkt, best_p, best_lam = np.full(n, np.inf), p.copy(), lam.copy()  # what each point returns
    delta = np.zeros(n)
    status = np.full(n, MAX_ITERATIONS, dtype=object)
    iterations = np.zeros(n, dtype=int)
    nonfinite = ~np.all(np.isfinite(ys), axis=1)
    broken = nonfinite.copy()
    g_at, jac_at = np.full((n, m), np.nan), np.full((n, m, dim), np.nan)  # at p; NaN where a call raised
    act = np.flatnonzero(~broken)
    (g_at[act], jac_at[act]), _ = _evaluate(constraint_set.residual_and_jacobian, [(m,), (m, dim)], xs, act, p[act], failed=broken)
    residuals = partial(_evaluate, constraint_set.residual, (m,), xs)  # at trial points

    def move(rows, to, g_to):
        """Points ``rows`` to ``to`` (residuals ``g_to``): their Jacobians there, and the mask of calls that did not raise."""
        p[rows], g_at[rows] = to, g_to
        jac_at[rows], ok = _evaluate(constraint_set.jacobian, (m, dim), xs, rows, to, failed=broken)
        return ok

    target = max(1e-3, 10.0 * spec.tolerance)
    budget = spec.max_iterations // 2  # restoration steps a point may take
    restoring = np.zeros(n, dtype=bool)
    restoring[act] = (np.abs(g_at[act]).max(axis=1) > target) & (budget > 0)  # far from the manifold

    def decrease(rows, at, _):  # restoration's line search: strict decrease of ||g||^2
        g_trial, ok = residuals(rest[rows], at)
        return ok & np.all(np.isfinite(g_trial), axis=1) & (np.sum(g_trial * g_trial, axis=1) < psi0[rows]), at, g_trial

    def merit(rows, trial, mu):
        """Exact l1 penalty ||p - y||^2 + mu * ||g||_1 at trial points, and g.
        A squared penalty would need mu ~ 1/||g|| to accept steps whose
        objective must grow (the projection can lie farther from y than a
        nearby feasible iterate); the l1 form takes any mu above the multipliers."""
        g_trial, ok = residuals(rows, trial)
        ok &= np.all(np.isfinite(g_trial), axis=1)
        d = trial - ys[rows]
        phi = np.sum(d * d, axis=1) + mu * np.abs(g_trial).sum(axis=1)
        return np.where(ok, phi, np.inf), np.where(ok[:, None], g_trial, np.nan)

    def armijo(rows, at, length):
        """Sufficient decrease of the merit; a rejected full step first gets a
        second-order correction, which cancels the constraint curvature
        picked up over the step."""
        phi, g_trial = merit(act[rows], at, mu[rows])
        ok = phi <= bar0[rows] + _ARMIJO_C1 * length * descent[rows]
        if length[0] < 1.0:  # a backtracked pass: the correction is for full steps only
            return ok, at, g_trial
        soc = np.flatnonzero(~ok & np.all(np.isfinite(g_trial), axis=1))
        j_soc = jac[rows[soc]]
        correction, singular = _solve(j_soc @ j_soc.transpose(0, 2, 1), g_trial[soc])
        dq = -_matvec(j_soc.transpose(0, 2, 1), correction)
        valid = ~singular & np.all(np.isfinite(dq), axis=1)
        soc = soc[valid]
        corrected = at[soc] + dq[valid]
        phi_soc, g_soc = merit(act[rows[soc]], corrected, mu[rows[soc]])
        good = phi_soc <= bar0[rows[soc]] + _ARMIJO_C1 * descent[rows[soc]]
        ok[soc[good]], at[soc[good]], g_trial[soc[good]] = True, corrected[good], g_soc[good]
        return ok, at, g_trial

    act = np.flatnonzero(~broken)
    while act.size:
        # restoring points take a Gauss-Newton step on ||g||^2 alone, which
        # avoids the tug-of-war between distance and feasibility that stalls
        # merit line searches far from the manifold. Restoration ends near the
        # manifold, out of budget, or when the Gram system is singular, the
        # line search finds no decrease, or a constraint call raised.
        rest = act[restoring[act]]
        if rest.size:
            # row equilibration: violated laws can differ by many orders of
            # magnitude (scale clamps), which would make the Gram matrix singular
            row_scale = 1.0 / np.maximum(np.linalg.norm(jac_at[rest], axis=2), 1e-300)
            jac_eq = jac_at[rest] * row_scale[:, :, None]
            iterations[rest] += 1
            sol, singular = _solve(jac_eq @ jac_eq.transpose(0, 2, 1), g_at[rest] * row_scale)
            dp, step_len = _capped(-_matvec(jac_eq.transpose(0, 2, 1), sol))
            psi0 = np.sum(g_at[rest] * g_at[rest], axis=1)
            live = np.flatnonzero(~singular & np.isfinite(step_len) & (step_len > 1e-15))
            alpha, new_p, new_g = _backtrack(p[rest], g_at[rest], dp, live, decrease)
            moved = alpha > 0.0
            moved[moved] = move(rest[moved], new_p[moved], new_g[moved])
            restoring[rest] = moved & (iterations[rest] < budget) & (np.abs(g_at[rest]).max(axis=1) > target)
            best_p[rest] = p[rest]  # a point's result until its first KKT check

        # every other point takes its KKT check and Newton step, also in the pass
        # its restoration ends: waiting a pass would put it out of lockstep
        held, act = act[restoring[act]], act[~restoring[act]]
        g, jac = g_at[act], jac_at[act]
        ok = np.all(np.isfinite(g), axis=1) & np.all(np.isfinite(jac), axis=(1, 2))
        status[act[~ok]] = SINGULAR_SYSTEM  # no-op for broken points, whose result is y
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
        status[act[converged]] = CONVERGED
        spent = ~converged & (iterations[act] == spec.max_iterations)
        status[act[spent]] = MAX_ITERATIONS
        go = ~converged & ~spent
        act, g, jac, svals, vt, grad_obj = act[go], g[go], jac[go], svals[go], vt[go], grad_obj[go]

        # Lagrangian curvature for true Newton steps; harmless zeros at lam=0
        curvature, ok = _evaluate(constraint_set.lagrangian_hessian, (dim, dim), xs, act, p[act], lam[act], failed=broken)
        if not ok.all():
            act, g, jac, svals, vt, grad_obj, curvature = (a[ok] for a in (act, g, jac, svals, vt, grad_obj, curvature))
        curvature[~np.all(np.isfinite(curvature), axis=(1, 2))] = 0.0
        hessian = np.add(curvature, 2.0 * np.eye(dim), out=curvature)
        if m < dim:
            _convexify(hessian, svals, vt)
        dp = _newton_steps(hessian, jac, g, grad_obj, delta[act])
        p_a = p[act]

        # exact-penalty weight: a finite mu above the multiplier norm makes
        # the l1 merit accept every step the true problem wants; the
        # least-squares multiplier is the trustworthy estimate here
        mu = 2.0 * np.abs(lam[act]).max(axis=1) + 0.1
        jd = _matvec(jac, dp)
        descent = np.sum(grad_obj * dp, axis=1) + mu * np.where(g == 0.0, np.abs(jd), np.sign(g) * jd).sum(axis=1)
        d0 = p_a - ys[act]
        bar0 = np.sum(d0 * d0, axis=1) + mu * np.abs(g).sum(axis=1)  # merit at p
        # a step too small to matter means no usable primal direction at
        # this regularization: it goes straight to the delta bump below
        idle = np.abs(dp).max(axis=1) <= 1e-14 * (1.0 + np.abs(p_a).max(axis=1))
        alpha, new_p, new_g = _backtrack(p_a, g, dp, np.flatnonzero(~idle & (descent <= -1e-16)), armijo)

        moved = alpha > 0.0
        move(act[moved], new_p[moved], new_g[moved])
        shrink = act[alpha >= 0.5]
        delta[shrink] *= 0.1
        delta[shrink[delta[shrink] < 1e-14]] = 0.0
        bump = act[~moved]
        delta[bump] = np.maximum(delta[bump] * 10.0, 1e-10)
        status[bump[delta[bump] > _MAX_DELTA]] = SINGULAR_SYSTEM
        act = act[moved | (delta[act] <= _MAX_DELTA)]
        iterations[act] += 1
        act = np.union1d(held, act)

    # a point whose y is not finite, or whose own constraint calls raised, comes back unchanged
    best_p[broken], best_lam[broken], best_kkt[broken] = ys[broken], 0.0, np.inf
    iterations[broken], status[broken] = 0, SINGULAR_SYSTEM
    status[nonfinite] = NONFINITE_INPUT
    return best_p, best_lam, iterations.tolist(), best_kkt.tolist(), status
