"""Nearest-point projection onto a constraint manifold, batched over points.

Solves  minimize ||p - y||^2  subject to g(x, p) = 0  by damped Newton
iteration on the first-order optimality system

    2 (p - y) + J(p)^T lam = 0,      g(x, p) = 0.

The points of a batch iterate in lockstep, in blocks whose temporaries fit a
memory budget in bytes (a 300-point batch of 17-dimensional points is one
block). A block is one record with a row per point. Each lockstep iteration
makes two passes over it, each stacked over the points in its phase (a phase
with no points is skipped); a pass's temporaries are freed when it returns:

1. Restoration: a point far from the manifold takes Gauss-Newton steps on
   ||g||^2 alone, at most half of ``max_iterations`` (``iterations`` counts
   both kinds of step).
2. Newton: every other point checks the KKT conditions with least-squares
   multipliers and, unless it converged or spent its budget, steps on the
   saddle-point system with the exact Lagrangian curvature (convexified on
   the constraint tangent space when indefinite), capped, backtracking on the
   exact l1 penalty ||p - y||^2 + mu * ||g||_1, with a second-order
   correction before giving up on a full step. A small multiple ``delta`` of
   the identity regularizes the system: it grows tenfold after a step that
   did not move the point (a singular system gives a zero step) until the
   point ends ``singular_system`` above ``_MAX_DELTA``, and shrinks again as
   steps succeed.

Each iterate is evaluated once: its residual comes from the line-search
trial that found it, its Jacobian from one call when it is accepted, and the
start's both from one ``residual_and_jacobian`` call. A line search tries all
its step lengths in two constraint calls (``_backtrack``). Problems are tiny
(<= 17 variables, <= 3 constraints): dense algebra is plenty.

Starting from p0 = y means an already-feasible prediction is returned
unchanged in zero iterations, and the solver finds the local solution on
y's side of the manifold; no global search is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from physproj.errors import PhysprojError, ValidationError

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
SINGULAR_SYSTEM = "singular_system"
NONFINITE_INPUT = "nonfinite_input"

_ARMIJO_C1 = 1e-4
_SHORTER = 0.5 ** np.arange(1, 40)  # the step lengths after a rejected full step: halvings down to 2^-39 >= 1e-12
_MAX_DELTA = 1e6
_STEP_CAP = 2.0  # outputs live on a [-1, 1]-ish scale; bound each Newton step
_BLOCK_BYTES = 2**22  # a block's temporaries: bounds memory, and holds a 300-point LTP batch whole
_POINT_MATRICES = 4  # a point's temporaries in saddle-point matrices (tracemalloc peak: 10.6 KB per LTP point)
_TRIAL_VECTORS = 16  # budget per line-search trial in output vectors: its ~4 temporaries fit a quarter of the block's


@dataclass(frozen=True)
class ProjectionSpec:
    """Solver settings."""

    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 < self.tolerance < float("inf"):  # NaN: no point could converge; inf: every point would, unmoved
            raise ValidationError("tolerance must be positive and finite")
        # a fractional budget is never reached exactly, so its solves would never end
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise ValidationError("max_iterations must be an integer >= 1")


@dataclass
class ProjectionResult:
    """One point's projection (``project``), or a batch's with one row per point (``project_batch``).

    ``status`` by cause. ``converged``: a KKT check met the tolerance.
    ``max_iterations``: a KKT check found the budget spent. ``singular_system``:
    the iterate's residual or Jacobian is not finite; the point's own
    constraint calls raised (it returns y, 0 iterations, zero multipliers); or
    ``delta`` passed ``_MAX_DELTA``, a stall where no Newton step moved the point.
    ``nonfinite_input`` (``project_batch`` only): y is not finite (returned as y)."""

    projected: np.ndarray  # (dim,) or (n, dim): the returned iterate, normalized
    multipliers: np.ndarray  # (m,) or (n, m): its least-squares multipliers, 0 where none was estimated
    iterations: int | np.ndarray  # or (n,) int: restoration plus Newton steps
    kkt_norm: float | np.ndarray  # or (n,) float: max of the stationarity and feasibility norms, inf if never checked
    status: str | np.ndarray  # or (n,) of str: CONVERGED, MAX_ITERATIONS, SINGULAR_SYSTEM or NONFINITE_INPUT


def kkt_residual(p, lam, y, constraint_set, input_x, spec: ProjectionSpec) -> tuple[float, float]:
    """Infinity norms of (stationarity, feasibility) at (p, lam).

    ``spec`` is unused, since the projection metric is plain Euclidean; the
    parameter stays because tests/test_acceptance.py (criterion 5) passes it
    positionally.
    """
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


def _backtrack(p, g, dp, pending, accept, full=None):
    """Step lengths 1, 1/2, 1/4, ..., 2^-39 along the rows ``pending`` of ``dp``
    from ``p`` (residuals ``g``): each row takes the first length whose trial
    ``accept(rows, trials, lengths)`` passes (it returns the mask, points and
    residuals). The full step is judged in one call, by ``full`` if given (the
    Newton search's adds its second-order correction there). The rows it
    rejects try every shorter length at once in a second call (split into
    chunks that keep ``_BLOCK_BYTES``), so a line search evaluates more rows
    than a halving loop would, in fewer calls. Returns the accepted lengths
    (0: none), and the points and residuals (unmoved: ``p``, ``g``)."""
    alpha, new_p, new_g = np.zeros(len(p)), p.copy(), g.copy()
    if not pending.size:
        return alpha, new_p, new_g
    ok, at, g_at = (full or accept)(pending, p[pending] + dp[pending], np.ones(pending.size))
    alpha[pending[ok]], new_p[pending[ok]], new_g[pending[ok]] = 1.0, at[ok], g_at[ok]
    rejected, n = pending[~ok], _SHORTER.size
    chunk = max(1, _BLOCK_BYTES // (_TRIAL_VECTORS * 8 * p.shape[1] * n))  # rejected rows per call
    for lo in range(0, rejected.size, chunk):
        rows = rejected[lo : lo + chunk]
        trials = np.multiply(_SHORTER[:, None], dp[rows, None])
        trials += p[rows, None]
        ok, at, g_at = accept(np.repeat(rows, n), trials.reshape(-1, p.shape[1]), np.tile(_SHORTER, rows.size))
        ok = ok.reshape(rows.size, n)
        first, took = ok.argmax(axis=1), ok.any(axis=1)
        pick = (np.arange(rows.size) * n + first)[took]
        alpha[rows[took]], new_p[rows[took]], new_g[rows[took]] = _SHORTER[first[took]], at[pick], g_at[pick]
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
    r = project_batch(y[None, :], constraint_set, input_x, spec)
    return ProjectionResult(r.projected[0], r.multipliers[0], int(r.iterations[0]), float(r.kkt_norm[0]), str(r.status[0]))


def project_batch(ys, constraint_set, inputs_x=None, spec: ProjectionSpec = ProjectionSpec()) -> ProjectionResult:
    """Independent projections of the rows of ``ys``: one ProjectionResult whose
    fields hold a row per point, in input order. Failures never abort the batch.

    Row i of ``inputs_x`` is the constraint input of point i. Points are
    solved in lockstep blocks whose temporaries fit ``_BLOCK_BYTES``, so
    memory does not grow with the batch. A point's result does not depend on
    its batch or block as long as the constraint set computes rows independently."""
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    xs = None if inputs_x is None else np.atleast_2d(np.asarray(inputs_x, dtype=np.float64))
    if xs is not None and len(xs) != len(ys):
        raise ValidationError("inputs_x length does not match ys")
    size = max(1, _BLOCK_BYTES // (_POINT_MATRICES * 8 * (ys.shape[1] + constraint_set.residual_dim) ** 2))
    blocks = [_project_block(ys[lo : lo + size], None if xs is None else xs[lo : lo + size], constraint_set, spec)
              for lo in range(0, max(len(ys), 1), size)]  # an empty batch is one empty block
    return ProjectionResult(*(np.concatenate(field) for field in zip(*blocks)))


def _project_block(ys, xs, constraint_set, spec: ProjectionSpec):
    """Lockstep solve of one block: points, multipliers, iterations, KKT norms, statuses."""
    b = _Block(ys, xs, constraint_set, spec)
    while b.running.any():
        # restoration first, so a point whose restoration ends takes its Newton step in the same iteration
        for run_pass, restoring in ((_restoration_pass, True), (_newton_pass, False)):
            rows = np.flatnonzero(b.running & (b.restoring == restoring))
            if rows.size:
                run_pass(b, rows)
    # a point whose y is not finite, or whose own constraint calls raised, comes back unchanged
    b.best_p[b.broken], b.best_lam[b.broken], b.best_kkt[b.broken] = ys[b.broken], 0.0, np.inf
    b.iterations[b.broken], b.status[b.broken] = 0, SINGULAR_SYSTEM
    b.status[~np.all(np.isfinite(ys), axis=1)] = NONFINITE_INPUT
    return b.best_p, b.best_lam, b.iterations, b.best_kkt, b.status


class _Block:
    """One block's solver state, a row per point: the iterate ``p`` with its
    residuals ``g_at`` and Jacobians ``jac_at`` (NaN where a call raised), the
    multipliers, the best iterate (what a point returns), ``delta``, status and
    iterations. A point is ``running`` until it converges or fails, ``restoring``
    while in restoration, and ``broken`` once its own constraint calls raised."""

    def __init__(self, ys, xs, constraint_set, spec: ProjectionSpec):
        (n, dim), m = ys.shape, constraint_set.residual_dim
        self.ys, self.xs, self.cs, self.spec = ys, xs, constraint_set, spec
        self.p, self.lam = ys.copy(), np.zeros((n, m))
        self.best_kkt, self.best_p, self.best_lam = np.full(n, np.inf), ys.copy(), np.zeros((n, m))
        self.delta, self.iterations = np.zeros(n), np.zeros(n, dtype=int)
        self.status = np.full(n, MAX_ITERATIONS, dtype=object)  # kept by a point that spends its budget
        self.broken = ~np.all(np.isfinite(ys), axis=1)
        self.g_at, self.jac_at = np.full((n, m), np.nan), np.full((n, m, dim), np.nan)  # at p
        rows = np.flatnonzero(~self.broken)
        (self.g_at[rows], self.jac_at[rows]), _ = self.evaluate(constraint_set.residual_and_jacobian, [(m,), (m, dim)], rows, self.p[rows])
        self.running = ~self.broken
        self.target, self.budget = max(1e-3, 10.0 * spec.tolerance), spec.max_iterations // 2  # of restoration
        self.restoring = self.running & (np.abs(self.g_at).max(axis=1) > self.target) & (self.budget > 0)  # far from the manifold

    def evaluate(self, fn, shape, rows, *args, breaks=True):
        """``fn(x, *args)`` on the points ``rows``: the values, and the mask of points it did not raise on."""
        out, raised = _rows(fn, shape, PhysprojError, None if self.xs is None else self.xs[rows], *args)
        self.broken[rows[raised & breaks]] = True  # breaks=False: a raise rejects a trial, not its point
        return out, ~raised

    def move(self, rows, to, g_to):
        """Points ``rows`` to ``to`` (residuals ``g_to``): their Jacobians there, and the mask of calls that did not raise."""
        self.p[rows], self.g_at[rows] = to, g_to
        self.jac_at[rows], ok = self.evaluate(self.cs.jacobian, self.jac_at.shape[1:], rows, to)
        return ok

    def kkt_check(self, rows):
        """Multipliers and KKT norms of the points ``rows``, which stop running if done: the
        rows, g, J, singular values, V^T and objective gradients of the others."""
        g, jac = self.g_at[rows], self.jac_at[rows]
        ok = np.all(np.isfinite(g), axis=1) & np.all(np.isfinite(jac), axis=(1, 2))
        self.status[rows[~ok]], self.running[rows[~ok]] = SINGULAR_SYSTEM, False  # a broken point returns y anyway
        rows, g, jac = rows[ok], g[ok], jac[ok]
        # multipliers are always the least-squares estimate for the current point, so the
        # dual never lags behind partial primal steps; the minimum-norm solution of
        # J^T lam = -2 (p - y) comes from the SVD of J, with lstsq's default cutoff
        u, svals, vt = np.linalg.svd(jac)
        grad_obj = 2.0 * (self.p[rows] - self.ys[rows])
        keep = svals > np.finfo(np.float64).eps * max(jac.shape[1:]) * svals[:, :1]
        inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=keep)
        r = svals.shape[1]
        self.lam[rows] = _matvec(u[:, :, :r], _matvec(vt[:, :r], -grad_obj) * inv)
        stationarity = grad_obj + _matvec(jac.transpose(0, 2, 1), self.lam[rows])
        kkt = np.maximum(np.abs(stationarity).max(axis=1), np.abs(g).max(axis=1))
        converged = kkt <= self.spec.tolerance
        better = (kkt < self.best_kkt[rows]) | converged  # a converged point returns its last iterate
        best = rows[better]
        self.best_kkt[best], self.best_p[best], self.best_lam[best] = kkt[better], self.p[best], self.lam[best]
        self.status[rows[converged]] = CONVERGED
        go = ~converged & (self.iterations[rows] < self.spec.max_iterations)  # the others spent their budget
        self.running[rows[~go]] = False
        return rows[go], g[go], jac[go], svals[go], vt[go], grad_obj[go]


def _restoration_pass(b: _Block, rows):
    """A Gauss-Newton step on ||g||^2 alone for the points ``rows``, free of the tug-of-war
    between distance and feasibility that stalls merit line searches far from the manifold.
    Restoration ends near the manifold, out of budget, or when the Gram system is singular,
    the line search finds no decrease, or a constraint call raised."""
    # row equilibration: violated laws can differ by many orders of
    # magnitude (scale clamps), which would make the Gram matrix singular
    row_scale = 1.0 / np.maximum(np.linalg.norm(b.jac_at[rows], axis=2), 1e-300)
    jac_eq = b.jac_at[rows] * row_scale[:, :, None]
    b.iterations[rows] += 1
    sol, singular = _solve(jac_eq @ jac_eq.transpose(0, 2, 1), b.g_at[rows] * row_scale)
    dp, step_len = _capped(-_matvec(jac_eq.transpose(0, 2, 1), sol))
    psi0 = np.sum(b.g_at[rows] * b.g_at[rows], axis=1)

    def decrease(pending, at, _):  # the line search: strict decrease of ||g||^2
        g_trial, ok = b.evaluate(b.cs.residual, b.g_at.shape[1:], rows[pending], at, breaks=False)
        return ok & np.all(np.isfinite(g_trial), axis=1) & (np.sum(g_trial * g_trial, axis=1) < psi0[pending]), at, g_trial

    live = np.flatnonzero(~singular & np.isfinite(step_len) & (step_len > 1e-15))
    alpha, new_p, new_g = _backtrack(b.p[rows], b.g_at[rows], dp, live, decrease)
    moved = alpha > 0.0
    moved[moved] = b.move(rows[moved], new_p[moved], new_g[moved])
    b.restoring[rows] = moved & (b.iterations[rows] < b.budget) & (np.abs(b.g_at[rows]).max(axis=1) > b.target)
    b.best_p[rows] = b.p[rows]  # a point's result until its first KKT check


def _newton_pass(b: _Block, rows):
    """The KKT check of the points ``rows``, then a Newton step for each that goes on."""
    rows, g, jac, svals, vt, grad_obj = b.kkt_check(rows)
    if not rows.size:
        return
    # Lagrangian curvature for true Newton steps; harmless zeros at lam=0
    dim = b.p.shape[1]
    curvature, ok = b.evaluate(b.cs.lagrangian_hessian, (dim, dim), rows, b.p[rows], b.lam[rows])
    if not ok.all():
        b.running[rows[~ok]] = False
        rows, g, jac, svals, vt, grad_obj, curvature = (a[ok] for a in (rows, g, jac, svals, vt, grad_obj, curvature))
    curvature[~np.all(np.isfinite(curvature), axis=(1, 2))] = 0.0
    hessian = np.add(curvature, 2.0 * np.eye(dim), out=curvature)
    if jac.shape[1] < dim:
        _convexify(hessian, svals, vt)
    dp = _newton_steps(hessian, jac, g, grad_obj, b.delta[rows])
    p = b.p[rows]

    # merit: the exact l1 penalty ||p - y||^2 + mu * ||g||_1. A squared one would
    # need mu ~ 1/||g|| to accept steps whose objective must grow (the projection
    # can lie farther from y than a nearby feasible iterate); the l1 form takes
    # any finite mu above the multipliers, best estimated by least squares
    mu = 2.0 * np.abs(b.lam[rows]).max(axis=1) + 0.1
    jd = _matvec(jac, dp)
    descent = np.sum(grad_obj * dp, axis=1) + mu * np.where(g == 0.0, np.abs(jd), np.sign(g) * jd).sum(axis=1)
    d0 = p - b.ys[rows]
    bar0 = np.sum(d0 * d0, axis=1) + mu * np.abs(g).sum(axis=1)  # merit at p

    def armijo(pending, at, length):  # the line search: sufficient decrease of the merit
        g_trial, ok = b.evaluate(b.cs.residual, b.g_at.shape[1:], rows[pending], at, breaks=False)
        ok &= np.all(np.isfinite(g_trial), axis=1)
        d = at - b.ys[rows[pending]]
        phi = np.where(ok, np.sum(d * d, axis=1) + mu[pending] * np.abs(g_trial).sum(axis=1), np.inf)
        return phi <= bar0[pending] + _ARMIJO_C1 * length * descent[pending], at, np.where(ok[:, None], g_trial, np.nan)

    # a rejected full step first gets a second-order correction, which
    # cancels the constraint curvature picked up over the step
    def full_step(pending, at, length):
        ok, at, g_trial = armijo(pending, at, length)
        soc = np.flatnonzero(~ok & np.all(np.isfinite(g_trial), axis=1))
        j_soc = jac[pending[soc]]
        correction, singular = _solve(j_soc @ j_soc.transpose(0, 2, 1), g_trial[soc])
        dq = -_matvec(j_soc.transpose(0, 2, 1), correction)
        valid = ~singular & np.all(np.isfinite(dq), axis=1)
        soc = soc[valid]
        good, corrected, g_soc = armijo(pending[soc], at[soc] + dq[valid], length[soc])
        ok[soc[good]], at[soc[good]], g_trial[soc[good]] = True, corrected[good], g_soc[good]
        return ok, at, g_trial

    # a step too small to matter means no usable primal direction at
    # this regularization: it goes straight to the delta bump below
    idle = np.abs(dp).max(axis=1) <= 1e-14 * (1.0 + np.abs(p).max(axis=1))
    alpha, new_p, new_g = _backtrack(p, g, dp, np.flatnonzero(~idle & (descent <= -1e-16)), armijo, full_step)
    moved = alpha > 0.0
    b.move(rows[moved], new_p[moved], new_g[moved])
    shrink = rows[alpha >= 0.5]
    b.delta[shrink] *= 0.1
    b.delta[shrink[b.delta[shrink] < 1e-14]] = 0.0
    bump = rows[~moved]
    b.delta[bump] = np.maximum(b.delta[bump] * 10.0, 1e-10)
    go = moved | (b.delta[rows] <= _MAX_DELTA)
    b.status[rows[~go]], b.running[rows[~go]] = SINGULAR_SYSTEM, False
    b.iterations[rows[go]] += 1
