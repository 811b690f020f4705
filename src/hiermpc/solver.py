"""In-house convex solvers: operator-splitting QP and dense simplex LP.

The QP path is ADMM with exact equality handling: equalities live inside the
x-update KKT system, set memberships are enforced by Euclidean projection in
the z-update.  The KKT matrix depends only on H, A_eq, the constraint index
layout and the penalty rho, so it is factored once per penalty value per
run, cached on the constant QP (`KKTFactors`); an iteration then costs one
LAPACK triangular solve on the cached factors plus vector arithmetic.  The
splitting state z, u is one flat vector over the concatenated index sets of
all constraints, so scatters into the x-update and the residuals are single
array operations, and each iteration projects once per constraint.  A
`BallConstraint` whose `indices` have shape (k, s) is a family of k balls of
one radius on the rows (the per-step input budgets of a horizon); it
projects all rows in one vectorized call.

Before ADMM, every solve tries the empty active set (the guess of OSQP's
solution polishing, tried first instead of last) through `equality_first`:
one solve on the rho = 0 factors, [[H, A_eq'], [A_eq, 0]], gives the
optimum of the equality-only problem.  If it is finite, lies inside every
set (violation exactly 0.0) and meets tol_primal on the equality residual
and tol_dual on stationarity, the KKT conditions hold with zero set
multipliers: it is returned as OPTIMAL with 0 iterations.  Otherwise ADMM
runs from x = 0.  A caller that knows an equivalent problem with
more equalities (a set that is a single point, written as equality rows)
can call `equality_first` on that problem before `solve_qp`.
Consequences that the controllers rely on:

  * every returned iterate satisfies A_eq x = b_eq to linear-solver accuracy,
  * set constraints are satisfied to tol_primal at termination,
  * the iterate sequence is a deterministic function of the problem.

The LP path is a two-phase tableau simplex with Bland's rule, then a
constraint-pinning pass that selects the lexicographically smallest
optimizer when the optimal face is not a single vertex.
"""
from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrs

from .errors import DimensionMismatch, UnboundedProblem

# ADMM over-relaxation factor.
_OVER_RELAXATION = 1.6
# The ellipsoid projection's Newton stop, relative to max(level, 1).
_NEWTON_TOL = 1e-12


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class BallConstraint:
    """||x[indices] - center|| <= radius.

    `indices` of shape (s,) is one ball; of shape (k, s) it is k balls of the
    same radius, one per row, with `center` None or of the same shape.
    `project` and `violation` take values shaped like `indices`.
    """

    indices: np.ndarray
    radius: float
    center: np.ndarray | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim not in (1, 2):
            raise DimensionMismatch("ball indices must have shape (s,) or (k, s)")
        object.__setattr__(self, "indices", idx)
        if self.center is not None:
            c = np.asarray(self.center, dtype=float)
            if c.shape != idx.shape:
                raise DimensionMismatch("ball center shape must match the indices")
            object.__setattr__(self, "center", c)
        if not math.isfinite(self.radius) or self.radius < 0:
            raise DimensionMismatch(
                f"ball radius must be finite and >= 0, got {self.radius}")

    def _offsets(self, v: np.ndarray):
        """The centre, each row's offset from it and the row norms (kept as
        a trailing axis of length 1)."""
        c = self.center if self.center is not None else 0.0
        d = v - c
        return c, d, np.sqrt(np.add.reduce(d * d, axis=-1, keepdims=True))

    def project(self, v: np.ndarray) -> np.ndarray:
        c, d, norm = self._offsets(v)
        outside = norm > self.radius
        if not outside.any():
            return v
        scale = np.divide(self.radius, norm, out=np.ones_like(norm), where=outside)
        return np.where(outside, c + d * scale, v)

    def violation(self, v: np.ndarray) -> float:
        """Largest distance of a row to its ball."""
        return max(0.0, float(self._offsets(v)[2].max()) - self.radius)


@dataclass(frozen=True)
class BoxConstraint:
    """lower <= x[indices] <= upper componentwise."""

    indices: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        lo = np.broadcast_to(np.asarray(self.lower, dtype=float), (idx.size,)).copy()
        hi = np.broadcast_to(np.asarray(self.upper, dtype=float), (idx.size,)).copy()
        if np.any(lo > hi):
            raise DimensionMismatch("box lower bound exceeds upper bound")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.clip(v, self.lower, self.upper)

    def violation(self, v: np.ndarray) -> float:
        return float(np.max(np.maximum(self.lower - v, v - self.upper), initial=0.0))


@dataclass(frozen=True)
class EllipsoidConstraint:
    """(x[indices] - center)' shape (x[indices] - center) <= level."""

    indices: np.ndarray
    shape: np.ndarray
    level: float
    center: np.ndarray | None = None
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        P = np.atleast_2d(np.asarray(self.shape, dtype=float))
        if P.shape != (idx.size, idx.size):
            raise DimensionMismatch("ellipsoid shape must match index count")
        if not math.isfinite(self.level) or self.level < 0:
            raise DimensionMismatch(
                f"ellipsoid level must be finite and >= 0, got {self.level}")
        lam, V = np.linalg.eigh(0.5 * (P + P.T))
        if lam[0] <= 0:
            raise DimensionMismatch("ellipsoid shape must be positive definite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "shape", P)
        object.__setattr__(self, "_eigvals", lam)
        object.__setattr__(self, "_eigvecs", V)
        if self.center is not None:
            c = np.asarray(self.center, dtype=float)
            if c.shape != (idx.size,):
                raise DimensionMismatch("ellipsoid center length must match index count")
            object.__setattr__(self, "center", c)

    def project(self, v: np.ndarray) -> np.ndarray:
        c = self.center if self.center is not None else np.zeros(self.indices.size)
        d = v - c
        value = float(d @ self.shape @ d)
        if value <= self.level:
            return v
        if self.level == 0.0:
            return np.array(c, dtype=float)
        # Projection solves y = (I + mu P)^{-1} d with mu > 0 the root of
        # phi(mu) = y' P y - level, found by safeguarded Newton in the
        # eigenbasis of P.
        lam, V = self._eigvals, self._eigvecs
        w = V.T @ d
        lw2 = lam * w * w

        def phi(mu):
            denom = 1.0 + mu * lam
            return float(np.sum(lw2 / (denom * denom))) - self.level

        def dphi(mu):
            denom = 1.0 + mu * lam
            return float(-2.0 * np.sum(lam * lw2 / (denom * denom * denom)))

        mu = 0.0
        hi = 1.0 / lam[0]
        while phi(hi) > 0:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            f = phi(mu)
            if abs(f) <= _NEWTON_TOL * max(self.level, 1.0):
                break
            if f > 0:
                lo = mu
            else:
                hi = mu
            step_mu = mu - f / dphi(mu)
            mu = step_mu if lo < step_mu < hi else 0.5 * (lo + hi)
        y = (V @ (w / (1.0 + mu * lam)))
        return c + y

    def violation(self, v: np.ndarray) -> float:
        c = self.center if self.center is not None else 0.0
        d = v - c
        value = float(d @ self.shape @ d)
        if value <= self.level:
            return 0.0
        # Report in distance units, consistent with the other families.
        return float(np.linalg.norm(v - self.project(v)))


SetConstraint = BallConstraint | BoxConstraint | EllipsoidConstraint


@dataclass(frozen=True)
class QuadraticProgram:
    """min 1/2 x'Hx + g'x  s.t.  A_eq x = b_eq, x[S_c] in C_c for each c.

    `factors` are the KKT factors of the problem's constant part; a problem
    without them gets a fresh, private `KKTFactors` when it is solved.
    """

    H: np.ndarray
    g: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    constraints: tuple = ()
    factors: KKTFactors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        g = np.asarray(self.g, dtype=float)
        d = g.shape[0]
        if H.shape != (d, d):
            raise DimensionMismatch(f"H must be {d}x{d}, got {H.shape}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        if (self.A_eq is None) != (self.b_eq is None):
            raise DimensionMismatch("A_eq and b_eq must be given together")
        if self.A_eq is not None:
            A = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            b = np.asarray(self.b_eq, dtype=float)
            if A.shape[1] != d or A.shape[0] != b.shape[0]:
                raise DimensionMismatch("equality constraint dimensions inconsistent")
            object.__setattr__(self, "A_eq", A)
            object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    objective: float
    status: Status
    primal_residual: float
    dual_residual: float
    iterations: int


def _kkt_factor(H_aug: np.ndarray, A_eq: np.ndarray | None):
    if A_eq is None:
        return scipy.linalg.lu_factor(H_aug)
    r = A_eq.shape[0]
    d = H_aug.shape[0]
    K = np.zeros((d + r, d + r))
    K[:d, :d] = H_aug
    K[:d, d:] = A_eq.T
    K[d:, :d] = A_eq
    return scipy.linalg.lu_factor(K)


def _kkt_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """LAPACK getrs on LU factors; what `scipy.linalg.lu_solve` calls,
    without its argument checks."""
    lu, piv = factor
    return dgetrs(lu, piv, rhs)[0]


def _same(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector, as `np.linalg.norm` computes it."""
    return math.sqrt(v @ v)


class KKTFactors:
    """LU factors of the ADMM x-update KKT matrix of one constant QP.

    The matrix [[H + rho S'S, A_eq'], [A_eq, 0]] depends on H, A_eq, the
    constraint index layout (through S'S) and the penalty rho, but not on
    g, b_eq or the constraint sets' radii and centres.  A controller that
    solves the same QP every tick builds one `KKTFactors` and passes it with
    each problem; `solve_qp` factors once per penalty value it has not seen
    (rho = 0 is the equality-only system of the first solve) and refuses a
    problem whose H, A_eq or layout differ from the record.
    """

    def __init__(self, H: np.ndarray, A_eq: np.ndarray | None, layout):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.A_eq = None if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
        self.layout = tuple(np.asarray(s, dtype=int) for s in layout)
        d = self.H.shape[0]
        # Flat splitting state: constraint c owns z[bounds[c]:bounds[c + 1]],
        # laid out like its (raveled) indices.
        self.idx = np.concatenate([s.ravel() for s in self.layout]
                                  or [np.zeros(0, dtype=int)])
        self.bounds = np.cumsum([0] + [s.size for s in self.layout])
        self.S_terms = np.diag(np.bincount(self.idx, minlength=d).astype(float))
        diag_scale = float(np.mean(np.abs(np.diag(self.H))))
        self.rho_init = diag_scale if diag_scale > 0 else 1.0
        self.by_rho = {}

    def check(self, problem: QuadraticProgram) -> None:
        cons = problem.constraints
        if not (_same(problem.H, self.H) and _same(problem.A_eq, self.A_eq)
                and len(cons) == len(self.layout)
                and all(_same(c.indices, s) for c, s in zip(cons, self.layout))):
            raise DimensionMismatch("KKT factors were built for another H, A_eq "
                                    "or constraint index layout")

    def factor(self, rho: float):
        factor = self.by_rho.get(rho)
        if factor is None:
            H_aug = self.H + rho * self.S_terms if self.layout else self.H
            with warnings.catch_warnings():
                if rho == 0.0 and self.layout:
                    # Only a guess: when the sets are what make the problem
                    # well posed, a singular system just sends the solve to
                    # ADMM.
                    warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                factor = self.by_rho[rho] = _kkt_factor(H_aug, self.A_eq)
        return factor

    @functools.cached_property
    def multiplier_map(self) -> np.ndarray:
        """Least-squares operator of A_eq', pinv(A_eq'): the equality
        multipliers that best close a stationarity gap are map @ (-gap)."""
        return np.linalg.pinv(self.A_eq.T)


def equality_first(problem: QuadraticProgram, kkt: KKTFactors,
                   tol_primal: float = 1e-8,
                   tol_dual: float = 1e-8) -> SolveResult | None:
    """The optimum of `problem` with no set active, if it is the optimum.

    One solve on the rho = 0 factors of `kkt`, [[H, A_eq'], [A_eq, 0]],
    gives the equality-only optimum and its multipliers.  Without sets it is
    the answer, since there is nothing else to try.  With sets it is
    returned only if it is finite, lies inside every set (violation exactly
    0.0) and meets tol_primal on the equality residual and tol_dual on
    stationarity: then the KKT conditions hold with zero set multipliers.
    The result has 0 iterations; None means the sets matter.  Raises
    DimensionMismatch when `kkt` was built for another H, A_eq or
    constraint layout.
    """
    kkt.check(problem)
    d = problem.dim
    cons = problem.constraints
    r = 0 if problem.A_eq is None else problem.A_eq.shape[0]
    rhs = np.concatenate([-problem.g, problem.b_eq]) if r else -problem.g
    sol = _kkt_solve(kkt.factor(0.0), rhs)
    x = sol[:d]
    if cons and not (np.isfinite(sol).all()
                     and all(c.violation(x[c.indices]) == 0.0 for c in cons)):
        return None
    eq_res = (float(np.max(np.abs(problem.A_eq @ x - problem.b_eq)))
              if r else 0.0)
    grad = problem.H @ x + problem.g
    if r:
        grad = grad + problem.A_eq.T @ sol[d:]
    dual_res = float(np.max(np.abs(grad)))
    if cons and not (eq_res <= tol_primal and dual_res <= tol_dual):
        return None
    obj = 0.5 * float(x @ problem.H @ x) + float(problem.g @ x)
    return SolveResult(x, obj, Status.OPTIMAL, eq_res, dual_res, 0)


def solve_qp(problem: QuadraticProgram,
             tol_primal: float = 1e-8,
             tol_dual: float = 1e-8,
             max_iters: int = 50_000) -> SolveResult:
    """`equality_first`, then ADMM; see module docstring for the splitting
    and its guarantees.  `iterations` is 0 when the equality-only optimum
    was the answer.

    Infeasibility is declared when the iterate displacement settles on a
    nonzero direction while residuals stay above 1e3*tol for 500 consecutive
    iterations.  That is a stall heuristic, not a certificate, and it gives
    false positives on feasible, ill-conditioned problems: the
    `highlevel.feasibility_gap` QP of `test_solve_hl_infeasible_reports_gap`
    is feasible at x = 0 and comes back INFEASIBLE.  Raises DimensionMismatch
    when `problem.factors` were built for another H, A_eq or constraint
    layout.
    """
    d = problem.dim
    cons = problem.constraints
    kkt = problem.factors
    if kkt is None:
        kkt = KKTFactors(problem.H, problem.A_eq, [c.indices for c in cons])
    first = equality_first(problem, kkt, tol_primal, tol_dual)
    if first is not None:
        return first
    r = 0 if problem.A_eq is None else problem.A_eq.shape[0]

    rho = rho_init = kkt.rho_init
    idx = kkt.idx
    parts = [(c, slice(lo, hi))
             for c, lo, hi in zip(cons, kkt.bounds[:-1], kkt.bounds[1:])]
    factor = kkt.factor(rho)
    rhs = np.empty(d + r)
    if r:
        rhs[d:] = problem.b_eq

    x = np.zeros(d)
    z = x[idx]
    u = np.zeros(idx.size)

    alpha = _OVER_RELAXATION
    stall_count = 0
    prev_disp = None
    status = Status.MAX_ITERS
    it = 0
    for it in range(1, max_iters + 1):
        np.subtract(np.bincount(idx, weights=rho * (z - u), minlength=d),
                    problem.g, out=rhs[:d])
        x = _kkt_solve(factor, rhs)[:d]

        sx = x[idx]
        h = alpha * sx + (1.0 - alpha) * z
        v = h + u
        z_new = np.empty_like(z)
        for c, part in parts:
            z_new[part] = c.project(v[part].reshape(c.indices.shape)).ravel()
        u += h - z_new

        primal = _norm(sx - z_new)
        dual = rho * _norm(z_new - z)
        z = z_new

        if primal <= tol_primal and dual <= tol_dual:
            status = Status.OPTIMAL
            break

        if it % 5 == 0:
            if prev_disp is not None:
                move = _norm(z - prev_disp)
                if (move <= 1e-10 * (1.0 + _norm(z))
                        and primal > 1e3 * tol_primal):
                    stall_count += 5
                else:
                    stall_count = 0
            prev_disp = z
        if stall_count >= 500:
            status = Status.INFEASIBLE
            break

        # Residual balancing; frozen while a stagnation streak is being
        # measured so the divergence certificate is not perturbed.
        if it % 25 == 0 and stall_count == 0:
            if primal > 10.0 * dual and dual > 0 and rho < 1e8 * rho_init:
                rho *= 2.0
                u /= 2.0
                factor = kkt.factor(rho)
            elif dual > 10.0 * primal and primal >= 0 and rho > 1e-8 * rho_init:
                rho /= 2.0
                u *= 2.0
                factor = kkt.factor(rho)

    obj = 0.5 * float(x @ problem.H @ x) + float(problem.g @ x)
    set_violation = max(c.violation(x[c.indices]) for c in cons)
    eq_violation = (float(np.max(np.abs(problem.A_eq @ x - problem.b_eq)))
                    if r else 0.0)
    primal_res = max(set_violation, eq_violation)
    grad = problem.H @ x + problem.g + np.bincount(idx, weights=rho * u, minlength=d)
    if r:
        # Recover equality multipliers by least squares on the stationarity gap.
        grad = grad + problem.A_eq.T @ (kkt.multiplier_map @ -grad)
    dual_res = float(np.max(np.abs(grad)))
    if status is Status.OPTIMAL and primal_res > 10 * tol_primal:
        status = Status.MAX_ITERS
    return SolveResult(x, obj, status, primal_res, dual_res, it)


# ---------------------------------------------------------------------------
# Linear programming


def _simplex_tableau(c_min: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray,
                     tol: float = 1e-11):
    """min c_min'y s.t. A_ub y <= b_ub, y >= 0; two-phase, Bland's rule.

    Returns (y, duals, objective) or raises UnboundedProblem; returns None
    for an infeasible program.
    """
    m, n = A_ub.shape
    A = A_ub.copy().astype(float)
    b = b_ub.copy().astype(float)
    # Slack form A y + s = b with s >= 0; rows with b < 0 get artificials.
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    slack_sign = np.where(neg, -1.0, 1.0)
    n_art = int(np.sum(neg))

    total = n + m + n_art
    T = np.zeros((m, total))
    T[:, :n] = A
    T[:, n:n + m] = np.diag(slack_sign)
    art_cols = []
    k = 0
    basis = np.empty(m, dtype=int)
    for i in range(m):
        if neg[i]:
            col = n + m + k
            T[i, col] = 1.0
            art_cols.append(col)
            basis[i] = col
            k += 1
        else:
            basis[i] = n + i
    rhs = b.copy()

    def pivot(T, rhs, basis, row, col):
        piv = T[row, col]
        T[row] /= piv
        rhs[row] /= piv
        for i in range(T.shape[0]):
            if i != row and T[i, col] != 0.0:
                rhs[i] -= T[i, col] * rhs[row]
                T[i] -= T[i, col] * T[row]
        basis[row] = col

    def run_phase(cost):
        while True:
            # Reduced costs via the basic cost row.
            cb = cost[basis]
            reduced = cost - cb @ T
            entering = -1
            for j in range(total):
                if j in blocked:
                    continue
                if reduced[j] < -tol:
                    entering = j
                    break  # Bland: smallest index
            if entering < 0:
                return cb @ rhs
            ratios = np.full(m, np.inf)
            pos = T[:, entering] > tol
            ratios[pos] = rhs[pos] / T[pos, entering]
            if not np.any(pos):
                raise UnboundedProblem("objective unbounded below on the feasible set")
            row = -1
            best = np.inf
            for i in range(m):
                if pos[i] and (ratios[i] < best - tol
                               or (abs(ratios[i] - best) <= tol
                                   and (row < 0 or basis[i] < basis[row]))):
                    best = ratios[i]
                    row = i
            pivot(T, rhs, basis, row, entering)

    blocked: set = set()
    if n_art:
        phase1 = np.zeros(total)
        phase1[art_cols] = 1.0
        val = run_phase(phase1)
        if val > 1e-9 * max(1.0, float(np.max(np.abs(b)))):
            return None
        # Drive any artificial still basic out of the basis.
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(n + m):
                    if abs(T[i, j]) > tol:
                        pivot(T, rhs, basis, i, j)
                        break
        blocked = set(art_cols)

    cost = np.zeros(total)
    cost[:n] = c_min
    run_phase(cost)

    y = np.zeros(total)
    y[basis] = rhs
    cb = cost[basis]
    reduced = cost - cb @ T
    duals = reduced[n:n + m] * slack_sign  # slack reduced costs = dual values
    return y[:n], duals, float(cost[:n] @ y[:n])


def solve_lp(c: np.ndarray, A_in: np.ndarray, b_in: np.ndarray,
             lower_bounds: np.ndarray) -> SolveResult:
    """max c'x s.t. A_in x <= b_in, x >= lower_bounds.

    On a non-unique optimal face, the lexicographically smallest optimizer is
    selected by re-solving with one coordinate pinned per pass.  Raises
    UnboundedProblem when the objective is unbounded on the feasible set.
    """
    c = np.asarray(c, dtype=float)
    A_in = np.atleast_2d(np.asarray(A_in, dtype=float))
    b_in = np.asarray(b_in, dtype=float)
    lb = np.asarray(lower_bounds, dtype=float)
    d = c.shape[0]
    if A_in.shape[1] != d or A_in.shape[0] != b_in.shape[0] or lb.shape[0] != d:
        raise DimensionMismatch("LP data dimensions inconsistent")

    def solve_shifted(c_obj, A, b):
        # y = x - lb >= 0
        out = _simplex_tableau(-c_obj, A, b - A @ lb)
        if out is None:
            return None
        y, duals, _ = out
        return y + lb, duals

    out = solve_shifted(c, A_in, b_in)
    if out is None:
        return SolveResult(np.full(d, np.nan), np.nan, Status.INFEASIBLE,
                           np.nan, np.nan, 0)
    x, duals = out

    # Pin the objective, then minimize coordinates one at a time.  Pins are
    # exact; roundoff-level violations are absorbed by the phase-1
    # feasibility tolerance.
    A_aug = np.vstack([A_in, -c[None, :]])
    b_aug = np.concatenate([b_in, [-float(c @ x)]])
    for j in range(d):
        e = np.zeros(d)
        e[j] = -1.0  # maximize -x_j == minimize x_j
        out_j = solve_shifted(e, A_aug, b_aug)
        if out_j is None:
            break
        xj = out_j[0]
        pin = np.zeros(d)
        pin[j] = 1.0
        A_aug = np.vstack([A_aug, pin[None, :]])
        b_aug = np.concatenate([b_aug, [xj[j]]])
        x = xj
    objective = float(c @ x)

    slack = b_in - A_in @ x
    primal = float(max(np.max(-slack, initial=0.0), np.max(lb - x, initial=0.0)))
    comp = float(np.max(np.abs(duals * slack), initial=0.0)) if duals.size else 0.0
    return SolveResult(x, objective, Status.OPTIMAL, primal, comp, 1)
