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
multipliers: it is returned as OPTIMAL with 0 iterations and a read-only x.
Otherwise ADMM runs from x = 0.  `KKTFactors` keeps the last equality-only
solve with its residuals and objective, keyed on the bytes of g and b_eq,
so a controller whose g and b_eq stay the same from tick to tick (only a
set's centre moves) solves that system once and then only checks the sets.
A problem without sets whose equality-only solve is not finite (a singular
KKT system) raises UnboundedProblem: there is no other solve to fall back
on.  A caller that knows an equivalent problem with more equalities (a set
that is a single point, written as equality rows) can call
`equality_first` on that problem before `solve_qp`.
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

    def project(self, v: np.ndarray) -> np.ndarray:
        d = v if self.center is None else v - self.center
        sq = np.add.reduce(d * d, axis=-1, keepdims=True)
        # The root of the largest squared norm is the largest row norm (a
        # NaN row, never outside, is passed over as the comparison would).
        largest = math.sqrt(float(np.fmax.reduce(sq, axis=None)))
        if not largest > self.radius:
            return v
        c = self.center if self.center is not None else 0.0
        if v.ndim == 1:
            return c + d * (self.radius / largest)
        norm = np.sqrt(sq)
        # Rows outside have norm > radius >= 0; the others, whose scale is
        # not used, get radius / radius, or 0 on a ball of radius 0.
        scale = (self.radius / np.maximum(norm, self.radius) if self.radius
                 else 0.0)
        return np.where(norm > self.radius, c + d * scale, v)

    def violation(self, v: np.ndarray) -> float:
        """Largest distance of a row to its ball (the root of the largest
        squared distance to the centre: the largest root, bit for bit)."""
        d = v if self.center is None else v - self.center
        return max(0.0, math.sqrt(float(np.add.reduce(d * d, axis=-1).max()))
                   - self.radius)


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
        d = v if self.center is None else v - self.center
        value = float(d @ self.shape @ d)
        if value <= self.level:
            return v
        c = self.center if self.center is not None else np.zeros(self.indices.size)
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
        d = v if self.center is None else v - self.center
        value = float(d @ self.shape @ d)
        if value <= self.level:
            return 0.0
        # Report in distance units, consistent with the other families.
        return float(np.linalg.norm(v - self.project(v)))


SetConstraint = BallConstraint | BoxConstraint | EllipsoidConstraint


def _float_array(a, ndim: int) -> np.ndarray:
    """`a` as a float64 array; `ndim` 2 promotes a vector or scalar to a
    matrix.  An array that already is float64 of rank `ndim` is returned as
    it is."""
    if type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == ndim:
        return a
    a = np.asarray(a, dtype=float)
    return np.atleast_2d(a) if ndim == 2 else a


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
        H = _float_array(self.H, 2)
        g = _float_array(self.g, 1)
        d = g.shape[0]
        if H.shape != (d, d):
            raise DimensionMismatch(f"H must be {d}x{d}, got {H.shape}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        if (self.A_eq is None) != (self.b_eq is None):
            raise DimensionMismatch("A_eq and b_eq must be given together")
        if self.A_eq is not None:
            A = _float_array(self.A_eq, 2)
            b = _float_array(self.b_eq, 1)
            if A.shape[1] != d or A.shape[0] != b.shape[0]:
                raise DimensionMismatch("equality constraint dimensions inconsistent")
            object.__setattr__(self, "A_eq", A)
            object.__setattr__(self, "b_eq", b)
        if type(self.constraints) is not tuple:
            object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class SolveResult:
    """`x` is read-only when the equality-only optimum was the answer
    (`iterations` 0): it is the solve kept by `KKTFactors`, shared by every
    problem with the same g and b_eq."""

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


@dataclass(frozen=True)
class EqualityOnly:
    """The rho = 0 solve of one (g, b_eq), as `KKTFactors` keeps it: the
    equality-only optimum `x` (read-only), whether the whole solve, x and
    the equality multipliers, is finite, and, only if it is, the largest
    equality residual, the largest stationarity residual and the
    objective."""

    key: bytes
    x: np.ndarray
    finite: bool
    eq_res: float = math.nan
    dual_res: float = math.nan
    objective: float = math.nan


class KKTFactors:
    """LU factors of the ADMM x-update KKT matrix of one constant QP.

    The matrix [[H + rho S'S, A_eq'], [A_eq, 0]] depends on H, A_eq, the
    constraint index layout (through S'S) and the penalty rho, but not on
    g, b_eq or the constraint sets' radii and centres.  A controller that
    solves the same QP every tick builds one `KKTFactors` and passes it with
    each problem; `solve_qp` factors once per penalty value it has not seen
    (rho = 0 is the equality-only system of the first solve) and refuses a
    problem whose H, A_eq or layout differ from the record.  The last
    equality-only solve is kept as well (`equality_only`), keyed on the
    bytes of g and b_eq: a controller whose g and b_eq do not change, and
    whose sets do, solves and checks that system once.
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
        self._equality_only = None

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

    def equality_only(self, problem: QuadraticProgram) -> EqualityOnly:
        """The rho = 0 solve of `problem`, whose H and A_eq are those of the
        record.  The last one is kept: a problem with the same bytes of g
        and b_eq gets it back without a solve.  Residuals and objective are
        computed only for a finite solve."""
        g, b = problem.g, problem.b_eq
        key = g.tobytes() if b is None else g.tobytes() + b.tobytes()
        last = self._equality_only
        if last is not None and last.key == key:
            return last
        d = g.shape[0]
        r = 0 if b is None else b.shape[0]
        sol = _kkt_solve(self.factor(0.0), np.concatenate([-g, b]) if r else -g)
        x = sol[:d]
        x.flags.writeable = False
        if not np.isfinite(sol).all():
            last = EqualityOnly(key, x, False)
        else:
            eq_res = float(np.abs(problem.A_eq @ x - b).max()) if r else 0.0
            grad = problem.H @ x + g
            if r:
                grad = grad + problem.A_eq.T @ sol[d:]
            last = EqualityOnly(key, x, True, eq_res, float(np.abs(grad).max()),
                                0.5 * float(x @ problem.H @ x) + float(g @ x))
        self._equality_only = last
        return last

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
    gives the equality-only optimum and its multipliers; `kkt` keeps the
    last such solve (`KKTFactors.equality_only`), so a problem with the
    g and b_eq of the previous call costs no solve, only the set checks.
    Without sets the optimum is the answer, since there is nothing else to
    try.  With sets it is returned only if it is finite, lies inside every
    set (violation exactly 0.0; the sets are checked in turn, up to the
    first violated one) and meets tol_primal on the equality residual and
    tol_dual on stationarity: then the KKT conditions hold with zero set
    multipliers.  The result has 0 iterations and a read-only x; None means
    the sets matter.  Raises UnboundedProblem for a problem without sets
    whose solve is not finite (a singular KKT system), and
    DimensionMismatch when `kkt` was built for another H, A_eq or
    constraint layout.
    """
    kkt.check(problem)
    cons = problem.constraints
    first = kkt.equality_only(problem)
    if not first.finite:
        if cons:
            return None
        raise UnboundedProblem(
            "the equality-only KKT system [[H, A_eq'], [A_eq, 0]] is singular "
            "(H is not positive definite on the null space of A_eq, or A_eq "
            "has dependent rows) and the QP has no set to bound it")
    x = first.x
    for c in cons:
        if c.violation(x[c.indices]) != 0.0:
            return None
    if cons and not (first.eq_res <= tol_primal and first.dual_res <= tol_dual):
        return None
    return SolveResult(x, first.objective, Status.OPTIMAL, first.eq_res,
                       first.dual_res, 0)


def solve_qp(problem: QuadraticProgram,
             tol_primal: float = 1e-8,
             tol_dual: float = 1e-8,
             max_iters: int = 50_000) -> SolveResult:
    """`equality_first`, then ADMM; see module docstring for the splitting
    and its guarantees.  `iterations` is 0 when the equality-only optimum
    was the answer; its x is then read-only.  A problem without sets whose
    KKT system is singular raises UnboundedProblem.

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
    parts = [(c.project, c.indices.shape, slice(lo, hi))
             for c, lo, hi in zip(cons, kkt.bounds[:-1], kkt.bounds[1:])]
    factor = kkt.factor(rho)
    rhs = np.empty(d + r)
    rhs_top = rhs[:d]
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
                    problem.g, out=rhs_top)
        x = _kkt_solve(factor, rhs)[:d]

        sx = x[idx]
        h = alpha * sx + (1.0 - alpha) * z
        v = h + u
        z_new = np.empty_like(z)
        for project, shape, part in parts:
            z_new[part] = project(v[part].reshape(shape)).ravel()
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
    eq_violation = (float(np.abs(problem.A_eq @ x - problem.b_eq).max())
                    if r else 0.0)
    primal_res = max(set_violation, eq_violation)
    grad = problem.H @ x + problem.g + np.bincount(idx, weights=rho * u, minlength=d)
    if r:
        # Recover equality multipliers by least squares on the stationarity gap.
        grad = grad + problem.A_eq.T @ (kkt.multiplier_map @ -grad)
    dual_res = float(np.abs(grad).max())
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
        # Every other row with a nonzero entry in the pivot column, at once;
        # each is updated from the pivot row as a row by row loop would.
        rows = np.flatnonzero(T[:, col])
        rows = rows[rows != row]
        factors = T[rows, col]
        rhs[rows] -= factors * rhs[row]
        T[rows] -= factors[:, None] * T[row]
        basis[row] = col

    def run_phase(cost):
        while True:
            # Reduced costs via the basic cost row.
            cb = cost[basis]
            reduced = cost - cb @ T
            # Bland: the smallest index with a negative reduced cost.
            candidates = np.flatnonzero((reduced < -tol) & ~blocked)
            if not candidates.size:
                return cb @ rhs
            entering = candidates[0]
            pos = np.flatnonzero(T[:, entering] > tol)
            if not pos.size:
                raise UnboundedProblem("objective unbounded below on the feasible set")
            row = -1
            best = np.inf
            for i, ratio in zip(pos.tolist(),
                                (rhs[pos] / T[pos, entering]).tolist()):
                if (ratio < best - tol
                        or (abs(ratio - best) <= tol
                            and (row < 0 or basis[i] < basis[row]))):
                    best = ratio
                    row = i
            pivot(T, rhs, basis, row, entering)

    blocked = np.zeros(total, dtype=bool)
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
        blocked[art_cols] = True

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
