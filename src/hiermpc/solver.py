"""In-house convex solvers: QP by exact steps, and dense simplex LP.

`solve_qp` tries, in turn:

1. `equality_first`: the equality-only optimum, one solve of
   K0 = [[H, A_eq'], [A_eq, 0]] (made once per solve, or passed in as
   `start`), returned with 0 iterations when `free_optimum` accepts it:
   finite, inside every set (violation exactly 0.0), with the equality
   residual and stationarity within tolerance.  That optimum is linear in g
   and b_eq (the unconstrained region of explicit MPC, Bemporad et al.,
   Automatica 38(1), 2002), so a controller builds a free map once
   (`KKTFactors.equality_solve`) and passes a tick's product as `start`.
2. `active_set_step`, from the same start: the sets' rows put on their
   boundary one at a time, a ball or ellipsoid row's multiplier found by
   Newton on its secular equation, a box coordinate's or one-coordinate
   ball's as that of an equality; returned only when the KKT conditions
   recomputed from x and the multipliers hold.
3. The infeasibility certificate: with the coordinates that no set holds
   eliminated (`KKTFactors.equality_null`), the sets meet the equalities
   exactly when a point t lies in a Minkowski sum of linear images of unit
   balls; `minkowski_distance` brackets the distance by the support-function
   dual, and a lower bound above 1e-12 ||t|| is returned as INFEASIBLE with
   its dual point, from which the bound re-derives (Banjac et al., J. Optim.
   Theory Appl. 183, 2019).

A solve that none of them decides ends MAX_ITERS at once, with NaN x.  A
problem without sets whose equality-only solve is not finite raises
UnboundedProblem.  An OPTIMAL result meets A_eq x = b_eq to linear-solver
accuracy and the sets to tol_primal, and every result is a deterministic
function of the problem.  The ball and ellipsoid sets are the design's
classes of `sets`; `BoxConstraint` is the QPs' own.

The LP path is a two-phase tableau simplex with Bland's rule whose run
continues past the optimum to the lexicographically smallest optimizer:
phase 2 minimizes x_0, x_1, ... in turn, each from the previous optimal
basis, with every column of positive reduced cost blocked, which keeps each
later objective on the optimal face of the earlier ones.
"""
from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv, dgetrs

from .errors import DimensionMismatch, UnboundedProblem
from .sets import (_NEWTON_TOL, BallSet as BallConstraint,
                   EllipsoidSet as EllipsoidConstraint)

# The active-set step's bounds: Newton steps in all (this many plus two per
# row) and step halvings in one line search.
_STEP_NEWTON = 50
_STEP_HALVINGS = 30
# The held coordinates are dependent when an LU pivot of G_EE is at most
# this times its largest diagonal entry; it also scales the regularization.
_DEPENDENT = 1e-10
# `minkowski_distance`'s relative stops and `solve_qp`'s rounding margin (a
# lower bound above it times ||t|| certifies), and its Newton steps at most.
_GAP_TOL = 1e-12
_GAP_STEPS = 50
# The simplex's zero: pivot entries, reduced costs and ratio ties within it
# count as zero.
_SIMPLEX_TOL = 1e-11


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class BoxConstraint:
    """lower <= x[indices] <= upper componentwise; a bound may be infinite.
    Each coordinate is a row of its own, as in a (k, 1) `BallConstraint`
    family: `indices`, `lower` and `upper` have shape (s, 1)."""

    indices: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).reshape(-1, 1)
        lo, hi = (np.broadcast_to(np.asarray(b, dtype=float).reshape(-1, 1),
                                  idx.shape).copy() for b in (self.lower, self.upper))
        for name, bound, empty in (("lower", lo, np.inf), ("upper", hi, -np.inf)):
            if np.isnan(bound).any() or (bound == empty).any():
                raise DimensionMismatch(f"BoxConstraint.{name} is NaN or {empty:+}")
        if np.any(lo > hi):
            raise DimensionMismatch("BoxConstraint.lower exceeds BoxConstraint.upper")
        for name, value in (("indices", idx), ("lower", lo), ("upper", hi)):
            object.__setattr__(self, name, value)

    def violation(self, v: np.ndarray) -> float:
        return float(np.max(np.maximum(self.lower - v, v - self.upper), initial=0.0))


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
class DistanceBracket:
    """lower <= dist(t, X) <= upper and the dual point w that gives both,
    after `steps` Newton steps (`minkowski_distance`)."""

    w: np.ndarray
    lower: float
    upper: float
    steps: int


@dataclass(frozen=True)
class SolveResult:
    """`iterations` of a QP solve is 0 when the equality-only optimum was
    the answer (`x` is then part of the start), else the Newton steps of
    `active_set_step` or of the certificate.  A QP result that is not
    OPTIMAL has NaN x and objective: an INFEASIBLE one has NaN dual
    residual, its certified lower bound as primal residual and its
    `certificate`, a MAX_ITERS one NaN residuals.  An LP solve counts
    simplex pivots."""

    x: np.ndarray
    objective: float
    status: Status
    primal_residual: float
    dual_residual: float
    iterations: int
    certificate: DistanceBracket | None = None


def _kkt_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """LAPACK getrs on LU factors; what `scipy.linalg.lu_solve` calls,
    without its argument checks."""
    lu, piv = factor
    return dgetrs(lu, piv, rhs)[0]


def _dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """a^{-1} b by LAPACK gesv, without `np.linalg.solve`'s checks; None
    when a is singular."""
    x, info = dgesv(a, b)[2:]
    return None if info else x


def _same(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector, as `np.linalg.norm` computes it."""
    return math.sqrt(v @ v)


def qp_objective(H: np.ndarray, g: np.ndarray, x: np.ndarray) -> float:
    """1/2 x'Hx + g'x."""
    return 0.5 * float(x @ H @ x) + float(g @ x)


def equality_residuals(sol: np.ndarray, H: np.ndarray, g: np.ndarray,
                       A_eq: np.ndarray | None,
                       b_eq: np.ndarray | None) -> tuple[float, float]:
    """The largest equality residual |A_eq x - b_eq| (0.0 without
    equalities) and the largest stationarity residual |H x + g + A_eq'lam|
    of sol = (x, lam), a K0 solve of min 1/2 x'Hx + g'x s.t. A_eq x =
    b_eq."""
    d = g.shape[0]
    x = sol[:d]
    grad = H @ x + g
    if b_eq is None or not b_eq.shape[0]:
        return 0.0, float(np.abs(grad).max())
    return (float(np.abs(A_eq @ x - b_eq).max()),
            float(np.abs(grad + A_eq.T @ sol[d:]).max()))


def free_optimum(sol: np.ndarray, H: np.ndarray, g: np.ndarray,
                 A_eq: np.ndarray | None, b_eq: np.ndarray | None,
                 constraints, tol_primal: float = 1e-8,
                 tol_dual: float = 1e-8) -> tuple[float, float] | None:
    """The residuals of `equality_residuals` if sol = (x, lam), the K0
    solve of min 1/2 x'Hx + g'x s.t. A_eq x = b_eq, x[S_c] in C_c for each
    of `constraints`, is that QP's optimum with no set active; else None.

    The one rule by which the equality-only optimum is the answer, for
    `equality_first` and for a controller's tick solved by a map: `sol` is
    finite, x lies inside every set (violation exactly 0.0; the sets are
    checked in turn, up to the first violated one), the equality residual
    is within tol_primal and stationarity within tol_dual.  The KKT
    conditions then hold with zero set multipliers.  The residuals are
    computed only once the sets hold.
    """
    if not np.isfinite(sol).all():
        return None
    x = sol[:g.shape[0]]
    for c in constraints:
        if c.violation(x[c.indices]) != 0.0:
            return None
    residuals = equality_residuals(sol, H, g, A_eq, b_eq)
    if residuals[0] <= tol_primal and residuals[1] <= tol_dual:
        return residuals
    return None


class KKTFactors:
    """The equality-only KKT matrix K0 = [[H, A_eq'], [A_eq, 0]] of one
    constant QP, factored once (`lu`, on first use), and its sets' layout.

    K0 depends on H and A_eq, not on g, b_eq or the sets' sizes and
    centres: a controller that solves the same QP every tick builds one
    `KKTFactors` and passes it with each problem, and `solve_qp` refuses a
    problem whose H, A_eq or constraint index layout differ.
    `equality_solve` and `set_solves` are K0 solves against given
    right-hand sides (a start, a free map, the step's set columns), `rows`
    the step's rows and `equality_null` the certificate's equalities.
    """

    def __init__(self, H: np.ndarray, A_eq: np.ndarray | None, layout):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.A_eq = None if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
        self.layout = tuple(np.asarray(s, dtype=int) for s in layout)
        # The flat set coordinates: constraint c owns idx[bounds[c]:bounds[c + 1]],
        # laid out like its (raveled) indices.
        self.idx = np.concatenate([s.ravel() for s in self.layout]
                                  or [np.zeros(0, dtype=int)])
        self.bounds = np.cumsum([0] + [s.size for s in self.layout])

    def check(self, problem: QuadraticProgram) -> None:
        cons = problem.constraints
        if not (_same(problem.H, self.H) and _same(problem.A_eq, self.A_eq)
                and len(cons) == len(self.layout)
                and all(_same(c.indices, s) for c, s in zip(cons, self.layout))):
            raise DimensionMismatch("KKT factors were built for another H, A_eq "
                                    "or constraint index layout")

    @functools.cached_property
    def lu(self):
        with warnings.catch_warnings():
            if self.layout:
                # Only a guess: when the sets are what make the problem well
                # posed, a singular K0 sends the active-set step to its
                # shifted system.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            if self.A_eq is None:
                return scipy.linalg.lu_factor(self.H)
            d, r = self.H.shape[0], self.A_eq.shape[0]
            K = np.zeros((d + r, d + r))
            K[:d, :d], K[:d, d:], K[d:, :d] = self.H, self.A_eq.T, self.A_eq
            return scipy.linalg.lu_factor(K)

    def equality_solve(self, rhs: np.ndarray) -> np.ndarray:
        """K0^{-1} rhs, read-only: for the column [-g; b_eq] the
        equality-only optimum x with its equality multipliers.  A controller
        whose ticks change only some rows of b_eq, with g = 0, solves once
        against their unit vectors; each tick's equality-only optimum is
        then that map times the rows' values."""
        sol = _kkt_solve(self.lu, rhs)
        sol.flags.writeable = False
        return sol

    @functools.cached_property
    def set_solves(self) -> tuple[np.ndarray, np.ndarray]:
        """(Z, G): Z = K0^{-1} [S'; 0], the solves against the unit vector
        of every set coordinate (columns in the flat layout `idx`), and
        G = S Z, its rows at those coordinates.  One solve, on first use."""
        d, p = self.H.shape[0], self.idx.size
        rhs = np.zeros((d + (0 if self.A_eq is None else self.A_eq.shape[0]), p))
        rhs[self.idx, np.arange(p)] = 1.0
        Z = self.equality_solve(rhs)
        return Z, Z[self.idx]

    @functools.cached_property
    def rows(self) -> tuple[np.ndarray, ...]:
        """The active-set step's rows, from the layout alone: a set whose
        indices have shape (s,) is one row, one of shape (k, s) k rows (a
        stacked ball family, or a box, whose indices are (s, 1)).  Returns
        the row of each flat coordinate, the first row of each set (the row
        count last), the first flat coordinate of each row, whether each
        row is linear (holds one coordinate) and the linear rows."""
        shapes = [s.shape if s.ndim == 2 else (1, s.size) for s in self.layout]
        width = np.array([w for k, w in shapes for _ in range(k)], dtype=int)
        linear = width == 1
        return (np.repeat(np.arange(width.size), width),
                np.cumsum([0] + [k for k, _ in shapes]), np.cumsum(width) - width,
                linear, np.flatnonzero(linear))

    @functools.cached_property
    def equality_null(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(Z, ZA), Z an orthonormal basis of null(A_free'), A_free the
        columns of A_eq that no set holds (Z = I if none), ZA = Z'A_eq at
        the set coordinates: Z'b_eq = ZA x[idx] is A_eq x = b_eq with the
        free coordinates eliminated.  None without equality rows, with a
        coordinate in two sets, or with Z empty."""
        counts = np.bincount(self.idx, minlength=self.H.shape[0])
        if self.A_eq is None or counts.max(initial=0) > 1:
            return None
        free = counts == 0
        Z = (scipy.linalg.null_space(self.A_eq[:, free].T) if free.any()
             else np.eye(self.A_eq.shape[0]))
        return (Z, Z.T @ self.A_eq[:, self.idx]) if Z.shape[1] else None


def _equality_start(problem: QuadraticProgram, kkt: KKTFactors) -> np.ndarray:
    """The K0 solve of `problem` on `kkt`, read-only."""
    g, b = problem.g, problem.b_eq
    return kkt.equality_solve(-g if b is None else np.concatenate([-g, b]))


def equality_first(problem: QuadraticProgram, kkt: KKTFactors,
                   tol_primal: float = 1e-8, tol_dual: float = 1e-8,
                   start: np.ndarray | None = None) -> SolveResult | None:
    """The optimum of `problem` with no set active, if it is the optimum.

    `start` is the K0 solve of `problem` on `kkt`, the equality-only
    optimum with its multipliers (made here if not given).  Without sets it
    is the answer; with sets, only if `free_optimum` accepts it.  The result
    has 0 iterations and x the first part of the start; None means the sets
    matter.  Raises UnboundedProblem for a problem without sets whose solve
    is not finite (a singular KKT system), and DimensionMismatch when `kkt`
    was built for another H, A_eq or constraint layout.
    """
    kkt.check(problem)
    H, g, A_eq, b_eq = problem.H, problem.g, problem.A_eq, problem.b_eq
    cons = problem.constraints
    sol = _equality_start(problem, kkt) if start is None else start
    if cons:
        residuals = free_optimum(sol, H, g, A_eq, b_eq, cons, tol_primal,
                                 tol_dual)
        if residuals is None:
            return None
    elif np.isfinite(sol).all():
        residuals = equality_residuals(sol, H, g, A_eq, b_eq)
    else:
        raise UnboundedProblem(
            "the equality-only KKT system [[H, A_eq'], [A_eq, 0]] is singular "
            "(H is not positive definite on the null space of A_eq, or A_eq "
            "has dependent rows) and the QP has no set to bound it")
    x = sol[:g.shape[0]]
    return SolveResult(x, qp_objective(H, g, x), Status.OPTIMAL, *residuals, 0)


def _row_data(cons, kkt: KKTFactors):
    """The rows of `KKTFactors.rows` in `cons`: each row's size (radius,
    sqrt(level), a box coordinate's half-width, inf with an infinite bound),
    each flat coordinate's centre (a box's midpoint, or 0), the metric M
    over them (I, each ellipsoid's shape as its block) and the linear rows'
    bounds lo, hi.  A one-coordinate ellipsoid is a ball of sqrt(level/P)."""
    first, n, p = kkt.rows[1], kkt.rows[1][-1], kkt.idx.size
    sizes, centre, M, (lo, hi) = np.empty(n), np.zeros(p), np.eye(p), np.zeros((2, n))
    for c, a, b, r0, r1 in zip(cons, kkt.bounds, kkt.bounds[1:], first, first[1:]):
        if isinstance(c, BoxConstraint):
            lo[r0:r1], hi[r0:r1] = c.lower.ravel(), c.upper.ravel()
            sizes[r0:r1] = half = 0.5 * (hi[r0:r1] - lo[r0:r1])  # never NaN
            finite = np.isfinite(half)
            centre[a:b] = np.where(finite, lo[r0:r1] + np.where(finite, half, 0.0), 0.0)
        elif isinstance(c, EllipsoidConstraint) and b - a > 1:
            M[a:b, a:b], sizes[r0:r1] = c.shape, math.sqrt(c.level)
        else:  # a ball, or an ellipsoid of one coordinate
            if isinstance(c, BallConstraint) and c.center is not None:
                centre[a:b] = c.center.ravel()
            sizes[r0:r1] = size = (c.radius if isinstance(c, BallConstraint)
                                   else math.sqrt(c.level / c.shape[0, 0]))
            if b - a == r1 - r0:  # one coordinate per row: linear rows
                lo[r0:r1], hi[r0:r1] = centre[a:b] - size, centre[a:b] + size
    return sizes, centre, M, lo, hi


def _unsolved(d: int, steps: int) -> SolveResult:
    """The MAX_ITERS result of a QP in d variables after `steps` Newton
    steps."""
    return SolveResult(np.full(d, np.nan), np.nan, Status.MAX_ITERS, np.nan,
                       np.nan, steps)


def active_set_step(problem: QuadraticProgram, kkt: KKTFactors,
                    tol_primal: float = 1e-8, tol_dual: float = 1e-8,
                    max_iters: int = 50_000,
                    start: np.ndarray | None = None) -> SolveResult:
    """The optimum of `problem` with some of its sets' rows on their
    boundary, if it certifies; for a problem that `equality_first` did not
    solve, from the same `start` (made here without it).

    The rows are those of `KKTFactors.rows`: y_j = x[S_j] - c_j, of size
    r_j in the metric M_j (`_row_data`).  A ball row (a ball or ellipsoid
    of two or more coordinates) has a multiplier mu_j >= 0: x(mu) = x_eq -
    Z_W D y on the rows W in play, (I + G_W D) y = y_0, D = diag(mu_j M_j),
    y_0 the rows at the equality-only optimum, Z and G from
    `KKTFactors.set_solves`.  Newton on the secular equations psi_j =
    1/sqrt(y_j'M_j y_j) - 1/r_j moves the rows with mu_j > 0 or outside
    until each is within the relative 1e-12 of its boundary, every step
    keeping mu >= 0 and raising the concave dual 1/2 y_0'D y - 1/2 sum mu_j
    r_j^2 (Armijo along the projection onto mu >= 0).  A linear row (one
    coordinate: a box coordinate, a one-coordinate ball) on its bound, and
    every coordinate of a set of size 0, is an equality with a signed
    multiplier: with these coordinates E held, the ball rows' system is the
    one above on the Schur complement of G_EE.

    Each round that ends with a row outside adds the most violated (by its
    distance from its centre over its size; a linear row's 1 plus its
    excess over its bounds per half-width, or per 1 with an infinite bound)
    as in the dual active-set method of Goldfarb and Idnani (Math. Prog.
    27, 1983).  As there, a linear row's multiplier keeps its sign: where
    it would point into the set by more than tol_dual, the first row to
    reach 0 on the line from the last round's multipliers leaves (their
    ratio test; on held rows that the last one made dependent, the line
    runs along the dependence, as their partial step).  When K0 is singular
    (the start is not finite), the step runs on K0 + sigma S'MS over the
    ball rows' coordinates (sigma the mean |diag H|, or 1), every ball row
    in play from mu_j = sigma, with mu_j - sigma in D.

    The answer is returned only when the KKT conditions recomputed from x,
    lam and the multipliers hold: the equality residual, every set's
    violation and the relative distance of each ball row with mu_j > 0 to
    its boundary within tol_primal, and stationarity within tol_dual.  Its
    `iterations` are the Newton steps, a round counting at least one;
    otherwise the result is MAX_ITERS after them (`_unsolved`), at most
    min(max_iters, 50 + 2 rows).
    """
    cons, d = problem.constraints, problem.dim
    sol = _equality_start(problem, kkt) if start is None else start
    rowid, first, lead, linear, lin = kkt.rows
    n, idx = first[-1], kkt.idx
    sizes, centre, M_all, lo, hi = _row_data(cons, kkt)
    pinned = sizes == 0.0
    scale = np.where(pinned | (sizes == np.inf), 1.0, sizes)

    def ratios(x):
        """Each row's ratio at x (see above)."""
        y = x[idx] - centre
        ratio = np.sqrt(np.bincount(rowid, y * (M_all @ y), minlength=n)) / scale
        if lin.size:
            v = x[idx[lead[lin]]]
            ratio[lin] = 1.0 + np.maximum(v - hi[lin], lo[lin] - v) / scale[lin]
        return ratio

    side = np.zeros(n)  # a linear row held at its upper (+1) or lower (-1) bound
    prev = np.zeros(n)  # its multiplier at the last round whose signs held
    mu, in_play = np.zeros(n), np.zeros(n, dtype=bool)
    shift, steps = 0.0, 0
    if not np.isfinite(sol).all():  # a singular K0, shifted (see above)
        in_play = ~(linear | pinned)
        b = np.flatnonzero(in_play[rowid])
        shift = float(np.mean(np.abs(np.diag(problem.H)))) or 1.0
        block = shift * M_all[np.ix_(b, b)]
        H = problem.H.copy()
        np.add.at(H, np.ix_(idx[b], idx[b]), block)
        kkt = KKTFactors(H, problem.A_eq, kkt.layout)
        sol = _equality_start(replace(problem, H=H, g=problem.g - np.bincount(
            idx[b], block @ centre[b], minlength=d)), kkt)
        mu[in_play] = shift
    Z, G = kkt.set_solves
    budget = min(max_iters, _STEP_NEWTON + 2 * n)
    while steps < budget:
        held = pinned | (side != 0.0)
        E = np.flatnonzero(held[rowid]) if held.any() else idx[:0]
        rows_w = np.flatnonzero(in_play)
        k = rows_w.size
        w = np.flatnonzero(in_play[rowid])
        local = (np.cumsum(in_play) - 1)[rowid[w]]
        ww = np.ix_(w, w)
        M, base, Z_w, G_w = M_all[ww], sol, Z[:, w], G[ww]
        if E.size:  # E's multipliers are a - B f for the ball rows' forces f
            r = rowid[E]
            held_at = np.where(pinned[r], centre[E], np.where(side[r] > 0, hi[r], lo[r]))
            G_E = G[np.ix_(E, E)]
            rhs = np.column_stack([sol[idx[E]] - held_at, G[np.ix_(E, w)]])
            lu, _, AB, info = dgesv(G_E, rhs)
            scale_E = _DEPENDENT * np.diag(G_E)
            if info or not np.abs(np.diag(lu)).min() > scale_E.max():
                # Dependent held coordinates: regularized forces grow along the
                # dependence, and the ratio test below acts as a partial step.
                AB = _dense_solve(G_E + np.diag(scale_E), rhs)
            if AB is None:
                return _unsolved(d, steps)
            a, B = AB[:, 0], AB[:, 1:]
            base = sol - Z[:, E] @ a
            Z_w = Z_w - Z[:, E] @ B
            G_w = G_w - G[np.ix_(w, E)] @ B
        m, force = mu[rows_w], np.zeros(w.size)
        if k:
            r_w = sizes[rows_w]
            r2 = r_w * r_w
            rhs = np.column_stack([base[idx[w]] - centre[w], G_w])

            def dual(m):
                """T = (I + G_w D)^-1 G_w, M y, y_j'M_j y_j and the dual
                value at the multipliers m; None if the system is singular."""
                m_w = (m - shift)[local]
                sol = _dense_solve(np.eye(w.size) + G_w @ (m_w[:, None] * M), rhs)
                if sol is None:
                    return None
                My = M @ sol[:, 0]
                q = np.bincount(local, sol[:, 0] * My, minlength=k)
                return sol[:, 1:], My, q, 0.5 * (rhs[:, 0] @ (m_w * My) - m @ r2)

            def search(step):
                """The first of step, step/2, ... that moves m and ascends."""
                for _ in range(_STEP_HALVINGS):
                    trial = m.copy()
                    trial[free] = np.maximum(m[free] + step, 0.0)
                    at = dual(trial)
                    if at is None or ((trial != m).any() and at[3]
                                      >= floor + 1e-4 * (grad @ (trial - m)[free])):
                        return trial, at
                    step = 0.5 * step
                return None

            at = dual(m)
            for it in range(budget - steps + 1):
                if at is None:
                    return _unsolved(d, steps + it)
                T, My, q, value = at
                if it and E.size and np.min(side[rowid[E]] * (
                        a - B @ ((m - shift)[local] * My))) < -tol_dual:
                    break  # a held row's multiplier turned: it leaves below
                root = np.sqrt(q)
                ratio = root / r_w
                if not np.isfinite(ratio).all():
                    return _unsolved(d, steps + it)
                free = (m > 0.0) | (ratio > 1.0)
                if ((it or not free.any())
                        and np.abs(ratio[free] - 1.0).max(initial=0.0) <= _NEWTON_TOL):
                    break
                if it == budget - steps:
                    return _unsolved(d, steps + it)
                Wm = np.zeros((w.size, k))
                Wm[np.arange(w.size), local] = My
                hess = Wm[:, free].T @ T @ Wm[:, free]  # minus the dual's Hessian
                grad = 0.5 * (q - r2)[free]
                step = _dense_solve(hess / (root[free] ** 3)[:, None],
                                    1.0 / r_w[free] - 1.0 / root[free])
                if step is None or not grad @ step > 0.0:
                    step = _dense_solve(hess, grad)
                    if step is None:
                        return _unsolved(d, steps + it)
                floor = value - 1e-13 * (1.0 + abs(value))  # the value's roundoff
                found = search(step)
                if found is None:
                    # Nearly dependent rows make hess nearly singular: a
                    # damped step, then the gradient scaled to mu's size.
                    damped = _dense_solve(hess + 1e-4 * np.diag(np.diag(hess)), grad)
                    found = ((damped is not None and search(damped))
                             or search(grad * (max(1.0, m.max()) / np.abs(grad).max())))
                if not found:
                    return _unsolved(d, steps + it)
                m, at = found
            steps += max(it, 1)
            mu[rows_w] = m
            force = (m - shift)[local] * My
        elif E.size:
            steps += 1
        full = base - Z_w @ force
        x = full[:d]
        if E.size:
            f_E = a - B @ force
            signed = side[rowid[E]] * f_E
            if signed.min() < -tol_dual:  # the ratio test
                reach = np.maximum(side[rowid[E]] * prev[rowid[E]], 0.0)
                tau = np.divide(reach, reach - signed, out=np.full(E.size, np.inf),
                                where=signed < -tol_dual)
                i = np.argmin(tau)
                prev[rowid[E]] += tau[i] * (f_E - prev[rowid[E]])
                side[rowid[E[i]]] = prev[rowid[E[i]]] = 0.0
                continue
            prev[rowid[E]] = f_E
        ratio = ratios(x)
        outside = np.where(in_play | held, 0.0, ratio)
        if outside.max() > 1.0:  # the most violated row enters
            j = np.argmax(outside)
            in_play[j] = not linear[j]
            side[j] = linear[j] * (1.0 if x[idx[lead[j]]] > hi[j] else -1.0)
            continue
        # The certificate, from x, lam and the multipliers alone.
        y = x[idx[w]] - centre[w]
        grad = problem.H @ x + problem.g + np.bincount(
            idx[w], weights=m[local] * (M @ y), minlength=d)
        if E.size:
            grad = grad + np.bincount(idx[E], weights=f_E, minlength=d)
        eq_res = 0.0
        if problem.A_eq is not None:
            grad = grad + problem.A_eq.T @ full[d:]
            eq_res = float(np.abs(problem.A_eq @ x - problem.b_eq).max())
        primal = float(np.max([eq_res] + [c.violation(x[c.indices]) for c in cons]))
        dual_res = float(np.abs(grad).max())
        gap = float(np.abs(ratio[mu > 0.0] - 1.0).max(initial=0.0))
        if primal <= tol_primal and dual_res <= tol_dual and gap <= tol_primal:
            return SolveResult(x, qp_objective(problem.H, problem.g, x),
                               Status.OPTIMAL, primal, dual_res, steps)
        break
    return _unsolved(d, steps)


def minkowski_distance(t: np.ndarray, G: np.ndarray,
                       groups: np.ndarray) -> DistanceBracket:
    """Bracket the distance from t to X = sum_j G_j B, B the unit ball, G_j
    the columns of G in group j (numbered from 0): for t outside X it is the
    maximum of h(y) = y't - sigma(y), sigma(y) = sum_j ||G_j'y||, over unit
    y (Boyd and Vandenberghe, Convex Optimization, 2004, 8.1.3), at the
    direction of the Moreau dual's minimizer t - proj_X(t).  Newton on that
    dual, 1/2 ||w||^2 - w't + sigma(w), with ||w|| set to its best value h
    on the ray of y is Newton for h on the sphere: (S + rho I) d = g, g = t
    - p - h y, p = sum_j G_j G_j'y / ||G_j'y|| in X, S = sum_j G_j (I - v_j
    v_j') G_j' / ||G_j'y||, v_j = G_j'y / ||G_j'y|| (groups with G_j'y = 0
    left out), rho = max(h, ||g||): where h <= 0 the ray's best would be the
    kink w = 0, and ||g|| damps the step.  From y = t / ||t||, an Armijo
    search on h along y + d, normalized; lower = h(y), upper = ||t - p||.
    Stops when upper - lower <= 1e-12 upper, when ||g|| <= 1e-12 ||t|| (t in
    X), when the search fails, or after 50 steps; `w` is the last y."""
    t = np.asarray(t, dtype=float)
    E = np.equal.outer(groups, np.arange(groups.max(initial=-1) + 1)) * 1.0
    norm_t = _norm(t)
    if not norm_t:
        return DistanceBracket(t.copy(), 0.0, 0.0, 0)

    def at(y):
        """h(y), G'y and the groups' norms ||G_j'y||."""
        s = G.T @ y
        nu = np.sqrt((s * s) @ E)
        return float(y @ t - nu.sum()), s, nu

    y = t / norm_t
    h, s, nu = at(y)
    for steps in range(_GAP_STEPS + 1):
        inv = np.divide(1.0, nu, out=np.zeros_like(nu), where=nu > 0.0)
        p = G @ (s * inv[groups])
        upper, g = _norm(t - p), t - p - h * y
        if (upper - h <= _GAP_TOL * upper or _norm(g) <= _GAP_TOL * norm_t
                or steps == _GAP_STEPS):
            break
        R = (G * s) @ E * inv ** 1.5  # column j: G_j G_j'y / ||G_j'y||^1.5
        d = np.linalg.solve((G * inv[groups]) @ G.T - R @ R.T
                            + max(h, _norm(g)) * np.eye(t.size), g)
        for _ in range(_STEP_HALVINGS):
            trial = (y + d) / _norm(y + d)
            after = at(trial)
            if after[0] > h and after[0] >= h + 1e-4 * (g @ d):
                break
            d = 0.5 * d
        else:
            break
        y, (h, s, nu) = trial, after
    return DistanceBracket(y, h, upper, steps)


def solve_qp(problem: QuadraticProgram,
             tol_primal: float = 1e-8,
             tol_dual: float = 1e-8,
             max_iters: int = 50_000,
             start: np.ndarray | None = None) -> SolveResult:
    """`equality_first` and `active_set_step`, both from one solve on K0
    (`start`, if the caller has it), then the infeasibility certificate
    (see the module docstring); a solve that none of them decides returns
    the step's MAX_ITERS result.  Raises UnboundedProblem for a problem
    without sets whose KKT system is singular, DimensionMismatch for one
    that `problem.factors` were not built for.

    INFEASIBLE means a certificate.  Set row j is x_j = c_j + size_j L_j u_j,
    ||u_j|| <= 1, L_j L_j' = M_j^-1, so on the system of
    `KKTFactors.equality_null` the sets meet b_eq exactly when t = Z'b_eq -
    ZA c lies in the sum of the G_j B, G_j = ZA_j size_j L_j; the lower
    bound of `minkowski_distance` exceeds 1e-12 ||t||.  The `certificate`
    holds y = Z w, A_free'y = 0, from which the bound re-derives as (y'(b_eq
    - sum_j A_j c_j) - sum_j sigma_j(A_j'y)) / ||y||, sigma_j the support
    function of set j less its centre.  A box coordinate is the ball at
    its midpoint of its half-width: one with an infinite bound skips this.
    """
    cons = problem.constraints
    kkt = problem.factors
    if kkt is None:
        kkt = KKTFactors(problem.H, problem.A_eq, [c.indices for c in cons])
    kkt.check(problem)
    if start is None:
        start = _equality_start(problem, kkt)
    first = equality_first(problem, kkt, tol_primal, tol_dual, start)
    if first is not None:
        return first
    step = active_set_step(problem, kkt, tol_primal, tol_dual, max_iters, start)
    if step.status is Status.OPTIMAL:
        return step
    sizes, centre, M, _, _ = _row_data(cons, kkt)
    null = kkt.equality_null
    if null is not None and np.isfinite(sizes).all():
        (Z, ZA), rowid = null, kkt.rows[0]
        t = Z.T @ problem.b_eq - ZA @ centre
        G = ZA @ (np.linalg.cholesky(np.linalg.inv(M)) * sizes[rowid])
        gap = minkowski_distance(t, G, rowid)
        if gap.lower > _GAP_TOL * _norm(t):
            return SolveResult(np.full(problem.dim, np.nan), np.nan,
                               Status.INFEASIBLE, gap.lower, np.nan, gap.steps,
                               replace(gap, w=Z @ gap.w))
    return step


# ---------------------------------------------------------------------------
# Linear programming


def _simplex_tableau(objectives: list[np.ndarray], A_ub: np.ndarray,
                     b_ub: np.ndarray):
    """Lexicographic min of objectives[0]'y, then objectives[1]'y, ...
    s.t. A_ub y <= b_ub, y >= 0; two-phase, Bland's rule.

    Phase 1 runs once.  Phase 2 runs for each objective in turn, from the
    previous optimal basis.  At an optimal basis every feasible y has
    c'y = z* + sum_j r_j y_j with reduced costs r >= 0, so the optimal face
    is {y feasible : y_j = 0 wherever r_j > 0}: after each objective the
    columns with r_j > _SIMPLEX_TOL are blocked, and later objectives stay
    on it.

    Returns (y, duals, pivots): the duals are the first objective's slack
    reduced costs, and y is None for an infeasible program.  Raises
    UnboundedProblem.
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
    pivots = 0

    def pivot(row, col):
        nonlocal pivots
        pivots += 1
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
        """Minimize cost over the unblocked columns; return the reduced costs."""
        while True:
            reduced = cost - cost[basis] @ T
            # Bland: the smallest index with a negative reduced cost.
            candidates = np.flatnonzero((reduced < -_SIMPLEX_TOL) & ~blocked)
            if not candidates.size:
                return reduced
            entering = candidates[0]
            pos = np.flatnonzero(T[:, entering] > _SIMPLEX_TOL)
            if not pos.size:
                raise UnboundedProblem("objective unbounded below on the feasible set")
            row = -1
            best = np.inf
            for i, ratio in zip(pos.tolist(),
                                (rhs[pos] / T[pos, entering]).tolist()):
                if (ratio < best - _SIMPLEX_TOL
                        or (abs(ratio - best) <= _SIMPLEX_TOL
                            and (row < 0 or basis[i] < basis[row]))):
                    best = ratio
                    row = i
            pivot(row, entering)

    blocked = np.zeros(total, dtype=bool)
    if n_art:
        phase1 = np.zeros(total)
        phase1[art_cols] = 1.0
        run_phase(phase1)
        if phase1[basis] @ rhs > 1e-9 * max(1.0, float(np.max(np.abs(b)))):
            return None, None, pivots
        # Drive any artificial still basic out of the basis.
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(n + m):
                    if abs(T[i, j]) > _SIMPLEX_TOL:
                        pivot(i, j)
                        break
        blocked[art_cols] = True

    duals = None
    for c_min in objectives:
        cost = np.zeros(total)
        cost[:n] = c_min
        reduced = run_phase(cost)
        if duals is None:
            duals = reduced[n:n + m] * slack_sign  # slack reduced costs = dual values
        blocked |= reduced > _SIMPLEX_TOL

    y = np.zeros(total)
    y[basis] = rhs
    return y[:n], duals, pivots


def solve_lp(c: np.ndarray, A_in: np.ndarray, b_in: np.ndarray,
             lower_bounds: np.ndarray) -> SolveResult:
    """max c'x s.t. A_in x <= b_in, x >= lower_bounds.

    On a non-unique optimal face, the lexicographically smallest optimizer is
    selected by continuing the same simplex run: x_0, x_1, ... are minimized
    in turn over the optimal face, each from the previous optimal basis.
    `iterations` counts the pivots of the run.  Raises UnboundedProblem when
    the objective is unbounded on the feasible set.
    """
    c = np.asarray(c, dtype=float)
    A_in = np.atleast_2d(np.asarray(A_in, dtype=float))
    b_in = np.asarray(b_in, dtype=float)
    lb = np.asarray(lower_bounds, dtype=float)
    d = c.shape[0]
    if A_in.shape[1] != d or A_in.shape[0] != b_in.shape[0] or lb.shape[0] != d:
        raise DimensionMismatch("LP data dimensions inconsistent")

    # y = x - lb >= 0; minimizing y_j minimizes x_j.
    y, duals, pivots = _simplex_tableau([-c, *np.eye(d)], A_in, b_in - A_in @ lb)
    if y is None:
        return SolveResult(np.full(d, np.nan), np.nan, Status.INFEASIBLE,
                           np.nan, np.nan, pivots)
    x = y + lb
    objective = float(c @ x)

    slack = b_in - A_in @ x
    primal = float(max(np.max(-slack, initial=0.0), np.max(lb - x, initial=0.0)))
    comp = float(np.max(np.abs(duals * slack), initial=0.0)) if duals.size else 0.0
    return SolveResult(x, objective, Status.OPTIMAL, primal, comp, pivots)
