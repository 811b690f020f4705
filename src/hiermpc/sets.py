"""Norm-ball and ellipsoidal set calculus.

All robust-invariance bookkeeping in this package runs on two set families,
one class each, shared by the design and the QPs of `solver`: Euclidean balls
(`BallSet`: disturbance, input and tube sets, correction budgets) and
origin-centred ellipsoids (`EllipsoidSet`: terminal sets).  A set lives on
the coordinates `indices` of a vector (an integer n is 0..n-1), and a QP
places a design set with `dataclasses.replace`.  Each family checks its
data in one place, raising DimensionMismatch that names class and field.
`EllipsoidSet.violation` is the distance to the exact projection, y = (I +
mu P)^{-1} v with 1/sqrt(y'Py) = 1/sqrt(level) (More and Sorensen, SIAM J.
Sci. Stat. Comput. 4(3), 1983), by Newton in P's eigenbasis from mu = 0, to
1e-12 relative at any level.  The outer robust positively invariant ball
and the input-admissible terminal ellipsoid built here are certified
approximations, never unsound ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotContractive

# The ellipsoid projection's Newton stop: the relative error of sqrt(y'Py)
# against sqrt(level); also `solver.active_set_step`'s, on every ball row.
_NEWTON_TOL = 1e-12


def _indices(value, owner: str) -> np.ndarray:
    """`value` as an array of whole numbers >= 0, at least one; an integer n
    is 0..n-1.  An integer array is taken as it is, without the check for
    whole numbers."""
    idx = (np.arange(value) if isinstance(value, (int, np.integer))
           else np.asarray(value))
    if idx.dtype.kind not in "iu":
        whole = (idx.dtype.kind == "f" and np.isfinite(idx).all()
                 and (idx == np.floor(idx)).all())
        idx = idx.astype(int) if whole else None
    if idx is None or not idx.size or idx.min() < 0:
        raise DimensionMismatch(f"{owner}.indices must be whole numbers >= 0, "
                                f"at least one, got {value!r}")
    return idx


def _check_size(value: float, where: str) -> None:
    if not math.isfinite(value) or value < 0:
        raise DimensionMismatch(f"{where} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class BallSet:
    """||x[indices] - center|| <= radius, the radius finite and >= 0.

    `indices` of shape (s,) is one ball; of shape (k, s) it is k balls of the
    same radius, one per row, with `center` None (the origin) or of the same
    shape.  `project` and `violation` take values shaped like `indices`.
    """

    indices: np.ndarray
    radius: float
    center: np.ndarray | None = None

    def __post_init__(self):
        idx = _indices(self.indices, "BallSet")
        if idx.ndim not in (1, 2):
            raise DimensionMismatch("BallSet.indices must have shape (s,) or (k, s)")
        object.__setattr__(self, "indices", idx)
        if self.center is not None:
            c = np.asarray(self.center, dtype=float)
            if c.shape != idx.shape:
                raise DimensionMismatch("BallSet.center shape must match the indices")
            object.__setattr__(self, "center", c)
        _check_size(self.radius, "BallSet.radius")

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
        squared distance to the centre: the largest root, bit for bit); NaN
        when a row or its centre is NaN."""
        d = v if self.center is None else v - self.center
        excess = math.sqrt(float(np.add.reduce(d * d, axis=-1).max())) - self.radius
        return 0.0 if excess <= 0.0 else excess


@dataclass(frozen=True)
class EllipsoidSet:
    """x[indices]' shape x[indices] <= level, the level finite and >= 0 (0
    is the origin alone) and the shape symmetric to 1e-10 relative and
    positive definite in its symmetric part, which x'Px reads."""

    indices: np.ndarray
    shape: np.ndarray
    level: float
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = _indices(self.indices, "EllipsoidSet")
        P = np.atleast_2d(np.asarray(self.shape, dtype=float))
        if idx.ndim != 1 or P.shape != (idx.size, idx.size):
            raise DimensionMismatch(
                f"EllipsoidSet.shape has shape {P.shape}; indices of shape "
                f"{idx.shape} need a square matrix of their size")
        if not np.abs(P - P.T).max() <= 1e-10 * np.abs(P).max():
            raise DimensionMismatch("EllipsoidSet.shape must be finite and symmetric")
        lam, V = np.linalg.eigh(0.5 * (P + P.T))
        if not lam[0] > 0:
            raise DimensionMismatch("EllipsoidSet.shape must be positive definite")
        _check_size(self.level, "EllipsoidSet.level")
        for name, value in (("indices", idx), ("shape", P), ("_eigvals", lam),
                            ("_eigvecs", V)):
            object.__setattr__(self, name, value)

    def project(self, v: np.ndarray) -> np.ndarray:
        if float(v @ self.shape @ v) <= self.level:
            return v
        if self.level == 0.0:
            return np.zeros(self.indices.size)
        # Newton on psi(mu) = 1/sqrt(y'Py) - 1/sqrt(level) with
        # y = (I + mu P)^{-1} v, in the eigenbasis of P: psi is concave and
        # increasing, so the steps from mu = 0 rise monotonically to its root.
        lam, V = self._eigvals, self._eigvecs
        w = V.T @ v
        root = math.sqrt(self.level)
        mu = 0.0
        for _ in range(100):  # a bound for a NaN v, which never meets the stop
            denom = 1.0 + mu * lam
            y = w / denom
            ly2 = lam * y * y
            q = float(np.sum(ly2))
            ratio = math.sqrt(q) / root
            if ratio <= 1.0 + _NEWTON_TOL:
                break
            mu += q * (ratio - 1.0) / float(np.sum(lam * ly2 / denom))  # -psi/psi'
        return V @ y

    def violation(self, v: np.ndarray) -> float:
        if float(v @ self.shape @ v) <= self.level:
            return 0.0
        # Report in distance units, consistent with the other families.
        return float(np.linalg.norm(v - self.project(v)))


@dataclass(frozen=True)
class RPIApproximation:
    """Outer robust positively invariant ball plus its construction certificate.

    Attributes:
        ball: the invariant cross-section.
        horizon_terms: number of explicitly summed powers in the norm series.
        contraction: operator norm of the horizon-th matrix power used to
            close the geometric tail.
        certificate_gap: rho_Z*(1+tol) - (||F|| rho_Z + rho_w), >= 0 for a
            valid construction.
    """

    ball: BallSet
    horizon_terms: int
    contraction: float
    certificate_gap: float


# `rpi_outer` sums at most this many powers of F before it gives up.
_RPI_MAX_POWER = 10_000
# `terminal_set` caps the level at this value (a zero gain admits any level).
_TERMINAL_LEVEL_CAP = 1e9


def rpi_outer(F: np.ndarray, w: BallSet, tol: float = 1e-6) -> RPIApproximation:
    """Outer RPI ball for e+ = F e + w, w in the given ball.

    Radius is sum_{h<s} ||F^h|| * rho_w / (1 - ||F^s||) with s the smallest
    power at which the geometric tail is both summable and below tol
    relatively.  A Euclidean ball can be one-step invariant only when
    ||F||_2 < 1, so that is required on top of the spectral radius condition;
    the radius is bumped to rho_w / (1 - ||F||_2) if the truncated series
    lands below that exact one-step fixed point.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape[0] != F.shape[1] or F.shape[0] != w.indices.size:
        raise DimensionMismatch("F must be square and match the disturbance dimension")
    rho_spectral = float(np.max(np.abs(np.linalg.eigvals(F))))
    if rho_spectral >= 1.0:
        raise NotContractive(f"spectral radius {rho_spectral:.6g} >= 1, no RPI set exists")
    norm_F = float(np.linalg.norm(F, 2))
    if norm_F >= 1.0:
        raise NotContractive(
            f"||F||_2 = {norm_F:.6g} >= 1: no Euclidean ball is one-step invariant; "
            "increase the slow period or detune the gain")

    # Tail factor q/(1-q) <= tol <=> q <= tol/(1+tol).
    q_target = min(1.0 - 1e-12, tol / (1.0 + tol))
    partial = 0.0
    power = np.eye(F.shape[0])
    s = 0
    while True:
        q = float(np.linalg.norm(power, 2)) if s > 0 else 1.0
        if s > 0 and q <= q_target:
            break
        partial += q
        power = power @ F
        s += 1
        if s > _RPI_MAX_POWER:
            q = float(np.linalg.norm(power, 2))
            if q >= 1.0:
                raise NotContractive(f"||F^{s}||_2 = {q:.6g} did not contract "
                                     f"within {_RPI_MAX_POWER} powers")
            break
    radius = partial * w.radius / (1.0 - q)
    radius = max(radius, w.radius / (1.0 - norm_F))
    gap = radius * (1.0 + tol) - (norm_F * radius + w.radius)
    if gap < 0:
        raise NotContractive(
            f"invariance certificate violated by {-gap:.3e}; construction unsound")
    return RPIApproximation(BallSet(w.indices, radius), s, q, gap)


def terminal_set(F: np.ndarray, P: np.ndarray, K: np.ndarray,
                 u_budget: BallSet) -> EllipsoidSet:
    """Largest {x : x'Px <= alpha} with K x inside u_budget for every member.

    Invariance under F comes for free when P solves the closed-loop Lyapunov
    equation for F, so only the input budget limits the level.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = P.shape[0]
    if F.shape != (n, n) or K.shape[1] != n:
        raise DimensionMismatch("F, P, K dimensions inconsistent")
    if K.shape[0] != u_budget.indices.size:
        raise DimensionMismatch("gain output dimension must match the input budget")
    rho_F = float(np.max(np.abs(np.linalg.eigvals(F))))
    if rho_F >= 1.0:
        raise NotContractive(f"terminal dynamics not Schur: spectral radius {rho_F:.6g}")

    gram = K.T @ K
    if float(np.linalg.norm(gram, 2)) <= 1e-14:
        # Zero gain: any level is input-admissible, cap it.
        return EllipsoidSet(n, P, _TERMINAL_LEVEL_CAP)
    if u_budget.radius == 0.0:
        import warnings

        warnings.warn("zero input budget: terminal set degenerates to the origin")
        return EllipsoidSet(n, P, 0.0)
    # max ||Kx||^2 over x'Px <= 1 equals the largest generalized eigenvalue
    # of (K'K, P); scale so the max input norm hits the budget exactly.
    from scipy.linalg import eigh

    lam_max = float(eigh(gram, P, eigvals_only=True)[-1])
    alpha = min(u_budget.radius ** 2 / lam_max, _TERMINAL_LEVEL_CAP)
    return EllipsoidSet(n, P, alpha)
