"""Norm-ball and ellipsoidal set calculus.

All robust-invariance bookkeeping in this package runs on two set families:
Euclidean balls (disturbance sets, input sets, tube cross-sections) and
origin-centered ellipsoids (terminal sets).  The two constructions here, the
outer robust positively invariant ball and the input-admissible terminal
ellipsoid, return certified approximations, never unsound ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyResult, NotContractive


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of given radius centered at the origin."""

    dim: int
    radius: float

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"ball dimension must be positive, got {self.dim}")
        if not np.isfinite(self.radius) or self.radius < 0:
            raise EmptyResult(f"ball radius must be finite and >= 0, got {self.radius}")


@dataclass(frozen=True)
class EllipsoidSet:
    """Set {x : x' shape x <= level} with shape symmetric positive definite;
    level 0 is the origin alone."""

    shape: np.ndarray
    level: float

    def __post_init__(self):
        shape = np.asarray(self.shape, dtype=float)
        if shape.ndim != 2 or shape.shape[0] != shape.shape[1]:
            raise DimensionMismatch("ellipsoid shape matrix must be square")
        if not np.allclose(shape, shape.T, atol=1e-10):
            raise DimensionMismatch("ellipsoid shape matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(shape)
        if eigvals[0] <= 0:
            raise DimensionMismatch("ellipsoid shape matrix must be positive definite")
        if not np.isfinite(self.level) or self.level < 0:
            raise EmptyResult(f"ellipsoid level must be finite and >= 0, got {self.level}")
        object.__setattr__(self, "shape", shape)


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
    if F.shape[0] != F.shape[1] or F.shape[0] != w.dim:
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
    return RPIApproximation(BallSet(w.dim, radius), s, q, gap)


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
    if K.shape[0] != u_budget.dim:
        raise DimensionMismatch("gain output dimension must match the input budget")
    rho_F = float(np.max(np.abs(np.linalg.eigvals(F))))
    if rho_F >= 1.0:
        raise NotContractive(f"terminal dynamics not Schur: spectral radius {rho_F:.6g}")

    gram = K.T @ K
    if float(np.linalg.norm(gram, 2)) <= 1e-14:
        # Zero gain: any level is input-admissible, cap it.
        return EllipsoidSet(P, _TERMINAL_LEVEL_CAP)
    if u_budget.radius == 0.0:
        import warnings

        warnings.warn("zero input budget: terminal set degenerates to the origin")
        return EllipsoidSet(P, 0.0)
    # max ||Kx||^2 over x'Px <= 1 equals the largest generalized eigenvalue
    # of (K'K, P); scale so the max input norm hits the budget exactly.
    from scipy.linalg import eigh

    lam_max = float(eigh(gram, P, eigvals_only=True)[-1])
    alpha = min(u_budget.radius ** 2 / lam_max, _TERMINAL_LEVEL_CAP)
    return EllipsoidSet(P, alpha)
