"""Discrete-time LQR and Lyapunov solutions shared by both controller layers.

Both equations are solved by one kernel, the structure-preserving doubling
algorithm (SDA; Lin and Xu, SIAM J. Matrix Anal. Appl. 28(1), 2006).  From
(A, G, H) = (A, B R^-1 B', Q) each doubling forms W = I + G H and

    A <- A W^-1 A,   G <- G + A W^-1 G A',   H <- H + A' H W^-1 A,

and H converges quadratically to the stabilizing solution of the Riccati
equation P = A'P(I + G P)^-1 A + Q.  With G = 0 the doubling is the series
P = sum_k (A')^k Q A^k, whose partial sum doubles its horizon each pass:
the Lyapunov equation P = A'PA + Q.
"""
from __future__ import annotations

import numpy as np

from .errors import DesignFailed, NotSchur

# Both layers' gain designs detune the input weight by a factor of 4 per
# round, for at most this many rounds.
DETUNING_ROUNDS = 12
# A solution is accepted only if the equation's residual is this small
# relative to max(1, max|P|).
_RESIDUAL_TOL = 1e-8
# A Riccati solution whose residual is above this (relative, as above) gets
# one Newton step; the doubling loses digits on ill-conditioned pairs.
_REFINE_TOL = 1e-13
# The doubling stops once one pass moves H by no more than this relative to
# max|H|: a few units of roundoff.
_ROUNDOFF = 4.0 * np.finfo(float).eps
# Enough doublings for a loop whose spectral radius is 1 - 1e-15.
_MAX_DOUBLINGS = 64


def _doubling(A: np.ndarray, G: np.ndarray | None, H: np.ndarray, equation: str,
              error: type) -> np.ndarray:
    """The symmetric part of H of the SDA iteration from (A, G, H), G = None
    standing for 0, with H positive semidefinite.  Raises `error`, naming
    `equation`, on a non-finite iterate or when `_MAX_DOUBLINGS` passes do
    not converge."""
    n = A.shape[0]
    I = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_DOUBLINGS):
            if G is None:
                A_W = A
            else:
                # W^-1 [A, G] in one solve.
                WA = np.linalg.solve(I + G @ H, np.concatenate((A, G), axis=1))
                A_W = WA[:, :n]
                G = G + A @ WA[:, n:] @ A.T
            step = A.T @ H @ A_W
            H = H + step
            A = A @ A_W
            # H is positive semidefinite: its largest entry is on the diagonal.
            size = abs(step).max()
            if not np.isfinite(size):
                raise error(f"{equation}: the doubling left the finite range")
            if size <= _ROUNDOFF * H.diagonal().max():
                return 0.5 * (H + H.T)
    raise error(f"{equation}: the doubling did not converge in "
                f"{_MAX_DOUBLINGS} passes")


def _residual(A: np.ndarray, F: np.ndarray, P: np.ndarray, Q: np.ndarray) -> float:
    """max|A'PF - P + Q| / max(1, max|P|): with F = A + BK, K the gain of P,
    the Riccati residual; with F = A the Lyapunov residual."""
    return float(np.max(np.abs(A.T @ P @ F - P + Q))
                 / max(1.0, float(np.max(np.abs(P)))))


def _accept(residual: float, equation: str, error: type) -> None:
    if not residual <= _RESIDUAL_TOL:
        raise error(f"{equation}: residual {residual:.3e} exceeds "
                    f"{_RESIDUAL_TOL:g} relative")


def dlqr(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray):
    """Stabilizing gain K with closed loop A + B K (note the plus convention).

    Returns (K, P) with P the stabilizing Riccati solution, Q positive
    semidefinite and R positive definite.  Raises DesignFailed when the
    doubling fails or P misses the equation.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    equation = "Riccati equation P = A'PA - A'PB(R + B'PB)^-1 B'PA + Q"
    try:
        P = _doubling(A, B @ np.linalg.solve(R, B.T), Q, equation, DesignFailed)
        K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        residual = _residual(A, A + B @ K, P, Q)
        if residual > _REFINE_TOL:
            # One Newton step: P becomes the cost of K, which is the
            # Lyapunov series of A + BK, by the same kernel.
            P = _doubling(A + B @ K, None, Q + K.T @ R @ K, equation,
                          DesignFailed)
            K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            residual = _residual(A, A + B @ K, P, Q)
    except np.linalg.LinAlgError as exc:
        raise DesignFailed(f"{equation}: {exc}") from exc
    _accept(residual, equation, DesignFailed)
    return K, P


def dlyap(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve P = F'PF + Q, the series sum_k (F')^k Q F^k, for Q positive
    definite, for which the series converges exactly when F is Schur.
    Raises NotSchur when the series diverges or P misses the equation."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    equation = "Lyapunov equation P = F'PF + Q"
    P = _doubling(F, None, Q, equation, NotSchur)
    _accept(_residual(F, F, P, Q), equation, NotSchur)
    return P
