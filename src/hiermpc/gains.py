"""Discrete-time LQR and Lyapunov helpers shared by both controller layers."""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DesignFailed, NotSchur

# Both layers' gain designs detune the input weight by a factor of 4 per
# round, for at most this many rounds.
DETUNING_ROUNDS = 12
# `dlyap` stops once the residual of F'PF - P + Q is this small relative to
# max(1, max|P|), after at most this many doublings.
_LYAP_RESIDUAL_TOL = 1e-8
_LYAP_MAX_DOUBLINGS = 200


def dlqr(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray):
    """Stabilizing gain K with closed loop A + B K (note the plus convention).

    Returns (K, P) with P the stabilizing Riccati solution.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    try:
        P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    except np.linalg.LinAlgError as exc:
        raise DesignFailed(f"Riccati solve failed: {exc}") from exc
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return K, P


def dlyap(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve P = F'PF + Q by series doubling.

    P = sum_k (F')^k Q F^k; the partial sum doubles its horizon each pass,
    so convergence is quadratic for Schur F.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    rho = float(np.max(np.abs(np.linalg.eigvals(F))))
    if rho >= 1.0:
        raise NotSchur(f"Lyapunov series diverges: spectral radius {rho:.6g} >= 1")
    P = Q.copy()
    M = F.copy()
    for _ in range(_LYAP_MAX_DOUBLINGS):
        P = P + M.T @ P @ M
        M = M @ M
        residual = float(np.max(np.abs(F.T @ P @ F - P + Q)))
        if residual <= _LYAP_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(P)))):
            return 0.5 * (P + P.T)
    raise NotSchur(f"Lyapunov doubling did not reach residual {_LYAP_RESIDUAL_TOL}")
