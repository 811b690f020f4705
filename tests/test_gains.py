import numpy as np
import pytest
import scipy.linalg

from hiermpc.errors import DesignFailed, NotSchur
from hiermpc.gains import dlqr, dlyap


def riccati_residual(A, B, Q, R, P):
    """max|A'PA - P + Q - A'PB(R + B'PB)^-1 B'PA| / max(1, max|P|)."""
    gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    res = A.T @ P @ A - P + Q - A.T @ P @ B @ gain
    return np.max(np.abs(res)) / max(1.0, np.max(np.abs(P)))


def test_dlqr_scalar_hand_riccati():
    # a=0.9, b=q=r=1: P^2 - a^2 P - 1 = 0 by hand, K = -aP/(1+P).
    a = 0.9
    P_hand = (a * a + np.sqrt(a ** 4 + 4.0)) / 2.0
    K, P = dlqr([[a]], [[1.0]], [[1.0]], [[1.0]])
    assert np.isclose(P[0, 0], P_hand, atol=1e-10)
    assert np.isclose(K[0, 0], -a * P_hand / (1.0 + P_hand), atol=1e-10)
    assert abs(a + K[0, 0]) < 1.0


def test_dlqr_closed_loop_schur():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n, m = 4, 2
        A = rng.normal(size=(n, n)) * 0.6
        B = rng.normal(size=(n, m))
        K, _ = dlqr(A, B, np.eye(n), np.eye(m))
        assert np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0


def test_dlyap_kronecker_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        F = rng.normal(size=(n, n))
        F *= 0.9 / max(np.max(np.abs(np.linalg.eigvals(F))), 1e-9)
        M = rng.normal(size=(n, n))
        Q = M @ M.T + np.eye(n)
        P = dlyap(F, Q)
        # Oracle: vec(P) = (I - kron(F', F'))^{-1} vec(Q).
        vecP = np.linalg.solve(np.eye(n * n) - np.kron(F.T, F.T), Q.reshape(-1))
        scale = max(1.0, np.max(np.abs(P)))
        assert np.max(np.abs(P - vecP.reshape(n, n))) <= 1e-12 * scale
        assert np.max(np.abs(F.T @ P @ F - P + Q)) <= 1e-12 * scale


def test_dlyap_rejects_unstable():
    with pytest.raises(NotSchur, match="Lyapunov equation"):
        dlyap(np.array([[1.01]]), np.eye(1))


def test_dlqr_matches_the_qz_riccati_solver():
    # Open-loop unstable pairs over six decades of input weight.  Pairs whose
    # controllability matrix has a singular-value ratio below 0.05 are drawn
    # again: there the equation is ill-conditioned, and the reference itself
    # misses a 1e-12 residual.
    rng = np.random.default_rng(21)
    cases = 0
    while cases < 40:
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(1.05, 1.5) / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.normal(size=(n, m))
        sv = np.linalg.svd(np.hstack([np.linalg.matrix_power(A, k) @ B
                                      for k in range(n)]), compute_uv=False)
        if sv[-1] < 0.05 * sv[0]:
            continue
        cases += 1
        Q, R = np.eye(n), 10.0 ** rng.uniform(-3, 3) * np.eye(m)
        K, P = dlqr(A, B, Q, R)
        ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
        assert np.max(np.abs(P - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert riccati_residual(A, B, Q, R, P) <= 1e-12
        assert np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0


def test_dlqr_newton_step_recovers_the_digits_the_doubling_loses():
    # A small input weight on this pair leaves the doubling 8.7e-12 off the
    # equation; one Newton step brings it to roundoff.
    A = np.array([[1.1, 0.0], [1.0, 1.3]])
    B = np.array([[1.15], [-2.37]])
    Q, R = np.eye(2), 1e-3 * np.eye(1)
    _, P = dlqr(A, B, Q, R)
    assert riccati_residual(A, B, Q, R, P) <= 1e-14
    ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
    assert np.max(np.abs(P - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("a, why", [(2.0, "finite range"),
                                    (1.0, "did not converge")])
def test_dlqr_without_a_stabilizing_solution_raises(a, why):
    # B = 0: an unstable mode overflows the doubling, a mode on the unit
    # circle never settles.
    with pytest.raises(DesignFailed, match=f"Riccati equation.*{why}"):
        dlqr([[a]], [[0.0]], [[1.0]], [[1.0]])
