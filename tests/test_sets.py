import numpy as np
import pytest

from hiermpc.errors import DimensionMismatch, NotContractive
from hiermpc.sets import BallSet, EllipsoidSet, rpi_outer, terminal_set


def test_rpi_outer_scalar_geometric():
    # F = 0.5, rho_w = 1: the norm series is exactly geometric, radius 2.
    out = rpi_outer(np.array([[0.5]]), BallSet(1, 1.0), tol=1e-9)
    assert np.isclose(out.ball.radius, 2.0, rtol=1e-9)
    assert out.certificate_gap >= 0


def test_rpi_outer_zero_map():
    out = rpi_outer(np.zeros((3, 3)), BallSet(3, 0.8))
    assert np.isclose(out.ball.radius, 0.8)


def test_rpi_outer_rejects_unstable():
    with pytest.raises(NotContractive):
        rpi_outer(np.array([[1.0]]), BallSet(1, 1.0))


def test_rpi_outer_rejects_expansive_norm():
    # Schur but ||F||_2 > 1: no Euclidean ball can be one-step invariant.
    F = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert np.max(np.abs(np.linalg.eigvals(F))) < 1
    with pytest.raises(NotContractive):
        rpi_outer(F, BallSet(2, 1.0))


def test_rpi_outer_invariance_random():
    # Acceptance-style sweep: random contractive maps, certified invariance.
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 5)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        sv = rng.uniform(0.0, 0.95, size=n)
        F = Q @ np.diag(sv) @ V.T
        w = BallSet(int(n), float(rng.uniform(0.01, 10.0)))
        out = rpi_outer(F, w, tol=1e-6)
        r = out.ball.radius
        assert np.linalg.norm(F, 2) * r + w.radius <= r * (1 + 1e-6) + 1e-12
        # Sampled one-step check.
        for _ in range(20):
            e = rng.normal(size=n)
            e *= rng.uniform(0, r) / max(np.linalg.norm(e), 1e-300)
            d = rng.normal(size=n)
            d *= w.radius / max(np.linalg.norm(d), 1e-300)
            assert np.linalg.norm(F @ e + d) <= r + 1e-8 * max(1.0, r)


def test_terminal_set_scaling():
    # Hand case: P = I, K = k*I: alpha = (budget/k)^2.
    P = np.eye(2)
    K = 0.5 * np.eye(2)
    F = 0.3 * np.eye(2)
    out = terminal_set(F, P, K, BallSet(2, 1.0))
    assert np.isclose(out.level, 4.0)


def test_terminal_set_sampling_oracle():
    rng = np.random.default_rng(4)
    n, m = 3, 2
    M = rng.normal(size=(n, n))
    P = M @ M.T + np.eye(n)
    K = rng.normal(size=(m, n))
    F = 0.5 * np.eye(n)
    budget = BallSet(m, 2.0)
    out = terminal_set(F, P, K, budget)
    L = np.linalg.cholesky(P)
    worst = 0.0
    for _ in range(10_000):
        y = rng.normal(size=n)
        y *= rng.uniform(0, 1) ** (1 / n) / np.linalg.norm(y)
        x = np.sqrt(out.level) * np.linalg.solve(L.T, y)
        assert x @ out.shape @ x <= out.level + 1e-9
        worst = max(worst, np.linalg.norm(K @ x))
        assert np.linalg.norm(K @ x) <= budget.radius + 1e-9
    # The level is tight: boundary points get close to the budget.
    assert worst > 0.5 * budget.radius


def test_terminal_set_zero_gain_capped():
    out = terminal_set(0.5 * np.eye(2), np.eye(2), np.zeros((1, 2)), BallSet(1, 1.0))
    assert out.level == 1e9


def test_terminal_set_zero_budget_degenerate():
    with pytest.warns(UserWarning):
        out = terminal_set(0.5 * np.eye(2), np.eye(2), np.ones((1, 2)), BallSet(1, 0.0))
    assert out.level == 0.0



def test_an_integer_is_the_first_coordinates():
    # BallSet(dim, radius) is the ball on coordinates 0..dim-1.
    np.testing.assert_array_equal(BallSet(3, 1.0).indices, [0, 1, 2])
    np.testing.assert_array_equal(EllipsoidSet(np.int64(2), np.eye(2), 1.0).indices,
                                  [0, 1])
    # Whole numbers given as floats become integers.
    idx = BallSet(np.array([[0.0, 1.0], [4.0, 5.0]]), 1.0).indices
    assert idx.dtype.kind == "i"
    np.testing.assert_array_equal(idx, [[0, 1], [4, 5]])


@pytest.mark.parametrize("indices", [[0.5, 1.0], [np.nan, 1.0], [np.inf],
                                     [-1, 0], np.array([[0, -2]]), [],
                                     [True, False], 0, -3])
def test_set_indices_must_be_whole_numbers_at_least_zero(indices):
    with pytest.raises(DimensionMismatch, match="BallSet.indices"):
        BallSet(indices, 1.0)
    with pytest.raises(DimensionMismatch, match="EllipsoidSet.indices"):
        EllipsoidSet(indices, np.eye(2), 1.0)


@pytest.mark.parametrize("shape, why", [
    ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "has shape"),
    ([[1.0, 1e-6], [0.0, 1.0]], "symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
    ([[1000.000001, 1000.01], [1000.0, 1000.000001]], "symmetric"),
    # Symmetric to 3e-11 and definite in its lower triangle (eigenvalue
    # 1e-11), but its symmetric part, which x'Px reads, has -5e-12.
    ([[1.0, 1.0 + 2e-11], [1.0 - 1e-11, 1.0]], "positive definite"),
])
def test_ellipsoid_shape_is_square_symmetric_and_definite(shape, why):
    with pytest.raises(DimensionMismatch, match=f"EllipsoidSet.shape.*{why}"):
        EllipsoidSet(2, shape, 1.0)
