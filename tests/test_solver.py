import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hiermpc.errors import DimensionMismatch, UnboundedProblem
from hiermpc.solver import (BallConstraint, BoxConstraint, EllipsoidConstraint,
                            KKTFactors, QuadraticProgram, Status,
                            equality_first, solve_lp, solve_qp)


# ---------------------------------------------------------------------------
# Oracles


def qp_oracle_one_ball(H, g, A_eq, b_eq, ball):
    """Active-set enumeration for a QP with equalities and one ball.

    Inactive case: plain KKT solve.  Active case: the multiplier mu >= 0
    solves ||S x(mu) - center|| = radius; the distance is non-increasing in
    mu for H > 0, so a bracketed root find is exact.
    """
    d = g.shape[0]
    S = np.zeros((ball.indices.size, d))
    S[np.arange(ball.indices.size), ball.indices] = 1.0
    center = ball.center if ball.center is not None else np.zeros(ball.indices.size)

    def kkt_solve(mu):
        Haug = H + mu * (S.T @ S)
        rhs_top = -g + mu * (S.T @ center)
        if A_eq is None:
            return np.linalg.solve(Haug, rhs_top)
        r = A_eq.shape[0]
        K = np.block([[Haug, A_eq.T], [A_eq, np.zeros((r, r))]])
        return np.linalg.solve(K, np.concatenate([rhs_top, b_eq]))[:d]

    x = kkt_solve(0.0)
    dist = np.linalg.norm(S @ x - center)
    if dist <= ball.radius + 1e-12:
        return x
    hi = 1.0
    while np.linalg.norm(S @ kkt_solve(hi) - center) > ball.radius:
        hi *= 4.0
        assert hi < 1e18, "oracle bracket failed"
    mu = brentq(lambda m: np.linalg.norm(S @ kkt_solve(m) - center) - ball.radius,
                0.0, hi, xtol=1e-14, rtol=1e-15)
    return kkt_solve(mu)


def lp_oracle_vertices(c, A_in, b_in, lb):
    """Enumerate vertices of {A x <= b, x >= lb}; return the best objective."""
    d = c.shape[0]
    G = np.vstack([A_in, -np.eye(d)])
    h = np.concatenate([b_in, -lb])
    best = None
    for rows in itertools.combinations(range(G.shape[0]), d):
        Gs = G[list(rows)]
        if abs(np.linalg.det(Gs)) < 1e-12:
            continue
        v = np.linalg.solve(Gs, h[list(rows)])
        if np.all(G @ v <= h + 1e-9):
            val = float(c @ v)
            if best is None or val > best[0]:
                best = (val, v)
    return best


def assert_projected_kkt(H, g, x, balls):
    """The gradient is a nonnegative combination of the normals of the
    active balls (centred at 0) and vanishes on the inactive ones."""
    grad = H @ x + g
    for c in balls:
        v = x[c.indices]
        nv = np.linalg.norm(v)
        if nv >= c.radius - 1e-6:  # active: gradient anti-parallel to normal
            normal = v / nv
            tangential = grad[c.indices] - (grad[c.indices] @ normal) * normal
            assert np.linalg.norm(tangential) <= 1e-5
            assert grad[c.indices] @ normal <= 1e-7
        else:
            assert np.linalg.norm(grad[c.indices]) <= 1e-5


# ---------------------------------------------------------------------------
# QP tests


def test_qp_hand_kkt_ball():
    # min 1/2||x||^2 - 2 x1, ||x|| <= 1: active at x = (1, 0), objective -1.5.
    prob = QuadraticProgram(H=np.eye(2), g=np.array([-2.0, 0.0]),
                            constraints=[BallConstraint(np.arange(2), 1.0)])
    res = solve_qp(prob)
    assert res.status is Status.OPTIMAL
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-6)
    assert np.isclose(res.objective, -1.5, atol=1e-6)


def test_qp_equality_only_exact():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 4))
    H = M @ M.T + 4 * np.eye(4)
    g = rng.normal(size=4)
    A = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    res = solve_qp(QuadraticProgram(H, g, A, b))
    assert res.status is Status.OPTIMAL
    assert np.max(np.abs(A @ res.x - b)) <= 1e-10
    # Lagrange conditions solved directly as the oracle.
    K = np.block([[H, A.T], [A, np.zeros((2, 2))]])
    oracle = np.linalg.solve(K, np.concatenate([-g, b]))[:4]
    assert np.allclose(res.x, oracle, atol=1e-10)


def test_qp_random_against_active_set_oracle():
    # Acceptance-style batch: random equality + ball programs vs the oracle.
    rng = np.random.default_rng(6)
    for trial in range(50):
        d = int(rng.integers(2, 7))
        M = rng.normal(size=(d, d))
        H = M @ M.T + (0.5 + rng.uniform()) * np.eye(d)
        g = rng.normal(size=d) * 2.0
        r = int(rng.integers(0, min(3, d)))
        if r:
            A_eq = rng.normal(size=(r, d))
            x_feas = rng.normal(size=d)
            b_eq = A_eq @ x_feas
        else:
            A_eq = b_eq = None
            x_feas = rng.normal(size=d)
        k = int(rng.integers(1, d + 1))
        idx = np.sort(rng.choice(d, size=k, replace=False))
        center = rng.normal(size=k) * 0.5 if rng.uniform() < 0.5 else None
        c0 = center if center is not None else np.zeros(k)
        radius = float(np.linalg.norm(x_feas[idx] - c0) + rng.uniform(0.05, 1.0))
        ball = BallConstraint(idx, radius, center)
        prob = QuadraticProgram(H, g, A_eq, b_eq, constraints=[ball])
        res = solve_qp(prob)
        assert res.status is Status.OPTIMAL, f"trial {trial} not solved"
        x_star = qp_oracle_one_ball(H, g, A_eq, b_eq, ball)
        obj_star = 0.5 * x_star @ H @ x_star + g @ x_star
        scale = max(1.0, abs(obj_star))
        assert abs(res.objective - obj_star) <= 1e-6 * scale, f"trial {trial}"


def test_qp_box_constraint():
    # min 1/2 (x-2)^2 with x <= 1 written in H,g form: x* = 1.
    prob = QuadraticProgram(H=np.eye(1), g=np.array([-2.0]),
                            constraints=[BoxConstraint(np.array([0]), -np.inf, 1.0)])
    res = solve_qp(prob)
    assert np.isclose(res.x[0], 1.0, atol=1e-7)


def test_qp_ellipsoid_constraint_matches_ball():
    # Ellipsoid with shape I and level rho^2 is the ball of radius rho.
    rng = np.random.default_rng(7)
    H = np.eye(3)
    g = rng.normal(size=3) * 3.0
    ball = BallConstraint(np.arange(3), 0.8)
    ell = EllipsoidConstraint(np.arange(3), np.eye(3), 0.64)
    res_b = solve_qp(QuadraticProgram(H, g, constraints=[ball]))
    res_e = solve_qp(QuadraticProgram(H, g, constraints=[ell]))
    assert np.allclose(res_b.x, res_e.x, atol=1e-6)


def test_qp_general_ellipsoid_kkt():
    # min 1/2||x||^2 + g'x s.t. x'Px <= 1; KKT solved by oracle root find.
    rng = np.random.default_rng(8)
    P = np.diag([4.0, 1.0, 0.25])
    g = np.array([-3.0, 1.0, -2.0])
    prob = QuadraticProgram(np.eye(3), g,
                            constraints=[EllipsoidConstraint(np.arange(3), P, 1.0)])
    res = solve_qp(prob)

    def x_of(mu):
        return np.linalg.solve(np.eye(3) + mu * P, -g)

    mu = brentq(lambda m: x_of(m) @ P @ x_of(m) - 1.0, 0.0, 1e6, xtol=1e-14)
    assert np.allclose(res.x, x_of(mu), atol=1e-6)


def test_qp_two_balls_projection_fixed_point():
    # Verified via KKT residual: gradient is a nonnegative combination of
    # active constraint normals.
    rng = np.random.default_rng(9)
    H = np.diag([1.0, 2.0, 1.0, 0.5])
    g = np.array([-4.0, 0.0, 2.0, -1.0])
    b1 = BallConstraint(np.array([0, 1]), 0.5)
    b2 = BallConstraint(np.array([2, 3]), 0.25)
    res = solve_qp(QuadraticProgram(H, g, constraints=[b1, b2]))
    assert res.status is Status.OPTIMAL
    assert_projected_kkt(H, g, res.x, (b1, b2))


def test_qp_infeasible_divergence_certificate():
    # Equality pins x0 = 2 but the ball only allows ||x|| <= 1.
    prob = QuadraticProgram(np.eye(2), np.zeros(2),
                            A_eq=np.array([[1.0, 0.0]]), b_eq=np.array([2.0]),
                            constraints=[BallConstraint(np.arange(2), 1.0)])
    res = solve_qp(prob, max_iters=20_000)
    assert res.status is Status.INFEASIBLE


def test_qp_determinism():
    rng = np.random.default_rng(10)
    H = np.eye(3)
    g = rng.normal(size=3)
    prob = QuadraticProgram(H, g, constraints=[BallConstraint(np.arange(3), 0.5)])
    r1 = solve_qp(prob)
    r2 = solve_qp(prob)
    assert r1.iterations == r2.iterations > 0
    assert np.array_equal(r1.x, r2.x)


@pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
def test_set_constraints_reject_a_bad_radius_or_level(size):
    # A NaN radius or level would make a set that projects nothing and
    # reports no violation.
    with pytest.raises(DimensionMismatch):
        BallConstraint(np.arange(2), size)
    with pytest.raises(DimensionMismatch):
        EllipsoidConstraint(np.arange(2), np.eye(2), size)
    box = BoxConstraint(np.arange(2), -np.inf, np.inf)
    assert np.array_equal(box.project(np.array([-3.0, 4.0])), [-3.0, 4.0])


def test_qp_scaling_invariance():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(3, 3))
    H = M @ M.T + np.eye(3)
    g = rng.normal(size=3)
    ball = BallConstraint(np.arange(3), 0.3)
    r1 = solve_qp(QuadraticProgram(H, g, constraints=[ball]))
    r2 = solve_qp(QuadraticProgram(1e3 * H, 1e3 * g, constraints=[ball]))
    assert np.max(np.abs(r1.x - r2.x)) <= 1e-7


def test_qp_zero_radius_ball():
    prob = QuadraticProgram(np.eye(2), np.array([-1.0, -1.0]),
                            constraints=[BallConstraint(np.array([0]), 0.0)])
    res = solve_qp(prob)
    assert abs(res.x[0]) <= 1e-8
    assert np.isclose(res.x[1], 1.0, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), s=st.integers(1, 4),
       radius=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       centred=st.booleans(),
       places=st.lists(st.sampled_from(["inside", "on", "outside", "centre"]),
                       min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_ball_matches_single_balls(k, s, radius, centred, places, seed):
    # A (k, s) family projects and reports violation exactly as k separate
    # balls do, row by row, whatever side of its ball each row is on.
    rng = np.random.default_rng(seed)
    indices = np.arange(k * s).reshape(k, s)
    center = rng.normal(size=(k, s)) if centred else None
    c = center if centred else np.zeros((k, s))
    scale = {"inside": 0.5, "on": 1.0, "outside": 3.0, "centre": 0.0}
    v = np.empty((k, s))
    for row, place in enumerate(places[:k]):
        direction = rng.normal(size=s)
        direction /= np.linalg.norm(direction)
        v[row] = c[row] + scale[place] * max(radius, 1e-3) * direction
    stacked = BallConstraint(indices, radius, center)
    singles = [BallConstraint(indices[row], radius,
                              None if center is None else center[row])
               for row in range(k)]
    projected = stacked.project(v)
    assert projected.shape == (k, s)
    for row, ball in enumerate(singles):
        assert np.array_equal(projected[row], ball.project(v[row]))
        one_row = BallConstraint(indices[row:row + 1], radius,
                                 None if center is None else center[row:row + 1])
        assert one_row.violation(v[row:row + 1]) == ball.violation(v[row])
    assert stacked.violation(v) == max(ball.violation(v[row])
                                       for row, ball in enumerate(singles))


def test_stacked_ball_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        BallConstraint(np.arange(6).reshape(3, 2), 1.0, center=np.zeros(6))
    with pytest.raises(DimensionMismatch):
        BallConstraint(np.arange(8).reshape(2, 2, 2), 1.0)


def test_qp_stacked_budget_balls_match_single_balls():
    # Lower-layer shape: one terminal equality row and one budget ball per
    # step.  One stacked constraint and k single ones give the same solve.
    rng = np.random.default_rng(13)
    for trial in range(20):
        k, s = int(rng.integers(2, 9)), int(rng.integers(1, 3))
        d = k * s
        M = rng.normal(size=(d, d))
        H = M @ M.T + np.eye(d)
        g = rng.normal(size=d) * 5.0
        radius = float(rng.uniform(0.2, 1.0))
        A_eq = rng.normal(size=(1, d))
        b_eq = A_eq @ (0.5 * radius * rng.uniform(-1.0, 1.0, size=d) / np.sqrt(s))
        steps = np.arange(d).reshape(k, s)
        stacked = QuadraticProgram(H, g, A_eq, b_eq,
                                   [BallConstraint(steps, radius)])
        singles = QuadraticProgram(H, g, A_eq, b_eq,
                                   [BallConstraint(row, radius) for row in steps])
        res_stacked, res_singles = solve_qp(stacked), solve_qp(singles)
        assert res_stacked.status is res_singles.status, f"trial {trial}"
        assert res_stacked.status is Status.OPTIMAL, f"trial {trial}"
        assert np.max(np.abs(res_stacked.x - res_singles.x)) <= 1e-10, f"trial {trial}"


# ---------------------------------------------------------------------------
# KKT factor cache


def ll_shaped_instance(seed):
    """Lower-layer shape (two terminal equality rows, one budget ball per
    step) with 20 right-hand sides (g, b_eq); the budget is tight enough
    that residual balancing moves rho."""
    rng = np.random.default_rng(seed)
    k, s = 6, 2
    d = k * s
    M = rng.normal(size=(d, d))
    H = M @ M.T + np.eye(d)
    A_eq = rng.normal(size=(2, d))
    steps = np.arange(d).reshape(k, s)
    rhs = [(rng.normal(size=d), A_eq @ (0.4 * rng.uniform(-1.0, 1.0, size=d)))
           for _ in range(20)]
    return H, A_eq, BallConstraint(steps, 0.5), rhs


def test_factor_cache_reuse_is_bitwise_identical(monkeypatch):
    H, A_eq, ball, rhs = ll_shaped_instance(0)
    shared = KKTFactors(H, A_eq, (ball.indices,))
    lu_factor = scipy.linalg.lu_factor
    calls = []
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda a: calls.append(a.shape) or lu_factor(a))
    shared_calls = 0
    for g, b_eq in rhs:
        before = len(calls)
        res_shared = solve_qp(QuadraticProgram(H, g, A_eq, b_eq, (ball,), shared))
        shared_calls += len(calls) - before
        res_fresh = solve_qp(QuadraticProgram(H, g, A_eq, b_eq, (ball,)))
        assert np.array_equal(res_shared.x, res_fresh.x)
        for name in ("status", "iterations", "objective", "primal_residual",
                     "dual_residual"):
            assert getattr(res_shared, name) == getattr(res_fresh, name), name
    # Residual balancing visited several penalties; each was factored once,
    # as was the equality-only system (rho = 0) of the first solve.
    assert len([rho for rho in shared.by_rho if rho > 0]) >= 2
    assert shared_calls == len(shared.by_rho)


def test_factor_cache_refuses_other_problem_data():
    H, A_eq, ball, rhs = ll_shaped_instance(1)
    g, b_eq = rhs[0]
    kkt = KKTFactors(H, A_eq, (ball.indices,))
    # Equal data in other arrays, and another radius, are the same KKT.
    same = QuadraticProgram(H.copy(), g, A_eq.copy(), b_eq,
                            (BallConstraint(ball.indices.copy(), 0.9),), kkt)
    assert solve_qp(same).status is Status.OPTIMAL
    steps = ball.indices
    others = [
        QuadraticProgram(2.0 * H, g, A_eq, b_eq, (ball,), kkt),
        QuadraticProgram(H, g, -A_eq, b_eq, (ball,), kkt),
        QuadraticProgram(H, g, A_eq[:1], b_eq[:1], (ball,), kkt),
        QuadraticProgram(H, g, None, None, (ball,), kkt),
        QuadraticProgram(H, g, A_eq, b_eq, (BallConstraint(steps[:, ::-1], 0.5),), kkt),
        QuadraticProgram(H, g, A_eq, b_eq, (BallConstraint(steps.ravel(), 0.5),), kkt),
        QuadraticProgram(H, g, A_eq, b_eq, (ball, BallConstraint(steps[0], 1.0)), kkt),
        QuadraticProgram(H, g, A_eq, b_eq, (), kkt),
    ]
    for other in others:
        with pytest.raises(DimensionMismatch):
            solve_qp(other)


# ---------------------------------------------------------------------------
# Equality-first solves


def kkt_oracle(H, g, A_eq, b_eq):
    r = A_eq.shape[0]
    K = np.block([[H, A_eq.T], [A_eq, np.zeros((r, r))]])
    return np.linalg.solve(K, np.concatenate([-g, b_eq]))[:H.shape[0]]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, 19),
       slack=st.floats(1.0 + 1e-6, 1e3))
def test_equality_first_when_no_budget_binds(seed, which, slack):
    # Budgets wider than every step of the equality-only optimum: no set is
    # active, so one KKT solve is the answer, with no ADMM iteration.
    H, A_eq, ball, rhs = ll_shaped_instance(seed)
    g, b_eq = rhs[which]
    oracle = kkt_oracle(H, g, A_eq, b_eq)
    radius = slack * float(np.max(np.linalg.norm(oracle[ball.indices], axis=1)))
    res = solve_qp(QuadraticProgram(H, g, A_eq, b_eq,
                                    (BallConstraint(ball.indices, radius),)))
    assert res.status is Status.OPTIMAL
    assert res.iterations == 0
    assert np.max(np.abs(res.x - oracle)) <= 1e-12
    assert res.primal_residual <= 1e-8 and res.dual_residual <= 1e-8


def test_equality_first_hair_outside_a_ball_runs_admm():
    # The unconstrained optimum (4, 0, -2, 2) lies 4e-12 outside the first
    # ball, far inside tol_primal: it is not feasible, so ADMM decides.
    H = np.diag([1.0, 2.0, 1.0, 0.5])
    g = np.array([-4.0, 0.0, 2.0, -1.0])
    b1 = BallConstraint(np.array([0, 1]), 4.0 * (1.0 - 1e-12))
    b2 = BallConstraint(np.array([2, 3]), 10.0)
    assert b1.violation(-g[:2] / np.diag(H)[:2]) > 0.0
    res = solve_qp(QuadraticProgram(H, g, constraints=[b1, b2]))
    assert res.status is Status.OPTIMAL
    assert res.iterations > 0
    assert_projected_kkt(H, g, res.x, (b1, b2))


@pytest.mark.parametrize("case", ["ball", "ellipsoid", "ball_with_equality"])
def test_equality_first_singular_system_falls_back_silently(case):
    # H = 0: the rho = 0 KKT matrix is singular and its solve is not
    # finite; ADMM, whose matrix carries rho on the constrained
    # coordinates, solves the problem, and nothing warns on the way.
    if case == "ball_with_equality":
        H, g = np.zeros((3, 3)), np.array([0.0, -1.0, -1.0])
        A_eq, b_eq = np.array([[1.0, 0.0, 0.0]]), np.array([0.5])
        con = BallConstraint(np.array([1, 2]), 1.0)
        expected = np.array([0.5, np.sqrt(0.5), np.sqrt(0.5)])
    else:
        H, g, A_eq, b_eq = np.zeros((2, 2)), np.array([-1.0, -1.0]), None, None
        con = (BallConstraint(np.arange(2), 1.0) if case == "ball"
               else EllipsoidConstraint(np.arange(2), np.eye(2), 1.0))
        expected = np.full(2, np.sqrt(0.5))
    kkt = KKTFactors(H, A_eq, (con.indices,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_qp(QuadraticProgram(H, g, A_eq, b_eq, (con,), kkt))
        lu, piv = kkt.by_rho[0.0]
        assert np.any(np.diag(lu) == 0.0)
        rhs = -g if A_eq is None else np.concatenate([-g, b_eq])
        assert not np.isfinite(scipy.linalg.lu_solve((lu, piv), rhs,
                                                     check_finite=False)).all()
    assert res.status is Status.OPTIMAL
    assert res.iterations > 0
    assert np.max(np.abs(res.x - expected)) <= 1e-6


def test_equality_first_factors_rho_zero_once(monkeypatch):
    H, A_eq, ball, rhs = ll_shaped_instance(2)
    K0 = np.block([[H, A_eq.T], [A_eq, np.zeros((2, 2))]])
    lu_factor = scipy.linalg.lu_factor
    matrices = []
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda a: matrices.append(a.copy()) or lu_factor(a))
    iterations = []
    for _ in range(2):
        kkt = KKTFactors(H, A_eq, (ball.indices,))
        for g, b_eq in rhs:
            iterations.append(solve_qp(QuadraticProgram(
                H, g, A_eq, b_eq, (ball,), kkt)).iterations)
        assert 0.0 in kkt.by_rho
    # Both branches were taken, and each cache factored rho = 0 once.
    assert 0 in iterations and max(iterations) > 0
    assert sum(np.array_equal(a, K0) for a in matrices) == 2


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("case", ["zero_hessian", "flat_direction"])
def test_qp_without_sets_on_a_singular_system_raises(case):
    # Without sets the equality-only solve is the only one; when the KKT
    # system is singular it is not finite, and that is an error, not an
    # OPTIMAL NaN.
    if case == "zero_hessian":
        prob = QuadraticProgram(np.zeros((2, 2)), np.array([1.0, 0.0]))
    else:  # x_1 is free and carries a linear cost: unbounded below
        prob = QuadraticProgram(np.diag([1.0, 0.0]), np.array([1.0, 1.0]),
                                np.array([[1.0, 0.0]]), np.array([2.0]))
    with pytest.raises(UnboundedProblem, match="KKT system .* is singular"):
        solve_qp(prob)


def assert_same_result(res, ref):
    assert res.x.tobytes() == ref.x.tobytes()
    for name in ("status", "iterations", "objective", "primal_residual",
                 "dual_residual"):
        assert getattr(res, name) == getattr(ref, name), name


def test_equality_first_keeps_its_last_solve(kkt_solves):
    # Equal bytes of g and b_eq, in other arrays, make no second rho = 0
    # solve, and the kept result is bitwise what fresh factors give.
    H, A_eq, ball, rhs = ll_shaped_instance(3)
    g, b_eq = rhs[0]
    wide = BallConstraint(ball.indices, 1e6)
    kkt = KKTFactors(H, A_eq, (ball.indices,))
    results = [equality_first(QuadraticProgram(H, g_, A_eq, b_, (wide,), kkt), kkt)
               for g_, b_ in ((g, b_eq), (g.copy(), b_eq.copy()))]
    assert kkt_solves == [kkt.by_rho[0.0]]
    fresh = KKTFactors(H, A_eq, (ball.indices,))
    ref = equality_first(QuadraticProgram(H, g, A_eq, b_eq, (wide,), fresh), fresh)
    assert ref.iterations == 0
    for res in results:
        assert_same_result(res, ref)
    # The kept x is shared by every hit: it is read-only.
    assert results[1].x is results[0].x
    with pytest.raises(ValueError):
        results[0].x[0] = 1.0


def test_equality_first_one_ulp_in_b_eq_misses(kkt_solves):
    H, A_eq, ball, rhs = ll_shaped_instance(4)
    g, b_eq = rhs[0]
    wide = BallConstraint(ball.indices, 1e6)
    kkt = KKTFactors(H, A_eq, (ball.indices,))
    b_next = b_eq.copy()
    b_next[-1] = np.nextafter(b_next[-1], np.inf)
    for b_ in (b_eq, b_next):
        res = equality_first(QuadraticProgram(H, g, A_eq, b_, (wide,), kkt), kkt)
        fresh = KKTFactors(H, A_eq, (ball.indices,))
        assert_same_result(res, equality_first(
            QuadraticProgram(H, g, A_eq, b_, (wide,), fresh), fresh))
    assert sum(f is kkt.by_rho[0.0] for f in kkt_solves) == 2


def test_equality_first_hit_outside_a_moved_set_returns_none(kkt_solves):
    # Same g and b_eq, a ball whose centre moved away from the kept
    # optimum: no solve, and the sets decide.
    H, A_eq, ball, rhs = ll_shaped_instance(5)
    g, b_eq = rhs[0]
    kkt = KKTFactors(H, A_eq, (ball.indices,))
    x = kkt_oracle(H, g, A_eq, b_eq)
    near = BallConstraint(ball.indices, 0.5, center=x[ball.indices])
    far = BallConstraint(ball.indices, 0.5, center=x[ball.indices] + 1.0)
    assert equality_first(QuadraticProgram(H, g, A_eq, b_eq, (near,), kkt),
                          kkt) is not None
    assert equality_first(QuadraticProgram(H, g, A_eq, b_eq, (far,), kkt),
                          kkt) is None
    assert len(kkt_solves) == 1


# ---------------------------------------------------------------------------
# LP tests


def test_lp_hand_example_with_tie_break():
    # max x + y on the simplex face x + y <= 1: objective 1; the
    # lexicographically smallest optimal vertex is (0, 1).
    res = solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                   np.array([1.0]), np.zeros(2))
    assert res.status is Status.OPTIMAL
    assert np.isclose(res.objective, 1.0, atol=1e-9)
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-7)


def test_lp_infeasible():
    # x >= 0 with x <= -1 is empty.
    res = solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]),
                   np.zeros(1))
    assert res.status is Status.INFEASIBLE


def test_lp_unbounded():
    with pytest.raises(UnboundedProblem):
        solve_lp(np.array([1.0]), np.array([[-1.0]]), np.array([0.0]),
                 np.zeros(1))


def test_lp_random_against_vertex_oracle():
    rng = np.random.default_rng(12)
    solved = 0
    for trial in range(50):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, d))
        lb = rng.normal(size=d) - 2.0
        x_feas = lb + rng.uniform(0.5, 2.0, size=d)
        b = A @ x_feas + rng.uniform(0.1, 2.0, size=m)
        # Box rows keep the region bounded so vertex enumeration is exact.
        A_full = np.vstack([A, np.eye(d)])
        b_full = np.concatenate([b, x_feas + rng.uniform(1.0, 5.0, size=d)])
        c = rng.normal(size=d)
        best = lp_oracle_vertices(c, A_full, b_full, lb)
        assert best is not None
        res = solve_lp(c, A_full, b_full, lb)
        assert res.status is Status.OPTIMAL
        scale = max(1.0, abs(best[0]))
        assert abs(res.objective - best[0]) <= 1e-8 * scale, f"trial {trial}"
        assert res.primal_residual <= 1e-9
        assert res.dual_residual <= 1e-8
        solved += 1
    assert solved == 50


def test_lp_nonzero_lower_bounds():
    # max -x s.t. x >= 3: optimum at the bound.
    res = solve_lp(np.array([-1.0]), np.zeros((1, 1)), np.array([10.0]),
                   np.array([3.0]))
    assert np.isclose(res.x[0], 3.0, atol=1e-9)
