import dataclasses
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

from hiermpc import sets, solver
from hiermpc.errors import DimensionMismatch, UnboundedProblem
from hiermpc.solver import (BallConstraint, BoxConstraint, EllipsoidConstraint,
                            KKTFactors, QuadraticProgram, Status,
                            active_set_step, equality_first, free_optimum,
                            solve_lp, solve_qp)


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


def lp_oracle_vertices(c, A_in, b_in, lb, tol=1e-9):
    """Enumerate vertices of {A x <= b, x >= lb}; return the best objective
    and the lexicographically smallest vertex that attains it (to `tol`)."""
    d = c.shape[0]
    G = np.vstack([A_in, -np.eye(d)])
    h = np.concatenate([b_in, -lb])
    vertices = []
    for rows in itertools.combinations(range(G.shape[0]), d):
        Gs = G[list(rows)]
        if abs(np.linalg.det(Gs)) < 1e-12:
            continue
        v = np.linalg.solve(Gs, h[list(rows)])
        if np.all(G @ v <= h + tol):
            vertices.append((float(c @ v), v))
    if not vertices:
        return None
    best = max(val for val, _ in vertices)
    optimal = [v for val, v in vertices if val >= best - tol * max(1.0, abs(best))]
    lexmin = optimal[0]
    for v in optimal[1:]:
        # The first coordinate that differs by more than tol decides.
        differ = np.flatnonzero(np.abs(v - lexmin) > tol)
        if differ.size and v[differ[0]] < lexmin[differ[0]]:
            lexmin = v
    return best, lexmin


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


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside_a_ball"])
def test_box_qps_match_slsqp(beside):
    # Boxes with half-infinite bounds and 0-2 equality rows through a point
    # inside every set, alone or beside a ball: each QP ends OPTIMAL within
    # 1e-8 of its KKT conditions, most of them from the active-set step,
    # and SLSQP agrees on the optimal value to 1e-6.
    rng = np.random.default_rng(17)
    stepped = 0
    for trial in range(30):
        d = int(rng.integers(3, 8))
        M = rng.normal(size=(d, d))
        H = M @ M.T + 0.5 * np.eye(d)
        g = 4.0 * rng.normal(size=d)
        x_feas = 0.3 * rng.normal(size=d)
        r = int(rng.integers(0, 3))
        A_eq = rng.normal(size=(r, d)) if r else None
        b_eq = A_eq @ x_feas if r else None
        k = d - 2 if beside else d
        lower = x_feas[:k] - rng.uniform(0.05, 0.5, k)
        upper = x_feas[:k] + rng.uniform(0.05, 0.5, k)
        one_sided = rng.uniform(size=k)
        lower[one_sided < 0.25] = -np.inf
        upper[one_sided > 0.75] = np.inf
        sets = [BoxConstraint(np.arange(k), lower, upper)]
        if beside:
            sets.append(BallConstraint(np.arange(k, d),
                                       float(np.linalg.norm(x_feas[k:])) + 0.1))
        prob = QuadraticProgram(H, g, A_eq, b_eq, sets)
        res = solve_qp(prob)
        assert res.status is Status.OPTIMAL, trial
        assert res.primal_residual <= 1e-8 and res.dual_residual <= 1e-8
        stepped += res.iterations > 0
        ref = slsqp_objective(prob)
        assert abs(res.objective - ref) <= 1e-6 * max(1.0, abs(ref)), trial
    assert stepped >= 25


def test_infeasible_box_carries_a_certificate():
    # x in [-1, 1]^2 with x_0 + x_1 = 5: A_eq x ranges over [-2, 2], 3 short
    # of b_eq.  The step gives up, and the certificate, which takes each
    # box coordinate as the ball at its midpoint of its half-width,
    # brackets that distance.
    prob = QuadraticProgram(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                            np.array([5.0]), [BoxConstraint(np.arange(2), -1.0, 1.0)])
    res = solve_qp(prob)
    assert res.status is Status.INFEASIBLE
    cert = res.certificate
    assert abs(cert.lower - 3.0) <= 1e-12 and cert.upper - cert.lower <= 1e-12 * 3.0


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


@pytest.mark.parametrize("cond", [1.0, 1e4])
@pytest.mark.parametrize("level", [1e-14, 1e-10, 1e-6, 1.0, 1e4])
def test_ellipsoid_projection_is_exact_at_every_level(level, cond):
    # The projection y of v onto y'Py <= level solves v - y = mu P y with
    # mu >= 0 and y on the boundary, to roundoff, however small the level.
    rng = np.random.default_rng(12)
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        P = Q @ np.diag(np.geomspace(1.0, cond, 4)) @ Q.T
        ell = EllipsoidConstraint(np.arange(4), P, level)
        v = rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3)
        if v @ P @ v <= level:
            continue
        y = ell.project(v)
        assert abs(y @ P @ y / level - 1.0) <= 1e-10
        Py = P @ y
        mu = float(Py @ (v - y)) / float(Py @ Py)
        assert mu >= 0.0
        assert np.linalg.norm(v - y - mu * Py) <= 1e-10 * np.linalg.norm(v)


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


def test_qp_infeasible_divergence_certificate(infeasibility_bound):
    # Equality pins x0 = 2 but the ball only allows ||x|| <= 1: every point
    # of the ball misses b_eq by at least 1, and the certificate says so.
    prob = QuadraticProgram(np.eye(2), np.zeros(2),
                            A_eq=np.array([[1.0, 0.0]]), b_eq=np.array([2.0]),
                            constraints=[BallConstraint(np.arange(2), 1.0)])
    res = solve_qp(prob, max_iters=20_000)
    assert res.status is Status.INFEASIBLE
    cert = res.certificate
    assert cert.lower == cert.upper == res.primal_residual == 1.0
    assert infeasibility_bound(prob, cert) == 1.0
    assert np.isnan(res.x).all() and np.isnan(res.objective)


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
    assert box.violation(np.array([[-3.0], [4.0]])) == 0.0


@pytest.mark.parametrize("make, field", [
    (lambda: BoxConstraint(np.arange(2), [0.0, math.nan], 1.0), "BoxConstraint.lower"),
    (lambda: BoxConstraint(np.arange(2), 0.0, [math.nan, 1.0]), "BoxConstraint.upper"),
    (lambda: BoxConstraint(np.arange(2), math.inf, math.inf), "BoxConstraint.lower"),
    (lambda: BoxConstraint(np.arange(2), -math.inf, -math.inf), "BoxConstraint.upper"),
    (lambda: BoxConstraint(np.arange(2), 1.0, 0.0), "BoxConstraint.lower"),
    (lambda: EllipsoidConstraint(np.arange(2), [[math.nan, 0.0], [0.0, 1.0]], 1.0),
     "EllipsoidSet.shape"),
])
def test_set_constraints_refuse_data_that_means_nothing(make, field):
    # A NaN bound, an empty box and a NaN shape are refused, naming the
    # class and the field.
    with pytest.raises(DimensionMismatch, match=field):
        make()


def test_the_qp_sets_are_the_design_classes():
    # One class per set family: a QP takes the sets the design builds.
    assert BallConstraint is sets.BallSet
    assert EllipsoidConstraint is sets.EllipsoidSet
    assert solver.BallConstraint.project is sets.BallSet.project


def test_a_ball_with_a_nan_centre_holds_no_point():
    # The excess over the radius propagates NaN: nothing is inside, so the
    # equality-only optimum (3, 0) is not the answer, and no step
    # certifies one.
    ball = BallConstraint(np.arange(2), 1.0, center=np.array([math.nan, 0.0]))
    assert math.isnan(ball.violation(np.array([3.0, 0.0])))
    prob = QuadraticProgram(np.eye(2), np.array([-3.0, 0.0]), constraints=[ball])
    assert free_optimum(np.array([3.0, 0.0]), prob.H, prob.g, None, None,
                        prob.constraints) is None
    res = solve_qp(prob)
    assert res.status is Status.MAX_ITERS
    assert np.isnan(res.x).all() and math.isnan(res.objective)


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
    step) with 20 right-hand sides (g, b_eq); the budget binds on some of
    them."""
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
    # active, so one KKT solve is the answer, with no Newton step.
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


def test_equality_first_hair_outside_a_ball_takes_the_active_set_step():
    # The unconstrained optimum (4, 0, -2, 2) lies 4e-12 outside the first
    # ball, far inside tol_primal: it is not feasible, so the active-set
    # step decides, with at least one Newton step.
    H = np.diag([1.0, 2.0, 1.0, 0.5])
    g = np.array([-4.0, 0.0, 2.0, -1.0])
    b1 = BallConstraint(np.array([0, 1]), 4.0 * (1.0 - 1e-12))
    b2 = BallConstraint(np.array([2, 3]), 10.0)
    assert b1.violation(-g[:2] / np.diag(H)[:2]) > 0.0
    prob = QuadraticProgram(H, g, constraints=[b1, b2])
    res = solve_qp(prob)
    assert res.status is Status.OPTIMAL
    assert res.iterations > 0
    assert_same_result(res, active_set_step(prob, KKTFactors(
        H, None, (b1.indices, b2.indices))))
    assert_projected_kkt(H, g, res.x, (b1, b2))


@pytest.mark.parametrize("case", ["ball", "ellipsoid", "ball_with_equality"])
def test_equality_first_singular_system_falls_back_silently(case):
    # H = 0: K0 is singular and its solve is not finite; the active-set
    # step's shifted system, which carries sigma on the ball's coordinates,
    # solves the problem with every ball row in play, and nothing warns on
    # the way.
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
        lu, piv = kkt.lu
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
        assert "lu" in vars(kkt)
    # Both branches were taken, and each cache factored K0 once.
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
        got, want = getattr(res, name), getattr(ref, name)
        assert got == want or got != got and want != want, name


def test_equality_first_from_a_given_start_makes_no_solve(kkt_solves):
    # The K0 solve handed in as `start` is the one the exact path
    # reads: no second solve, and the result is bitwise what a fresh solve
    # gives, its x the start's read-only first part.
    H, A_eq, ball, rhs = ll_shaped_instance(3)
    g, b_eq = rhs[0]
    wide = BallConstraint(ball.indices, 1e6)
    kkt = KKTFactors(H, A_eq, (ball.indices,))
    prob = QuadraticProgram(H, g, A_eq, b_eq, (wide,), kkt)
    start = kkt.equality_solve(np.concatenate([-g, b_eq]))
    results = [equality_first(prob, kkt, start=start),
               solve_qp(prob, start=start)]
    assert kkt_solves == [kkt.lu]
    fresh = KKTFactors(H, A_eq, (ball.indices,))
    ref = equality_first(QuadraticProgram(H, g, A_eq, b_eq, (wide,), fresh), fresh)
    assert ref.iterations == 0
    for res in results:
        assert_same_result(res, ref)
        assert res.x.base is start
    with pytest.raises(ValueError):
        results[0].x[0] = 1.0


def test_equality_first_one_ulp_in_b_eq_misses(kkt_solves):
    # Without a start every call makes its own solve, bitwise as fresh
    # factors do, also for a b_eq one ulp away.
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
    assert sum(f is kkt.lu for f in kkt_solves) == 2


def test_equality_first_hit_outside_a_moved_set_returns_none(kkt_solves):
    # Same g and b_eq from one start, a ball whose centre moved away from
    # its optimum: no second solve, and the sets decide.
    H, A_eq, ball, rhs = ll_shaped_instance(5)
    g, b_eq = rhs[0]
    kkt = KKTFactors(H, A_eq, (ball.indices,))
    x = kkt_oracle(H, g, A_eq, b_eq)
    start = kkt.equality_solve(np.concatenate([-g, b_eq]))
    near = BallConstraint(ball.indices, 0.5, center=x[ball.indices])
    far = BallConstraint(ball.indices, 0.5, center=x[ball.indices] + 1.0)
    assert equality_first(QuadraticProgram(H, g, A_eq, b_eq, (near,), kkt),
                          kkt, start=start) is not None
    assert equality_first(QuadraticProgram(H, g, A_eq, b_eq, (far,), kkt),
                          kkt, start=start) is None
    assert len(kkt_solves) == 1


# ---------------------------------------------------------------------------
# The active-set step


def slsqp_objective(problem):
    """The optimal value of `problem` by `scipy.optimize.minimize` (SLSQP)
    from 0, each ball row and ellipsoid as one smooth inequality, each box
    as bounds; its point meets the constraints to 1e-9."""
    d = problem.dim
    bounds = [(None, None)] * d
    cons = []

    def row(i, shape, centre, level):
        """level - (x[i] - centre)' shape (x[i] - centre) >= 0."""
        def jac(x):
            out = np.zeros(d)
            out[i] = -2.0 * shape @ (x[i] - centre)
            return out
        cons.append({"type": "ineq", "jac": jac, "fun": lambda x: level - (
            x[i] - centre) @ shape @ (x[i] - centre)})

    for c in problem.constraints:
        if isinstance(c, BoxConstraint):
            for i, lo, hi in zip(c.indices.ravel(), c.lower.ravel(), c.upper.ravel()):
                bounds[i] = (None if lo == -np.inf else lo, None if hi == np.inf else hi)
        elif isinstance(c, EllipsoidConstraint):
            row(c.indices, c.shape, 0.0, c.level)
        else:
            centre = (np.zeros(c.indices.shape) if c.center is None else c.center)
            for i, ctr in zip(np.atleast_2d(c.indices), np.atleast_2d(centre)):
                row(i, np.eye(i.size), ctr, c.radius ** 2)
    if problem.A_eq is not None:
        cons.append({"type": "eq", "fun": lambda x: problem.A_eq @ x - problem.b_eq,
                     "jac": lambda x: problem.A_eq})
    res = minimize(lambda x: 0.5 * x @ problem.H @ x + problem.g @ x,
                   np.zeros(problem.dim), jac=lambda x: problem.H @ x + problem.g,
                   bounds=bounds, constraints=cons, method="SLSQP",
                   options={"ftol": 1e-12, "maxiter": 1000})
    # Status 8 is a line search that cannot descend, as at an optimum
    # known to roundoff; its point must still meet the constraints.
    assert res.success or res.status == 8, res.message
    for c in cons:
        assert c["fun"](res.x) >= -1e-9 if c["type"] == "ineq" else (
            np.max(np.abs(c["fun"](res.x))) <= 1e-9)
    return float(res.fun)


def random_step_qp(seed, family):
    """A random strictly convex QP, with 0-2 equality rows, whose sets are
    `family`: one ball and a second on other coordinates ("balls"), a
    (k, s) stacked family ("stacked"), or an ellipsoid and a ball
    ("ellipsoid").  A point 0.3 N(0, 1) lies strictly inside every set and
    meets the equalities; the linear cost pulls the optimum out of them."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(5, 9))
    M = rng.normal(size=(d, d))
    H = M @ M.T + 0.5 * np.eye(d)
    g = 4.0 * rng.normal(size=d)
    x_feas = 0.3 * rng.normal(size=d)
    r = int(rng.integers(0, 3))
    A_eq = rng.normal(size=(r, d)) if r else None
    b_eq = A_eq @ x_feas if r else None
    perm = rng.permutation(d)

    def ball(idx, centred):
        centre = 0.2 * rng.normal(size=idx.shape) if centred else None
        shift = x_feas[idx] - (0.0 if centre is None else centre)
        radius = float(np.max(np.linalg.norm(np.atleast_2d(shift), axis=1)))
        return BallConstraint(idx, radius + rng.uniform(0.05, 0.5), centre)

    if family == "balls":
        sets = (ball(np.sort(perm[:3]), True), ball(np.sort(perm[3:5]), False))
    elif family == "stacked":
        s = int(rng.integers(1, 3))
        sets = (ball(perm[:2 * s].reshape(2, s) if d < 6 else
                     perm[:(d // s) * s].reshape(-1, s), rng.uniform() < 0.5),)
    else:
        L = rng.normal(size=(3, 3))
        P = L @ L.T + 0.3 * np.eye(3)
        idx = np.sort(perm[:3])
        level = float(x_feas[idx] @ P @ x_feas[idx]) * rng.uniform(1.2, 3.0)
        sets = (EllipsoidConstraint(idx, P, level), ball(np.sort(perm[3:5]), True))
    kkt = KKTFactors(H, A_eq, [c.indices for c in sets])
    return QuadraticProgram(H, g, A_eq, b_eq, sets, kkt)


@pytest.mark.parametrize("family", ["balls", "stacked", "ellipsoid"])
def test_active_set_step_matches_slsqp_and_certifies(family, kkt_certificate):
    # On every seed whose sets bind, the step certifies its optimum, its
    # certificate holds when re-derived from x alone, and SLSQP agrees on
    # the optimal value to 1e-6; `solve_qp` returns the step's result.
    binding = 0
    for seed in range(25):
        prob = random_step_qp(seed, family)
        if equality_first(prob, prob.factors) is not None:
            continue
        binding += 1
        res = active_set_step(prob, prob.factors)
        assert res is not None and res.status is Status.OPTIMAL, seed
        assert 0 < res.iterations <= 50
        assert res.primal_residual <= 1e-8 and res.dual_residual <= 1e-8
        kkt_certificate(prob, res.x, 1e-8)
        ref = slsqp_objective(prob)
        assert abs(res.objective - ref) <= 1e-6 * max(1.0, abs(ref)), seed
        assert_same_result(solve_qp(prob), res)
    assert binding >= 20


def two_balls(x_star, coupling, radii=(1.0, 1.0)):
    """min 1/2 (x - x_star)'H(x - x_star), H = [[1, c], [c, 1]], with the
    balls |x_0| <= radii[0] and |x_1| <= radii[1]."""
    H = np.array([[1.0, coupling], [coupling, 1.0]])
    sets = tuple(BallConstraint(np.array([i]), r) for i, r in enumerate(radii))
    kkt = KKTFactors(H, None, [c.indices for c in sets])
    return QuadraticProgram(H, -H @ np.asarray(x_star), constraints=sets,
                            factors=kkt)


def test_active_set_step_adds_a_set(kkt_certificate):
    # The optimum (3, 0.5) leaves only |x_0| <= 1; with x_0 on its bound
    # the coupling pushes x_1 to -1.3, so the second ball joins.
    prob = two_balls([3.0, 0.5], -0.9)
    res = active_set_step(prob, prob.factors)
    assert res is not None
    assert np.allclose(np.abs(res.x), 1.0, rtol=0, atol=1e-12)
    assert kkt_certificate(prob, res.x, 1e-10).size == 2


def test_active_set_step_drops_a_set(kkt_certificate):
    # The optimum (2, -3.5) leaves |x_0| <= 1 most (ratio 2, against 1.75
    # for |x_1| <= 2), so the first ball enters first; with x_0 = 1, x_1
    # falls to -2.6 and the second joins; on both bounds the first one's
    # multiplier would be -0.35, so it leaves: x = (0.65, -2), the first
    # ball strictly inside.
    prob = two_balls([2.0, -3.5], 0.9, (1.0, 2.0))
    res = active_set_step(prob, prob.factors)
    assert res is not None
    assert np.allclose(res.x, [0.65, -2.0], rtol=0, atol=1e-12)
    assert kkt_certificate(prob, res.x, 1e-10).size == 1


@pytest.mark.parametrize("case", ["zero_radius", "singular", "max_iters"])
def test_active_set_step_ends_optimal_or_max_iters(case):
    # The cases the step once left to another method: a ball of radius 0,
    # whose coordinate it holds as an equality, and a singular K0, which it
    # shifts, end OPTIMAL from the step, exactly at the optimum; `solve_qp`
    # returns the step's result.  A Newton budget too small for the step
    # ends MAX_ITERS after that many steps, with NaN x and objective.
    max_iters = 50_000
    if case == "zero_radius":
        prob = QuadraticProgram(np.eye(2), np.array([-1.0, -1.0]),
                                constraints=[BallConstraint(np.array([0]), 0.0)])
        expected = np.array([0.0, 1.0])
    elif case == "singular":
        prob = QuadraticProgram(np.zeros((2, 2)), np.array([-1.0, -1.0]),
                                constraints=[BallConstraint(np.arange(2), 1.0)])
        expected = np.full(2, np.sqrt(0.5))
    else:
        prob = random_step_qp(0, "balls")
        assert active_set_step(prob, prob.factors).iterations > 3
        max_iters = 3
    kkt = prob.factors or KKTFactors(prob.H, prob.A_eq,
                                     [c.indices for c in prob.constraints])
    step = active_set_step(prob, kkt, max_iters=max_iters)
    res = solve_qp(prob, max_iters=max_iters)
    assert_same_result(res, step)
    assert res.iterations > 0
    if case == "max_iters":
        assert res.status is Status.MAX_ITERS and res.iterations == 3
        assert np.isnan(res.x).all() and math.isnan(res.objective)
    else:
        assert res.status is Status.OPTIMAL
        assert np.max(np.abs(res.x - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# The infeasibility certificate


FAMILIES = ("balls", "stacked", "ellipsoid", "point")


def around_a_point(seed, family, slack):
    """A random strictly convex QP whose sets hold x_feas, `slack` (>= 0)
    inside their boundary, and whose equality rows (at most d) outnumber
    the coordinates that no set holds, so that they restrict the sets: one
    ball and a second on other coordinates ("balls"), a (2, s) stacked
    family ("stacked"), an ellipsoid and a ball ("ellipsoid"), or a ball of
    radius 0 at x_feas and a second ball ("point").  b_eq = A_eq x_feas.
    Returns the problem, x_feas and Z, a basis of null(A_free')."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(5, 9))
    M = rng.normal(size=(d, d))
    H = M @ M.T + 0.5 * np.eye(d)
    g = 4.0 * rng.normal(size=d)
    x_feas = 0.3 * rng.normal(size=d)
    perm = rng.permutation(d)

    def ball(idx, centred):
        centre = x_feas[idx] + 0.2 * rng.normal(size=idx.shape) if centred else None
        shift = x_feas[idx] - (0.0 if centre is None else centre)
        radius = float(np.max(np.linalg.norm(np.atleast_2d(shift), axis=1)))
        return BallConstraint(idx, radius + slack, centre)

    if family == "balls":
        sets = (ball(np.sort(perm[:3]), True), ball(np.sort(perm[3:5]), False))
    elif family == "stacked":
        s = int(rng.integers(1, 3))
        sets = (ball(perm[:2 * s].reshape(2, s), rng.uniform() < 0.5),)
    elif family == "ellipsoid":
        L = rng.normal(size=(3, 3))
        P = L @ L.T + 0.3 * np.eye(3)
        idx = np.sort(perm[:3])
        level = (math.sqrt(float(x_feas[idx] @ P @ x_feas[idx])) + slack) ** 2
        sets = (EllipsoidConstraint(idx, P, level), ball(np.sort(perm[3:5]), True))
    else:
        idx = np.sort(perm[:2])
        sets = (BallConstraint(idx, 0.0, x_feas[idx]),
                ball(np.sort(perm[2:5]), True))
    held = np.zeros(d, dtype=bool)
    for c in sets:
        held[c.indices.ravel()] = True
    A_eq = rng.normal(size=(min(int(np.sum(~held)) + int(rng.integers(1, 4)), d),
                            d))
    Z = scipy.linalg.null_space(A_eq[:, ~held].T)
    kkt = KKTFactors(H, A_eq, [c.indices for c in sets])
    return QuadraticProgram(H, g, A_eq, A_eq @ x_feas, sets, kkt), x_feas, Z


@pytest.mark.parametrize("family", FAMILIES)
def test_infeasible_qp_carries_a_certificate_that_re_derives(
        family, infeasibility_bound):
    # b_eq moved 100 along null(A_free') leaves the sets' reach: the result
    # is INFEASIBLE, its bracket is closed, and the lower bound re-derived
    # from the dual point alone, set by set, is the one it states.
    for seed in range(10):
        prob, _, Z = around_a_point(seed, family, 0.3)
        u = np.random.default_rng(seed).normal(size=Z.shape[1])
        far = dataclasses.replace(prob, b_eq=prob.b_eq + 100.0 * Z @ u
                                  / np.linalg.norm(u))
        res = solve_qp(far)
        assert res.status is Status.INFEASIBLE, seed
        cert = res.certificate
        assert cert.upper - cert.lower <= 1e-12 * cert.upper, seed
        assert res.primal_residual == cert.lower and res.iterations == cert.steps
        bound = infeasibility_bound(far, cert)
        assert bound > 0.0
        assert abs(bound - cert.lower) <= 1e-12 * np.linalg.norm(far.b_eq), seed


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES),
       slack=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_qp_built_around_a_feasible_point_is_never_infeasible(seed, family,
                                                             slack):
    # With the active-set step switched off every binding problem reaches
    # the certificate, also with x_feas on the boundary of its sets (slack
    # 0) and a ball that is one point: it never certifies.
    prob, x_feas, _ = around_a_point(seed, family, slack)
    assert np.max(np.abs(prob.A_eq @ x_feas - prob.b_eq)) == 0.0
    with mock.patch.object(solver, "active_set_step",
                           lambda problem, *args: solver._unsolved(problem.dim, 0)):
        res = solve_qp(prob)
    assert res.status is not Status.INFEASIBLE
    assert res.certificate is None


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
    # One pivot brings x in for the objective; with the slack's column
    # blocked, one more swaps it for y while x_0 is minimized.
    assert res.iterations == 2


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
    # A random objective has a unique optimal vertex; an objective parallel
    # to a row, one with zero entries and c = 0 have a face of optima, on
    # which the solver must return the lexicographically smallest vertex.
    rng = np.random.default_rng(12)
    kinds = ("random", "row", "zeros", "zero")
    for trial in range(200):
        kind = kinds[trial % len(kinds)]
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
        if kind == "row":
            c = rng.uniform(0.5, 2.0) * A_full[rng.integers(m + d)]
        elif kind == "zeros":
            c[rng.permutation(d)[:int(rng.integers(1, d))]] = 0.0
        elif kind == "zero":
            c = np.zeros(d)
        best, vertex = lp_oracle_vertices(c, A_full, b_full, lb)
        res = solve_lp(c, A_full, b_full, lb)
        assert res.status is Status.OPTIMAL
        scale = max(1.0, abs(best))
        assert abs(res.objective - best) <= 1e-8 * scale, f"trial {trial}"
        assert np.max(np.abs(res.x - vertex)) <= 1e-7, f"trial {trial} ({kind})"
        assert res.primal_residual <= 1e-9
        assert res.dual_residual <= 1e-8


def test_lp_nonzero_lower_bounds():
    # max -x s.t. x >= 3: optimum at the bound.
    res = solve_lp(np.array([-1.0]), np.zeros((1, 1)), np.array([10.0]),
                   np.array([3.0]))
    assert np.isclose(res.x[0], 3.0, atol=1e-9)
