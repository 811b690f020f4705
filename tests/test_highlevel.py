import dataclasses
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from hiermpc import highlevel
from hiermpc.errors import InfeasibleHL
from hiermpc.gains import dlyap
from hiermpc.harness import (RunConfig, design_pipeline, run_closed_loop,
                             slow_weights)
from hiermpc.highlevel import (GainDesign, HLDesign, SlowModel, design_gain,
                               feasibility_gap, lift, solve_hl, terminal_cost,
                               tube_qp)
from hiermpc.lti import CouplingMap, SubsystemModel, assemble
from hiermpc.reduction import reduce_model
from hiermpc.sets import BallSet, EllipsoidSet, rpi_outer, terminal_set
from hiermpc.solver import (BallConstraint, KKTFactors, QuadraticProgram,
                            Status, active_set_step, equality_first, solve_qp)
from hiermpc.thermal import build_thermal_model, default_building

# The stage weights and the horizon of `make_design`'s slow QP.
Q, R, HORIZON = np.eye(2), 0.1 * np.eye(2), 6


def design_qp(design: HLDesign):
    """The slow QP of a `make_design` design."""
    return tube_qp(design, Q, R, HORIZON)


def make_model(rng, couple=0.02):
    subs = []
    for _ in range(2):
        A = rng.normal(size=(2, 2))
        A = 0.5 * (A + A.T)
        A *= 0.7 / np.max(np.abs(np.linalg.eigvals(A)))
        subs.append(SubsystemModel(A=A, B=rng.normal(size=(2, 1)),
                                   E=np.eye(2), C_z=np.eye(2),
                                   input_set=BallSet(1, 5.0)))
    L = couple * rng.normal(size=(2, 2))
    return assemble(subs, CouplingMap(((None, L), (L.T, None))))


def make_design(rng, period=5, w_radius=0.01):
    model = make_model(rng)
    red = reduce_model(model, [1, 1])
    slow = lift(red, period)
    gd = design_gain(slow, model, red, Q, R, period)
    F = slow.closed_loop(gd.K)
    tube = rpi_outer(F, BallSet(2, w_radius))
    P = terminal_cost(F, gd.K, Q, R)
    u_tight = BallSet(2, 5.0 - float(np.linalg.norm(gd.K, 2)) * tube.ball.radius)
    term = terminal_set(F, P, gd.K, u_tight)
    design = HLDesign(slow, gd, tube, term, u_tight)
    return model, red, slow, design


def with_sets(design: HLDesign, tube: BallSet, terminal: EllipsoidSet,
              input_tight: BallSet) -> HLDesign:
    """The design with its tube ball, terminal set and input ball replaced."""
    return dataclasses.replace(
        design, tube=dataclasses.replace(design.tube, ball=tube),
        terminal=terminal, input_tight=input_tight)


def run_tube_soak(design: HLDesign, x_proj0: np.ndarray,
                  disturbance: BallSet, n_steps: int, seed: int = 0):
    """Closed slow loop with worst-case disturbances on the boundary of the
    disturbance ball; returns the per-step tube errors.  Used to exercise
    recursive feasibility."""
    rng = np.random.default_rng(seed)
    slow = design.slow
    qp = design_qp(design)
    x = np.asarray(x_proj0, dtype=float)
    errors = []
    for _ in range(n_steps):
        sol = solve_hl(qp, x)
        errors.append(float(np.linalg.norm(x - sol.x_nominal)))
        w = rng.normal(size=slow.n_states)
        norm = float(np.linalg.norm(w))
        w = w * (disturbance.radius / norm) if norm > 0 else w
        x = slow.A @ x + slow.B @ sol.u_applied + w
    return errors


def test_lift_scalar_hand_case():
    # A=0.9, B=1, period 3: A_slow = 0.729, B_slow = 1 + 0.9 + 0.81.
    class Dummy:
        A = np.array([[0.9]])
        B = np.array([[1.0]])

    slow = lift(Dummy, 3)
    assert np.isclose(slow.A[0, 0], 0.729)
    assert np.isclose(slow.B[0, 0], 2.71)


def test_lift_matrix_power_oracle():
    rng = np.random.default_rng(20)

    class Dummy:
        A = rng.normal(size=(3, 3)) * 0.4
        B = rng.normal(size=(3, 2))

    period = 7
    slow = lift(Dummy, period)
    assert np.allclose(slow.A, np.linalg.matrix_power(Dummy.A, period), atol=1e-12)
    oracle = sum(np.linalg.matrix_power(Dummy.A, j) @ Dummy.B for j in range(period))
    assert np.allclose(slow.B, oracle, atol=1e-12)


def test_design_gain_both_loops_schur():
    rng = np.random.default_rng(21)
    model = make_model(rng)
    red = reduce_model(model, [1, 1])
    slow = lift(red, 5)
    gd = design_gain(slow, model, red, np.eye(2), 0.1 * np.eye(2), 5)
    assert gd.rho_red < 1.0
    assert gd.rho_full < 1.0
    assert gd.rounds >= 1


def test_design_gain_zero_input_matrix():
    class Dummy:
        pass

    slow = SlowModel(np.diag([0.5, 0.4]), np.zeros((2, 2)))
    rng = np.random.default_rng(22)
    model = make_model(rng)
    red = reduce_model(model, [1, 1])
    gd = design_gain(slow, model, red, np.eye(2), np.eye(2), 4)
    assert np.allclose(gd.K, 0.0)
    assert gd.rho_red < 1.0


def test_terminal_cost_kronecker_oracle():
    rng = np.random.default_rng(23)
    F = rng.normal(size=(3, 3))
    F *= 0.8 / np.max(np.abs(np.linalg.eigvals(F)))
    K = rng.normal(size=(2, 3))
    Q = np.eye(3)
    R = 0.5 * np.eye(2)
    P = terminal_cost(F, K, Q, R)
    Qt = Q + K.T @ R @ K
    vecP = np.linalg.solve(np.eye(9) - np.kron(F.T, F.T), Qt.reshape(-1))
    assert np.allclose(P, vecP.reshape(3, 3), atol=1e-7 * max(1, np.max(np.abs(P))))
    assert np.max(np.abs(F.T @ P @ F - P + Qt)) <= 1e-8 * max(1.0, np.max(np.abs(P)))


def test_solve_hl_dp_oracle_pinned_start():
    # Tube radius 0 pins the first nominal state; with inactive input and
    # terminal sets the objective must match the finite-horizon recursion.
    rng = np.random.default_rng(24)
    model, red, slow, design = make_design(rng)
    loose = with_sets(design, BallSet(2, 0.0),
                      EllipsoidSet(2, design.terminal.shape, 1e12),
                      BallSet(2, 1e6))
    x_proj = np.array([0.4, -0.3])
    sol = solve_hl(design_qp(loose), x_proj)
    P = design.terminal.shape.copy()
    for _ in range(HORIZON):
        S = R + slow.B.T @ P @ slow.B
        P = (Q + slow.A.T @ P @ slow.A
             - slow.A.T @ P @ slow.B @ np.linalg.solve(S, slow.B.T @ P @ slow.A))
    oracle = float(x_proj @ P @ x_proj)
    assert abs(sol.objective - oracle) <= 1e-6 * max(1.0, oracle)
    assert np.allclose(sol.x_nominal, x_proj, atol=1e-7)
    # With a pinned start the applied input equals the nominal one.
    assert np.allclose(sol.u_applied, sol.u_nominal_seq[0], atol=1e-7)


def test_solve_hl_respects_constraints():
    rng = np.random.default_rng(25)
    model, red, slow, design = make_design(rng)
    x_proj = np.array([0.5, 0.5])
    sol = solve_hl(design_qp(design), x_proj)
    assert np.linalg.norm(x_proj - sol.x_nominal) <= design.tube.ball.radius + 1e-6
    for u in sol.u_nominal_seq:
        assert np.linalg.norm(u) <= design.input_tight.radius + 1e-6


FAR = np.array([500.0, 500.0])


def tight_design(level: float = 1e-14, input_radius: float = 1e-6) -> HLDesign:
    """A design with a tube of radius 1e-3, the given terminal level and
    input radius, and A^N = 2.25e-5 I: no plan starts near FAR."""
    _, _, _, design = make_design(np.random.default_rng(26))
    return with_sets(design, BallSet(2, 1e-3),
                     EllipsoidSet(2, design.terminal.shape, level),
                     BallSet(2, input_radius))


def support_terms(design: HLDesign):
    """z_of = A^-N' and the S_k = A^(N-1-k) B of the design, k = 0..N-1."""
    slow, N = design.slow, HORIZON
    z_of = np.linalg.inv(np.linalg.matrix_power(slow.A, N)).T
    return z_of, [np.linalg.matrix_power(slow.A, N - 1 - k) @ slow.B
                  for k in range(N)]


def gap_oracle(design: HLDesign, x_proj: np.ndarray) -> float:
    """Distance from x_proj, outside it, to X = {x_0 : A^N x_0 + sum_k S_k u_k
    in the terminal ellipsoid, ||u_k|| <= input radius}, S_k = A^(N-1-k) B,
    as the maximum over unit y of y'x_proj - sigma_X(y).  For an invertible
    A^N, sigma_X(y) = sqrt(level z'P^-1 z) + radius sum_k ||S_k' z|| with
    z = A^-N' y; on 2 states y is an angle, found on a grid and refined.
    Inside X it is minus the distance to X's boundary."""
    z_of, S = support_terms(design)
    P_inv = np.linalg.inv(design.terminal.shape)

    def negated(t):
        y = np.array([np.cos(t), np.sin(t)]).T
        z = y @ z_of.T
        support = (np.sqrt(design.terminal.level
                           * np.einsum("...i,ij,...j", z, P_inv, z))
                   + design.input_tight.radius
                   * sum(np.linalg.norm(z @ S_k, axis=-1) for S_k in S))
        return support - y @ x_proj

    grid = np.linspace(0.0, 2.0 * np.pi, 721)
    t = grid[np.argmin(negated(grid))]
    best = minimize_scalar(negated, bounds=(t - 0.01, t + 0.01), method="bounded",
                           options={"xatol": 1e-12})
    return -float(best.fun)


def closed(bracket, rel=1e-12):
    return bracket.upper - bracket.lower <= rel * bracket.upper


def test_solve_hl_infeasible_reports_gap():
    # The tube QP has no feasible point: the active-set step does not
    # certify, and the certificate of `solve_qp` names the status; the
    # diagnostics bracket the gap, closed on the oracle's.
    tight = tight_design()
    qp = design_qp(tight)
    tube = BallConstraint(qp.factors.layout[0], tight.tube.ball.radius,
                          center=FAR)
    assert active_set_step(QuadraticProgram(
        qp.H, qp.g, qp.A_eq, qp.b_dyn, (tube, qp.inputs, qp.terminal),
        qp.factors), qp.factors).status is Status.MAX_ITERS
    start = time.perf_counter()
    with pytest.raises(InfeasibleHL) as err:
        solve_hl(qp, FAR)
    assert time.perf_counter() - start < 0.1
    diagnostics = err.value.diagnostics
    assert diagnostics["status"] == "infeasible"
    lower, upper = diagnostics["tube_gap_bracket"]
    assert diagnostics["tube_gap"] == lower > tight.tube.ball.radius
    assert upper - lower <= 1e-12 * upper
    oracle = gap_oracle(tight, FAR)
    assert abs(lower - oracle) <= 1e-9 * oracle


def test_solve_hl_reports_the_gap_on_every_failure(monkeypatch):
    # A start the tube QP admits, on a solve stopped after one Newton step
    # of the active-set step: the failure names MAX_ITERS and still carries
    # the gap's bracket, whose lower bound is within the tube radius.
    _, _, _, design = make_design(np.random.default_rng(31))
    monkeypatch.setattr(highlevel, "solve_qp",
                        lambda problem, **kw: solve_qp(problem, max_iters=1))
    with pytest.raises(InfeasibleHL) as err:
        solve_hl(design_qp(design), np.full(design.slow.n_states, 1.0))
    diagnostics = err.value.diagnostics
    assert diagnostics["status"] == "max_iters" and diagnostics["iterations"] == 1
    lower, upper = diagnostics["tube_gap_bracket"]
    assert diagnostics["tube_gap"] == lower <= design.tube.ball.radius
    assert upper >= lower


@pytest.mark.parametrize("tube", ["ball", "point"])
def test_solve_hl_refuses_a_nan_state(tube, decoupled, slow_qp):
    # A NaN projected state lies in no tube ball and pins nothing: the free
    # map does not decide the tick, the exact path ends MAX_ITERS at once,
    # and the error says so.
    qp = (design_qp(make_design(np.random.default_rng(29))[3]) if tube == "ball"
          else slow_qp(decoupled[2]))
    x_proj = np.zeros(qp.design.slow.n_states)
    x_proj[0] = np.nan
    start = time.perf_counter()
    with pytest.raises(InfeasibleHL) as err:
        solve_hl(qp, x_proj)
    assert time.perf_counter() - start < 0.1
    assert err.value.diagnostics["status"] == "max_iters"


@pytest.mark.parametrize("level", [1e-14, 1e-6])
def test_feasibility_gap_without_input_authority(level):
    # With input radius 0 the admissible x_0 are the ellipsoid
    # (A^N x_0)'P(A^N x_0) <= level; the nearest point is x(mu) =
    # (I + mu M)^-1 x_proj, M = A^N'PA^N, with mu found by root finding.
    design = tight_design(level, 0.0)
    gap = feasibility_gap(design_qp(design), FAR)
    A_N = np.linalg.matrix_power(design.slow.A, HORIZON)
    M = A_N.T @ design.terminal.shape @ A_N

    def x_of(mu):
        return np.linalg.solve(np.eye(2) + mu * M, FAR)

    mu = brentq(lambda m: x_of(m) @ M @ x_of(m) - level, 0.0, 1e20, rtol=1e-15)
    oracle = float(np.linalg.norm(x_of(mu) - FAR))
    assert closed(gap)
    assert abs(gap.lower - oracle) <= 1e-9 * oracle


def test_feasibility_gap_to_a_single_point():
    # Level 0 and input radius 0 admit x_0 = 0 alone (A^N is invertible).
    gap = feasibility_gap(design_qp(tight_design(0.0, 0.0)), FAR)
    for bound in (gap.lower, gap.upper):
        assert abs(bound - np.linalg.norm(FAR)) <= 1e-15 * np.linalg.norm(FAR)


def test_feasibility_gap_zero_when_feasible():
    rng = np.random.default_rng(27)
    model, red, slow, design = make_design(rng)
    gap = feasibility_gap(design_qp(design), np.array([0.2, -0.1]))
    assert gap.lower <= design.tube.ball.radius


def test_feasibility_gap_certificate_re_derives_and_its_point_rolls_out():
    # From the dual point w alone, with sigma_X written here: the lower
    # bound is (w'x_proj - sigma_X(w)) / ||w||.  The maximizers of sigma_X
    # at w give a plan, e = sqrt(level) P^-1 z / sqrt(z'P^-1 z) and u_k =
    # -r S_k'z / ||S_k'z||, z = A^-N'w, from x_0 = A^-N (e - sum_k S_k u_k):
    # rolled out step by step it keeps every input in its ball and ends
    # in the terminal set, and ||x_0 - x_proj|| is the upper bound.
    for level, radius in ((1e-14, 1e-6), (1e-6, 1e-4), (1e-2, 0.0)):
        design = tight_design(level, radius)
        gap = feasibility_gap(design_qp(design), FAR)
        z_of, S = support_terms(design)
        P = design.terminal.shape
        z = z_of @ gap.w
        Pz = np.linalg.solve(P, z)
        sigma = (np.sqrt(level * z @ Pz)
                 + radius * sum(np.linalg.norm(S_k.T @ z) for S_k in S))
        bound = (gap.w @ FAR - sigma) / np.linalg.norm(gap.w)
        assert abs(bound - gap.lower) <= 1e-12 * np.linalg.norm(FAR)
        e = np.sqrt(level) * Pz / np.sqrt(z @ Pz)
        u = [-radius * S_k.T @ z / np.linalg.norm(S_k.T @ z) for S_k in S]
        x = x0 = z_of.T @ (e - sum(S_k @ u_k for S_k, u_k in zip(S, u)))
        for u_k in u:
            assert np.linalg.norm(u_k) <= radius * (1 + 1e-12)
            x = design.slow.A @ x + design.slow.B @ u_k
        assert x @ P @ x <= level * (1 + 1e-9)
        assert abs(np.linalg.norm(x0 - FAR) - gap.upper) <= 1e-12 * gap.upper


def test_certificate_sweep_on_tight_designs():
    # Levels 1e-14 .. 1e-2, input radii 0 .. 1e-2 and starts at log-uniform
    # distances 1e-4 .. 1e4: `feasibility_gap` is the oracle's distance to
    # 1e-9 wherever the start lies outside X (and no more than 0 inside),
    # and `solve_qp` on the tube QP is INFEASIBLE exactly when that
    # distance exceeds the tube radius.
    rng = np.random.default_rng(32)
    decisions = []
    for level in (1e-14, 1e-10, 1e-6, 1e-2):
        for radius in (0.0, 1e-6, 1e-4, 1e-2):
            design = tight_design(level, radius)
            qp = design_qp(design)
            r_tube = design.tube.ball.radius
            for _ in range(3):
                angle = rng.uniform(0.0, 2.0 * np.pi)
                x_proj = (10.0 ** rng.uniform(-4.0, 4.0)
                          * np.array([np.cos(angle), np.sin(angle)]))
                oracle = gap_oracle(design, x_proj)
                gap = feasibility_gap(qp, x_proj)
                if oracle > 0.0:
                    assert abs(gap.lower - oracle) <= 1e-9 * oracle
                    assert closed(gap, 1e-9)
                else:
                    assert gap.lower <= 1e-9 * np.linalg.norm(x_proj)
                tube = BallConstraint(qp.factors.layout[0], r_tube, center=x_proj)
                res = solve_qp(QuadraticProgram(
                    qp.H, qp.g, qp.A_eq, qp.b_dyn, (tube, qp.inputs, qp.terminal),
                    qp.factors), max_iters=50)
                decisions.append(oracle > r_tube)
                assert (res.status is Status.INFEASIBLE) == decisions[-1]
    assert 10 <= sum(decisions) <= len(decisions) - 10


def test_tube_soak_recursive_feasibility():
    # 200 slow steps with disturbances on the boundary of the disturbance
    # ball: never infeasible, tube error certified every step.
    rng = np.random.default_rng(28)
    w_radius = 0.01
    model, red, slow, design = make_design(rng, w_radius=w_radius)
    errors = run_tube_soak(design, np.zeros(2), BallSet(2, w_radius),
                           n_steps=200, seed=7)
    assert len(errors) == 200
    assert max(errors) <= design.tube.ball.radius + 1e-6


# ---------------------------------------------------------------------------
# Point tube: the pinned-start guess


@pytest.fixture(scope="module")
def decoupled():
    """The thermal plant without the shared wall and its design, whose
    tube is the single point of radius 0."""
    model = build_thermal_model(default_building(decoupled=True))
    cfg = dataclasses.replace(RunConfig(), decoupled=True)
    return model, cfg, design_pipeline(model, cfg)


def ball_path(qp, x_proj):
    """The slow QP with its point tube as a ball of radius 0, solved by
    `solve_qp` as on any other tube."""
    tube = BallConstraint(np.arange(qp.design.slow.n_states),
                          qp.design.tube.ball.radius, center=x_proj)
    return solve_qp(QuadraticProgram(qp.H, np.zeros(qp.H.shape[0]), qp.A_eq,
                                     np.zeros(qp.A_eq.shape[0]),
                                     (tube, qp.inputs, qp.terminal), qp.factors))


def test_point_tube_pinned_guess_is_the_ball_optimum(decoupled, slow_qp):
    # Inactive input balls and terminal set: one KKT solve with x_0 pinned.
    _, _, bundle = decoupled
    assert bundle.hl.tube.ball.radius == 0.0
    qp = slow_qp(bundle)
    x_proj = np.array([0.6, -0.4])
    sol = solve_hl(qp, x_proj)
    assert sol.iterations == 0
    assert np.linalg.norm(sol.x_nominal - x_proj) <= 1e-12
    ref = ball_path(qp, x_proj)
    assert ref.status is Status.OPTIMAL and ref.iterations > 0
    n, N = qp.design.slow.n_states, qp.horizon
    assert np.max(np.abs(sol.x_nominal - ref.x[:n])) <= 1e-7
    assert np.max(np.abs(sol.u_nominal_seq.ravel() - ref.x[n * (N + 1):])) <= 1e-7
    assert abs(sol.objective - ref.objective) <= 1e-7 * max(1.0, abs(ref.objective))


def pinned_problem(qp, x_proj):
    """The slow QP of a point tube with x_0 = x_proj as equality rows."""
    return QuadraticProgram(qp.H, np.zeros(qp.H.shape[0]), qp.pinned.A_eq,
                            np.concatenate([np.zeros(qp.A_eq.shape[0]), x_proj]),
                            (qp.inputs, qp.terminal), qp.pinned)


def test_point_tube_binding_input_takes_the_pinned_step(decoupled, slow_qp,
                                                       kkt_certificate,
                                                       kkt_solves):
    # A far start saturates input balls: the pinned optimum is outside them,
    # and the active-set step on the pinned QP finds the optimum, with a
    # certificate that holds.  It is the ball path's optimum.  The tick
    # passes its own equality-only solve, the free map's product, as the
    # step's start, with no K0 solve of its own (the one it makes is the
    # step's set columns): its plan is the step's from that start, to the
    # bit, and the step's from a fresh K0 solve to roundoff.
    _, _, bundle = decoupled
    qp = slow_qp(bundle)
    x_proj = 50.0 * np.ones(qp.design.slow.n_states)
    n, N = qp.design.slow.n_states, qp.horizon
    pinned = pinned_problem(qp, x_proj)
    assert equality_first(pinned, qp.pinned) is None
    fresh = active_set_step(pinned, qp.pinned)
    step = active_set_step(pinned, qp.pinned, start=qp.free @ x_proj)
    assert step is not None and step.iterations > 0
    kkt_certificate(pinned, step.x, 1e-8)
    assert step.iterations == fresh.iterations
    assert np.max(np.abs(step.x - fresh.x)) <= 1e-12 * np.max(np.abs(fresh.x))
    tick_qp = slow_qp(bundle)
    before = len(kkt_solves)
    sol = solve_hl(tick_qp, x_proj)
    assert [f is tick_qp.pinned.lu
            for f in kkt_solves[before:]] == [True]
    assert sol.iterations == step.iterations
    assert np.max(np.abs(sol.x_nominal - x_proj)) <= 1e-12
    assert np.array_equal(sol.u_nominal_seq.ravel(), step.x[n * (N + 1):])
    ref = ball_path(qp, x_proj)
    assert ref.status is Status.OPTIMAL and ref.iterations > 0
    assert np.max(np.abs(sol.x_nominal - ref.x[:n])) <= 1e-7
    assert np.max(np.abs(sol.u_nominal_seq.ravel() - ref.x[n * (N + 1):])) <= 1e-7
    assert abs(sol.objective - ref.objective) <= 1e-7 * abs(ref.objective)


def test_point_tube_binding_input_falls_back_to_the_ball_path(
        decoupled, slow_qp, infeasibility_bound):
    # A start no plan can steer into the terminal set: the pinned QP is
    # infeasible, the step does not certify, and `solve_qp` on the pinned
    # QP itself gives the certificate, which re-derives from its dual point
    # alone and makes the error's status, iterations and residual.  The
    # gap of the diagnostics is the closed bracket around 292.2766079.
    # (The name is from the ball formulation this fallback once solved.)
    _, _, bundle = decoupled
    qp = slow_qp(bundle)
    x_proj = 500.0 * np.ones(qp.design.slow.n_states)
    pinned = pinned_problem(qp, x_proj)
    assert equality_first(pinned, qp.pinned) is None
    assert active_set_step(pinned, qp.pinned).status is Status.MAX_ITERS
    tick_qp = slow_qp(bundle)
    start = time.perf_counter()
    with pytest.raises(InfeasibleHL) as err:
        solve_hl(tick_qp, x_proj)
    assert time.perf_counter() - start < 0.1
    diagnostics = err.value.diagnostics
    ref = solve_qp(pinned)
    cert = ref.certificate
    assert diagnostics["status"] == ref.status.value == "infeasible"
    assert diagnostics["iterations"] == ref.iterations == cert.steps
    assert diagnostics["primal_residual"] == ref.primal_residual == cert.lower
    assert abs(infeasibility_bound(pinned, cert) - cert.lower) \
        <= 1e-12 * np.linalg.norm(pinned.A_eq) * np.linalg.norm(x_proj)
    lower, upper = diagnostics["tube_gap_bracket"]
    assert diagnostics["tube_gap"] == lower > 0.0
    assert upper - lower <= 1e-12 * upper
    assert abs(lower - 292.2766079) <= 1e-9 * lower


def test_tube_qp_pins_only_a_point_tube(decoupled, slow_qp):
    rng = np.random.default_rng(29)
    _, _, _, design = make_design(rng)
    assert design.tube.ball.radius > 0.0
    assert design_qp(design).pinned is None
    qp = slow_qp(decoupled[2])
    n, d = qp.design.slow.n_states, qp.H.shape[0]
    assert qp.pinned.A_eq.shape == (qp.A_eq.shape[0] + n, d)
    assert np.array_equal(qp.pinned.A_eq[:-n], qp.A_eq)
    assert np.array_equal(qp.pinned.A_eq[-n:], np.eye(n, d))
    assert [s.shape for s in qp.pinned.layout] == [qp.inputs.indices.shape,
                                                   qp.terminal.indices.shape]


def per_step_tube_data(design, Q, R, N):
    """H and A_eq of the slow QP with stage weights Q and R over N steps,
    one np.ix_ gather per block: x_0..x_N, then u_0..u_{N-1}."""
    slow = design.slow
    n, m = slow.n_states, slow.n_inputs
    d = n * (N + 1) + m * N

    def x_idx(k):
        return np.arange(k * n, (k + 1) * n)

    def u_idx(k):
        return np.arange(n * (N + 1) + k * m, n * (N + 1) + (k + 1) * m)

    H = np.zeros((d, d))
    for k in range(N):
        H[np.ix_(x_idx(k), x_idx(k))] = Q
        H[np.ix_(u_idx(k), u_idx(k))] = R
    H[np.ix_(x_idx(N), x_idx(N))] = design.terminal.shape
    H = 2.0 * H + 1e-10 * np.eye(d)
    A_eq = np.zeros((n * N, d))
    for k in range(N):
        rows = slice(k * n, (k + 1) * n)
        A_eq[rows, x_idx(k + 1)] = np.eye(n)
        A_eq[rows, x_idx(k)] = -slow.A
        A_eq[rows, u_idx(k)] = -slow.B
    return H, A_eq


def test_tube_qp_data_and_factors_match_the_per_step_construction(decoupled):
    # Bit for bit, on a ball tube and on the point tube with its pinned
    # factors as well.
    _, cfg, bundle = decoupled
    n_red, m = bundle.reduced.n_states, bundle.model.n_inputs
    for design, weights, N in (
            (make_design(np.random.default_rng(29))[3], (Q, R), HORIZON),
            (bundle.hl, slow_weights(cfg, n_red, m), cfg.horizon)):
        qp = tube_qp(design, *weights, N)
        H, A_eq = per_step_tube_data(design, *weights, N)
        assert qp.H.tobytes() == H.tobytes()
        assert qp.A_eq.tobytes() == A_eq.tobytes()
        oracle = KKTFactors(H, A_eq, qp.factors.layout)
        for got, want in zip(qp.factors.lu, oracle.lu):
            assert got.tobytes() == want.tobytes()
        if qp.pinned is not None:
            n = design.slow.n_states
            pinned = KKTFactors(H, np.vstack([A_eq, np.eye(n, H.shape[0])]),
                                qp.pinned.layout)
            for got, want in zip(qp.pinned.lu, pinned.lu):
                assert got.tobytes() == want.tobytes()


def test_decoupled_run_takes_the_pinned_step_on_two_ticks(decoupled):
    # Input balls bind on the first two ticks, which the active-set step on
    # the pinned QP solves; the later ticks take the pinned equality-only
    # optimum.  Every tick pins x_0 to the projected state.
    model, cfg, bundle = decoupled
    arc = run_closed_loop(model, dataclasses.replace(cfg, n_slow_steps=8),
                          bundle)
    iterations = arc.slow[:, arc.slow_cols.index("iterations")]
    assert np.all(iterations[:2] > 0)
    assert np.all(iterations[2:] == 0)
    tube_err = arc.slow[:, arc.slow_cols.index("tube_error")]
    assert np.max(tube_err) <= 1e-12


def test_kept_solve_with_a_moved_tube_steps_as_fresh_factors(kkt_solves):
    # The ball formulation's g and b_eq are zero on every tick: its
    # equality-only optimum (x = 0) is solved once, when `tube_qp` builds
    # the QP.  A tick whose tube centre is out of its reach takes the
    # active-set step, which runs from that solve as it does on a fresh
    # TubeQP.
    _, _, _, design = make_design(np.random.default_rng(31))
    qp = design_qp(design)
    r, n = design.tube.ball.radius, design.slow.n_states
    for scale in (0.5, -0.25):
        near = solve_hl(qp, scale * r * np.eye(n)[0])
        assert near.iterations == 0 and not near.x_nominal.any()
    x_far = np.full(n, 1.0)
    sol = solve_hl(qp, x_far)
    # Two uses of K0's factors: the equality-only solve of
    # `tube_qp`, and the set columns Z that the step builds on its first
    # run.
    assert sum(f is qp.factors.lu for f in kkt_solves) == 2
    ref = solve_hl(design_qp(design), x_far)
    assert sol.iterations == ref.iterations > 0
    for name in ("x_nominal", "u_nominal_seq", "u_applied", "x_nominal_next"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert sol.objective == ref.objective
