import dataclasses

import numpy as np
import pytest

from hiermpc.errors import InfeasibleHL
from hiermpc.gains import dlyap
from hiermpc.harness import RunConfig, design_pipeline, run_closed_loop
from hiermpc.highlevel import (GainDesign, HLDesign, SlowModel, design_gain,
                               feasibility_gap, lift, solve_hl, terminal_cost,
                               tube_qp)
from hiermpc.lti import CouplingMap, SubsystemModel, assemble
from hiermpc.reduction import reduce_model
from hiermpc.sets import BallSet, EllipsoidSet, rpi_outer, terminal_set
from hiermpc.solver import (BallConstraint, QuadraticProgram, Status,
                            equality_first, solve_qp)
from hiermpc.thermal import build_thermal_model, default_building


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


def make_design(rng, period=5, horizon=6, w_radius=0.01):
    model = make_model(rng)
    red = reduce_model(model, [1, 1])
    slow = lift(red, period)
    Q = np.eye(2)
    R = 0.1 * np.eye(2)
    gd = design_gain(slow, model, red, Q, R)
    tube = rpi_outer(gd.F_red, BallSet(2, w_radius))
    P = terminal_cost(gd.F_red, gd.K, Q, R)
    u_tight = BallSet(2, 5.0 - float(np.linalg.norm(gd.K, 2)) * tube.ball.radius)
    term = terminal_set(gd.F_red, P, gd.K, u_tight)
    design = HLDesign(slow, gd, tube, P, term, u_tight, Q, R, horizon)
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
    qp = tube_qp(design)
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
    gd = design_gain(slow, model, red, np.eye(2), 0.1 * np.eye(2))
    assert gd.rho_red < 1.0
    assert gd.rho_full < 1.0
    assert gd.rounds >= 1


def test_design_gain_zero_input_matrix():
    class Dummy:
        pass

    slow = SlowModel(np.diag([0.5, 0.4]), np.zeros((2, 2)), 4)
    rng = np.random.default_rng(22)
    model = make_model(rng)
    red = reduce_model(model, [1, 1])
    gd = design_gain(slow, model, red, np.eye(2), np.eye(2))
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
    loose = with_sets(design, BallSet(2, 0.0), EllipsoidSet(design.P, 1e12),
                      BallSet(2, 1e6))
    x_proj = np.array([0.4, -0.3])
    sol = solve_hl(tube_qp(loose), x_proj)
    P = design.P.copy()
    for _ in range(design.horizon):
        S = design.R + slow.B.T @ P @ slow.B
        P = (design.Q + slow.A.T @ P @ slow.A
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
    sol = solve_hl(tube_qp(design), x_proj)
    assert np.linalg.norm(x_proj - sol.x_nominal) <= design.tube.ball.radius + 1e-6
    for u in sol.u_nominal_seq:
        assert np.linalg.norm(u) <= design.input_tight.radius + 1e-6


def test_solve_hl_infeasible_reports_gap():
    rng = np.random.default_rng(26)
    model, red, slow, design = make_design(rng)
    tight = with_sets(design, BallSet(2, 1e-3), EllipsoidSet(design.P, 1e-14),
                      BallSet(2, 1e-6))
    with pytest.raises(InfeasibleHL) as err:
        solve_hl(tube_qp(tight), np.array([500.0, 500.0]), first_step=True)
    assert "tube_gap" in err.value.diagnostics
    assert "tube_gap_status" in err.value.diagnostics
    assert err.value.diagnostics["tube_gap"] > tight.tube.ball.radius


def test_feasibility_gap_zero_when_feasible():
    rng = np.random.default_rng(27)
    model, red, slow, design = make_design(rng)
    gap, _ = feasibility_gap(tube_qp(design), np.array([0.2, -0.1]))
    assert gap <= design.tube.ball.radius


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


def test_point_tube_pinned_guess_is_the_ball_optimum(decoupled):
    # Inactive input balls and terminal set: one KKT solve with x_0 pinned.
    _, _, bundle = decoupled
    assert bundle.hl.tube.ball.radius == 0.0
    qp = tube_qp(bundle.hl)
    x_proj = np.array([0.6, -0.4])
    sol = solve_hl(qp, x_proj)
    assert sol.iterations == 0
    assert np.linalg.norm(sol.x_nominal - x_proj) <= 1e-12
    ref = ball_path(qp, x_proj)
    assert ref.status is Status.OPTIMAL and ref.iterations > 0
    n, N = qp.design.slow.n_states, qp.design.horizon
    assert np.max(np.abs(sol.x_nominal - ref.x[:n])) <= 1e-7
    assert np.max(np.abs(sol.u_nominal_seq.ravel() - ref.x[n * (N + 1):])) <= 1e-7
    assert abs(sol.objective - ref.objective) <= 1e-7 * max(1.0, abs(ref.objective))


def test_point_tube_binding_input_falls_back_to_the_ball_path(decoupled):
    # A far start saturates the input balls: the pinned optimum is outside
    # them, so the ball formulation is solved exactly as without the guess.
    _, _, bundle = decoupled
    qp = tube_qp(bundle.hl)
    x_proj = 50.0 * np.ones(qp.design.slow.n_states)
    n, N = qp.design.slow.n_states, qp.design.horizon
    pinned = QuadraticProgram(qp.H, np.zeros(qp.H.shape[0]), qp.pinned.A_eq,
                              np.concatenate([np.zeros(qp.A_eq.shape[0]), x_proj]),
                              (qp.inputs, qp.terminal), qp.pinned)
    assert equality_first(pinned, qp.pinned) is None
    sol = solve_hl(qp, x_proj)
    ref = ball_path(qp, x_proj)
    assert sol.iterations == ref.iterations > 0
    assert np.array_equal(sol.x_nominal, ref.x[:n])
    assert np.array_equal(sol.u_nominal_seq.ravel(), ref.x[n * (N + 1):])
    assert sol.objective == ref.objective


def test_tube_qp_pins_only_a_point_tube(decoupled):
    rng = np.random.default_rng(29)
    _, _, _, design = make_design(rng)
    assert design.tube.ball.radius > 0.0
    assert tube_qp(design).pinned is None
    qp = tube_qp(decoupled[2].hl)
    n, d = qp.design.slow.n_states, qp.H.shape[0]
    assert qp.pinned.A_eq.shape == (qp.A_eq.shape[0] + n, d)
    assert np.array_equal(qp.pinned.A_eq[:-n], qp.A_eq)
    assert np.array_equal(qp.pinned.A_eq[-n:], np.eye(n, d))
    assert [s.shape for s in qp.pinned.layout] == [qp.inputs.indices.shape,
                                                   qp.terminal.indices.shape]


def test_decoupled_run_leaves_admm_after_two_ticks(decoupled):
    model, cfg, bundle = decoupled
    arc = run_closed_loop(model, dataclasses.replace(cfg, n_slow_steps=8),
                          bundle)
    iterations = arc.slow[:, arc.slow_cols.index("iterations")]
    assert np.all(iterations[:2] > 0)
    assert np.all(iterations[2:] == 0)
    tube_err = arc.slow[:, arc.slow_cols.index("tube_error")]
    assert np.max(tube_err[2:]) <= 1e-12


def test_kept_solve_with_a_moved_tube_runs_admm_as_fresh_factors(kkt_solves):
    # The ball formulation's g and b_eq are zero on every tick: its
    # equality-only optimum (x = 0) is solved once and kept.  A tick whose
    # tube centre is out of its reach falls back to ADMM, which runs as it
    # does on a TubeQP that never kept anything.
    _, _, _, design = make_design(np.random.default_rng(31))
    qp = tube_qp(design)
    r, n = design.tube.ball.radius, design.slow.n_states
    for scale in (0.5, -0.25):
        near = solve_hl(qp, scale * r * np.eye(n)[0])
        assert near.iterations == 0 and not near.x_nominal.any()
    x_far = np.full(n, 1.0)
    sol = solve_hl(qp, x_far)
    assert sum(f is qp.factors.by_rho[0.0] for f in kkt_solves) == 1
    ref = solve_hl(tube_qp(design), x_far)
    assert sol.iterations == ref.iterations > 0
    for name in ("x_nominal", "u_nominal_seq", "u_applied", "x_nominal_next"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert sol.objective == ref.objective
