import numpy as np
import pytest
import scipy.linalg

from hiermpc import lowlevel
from hiermpc.errors import InfeasibleLL
from hiermpc.lowlevel import (LLGain, apply_correction, auxiliary_maps,
                              correction_prediction, correction_qp,
                              design_ll_gain, simulate_auxiliary, solve_ll)
from hiermpc.lti import CouplingMap, SubsystemModel, assemble
from hiermpc.reduction import reduce_model
from hiermpc.sets import BallSet
from hiermpc.solver import solve_qp


def scalar_pair(a1=0.5, a2=0.6, couple=0.0, b1=1.0, b2=1.0):
    subs = [
        SubsystemModel(A=[[a1]], B=[[b1]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 10.0)),
        SubsystemModel(A=[[a2]], B=[[b2]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 10.0)),
    ]
    coupling = CouplingMap(((None, [[couple]]), ([[couple]], None)))
    return assemble(subs, coupling)


def terminal_residual(qp, plan, x_bar_pred_i, aux_terminal):
    """How far the plan's projected terminal deviation lands from the slow
    layer's prediction gap x_bar_pred_i - beta_i aux_terminal[i]."""
    gap = np.asarray(x_bar_pred_i) - qp.beta @ aux_terminal[qp.state_slice]
    return float(np.abs(qp.beta @ plan.states[-1] - gap).max())


def test_auxiliary_matrix_power_oracle():
    model = scalar_pair(couple=0.1)
    x0 = np.array([1.0, -2.0])
    u = np.array([0.3, 0.4])
    period = 6
    states = simulate_auxiliary(auxiliary_maps(model, period), x0, u)
    assert states.shape == (period + 1, 2)
    for j in range(period + 1):
        oracle = np.linalg.matrix_power(model.A, j) @ x0
        oracle += sum((np.linalg.matrix_power(model.A, l) for l in range(j)),
                      np.zeros((2, 2))) @ model.B @ u
        assert np.allclose(states[j], oracle, atol=1e-12)


def test_design_ll_gain_decoupled():
    model = scalar_pair()
    gain = design_ll_gain(model, [np.eye(1), np.eye(1)], [[[10.0]], [[10.0]]])
    assert gain.rho < 1.0
    assert gain.K.shape == (2, 2)
    assert gain.K[0, 1] == 0.0 and gain.K[1, 0] == 0.0


def test_design_ll_gain_detunes_under_coupling():
    # Strong skew coupling: local gains can destabilize the coupled loop, the
    # detuning loop must still land on a Schur matrix.
    subs = [
        SubsystemModel(A=[[0.9]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 10.0)),
        SubsystemModel(A=[[0.9]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 10.0)),
    ]
    coupling = CouplingMap(((None, [[0.6]]), ([[-0.6]], None)))
    model = assemble(subs, coupling)
    gain = design_ll_gain(model, [np.eye(1), np.eye(1)], [np.eye(1), np.eye(1)])
    assert gain.rho < 1.0


def test_correction_prediction_layout():
    A = np.array([[0.5]])
    B = np.array([[2.0]])
    Gamma, reach = correction_prediction(A, B, 3)
    # states j=1,2 from inputs (u0,u1,u2); reach maps to state j=3.
    assert np.allclose(Gamma, [[2.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    assert np.allclose(reach, [[0.5, 1.0, 2.0]])


def test_solve_ll_scalar_hand_kkt():
    # n=m=1, A=a, B=b, period 2, beta=1, no budget bound:
    # min q (b u0)^2 + r (u0^2 + u1^2)  s.t.  a b u0 + b u1 = rhs.
    a, b, q, r, rhs = 0.5, 1.0, 1.0, 2.0, 0.7
    model = scalar_pair(a1=a, a2=0.6, b1=b)
    red = reduce_model(model, [1, 1])
    assert np.isclose(abs(red.beta[0, 0]), 1.0)
    sign = red.beta[0, 0]
    target = sign * rhs  # choose projected target so the raw gap is rhs
    # Hand KKT: u = argmin u'Du s.t. c'u = rhs with D = diag(qb^2+r, r),
    # c = (ab, b): u = D^{-1} c rhs / (c' D^{-1} c).
    D = np.diag([q * b * b + r, r])
    cvec = np.array([a * b, b])
    u_hand = np.linalg.solve(D, cvec) * (rhs / (cvec @ np.linalg.solve(D, cvec)))

    aux_terminal = np.zeros(2)  # zero rollout: gap equals the target itself
    qp = correction_qp(model, red, 0, BallSet(1, 100.0), [[q]], [[r]], period=2)
    plan = solve_ll(qp, np.array([target]), aux_terminal)
    assert np.allclose(plan.u_steps.ravel(), u_hand, atol=1e-6)
    assert terminal_residual(qp, plan, [target], aux_terminal) <= 1e-7


def test_solve_ll_budget_and_reset():
    rng = np.random.default_rng(29)
    model = scalar_pair(couple=0.05)
    red = reduce_model(model, [1, 1])
    budget = BallSet(1, 0.4)
    qp = correction_qp(model, red, 1, budget, np.eye(1), [[10.0]], period=8)
    aux_terminal = rng.normal(size=2)
    plan = solve_ll(qp, np.array([0.5]), aux_terminal)
    assert np.allclose(plan.states[0], 0.0)
    assert all(np.linalg.norm(u) <= budget.radius + 1e-7 for u in plan.u_steps)
    assert terminal_residual(qp, plan, [0.5], aux_terminal) <= 1e-7


def test_solve_ll_infeasible_when_target_too_far():
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    with pytest.raises(InfeasibleLL) as err:
        solve_ll(correction_qp(model, red, 0, BallSet(1, 0.1), np.eye(1),
                               np.eye(1), period=2),
                 np.array([50.0]), np.zeros(2))
    assert err.value.subsystem == 0
    assert err.value.diagnostics["target_norm"] > 0
    assert err.value.diagnostics["status"] == "infeasible"
    assert "target unreachable within budget" in str(err.value)
    assert "status infeasible" in str(err.value)


def test_solve_ll_names_the_iteration_limit(monkeypatch):
    # A binding budget needs more than 3 Newton steps of the active-set
    # step, so ADMM runs; stopped after 3 iterations the QP is not solved,
    # and the error says so instead of calling the target unreachable.
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    monkeypatch.setattr(lowlevel, "solve_qp",
                        lambda problem: solve_qp(problem, max_iters=3))
    with pytest.raises(InfeasibleLL) as err:
        solve_ll(correction_qp(model, red, 0, BallSet(1, 0.3), np.eye(1),
                               np.eye(1), period=4),
                 np.array([0.5]), np.zeros(2))
    assert err.value.diagnostics["status"] == "max_iters"
    assert "status max_iters after 3 iterations" in str(err.value)
    assert "unreachable" not in str(err.value)


def test_plan_states_follow_subsystem_dynamics():
    # The plan's states come from one product with the stacked prediction
    # maps; they are the subsystem's own recursion x+ = A_i x + B_i u.
    subs = [SubsystemModel(A=[[0.5, 0.1], [0.0, 0.6]], B=[[1.0, 0.0], [0.5, 1.0]],
                           E=[[1.0], [0.0]], C_z=[[1.0, 0.0]],
                           input_set=BallSet(2, 10.0)) for _ in range(2)]
    model = assemble(subs, CouplingMap(((None, [[0.05]]), ([[0.05]], None))))
    red = reduce_model(model, [1, 1])
    for budget, binds in ((10.0, False), (0.3, True)):
        plan = solve_ll(correction_qp(model, red, 1, BallSet(2, budget), np.eye(2),
                                      np.eye(2), period=7),
                        np.array([0.4]), np.zeros(4))
        assert (plan.iterations > 0) is binds
        assert plan.states.shape == (8, 2)
        assert np.array_equal(plan.states[0], np.zeros(2))
        sub = model.subsystems[1]
        for j in range(7):
            step = sub.A @ plan.states[j] + sub.B @ plan.u_steps[j]
            assert np.max(np.abs(plan.states[j + 1] - step)) <= 1e-12


def test_apply_correction_feedback_form():
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    plan = solve_ll(correction_qp(model, red, 0, BallSet(1, 10.0), np.eye(1),
                                  np.eye(1), period=3),
                    np.array([0.3]), np.zeros(2))
    K_i = np.array([[-0.4]])
    measured = np.array([[0.1], [0.25], [-0.2]])
    out = apply_correction(plan.u_steps, plan.states[:3], LLGain((K_i,), 0.5, 1),
                           measured)
    for j in range(3):
        expected = plan.u_steps[j] + K_i @ (measured[j] - plan.states[j])
        assert np.allclose(out[j], expected)


def test_ll_gain_product_is_blockwise():
    # Blocks of two shapes, interleaved: on a block of rows each u_i is
    # bitwise x_i K_i', as a subsystem computes it from its own columns
    # alone, and the whole is the dense product with K.
    rng = np.random.default_rng(5)
    blocks = tuple(rng.normal(size=shape)
                   for shape in [(1, 5), (2, 3), (1, 5), (2, 3)])
    K = scipy.linalg.block_diag(*blocks)
    gain = LLGain(blocks, 0.5, 1)
    cols = np.cumsum([0] + [blk.shape[1] for blk in blocks])
    for rows in (1, 20):
        x = rng.normal(size=(rows, K.shape[1]))
        expected = np.hstack([x[:, lo:hi] @ blk.T for blk, lo, hi
                              in zip(blocks, cols[:-1], cols[1:])])
        assert np.array_equal(gain @ x, expected)
        assert np.allclose(gain @ x, x @ K.T, rtol=1e-12, atol=1e-12)
        assert np.allclose(gain @ x[0], K @ x[0], rtol=1e-12, atol=1e-12)


def test_decoupled_correction_reproduces_prediction():
    # With zero coupling the planned deviation trajectory is exact for the
    # plant: rolling the plant with held input + plan equals auxiliary + plan.
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    period = 5
    x0 = np.array([1.0, -1.0])
    u_bar = np.array([0.2, -0.1])
    aux_terminal = simulate_auxiliary(auxiliary_maps(model, period), x0, u_bar)[-1]
    i = 0
    beta_i = red.beta_block(i, model)
    x_bar_pred = beta_i @ aux_terminal[model.state_slice(i)] + 0.15
    plan = solve_ll(correction_qp(model, red, i, BallSet(1, 10.0), np.eye(1),
                                  np.eye(1), period),
                    x_bar_pred, aux_terminal)
    x = x0.copy()
    for j in range(period):
        u = u_bar.copy()
        u[i] += plan.u_steps[j][0]
        x = model.A @ x + model.B @ u
    assert np.isclose(beta_i @ x[model.state_slice(i)], x_bar_pred, atol=1e-9)
