import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermpc import lowlevel
from hiermpc.errors import InfeasibleLL
from hiermpc.harness import (RunConfig, config_from_dict, design_pipeline,
                             fast_weights)
from hiermpc.lowlevel import (LLGain, apply_correction, auxiliary_maps,
                              block_toeplitz, correction_qp, design_ll_gain,
                              lag_response, simulate_auxiliary, solve_ll)
from hiermpc.lti import CouplingMap, SubsystemModel, assemble
from hiermpc.reduction import reduce_model
from hiermpc.sets import BallSet
from hiermpc.solver import Status, solve_qp
from hiermpc.thermal import (build_thermal_model, building_from_dict,
                             default_building)

CHAIN4 = Path(__file__).resolve().parents[1] / "perfbench" / "chain4_n40.json"


def scalar_pair(a1=0.5, a2=0.6, couple=0.0, b1=1.0, b2=1.0):
    subs = [
        SubsystemModel(A=[[a1]], B=[[b1]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 10.0)),
        SubsystemModel(A=[[a2]], B=[[b2]], E=[[1.0]], C_z=[[1.0]],
                       input_set=BallSet(1, 10.0)),
    ]
    coupling = CouplingMap(((None, [[couple]]), ([[couple]], None)))
    return assemble(subs, coupling)


def two_state_pair():
    subs = [SubsystemModel(A=[[0.5, 0.1], [0.0, 0.6]], B=[[1.0, 0.0], [0.5, 1.0]],
                           E=[[1.0], [0.0]], C_z=[[1.0, 0.0]],
                           input_set=BallSet(2, 10.0)) for _ in range(2)]
    return assemble(subs, CouplingMap(((None, [[0.05]]), ([[0.05]], None))))


def plan_lags(model, period):
    """The plan rollout of `lag_response`, which does not depend on the
    gain: here a zero one."""
    zero = LLGain(tuple(np.zeros((sub.n_inputs, sub.n_states))
                        for sub in model.subsystems), 0.0, 0)
    return lag_response(model, zero, period)[0]


def stacked_qp(model, red, budgets, Q_i, R_i, period):
    """The stacked correction QP with the same weights for every subsystem,
    and the plan rollout map gathered from the lag table it is built from."""
    dx = plan_lags(model, period)
    M = model.n_subsystems
    qp = correction_qp(model, red, budgets, [Q_i] * M, [R_i] * M, period, dx)
    return qp, block_toeplitz(dx, period + 1, period)


def plan_states(rollouts, plan, n):
    """Every subsystem's planned deviations at steps 0..period, (period+1, n),
    from the plan rollout map."""
    return (rollouts @ plan.u_steps.ravel()).reshape(-1, n)


def terminal_residual(model, red, i, states, x_bar_pred, aux_terminal):
    """How far subsystem i's projected terminal deviation lands from the slow
    layer's prediction gap x_bar_pred_i - beta_i aux_terminal[i]."""
    beta_i, sx = red.beta_block(i, model), model.state_slice(i)
    gap = np.asarray(x_bar_pred)[red.block_slice(i)] - beta_i @ aux_terminal[sx]
    return float(np.abs(beta_i @ states[-1, sx] - gap).max())


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
    # Subsystem 0 (A = 0.5, B = 2) over 3 steps: state 0 is zero, states
    # j = 1, 2 (Gamma) and the reach row j = 3 from inputs (u0, u1, u2).
    model = scalar_pair(a1=0.5, b1=2.0)
    rollout = block_toeplitz(plan_lags(model, 3)[:, :1, :1], 4, 3)
    assert np.array_equal(rollout, [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                                    [1.0, 2.0, 0.0], [0.5, 1.0, 2.0]])


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
    qp, rollouts = stacked_qp(model, red, [100.0, 100.0], [[q]], [[r]], 2)
    x_bar_pred = np.array([target, 0.0])  # subsystem 1 has nothing to do
    plan = solve_ll(qp, x_bar_pred, aux_terminal)
    assert np.allclose(plan.u_steps[:, 0], u_hand, atol=1e-6)
    assert np.array_equal(plan.u_steps[:, 1], np.zeros(2))
    states = plan_states(rollouts, plan, 2)
    assert terminal_residual(model, red, 0, states, x_bar_pred,
                             aux_terminal) <= 1e-7


def test_solve_ll_budget_and_reset():
    rng = np.random.default_rng(29)
    model = scalar_pair(couple=0.05)
    red = reduce_model(model, [1, 1])
    qp, rollouts = stacked_qp(model, red, [0.4, 0.4], np.eye(1), [[10.0]], 8)
    aux_terminal = rng.normal(size=2)
    x_bar_pred = np.array([red.beta[0] @ aux_terminal, 0.5])
    plan = solve_ll(qp, x_bar_pred, aux_terminal)
    states = plan_states(rollouts, plan, 2)
    assert np.allclose(states[0], 0.0)
    assert all(np.linalg.norm(u) <= 0.4 + 1e-7 for u in plan.u_steps[:, 1:])
    assert terminal_residual(model, red, 1, states, x_bar_pred,
                             aux_terminal) <= 1e-7


def test_solve_ll_infeasible_when_target_too_far():
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    qp, _ = stacked_qp(model, red, [0.1, 0.1], np.eye(1), np.eye(1), 2)
    with pytest.raises(InfeasibleLL) as err:
        solve_ll(qp, np.array([50.0, 0.0]), np.zeros(2))
    assert err.value.subsystem == 0
    assert err.value.diagnostics["target_norm"] > 0
    assert err.value.diagnostics["status"] == "infeasible"
    assert "target unreachable within budget" in str(err.value)
    assert "status infeasible" in str(err.value)


@pytest.mark.parametrize("period", [2, 4])
def test_solve_ll_target_gap_is_the_closed_form(period):
    # One target row per subsystem: the budget reaches the interval
    # |t| <= budget sum_k |beta_i A_i^k B_i|, so the certified gap of a
    # target outside it is |t| less that sum, as the error reports it.
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    qp, _ = stacked_qp(model, red, [0.1, 0.1], np.eye(1), np.eye(1), period)
    beta, sub = red.beta_block(0, model), model.subsystems[0]
    reach = 0.1 * sum(abs((beta @ np.linalg.matrix_power(sub.A, k) @ sub.B).item())
                      for k in range(period))
    for target in (50.0, -3.0):
        with pytest.raises(InfeasibleLL) as err:
            solve_ll(qp, np.array([target, 0.0]), np.zeros(2))
        diagnostics = err.value.diagnostics
        lower, upper = diagnostics["target_gap_bracket"]
        assert diagnostics["target_gap"] == lower
        assert abs(lower - (abs(target) - reach)) <= 1e-12 * abs(target)
        assert upper - lower <= 1e-12 * upper


def test_binding_ticks_factor_nothing(monkeypatch):
    # Every block's QP alone is factored once, when the QP is built, for its
    # columns of the free map.  Subsystem 0's budget binds on both ticks and
    # neither tick factors anything; block 1 is never solved alone and
    # keeps its part of the stacked equality-only solve.
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    lu_factor, shapes = scipy.linalg.lu_factor, []
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda a: shapes.append(a.shape) or lu_factor(a))
    qp, _ = stacked_qp(model, red, [0.3, 0.3], np.eye(1), np.eye(1), 4)
    assert shapes == [(5, 5), (5, 5)]
    for target in (0.5, 0.45):
        plan = solve_ll(qp, np.array([target, 0.01]), np.zeros(2))
        assert plan.iterations > 0
        assert np.max(np.linalg.norm(plan.u_steps[:, :1], axis=1)) >= 0.3 * (1 - 1e-9)
    assert shapes == [(5, 5), (5, 5)]
    free = solve_ll(qp, np.array([0.01, 0.01]), np.zeros(2))
    assert free.iterations == 0
    assert np.array_equal(plan.u_steps[:, 1], free.u_steps[:, 1])


def test_free_map_is_each_blocks_own_solve(workload_qp):
    # Block i's columns of the free map are its own factors' K0 solves
    # against the unit vectors of its target rows, to the bit, at its
    # inputs and its multiplier rows; every other entry is an exact zero.
    # Also with a block of two target rows.
    model = two_state_pair()
    small, _ = stacked_qp(model, reduce_model(model, [2, 1]), [5.0, 5.0],
                          np.eye(2), np.eye(2), 3)
    for model, qp in ((workload_qp[0], workload_qp[3]), (model, small)):
        d = qp.g.size
        rest = qp.free.copy()
        steps = np.arange(d).reshape(qp.period, -1)
        for i, (block, rows) in enumerate(zip(qp.blocks, qp.target_rows)):
            at = steps[:, model.input_slice(i)].ravel()
            r_i = rows.stop - rows.start
            unit = np.zeros((at.size + r_i, r_i))
            unit[at.size:] = np.eye(r_i)
            sol = block.factors.equality_solve(unit)
            assert qp.free[at, rows].tobytes() == sol[:at.size].tobytes()
            assert qp.free[d:][rows, rows].tobytes() == sol[at.size:].tobytes()
            rest[at, rows] = rest[d:][rows, rows] = np.nan
        assert np.all((rest == 0.0) | np.isnan(rest))
        assert not np.any(np.signbit(rest))
    assert small.target_rows[0] == slice(0, 2)


def test_solve_ll_names_the_iteration_limit(monkeypatch):
    # A binding budget needs more than one Newton step of the active-set
    # step; stopped after one the QP is not solved, and the error says so
    # instead of calling the target unreachable.
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    monkeypatch.setattr(lowlevel, "solve_qp",
                        lambda problem: solve_qp(problem, max_iters=1))
    qp, _ = stacked_qp(model, red, [0.3, 0.3], np.eye(1), np.eye(1), 4)
    with pytest.raises(InfeasibleLL) as err:
        solve_ll(qp, np.array([0.5, 0.0]), np.zeros(2))
    assert err.value.diagnostics["status"] == "max_iters"
    assert "status max_iters after 1 iterations" in str(err.value)
    assert "unreachable" not in str(err.value)


def test_plan_states_follow_subsystem_dynamics():
    # The plan rollout map gathered from the lag table gives each
    # subsystem's own recursion x+ = A_i x + B_i u on its own columns.
    model = two_state_pair()
    red = reduce_model(model, [1, 1])
    for budget, binds in ((10.0, False), (0.3, True)):
        qp, rollouts = stacked_qp(model, red, [budget, budget], np.eye(2),
                                  np.eye(2), 7)
        plan = solve_ll(qp, np.array([0.0, 0.4]), np.zeros(4))
        assert (plan.iterations > 0) is binds
        states = plan_states(rollouts, plan, 4)
        assert states.shape == (8, 4)
        assert np.array_equal(states[0], np.zeros(4))
        for i, sub in enumerate(model.subsystems):
            sx, su = model.state_slice(i), model.input_slice(i)
            for j in range(7):
                step = sub.A @ states[j, sx] + sub.B @ plan.u_steps[j, su]
                assert np.max(np.abs(states[j + 1, sx] - step)) <= 1e-12


def test_apply_correction_feedback_form():
    model = scalar_pair()
    red = reduce_model(model, [1, 1])
    qp, rollouts = stacked_qp(model, red, [10.0, 10.0], np.eye(1), np.eye(1), 3)
    plan = solve_ll(qp, np.array([0.3, 0.0]), np.zeros(2))
    u_plan = plan.u_steps[:, :1]
    x_plan = plan_states(rollouts, plan, 2)[:3, :1]
    K_i = np.array([[-0.4]])
    measured = np.array([[0.1], [0.25], [-0.2]])
    out = apply_correction(u_plan, x_plan, LLGain((K_i,), 0.5, 1), measured)
    for j in range(3):
        expected = u_plan[j] + K_i @ (measured[j] - x_plan[j])
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
    x_bar_pred = red.beta @ aux_terminal + np.array([0.15, -0.05])
    qp, _ = stacked_qp(model, red, [10.0, 10.0], np.eye(1), np.eye(1), period)
    plan = solve_ll(qp, x_bar_pred, aux_terminal)
    x = x0.copy()
    for j in range(period):
        x = model.A @ x + model.B @ (u_bar + plan.u_steps[j])
    for i in range(2):
        beta_i = red.beta_block(i, model)
        assert np.isclose(beta_i @ x[model.state_slice(i)],
                          x_bar_pred[red.block_slice(i)], atol=1e-9)


@pytest.fixture(scope="module", params=["coupled_n20", "chain4_n40"])
def workload_qp(request):
    """A benchmark workload's model, design, slow period and stacked
    correction QP."""
    if request.param == "chain4_n40":
        data = json.loads(CHAIN4.read_text())
        cfg = config_from_dict(data["run"])
        building = building_from_dict(data["building"])
    else:
        cfg, building = RunConfig(), default_building()
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    N = cfg.period
    qp = correction_qp(model, bundle.reduced, bundle.radii.rho_delta_u_hat,
                       *fast_weights(model, cfg), N, plan_lags(model, N))
    return model, bundle, N, qp


def own_qps(workload_qp, own_correction_qp):
    """Each subsystem's correction QP built alone, with a zero target, and
    the largest |target| its budget reaches: budget times the sum over the
    steps of the norm of its terminal map (one target row per subsystem)."""
    model, bundle, N, _ = workload_qp
    assert bundle.reduced.n_states == model.n_subsystems
    qps, reach = [], []
    Q, R = fast_weights(model, bundle.config)
    for i in range(model.n_subsystems):
        radius = float(bundle.radii.rho_delta_u_hat[i])
        alone = own_correction_qp(model, bundle.reduced, i, radius,
                                  Q[i], R[i], N, [0.0])
        qps.append(alone)
        steps = alone.A_eq.reshape(N, -1)
        reach.append(radius * np.linalg.norm(steps, axis=1).sum())
    return qps, np.array(reach)


def test_stacked_plan_equals_each_subsystem_solved_alone(workload_qp,
                                                         own_correction_qp):
    # The stacked QP is block-separable: its plan is, block by block, the
    # plan of each subsystem's own QP solved alone, whether budgets bind or
    # not, and one subsystem's target does not move another's plan.  Every
    # block's own QP is solved exactly, by the equality-only solve or the
    # active-set step, and the block matches it to 1e-12.
    model, _, N, qp = workload_qp
    alone, reach = own_qps(workload_qp, own_correction_qp)
    zero = np.zeros(model.n_states)

    def plan_matches_alone(target):
        plan = solve_ll(qp, target, zero)
        assert plan.u_steps.shape == (N, model.n_inputs)
        for i, own in enumerate(alone):
            res = solve_qp(dataclasses.replace(own, b_eq=target[i:i + 1]))
            assert res.status is Status.OPTIMAL
            got = plan.u_steps[:, model.input_slice(i)]
            assert np.max(np.abs(got - res.x.reshape(got.shape))) <= 1e-12
        return plan

    rng = np.random.default_rng(21)
    binds = [plan_matches_alone(rng.uniform(-0.9, 0.9, reach.size)
                                * reach).iterations > 0 for _ in range(8)]
    assert any(binds) and not all(binds)

    # Only subsystem 1's budget binds: the other blocks keep the bits of
    # the free plan.
    target = 0.02 * reach
    free = plan_matches_alone(target)
    assert free.iterations == 0
    target[1] = 0.8 * reach[1]
    bound = plan_matches_alone(target)
    assert bound.iterations > 0
    u1 = bound.u_steps[:, model.input_slice(1)]
    assert np.max(np.linalg.norm(u1, axis=1)) >= qp.budgets[1].radius * (1 - 1e-9)
    others = np.ones(model.n_inputs, dtype=bool)
    others[model.input_slice(1)] = False
    assert np.array_equal(bound.u_steps[:, others], free.u_steps[:, others])


def test_solve_ll_names_the_one_subsystem_out_of_budget(workload_qp,
                                                        own_correction_qp):
    model, _, _, qp = workload_qp
    _, reach = own_qps(workload_qp, own_correction_qp)
    target = 0.1 * reach
    target[1] = 2.0 * reach[1]
    with pytest.raises(InfeasibleLL) as err:
        solve_ll(qp, target, np.zeros(model.n_states))
    assert err.value.subsystem == 1
    assert str(err.value).startswith("subsystem 1: correction target "
                                     "unreachable within budget")
    assert err.value.diagnostics["status"] == "infeasible"
    assert np.isclose(err.value.diagnostics["target_norm"], target[1])


@pytest.mark.parametrize("widths", [(3, 1, 2), (1, 1, 1), (3, 3, 3), (9, 9, 9)])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-150.0, 150.0))
def test_within_budgets_decides_as_each_ball(widths, seed, exponent):
    # The budget check of the free tick decides each family as its ball's
    # `violation` does, with one input or several per subsystem, the same
    # count for all or not, and with each radius one ulp below, at or one
    # ulp above the family's largest step norm, at any scale.
    rng = np.random.default_rng(seed)
    subs = [SubsystemModel(A=[[0.5]], B=[rng.uniform(0.2, 1.0, w)],
                           E=[[1.0]], C_z=[[1.0]], input_set=BallSet(w, 10.0))
            for w in widths]
    model = assemble(subs, CouplingMap(((None, [[0.1]], None),
                                        ([[0.1]], None, [[0.1]]),
                                        (None, [[0.1]], None))))
    qp = correction_qp(model, reduce_model(model, [1, 1, 1]), [1.0] * 3,
                       [np.eye(1)] * 3, [np.eye(sub.n_inputs) for sub in subs],
                       5, plan_lags(model, 5))
    assert qp.width == (widths[0] if len(set(widths)) == 1 else 0)
    plan = rng.normal(size=(5, model.n_inputs)) * 10.0 ** exponent
    plan[rng.random(plan.shape) < 0.2] = 0.0
    radii = []
    for ball in qp.budgets:
        v = plan.ravel()[ball.indices]
        norm = math.sqrt(float(np.add.reduce(v * v, axis=-1).max()))
        radii.append(np.nextafter(norm, rng.choice([0.0, norm, math.inf])))
    balls = tuple(dataclasses.replace(b, radius=float(r))
                  for b, r in zip(qp.budgets, radii))
    qp = dataclasses.replace(qp, budgets=balls, radii=np.array(radii))
    assert qp.within_budgets(plan).tolist() == [
        b.violation(plan.ravel()[b.indices]) == 0.0 for b in balls]
