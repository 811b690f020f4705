"""Closed-loop harness and trace archive: run invariants, persistence
round trips, bitwise determinism, and tamper detection."""
import dataclasses
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermpc import harness, highlevel, lowlevel, solver, trace
from hiermpc.analysis import CertificateReport
from hiermpc.cli import main
from hiermpc.errors import (ConfigInvalid, DesignIncomplete, InfeasibleHL)
from hiermpc.harness import (DesignBundle, RunConfig, config_digest,
                             config_from_dict, config_to_dict, design_pipeline,
                             run_closed_loop)
from hiermpc.highlevel import solve_hl, tube_qp
from hiermpc.lti import CouplingMap, SubsystemModel, assemble, lifted_closed_loop
from hiermpc.model_io import from_json, to_json
from hiermpc.sets import BallSet
from hiermpc.solver import Status, solve_qp
from hiermpc.thermal import (build_thermal_model, building_from_dict,
                             default_building)
from hiermpc.trace import (TRANSITION_ROUNDOFF, _read_csv, _write_csv,
                           archive_digest, load_archive, verify_archive,
                           write_archive, write_design)


@pytest.fixture(scope="module")
def model():
    return build_thermal_model(default_building())


@pytest.fixture(scope="module")
def short_cfg():
    return dataclasses.replace(RunConfig(), n_slow_steps=12)


@pytest.fixture(scope="module")
def bundle(model, short_cfg):
    return design_pipeline(model, short_cfg)


@pytest.fixture(scope="module")
def archive(model, short_cfg, bundle):
    return run_closed_loop(model, short_cfg, bundle)


@pytest.fixture(scope="module")
def archive_dir(archive, bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("arch") / "run"
    write_archive(archive, bundle, out)
    return out


def test_config_dict_round_trip():
    cfg = RunConfig(n_slow_steps=7, gamma1=3.0, x0=(1.0,) * 10)
    data = json.loads(json.dumps(config_to_dict(cfg)))
    again = config_from_dict(data)
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_config_rejects_unknown_and_invalid():
    with pytest.raises(ConfigInvalid):
        config_from_dict({"n_slow_steps": 5, "typo_key": 1})
    with pytest.raises(ConfigInvalid):
        RunConfig(period=0)
    with pytest.raises(ConfigInvalid):
        RunConfig(horizon=-2)
    with pytest.raises(ConfigInvalid):
        RunConfig(r_slow=0.0)
    with pytest.raises(ConfigInvalid):
        RunConfig(gamma1=-1.0)
    with pytest.raises(ConfigInvalid):
        RunConfig(retained_orders=(1, 0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["gamma1", "gamma2", "u_bar_floor", "q_slow",
                                  "r_slow", "q_fast", "r_fast"])
def test_config_rejects_non_finite_budget_weights(name, value):
    with pytest.raises(ConfigInvalid, match=name):
        RunConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_a_non_finite_start(value):
    # A NaN start would pass the design and end the run as a slow-layer
    # solve that names no cause.
    with pytest.raises(ConfigInvalid, match="x0"):
        RunConfig(x0=(value,) + (-2.0,) * 9)


@pytest.mark.parametrize("name, value", [("q_fast", 0.0), ("r_slow", -1.0),
                                         ("u_bar_floor", -100.0)])
def test_config_rejects_out_of_range_settings(name, value):
    with pytest.raises(ConfigInvalid, match=name):
        RunConfig(**{name: value})


def test_zero_start_stays_at_zero(model):
    cfg = dataclasses.replace(RunConfig(), x0=(0.0,) * 10, n_slow_steps=3)
    arc = run_closed_loop(model, cfg)
    assert np.max(np.abs(arc.fast_block("x", model.n_states))) == 0.0
    assert np.max(np.abs(arc.fast_block("u", model.n_inputs))) == 0.0
    assert np.max(np.abs(arc.final_state)) == 0.0


def test_decoupled_disturbance_vanishes():
    model = build_thermal_model(default_building(decoupled=True))
    cfg = dataclasses.replace(RunConfig(), n_slow_steps=5, decoupled=True)
    arc = run_closed_loop(model, cfg)
    n_red = sum(cfg.retained_orders)
    assert np.max(np.abs(arc.slow_block("wbar", n_red))) <= 1e-12


def per_subsystem_run(model, cfg, bundle, own_correction_qp, slow_qp):
    """Reference closed loop stepped fast step by fast step and subsystem by
    subsystem.  Below the slow solve it shares nothing with the affine tick
    of `run_closed_loop`: the auxiliary rollout is its own step recursion,
    each plan comes from `solve_qp` on the subsystem's own correction QP,
    built alone, with its states stepped under the subsystem's dynamics,
    and each fast step applies one correction per subsystem and one plant
    step.  Returns the fast records by name, one row per fast step (the
    planned and the applied corrections `duhat` and `du`, the states `x`,
    the inputs `u` and the margins `margin`), and the final state."""
    reduced, slow, N, M = bundle.reduced, bundle.hl.slow, cfg.period, model.n_subsystems
    m = model.n_inputs
    rho_u = model.input_radii()
    hl_qp = slow_qp(bundle)
    Q, R = harness.fast_weights(model, cfg)
    x = np.asarray(cfg.x0, dtype=float)
    names = ("duhat", "du", "x", "u", "margin")
    rows = []
    for k in range(cfg.n_slow_steps):
        x_proj = reduced.beta @ x
        sol = solve_hl(hl_qp, x_proj)
        u_bar = sol.u_applied
        x_bar_pred = slow.A @ x_proj + slow.B @ u_bar
        aux = [x]
        for _ in range(N):
            aux.append(model.A @ aux[-1] + model.B @ u_bar)
        plans = []
        for i in range(M):
            sub, sx = model.subsystems[i], model.state_slice(i)
            rhs = (x_bar_pred[reduced.block_slice(i)]
                   - reduced.beta_block(i, model) @ aux[N][sx])
            res = solve_qp(own_correction_qp(
                model, reduced, i, float(bundle.radii.rho_delta_u_hat[i]),
                Q[i], R[i], N, rhs))
            assert res.status is Status.OPTIMAL
            u_steps = res.x.reshape(N, sub.n_inputs)
            states = [np.zeros(sub.n_states)]
            for j in range(N):
                states.append(sub.A @ states[-1] + sub.B @ u_steps[j])
            plans.append((u_steps, states))
        for j in range(N):
            dx = x - aux[j]
            duhat, du = np.empty(m), np.empty(m)
            for i, (u_steps, states) in enumerate(plans):
                su, sx = model.input_slice(i), model.state_slice(i)
                duhat[su] = u_steps[j]
                du[su] = u_steps[j] + bundle.ll_gain.blocks[i] @ (
                    dx[sx] - states[j])
            u = u_bar + du
            margins = [rho_u[i] - np.linalg.norm(u[model.input_slice(i)])
                       for i in range(M)]
            rows.append((duhat, du, x, u, margins))
            x = model.A @ x + model.B @ u
    return {name: np.array(block) for name, block in zip(names, zip(*rows))}, x


@pytest.mark.parametrize("decoupled", [False, True])
def test_stacked_fast_sub_loop_matches_per_subsystem_loop(decoupled,
                                                          own_correction_qp,
                                                          slow_qp):
    # The affine tick, the rollout that derives the unstored records and
    # the stepped oracle round differently; every record agrees to
    # roundoff, by name.
    model = build_thermal_model(default_building(decoupled=decoupled))
    cfg = dataclasses.replace(RunConfig(), n_slow_steps=4, decoupled=decoupled)
    bundle = design_pipeline(model, cfg)
    arc = run_closed_loop(model, cfg, bundle)
    records, final_state = per_subsystem_run(model, cfg, bundle,
                                             own_correction_qp, slow_qp)
    for name, want in records.items():
        got = arc.fast_block(name, want.shape[1])
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12, name
    assert np.max(np.abs(arc.final_state - final_state)) <= 1e-12


def stepped_fast_block(model, gain, duhat, x, u_bar):
    """The fast-step oracle of one tick: the plant under the held input plus
    the correction law, the auxiliary rollout and each subsystem's plan
    rollout, stepped one fast step at a time from x.  Returns the plant's
    states and the plant less the auxiliary rollout at steps 0..N, and the
    applied corrections."""
    m = model.n_inputs
    aux, plan = x.copy(), np.zeros(model.n_states)
    states, deviations, corrections = [x], [x - aux], []
    for j in range(duhat.shape[0]):
        du = np.empty(m)
        for i, sub in enumerate(model.subsystems):
            sx, su = model.state_slice(i), model.input_slice(i)
            du[su] = duhat[j, su] + gain.blocks[i] @ (x[sx] - aux[sx] - plan[sx])
            plan[sx] = sub.A @ plan[sx] + sub.B @ duhat[j, su]
        x = model.A @ x + model.B @ (u_bar + du)
        aux = model.A @ aux + model.B @ u_bar
        states.append(x)
        deviations.append(x - aux)
        corrections.append(du)
    return np.array(states), np.array(deviations), np.array(corrections)


@pytest.mark.parametrize("name", ["coupled_n20", "decoupled_n20", "chain4_n40"])
def test_fast_block_maps_match_the_recursion_and_the_correction_law(name):
    # W_N vec(duhat) is the plant less the auxiliary rollout at the period's
    # end, of the fast-step oracle that applies the correction law, from a
    # random start and held input.  It is the last block row of the block
    # lower-triangular Toeplitz matrix of the lag response, to the bit.
    cfg, building = _pinned_workload(name)
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    N, n, m = cfg.period, model.n_states, model.n_inputs
    _, W_N = harness.fast_block_maps(model, bundle, N)
    assert W_N.shape == (n, N * m)
    rng = np.random.default_rng(8)
    for _ in range(5):
        duhat = rng.normal(size=(N, m))
        _, deviations, _ = stepped_fast_block(
            model, bundle.ll_gain, duhat, rng.normal(size=n), rng.normal(size=m))
        assert np.max(np.abs(W_N @ duhat.ravel() - deviations[N])) <= 1e-12
    omega = lowlevel.lag_response(model, bundle.ll_gain, N)[1]
    assert np.array_equal(W_N, lowlevel.block_toeplitz(omega, N + 1, N)[N * n:])


@pytest.mark.parametrize("name", ["coupled_n20", "decoupled_n20", "chain4_n40"])
def test_fast_records_built_after_the_loop_match_each_tick(name, monkeypatch):
    # A tick computes only the auxiliary terminal state, one state row, and
    # the next boundary state xhat_N + W_N vec(duhat), which the trace
    # records as the next tick's state (the last one as the final state),
    # to the bit; the fast records are derived from the trace after the
    # loop.
    cfg, building = _pinned_workload(name)
    cfg = dataclasses.replace(cfg, n_slow_steps=3)
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    calls = []

    def recorded(maps, x_start, u_held):
        states = lowlevel.simulate_auxiliary(maps, x_start, u_held)
        calls.append((x_start.copy(), u_held.copy(), states.copy()))
        return states

    monkeypatch.setattr(harness, "simulate_auxiliary", recorded)
    arc = run_closed_loop(model, cfg, bundle)
    N, n, m = cfg.period, model.n_states, model.n_inputs
    assert [states.shape for *_, states in calls] == [(1, n)] * cfg.n_slow_steps
    _, W_N = harness.fast_block_maps(model, bundle, N)
    # The trace derives the held input by the slow layer's law, batched over
    # the ticks, so it meets the loop's to rounding, not bit for bit.
    ubar = arc.slow_block("ubar", m)
    for k, (x_start, u_held, (xhat_N,)) in enumerate(calls):
        assert np.array_equal(x_start, arc.ticks[k])
        np.testing.assert_allclose(u_held, ubar[k], rtol=1e-15, atol=0)
        duhat = arc.fast_block("duhat", m)[k * N:(k + 1) * N].ravel()
        assert np.array_equal(arc.ticks[k + 1], xhat_N + W_N @ duhat)


@pytest.fixture(scope="module",
                params=["coupled_n20", "decoupled_n20", "chain4_n40"])
def workload_qps(request, slow_qp):
    """A workload's slow QP (pinned on decoupled_n20) and stacked
    correction QP, as `run_closed_loop` builds them, with the largest
    |target| each subsystem's budget reaches: budget times the sum over
    the steps of the norm of its target row."""
    cfg, building = _pinned_workload(request.param)
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    ll_qp, _ = harness.fast_block_maps(model, bundle, cfg.period)
    reach = np.array([ball.radius * np.linalg.norm(
        ll_qp.A_eq[rows][:, ball.indices], axis=-1).sum()
        for ball, rows in zip(ll_qp.budgets, ll_qp.target_rows)])
    return slow_qp(bundle), ll_qp, reach


class ExactPath(Exception):
    """Raised by the stand-ins of the exact path: the tick was not free."""


def exact_path(*args, **kwargs):
    raise ExactPath


def free_tick(solve, *args):
    """The tick's solution if the free path decides it, else None: the
    exact path (`active_set_step`, `solve_qp`) is replaced by `exact_path`
    in the module that solves the tick."""
    module = highlevel if solve is solve_hl else lowlevel
    with pytest.MonkeyPatch.context() as mp:
        for name in ("active_set_step", "solve_qp"):
            if hasattr(module, name):
                mp.setattr(module, name, exact_path)
        try:
            return solve(*args)
        except ExactPath:
            return None


def assert_same_plan(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale, (got, want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0))
@example(seed=1, exponent=-3.0)
@example(seed=1, exponent=3.0)
def test_free_ticks_decide_as_equality_first(workload_qps, seed, exponent):
    # The free path of each layer decides a tick exactly when
    # `equality_first` decides the equivalent QP, built afresh; their plans
    # agree to 1e-12 of the largest entry, and the slow tick records the
    # residuals and objective of its own solve: x = 0 on a ball tube, the
    # held map's product on a point tube, whose equivalent QP has the rows
    # x_0 = x_proj under the dynamics.  The tick data run from well inside
    # to well outside the tube, the terminal set (the slow projected state,
    # up to 1e3 times the tube radius, or 1e3 on a point tube) and the
    # budgets (each subsystem's target, from 1e-3 to 1e3 times its reach).
    qp, ll_qp, reach = workload_qps
    rng = np.random.default_rng(seed)
    n, N = qp.design.slow.n_states, qp.horizon
    radius = qp.design.tube.ball.radius
    direction = rng.normal(size=n)
    x_proj = (radius or 1.0) * 10.0 ** exponent * direction / np.linalg.norm(
        direction)
    d = qp.H.shape[0]
    tube = solver.BallConstraint(qp.factors.layout[0], radius, center=x_proj)
    if qp.held is None:
        ref = solver.QuadraticProgram(qp.H, qp.g, qp.A_eq, qp.b_dyn,
                                      (tube, qp.inputs, qp.terminal))
        sol = np.zeros(d + qp.A_eq.shape[0])
    else:
        ref = solver.QuadraticProgram(
            qp.H, qp.g, np.vstack([qp.A_eq, np.eye(n, d)]),
            np.concatenate([qp.b_dyn, x_proj]), (qp.inputs, qp.terminal))
        sol = qp.held @ x_proj
    want = solver.equality_first(ref, solver.KKTFactors(
        ref.H, ref.A_eq, [c.indices for c in ref.constraints]))
    got = free_tick(solve_hl, qp, x_proj)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.iterations == 0
        assert_same_plan(np.concatenate([got.x_nominal,
                                         got.u_nominal_seq.ravel()]),
                         np.concatenate([want.x[:n], want.x[n * (N + 1):]]))
        x = sol[:d]
        assert (got.primal_residual, got.dual_residual) == \
            solver.equality_residuals(sol, ref.H, ref.g, ref.A_eq, ref.b_eq)
        assert got.objective == solver.qp_objective(ref.H, ref.g, x)

    target = reach * 10.0 ** rng.uniform(-3.0, exponent, reach.size) \
        * rng.choice([-1.0, 1.0], reach.size)
    aux_terminal = np.zeros(ll_qp.beta.shape[1])
    ref = solver.QuadraticProgram(ll_qp.H, ll_qp.g, ll_qp.A_eq, target,
                                  ll_qp.budgets)
    want = solver.equality_first(ref, solver.KKTFactors(
        ref.H, ref.A_eq, [c.indices for c in ref.constraints]))
    got = free_tick(lowlevel.solve_ll, ll_qp, target, aux_terminal)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.iterations == 0
        assert_same_plan(got.u_steps.ravel(), want.x)


def test_ball_formulation_never_solves_its_equality_only_system(
        model, bundle, short_cfg, monkeypatch, kkt_solves):
    # Over the 100 ticks of the default run the slow layer's g and b_eq
    # stay zero: its equality-only optimum is x = 0, never solved, and
    # every free tick only checks the tube ball.  The K0 factors are used
    # once, for the set columns Z of the active-set step, built on the
    # first tick that runs it and kept.  The correction layer's map is one
    # solve per block, with the block's own factors, when the run builds
    # it.  No tick makes a K0 solve of its own: a free tick is a product
    # with a map (or x = 0), and the others start the exact path from it.
    qps, ll_qps = [], []
    correction_qp = harness.correction_qp
    monkeypatch.setattr(harness, "tube_qp",
                        lambda *args: qps.append(tube_qp(*args)) or qps[-1])
    monkeypatch.setattr(harness, "correction_qp", lambda *args:
                        ll_qps.append(correction_qp(*args)) or ll_qps[-1])
    cfg = dataclasses.replace(short_cfg, n_slow_steps=100)
    arc = run_closed_loop(model, cfg, bundle)
    (qp,), (ll_qp,) = qps, ll_qps
    iterations = arc.slow[:, arc.slow_cols.index("iterations")]
    assert np.sum(iterations == 0) >= 90 and np.any(iterations > 0)
    slow, (block0, block1) = qp.factors.lu, [b.factors.lu for b in ll_qp.blocks]
    assert len(kkt_solves) == 3
    assert all(f is want for f, want in
               zip(kkt_solves, [block0, block1, slow]))


def test_free_ball_tick_is_the_zero_plan(bundle, slow_qp):
    # A ball tube's free tick returns x = 0: +0.0 plan entries and
    # objective, bit for bit the plan part of the K0 solve against the zero
    # g and b_eq, with zero residuals, and the tube feedback on x_proj as
    # the applied input.
    qp = slow_qp(bundle)
    assert qp.held is None
    n, N, d = qp.design.slow.n_states, qp.horizon, qp.H.shape[0]
    solved = qp.factors.equality_solve(np.concatenate([-qp.g, qp.b_dyn]))[:d]
    x_proj = 0.5 * qp.tube.radius * np.eye(n)[0]
    sol = solve_hl(qp, x_proj)
    assert sol.iterations == 0
    plan = np.concatenate([sol.x_nominal, sol.u_nominal_seq.ravel()])
    assert plan.tobytes() == np.concatenate(
        [solved[:n], solved[n * (N + 1):]]).tobytes()
    assert plan.tobytes() == np.zeros(plan.size).tobytes()
    assert (sol.objective, sol.primal_residual, sol.dual_residual) == (0.0,) * 3
    assert not np.signbit([sol.objective, sol.primal_residual,
                           sol.dual_residual]).any()
    assert sol.u_applied.tobytes() == (qp.design.gain.K @ x_proj).tobytes()


def test_x0_length_mismatch_rejected(model, bundle, short_cfg):
    cfg = dataclasses.replace(short_cfg, x0=(1.0, 2.0))
    with pytest.raises(ConfigInvalid):
        run_closed_loop(model, cfg, bundle)
    with pytest.raises(ConfigInvalid, match="x0"):
        design_pipeline(model, cfg)


@pytest.mark.parametrize("field, value", [("gamma1", 1.0), ("horizon", 5)])
def test_a_bundle_runs_only_under_the_config_it_was_designed_from(
        model, bundle, short_cfg, archive, tmp_path, field, value):
    """A run config that differs from the bundle's in a design setting is
    refused by the run and by the writer, which name the field: the archive
    would otherwise pair a certificate with settings it does not hold for."""
    cfg = dataclasses.replace(short_cfg, **{field: value})
    with pytest.raises(ConfigInvalid, match=field):
        run_closed_loop(model, cfg, bundle)
    with pytest.raises(ConfigInvalid, match=field):
        write_archive(dataclasses.replace(archive, config=cfg), bundle,
                      tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_a_bundle_runs_for_any_number_of_slow_steps(model, bundle, short_cfg,
                                                    tmp_path):
    # The number of slow steps is the run's, not the design's: the archive
    # records the run's config, and its design is the bundle's.
    cfg = dataclasses.replace(short_cfg, n_slow_steps=3)
    out = write_archive(run_closed_loop(model, cfg, bundle), bundle,
                        tmp_path / "run")
    loaded = load_archive(out).bundle
    assert loaded.config == cfg and bundle.config == short_cfg
    assert loaded.hl.gain.K.tobytes() == bundle.hl.gain.K.tobytes()
    passed = {c.name for c in verify_archive(out).checks if c.passed}
    assert {"record_counts", "config_hash", "transition_residual"} <= passed


def test_a_bundle_runs_only_on_the_plant_it_was_designed_on(model, bundle,
                                                           short_cfg, archive):
    """A plant that differs from the bundle's is refused, naming the parts
    that differ: the archive records the bundle's plant, so a run on another
    would fail its own transitions.  An equal plant built again from the
    same building runs, to the bit."""
    building = default_building()
    doubled = dataclasses.replace(
        building, conductance_shared=2.0 * building.conductance_shared)
    with pytest.raises(ConfigInvalid, match=r"differs .* in .*coupling"):
        run_closed_loop(build_thermal_model(doubled), short_cfg, bundle)
    again = build_thermal_model(building)
    assert again is not model
    arc = run_closed_loop(again, short_cfg, bundle)
    assert arc.fast.tobytes() == archive.fast.tobytes()


def test_infeasible_start_reports_slow_step(model, bundle, short_cfg):
    # A one-step horizon cannot steer a far-out projection into the terminal
    # set under the tightened input budget; the abort names the slow step.
    x0 = np.linalg.pinv(bundle.reduced.beta) @ np.array([100.0, 0.0])
    cfg = dataclasses.replace(short_cfg, horizon=1, x0=tuple(x0))
    tight = design_pipeline(model, cfg)
    with pytest.raises(InfeasibleHL) as exc_info:
        run_closed_loop(model, cfg, tight)
    assert exc_info.value.diagnostics["slow_step"] == 0


def test_design_fails_fast_on_impossible_floor(model, short_cfg):
    cfg = dataclasses.replace(short_cfg, u_bar_floor=1000.0)
    with pytest.raises(DesignIncomplete) as exc_info:
        design_pipeline(model, cfg)
    assert exc_info.value.stage == "radii"


def test_design_fails_fast_on_short_period(model, short_cfg):
    # Five fast steps leave the open loop still expanding in norm.
    cfg = dataclasses.replace(short_cfg, period=5)
    with pytest.raises(DesignIncomplete) as exc_info:
        design_pipeline(model, cfg)
    assert exc_info.value.stage == "certificate"
    assert "open_loop_contraction" in str(exc_info.value)


def test_design_fails_fast_on_a_deadbeat_slow_model():
    # Scalar rooms with A = 0 lift to A_slow = 0: no A_slow^horizon to
    # invert, so the first nominal states that admit a plan are no linear
    # image of the sets, and design names the stage before the slow gain.
    subs = [SubsystemModel(A=[[0.0]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                           input_set=BallSet(1, 10.0)) for _ in range(2)]
    model = assemble(subs, CouplingMap(((None, [[0.01]]), ([[0.01]], None))))
    cfg = dataclasses.replace(RunConfig(), x0=(0.1, 0.1), period=5)
    with pytest.raises(DesignIncomplete) as exc_info:
        design_pipeline(model, cfg)
    assert exc_info.value.stage == "slow_horizon"
    assert "A_slow^10 is singular to working precision" in str(exc_info.value)


def test_design_fails_fast_on_drained_held_budget(model, short_cfg):
    cfg = dataclasses.replace(short_cfg, u_bar_floor=0.001)
    with pytest.raises(DesignIncomplete) as exc_info:
        design_pipeline(model, cfg)
    assert exc_info.value.stage == "input_tightening"


def test_report_dict_round_trip(bundle):
    again = from_json(CertificateReport,
                      json.loads(json.dumps(to_json(bundle.report))))
    assert again.period == bundle.report.period
    assert again.kappa == bundle.report.kappa
    assert again.rho_w == bundle.report.rho_w
    assert again.clauses == bundle.report.clauses
    np.testing.assert_array_equal(again.sigma, bundle.report.sigma)
    np.testing.assert_array_equal(again.lambda_margins,
                                  bundle.report.lambda_margins)
    np.testing.assert_array_equal(again.radii.rho_u_bar,
                                  bundle.report.radii.rho_u_bar)


def test_design_dict_round_trip(bundle):
    data = json.loads(json.dumps(to_json(bundle)))
    again = from_json(DesignBundle, data)
    np.testing.assert_array_equal(again.hl.gain.K, bundle.hl.gain.K)
    np.testing.assert_array_equal(again.hl.terminal.shape,
                                  bundle.hl.terminal.shape)
    np.testing.assert_array_equal(again.ll_gain.K, bundle.ll_gain.K)
    assert again.hl.tube.ball.radius == bundle.hl.tube.ball.radius
    assert again.hl.terminal.level == bundle.hl.terminal.level
    assert again.radii.rho_u_bar.tobytes() == bundle.radii.rho_u_bar.tobytes()


def test_archive_round_trip_and_verify(model, archive, archive_dir):
    # The trace holds only the stored blocks, and the archive stores them as
    # they are.
    loaded = load_archive(archive_dir)
    assert loaded.config == loaded.bundle.config == archive.config
    assert loaded.fast_cols == archive.fast_cols == tuple(
        f"duhat{i}" for i in range(model.n_inputs))
    assert loaded.slow_cols == archive.slow_cols
    for stored, rows in ((loaded.fast, archive.fast), (loaded.slow, archive.slow)):
        assert stored.tobytes() == rows.tobytes()
    np.testing.assert_array_equal(loaded.final_state, archive.final_state)
    report = verify_archive(archive_dir)
    assert report.passed, report.table()
    assert "transition_residual" in {c.name for c in report.checks}


_EDGE_VALUES = np.array([[-0.0, 5e-324, -2.2250738585072014e-308,
                          np.finfo(float).max, -np.finfo(float).max, 0.1]])


@settings(max_examples=200, deadline=None)
@given(rows=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 6)),
                   elements=st.floats(allow_nan=False)))
@example(rows=_EDGE_VALUES)
@example(rows=_EDGE_VALUES.T)
@example(rows=np.empty((0, 3)))
@example(rows=np.empty((0, 1)))
def test_csv_codec_round_trips_bitwise(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "block.csv"
    columns = tuple(f"c{j}" for j in range(rows.shape[1]))
    _write_csv(path, "test.v1", columns, rows)
    got = _read_csv(path, "test.v1", columns)
    assert got.dtype == np.float64 and got.shape == rows.shape
    assert got.tobytes() == rows.tobytes()


def test_csv_codec_writes_seventeen_significant_digits(tmp_path):
    rows = np.array([[-0.0, 5e-324, -2.0, np.inf, -np.inf]])
    columns = tuple(f"c{j}" for j in range(rows.shape[1]))
    _write_csv(tmp_path / "block.csv", "test.v1", columns, rows)
    assert (tmp_path / "block.csv").read_text().splitlines() == [
        "# schema=test.v1 columns=5 rows=1", "c0,c1,c2,c3,c4",
        "-0,4.9406564584124654e-324,-2,inf,-inf"]
    got = _read_csv(tmp_path / "block.csv", "test.v1", columns)
    assert got.tobytes() == rows.tobytes()


_SAVETXT_EDGE_VALUES = np.array([
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
    2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max, -2.0,
    0.1])


@settings(max_examples=60, deadline=None)
@given(block=arrays(np.float64,
                    st.tuples(st.sampled_from([0, 1, 255, 256, 257, 600]),
                              st.integers(1, 7)),
                    elements=st.floats(width=64)),
       n_columns=st.integers(1, 7))
@example(block=np.resize(_SAVETXT_EDGE_VALUES, (257, 13)), n_columns=12)
@example(block=np.resize(_SAVETXT_EDGE_VALUES, (600, 12)), n_columns=12)
@example(block=np.empty((0, 4)), n_columns=2)
def test_csv_writer_matches_savetxt_bytewise(block, n_columns, tmp_path_factory):
    """`_write_csv` writes its two header lines, then exactly the bytes of
    `np.savetxt(fmt="%.17g", delimiter=",")`, across its chunk boundaries and
    for a column slice that is not contiguous."""
    rows = block[:, :n_columns]
    columns = tuple(f"c{j}" for j in range(rows.shape[1]))
    path = tmp_path_factory.mktemp("csv") / "block.csv"
    _write_csv(path, "test.v1", columns, rows)
    expected = io.StringIO()
    expected.write(f"# schema=test.v1 columns={len(columns)} "
                   f"rows={rows.shape[0]}\n" + ",".join(columns) + "\n")
    np.savetxt(expected, rows, fmt="%.17g", delimiter=",")
    assert path.read_bytes() == expected.getvalue().encode()


def test_archive_bitwise_determinism(model, bundle, tmp_path):
    cfg = dataclasses.replace(RunConfig(), n_slow_steps=4)
    dirs = []
    for tag in ("a", "b"):
        arc = run_closed_loop(model, cfg, bundle)
        out = tmp_path / tag
        write_archive(arc, bundle, out)
        dirs.append(out)
    assert archive_digest(dirs[0]) == archive_digest(dirs[1])
    for name in ("model.json", "config.json", "design.json",
                 "certificate.json", "fast.csv", "slow.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize("decoupled", [False, True])
def test_loaded_archive_re_encodes_to_the_same_bytes(decoupled, tmp_path):
    """Every JSON file of an archive is the codec's encoding of what
    load_archive decodes from it, byte for byte."""
    cfg = dataclasses.replace(RunConfig(), n_slow_steps=2, decoupled=decoupled)
    plant = build_thermal_model(default_building(decoupled))
    design = design_pipeline(plant, cfg)
    written = write_archive(run_closed_loop(plant, cfg, design), design,
                            tmp_path / "run")
    blocks = json.loads((written / "model.json").read_text())["coupling"]["blocks"]
    assert all(blk is None for row in blocks for blk in row) == decoupled
    loaded = load_archive(written)
    again = write_design(loaded.bundle, tmp_path / "again")
    for name in ("model.json", "config.json", "design.json", "certificate.json"):
        assert (again / name).read_bytes() == (written / name).read_bytes(), name


CHAIN4 = Path(__file__).resolve().parents[1] / "perfbench" / "chain4_n40.json"


def _json_nodes(node):
    yield node
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _json_nodes(child)


@pytest.mark.parametrize("plant", ["coupled", "chain4"])
def test_design_json_stores_each_quantity_once(plant, tmp_path):
    if plant == "chain4":
        data = json.loads(CHAIN4.read_text())
        cfg = config_from_dict(data["run"])
        building = building_from_dict(data["building"])
    else:
        cfg, building = RunConfig(), default_building()
    cfg = dataclasses.replace(cfg, n_slow_steps=2)
    model = build_thermal_model(building)
    design = design_pipeline(model, cfg)
    written = write_archive(run_closed_loop(model, cfg, design), design,
                            tmp_path / "run")
    nodes = list(_json_nodes(json.loads((written / "design.json").read_text())))

    def count(value):
        target = json.loads(json.dumps(to_json(value)))
        return sum(node == target for node in nodes)

    gain = design.hl.gain
    assert count(gain.K) == count(design.hl.terminal.shape) == 1
    # The slow closed loop, the terminal cost, the degenerate flag and the
    # block offsets are derived, not stored.
    assert count(design.hl.slow.closed_loop(gain.K)) == 0
    assert not any(isinstance(node, dict) and not {
        "P", "F_red", "degenerate", "offsets"}.isdisjoint(node)
        for node in nodes)
    assert design.hl.tube.ball.radius > 0
    assert count(design.hl.tube.ball.radius) == 1
    assert not any(isinstance(node, dict) and ("F_full" in node or "R_final" in node)
                   for node in nodes)
    assert count(design.ll_gain.K) == 0
    assert "F" not in json.loads((written / "design.json").read_text())["ll_gain"]

    loaded = load_archive(written).bundle
    np.testing.assert_array_equal(loaded.ll_gain.K, design.ll_gain.K)
    assert loaded.radii.rho_u_bar.tobytes() == design.radii.rho_u_bar.tobytes()
    # The lifted closed loop as verify_archive rebuilds it from the archive.
    plant_A, N = loaded.model.A, cfg.period
    F = lifted_closed_loop(plant_A, loaded.model.B, loaded.hl.gain.K,
                           loaded.reduced.beta, N)
    assert float(np.max(np.abs(np.linalg.eigvals(F)))) == gain.rho_full
    # The coupled fast closed loop, rebuilt from the archive as analysis does.
    F_fast = loaded.model.A + loaded.model.B @ loaded.ll_gain.K
    assert float(np.max(np.abs(np.linalg.eigvals(F_fast)))) == design.ll_gain.rho


DATA = Path(__file__).resolve().parent / "data"


def _assert_close(got, want, where):
    """Same JSON structure, every non-float equal, every float within 1e-9
    relative or 1e-12 absolute (a floor for the entries that are zero by
    the block structure of the plant)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, where


def _pinned_workload(name):
    """Run config and building of a workload pinned under tests/data: the
    default plant, the decoupled plant or perfbench/chain4_n40.json."""
    if name == "chain4_n40":
        data = json.loads(CHAIN4.read_text())
        return config_from_dict(data["run"]), building_from_dict(data["building"])
    decoupled = name == "decoupled_n20"
    return RunConfig(decoupled=decoupled), default_building(decoupled)


@pytest.mark.parametrize("name", ["coupled_n20", "decoupled_n20", "chain4_n40"])
def test_design_constants_match_the_pinned_files(name):
    """`design.json` and `certificate.json` of the default plant, the
    decoupled plant and perfbench/chain4_n40.json, as `hiermpc design`
    writes them, match the files pinned under tests/data."""
    cfg, building = _pinned_workload(name)
    design = to_json(design_pipeline(build_thermal_model(building), cfg))
    for part in ("config", "model"):
        design.pop(part)
    report = design.pop("report")
    pinned = json.loads((DATA / name / "certificate.json").read_text())
    _assert_close(report, pinned, "certificate")
    _assert_close(design, json.loads((DATA / name / "design.json").read_text()),
                  "design")


# Slow steps of the pinned traces: the first tick that takes the
# equality-only optimum follows the ticks that take the active-set step.
PINNED_STEPS = {"coupled_n20": 5, "decoupled_n20": 3, "chain4_n40": 2}


@pytest.mark.parametrize("name", sorted(PINNED_STEPS))
def test_short_traces_match_the_pinned_files(name, tmp_path):
    """The first slow steps of each workload's run, from its active-set
    ticks to its first equality-only tick, match `fast.csv` and `slow.csv` pinned
    under tests/data to 1e-9, and pass `verify_archive`."""
    cfg, building = _pinned_workload(name)
    cfg = dataclasses.replace(cfg, n_slow_steps=PINNED_STEPS[name])
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    out = write_archive(run_closed_loop(model, cfg, bundle), bundle,
                        tmp_path / name)
    for f in ("fast.csv", "slow.csv"):
        got, want = (out / f).read_text(), (DATA / name / f).read_text()
        assert got.splitlines()[:2] == want.splitlines()[:2], f
        rows = np.loadtxt(out / f, delimiter=",", skiprows=2)
        np.testing.assert_allclose(
            rows, np.loadtxt(DATA / name / f, delimiter=",", skiprows=2),
            rtol=1e-9, atol=1e-9, err_msg=f)
    iterations = rows[:, got.splitlines()[1].split(",").index("iterations")]
    assert iterations[:-1].min() > 0 and iterations[-1] == 0
    failing = [c for c in verify_archive(out).checks if not c.passed]
    if name == "decoupled_n20":
        # The decoupled nominal settles at slow step 31: a run cut before
        # it fails this one check, as `verify_archive` documents.
        assert [(c.name, c.detail) for c in failing] == [
            ("nominal_convergence", "never reached")]
    else:
        assert failing == []


def test_slow_csv_stores_only_the_decisions(bundle, archive_dir):
    # The projection, the disturbance and the tube error follow from the
    # states, the held input from the tick's state and the slow plan by the
    # tube law, and the nominal's successor from the plan's first step:
    # slow.csv keeps the tick's state, the nominal, the plan's inputs and
    # the solve's diagnostics, and nothing else.
    names = (archive_dir / "slow.csv").read_text().splitlines()[1].split(",")
    model, cfg, n_red = bundle.model, bundle.config, bundle.reduced.n_states
    assert names == ([f"x{i}" for i in range(model.n_states)]
                     + [f"xnom{i}" for i in range(n_red)]
                     + [f"useq{s}_{i}" for s in range(cfg.horizon)
                        for i in range(model.n_inputs)]
                     + ["objective", "iterations", "primal_residual",
                        "dual_residual"])
    assert tuple(names) == harness.slow_columns(
        model.n_states, n_red, model.n_inputs, cfg.horizon)


def test_fast_csv_stores_only_the_corrections(model, archive_dir):
    # The applied corrections follow from the plan by the regulator's law,
    # and the fast states from the tick's state, the held input and the
    # applied corrections: fast.csv names no applied correction and no
    # state.
    names = (archive_dir / "fast.csv").read_text().splitlines()[1].split(",")
    assert tuple(names) == harness.fast_columns(model.n_inputs)
    assert not [name for name in names
                if name.startswith("x") or name.rstrip("0123456789") == "du"]


def test_tick_states_are_the_in_memory_fast_states(model, archive):
    # The slow `x` block is the fast states at the ticks, bit for bit.
    N, n = archive.config.period, model.n_states
    assert archive.slow_block("x", n).tobytes() == \
        np.ascontiguousarray(archive.fast_block("x", n)[::N]).tobytes()


def stepped_ticks(archive):
    """The fast-step oracle of each tick of `archive`, from the tick's
    state, held input (the trace's, derived by the slow layer's law) and
    plan: (states 0..N, applied corrections) per tick."""
    model, N = archive.bundle.model, archive.config.period
    m = model.n_inputs
    duhat = archive.fast_block("duhat", m).reshape(-1, N, m)
    ubar = archive.slow_block("ubar", m)
    ticks = []
    for plan, x, u_held in zip(duhat, archive.ticks, ubar):
        states, _, corrections = stepped_fast_block(
            model, archive.bundle.ll_gain, plan, x, u_held)
        ticks.append((states, corrections))
    return ticks


def test_rolled_out_states_are_the_in_memory_ones(model, archive):
    # The trace's fast states are rolled out from each tick's state, held
    # input and plan (`harness.periods`).  The oracle stepped per subsystem
    # from the same values gives them up to rounding, and ends each period
    # on the next tick's state, which the loop computed by W_N.
    N, n = archive.config.period, model.n_states
    x = archive.fast_block("x", n).reshape(-1, N, n)
    for k, (states, _) in enumerate(stepped_ticks(archive)):
        assert np.max(np.abs(x[k] - states[:N])) <= 1e-14
        assert np.max(np.abs(archive.ticks[k + 1] - states[N])) <= 1e-14


def test_derived_records_of_a_run_and_of_its_archive_are_the_same_bits(
        model, archive, archive_dir):
    # A run and its loaded archive hold the same stored bits, and one
    # rollout derives the rest from them.
    loaded = load_archive(archive_dir)
    for prefix, width in (("du", model.n_inputs), ("x", model.n_states),
                          ("u", model.n_inputs), ("margin", model.n_subsystems)):
        assert loaded.fast_block(prefix, width).tobytes() == \
            archive.fast_block(prefix, width).tobytes(), prefix
    n_red = archive.bundle.reduced.n_states
    assert loaded.slow_block("wbar", n_red).tobytes() == \
        archive.slow_block("wbar", n_red).tobytes()
    for got, want in zip(loaded.rollout, archive.rollout):
        assert got.tobytes() == want.tobytes()


def test_digest_covers_the_final_state(archive_dir, tmp_path):
    bad = tmp_path / "moved"
    shutil.copytree(archive_dir, bad)
    meta = json.loads((bad / "metadata.json").read_text())
    meta["final_state"][0] += 1e-12
    (bad / "metadata.json").write_text(json.dumps(meta, indent=1))
    assert archive_digest(bad) != archive_digest(archive_dir)


def test_tail_envelope_reports_its_slack(archive_dir):
    # The worst gap is attained at k = 0, where the envelope is |x_0|; the
    # relative slack over the later slow steps says how close the run came.
    (check,) = [c for c in verify_archive(archive_dir).checks
                if c.name == "tail_envelope"]
    slack = float(check.detail.rsplit(": ", 1)[1])
    assert check.passed and check.worst == 0.0
    assert 0.0 < slack < 1.0


def test_verify_names_the_archive_version(archive_dir, tmp_path, capsys):
    bad = tmp_path / "old"
    shutil.copytree(archive_dir, bad)
    meta = json.loads((bad / "metadata.json").read_text())
    meta["archive_version"] = 5
    (bad / "metadata.json").write_text(json.dumps(meta))
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "archive_version 5" in err and "version 15" in err


@pytest.mark.parametrize("name, key, owner", [
    ("design.json", "hl", "DesignBundle"),
    ("certificate.json", "rho_w", "CertificateReport"),
    ("model.json", "coupling", "InterconnectedModel"),
])
def test_verify_names_a_missing_key(archive_dir, tmp_path, capsys, name, key,
                                    owner):
    bad = tmp_path / "cut"
    shutil.copytree(archive_dir, bad)
    data = json.loads((bad / name).read_text())
    del data[key]
    (bad / name).write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{owner}: missing key '{key}'" in err


def test_loaded_design_rebuilds_the_derived_quantities(bundle, archive_dir):
    """The block offsets, the terminal cost and the slow closed loop that
    design.json does not store come back bit for bit on load."""
    loaded = load_archive(archive_dir).bundle
    assert loaded.reduced.offsets == bundle.reduced.offsets
    assert loaded.hl.terminal.shape.tobytes() \
        == bundle.hl.terminal.shape.tobytes()
    assert loaded.hl.slow.closed_loop(loaded.hl.gain.K).tobytes() \
        == bundle.hl.slow.closed_loop(bundle.hl.gain.K).tobytes()


def _set(path, value):
    """A damage that sets the value under the keys of `path` to `value`."""
    def damage(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return damage


@pytest.mark.parametrize("name, damage, field", [
    ("design.json",
     lambda d: d["reduced"].update(beta=d["reduced"]["beta"][:1]),
     "ReducedModel.beta"),
    ("design.json", _set(("reduced", "orders"), [2, 0]),
     "ReducedModel.orders"),
    ("design.json", _set(("reduced", "orders"), [-1, 3]),
     "ReducedModel.orders"),
    ("design.json", _set(("reduced", "offsets"), [0, 2, 2]),
     "unknown key 'offsets'"),
    ("design.json", _set(("hl", "gain", "K"), [[1.0, 2.0]]),
     "HLDesign.gain.K"),
    ("design.json", _set(("hl", "terminal", "shape"), np.eye(3).tolist()),
     "EllipsoidSet.shape"),
    ("design.json", _set(("ll_gain", "blocks"), [[[1.0, 2.0]], [[1.0]]]),
     "ll_gain.blocks"),
    ("certificate.json", _set(("radii", "rho_delta_u_hat"), [1.0]),
     "radii.rho_delta_u_hat"),
    ("design.json",
     lambda d: d["hl"]["gain"].update(
         K=[[math.nan] * len(row) for row in d["hl"]["gain"]["K"]]),
     "GainDesign.K"),
    ("certificate.json", _set(("rho_w",), math.inf), "CertificateReport.rho_w"),
    # x'Px reads the symmetric part, whose eigenvalue -5e-3 makes the set
    # unbounded, though the lower triangle is positive definite.
    ("design.json", _set(("hl", "terminal", "shape"),
                         [[1000.000001, 1000.01], [1000.0, 1000.000001]]),
     "EllipsoidSet.shape"),
    ("design.json", _set(("hl", "tube", "ball", "indices"), [0.5, 1.0]),
     "BallSet.indices"),
    ("design.json", _set(("hl", "input_tight", "indices"), [-1, 0]),
     "BallSet.indices"),
    # The design's balls lie at the origin: a centre would be ignored.
    ("design.json", _set(("hl", "input_tight", "center"), [1.0, 0.0]),
     "HLDesign.input_tight"),
    ("model.json", lambda d: d["subsystems"][0]["input_set"].update(center=[1.0]),
     "SubsystemModel.input_set"),
    # The horizon is config.json's alone: a copy in design.json is refused.
    ("design.json", _set(("hl", "horizon"), 10), "unknown key 'horizon'"),
    # An empty self-coupling block is zero, but not of the block's shape.
    ("model.json", _set(("coupling", "blocks", 0, 0), []),
     "coupling block (0,0) has shape (1, 0), expected (5,5)"),
    ("model.json", _set(("coupling", "blocks", 0, 0), [[]]),
     "coupling block (0,0) has shape (1, 0), expected (5,5)"),
], ids=["beta_row", "order_zero", "order_negative", "offsets", "slow_gain",
        "terminal_shape", "fast_gain", "radii", "slow_gain_nan", "rho_w_inf",
        "terminal_indefinite", "tube_indices_fraction", "input_indices_negative",
        "input_centre", "model_input_centre", "horizon_copy",
        "self_coupling_empty", "self_coupling_empty_row"])
def test_verify_names_a_damaged_design_file(archive_dir, tmp_path, capsys,
                                            name, damage, field):
    """A design, model or certificate value of the wrong size, or a set that
    is not one, makes `verify` exit 1 with an error that names the file and
    the field, not raise from numpy."""
    bad = tmp_path / "damaged"
    shutil.copytree(archive_dir, bad)
    data = json.loads((bad / name).read_text())
    damage(data)
    (bad / name).write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {name}: ")
    assert field in err


def test_an_infinite_start_margin_is_read_back(tmp_path):
    # Two decoupled scalar rooms: the projection defect is exactly 0, so the
    # certificate's feasible-start margins are +inf, which its codec keeps.
    subs = [SubsystemModel(A=[[a]], B=[[1.0]], E=[[1.0]], C_z=[[1.0]],
                           input_set=BallSet(1, 10.0)) for a in (0.5, 0.6)]
    model = assemble(subs, CouplingMap(((None, [[0.0]]), ([[0.0]], None))))
    cfg = dataclasses.replace(RunConfig(), x0=(1.0, 1.0), n_slow_steps=3)
    bundle = design_pipeline(model, cfg)
    assert np.all(bundle.report.lambda_margins == math.inf)
    out = write_archive(run_closed_loop(model, cfg, bundle), bundle,
                        tmp_path / "run")
    assert np.all(load_archive(out).bundle.report.lambda_margins == math.inf)
    assert verify_archive(out).passed


def _drop_final_state(meta):
    del meta["final_state"]
    return meta


def _short_final_state(meta):
    meta["final_state"] = meta["final_state"][:-1]
    return meta


def _text_final_state(meta):
    meta["final_state"] = ["warm"] * len(meta["final_state"])
    return meta


def _metadata_as_list(meta):
    return [meta]


@pytest.mark.parametrize("damage", [_drop_final_state, _short_final_state,
                                    _text_final_state, _metadata_as_list])
def test_verify_names_damaged_metadata(archive_dir, tmp_path, capsys, damage):
    bad = tmp_path / "damaged"
    shutil.copytree(archive_dir, bad)
    meta = json.loads((bad / "metadata.json").read_text())
    (bad / "metadata.json").write_text(json.dumps(damage(meta)))
    assert main(["verify", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read metadata.json")


def test_verify_names_an_unreadable_file(archive_dir, tmp_path, capsys):
    bad = tmp_path / "torn"
    shutil.copytree(archive_dir, bad)
    text = (bad / "design.json").read_text()
    (bad / "design.json").write_text(text[:len(text) // 2])
    assert main(["verify", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read design.json")


def _cut_mid_line(text):
    return text[:len(text) // 2]


def _cut_at_line_boundary(text):
    return "".join(text.splitlines(keepends=True)[:-2])


def _cut_last_digit(text):
    return text[:-2]


def _foreign_schema(text):
    return text.replace("hiermpc.trace.fast.", "other.fast.", 1)


def _renamed_column(text):
    renamed = text.replace("duhat0", "dvhat0", 1)
    assert renamed != text
    return renamed


@pytest.mark.parametrize("damage", [_cut_mid_line, _cut_at_line_boundary,
                                    _cut_last_digit, _foreign_schema,
                                    _renamed_column])
def test_verify_names_an_unreadable_fast_csv(archive_dir, tmp_path, capsys,
                                             damage):
    bad = tmp_path / "torn"
    shutil.copytree(archive_dir, bad)
    (bad / "fast.csv").write_text(damage((bad / "fast.csv").read_text()))
    assert main(["verify", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read fast.csv")


def _tamper_csv_cell(path, column, row, delta):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    col = header.index(column)
    cells = lines[2 + row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_tampered_input_detected(archive_dir, tmp_path):
    # The plant input is rebuilt as ubar + du, with du the law on the plan,
    # so a changed planned correction moves the input that the transitions
    # are checked under; the changed plan no longer lands on the slow
    # layer's prediction either.
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "fast.csv", "duhat0", 7, 1e-3)
    failed = {c.name for c in verify_archive(bad).checks if not c.passed}
    assert failed == {"transition_residual", "ll_terminal"}


def test_plant_input_is_rebuilt_to_roundoff(model, archive, archive_dir):
    # fast.csv names no plant input `u` and no held input `ubar`; the trace
    # rebuilds the applied corrections du by the law and the input as
    # ubar + du, which the oracle stepped per subsystem gives up to
    # rounding.
    names = (archive_dir / "fast.csv").read_text().splitlines()[1].split(",")
    assert not [name for name in names if name.startswith("u")]
    N, m = archive.config.period, model.n_inputs
    du = archive.fast_block("du", m).reshape(-1, N, m)
    u = archive.fast_block("u", m).reshape(-1, N, m)
    ubar = archive.slow_block("ubar", m)
    for k, (_, corrections) in enumerate(stepped_ticks(archive)):
        assert np.max(np.abs(du[k] - corrections)) <= 1e-14
        assert np.max(np.abs(u[k] - (ubar[k] + corrections))) <= 1e-14


def test_bound_checks_report_the_used_fraction(archive_dir):
    # Each bound check's detail ends in the largest fraction of its bound
    # the run used.  The tube binds at the start, where the slow layer puts
    # the nominal on the tube's edge: its fraction is 1 up to rounding.
    checks = {c.name: c for c in verify_archive(archive_dir).checks}
    used = {name: float(checks[name].detail.rsplit(": ", 1)[1])
            for name in ("disturbance_bound", "tube_containment",
                         "correction_budgets", "input_limits")}
    assert used.pop("tube_containment") == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 < fraction < 1.0 for fraction in used.values()), used


def test_tampered_plan_breaks_the_transitions(archive_dir, tmp_path):
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "fast.csv", "duhat1", 7, 1e-6)
    failed = {c.name for c in verify_archive(bad).checks if not c.passed}
    # The changed plan no longer lands on the slow layer's prediction either.
    assert failed == {"transition_residual", "ll_terminal"}


def _transition_detail(check):
    """(absolute worst residual, ratio, slow step of the worst) of a
    `transition_residual` detail."""
    match = re.fullmatch(r"max \|residual\|: (\S+), ratio (\S+), "
                         r"worst at slow step (\d+)", check.detail)
    return float(match[1]), float(match[2]), int(match[3])


def test_a_tiny_plan_edit_breaks_the_transitions(archive_dir, tmp_path):
    # A 1e-9 edit of one planned correction, at fast step 1 of the middle
    # tick, moves the next tick's state by ~1e-12: far below an absolute
    # 1e-9 threshold, yet hundreds of times the roundoff of the terms the
    # period summed.
    archive_cfg = load_archive(archive_dir).bundle.config
    tick = archive_cfg.n_slow_steps // 2
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "fast.csv", "duhat0", tick * archive_cfg.period + 1,
                     1e-9)
    checks = {c.name: c for c in verify_archive(bad).checks}
    assert {name for name, c in checks.items() if not c.passed} == \
        {"transition_residual"}
    residual, ratio, step = _transition_detail(checks["transition_residual"])
    assert step == tick and residual < 1e-11
    assert ratio > 100 * TRANSITION_ROUNDOFF


def test_in_memory_disturbance_is_the_measured_one(model, archive,
                                                   archive_dir):
    # The in-memory `wbar` is the disturbance verify measures from the
    # stored states: the next projection less the slow prediction.
    loaded = load_archive(archive_dir)
    reduced, slow = loaded.bundle.reduced, loaded.bundle.hl.slow
    x = harness.column_block(loaded.slow_cols, loaded.slow, "x",
                             model.n_states)
    proj = np.vstack([x, loaded.final_state]) @ reduced.beta.T
    ubar = loaded.slow_block("ubar", model.n_inputs)
    w_meas = proj[1:] - (proj[:-1] @ slow.A.T + ubar @ slow.B.T)
    wbar = archive.slow_block("wbar", reduced.n_states)
    assert np.max(np.abs(wbar - w_meas)) <= 1e-12
    (check,) = [c for c in verify_archive(archive_dir).checks
                if c.name == "disturbance_bound"]
    assert check.worst == pytest.approx(
        float(np.max(np.linalg.norm(wbar, axis=1))), rel=0, abs=1e-12)


@pytest.mark.parametrize("row, failed", [
    (0, {"initial_state", "transition_residual", "ll_terminal"}),
    (6, {"transition_residual", "ll_terminal"})])
def test_tampered_tick_state_breaks_the_transitions(archive_dir, tmp_path, row,
                                                    failed):
    # The fast states are rolled out from each tick's stored state, and each
    # rollout must end on the next one: an edited tick state breaks the
    # period that ends on it, which the residual's detail names.  On row 0
    # it is also not the configured start.
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "slow.csv", "x0", row, 1e-3)
    checks = {c.name: c for c in verify_archive(bad).checks}
    assert {name for name, c in checks.items() if not c.passed} == failed
    assert _transition_detail(checks["transition_residual"])[2] == \
        max(row - 1, 0)


def test_a_trace_from_another_start_fails_the_initial_state(model, bundle,
                                                             archive_dir,
                                                             tmp_path):
    # A start of the same norm gives the same design and certificate, so a
    # trace spliced in from it passes every check but the start's.
    x0 = np.array([-1.0, -3.0] * 5)
    x0 *= np.linalg.norm(bundle.config.x0) / np.linalg.norm(x0)
    cfg = dataclasses.replace(bundle.config, x0=tuple(x0))
    other_bundle = design_pipeline(model, cfg)
    other = write_archive(run_closed_loop(model, cfg, other_bundle),
                          other_bundle, tmp_path / "other")
    for name in ("design.json", "certificate.json"):
        assert (other / name).read_bytes() == (archive_dir / name).read_bytes()
    spliced = tmp_path / "spliced"
    shutil.copytree(archive_dir, spliced)
    for name in ("fast.csv", "slow.csv"):
        shutil.copy(other / name, spliced / name)
    meta = json.loads((spliced / "metadata.json").read_text())
    meta["final_state"] = json.loads(
        (other / "metadata.json").read_text())["final_state"]
    (spliced / "metadata.json").write_text(json.dumps(meta, indent=1))
    checks = {c.name: c for c in verify_archive(spliced).checks}
    assert [name for name, c in checks.items() if not c.passed] == \
        ["initial_state"]
    assert checks["initial_state"].worst == \
        float(np.max(np.abs(x0 - np.asarray(bundle.config.x0))))


def test_tampered_nominal_leaves_the_tube(archive_dir, tmp_path):
    # The tube is measured around the projection of the stored states: a
    # nominal moved off the tube's edge at the start leaves it.  The held
    # input follows from the nominal by the tube law, so the period's closed
    # loop and the prediction its plan lands on move too, and the plan's
    # cost is no longer the stored objective.
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "slow.csv", "xnom0", 0, 1e-3)
    failed = {c.name for c in verify_archive(bad).checks if not c.passed}
    assert failed == {"tube_containment", "transition_residual",
                      "ll_terminal", "nominal_plan"}


@pytest.mark.parametrize("column, delta, part", [
    ("objective", 1e3, "objective"), ("useq5_0", 10.0, "inputs")])
def test_tampered_slow_plan_fails_the_plan_check(archive_dir, tmp_path,
                                                 column, delta, part):
    # The slow plan is checked, not trusted: verify rolls the nominal over
    # the horizon under the stored inputs, and the objective must be the
    # plan's cost and every input inside the tightened ball.  The detail
    # names the relative excess of each part and the slow step of the worst.
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "slow.csv", column, 0, delta)
    checks = {c.name: c for c in verify_archive(bad).checks}
    assert {name for name, c in checks.items() if not c.passed} == \
        {"nominal_plan"}
    match = re.fullmatch(r"relative excess of inputs (\S+), terminal (\S+), "
                         r"objective (\S+); worst at slow step (\d+)",
                         checks["nominal_plan"].detail)
    excess = dict(zip(("inputs", "terminal", "objective"),
                      map(float, match.groups()[:3])))
    assert excess[part] == pytest.approx(checks["nominal_plan"].worst,
                                         rel=1e-2)
    assert excess[part] > 0.1 and match[4] == "0"


def test_tampered_held_input_is_read_from_the_slow_trace(archive_dir, tmp_path):
    # slow.csv stores no held input: verify derives it by the tube law from
    # the plan's first input and repeats it over the period, so one edited
    # `useq0_0` cell reaches every check that reads the held input, the
    # period's closed loop and the slow layer's prediction its plan must
    # land on, and the plan's cost is no longer the stored objective.
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "slow.csv", "useq0_0", 3, 1e-3)
    checks = {c.name: c for c in verify_archive(bad).checks}
    assert {name for name, c in checks.items() if not c.passed} == \
        {"transition_residual", "ll_terminal", "nominal_plan"}
    assert _transition_detail(checks["transition_residual"])[2] == 3


@pytest.mark.parametrize("scale", [0, 0.5, 1.5])
def test_a_controller_with_another_slow_law_fails_verify(model, short_cfg,
                                                         bundle, scale,
                                                         monkeypatch,
                                                         tmp_path):
    # A slow layer that scales its tube feedback K (beta x - xnom) holds
    # inputs that no stored value contradicts: verify derives the held input
    # by the design's law, and the periods rolled out under it miss the
    # tick states the run reached, by orders of magnitude above roundoff.
    solution = highlevel._solution

    def scaled(qp, x_proj, *rest):
        sol = solution(qp, x_proj, *rest)
        u0 = sol.u_nominal_seq[0]
        return dataclasses.replace(
            sol, u_applied=u0 + scale * (sol.u_applied - u0))

    monkeypatch.setattr(highlevel, "_solution", scaled)
    arc = run_closed_loop(model, short_cfg, bundle)
    monkeypatch.undo()
    out = write_archive(arc, bundle, tmp_path / "run")
    checks = {c.name: c for c in verify_archive(out).checks}
    assert not checks["transition_residual"].passed
    assert checks["transition_residual"].worst > 1e6 * TRANSITION_ROUNDOFF


@pytest.mark.filterwarnings("error")
def test_verify_fails_an_overflowing_model_by_name(archive_dir, tmp_path,
                                                   capsys):
    # One +-1e300 entry of the model, in a subsystem's A or in a coupling
    # block, makes the rollouts and the lifted closed loop's powers
    # overflow, where the SVD of their norms does not converge: verify
    # fails by name the transitions (a NaN ratio), the inputs the law
    # derives from the overflowed states, the plans' terminal hit (a NaN
    # miss) and a non-finite envelope, and raises nothing, not even a numpy
    # warning (warnings are errors here), and the CLI writes nothing to
    # stderr.
    failed = {"transition_residual", "input_limits", "ll_terminal",
              "tail_envelope"}
    for name, (*path, key, value) in (
            ("huge", ("subsystems", 0, "A", 0, 0, 1e300)),
            ("coupling", ("coupling", "blocks", 0, 1, 0, 0, -1e300))):
        bad = tmp_path / name
        shutil.copytree(archive_dir, bad)
        data = json.loads((bad / "model.json").read_text())
        entry = data
        for step in path:
            entry = entry[step]
        entry[key] = value
        (bad / "model.json").write_text(json.dumps(data))
        checks = {c.name: c for c in verify_archive(bad).checks}
        assert {c for c, check in checks.items() if not check.passed} == failed
        assert math.isnan(checks["transition_residual"].worst)
        envelope = checks["tail_envelope"]
        assert envelope.worst == math.inf
        assert envelope.detail == "the envelope is not finite at k = 1"
        assert main(["verify", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert "\ntail_envelope " in out and err == ""


def test_a_nan_bound_check_reads_nan_in_its_detail(archive_dir, tmp_path):
    # After one 1e300 entry of the model the inputs the law derives from the
    # overflowed states are NaN: a bound check whose worst is NaN says so
    # in its used fraction too, not the largest finite one.
    bad = tmp_path / "huge"
    shutil.copytree(archive_dir, bad)
    data = json.loads((bad / "model.json").read_text())
    data["subsystems"][0]["A"][0][0] = 1e300
    (bad / "model.json").write_text(json.dumps(data))
    nan_checks = [c for c in verify_archive(bad).checks if c.name in (
        "input_limits", "correction_budgets", "disturbance_bound",
        "tube_containment") and math.isnan(c.worst)]
    assert [c.name for c in nan_checks] == ["input_limits"]
    for check in nan_checks:
        assert check.detail.rsplit(": ", 1)[1] == "nan", check.detail


def old_tail_envelope(x_norms, pow_norms, forcing):
    """The tail envelope's worst gap and smallest relative slack over
    k >= 1, summed one slow step at a time as verify once did."""
    worst_gap, slack = -np.inf, np.inf
    for k in range(len(x_norms)):
        env = pow_norms[k] * x_norms[0]
        if k:
            env += float(np.dot(pow_norms[k - 1::-1][:k], forcing[:k]))
        gap = float(x_norms[k] - env)
        worst_gap = max(worst_gap, gap)
        if k:
            slack = min(slack, float(-gap / env))
    return worst_gap, slack


@pytest.mark.parametrize("name", ["coupled_n20", "decoupled_n20", "chain4_n40"])
def test_tail_envelope_is_the_stepwise_sum(name, monkeypatch, tmp_path):
    # The envelope is one convolution of the power norms with the forcing;
    # on each workload's run it gives the worst gap and the slack of the
    # sum stepped slow step by slow step, to 1e-12 relative.
    cfg, building = _pinned_workload(name)
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    out = write_archive(run_closed_loop(model, cfg, bundle), bundle,
                        tmp_path / name)
    calls, envelope = [], trace._tail_envelope

    def recorded(*args):
        calls.append((args, envelope(*args)))
        return calls[-1][1]

    monkeypatch.setattr(trace, "_tail_envelope", recorded)
    (check,) = [c for c in verify_archive(out).checks
                if c.name == "tail_envelope"]
    ((x_norms, pow_norms, forcing), (worst, slack, detail)), = calls
    assert len(x_norms) == cfg.n_slow_steps + 1
    assert (check.worst, check.detail) == (worst, detail)
    old_worst, old_slack = old_tail_envelope(x_norms, pow_norms, forcing)
    assert worst == pytest.approx(old_worst, rel=1e-12, abs=0)
    assert slack == pytest.approx(old_slack, rel=1e-12, abs=0)
    assert check.passed and 0.0 < slack < 1.0


def test_high_gain_run_passes_the_scaled_transitions(tmp_path):
    # The decoupled plant with a cheap fast input: |K_i| is in the hundreds,
    # so the transitions that verify steps through the law and those the
    # loop computed through its maps differ by more than 1e-14 in absolute
    # terms, yet by less than eps times the size of the terms each period
    # summed.
    cfg = RunConfig(decoupled=True, q_fast=1e3, r_fast=1e-3, x0=(-30.0,) * 10)
    model = build_thermal_model(default_building(decoupled=True))
    bundle = design_pipeline(model, cfg)
    assert max(np.linalg.norm(K, 2) for K in bundle.ll_gain.blocks) > 300
    out = write_archive(run_closed_loop(model, cfg, bundle), bundle,
                        tmp_path / "run")
    report = verify_archive(out)
    assert report.passed, report.table()
    (check,) = [c for c in report.checks if c.name == "transition_residual"]
    residual, ratio, _ = _transition_detail(check)
    assert residual > 1e-14 and ratio < 1.0
    # The plans' terminal miss grows with the start, ~5e-16 |x0| here, far
    # below ll_terminal's absolute 1e-9.
    (check,) = [c for c in report.checks if c.name == "ll_terminal"]
    assert check.worst <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(decoupled=st.booleans(),
       weights=st.sampled_from([(1.0, 10.0), (1.0, 0.1), (1e3, 1e-3)]),
       x0=st.lists(st.floats(-8.0, 8.0), min_size=10, max_size=10),
       n_slow_steps=st.integers(1, 3))
def test_correct_runs_pass_the_scaled_transitions(decoupled, weights, x0,
                                                  n_slow_steps,
                                                  tmp_path_factory):
    # Short runs from random starts, on both plants and with fast gains up
    # to |K_i| ~ 373: the transitions verify steps through the law stay
    # below the roundoff factor on every one.
    q_fast, r_fast = weights
    cfg = RunConfig(decoupled=decoupled, q_fast=q_fast, r_fast=r_fast,
                    x0=tuple(x0), n_slow_steps=n_slow_steps)
    model = build_thermal_model(default_building(decoupled=decoupled))
    bundle = design_pipeline(model, cfg)
    out = write_archive(run_closed_loop(model, cfg, bundle), bundle,
                        tmp_path_factory.mktemp("run") / "run")
    (check,) = [c for c in verify_archive(out).checks
                if c.name == "transition_residual"]
    assert check.passed and check.worst < TRANSITION_ROUNDOFF, check.detail


def test_plans_hit_the_terminal_target(archive_dir):
    (check,) = [c for c in verify_archive(archive_dir).checks
                if c.name == "ll_terminal"]
    assert check.passed and check.worst <= 1e-13


def test_tampered_certificate_detected(archive_dir, tmp_path):
    bad = tmp_path / "badcert"
    shutil.copytree(archive_dir, bad)
    cert = json.loads((bad / "certificate.json").read_text())
    cert["rho_w"] = 1e-18
    (bad / "certificate.json").write_text(json.dumps(cert))
    report = verify_archive(bad)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"disturbance_bound"}


def test_tampered_config_hash_detected(archive_dir, tmp_path):
    bad = tmp_path / "badcfg"
    shutil.copytree(archive_dir, bad)
    cfg = json.loads((bad / "config.json").read_text())
    cfg["q_slow"] = 2.0
    (bad / "config.json").write_text(json.dumps(cfg))
    failed = {c.name for c in verify_archive(bad).checks if not c.passed}
    assert "config_hash" in failed


def test_record_count_mismatch_is_reported(archive_dir, tmp_path):
    bad = tmp_path / "longer"
    shutil.copytree(archive_dir, bad)
    cfg = json.loads((bad / "config.json").read_text())
    cfg["n_slow_steps"] += 1
    (bad / "config.json").write_text(json.dumps(cfg))
    report = verify_archive(bad)
    assert {c.name for c in report.checks if not c.passed} == {"record_counts",
                                                               "config_hash"}
