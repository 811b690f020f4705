"""Closed-loop harness and trace archive: run invariants, persistence
round trips, bitwise determinism, and tamper detection."""
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermpc import harness, highlevel, lowlevel, solver
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
from hiermpc.trace import (_read_csv, _write_csv, archive_digest, load_archive,
                           verify_archive, write_archive, write_design)


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
    step.  Returns the
    fast records and the final state."""
    reduced, slow, N, M = bundle.reduced, bundle.hl.slow, cfg.period, model.n_subsystems
    m = model.n_inputs
    rho_u = model.input_radii()
    hl_qp = slow_qp(bundle)
    Q, R = harness.fast_weights(model, cfg)
    x = np.asarray(cfg.x0, dtype=float)
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
            rows.append(np.concatenate([x, duhat, du, u, margins]))
            x = model.A @ x + model.B @ u
    return np.array(rows), x


@pytest.mark.parametrize("decoupled", [False, True])
def test_stacked_fast_sub_loop_matches_per_subsystem_loop(decoupled,
                                                          own_correction_qp,
                                                          slow_qp):
    # The affine tick and the stepped oracle round differently; they agree
    # to the `correction_law` threshold.
    model = build_thermal_model(default_building(decoupled=decoupled))
    cfg = dataclasses.replace(RunConfig(), n_slow_steps=4, decoupled=decoupled)
    bundle = design_pipeline(model, cfg)
    arc = run_closed_loop(model, cfg, bundle)
    fast, final_state = per_subsystem_run(model, cfg, bundle, own_correction_qp,
                                          slow_qp)
    assert arc.fast.shape == fast.shape
    assert np.max(np.abs(arc.fast - fast)) <= 1e-12
    assert np.max(np.abs(arc.final_state - final_state)) <= 1e-12


def stepped_fast_block(model, gain, duhat, x, u_bar):
    """The fast-step oracle of one tick: the plant under the held input plus
    the correction law, the auxiliary rollout and each subsystem's plan
    rollout, stepped one fast step at a time from x.  Returns the plant less
    the auxiliary rollout at steps 0..N and the applied corrections."""
    m = model.n_inputs
    aux, plan = x.copy(), np.zeros(model.n_states)
    deviations, corrections = [x - aux], []
    for j in range(duhat.shape[0]):
        du = np.empty(m)
        for i, sub in enumerate(model.subsystems):
            sx, su = model.state_slice(i), model.input_slice(i)
            du[su] = duhat[j, su] + gain.blocks[i] @ (x[sx] - aux[sx] - plan[sx])
            plan[sx] = sub.A @ plan[sx] + sub.B @ duhat[j, su]
        x = model.A @ x + model.B @ (u_bar + du)
        aux = model.A @ aux + model.B @ u_bar
        deviations.append(x - aux)
        corrections.append(du)
    return np.array(deviations), np.array(corrections)


@pytest.mark.parametrize("name", ["coupled_n20", "decoupled_n20", "chain4_n40"])
def test_fast_block_maps_match_the_recursion_and_the_correction_law(name):
    # W vec(duhat) is the plant less the auxiliary rollout and D vec(duhat)
    # the applied corrections of the fast-step oracle, from a random start
    # and held input.  Both maps are block lower-triangular Toeplitz in
    # (fast step, plan step): block (j, l) is block (j - l, 0), to the bit,
    # and zero above the diagonal.
    cfg, building = _pinned_workload(name)
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    N, n, m = cfg.period, model.n_states, model.n_inputs
    qp, W, D = harness.fast_block_maps(model, bundle, N)
    assert W.shape == ((N + 1) * n, N * m) and D.shape == (N * m, N * m)
    rng = np.random.default_rng(8)
    for _ in range(5):
        duhat = rng.normal(size=(N, m))
        states, corrections = stepped_fast_block(
            model, bundle.ll_gain, duhat, rng.normal(size=n), rng.normal(size=m))
        assert np.max(np.abs((W @ duhat.ravel()).reshape(N + 1, n)
                             - states)) <= 1e-12
        assert np.max(np.abs((D @ duhat.ravel()).reshape(N, m)
                             - corrections)) <= 1e-12
    for maps, rows, r in ((W, N + 1, n), (D, N, m)):
        blocks = maps.reshape(rows, r, N, m)
        for l in range(N):
            assert np.array_equal(blocks[l:, :, l], blocks[:rows - l, :, 0])
            assert not np.any(blocks[:l, :, l])


@pytest.mark.parametrize("name", ["coupled_n20", "decoupled_n20", "chain4_n40"])
def test_fast_records_built_after_the_loop_match_each_tick(name, monkeypatch):
    # A tick computes only the auxiliary terminal state, one state row, and
    # the next boundary state; the fast records of all ticks are built after
    # the loop.  Each tick's block, recomputed alone from its boundary state,
    # held input and plan with the full maps (states xhat + W vec(duhat) at
    # fast steps 0..N, the last the next tick's boundary state, corrections
    # D vec(duhat), inputs and margins), matches them to 1e-13 of its
    # largest entry, and fast step 0 of each tick is its boundary state, to
    # the bit.
    cfg, building = _pinned_workload(name)
    cfg = dataclasses.replace(cfg, n_slow_steps=3)
    model = build_thermal_model(building)
    bundle = design_pipeline(model, cfg)
    calls = []

    def recorded(maps, x_start, u_held):
        states = lowlevel.simulate_auxiliary(maps, x_start, u_held)
        calls.append((x_start.copy(), u_held.copy(), states.shape))
        return states

    monkeypatch.setattr(harness, "simulate_auxiliary", recorded)
    arc = run_closed_loop(model, cfg, bundle)
    N, n, m = cfg.period, model.n_states, model.n_inputs
    assert [shape for *_, shape in calls] == [(1, n)] * cfg.n_slow_steps
    aux = lowlevel.auxiliary_maps(model, N)
    _, W, D = harness.fast_block_maps(model, bundle, N)
    ubar = arc.slow_block("ubar", m)
    starts = [x_start for x_start, *_ in calls[1:]] + [arc.final_state]
    for k, (x_start, u_held, _) in enumerate(calls):
        rows = slice(k * N, (k + 1) * N)
        x = arc.fast_block("x", n)[rows]
        assert np.array_equal(x[0], x_start)
        assert np.array_equal(u_held, ubar[k])
        duhat = arc.fast_block("duhat", m)[rows].ravel()
        states = (lowlevel.simulate_auxiliary(aux, x_start, u_held)
                  + (W @ duhat).reshape(N + 1, n))
        du = (D @ duhat).reshape(N, m)
        u = ubar[k] + du
        margins = model.input_radii() - np.array(
            [np.linalg.norm(u[:, model.input_slice(i)], axis=1)
             for i in range(model.n_subsystems)]).T
        for got, want in ((np.vstack([x, starts[k]]), states),
                          (arc.fast_block("du", m)[rows], du),
                          (arc.fast_block("u", m)[rows], u),
                          (arc.fast_block("margin", model.n_subsystems)[rows],
                           margins)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    ll_qp = harness.fast_block_maps(model, bundle, cfg.period)[0]
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
    # The free path of each layer, a product with its run-constant map,
    # decides a tick exactly when `equality_first` decides the equivalent
    # QP, built afresh; their plans agree to 1e-12 of the largest entry,
    # and the slow tick records the residuals and objective of its own
    # solve.  The tick data run from well inside to well outside the tube,
    # the terminal set (the slow projected state, up to 1e3 times the tube
    # radius, or 1e3 on a point tube) and the budgets (each subsystem's
    # target, from 1e-3 to 1e3 times its reach).
    qp, ll_qp, reach = workload_qps
    rng = np.random.default_rng(seed)
    n, N = qp.design.slow.n_states, qp.horizon
    radius = qp.design.tube.ball.radius
    direction = rng.normal(size=n)
    x_proj = (radius or 1.0) * 10.0 ** exponent * direction / np.linalg.norm(
        direction)
    tube = solver.BallConstraint(qp.factors.layout[0], radius, center=x_proj)
    if qp.pinned is None:
        ref = solver.QuadraticProgram(qp.H, qp.g, qp.A_eq, qp.b_dyn,
                                      (tube, qp.inputs, qp.terminal))
        sol = qp.free
    else:
        ref = solver.QuadraticProgram(
            qp.H, qp.g, qp.pinned.A_eq, np.concatenate([qp.b_dyn, x_proj]),
            (qp.inputs, qp.terminal))
        sol = qp.free @ x_proj
    want = solver.equality_first(ref, solver.KKTFactors(
        ref.H, ref.A_eq, [c.indices for c in ref.constraints]))
    got = free_tick(solve_hl, qp, x_proj)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.iterations == 0
        assert_same_plan(np.concatenate([got.x_nominal, got.x_nominal_next,
                                         got.u_nominal_seq.ravel()]),
                         np.concatenate([want.x[:2 * n],
                                         want.x[n * (N + 1):]]))
        x = sol[:qp.H.shape[0]]
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


def test_ball_formulation_solves_its_equality_only_system_once(
        model, bundle, short_cfg, monkeypatch, kkt_solves):
    # Over the 100 ticks of the default run the slow layer's g and b_eq
    # stay zero: its equality-only optimum is one vector, solved when the
    # run builds the slow QP, and every tick only checks the tube ball.
    # The K0 factors are used once more, for the set columns Z of the
    # active-set step, built on the first tick that runs it and kept.  The
    # correction layer's map is one more solve, when the run builds it.  No
    # tick makes a K0 solve of its own: a free tick is a product with
    # a map, and the others start the exact path from that product.
    qps = []
    monkeypatch.setattr(harness, "tube_qp",
                        lambda *args: qps.append(tube_qp(*args)) or qps[-1])
    cfg = dataclasses.replace(short_cfg, n_slow_steps=100)
    arc = run_closed_loop(model, cfg, bundle)
    (qp,) = qps
    iterations = arc.slow[:, arc.slow_cols.index("iterations")]
    assert np.sum(iterations == 0) >= 90 and np.any(iterations > 0)
    slow = qp.factors.lu
    assert [f is slow for f in kkt_solves] == [True, False, True]


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
    assert {"record_counts", "config_hash", "correction_law"} <= passed


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
    n, m = model.n_states, model.n_inputs
    widths = {"x": n, "duhat": m, "du": m}
    loaded = load_archive(archive_dir)
    assert loaded.bundle.config == archive.config
    assert loaded.fast_cols == tuple(f"{prefix}{i}" for prefix, width
                                     in widths.items() for i in range(width))
    recorded = np.hstack([archive.fast_block(prefix, width)
                          for prefix, width in widths.items()])
    assert loaded.fast.tobytes() == recorded.tobytes()
    assert loaded.slow.tobytes() == archive.slow.tobytes()
    np.testing.assert_array_equal(loaded.final_state, archive.final_state)
    report = verify_archive(archive_dir)
    assert report.passed, report.table()
    assert "correction_law" in {c.name for c in report.checks}


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
    for a column slice that is not contiguous, as `write_archive` passes."""
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
    assert "archive_version 5" in err and "version 11" in err


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
], ids=["beta_row", "order_zero", "order_negative", "offsets", "slow_gain",
        "terminal_shape", "fast_gain", "radii", "slow_gain_nan", "rho_w_inf",
        "terminal_indefinite", "tube_indices_fraction", "input_indices_negative",
        "input_centre", "model_input_centre", "horizon_copy"])
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
    return text.replace(",du0,", ",dv0,", 1)


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
    # The plant input is rebuilt as ubar + du, so a changed applied
    # correction moves the input that the transitions are checked under.
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "fast.csv", "du0", 7, 1e-3)
    failed = {c.name for c in verify_archive(bad).checks if not c.passed}
    assert failed == {"transition_residual", "correction_law"}


def test_plant_input_is_rebuilt_bit_for_bit(model, archive, archive_dir):
    # fast.csv names no plant input `u` and no held input `ubar`; the input
    # ubar + du rebuilt from the loaded archive is the in-memory `u`.
    names = (archive_dir / "fast.csv").read_text().splitlines()[1].split(",")
    assert not [name for name in names if name.startswith("u")]
    m, N = model.n_inputs, archive.config.period
    loaded = load_archive(archive_dir)
    ubar = np.repeat(harness.column_block(loaded.slow_cols, loaded.slow,
                                          "ubar", m), N, axis=0)
    u = ubar + harness.column_block(loaded.fast_cols, loaded.fast, "du", m)
    assert u.tobytes() == archive.fast_block("u", m).tobytes()


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


def test_tampered_plan_breaks_the_correction_law(archive_dir, tmp_path):
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "fast.csv", "duhat1", 7, 1e-6)
    failed = {c.name for c in verify_archive(bad).checks if not c.passed}
    # The changed plan no longer lands on the slow layer's prediction either.
    assert failed == {"correction_law", "ll_terminal"}


def test_tampered_held_input_is_read_from_the_slow_trace(archive_dir, tmp_path):
    # verify repeats the slow `ubar` over the period, so one slow cell
    # reaches every check that reads the held input.
    bad = tmp_path / "tampered"
    shutil.copytree(archive_dir, bad)
    _tamper_csv_cell(bad / "slow.csv", "ubar0", 3, 1e-3)
    failed = {c.name for c in verify_archive(bad).checks if not c.passed}
    assert failed == {"transition_residual", "correction_law", "ll_terminal",
                      "disturbance_record"}


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
