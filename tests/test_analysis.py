"""Certificate constants against hand values, closed forms, and sampled
trajectories (every bound must dominate what a simulated correction run
actually produces)."""
import json
from pathlib import Path

import numpy as np
import pytest

from hiermpc import analysis
from hiermpc.analysis import (
    CertificateReport,
    RadiusAllocation,
    certificate_constants,
    certificate_tables,
    correction_gain_norm,
    delta_state_bounds,
    interaction_matrix,
    kappa_exponential_bound,
    lifted_input_mismatch,
    projected_reachability_sigma,
    projection_defect,
    sweep_constants,
    tune_radii,
)
from hiermpc.errors import InfeasibleTuning, RankDeficient
from hiermpc.harness import RunConfig, certify, config_from_dict
from hiermpc.lowlevel import design_ll_gain, lag_response
from hiermpc.lti import (CouplingMap, SubsystemModel, assemble,
                         reachability_matrix)
from hiermpc.model_io import to_json
from hiermpc.reduction import reduce_model
from hiermpc.sets import BallSet
from hiermpc.thermal import (build_thermal_model, building_from_dict,
                             default_building)

CHAIN4 = Path(__file__).resolve().parents[1] / "perfbench" / "chain4_n40.json"


def make_pair(coupling=0.08, radius=5.0, n_i=2):
    if n_i == 1:
        A1, A2 = np.array([[0.8]]), np.array([[0.6]])
        B = np.array([[1.0]])
    else:
        A1 = np.array([[0.7, 0.1], [0.1, 0.6]])
        A2 = np.array([[0.8, 0.05], [0.05, 0.5]])
        B = np.array([[1.0], [0.5]])
    subs = (
        SubsystemModel(A1, B, np.eye(n_i), np.eye(n_i), BallSet(1, radius)),
        SubsystemModel(A2, B, np.eye(n_i), np.eye(n_i), BallSet(1, radius)),
    )
    L = None if coupling == 0.0 else coupling * np.eye(n_i)
    coupl = CouplingMap(((None, L), (L, None)))
    return assemble(subs, coupl)


def ll_gain_for(model):
    Qs = [np.eye(s.n_states) for s in model.subsystems]
    Rs = [np.eye(s.n_inputs) for s in model.subsystems]
    return design_ll_gain(model, Qs, Rs)


def leakage_report(model, reduced, gain, rho, period):
    """The certificate for correction radii `rho`: its `delta_input_table`
    and `rho_w` are the input-leakage table and the disturbance radius."""
    radii = RadiusAllocation(np.asarray(rho, dtype=float), np.ones(len(rho)),
                             0.0, 0.0)
    return certificate_constants(model, reduced, gain, radii, period)


# ---------------------------------------------------------------- kappa

def test_mismatch_zero_for_decoupled_modal_reduction():
    # Exactly zero, not roundoff; the faintest coupling is not zeroed.
    model = make_pair(coupling=0.0)
    reduced = reduce_model(model, [1, 1])
    faint = make_pair(coupling=1e-9)
    faint_reduced = reduce_model(faint, [1, 1])
    for period in (1, 3, 7):
        assert lifted_input_mismatch(model, reduced, period) == 0.0
        assert not np.any(projection_defect(model, reduced, period))
        assert 0.0 < lifted_input_mismatch(faint, faint_reduced, period) < 1e-8


def test_mismatch_matches_geometric_closed_form():
    model = make_pair(coupling=0.08)
    reduced = reduce_model(model, [1, 1])
    for period in (2, 5, 9):
        got = lifted_input_mismatch(model, reduced, period)
        I_r = np.eye(reduced.n_states)
        I_f = np.eye(model.n_states)
        lift_red = np.linalg.solve(
            I_r - reduced.A,
            (I_r - np.linalg.matrix_power(reduced.A, period)) @ reduced.B)
        lift_full = np.linalg.solve(
            I_f - model.A,
            (I_f - np.linalg.matrix_power(model.A, period)) @ model.B)
        want = np.linalg.norm(lift_red - reduced.beta @ lift_full, 2)
        assert got == pytest.approx(want, rel=1e-10)


def test_mismatch_tail_form_and_exponential_bound():
    # exact input-response match at steady state turns the mismatch into a
    # pure tail term, which the exponential bound dominates
    model = make_pair(coupling=0.08)
    reduced = reduce_model(model, [1, 1])
    for period in (1, 4, 12):
        got = lifted_input_mismatch(model, reduced, period)
        g_red = np.linalg.solve(np.eye(2) - reduced.A, reduced.B)
        g_full = np.linalg.solve(np.eye(4) - model.A, model.B)
        tail = np.linalg.norm(
            np.linalg.matrix_power(reduced.A, period) @ g_red
            - reduced.beta @ np.linalg.matrix_power(model.A, period) @ g_full, 2)
        assert got == pytest.approx(tail, rel=1e-9, abs=1e-14)
        assert got <= kappa_exponential_bound(model, reduced, period) + 1e-14


# ------------------------------------------------- projected reachability

def test_sigma_scalar_hand_value():
    A = np.array([[0.5]])
    B = np.array([[2.0]])
    sub = SubsystemModel(A, B, np.eye(1), np.eye(1), BallSet(1, 1.0))
    model = assemble((sub, sub), CouplingMap(((None, None), (None, None))))
    reduced = reduce_model(model, [1, 1])
    got = projected_reachability_sigma(model, reduced, 3, 0)
    assert got == pytest.approx(2.0 * np.sqrt(1 + 0.25 + 0.0625), rel=1e-12)


def test_sigma_rank_deficient_raises():
    A = np.array([[0.5]])
    sub_ok = SubsystemModel(A, np.array([[1.0]]), np.eye(1), np.eye(1), BallSet(1, 1.0))
    sub_bad = SubsystemModel(A, np.array([[0.0]]), np.eye(1), np.eye(1), BallSet(1, 1.0))
    model = assemble((sub_ok, sub_bad), CouplingMap(((None, None), (None, None))))
    reduced = reduce_model(model, [1, 1])
    with pytest.raises(RankDeficient):
        projected_reachability_sigma(model, reduced, 3, 1)


# ---------------------------------------------------------- bound tables

def test_delta_state_bounds_scalar_hand_values():
    model = make_pair(coupling=0.0, n_i=1)
    tbl = delta_state_bounds(model, np.array([2.0, 1.0]), 3)
    assert tbl[0] == pytest.approx([0.0, 2.0, 2.0 * 1.8, 2.0 * 2.44], rel=1e-12)
    assert tbl[1] == pytest.approx([0.0, 1.0, 1.6, 1.96], rel=1e-12)


def test_bound_tables_monotone_in_step_index():
    # budgets accumulate leakage, so columns never shrink as the fast step
    # advances, and the last input column is the whole-period budget
    model = make_pair(coupling=0.08)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    rho = np.array([0.9, 0.4])
    state_tbl = delta_state_bounds(model, rho, 7)
    input_tbl = leakage_report(model, reduced, gain, rho, 7).delta_input_table
    assert np.all(np.diff(state_tbl, axis=1) >= 0.0)
    assert np.all(np.diff(input_tbl, axis=1) >= 0.0)
    assert np.all(input_tbl <= input_tbl[:, -1:])


def test_interaction_and_leakage_vanish_when_decoupled():
    model = make_pair(coupling=0.0)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    rho = np.array([0.5, 0.7])
    assert np.all(interaction_matrix(model, gain, 8) == 0.0)
    rep = leakage_report(model, reduced, gain, rho, 8)
    assert np.all(rep.delta_input_table == 0.0)
    assert rep.rho_w == 0.0


def _leakage_rollout(model, gain, delta_u_hat):
    """Run the true deviation recursion for a stacked plan (period, m):
    decentralized prediction, mismatch recursion, realized corrections."""
    period = delta_u_hat.shape[0]
    n = model.n_states
    A_d = model.block_diagonal_A()
    A_c = model.A - A_d
    F = model.A + model.B @ gain.K
    dx_hat = np.zeros((period + 1, n))
    eps = np.zeros((period + 1, n))
    du = np.zeros_like(delta_u_hat)
    for j in range(period):
        du[j] = delta_u_hat[j] + gain.K @ eps[j]
        dx_hat[j + 1] = A_d @ dx_hat[j] + model.B @ delta_u_hat[j]
        eps[j + 1] = F @ eps[j] + A_c @ dx_hat[j]
    return dx_hat, eps, du


def test_bound_tables_dominate_sampled_rollouts():
    model = make_pair(coupling=0.08)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    period = 7
    rho = np.array([0.9, 0.4])
    rep = leakage_report(model, reduced, gain, rho, period)
    state_tbl, input_tbl = rep.delta_state_table, rep.delta_input_table
    rho_w, rho_x = rep.rho_w, rep.rho_x
    reach_rev = np.hstack([
        np.linalg.matrix_power(model.A, period - 1 - r) @ model.B
        for r in range(period)])
    rng = np.random.default_rng(7)
    for _ in range(200):
        plan = np.empty((period, model.n_inputs))
        for i in range(model.n_subsystems):
            sl = model.input_slice(i)
            raw = rng.standard_normal((period, sl.stop - sl.start))
            scale = rho[i] if rng.random() < 0.5 else rho[i] * rng.random()
            norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
            plan[:, sl] = raw / norms * scale
        dx_hat, eps, du = _leakage_rollout(model, gain, plan)
        for i in range(model.n_subsystems):
            sl = model.state_slice(i)
            for j in range(period + 1):
                assert np.linalg.norm(dx_hat[j, sl]) <= state_tbl[i, j] + 1e-10
                correction = gain.blocks[i] @ eps[j, sl]
                assert np.linalg.norm(correction) <= input_tbl[i, j] + 1e-10
        assert np.linalg.norm(reduced.beta @ eps[period]) <= rho_w + 1e-10
        assert np.linalg.norm(reach_rev @ du.reshape(-1)) <= rho_x + 1e-10


def test_disturbance_radius_is_attained_for_single_leak_path():
    # one scalar plan step, one coupling hop: bound and rollout coincide
    model = make_pair(coupling=0.08, n_i=1)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    rho = np.array([1.0, 0.0])
    period = 2
    rho_w = leakage_report(model, reduced, gain, rho, period).rho_w
    plan = np.zeros((period, model.n_inputs))
    plan[0, 0] = 1.0
    _, eps, _ = _leakage_rollout(model, gain, plan)
    leak = np.linalg.norm(reduced.beta @ eps[period])
    # beta rows have unit magnitude, so the single-path bound is tight up to
    # the row-direction alignment, which is exact in the scalar case
    assert rho_w == pytest.approx(leak, rel=1e-9)


def _per_step_leakage(model, reduced, gain, rho, period):
    """Lambda, the input table and rho_w from per-(j, r) loops that evaluate
    every norm ||L F^p A_c|| again inside each sum that uses it: the form the
    bounds were first written in, kept as a bit-for-bit reference."""
    M = model.n_subsystems
    A_c = model.A - model.block_diagonal_A()
    F = model.A + model.B @ gain.K
    F_pows = [np.eye(model.n_states)]
    for _ in range(period):
        F_pows.append(F @ F_pows[-1])
    inner = []
    for sub in model.subsystems:
        steps, term = np.zeros(period + 1), sub.B.copy()
        for j in range(1, period + 1):
            steps[j] = steps[j - 1] + float(np.linalg.norm(term, 2))
            term = sub.A @ term
        inner.append(steps)
    rss = np.sqrt(np.sum(np.array([rho[i] * inner[i] for i in range(M)]) ** 2,
                         axis=0))
    lam, inputs = np.zeros((M, M)), np.zeros((M, period + 1))
    for i in range(M):
        Ki_Si = gain.blocks[i] @ model.state_selector(i)
        for r in range(2, period):
            front = float(np.linalg.norm(Ki_Si @ F_pows[period - r - 1] @ A_c, 2))
            for j in range(M):
                lam[i, j] += front * inner[j][r - 1]
        for j in range(2, period + 1):
            total = 0.0
            for r in range(2, j + 1):
                front = float(np.linalg.norm(Ki_Si @ F_pows[j - r] @ A_c, 2))
                total += front * rss[r - 1]
            inputs[i, j] = total
    rho_w = 0.0
    for j in range(2, period + 1):
        front = float(np.linalg.norm(reduced.beta @ F_pows[period - j] @ A_c, 2))
        rho_w += front * rss[j - 1]
    return lam, inputs, rho_w


def _leakage_cases(case):
    """(model, reduced, gain, radii, periods) for one plant."""
    if case in ("coupled", "decoupled", "scalar"):
        model = make_pair(coupling=0.0 if case == "decoupled" else 0.08,
                          n_i=1 if case == "scalar" else 2)
        radii = RadiusAllocation(np.array([0.9, 0.4]), np.array([1.0, 1.5]),
                                 0.0, 0.0)
        return (model, reduce_model(model, [1, 1]), ll_gain_for(model), radii,
                (1, 2, 3, 7))
    if case == "chain4_n40":
        data = json.loads(CHAIN4.read_text())
        cfg, building = config_from_dict(data["run"]), building_from_dict(data["building"])
    else:
        cfg, building = RunConfig(), default_building()
    model = build_thermal_model(building)
    reduced, gain, report, _ = certify(model, cfg)
    return model, reduced, gain, report.radii, (cfg.period,)


@pytest.mark.parametrize("case", ["coupled", "decoupled", "scalar",
                                  "thermal_n20", "chain4_n40"])
def test_leakage_bounds_match_per_step_loops_bitwise(case):
    model, reduced, gain, radii, periods = _leakage_cases(case)
    rho = radii.rho_delta_u_hat
    for period in periods:
        lam, inputs, rho_w = _per_step_leakage(model, reduced, gain, rho, period)
        np.testing.assert_array_equal(interaction_matrix(model, gain, period), lam)
        rep = certificate_constants(model, reduced, gain, radii, period)
        np.testing.assert_array_equal(rep.delta_input_table, inputs)
        assert rep.rho_w == rho_w



def _dense_correction_gain_norm(model, gain, period):
    """The correction-gain map as dense (period n)-square block matrices:
    decentralized prediction B_dec, fast closed loop F_blk, coupling and
    feedback as Kronecker products, all pulled back through the reversed
    reachability row; the reference for the recursion."""
    n, m = model.n_states, model.n_inputs
    A_d = model.block_diagonal_A()
    F = model.A + model.B @ gain.K
    power = np.linalg.matrix_power
    reach_rev = np.hstack([power(model.A, period - 1 - r) @ model.B
                           for r in range(period)])
    F_blk = np.zeros((period * n, period * n))
    B_dec = np.zeros((period * n, period * m))
    for j in range(period):
        for r in range(j):
            F_blk[j * n:(j + 1) * n, r * n:(r + 1) * n] = power(F, j - 1 - r)
            B_dec[j * n:(j + 1) * n, r * m:(r + 1) * m] = \
                power(A_d, j - 1 - r) @ model.B
    K_blk = np.kron(np.eye(period), gain.K)
    Ac_blk = np.kron(np.eye(period), model.A - A_d)
    total = reach_rev @ (np.eye(period * m) + K_blk @ F_blk @ Ac_blk @ B_dec)
    return float(np.linalg.norm(total, 2))


@pytest.mark.parametrize("case,period", [("coupled", 1), ("coupled", 2),
                                         ("coupled", 3), ("coupled", 7),
                                         ("coupled", 20), ("chain4_n40", 40)])
def test_correction_gain_norm_matches_dense_map(case, period):
    # periods 1 and 2 leave the feedback sums of the recursion empty
    model, _, gain, _, _ = _leakage_cases(case)
    dense = _dense_correction_gain_norm(model, gain, period)
    assert correction_gain_norm(model, gain, period) == pytest.approx(dense, rel=1e-13)


@pytest.mark.parametrize("case", ["coupled", "thermal_n20", "chain4_n40"])
def test_prediction_maps_keep_their_arithmetic(case):
    # Each map keeps one rounding convention, checked to the bit against
    # explicit loops: the reachability row, the deviation bounds and the
    # plan rollout of `lag_response` multiply A into the last term.
    model, _, gain, _, periods = _leakage_cases(case)
    rho = np.linspace(0.5, 1.5, model.n_subsystems)
    A_d = model.block_diagonal_A()
    for period in sorted({1, 2, 7, *periods}):
        state_tbl = np.zeros((model.n_subsystems, period + 1))
        for i, sub in enumerate(model.subsystems):
            A, B = sub.A, sub.B
            blocks, term = [], B
            for _ in range(period):
                blocks.append(term)
                term = A @ term
            assert np.array_equal(reachability_matrix(A, B, period), np.hstack(blocks))
            state_tbl[i, 1:] = np.cumsum(
                np.linalg.svd(np.array(blocks), compute_uv=False)[:, 0])
        plan, term = [np.zeros_like(model.B)], model.B
        for _ in range(period):
            plan.append(term)
            term = A_d @ term
        assert np.array_equal(lag_response(model, gain, period)[0], np.array(plan))
        assert np.array_equal(delta_state_bounds(model, rho, period),
                              rho[:, None] * state_tbl)


# ------------------------------------------------------------- tuning LP

def test_tune_radii_decoupled_hand_vertex():
    model = make_pair(coupling=0.0, radius=5.0)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    alloc = tune_radii(model, reduced, gain, period=6)
    slack = 1e-9 * 5.0
    # mismatch is zero, so every full split is optimal; the deterministic
    # tie-break drains the correction radii to the strict-inequality floor
    # and the held radii take the slack-tightened budget remainder
    assert alloc.rho_delta_u_hat == pytest.approx([slack, slack], rel=1e-6)
    assert alloc.rho_u_bar == pytest.approx([5.0 - 2 * slack, 5.0 - 2 * slack],
                                            rel=1e-9)
    assert alloc.objective == pytest.approx(10.0 - 2 * slack, rel=1e-9)
    # re-substitution leaves the documented margin in the budget rows
    # (up to simplex basis-solve roundoff, orders below the slack itself)
    assert np.all(alloc.rho_delta_u_hat + alloc.rho_u_bar
                  <= model.input_radii() - alloc.slack + 1e-12)


def test_tune_radii_respects_budget_and_strict_rows():
    model = make_pair(coupling=0.08)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    period = 6
    alloc = tune_radii(model, reduced, gain, period, gamma1=10.0, gamma2=1.0)
    kappa = lifted_input_mismatch(model, reduced, period)
    sigma = np.array([projected_reachability_sigma(model, reduced, period, i)
                      for i in range(2)])
    lam = interaction_matrix(model, gain, period)
    lhs = -alloc.rho_delta_u_hat + kappa / (np.sqrt(period) * sigma) * np.sum(alloc.rho_u_bar)
    assert np.all(lhs <= -alloc.slack + 1e-12)
    total = (np.eye(2) + lam) @ alloc.rho_delta_u_hat + alloc.rho_u_bar
    assert np.all(total <= model.input_radii() - alloc.slack + 1e-12)
    # heavier correction weight buys more correction authority
    base = tune_radii(model, reduced, gain, period)
    assert np.sum(alloc.rho_delta_u_hat) > np.sum(base.rho_delta_u_hat)


def test_tune_radii_infeasible_budget():
    model = make_pair(coupling=0.08, radius=5e-10)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    with pytest.raises(InfeasibleTuning):
        tune_radii(model, reduced, gain, period=6)


# ------------------------------------------------------------ certificate

def test_certificate_decoupled_report():
    model = make_pair(coupling=0.0)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    alloc = tune_radii(model, reduced, gain, period=6)
    rep = certificate_constants(model, reduced, gain, alloc, 6,
                                x0=np.ones(model.n_states))
    assert rep.kappa < 1e-13
    assert rep.rho_w == 0.0
    # the projection defect is zero up to eigensolver roundoff, so the
    # margins blow up (inf when it underflows to exactly zero)
    assert np.all(rep.lambda_margins > 1e6)
    assert rep.assumptions_ok
    assert rep.x0_bound_ok


def test_certificate_coupled_clauses_and_x0_gate():
    model = make_pair(coupling=0.08)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    alloc = tune_radii(model, reduced, gain, period=10, gamma1=50.0)
    rep = certificate_constants(model, reduced, gain, alloc, 10)
    assert rep.assumptions_ok, rep.clauses
    assert np.all(np.isfinite(rep.lambda_margins))
    assert np.all(rep.chi <= 1.0)
    # margins are consistent with their definition
    want = (np.sqrt(10) * rep.sigma * alloc.rho_delta_u_hat
            - rep.kappa * alloc.rho_u_bar_outer) / rep.defect_norm
    assert rep.lambda_margins == pytest.approx(want, rel=1e-12)
    near = certificate_constants(model, reduced, gain, alloc, 10,
                                 x0=np.zeros(model.n_states))
    far = certificate_constants(
        model, reduced, gain, alloc, 10,
        x0=np.full(model.n_states, 10 * float(np.min(rep.lambda_margins))))
    assert near.x0_bound_ok and not far.x0_bound_ok


def test_sweep_improves_with_longer_periods():
    model = make_pair(coupling=0.08)
    reduced = reduce_model(model, [1, 1])
    gain = ll_gain_for(model)
    alloc = tune_radii(model, reduced, gain, period=4)
    reports = sweep_constants(model, reduced, lambda p: gain, alloc,
                              periods=(4, 8, 16, 32))
    lam = [float(np.min(r.lambda_margins)) for r in reports]
    chi = [float(np.max(r.chi)) for r in reports]
    contraction = [r.al_power_norm for r in reports]
    assert all(b > a for a, b in zip(lam, lam[1:]))
    assert all(b < a for a, b in zip(chi, chi[1:]))
    assert all(b < a for a, b in zip(contraction, contraction[1:]))
    for r in reports:
        assert r.kappa <= r.kappa_bound + 1e-14


def _workload(name):
    """Model and run config of a benchmark workload."""
    if name == "chain4_n40":
        data = json.loads(CHAIN4.read_text())
        cfg, building = config_from_dict(data["run"]), building_from_dict(data["building"])
    else:
        cfg = RunConfig(decoupled=name == "decoupled_n20")
        building = default_building(cfg.decoupled)
    return build_thermal_model(building), cfg


@pytest.mark.parametrize("name", ["coupled_n20", "decoupled_n20", "chain4_n40"])
def test_certify_reads_one_table_pass_with_the_same_bits(name, monkeypatch):
    model, cfg = _workload(name)
    calls = []
    mismatch = analysis.lifted_input_mismatch
    monkeypatch.setattr(analysis, "lifted_input_mismatch",
                        lambda *args: calls.append(args) or mismatch(*args))
    reduced, gain, report, _ = certify(model, cfg)
    assert len(calls) == 1
    radii = tune_radii(model, reduced, gain, cfg.period, cfg.gamma1,
                       cfg.gamma2, cfg.u_bar_floor)
    alone = certificate_constants(model, reduced, gain, radii, cfg.period,
                                  x0=np.asarray(cfg.x0))
    assert to_json(report.radii) == to_json(radii)
    assert to_json(report) == to_json(alone)
    tables = certificate_tables(model, reduced, gain, cfg.period)
    assert np.array_equal(interaction_matrix(model, gain, cfg.period),
                          interaction_matrix(model, gain, cfg.period, tables=tables))
    if cfg.decoupled:
        assert report.kappa == 0.0 and report.defect_norm == 0.0
        assert np.all(report.lambda_margins == np.inf)
