"""Offline design pipeline and the online two-rate closed loop.

`design_pipeline` walks the offline checklist in dependency order and fails
fast naming the first unmet item: first `certify` (order reduction, fast
gain, input-budget allocation, certificate constants; `hiermpc analyze` and
`tune` run it too), then, once every clause passes, the slow layer (slow
gain, disturbance set, invariant tube, terminal cost and set).
`run_closed_loop` then executes the slow loop around the full plant: one
tube-tightened slow solve per tick, the shared constant-input auxiliary
rollout, one correction plan per subsystem, and the tick's fast block of
held input plus corrections.  The fast block is affine in the tick's start
state, held input and planned corrections, so it is computed from maps
built once per run, a few matrix products per tick, not stepped fast step by
fast step.  Every quantity the runtime invariants need is recorded;
persistence and re-verification live in `trace`.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (CertificateReport, RadiusAllocation, certificate_constants,
                       tune_radii)
from .errors import ConfigInvalid, DesignIncomplete, HierMPCError, InfeasibleHL, \
    InfeasibleLL
from .highlevel import (HLDesign, design_gain, lift, solve_hl, terminal_cost,
                        tube_qp)
from .lowlevel import LLGain, apply_correction, auxiliary_maps, \
    correction_qp, coupling_error_map, design_ll_gain, simulate_auxiliary, \
    solve_ll
from .lti import InterconnectedModel
from .model_io import from_json, to_json
from .reduction import ReducedModel, reduce_model, verify_reduction
from .sets import BallSet, rpi_outer, terminal_set


# --------------------------------------------------------------- run config

@dataclass(frozen=True)
class RunConfig:
    """Everything one closed-loop experiment depends on.

    The default values are the benchmark scenario: 20 fast steps per slow
    step, a 10-step slow horizon, unit state weights with 0.1 input weight
    on the slow layer and 10 on the fast layer, and a start two degrees
    below equilibrium in every room.
    """

    period: int = 20
    horizon: int = 10
    n_slow_steps: int = 100
    retained_orders: tuple[int, ...] = (1, 1)
    q_slow: float = 1.0
    r_slow: float = 0.1
    q_fast: float = 1.0
    r_fast: float = 10.0
    gamma1: float = 50.0
    gamma2: float = 1.0
    u_bar_floor: float = 1.0
    x0: tuple[float, ...] = (-2.0,) * 10
    tol_primal: float = 1e-8
    tol_dual: float = 1e-8
    max_iters: int = 200_000
    rpi_tol: float = 1e-6
    decoupled: bool = False

    def __post_init__(self):
        for name in ("period", "horizon", "n_slow_steps", "max_iters"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigInvalid(f"{name} must be a positive integer, got {value!r}")
        for name in ("q_slow", "r_slow", "q_fast", "r_fast", "tol_primal",
                     "tol_dual", "rpi_tol"):
            value = float(getattr(self, name))
            if not 0 < value < math.inf:
                raise ConfigInvalid(f"{name} must be finite and > 0, got {value!r}")
        for name in ("gamma1", "gamma2", "u_bar_floor"):
            value = float(getattr(self, name))
            if not 0 <= value < math.inf:
                raise ConfigInvalid(f"{name} must be finite and >= 0, got {value!r}")
        orders = tuple(int(o) for o in self.retained_orders)
        if not orders or any(o < 1 for o in orders):
            raise ConfigInvalid(f"retained_orders must be positive, got {orders}")
        object.__setattr__(self, "retained_orders", orders)
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))


def config_to_dict(cfg: RunConfig) -> dict:
    return to_json(cfg)


def config_from_dict(data: dict) -> RunConfig:
    return from_json(RunConfig, data)


def config_digest(cfg: RunConfig) -> str:
    """sha256 over the canonical JSON form; stable across sessions."""
    text = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ design bundle

@dataclass(frozen=True)
class DesignBundle:
    """Output of the offline checklist; everything the online loop consumes."""

    model: InterconnectedModel
    reduced: ReducedModel
    hl: HLDesign
    ll_gain: LLGain
    ll_Q: tuple[np.ndarray, ...]
    ll_R: tuple[np.ndarray, ...]
    report: CertificateReport

    @property
    def radii(self) -> RadiusAllocation:
        return self.report.radii


def start_state(model: InterconnectedModel, cfg: RunConfig) -> np.ndarray:
    """The configured start state, checked against the plant's state count."""
    x = np.asarray(cfg.x0, dtype=float)
    if x.shape != (model.n_states,):
        raise ConfigInvalid(f"x0 must have length {model.n_states}, got {x.shape}")
    return x


def _stage(name: str, fn):
    """Run one design stage; a package error becomes DesignIncomplete(name)."""
    try:
        return fn()
    except HierMPCError as exc:
        raise DesignIncomplete(name, str(exc)) from exc


def _fast_weights(model: InterconnectedModel, cfg: RunConfig) -> tuple:
    """Per-subsystem state and input weights of the fast layer."""
    return (tuple(cfg.q_fast * np.eye(sub.n_states) for sub in model.subsystems),
            tuple(cfg.r_fast * np.eye(sub.n_inputs) for sub in model.subsystems))


def certify(model: InterconnectedModel,
            cfg: RunConfig) -> tuple[ReducedModel, LLGain, CertificateReport]:
    """The certificate stages of the offline checklist, up to the constants
    at the configured start.  Raises DesignIncomplete naming the first stage
    that fails; the report's clauses are graded, not enforced."""
    x0 = start_state(model, cfg)

    def _reduction():
        reduced = reduce_model(model, cfg.retained_orders)
        check = verify_reduction(reduced, model)
        if not check.passed:
            raise HierMPCError(
                f"reduction checks failed (schur={check.schur_ok}, "
                f"full_rank={check.full_rank}, dc_residual={check.dc_residual:.3e})")
        return reduced

    reduced = _stage("reduction", _reduction)
    ll_gain = _stage("fast_gain",
                     lambda: design_ll_gain(model, *_fast_weights(model, cfg)))
    radii = _stage("radii", lambda: tune_radii(
        model, reduced, ll_gain, cfg.period, cfg.gamma1, cfg.gamma2,
        cfg.u_bar_floor))
    report = _stage("certificate", lambda: certificate_constants(
        model, reduced, ll_gain, radii, cfg.period, x0=x0))
    return reduced, ll_gain, report


def design_pipeline(model: InterconnectedModel, cfg: RunConfig) -> DesignBundle:
    """Run the offline checklist; raise DesignIncomplete naming the first
    failing stage so a misconfigured run is rejected before any simulation.
    The slow layer is designed only once `certify` has passed every clause."""
    reduced, ll_gain, report = certify(model, cfg)
    radii = report.radii
    if not report.assumptions_ok:
        failing = [k for k, ok in report.clauses.items() if not ok]
        raise DesignIncomplete("certificate", f"certificate clauses failed: {failing}")

    slow = _stage("slow_gain", lambda: lift(reduced, cfg.period))
    n_red, m = slow.n_states, slow.n_inputs
    Q_slow = cfg.q_slow * np.eye(n_red)
    R_slow = cfg.r_slow * np.eye(m)
    gain = _stage("slow_gain",
                  lambda: design_gain(slow, model, reduced, Q_slow, R_slow))
    w_ball = _stage("disturbance_set", lambda: BallSet(n_red, report.rho_w))
    tube = _stage("tube", lambda: rpi_outer(gain.F_red, w_ball, cfg.rpi_tol))
    P = _stage("terminal_cost",
               lambda: terminal_cost(gain.F_red, gain.K, Q_slow, R_slow))

    def _input_tightening():
        # The held-input plan lives in one collective ball; the inscribed
        # radius of the per-subsystem budget product is the smallest budget.
        k_norm = float(np.linalg.norm(gain.K, 2))
        tight = float(np.min(radii.rho_u_bar)) - k_norm * tube.ball.radius
        if tight <= 0:
            raise HierMPCError(
                f"held-input budget {float(np.min(radii.rho_u_bar)):.6g} cannot "
                f"absorb the tube feedback {k_norm * tube.ball.radius:.6g}")
        return BallSet(m, tight)

    input_tight = _stage("input_tightening", _input_tightening)
    terminal = _stage("terminal_set",
                      lambda: terminal_set(gain.F_red, P, gain.K, input_tight))

    hl = HLDesign(slow, gain, tube, P, terminal, input_tight, Q_slow, R_slow,
                  cfg.horizon)
    return DesignBundle(model, reduced, hl, ll_gain, *_fast_weights(model, cfg),
                        report)


# ------------------------------------------------------------- trace layout

def fast_columns(n: int, m: int) -> tuple:
    """The fast blocks an archive stores: the states and inputs that
    `verify_archive` reads.  The in-memory trace of `run_closed_loop`
    appends the input margins `margin`, which are not stored."""
    cols = [f"x{i}" for i in range(n)]
    cols += [f"ubar{i}" for i in range(m)]
    cols += [f"duhat{i}" for i in range(m)]
    cols += [f"du{i}" for i in range(m)]
    cols += [f"u{i}" for i in range(m)]
    return tuple(cols)


def slow_columns(n_red: int, m: int, horizon: int) -> tuple:
    cols = ["k"]
    cols += [f"xproj{i}" for i in range(n_red)]
    cols += [f"xnom{i}" for i in range(n_red)]
    cols += [f"xnext{i}" for i in range(n_red)]
    cols += [f"ubar{i}" for i in range(m)]
    cols += [f"useq{s}_{i}" for s in range(horizon) for i in range(m)]
    cols += ["objective", "iterations", "primal_residual", "dual_residual"]
    cols += [f"wbar{i}" for i in range(n_red)]
    cols += ["tube_error"]
    return tuple(cols)


def column_block(cols: tuple, rows: np.ndarray, prefix: str, count: int) -> np.ndarray:
    """View of the `count` columns of `rows` named prefix0, prefix1, ..."""
    start = cols.index(f"{prefix}0")
    return rows[:, start:start + count]


@dataclass(frozen=True)
class TraceArchive:
    """One closed-loop run: per-rate records plus the design context."""

    config: RunConfig
    fast_cols: tuple
    slow_cols: tuple
    fast: np.ndarray
    slow: np.ndarray
    final_state: np.ndarray
    wall_clock: float

    def fast_block(self, prefix: str, count: int) -> np.ndarray:
        return column_block(self.fast_cols, self.fast, prefix, count)

    def slow_block(self, prefix: str, count: int) -> np.ndarray:
        return column_block(self.slow_cols, self.slow, prefix, count)


# ---------------------------------------------------------------- run loop

def run_closed_loop(model: InterconnectedModel, cfg: RunConfig,
                    bundle: DesignBundle | None = None) -> TraceArchive:
    """Execute the two-rate loop for `cfg.n_slow_steps` slow steps.

    Any slow- or fast-layer infeasibility aborts the run with the slow-step
    index attached to the exception diagnostics; nothing is clipped.  The
    data of each layer's QP that does not change between ticks, with its KKT
    factors, is built once here, before the first tick, and so are the maps
    of the fast block: the auxiliary rollout of `lowlevel.auxiliary_maps`
    and the coupling error Xi of `lowlevel.coupling_error_map`.  A tick's
    states are then the auxiliary rollout plus the stacked plan rollouts
    plus Xi times the planned corrections, and its corrections one
    `apply_correction` on the whole block.
    """
    start = time.perf_counter()
    x = start_state(model, cfg)
    if bundle is None:
        bundle = design_pipeline(model, cfg)
    reduced, hl, slow = bundle.reduced, bundle.hl, bundle.hl.slow
    N, M = cfg.period, model.n_subsystems
    n, m = model.n_states, model.n_inputs
    rho_u = model.input_radii()

    f_cols = fast_columns(n, m) + tuple(f"margin{i}" for i in range(M))
    s_cols = slow_columns(reduced.n_states, m, cfg.horizon)
    fast_rows = np.empty((cfg.n_slow_steps * N, len(f_cols)))
    slow_rows = np.empty((cfg.n_slow_steps, len(s_cols)))
    # Column-block views of fast_rows; tick k fills rows k*N .. k*N + N-1.
    fast = {prefix: column_block(f_cols, fast_rows, prefix, width)
            for prefix, width in (("x", n), ("ubar", m), ("duhat", m),
                                  ("du", m), ("u", m), ("margin", M))}
    dxhat = np.empty((N + 1, n))  # the tick's stacked plan rollouts
    in_slices = [model.input_slice(i) for i in range(M)]
    state_slices = [model.state_slice(i) for i in range(M)]
    red_slices = [reduced.block_slice(i) for i in range(M)]
    in_starts = np.asarray(model.input_offsets[:-1])

    hl_qp = tube_qp(hl)
    ll_qps = [correction_qp(model, reduced, i,
                            BallSet(model.subsystems[i].n_inputs,
                                    float(bundle.radii.rho_delta_u_hat[i])),
                            bundle.ll_Q[i], bundle.ll_R[i], N)
              for i in range(M)]
    aux_maps = auxiliary_maps(model, N)
    Xi = coupling_error_map(model, bundle.ll_gain, N)

    for k in range(cfg.n_slow_steps):
        x_proj = reduced.beta @ x
        try:
            sol = solve_hl(hl_qp, x_proj, cfg.tol_primal, cfg.tol_dual,
                           cfg.max_iters, first_step=(k == 0))
        except InfeasibleHL as exc:
            exc.diagnostics["slow_step"] = k
            raise
        u_bar = sol.u_applied
        x_bar_pred = slow.A @ x_proj + slow.B @ u_bar
        xhat = simulate_auxiliary(aux_maps, x, u_bar)

        # The tick's rows, written as column blocks.
        rows = slice(k * N, (k + 1) * N)
        duhat = fast["duhat"][rows]
        for i in range(M):
            try:
                plan = solve_ll(ll_qps[i], x_bar_pred[red_slices[i]],
                                xhat[N], cfg.tol_primal, cfg.tol_dual,
                                cfg.max_iters)
            except InfeasibleLL as exc:
                exc.diagnostics["slow_step"] = k
                raise
            duhat[:, in_slices[i]] = plan.u_steps
            dxhat[:, state_slices[i]] = plan.states

        xs = xhat + dxhat + (Xi @ duhat.ravel()).reshape(N + 1, n)
        fast["x"][rows] = xs[:N]
        du = fast["du"][rows] = apply_correction(duhat, dxhat[:N],
                                                 bundle.ll_gain,
                                                 xs[:N] - xhat[:N])
        u = fast["u"][rows] = u_bar + du
        fast["ubar"][rows] = u_bar
        # Each subsystem's input norm per fast step, one segment sum each.
        fast["margin"][rows] = rho_u - np.sqrt(np.add.reduceat(u * u, in_starts,
                                                               axis=1))

        x = xs[N]
        w_bar = reduced.beta @ x - x_bar_pred
        tube_err = float(np.linalg.norm(x_proj - sol.x_nominal))
        slow_rows[k] = np.concatenate(
            [[k], x_proj, sol.x_nominal, sol.x_nominal_next, u_bar,
             sol.u_nominal_seq.ravel(),
             [sol.objective, float(sol.iterations), sol.primal_residual,
              sol.dual_residual], w_bar, [tube_err]])

    wall = time.perf_counter() - start
    return TraceArchive(cfg, f_cols, s_cols, fast_rows, slow_rows, x, wall)
