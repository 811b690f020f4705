"""Offline design pipeline and the online two-rate closed loop.

`design_pipeline` walks the offline checklist in dependency order and fails
fast naming the first unmet item: first `certify` (order reduction, fast
gain, input-budget allocation, certificate constants; `hiermpc analyze` and
`tune` run it too), then, once every clause passes, the slow layer (slow
model, whose horizon power must be invertible, slow gain, disturbance set,
invariant tube, terminal cost and set).
`run_closed_loop` then executes the slow loop around the full plant.  A
tick computes only what the next tick reads: one tube-tightened slow solve,
the terminal state of the shared constant-input auxiliary rollout, one
solve of the stacked correction QP, which plans every subsystem's
corrections in blocks that share nothing, and the plant state at the end
of the period, one product with a map built once per run from the fast
block's response to a unit plan step (`fast_block_maps`).  A tick whose
sets bind in neither layer builds no QP: each layer's solve is one product
with a map built once per run.  The trace records what an archive stores,
the tick states, each layer's decisions and the final state; `TraceArchive`
derives the rest on first read, the fast records by the one rollout of
every period (`periods`), which `trace.verify_archive` checks the stored
states against.  Persistence and re-verification live in `trace`.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .analysis import (CertificateReport, CertificateTables, RadiusAllocation,
                       certificate_constants, certificate_tables, tune_radii)
from .errors import ConfigInvalid, DesignIncomplete, HierMPCError, InfeasibleHL, \
    InfeasibleLL
from .highlevel import (HLDesign, design_gain, horizon_inverse, lift, solve_hl,
                        terminal_cost, tube_qp)
from .lowlevel import AuxiliaryMaps, CorrectionQP, LLGain, apply_correction, \
    auxiliary_maps, correction_qp, design_ll_gain, lag_response, \
    simulate_auxiliary, solve_ll
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
    decoupled: bool = False

    def __post_init__(self):
        for name in ("period", "horizon", "n_slow_steps"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigInvalid(f"{name} must be a positive integer, got {value!r}")
        for name in ("q_slow", "r_slow", "q_fast", "r_fast"):
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
        x0 = tuple(float(v) for v in self.x0)
        if not all(map(math.isfinite, x0)):
            raise ConfigInvalid(f"RunConfig.x0 must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)


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
    """Output of the offline checklist; everything the online loop consumes.

    `config` is the run config the design was built from, and the only
    record of its settings: the slow period, the horizon and both layers'
    weights are read from it (`slow_weights`, `fast_weights`), not kept in
    the design parts."""

    config: RunConfig
    model: InterconnectedModel
    reduced: ReducedModel
    hl: HLDesign
    ll_gain: LLGain
    report: CertificateReport

    @property
    def radii(self) -> RadiusAllocation:
        return self.report.radii


def check_same_design(cfg: RunConfig, bundle: DesignBundle) -> None:
    """ConfigInvalid naming the fields, other than `n_slow_steps`, in which
    `cfg` differs from the config `bundle` was designed from."""
    differ = [f.name for f in fields(RunConfig) if f.name != "n_slow_steps"
              and getattr(cfg, f.name) != getattr(bundle.config, f.name)]
    if differ:
        raise ConfigInvalid(f"the run config differs from the design's in "
                            f"{', '.join(differ)}; design the bundle from it")


def check_same_plant(model: InterconnectedModel, bundle: DesignBundle) -> None:
    """ConfigInvalid naming the parts of `model.json` in which `model`
    differs, in size or in bits, from the plant `bundle` was designed on,
    the plant its archive records.  The same object passes at once; else
    each part's JSON text is compared, which keeps every bit of a float."""
    if model is bundle.model:
        return
    ours, design = to_json(model), to_json(bundle.model)
    if len(ours["subsystems"]) != len(design["subsystems"]):
        differ = ["the number of subsystems"]
    else:
        differ = [f"subsystems[{i}].{key}" for i, (a, b) in
                  enumerate(zip(ours["subsystems"], design["subsystems"]))
                  for key in a if json.dumps(a[key]) != json.dumps(b[key])]
        if json.dumps(ours["coupling"]) != json.dumps(design["coupling"]):
            differ.append("coupling")
    if differ:
        raise ConfigInvalid(f"the plant differs from the design's in "
                            f"{', '.join(differ)}; design the bundle on it")


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


def slow_weights(cfg: RunConfig, n_red: int, m: int) -> tuple:
    """State and input weights of the slow layer."""
    return cfg.q_slow * np.eye(n_red), cfg.r_slow * np.eye(m)


def fast_weights(model: InterconnectedModel, cfg: RunConfig) -> tuple:
    """Per-subsystem state and input weights of the fast layer."""
    return (tuple(cfg.q_fast * np.eye(sub.n_states) for sub in model.subsystems),
            tuple(cfg.r_fast * np.eye(sub.n_inputs) for sub in model.subsystems))


def certify(model: InterconnectedModel, cfg: RunConfig
            ) -> tuple[ReducedModel, LLGain, CertificateReport, CertificateTables]:
    """The certificate stages of the offline checklist, up to the constants
    at the configured start.  The radius LP and the certificate read one set
    of `certificate_tables`, computed once in the "radii" stage and returned
    for any other reader.  Raises DesignIncomplete naming the first stage
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
                     lambda: design_ll_gain(model, *fast_weights(model, cfg)))

    def _radii():
        tables = certificate_tables(model, reduced, ll_gain, cfg.period)
        return tables, tune_radii(model, reduced, ll_gain, cfg.period,
                                  cfg.gamma1, cfg.gamma2, cfg.u_bar_floor,
                                  tables=tables)

    tables, radii = _stage("radii", _radii)
    report = _stage("certificate", lambda: certificate_constants(
        model, reduced, ll_gain, radii, cfg.period, x0=x0, tables=tables))
    return reduced, ll_gain, report, tables


def design_pipeline(model: InterconnectedModel, cfg: RunConfig) -> DesignBundle:
    """Run the offline checklist; raise DesignIncomplete naming the first
    failing stage so a misconfigured run is rejected before any simulation.
    The slow layer is designed only once `certify` has passed every clause."""
    reduced, ll_gain, report, _ = certify(model, cfg)
    radii = report.radii
    if not report.assumptions_ok:
        failing = [k for k, ok in report.clauses.items() if not ok]
        raise DesignIncomplete("certificate", f"certificate clauses failed: {failing}")

    slow = _stage("slow_gain", lambda: lift(reduced, cfg.period))
    _stage("slow_horizon", lambda: horizon_inverse(slow, cfg.horizon))
    n_red, m = slow.n_states, slow.n_inputs
    Q_slow, R_slow = slow_weights(cfg, n_red, m)
    gain = _stage("slow_gain",
                  lambda: design_gain(slow, model, reduced, Q_slow, R_slow,
                                      cfg.period))
    w_ball = _stage("disturbance_set", lambda: BallSet(n_red, report.rho_w))
    F_slow = slow.closed_loop(gain.K)
    tube = _stage("tube", lambda: rpi_outer(F_slow, w_ball))
    P = _stage("terminal_cost",
               lambda: terminal_cost(F_slow, gain.K, Q_slow, R_slow))

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
                      lambda: terminal_set(F_slow, P, gain.K, input_tight))

    hl = HLDesign(slow, gain, tube, terminal, input_tight)
    return DesignBundle(cfg, model, reduced, hl, ll_gain, report)


# ------------------------------------------------------------- trace layout

def fast_columns(m: int) -> tuple:
    """The fast block an archive stores: the correction layer's decision,
    the planned corrections `duhat`.  The applied corrections follow from
    it by the regulator's law du = duhat + K_i (x - xhat - dxhat), once the
    tick's state and held input are fixed, and the states follow from the
    tick's state, the held input and the applied corrections; so the states
    are stored once, at the slow ticks, in the slow columns, and the held
    input `ubar` follows from the slow layer's law.  `TraceArchive.fast_block`
    derives the applied corrections `du`, the states `x`, the plant input
    `u` = ubar + du and the input margins `margin` by `periods`."""
    return tuple(f"duhat{i}" for i in range(m))


def slow_columns(n: int, n_red: int, m: int, horizon: int) -> tuple:
    """The slow blocks an archive stores: the plant state `x` at each tick,
    and what the slow layer decided there, the nominal state `xnom`, the
    nominal input sequence `useq`, and the solve's objective, iteration
    count and residuals.  What follows from these is not stored: the
    projection beta x of each tick's state, the held input `ubar` = useq0 +
    K (beta x - xnom) by the slow layer's tube law with the design's gain
    K, and the disturbance `wbar` = beta x+ - (A beta x + B ubar) of the
    slow model, which `TraceArchive.slow_block` derives from the stored
    blocks and the final state."""
    cols = [f"x{i}" for i in range(n)]
    cols += [f"xnom{i}" for i in range(n_red)]
    cols += [f"useq{s}_{i}" for s in range(horizon) for i in range(m)]
    cols += ["objective", "iterations", "primal_residual", "dual_residual"]
    return tuple(cols)


def column_block(cols: tuple, rows: np.ndarray, prefix: str, count: int) -> np.ndarray:
    """View of the `count` columns (last axis) of `rows` named prefix0,
    prefix1, ..."""
    start = cols.index(f"{prefix}0")
    return rows[..., start:start + count]


def input_norms(model: InterconnectedModel, inputs: np.ndarray) -> np.ndarray:
    """Each subsystem's input norm, one segment sum: (..., m) -> (..., M)."""
    return np.sqrt(np.add.reduceat(inputs * inputs,
                                   np.asarray(model.input_offsets[:-1]), axis=-1))


def rollouts(A: np.ndarray, start: np.ndarray,
             forcing: np.ndarray) -> np.ndarray:
    """States 0..N of s+ = A s + forcing[j] from `start`, one rollout per
    slow step, step-major: start (K, n), forcing (N, K, n); returns
    (N + 1, K, n), whose step j is the contiguous block [j]."""
    states = np.empty((forcing.shape[0] + 1,) + start.shape)
    states[0] = start
    for j, push in enumerate(forcing):
        states[j + 1] = states[j] @ A.T + push
    return states


def periods(bundle: DesignBundle, x_b: np.ndarray, ubar: np.ndarray,
            duhat: np.ndarray) -> tuple:
    """Each period of a run rebuilt from its tick's state x_b (K, n), held
    input ubar (K, m) and plan duhat (N, K, m, step-major), from the design
    constants alone: the auxiliary rollout xhat under the held input, the
    plan rollout dxhat of duhat from 0 under each subsystem's own dynamics,
    and the closed loop x, each of whose fast steps applies the regulator's
    law du = duhat + K_i (x - xhat - dxhat) (`apply_correction`), then
    x+ = A x + B (ubar + du).  Returns xhat, dxhat and x, (N + 1, K, n), and
    du, (N, K, m).

    This is the one rollout of the fast block: `TraceArchive` derives its
    fast records from it, and `trace.verify_archive` checks each period's
    end against the next tick's state, which the loop computed by W_N."""
    model, N = bundle.model, duhat.shape[0]
    A, B = model.A, model.B
    xhat = rollouts(A, x_b, np.broadcast_to(ubar @ B.T, (N,) + x_b.shape))
    dxhat = rollouts(model.block_diagonal_A(), np.zeros_like(x_b), duhat @ B.T)
    x, du = np.empty_like(xhat), np.empty(duhat.shape)
    x[0] = x_b
    for j in range(N):
        du[j] = apply_correction(duhat[j], dxhat[j], bundle.ll_gain,
                                 x[j] - xhat[j])
        x[j + 1] = x[j] @ A.T + (ubar + du[j]) @ B.T
    return xhat, dxhat, x, du


@dataclass(frozen=True)
class TraceArchive:
    """One closed-loop run as its archive stores it: the run's config, its
    design, the stored fast and slow blocks (`fast_columns`,
    `slow_columns`), the final state, and the run's metadata (the wall
    clock of `run_closed_loop`; all of metadata.json on `trace.load_archive`).
    A run and its loaded archive hold the same bits.

    What is not stored is derived from them on first read and kept: the
    tick states with the final state (`ticks`), the slow projections, held
    inputs and predictions (`slow_prediction`), from which `slow_block`
    gives `ubar` and `wbar` without the fast rollout, and every period
    rolled out by `periods` under those held inputs (`rollout`), from which
    `fast_block` gives `du`, `x`, `u` and `margin`.  The held input is
    derived once, by the slow layer's tube law ubar = useq0 + K (beta x -
    xnom) from the stored tick states, nominals and first plan inputs and
    the design's gain, and every reader reads that one value."""

    config: RunConfig
    bundle: DesignBundle
    fast: np.ndarray
    slow: np.ndarray
    final_state: np.ndarray
    metadata: dict

    @property
    def wall_clock(self) -> float:
        return self.metadata["wall_clock_s"]

    @cached_property
    def fast_cols(self) -> tuple:
        return fast_columns(self.bundle.model.n_inputs)

    @cached_property
    def slow_cols(self) -> tuple:
        model = self.bundle.model
        return slow_columns(model.n_states, self.bundle.reduced.n_states,
                            model.n_inputs, self.config.horizon)

    @property
    def plan_steps(self) -> np.ndarray:
        """The plans duhat step-major, (N, K, m): [j] is fast step j of
        every period."""
        return self.fast.reshape(-1, self.config.period,
                                 self.bundle.model.n_inputs).transpose(1, 0, 2)

    @cached_property
    def ticks(self) -> np.ndarray:
        """The plant state at each tick, then the final state, (K + 1, n)."""
        return np.vstack([self.slow_block("x", self.bundle.model.n_states),
                          self.final_state[None, :]])

    @cached_property
    def rollout(self) -> tuple:
        """xhat, dxhat, x and du of every period, by `periods`."""
        model = self.bundle.model
        return periods(self.bundle, self.slow_block("x", model.n_states),
                       self.slow_block("ubar", model.n_inputs), self.plan_steps)

    @cached_property
    def slow_prediction(self) -> tuple:
        """The projection beta x of each tick's state and of the final
        state, (K + 1, n_red), the held input of each slow step by the tube
        law, ubar = useq0 + K (beta x - xnom), (K, m), and the slow layer's
        prediction of each next projection, A beta x + B ubar, (K, n_red)."""
        reduced, hl = self.bundle.reduced, self.bundle.hl
        proj = self.ticks @ reduced.beta.T
        ubar = self.slow_block("useq0_", self.bundle.model.n_inputs) + (
            proj[:-1] - self.slow_block("xnom", reduced.n_states)) @ hl.gain.K.T
        return proj, ubar, proj[:-1] @ hl.slow.A.T + ubar @ hl.slow.B.T

    @cached_property
    def _fast_records(self) -> dict:
        """The fast blocks that are not stored, one row per fast step."""
        model, N = self.bundle.model, self.config.period
        _, _, x, du = self.rollout
        u = self.slow_block("ubar", model.n_inputs) + du
        margin = model.input_radii() - input_norms(model, u)
        return {name: steps.transpose(1, 0, 2).reshape(-1, steps.shape[-1])
                for name, steps in (("du", du), ("x", x[:N]), ("u", u),
                                    ("margin", margin))}

    def fast_block(self, prefix: str, count: int) -> np.ndarray:
        if f"{prefix}0" in self.fast_cols:
            return column_block(self.fast_cols, self.fast, prefix, count)
        return self._fast_records[prefix][:, :count]

    def slow_block(self, prefix: str, count: int) -> np.ndarray:
        if prefix == "ubar":
            return self.slow_prediction[1][:, :count]
        if prefix == "wbar":
            proj, _, prediction = self.slow_prediction
            return (proj[1:] - prediction)[:, :count]
        return column_block(self.slow_cols, self.slow, prefix, count)


# ---------------------------------------------------------------- run loop

def fast_block_maps(model: InterconnectedModel, bundle: DesignBundle,
                    period: int) -> tuple[CorrectionQP, np.ndarray]:
    """The run-constant part of a tick below the slow solve: the stacked
    correction QP and W_N, (n, period m), the map from the tick's planned
    corrections vec(duhat), (period, m) raveled row by row, to the state at
    the period's end less the auxiliary rollout's.

    Both come from one `lowlevel.lag_response`, the response to a unit plan
    step at lag 0: plan step l reaches the period's end at lag period - l,
    so W_N is the measured deviations omega at lags period, ..., 1 side by
    side, and the QP's plan predictions are gathered from the plan states
    dx.
    """
    dx, omega = lag_response(model, bundle.ll_gain, period)
    W_N = omega[period:0:-1].transpose(1, 0, 2).reshape(model.n_states, -1)
    qp = correction_qp(model, bundle.reduced, bundle.radii.rho_delta_u_hat,
                       *fast_weights(model, bundle.config), period, dx)
    return qp, W_N


def run_closed_loop(model: InterconnectedModel, cfg: RunConfig,
                    bundle: DesignBundle | None = None) -> TraceArchive:
    """Execute the two-rate loop for `cfg.n_slow_steps` slow steps.

    A given `bundle` must have been designed from `cfg` on `model`: a
    config that differs from `bundle.config` in any field but
    `n_slow_steps`, or a plant that differs from `bundle.model` in size or
    bits, raises ConfigInvalid naming what differs.  Any slow- or fast-layer infeasibility
    aborts the run with the slow-step index attached to the exception
    diagnostics; nothing is clipped, and no trace is returned.  The data of
    each layer's QP that does not change between ticks, with its KKT
    factors, is built once here, before the first tick, and so are the two
    maps of the fast block a tick reads: the last block row of the
    auxiliary rollout of `lowlevel.auxiliary_maps`, and W_N of
    `fast_block_maps`.
    A tick computes only what the next tick reads: one slow solve, the
    auxiliary terminal state xhat_N (`simulate_auxiliary` on that row), one
    correction solve for all subsystems, and the next boundary state
    xhat_N + W_N vec(duhat).  The trace records only what the archive
    stores: each tick's state and the slow layer's decisions there, each
    tick's plan duhat, and the final state.
    """
    start = time.perf_counter()
    x = start_state(model, cfg)
    if bundle is None:
        bundle = design_pipeline(model, cfg)
    check_same_design(cfg, bundle)
    check_same_plant(model, bundle)
    reduced, hl, lifted = bundle.reduced, bundle.hl, bundle.hl.slow
    K, N = cfg.n_slow_steps, cfg.period
    n, m = model.n_states, model.n_inputs
    n_red = reduced.n_states
    hl_qp = tube_qp(hl, *slow_weights(cfg, n_red, m), cfg.horizon)
    aux = auxiliary_maps(model, N)
    terminal = AuxiliaryMaps(aux.Phi[N * n:], aux.Psi[N * n:])
    ll_qp, W_N = fast_block_maps(model, bundle, N)

    s_cols = slow_columns(n, n_red, m, cfg.horizon)
    duhat = np.empty((K, N, m))
    slow_rows = np.empty((K, len(s_cols)))
    # Column-block views of slow_rows; tick k fills row k.  The plan's
    # inputs useq0_0 .. are one block, and so are the four solve columns
    # from `objective` on.
    slow = {prefix: column_block(s_cols, slow_rows, prefix, width)
            for prefix, width in (("x", n), ("xnom", n_red),
                                  ("useq0_", cfg.horizon * m))}
    solve = s_cols.index("objective")
    slow["solve"] = slow_rows[:, solve:solve + 4]

    for k in range(K):
        x_proj = reduced.beta @ x
        try:
            sol = solve_hl(hl_qp, x_proj)
            u_bar = sol.u_applied
            x_bar_pred = lifted.A @ x_proj + lifted.B @ u_bar
            (xhat_N,) = simulate_auxiliary(terminal, x, u_bar)
            plan = solve_ll(ll_qp, x_bar_pred, xhat_N)
        except (InfeasibleHL, InfeasibleLL) as exc:
            exc.diagnostics["slow_step"] = k
            raise

        slow["x"][k] = x
        duhat[k] = plan.u_steps
        x = xhat_N + W_N @ plan.u_steps.ravel()
        slow["xnom"][k] = sol.x_nominal
        slow["useq0_"][k] = sol.u_nominal_seq.ravel()
        slow["solve"][k] = (sol.objective, sol.iterations, sol.primal_residual,
                            sol.dual_residual)

    wall = time.perf_counter() - start
    return TraceArchive(cfg, bundle, duhat.reshape(K * N, m), slow_rows, x,
                        {"wall_clock_s": wall})
