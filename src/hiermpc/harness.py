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
of the period.  A tick whose sets bind in neither layer builds no QP: each
layer's solve is one product with a map built once per run.  The fast
block is affine in the tick's start state, held input and planned
corrections, so the fast records of every tick are built after the loop,
in a few batched products with maps built once per run (`fast_block_maps`),
not stepped fast step by fast step nor subsystem by subsystem.  The maps
are block-Toeplitz in (fast step, plan step), and are gathered from one lag
response: the fast block's response to a unit plan step.  The trace
records the states and each layer's decisions, from which the runtime
invariants are checked; persistence and re-verification live in `trace`.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .analysis import (CertificateReport, CertificateTables, RadiusAllocation,
                       certificate_constants, certificate_tables, tune_radii)
from .errors import ConfigInvalid, DesignIncomplete, HierMPCError, InfeasibleHL, \
    InfeasibleLL
from .highlevel import (HLDesign, design_gain, horizon_inverse, lift, solve_hl,
                        terminal_cost, tube_qp)
from .lowlevel import AuxiliaryMaps, CorrectionQP, LLGain, apply_correction, \
    auxiliary_maps, block_toeplitz, correction_qp, design_ll_gain, \
    lag_response, simulate_auxiliary, solve_ll
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
    are stored once, at the slow ticks, in the slow columns, and so is the
    held input `ubar`.  The in-memory trace of `run_closed_loop` appends the
    applied corrections `du`, the states `x`, the plant input `u` = ubar +
    du and the input margins `margin`, which are not stored."""
    return tuple(f"duhat{i}" for i in range(m))


def slow_columns(n: int, n_red: int, m: int, horizon: int) -> tuple:
    """The slow blocks an archive stores: the plant state `x` at each tick,
    and what the slow layer decided there, the nominal state `xnom` and its
    successor `xnext`, the held input `ubar`, the nominal input sequence
    `useq`, and the solve's objective, iteration count and residuals.  What
    follows from the states is not stored: the projection beta x of each
    tick's state, and the disturbance `wbar` = beta x+ - (A beta x + B ubar)
    of the slow model.  The in-memory trace of `run_closed_loop` appends
    `wbar`, which is not stored."""
    cols = [f"x{i}" for i in range(n)]
    cols += [f"xnom{i}" for i in range(n_red)]
    cols += [f"xnext{i}" for i in range(n_red)]
    cols += [f"ubar{i}" for i in range(m)]
    cols += [f"useq{s}_{i}" for s in range(horizon) for i in range(m)]
    cols += ["objective", "iterations", "primal_residual", "dual_residual"]
    return tuple(cols)


def column_block(cols: tuple, rows: np.ndarray, prefix: str, count: int) -> np.ndarray:
    """View of the `count` columns (last axis) of `rows` named prefix0,
    prefix1, ..."""
    start = cols.index(f"{prefix}0")
    return rows[..., start:start + count]


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

def fast_block_maps(model: InterconnectedModel, bundle: DesignBundle,
                    period: int) -> tuple[CorrectionQP, np.ndarray, np.ndarray]:
    """The run-constant part of a tick below the slow solve: the stacked
    correction QP and the two maps of the fast block from the tick's planned
    corrections vec(duhat), (period, m) raveled row by row.

    Both maps are block lower-triangular Toeplitz in (fast step, plan step),
    gathered by `lowlevel.block_toeplitz` from one `lowlevel.lag_response`,
    the response to a unit plan step at lag 0.  W, ((period+1) n, period m),
    gives the states at fast steps 0..period less the auxiliary rollout: the
    lag blocks are omega, plan rollout plus coupling error.  D, (period m,
    period m), gives the applied corrections: its lag blocks are one
    `apply_correction` on the lag responses, the unit plan at lag 0 with
    its plan states dx and measured deviations omega, I + K e.  The QP's
    plan predictions are gathered from dx.
    """
    m = model.n_inputs
    dx, omega = lag_response(model, bundle.ll_gain, period)
    W = block_toeplitz(omega, period + 1, period)
    # `apply_correction` reads states along the last axis, so each lag block
    # is transposed: row c is then input c's unit step, and the plan is the
    # identity at lag 0.
    unit = np.zeros((period, m, m))
    unit[0] = np.eye(m)
    du = apply_correction(unit, dx[:period].transpose(0, 2, 1), bundle.ll_gain,
                          omega[:period].transpose(0, 2, 1))
    D = block_toeplitz(du.transpose(0, 2, 1), period, period)
    qp = correction_qp(model, bundle.reduced, bundle.radii.rho_delta_u_hat,
                       *fast_weights(model, bundle.config), period, dx)
    return qp, W, D


# Ticks whose fast records one batched product builds: the product's
# temporaries stay a small part of the records.
RECORD_CHUNK = 16


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
    factors, is built once here, before the first tick, and so are the maps
    of the fast block: the auxiliary rollout of `lowlevel.auxiliary_maps`
    and W and D of `fast_block_maps`.
    A tick computes only what the next tick reads: one slow solve, the
    auxiliary terminal state xhat_N (`simulate_auxiliary` on the maps' last
    block row), one correction solve for all subsystems, whose plan is
    recorded as it is, and the next boundary state xhat_N + W_N vec(duhat),
    with W_N the last block row of W.  After the loop the fast records of
    every tick are built from its boundary state, held input and plan, in
    batched products over the other block rows, `RECORD_CHUNK` ticks at a
    time: states Phi x + Psi ubar + W vec(duhat), corrections D vec(duhat),
    inputs ubar + du and the input margins.
    """
    start = time.perf_counter()
    x = start_state(model, cfg)
    if bundle is None:
        bundle = design_pipeline(model, cfg)
    check_same_design(cfg, bundle)
    check_same_plant(model, bundle)
    reduced, hl, lifted = bundle.reduced, bundle.hl, bundle.hl.slow
    K, N, M = cfg.n_slow_steps, cfg.period, model.n_subsystems
    n, m = model.n_states, model.n_inputs
    n_red = reduced.n_states
    hl_qp = tube_qp(hl, *slow_weights(cfg, n_red, m), cfg.horizon)
    aux = auxiliary_maps(model, N)
    terminal = AuxiliaryMaps(aux.Phi[N * n:], aux.Psi[N * n:])
    # Built before the records, so that its temporaries and the records are
    # never held at once.
    ll_qp, W, D = fast_block_maps(model, bundle, N)
    W_N = W[N * n:]

    f_cols = fast_columns(m) + tuple(f"{prefix}{i}" for prefix, width in (
        ("du", m), ("x", n), ("u", m), ("margin", M)) for i in range(width))
    s_cols = slow_columns(n, n_red, m, cfg.horizon) \
        + tuple(f"wbar{i}" for i in range(n_red))
    fast_rows = np.empty((K * N, len(f_cols)))
    slow_rows = np.empty((K, len(s_cols)))
    # Column-block views of fast_rows by tick: tick k's rows k*N .. k*N + N-1
    # are fast[prefix][k].
    ticks = fast_rows.reshape(K, N, -1)
    fast = {prefix: column_block(f_cols, ticks, prefix, width)
            for prefix, width in (("x", n), ("duhat", m), ("du", m),
                                  ("u", m), ("margin", M))}
    # Column-block views of slow_rows; tick k fills row k.  The plan's
    # inputs useq0_0 .. are one block, and so are the four solve columns
    # from `objective` on.
    slow = {prefix: column_block(s_cols, slow_rows, prefix, width)
            for prefix, width in (("x", n), ("xnom", n_red), ("xnext", n_red),
                                  ("ubar", m), ("useq0_", cfg.horizon * m),
                                  ("wbar", n_red))}
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
        fast["duhat"][k] = plan.u_steps
        x = xhat_N + W_N @ plan.u_steps.ravel()
        slow["xnom"][k] = sol.x_nominal
        slow["xnext"][k] = sol.x_nominal_next
        slow["ubar"][k] = u_bar
        slow["useq0_"][k] = sol.u_nominal_seq.ravel()
        slow["solve"][k] = (sol.objective, sol.iterations, sol.primal_residual,
                            sol.dual_residual)
        slow["wbar"][k] = reduced.beta @ x - x_bar_pred

    # The fast records.  Fast step 0 of a tick is its boundary state, the
    # tick's slow `x`; steps 1..N-1 are one product each with the other block
    # rows of the maps, on a chunk of ticks side by side as columns.  (With
    # the ticks as rows, BLAS would pack all of W for the product and touch
    # that much more of its buffer.)  The QPs are released first, so that
    # the chunks' temporaries take the place of their data rather than add
    # to it.
    del hl_qp, ll_qp
    Phi, Psi, W_steps = (a[n:N * n] for a in (aux.Phi, aux.Psi, W))
    rho_u = model.input_radii()
    in_starts = np.asarray(model.input_offsets[:-1])
    for first in range(0, K, RECORD_CHUNK):
        ks = slice(first, min(first + RECORD_CHUNK, K))
        u_bar = slow["ubar"][ks]
        duhat = fast["duhat"][ks].reshape(-1, N * m).T
        x_ticks = fast["x"][ks, 0] = slow["x"][ks]
        xs = Phi @ x_ticks.T
        xs += Psi @ u_bar.T
        xs += W_steps @ duhat
        fast["x"][ks, 1:] = xs.T.reshape(len(u_bar), N - 1, n)
        du = fast["du"][ks] = (D @ duhat).T.reshape(-1, N, m)
        u = fast["u"][ks] = u_bar[:, None] + du
        # Each subsystem's input norm per fast step, one segment sum.
        fast["margin"][ks] = rho_u - np.sqrt(np.add.reduceat(u * u, in_starts,
                                                             axis=2))

    wall = time.perf_counter() - start
    return TraceArchive(cfg, f_cols, s_cols, fast_rows, slow_rows, x, wall)
