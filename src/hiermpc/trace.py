"""Trace archive persistence and post-hoc invariant verification.

An archive directory holds one CSV per rate (`fast.csv`, `slow.csv`), the
model, the run config, the design, the certificate, and a metadata file.
`fast.csv` stores the fast block of `harness.fast_columns`: the correction
layer's decision, the planned corrections `duhat`.  Each value is stored
once.  Once a tick's plan is fixed, the regulator's law du = duhat + K_i
(x - xhat - dxhat) sets each applied correction, and within a period the
plant's states follow from the tick's state, the held input and the
applied corrections; so the states are stored at the slow ticks only, in
`slow.csv`.  `slow.csv` stores the slow blocks of `harness.slow_columns`:
the plant state `x` at each tick and what the slow layer decided there, the
nominal state `xnom`, the nominal input sequence `useq` and the solve's
objective, iteration count and residuals.  The held input follows from the
law: the slow layer holds ubar = useq0 + K (beta x - xnom) over the period,
with the design's tube gain K, so it is not stored.  A run and
`load_archive` give the same record, `harness.TraceArchive`, which holds
these blocks as they are stored and derives the rest on first read, the
held input by the law first.  `harness.periods` rebuilds each period
from its tick's state, from the design constants alone (never from the
controller's maps): the auxiliary rollout `xhat` under `ubar`, the plan
rollout `dxhat` of `duhat` under each subsystem's own dynamics, and the
closed loop, each of whose fast steps applies the law and then the plant
step under ubar + du.  That one rollout gives the applied corrections
`du`, the fast states `x`, the plant input `u` and the input margins
`margin`, and `verify_archive` checks it; the projection beta x of each
tick's state and the slow disturbance `wbar` follow from the tick states,
the final state and the held input.
The four JSON files hold constructor arguments written by the `model_io`
codec, one part of the design bundle each: `config.json` the run config
(the design's settings, with the run's number of slow steps),
`model.json` the subsystems and the coupling map, `certificate.json` the
certificate report, and `design.json` the rest: the reduction, the slow
layer (`HLDesign`: lifted model, gain, tube, terminal set, tightened
inputs) and the fast gain blocks with the spectral radius of the coupled
fast closed loop.  A set is written by its indices, with its radius and
centre or its shape and level.  Each design quantity and each setting is
stored once: the slow period, the horizon and the layer weights are read
from `config.json` alone, so an edited `config.json` fails `config_hash`.
What can be built from the stored ones is built by the constructors on
load, never read: the collective A and B, the reduction's block offsets
(from its retained orders) and the block-diagonal fast gain.  The terminal
cost is the terminal set's shape, and the closed loops (the slow A + B K,
the fast A + B K, the lifted slow loop) are rebuilt where they are used.
The constructors check the sizes within each object and `load_archive` the
sizes that tie the files together, and the codec refuses numbers that are
not finite, so a damaged file is an error that names the file and the
field.  JSON floats are written with repr.  CSV
cells are the bytes `numpy.savetxt` writes with "%.17g", formatted one `%`
per chunk of rows: 17 significant digits, formatted by
CPython's correctly rounded conversion, which `numpy.loadtxt` reads back to
the same float64 bits (`-0.0` is written `-0`, `-2.0` is `-2`, infinities
`inf`/`-inf`).  So every file except `metadata.json` is a pure function of
the config; `metadata.json` records wall clock, the archive version (15),
the config's digest and the final state, and of it the determinism digest
covers the final state alone.

`verify_archive` re-derives every runtime invariant from the recorded
data: the first tick's state against the config's start
(`initial_state`), each period's closed loop against the next tick's
state (`transition_residual`, under the held input the law gives), input
limits, correction budgets, each plan's terminal hit on the slow layer's
prediction (`ll_terminal`), the slow-step disturbance bound, tube
containment, the slow plan (its inputs, terminal state and objective,
`nominal_plan`), nominal convergence, and the closed-loop norm-tail
envelope, whose lifted closed loop `lti.lifted_closed_loop` rebuilds from
the model and slow gain.  The slow solve's iteration count and residuals
are solver diagnostics, which no check reads.  Each bound check
(`input_limits`, `correction_budgets`, `disturbance_bound`,
`tube_containment`) says in its detail how much of its bound the run used,
nan where a norm is NaN.  `transition_residual` is scale-aware: the closed
loop computed each tick's state by the map W_N of
`harness.fast_block_maps` and the rollout steps the law and the plant, so
each residual is compared with eps times a magnitude rollout of the terms
the period summed, the slow law's terms among them, at most
`TRANSITION_ROUNDOFF` times, and a controller whose held inputs follow
another law fails it; its detail gives the absolute worst, the ratio and
the slow step of the worst.  A damaged model or gain whose closed-loop
powers overflow fails `tail_envelope` as a
non-finite envelope, by name, with no numpy warning.
"""
from __future__ import annotations

import hashlib
import json
import os
import reprlib
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import CertificateReport, spectral_norms
from .errors import ConfigInvalid, HierMPCError
from .harness import (DesignBundle, RunConfig, TraceArchive,
                      check_same_design, config_digest, fast_columns,
                      input_norms, rollouts, slow_columns, slow_weights,
                      start_state)
from .lti import (InterconnectedModel, lifted_closed_loop, lifted_input_matrix,
                  matrix_powers)
from .model_io import from_json, to_json

ARCHIVE_VERSION = 15
FAST_SCHEMA = "hiermpc.trace.fast.v6"
SLOW_SCHEMA = "hiermpc.trace.slow.v4"
_DETERMINISTIC_FILES = ("model.json", "config.json", "design.json",
                        "certificate.json", "fast.csv", "slow.csv")
# Rows formatted by one `%` in `_write_csv`: few enough that the text of a
# chunk stays small, enough that the per-chunk overhead does not count.
_CSV_CHUNK_ROWS = 256
# The transition_residual check compares each period's residual with eps
# times the size of the terms its closed loop summed.  Correct runs stay
# below 1 (the three benchmark plants and decoupled runs with |K_i| = 373);
# a 1e-9 edit of one planned correction is far above.
TRANSITION_ROUNDOFF = 16.0
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _csv_header(schema: str, n_columns: int, n_rows: int) -> str:
    return f"# schema={schema} columns={n_columns} rows={n_rows}"


def _write_csv(path: Path, schema: str, columns, rows: np.ndarray) -> None:
    """Write the header lines, then the rows exactly as
    `np.savetxt(fh, rows, fmt="%.17g", delimiter=",")` would: the cells are
    Python floats, formatted by the same CPython conversion."""
    row_format = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with path.open("w") as fh:
        fh.write(_csv_header(schema, len(columns), rows.shape[0]) + "\n")
        fh.write(",".join(columns) + "\n")
        # One `%`-format per chunk of rows, streamed: no text of the whole
        # block, only of one chunk.
        for start in range(0, rows.shape[0], _CSV_CHUNK_ROWS):
            chunk = rows[start:start + _CSV_CHUNK_ROWS]
            fh.write((row_format * chunk.shape[0])
                     % tuple(chunk.ravel().tolist()))


def _read_csv(path: Path, schema: str, columns: tuple) -> np.ndarray:
    """Parse a CSV that `_write_csv` wrote with these columns.  Its header
    and names must be what `_write_csv` writes for the parsed block, and its
    last row must end in a newline, so a torn or foreign file raises
    ConfigInvalid."""
    try:
        with path.open("rb") as fh:
            header = fh.readline().decode()
            names = fh.readline().decode().rstrip("\n").split(",")
            with warnings.catch_warnings():
                # A block of no rows is valid; loadtxt warns about it.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                raise ValueError("the last row is cut short")
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read {path.name}: {exc}") from exc
    if rows.size == 0:
        rows = rows.reshape(0, len(columns))
    expected = _csv_header(schema, len(columns), rows.shape[0])
    if header != expected + "\n" or rows.shape[1] != len(columns):
        raise ConfigInvalid(
            f"cannot read {path.name}: header {header.rstrip()!r} does not "
            f"describe its {rows.shape[0]} rows of {rows.shape[1]} values "
            f"(expected {expected!r})")
    if tuple(names) != tuple(columns):
        raise ConfigInvalid(f"cannot read {path.name}: its column names are "
                            f"not the {len(columns)} of this archive version")
    return rows


def write_design(bundle: DesignBundle, out_dir) -> Path:
    """Write model.json, config.json, design.json and certificate.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    design = to_json(bundle)
    for name, data in (("model.json", design.pop("model")),
                       ("config.json", design.pop("config")),
                       ("certificate.json", design.pop("report")),
                       ("design.json", design)):
        (out / name).write_text(json.dumps(data, indent=1))
    return out


def _record_blocks(bundle: DesignBundle) -> tuple:
    """(file, schema, stored columns) of the fast and the slow records."""
    model = bundle.model
    return (("fast.csv", FAST_SCHEMA, fast_columns(model.n_inputs)),
            ("slow.csv", SLOW_SCHEMA,
             slow_columns(model.n_states, bundle.reduced.n_states,
                          model.n_inputs, bundle.config.horizon)))


def write_archive(archive: TraceArchive, bundle: DesignBundle, out_dir) -> Path:
    """Write the run's archive.  The bundle must be the run's design: a run
    config that differs from `bundle.config` in any field but
    `n_slow_steps` raises ConfigInvalid naming the fields."""
    check_same_design(archive.config, bundle)
    out = write_design(replace(bundle, config=archive.config), out_dir)
    for (name, schema, columns), rows in zip(_record_blocks(bundle),
                                             (archive.fast, archive.slow)):
        _write_csv(out / name, schema, columns, rows)
    meta = {
        "archive_version": ARCHIVE_VERSION,
        "package_version": __version__,
        "config_sha256": config_digest(archive.config),
        "wall_clock_s": archive.wall_clock,
        "created_unix": time.time(),
        "final_state": to_json(archive.final_state),
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=1))
    return out


def _final_state(metadata: dict, n_states: int) -> np.ndarray:
    value = metadata.get("final_state")
    try:
        state = from_json(np.ndarray, value)
    except ConfigInvalid:
        state = None
    if state is None or state.shape != (n_states,) \
            or not np.all(np.isfinite(state)):
        raise ConfigInvalid(f"cannot read metadata.json: final_state must be "
                            f"{n_states} finite numbers, got "
                            f"{reprlib.repr(value)}")
    return state


def _check_sizes(bundle: DesignBundle) -> None:
    """The sizes that tie design.json and certificate.json to the model and
    the reduction; each constructor has checked the sizes within itself."""
    model, reduced, radii = bundle.model, bundle.reduced, bundle.radii
    n_red, M = reduced.n_states, model.n_subsystems
    for name, field, shape, expected in (
            ("design.json", "reduced.orders", (len(reduced.orders),), (M,)),
            ("design.json", "reduced.B", reduced.B.shape,
             (n_red, model.n_inputs)),
            ("design.json", "reduced.beta", reduced.beta.shape,
             (n_red, model.n_states)),
            ("design.json", "hl.slow.B", bundle.hl.slow.B.shape,
             (n_red, model.n_inputs)),
            ("design.json", "ll_gain.blocks",
             tuple(K_i.shape for K_i in bundle.ll_gain.blocks),
             tuple((sub.n_inputs, sub.n_states) for sub in model.subsystems)),
            ("certificate.json", "radii.rho_delta_u_hat",
             radii.rho_delta_u_hat.shape, (M,)),
            ("certificate.json", "radii.rho_u_bar", radii.rho_u_bar.shape,
             (M,))):
        if shape != expected:
            raise ConfigInvalid(f"cannot read {name}: {field} has shape "
                                f"{shape}, expected {expected}")


def load_archive(path) -> TraceArchive:
    """Read an archive; a file that cannot be read or does not fit the
    others raises ConfigInvalid naming the file."""
    root = Path(path)

    def read(name):
        try:
            data = json.loads((root / name).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"cannot read {name}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid(f"cannot read {name}: expected an object, "
                                f"got {reprlib.repr(data)}")
        return data

    def decode(name, cls, **parts):
        data = {**read(name), **parts}
        try:
            return from_json(cls, data)
        except HierMPCError as exc:
            raise ConfigInvalid(f"cannot read {name}: {exc}") from exc

    metadata = read("metadata.json")
    version = metadata.get("archive_version")
    if version != ARCHIVE_VERSION:
        raise ConfigInvalid(f"{root}: archive_version {version!r} cannot be "
                            f"read; this package reads version {ARCHIVE_VERSION}")
    bundle = decode("design.json", DesignBundle,
                    config=decode("config.json", RunConfig),
                    model=decode("model.json", InterconnectedModel),
                    report=decode("certificate.json", CertificateReport))
    _check_sizes(bundle)
    fast, slow = (_read_csv(root / name, schema, columns)
                  for name, schema, columns in _record_blocks(bundle))
    return TraceArchive(bundle.config, bundle, fast, slow,
                        _final_state(metadata, bundle.model.n_states), metadata)


def archive_digest(path) -> str:
    """sha256 over every deterministic archive file and the final state;
    of metadata.json, which also records wall-clock times, only the final
    state is covered."""
    root = Path(path)
    digest = hashlib.sha256()
    for name in _DETERMINISTIC_FILES:
        digest.update(name.encode())
        digest.update((root / name).read_bytes())
    metadata = json.loads((root / "metadata.json").read_text())
    digest.update(b"final_state")
    digest.update(json.dumps(metadata["final_state"]).encode())
    return digest.hexdigest()


# ------------------------------------------------------------- verification

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'check':<{width}}  {'worst':>13}  {'threshold':>13}  result"]
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<{width}}  {c.worst:>13.6e}  "
                         f"{c.threshold:>13.6e}  {verdict}"
                         + (f"  ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


def _used(label: str, norms: np.ndarray, bound) -> str:
    """The detail of a bound check: the largest fraction of its bound (one
    per column of `norms`) a norm used.  A bound of 0, as the decoupled
    plant's rho_w and point tube, reads inf for any nonzero norm, and a NaN
    norm reads nan."""
    used = np.max(np.where(norms == 0, 0.0, norms / bound))
    return f"{label}: {used:.6g}"


def _tail_envelope(x_norms: np.ndarray, pow_norms: np.ndarray,
                   forcing: np.ndarray) -> tuple[float, float, str]:
    """The `tail_envelope` check on the state norms at the slow ticks 0..K,
    the norms of the lifted closed loop's powers 0..K and the forcing of
    slow steps 0..K-1: the envelope env_k = p_k |x_0| + sum_{j<k} p_{k-1-j}
    f_j, whose sum is the convolution (p * f)_{k-1}.  Returns the worst gap
    |x_k| - env_k, the smallest relative slack -gap / env over k >= 1 and
    the detail; an envelope that is not finite gives the gap inf, at the
    first k where it is not."""
    env = pow_norms * x_norms[0]
    env[1:] += np.convolve(pow_norms, forcing)[:forcing.size]
    bad = np.flatnonzero(~np.isfinite(env))
    if bad.size:
        return np.inf, np.nan, f"the envelope is not finite at k = {bad[0]}"
    gaps = x_norms - env
    slack = float(np.min(-gaps[1:] / env[1:]))
    return float(np.max(gaps)), slack, (
        f"state norm minus envelope; smallest relative slack over k >= 1: "
        f"{slack:.6g}")


@np.errstate(all="ignore")
def verify_archive(path) -> VerifyReport:
    """Re-check every runtime invariant of a stored run from first
    principles: nothing recorded is trusted except the states, the two
    layers' decisions and the design constants, all of which are
    recomputed against each other.

    The convergence checks (nominal settling, norm-tail envelope) hold for
    runs of the certified scenario length; archives cut short before the
    nominal settles fail `nominal_convergence` by construction.  A damaged
    archive can overflow the re-derivations: numpy's floating-point
    warnings are off here, and a NaN or inf worst fails its check by
    name."""
    arc = load_archive(path)
    bundle, cfg = arc.bundle, arc.config
    model = bundle.model
    n, m, M = model.n_states, model.n_inputs, model.n_subsystems
    N, n_red = cfg.period, bundle.reduced.n_states
    checks = []

    def add(name, worst, threshold, detail="", larger_ok=False):
        ok = worst >= threshold if larger_ok else worst <= threshold
        checks.append(CheckResult(name, bool(ok), float(worst),
                                  float(threshold), detail))

    # Record counts against the configured horizons.
    count_err = abs(arc.fast.shape[0] - cfg.n_slow_steps * N) \
        + abs(arc.slow.shape[0] - cfg.n_slow_steps)
    add("record_counts", count_err, 0, f"{arc.fast.shape[0]} fast, "
        f"{arc.slow.shape[0]} slow rows")

    # Stored hash vs the loaded config.
    hash_ok = arc.metadata.get("config_sha256") == config_digest(cfg)
    add("config_hash", 0.0 if hash_ok else 1.0, 0)
    if count_err:
        # The other checks align the records by slow step.
        return VerifyReport(tuple(checks))

    # The states are stored once, at the slow ticks; the held input ubar =
    # useq0 + K (beta x - xnom) is derived by the tube law, with the
    # projections and the slow predictions (`slow_prediction`); fast.csv
    # stores the correction layer's plan duhat, read here step-major:
    # duhat[j] holds fast step j of every period.
    K_steps, A, B = cfg.n_slow_steps, model.A, model.B
    proj, ubar, x_bar_pred = arc.slow_prediction
    useq0, xnom = arc.slow_block("useq0_", m), arc.slow_block("xnom", n_red)
    duhat = arc.plan_steps
    xk = arc.ticks

    # The run starts from the configured state.
    x0_err = np.abs(xk[0] - start_state(model, cfg))
    add("initial_state", float(np.max(x0_err)), 0)

    # Each period rebuilt from its tick's state (`harness.periods`, the
    # rollout the archive's fast records come from), one step past the
    # period for the terminal check below.
    xhat, dxhat, x, du = arc.rollout
    u = (ubar + du).reshape(-1, m)

    # Each period's closed loop must end on the next tick's stored state, up
    # to the rounding of the two ways of computing it.  The magnitude
    # rollout T+ = |A| (T + |x|) + |B| (|ubar| + |du| + |duhat|
    # + |K| (|x| + |xhat| + |dxhat|)), from 0, bounds the size of the terms
    # the closed loop summed, so each residual is compared with eps times
    # T_N + |x+|, at most TRANSITION_ROUNDOFF times.  The held input is the
    # tube law's, which the loop and the archive round each their own way,
    # so |ubar| counts the law's terms too: |useq0| + |K_slow| (|beta x|
    # + |xnom|).
    abs_A, abs_B = np.abs(A.T), np.abs(B.T)
    abs_K = np.abs(bundle.ll_gain.K.T)
    abs_ubar = np.abs(ubar) + np.abs(useq0) + (
        np.abs(proj[:-1]) + np.abs(xnom)) @ np.abs(bundle.hl.gain.K.T)
    T_N = np.zeros((K_steps, n))
    for j in range(N):
        ax = np.abs(x[j])
        T_N = (T_N + ax) @ abs_A + (
            abs_ubar + np.abs(du[j]) + np.abs(duhat[j])
            + (ax + np.abs(xhat[j]) + np.abs(dxhat[j])) @ abs_K) @ abs_B
    residual = np.abs(x[N] - xk[1:])
    ratio = np.max(residual / (_EPS * (T_N + np.abs(xk[1:])) + _TINY), axis=1)
    worst = int(np.argmax(ratio))
    add("transition_residual", float(ratio[worst]), TRANSITION_ROUNDOFF,
        f"max |residual|: {np.max(residual):.6g}, ratio {ratio[worst]:.6g}, "
        f"worst at slow step {worst}")

    # Hard input limits.
    rho_u, u_norms = model.input_radii(), input_norms(model, u)
    add("input_limits", float(np.min(rho_u - u_norms)), -1e-9, larger_ok=True,
        detail=_used("max |u_i| / rho_u_i", u_norms, rho_u))

    # Planned corrections inside their allocated budgets.
    budgets = bundle.radii.rho_delta_u_hat
    duhat_norms = input_norms(model, arc.fast)
    add("correction_budgets", float(np.max(duhat_norms - budgets)), 1e-8,
        detail=_used("max |duhat_i| / budget_i", duhat_norms, budgets))

    # Each plan's projected terminal deviation lands on the slow layer's
    # prediction gap: beta_i dxhat_N = x_bar_pred_i - beta_i xhat_N, with the
    # projections beta x of the slow boundary states (what the slow layer
    # solved from at each tick) and its prediction of the next one.
    reduced, hl, slow = bundle.reduced, bundle.hl, bundle.hl.slow
    # np.max keeps a NaN miss, which fails the check.
    misses = []
    for i in range(M):
        si, beta_i = model.state_slice(i), reduced.beta_block(i, model)
        gap = x_bar_pred[:, reduced.block_slice(i)] - xhat[N, :, si] @ beta_i.T
        misses.append(np.max(np.abs(dxhat[N, :, si] @ beta_i.T - gap)))
    # Absolute: the miss is the terminal equality's rounding, ~5e-16 |x_0|.
    add("ll_terminal", float(np.max(misses)), 1e-9)

    # Slow-step disturbance: the next projection less its prediction.
    w_norms = np.linalg.norm(arc.slow_block("wbar", n_red), axis=1)
    add("disturbance_bound", float(np.max(w_norms)),
        bundle.report.rho_w + 1e-12,
        detail=_used("max |wbar| / rho_w", w_norms, bundle.report.rho_w))

    # Tube containment of the projection at every slow tick.
    tube_err = np.linalg.norm(proj[:-1] - xnom, axis=1)
    radius = hl.tube.ball.radius
    add("tube_containment", float(np.max(tube_err)), radius + 1e-7,
        detail=_used("max error / tube radius", tube_err, radius))

    # The slow layer's plan, rolled over the horizon from the nominal under
    # its inputs: its inputs lie in the tightened ball, its last state in
    # the terminal set, and its cost is the stored objective as
    # `highlevel.tube_qp` defines it, the stage and terminal costs plus
    # 0.5e-10 |z|^2 over the decision vector z, each to 1e-9 relative.
    horizon = cfg.horizon
    useq = arc.slow_block("useq0_", horizon * m)
    useq = useq.reshape(K_steps, horizon, m).transpose(1, 0, 2)
    plan = rollouts(slow.A, xnom, useq @ slow.B.T)
    Q, R = slow_weights(cfg, n_red, m)
    P, level = hl.terminal.shape, hl.terminal.level
    x_end = plan[horizon]
    end_form = np.sum((x_end @ P) * x_end, axis=1)
    cost = (np.sum((plan[:horizon] @ Q) * plan[:horizon], axis=(0, 2))
            + np.sum((useq @ R) * useq, axis=(0, 2)) + end_form
            + 0.5e-10 * (np.sum(plan * plan, axis=(0, 2))
                         + np.sum(useq * useq, axis=(0, 2))))
    objective = arc.slow[:, arc.slow_cols.index("objective")]
    in_radius = hl.input_tight.radius
    parts = np.column_stack([
        np.maximum(np.max(np.linalg.norm(useq, axis=2), axis=0) - in_radius,
                   0.0) / in_radius,
        np.maximum(end_form - level, 0.0) / level,
        np.abs(objective - cost) / (np.abs(cost) + _TINY)])
    per_tick = np.max(parts, axis=1)
    worst = int(np.argmax(per_tick))
    add("nominal_plan", float(per_tick[worst]), 1e-9,
        "relative excess of inputs {:.3g}, terminal {:.3g}, objective {:.3g}; "
        "worst at slow step {}".format(*np.max(parts, axis=0), worst))

    # Nominal convergence to the origin within the run.  Meaningful for
    # archives covering the certified scenario length; an exploratory run cut
    # short before the nominal settles reports this as a failure.
    nom_norms = np.linalg.norm(xnom, axis=1)
    hit = np.flatnonzero(nom_norms <= 1e-6)
    detail = f"reached at slow step {hit[0]}" if hit.size else "never reached"
    add("nominal_convergence", float(np.min(nom_norms)), 1e-6, detail)

    # Closed-loop norm-tail envelope at the slow boundaries: the lifted
    # closed loop, rebuilt from the model and the slow gain as `design_gain`
    # builds it (`lti.lifted_closed_loop`), forced by the nominal feedforward
    # and the certified correction radius.
    K = bundle.hl.gain.K
    B_lift = lifted_input_matrix(A, B, N)
    F = lifted_closed_loop(A, B, K, reduced.beta, N)
    # A damaged model or gain can make the powers overflow, where the SVD
    # does not converge: such a power's norm is inf, which fails the check.
    powers = matrix_powers(F, K_steps)
    finite = np.isfinite(powers).all(axis=(1, 2))
    pow_norms = np.full(K_steps + 1, np.inf)
    pow_norms[finite] = spectral_norms(powers[finite])
    forcing = np.linalg.norm(
        (useq[0] - xnom @ K.T) @ B_lift.T, axis=1) \
        + bundle.report.rho_x
    # At k = 0 the envelope is exactly |x_0|, so the worst gap is never below
    # 0; how close the run came is the relative slack over the later steps.
    worst_gap, _, detail = _tail_envelope(np.linalg.norm(xk, axis=1),
                                          pow_norms, forcing)
    add("tail_envelope", worst_gap, 1e-9, detail)

    return VerifyReport(tuple(checks))
