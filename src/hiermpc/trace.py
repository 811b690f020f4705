"""Trace archive persistence and post-hoc invariant verification.

An archive directory holds one CSV per rate (`fast.csv`, `slow.csv`), the
model, the run config, the design, the certificate, and a metadata file.
`fast.csv` stores the fast blocks of `harness.fast_columns`: the states
`x`, the planned corrections `duhat` and the applied corrections `du`.
Each value is stored once: the held input `ubar` is in `slow.csv` only, and
`verify_archive` repeats it over the period and rebuilds the plant input
`u` as ubar + du, the same float64 sum `run_closed_loop` computes.  The
in-memory `TraceArchive` also holds `u` and the input margins `margin`, a
function of `u` and the input limits, which are not stored.  The auxiliary
rollout `xhat` and the plan rollouts `dxhat` are recorded nowhere; the
`correction_law` and `ll_terminal` checks re-derive both.
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
the config; `metadata.json` records wall clock, the archive version (11),
the config's digest and the final state, and is the only file excluded
from the determinism digest.

`verify_archive` re-derives every runtime invariant from the recorded
data: state transitions against the model under the rebuilt input, input
limits, correction budgets, the fast correction law, each plan's terminal
hit on the slow layer's prediction (`ll_terminal`), the slow-step
disturbance bound, tube containment, nominal convergence, and the
closed-loop norm-tail envelope, whose lifted closed loop
`lti.lifted_closed_loop` rebuilds from the model and slow gain.
Each bound check (`input_limits`, `correction_budgets`, `disturbance_bound`,
`tube_containment`) says in its detail how much of its bound the run used.
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
                      check_same_design, column_block, config_digest,
                      fast_columns, slow_columns)
from .lti import (InterconnectedModel, lifted_closed_loop, lifted_input_matrix,
                  matrix_powers)
from .model_io import from_json, to_json

ARCHIVE_VERSION = 11
FAST_SCHEMA = "hiermpc.trace.fast.v4"
SLOW_SCHEMA = "hiermpc.trace.slow.v1"
_DETERMINISTIC_FILES = ("model.json", "config.json", "design.json",
                        "certificate.json", "fast.csv", "slow.csv")
# Rows formatted by one `%` in `_write_csv`: few enough that the text of a
# chunk stays small, enough that the per-chunk overhead does not count.
_CSV_CHUNK_ROWS = 256


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


def write_archive(archive: TraceArchive, bundle: DesignBundle, out_dir) -> Path:
    """Write the run's archive.  The bundle must be the run's design: a run
    config that differs from `bundle.config` in any field but
    `n_slow_steps` raises ConfigInvalid naming the fields."""
    check_same_design(archive.config, bundle)
    out = write_design(replace(bundle, config=archive.config), out_dir)
    columns = fast_columns(bundle.model.n_states, bundle.model.n_inputs)
    _write_csv(out / "fast.csv", FAST_SCHEMA, columns,
               archive.fast[:, :len(columns)])
    _write_csv(out / "slow.csv", SLOW_SCHEMA, archive.slow_cols, archive.slow)
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


@dataclass(frozen=True)
class LoadedArchive:
    bundle: DesignBundle
    fast_cols: tuple
    slow_cols: tuple
    fast: np.ndarray
    slow: np.ndarray
    metadata: dict
    final_state: np.ndarray


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


def load_archive(path) -> LoadedArchive:
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
    model = bundle.model
    fast_cols = fast_columns(model.n_states, model.n_inputs)
    slow_cols = slow_columns(bundle.reduced.n_states, model.n_inputs,
                             bundle.config.horizon)
    fast = _read_csv(root / "fast.csv", FAST_SCHEMA, fast_cols)
    slow = _read_csv(root / "slow.csv", SLOW_SCHEMA, slow_cols)
    return LoadedArchive(bundle, fast_cols, slow_cols, fast, slow,
                         metadata, _final_state(metadata, model.n_states))


def archive_digest(path) -> str:
    """sha256 over every deterministic archive file; excludes metadata.json."""
    root = Path(path)
    digest = hashlib.sha256()
    for name in _DETERMINISTIC_FILES:
        digest.update(name.encode())
        digest.update((root / name).read_bytes())
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


def _rollouts(A: np.ndarray, start: np.ndarray,
              forcing: np.ndarray) -> np.ndarray:
    """States 0..N of s+ = A s + forcing[:, j] from `start`, one rollout
    per slow step: start (K, n), forcing (K, N, n); returns (K, N + 1, n)."""
    K_steps, N, n = forcing.shape
    states = np.empty((K_steps, N + 1, n))
    states[:, 0] = start
    for j in range(1, N + 1):
        states[:, j] = states[:, j - 1] @ A.T + forcing[:, j - 1]
    return states


def _used(label: str, norms: np.ndarray, bound) -> str:
    """The detail of a bound check: the largest fraction of its bound (one
    per column of `norms`) a norm used.  A bound of 0, as the decoupled
    plant's rho_w and point tube, reads inf for any nonzero norm."""
    with np.errstate(divide="ignore", invalid="ignore"):
        used = np.max(np.where(norms > 0, norms / bound, 0.0))
    return f"{label}: {used:.6g}"


def verify_archive(path) -> VerifyReport:
    """Re-check every runtime invariant of a stored run from first
    principles: nothing recorded is trusted except the raw states, inputs
    and the design constants, all of which are recomputed against each
    other.

    The convergence checks (nominal settling, norm-tail envelope) hold for
    runs of the certified scenario length; archives cut short before the
    nominal settles fail `nominal_convergence` by construction."""
    arc = load_archive(path)
    bundle = arc.bundle
    cfg = bundle.config
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

    x = column_block(arc.fast_cols, arc.fast, "x", n)
    # The held input is stored once, per slow step; each fast step holds it,
    # and the plant input is the held input plus the applied correction.
    ubar_s = column_block(arc.slow_cols, arc.slow, "ubar", m)
    ubar_f = np.repeat(ubar_s, N, axis=0)
    du = column_block(arc.fast_cols, arc.fast, "du", m)
    duhat = column_block(arc.fast_cols, arc.fast, "duhat", m)
    u = ubar_f + du
    states_next = np.vstack([x[1:], arc.final_state[None, :]])

    # Every recorded transition must be reproduced by the model.
    residual = states_next - x @ model.A.T - u @ model.B.T
    add("transition_residual", float(np.max(np.abs(residual))), 1e-9)

    # Hard input limits.
    def subsystem_norms(v):
        return np.column_stack([np.linalg.norm(v[:, model.input_slice(i)],
                                               axis=1) for i in range(M)])
    rho_u, u_norms = model.input_radii(), subsystem_norms(u)
    add("input_limits", float(np.min(rho_u - u_norms)), -1e-9, larger_ok=True,
        detail=_used("max |u_i| / rho_u_i", u_norms, rho_u))

    # Planned corrections inside their allocated budgets.
    budgets, duhat_norms = bundle.radii.rho_delta_u_hat, subsystem_norms(duhat)
    add("correction_budgets", float(np.max(duhat_norms - budgets)), 1e-8,
        detail=_used("max |duhat_i| / budget_i", duhat_norms, budgets))

    # The fast correction law du = duhat + K_i (x - xhat - dxhat), with the
    # auxiliary rollout xhat (from each boundary state under the held input)
    # and each subsystem's plan rollout dxhat (of duhat, from 0) rebuilt here,
    # one step past the period for the terminal check below.
    K_steps = cfg.n_slow_steps
    xhat = _rollouts(model.A, x[::N],
                     (ubar_f @ model.B.T).reshape(K_steps, N, n))
    fast_xhat = xhat[:, :N].reshape(-1, n)
    reduced, slow = bundle.reduced, bundle.hl.slow
    xproj_rec = column_block(arc.slow_cols, arc.slow, "xproj", n_red)
    x_bar_pred = xproj_rec @ slow.A.T + ubar_s @ slow.B.T
    law = np.empty_like(du)
    terminal_miss = 0.0
    for i, (sub, K_i) in enumerate(zip(model.subsystems,
                                       bundle.ll_gain.blocks)):
        si, ui = model.state_slice(i), model.input_slice(i)
        dxhat = _rollouts(sub.A, np.zeros((K_steps, sub.n_states)),
                          (duhat[:, ui] @ sub.B.T).reshape(K_steps, N, -1))
        law[:, ui] = duhat[:, ui] + (
            x[:, si] - fast_xhat[:, si]
            - dxhat[:, :N].reshape(-1, sub.n_states)) @ K_i.T
        # Each plan's projected terminal deviation lands on the slow layer's
        # prediction gap: beta_i dxhat_N = x_bar_pred_i - beta_i xhat_N.
        beta_i = reduced.beta_block(i, model)
        gap = x_bar_pred[:, reduced.block_slice(i)] - xhat[:, N, si] @ beta_i.T
        terminal_miss = max(terminal_miss, float(np.max(np.abs(
            dxhat[:, N] @ beta_i.T - gap))))
    add("correction_law", float(np.max(np.abs(du - law))), 1e-12)
    add("ll_terminal", terminal_miss, 1e-9)

    # Slow-step disturbance: recompute from boundary states and held inputs.
    beta = reduced.beta
    xk = np.vstack([x[::N], arc.final_state[None, :]])  # slow boundary states
    proj = xk @ beta.T
    w_meas = proj[1:] - proj[:-1] @ slow.A.T - ubar_s @ slow.B.T
    w_rec = column_block(arc.slow_cols, arc.slow, "wbar", n_red)
    add("disturbance_record", float(np.max(np.abs(w_meas - w_rec))), 1e-9)
    w_norms = np.linalg.norm(w_meas, axis=1)
    add("disturbance_bound", float(np.max(w_norms)),
        bundle.report.rho_w + 1e-12,
        detail=_used("max |wbar| / rho_w", w_norms, bundle.report.rho_w))

    # Projection consistency and tube containment at every slow tick.
    add("projection_record", float(np.max(np.abs(proj[:-1] - xproj_rec))), 1e-12)
    xnom = column_block(arc.slow_cols, arc.slow, "xnom", n_red)
    tube_err = np.linalg.norm(xproj_rec - xnom, axis=1)
    radius = bundle.hl.tube.ball.radius
    add("tube_containment", float(np.max(tube_err)), radius + 1e-7,
        detail=_used("max error / tube radius", tube_err, radius))

    # Nominal plan internally consistent: xnext = A xnom + B useq[0].
    xnext = column_block(arc.slow_cols, arc.slow, "xnext", n_red)
    useq0 = column_block(arc.slow_cols, arc.slow, "useq0_", m)
    plan_res = xnext - xnom @ slow.A.T - useq0 @ slow.B.T
    add("nominal_plan_residual", float(np.max(np.abs(plan_res))), 1e-7)

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
    B_lift = lifted_input_matrix(model.A, model.B, N)
    F = lifted_closed_loop(model.A, model.B, K, beta, N)
    pow_norms = spectral_norms(matrix_powers(F, K_steps))
    forcing = np.linalg.norm(
        (useq0 - xnom @ K.T) @ B_lift.T, axis=1) \
        + bundle.report.rho_x
    # At k = 0 the envelope is exactly |x_0|, so the worst gap is never below
    # 0; how close the run came is the relative slack over the later steps.
    x0_norm = float(np.linalg.norm(xk[0]))
    worst_gap, slack = -np.inf, np.inf
    for k in range(K_steps + 1):
        env = pow_norms[k] * x0_norm
        if k:
            env += float(np.dot(pow_norms[k - 1::-1][:k], forcing[:k]))
        gap = float(np.linalg.norm(xk[k]) - env)
        worst_gap = max(worst_gap, gap)
        if k:
            slack = min(slack, float(-gap / env))
    add("tail_envelope", worst_gap, 1e-9,
        detail=f"state norm minus envelope; smallest relative slack over "
               f"k >= 1: {slack:.6g}")

    return VerifyReport(tuple(checks))
