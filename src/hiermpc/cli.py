"""Command-line interface.

Subcommands:
    design    run the offline checklist and write design + certificate files
    analyze   print the certificate-constant table, optionally over a
              slow-period sweep
    tune      run the input-budget allocation program and print the radii
    simulate  run the closed loop and write a trace archive
    verify    re-check every runtime invariant on a stored archive

The plant is the two-apartment benchmark, either the shipped geometry or
one loaded from the config file (JSON with optional "run" and "building"
sections).  Output directory: --out, else HIERMPC_OUT_DIR, else
./hiermpc_out.  Exit codes: 0 all checks pass, 1 certificate or invariant
failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import interaction_matrix, sweep_constants
from .errors import DesignIncomplete, HierMPCError
from .harness import certify, config_from_dict, design_pipeline, run_closed_loop
from .thermal import build_thermal_model, building_from_dict, default_building
from .trace import verify_archive, write_archive, write_design


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiermpc",
        description="two-rate hierarchical MPC benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with 'run' and 'building' sections")
        p.add_argument("--decoupled", action="store_true",
                       help="remove the cross-apartment wall")

    p = sub.add_parser("design", help="run the offline checklist")
    common(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("analyze", help="print the certificate table")
    common(p)
    p.add_argument("--sweep-NL", dest="sweep",
                   help="comma-separated slow periods, e.g. 5,10,20,40")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("tune", help="input-budget allocation program")
    common(p)
    p.add_argument("--gamma1", type=float, help="correction-radius weight")
    p.add_argument("--gamma2", type=float, help="held-radius weight")
    p.set_defaults(handler=_cmd_tune)

    p = sub.add_parser("simulate", help="closed-loop run, writes a trace archive")
    common(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="re-check invariants on an archive")
    p.add_argument("archive", help="archive directory written by simulate")
    p.set_defaults(handler=_cmd_verify)
    return parser


def _load_setup(args):
    data = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise _UsageError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(data) - {"run", "building"}
        if unknown:
            raise _UsageError(f"unknown config sections: {sorted(unknown)}")
    cfg = config_from_dict(data.get("run", {}))
    if args.decoupled:
        cfg = dataclasses.replace(cfg, decoupled=True)
    if "building" in data:
        building = building_from_dict(data["building"])
        if cfg.decoupled:
            building = dataclasses.replace(building, shared_walls=())
    else:
        building = default_building(cfg.decoupled)
    return cfg, building, build_thermal_model(building)


def _out_dir(args) -> Path:
    explicit = getattr(args, "out", None)
    return Path(explicit or os.environ.get("HIERMPC_OUT_DIR", "hiermpc_out"))


def _print_rows(rows):
    name_w = max(len(r[0]) for r in rows)
    val_w = max(len(r[1]) for r in rows)
    thr_w = max(len(r[2]) for r in rows)
    print(f"{'constant':<{name_w}}  {'value':>{val_w}}  {'threshold':<{thr_w}}  result")
    for name, value, threshold, ok in rows:
        verdict = "-" if ok is None else ("pass" if ok else "FAIL")
        print(f"{name:<{name_w}}  {value:>{val_w}}  {threshold:<{thr_w}}  {verdict}")


def _report_rows(report, x0_norm):
    g = lambda v: f"{v:.6g}"
    rows = [
        ("open-loop contraction |A^N|", g(report.al_power_norm), "< 1",
         report.clauses["open_loop_contraction"]),
        ("input-response mismatch kappa", g(report.kappa),
         f"<= {report.kappa_bound:.6g} (series bound)",
         report.kappa <= report.kappa_bound),
        ("projected reachability min sigma", g(float(np.min(report.sigma))),
         "> 1e-12", report.clauses["projected_reachability"]),
        ("small-gain margin (min)",
         g(float(np.min(np.sqrt(report.period) * report.sigma
                        * report.radii.rho_delta_u_hat
                        - report.kappa * report.radii.rho_u_bar_outer))),
         "> 0", report.clauses["small_gain_strict"]),
        ("leakage contraction max chi", g(float(np.max(report.chi))), "<= 1",
         report.clauses["leakage_contraction"]),
        ("input budget inclusion", "satisfied" if
         report.clauses["budget_inclusion"] else "violated", "per subsystem",
         report.clauses["budget_inclusion"]),
        ("feasible-start radius min lambda",
         g(float(np.min(report.lambda_margins))), f">= |x0| = {x0_norm:.6g}",
         report.x0_bound_ok),
        ("slow disturbance radius rho_w", g(report.rho_w), "(constant)", None),
        ("state increment radius rho_x", g(report.rho_x), "(constant)", None),
        ("projection defect norm", g(report.defect_norm), "(constant)", None),
    ]
    return rows


def _cmd_design(args) -> int:
    cfg, _, model = _load_setup(args)
    bundle = design_pipeline(model, cfg)
    out = write_design(bundle, _out_dir(args))
    print(f"design complete: reduction, slow gain ({bundle.hl.gain.rounds} "
          f"round(s)), fast gain ({bundle.ll_gain.rounds} round(s)), radii, "
          f"certificate, disturbance set, tube, terminal cost and set")
    print(f"files written to {out}")
    x0_norm = float(np.linalg.norm(cfg.x0))
    _print_rows(_report_rows(bundle.report, x0_norm))
    ok = bundle.report.assumptions_ok and bundle.report.x0_bound_ok is not False
    return 0 if ok else 1


def _parse_periods(text: str) -> list[int]:
    try:
        periods = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise _UsageError(f"bad --sweep-NL list: {text!r}") from exc
    if len(periods) < 2 or any(p < 2 for p in periods):
        raise _UsageError("--sweep-NL needs at least two periods >= 2")
    return periods


def _cmd_analyze(args) -> int:
    periods = _parse_periods(args.sweep) if args.sweep else None
    cfg, _, model = _load_setup(args)
    reduced, ll_gain, report, _ = certify(model, cfg)
    _print_rows(_report_rows(report, float(np.linalg.norm(cfg.x0))))
    ok = report.assumptions_ok and report.x0_bound_ok is not False

    if periods is not None:
        reports = sweep_constants(model, reduced, lambda _n: ll_gain,
                                  report.radii, periods)
        print("\nslow-period sweep (radii held fixed)")
        print(f"{'N':>4}  {'|A^N|':>12}  {'kappa':>12}  {'series bound':>12}  "
              f"{'min lambda':>12}  {'max chi':>12}")
        for rep in reports:
            print(f"{rep.period:>4}  {rep.al_power_norm:>12.6g}  "
                  f"{rep.kappa:>12.6g}  {rep.kappa_bound:>12.6g}  "
                  f"{float(np.min(rep.lambda_margins)):>12.6g}  "
                  f"{float(np.max(rep.chi)):>12.6g}")
        lam = [float(np.min(r.lambda_margins)) for r in reports]
        chi = [float(np.max(r.chi)) for r in reports]
        aln = [r.al_power_norm for r in reports]
        mono = (all(b > a for a, b in zip(lam, lam[1:]))
                and all(b < a for a, b in zip(chi, chi[1:]))
                and all(b < a for a, b in zip(aln, aln[1:]))
                and all(r.kappa <= r.kappa_bound for r in reports))
        print(f"monotonicity: {'pass' if mono else 'FAIL'} "
              "(lambda up, chi down, |A^N| down, kappa under bound)")
        ok = ok and mono
    return 0 if ok else 1


def _cmd_tune(args) -> int:
    cfg, _, model = _load_setup(args)
    cfg = dataclasses.replace(cfg, **{
        name: getattr(args, name) for name in ("gamma1", "gamma2")
        if getattr(args, name) is not None})
    _, ll_gain, report, tables = certify(model, cfg)
    alloc = report.radii
    lam_mat = interaction_matrix(model, ll_gain, cfg.period, tables=tables)
    strict = alloc.rho_delta_u_hat \
        - (report.kappa / (np.sqrt(cfg.period) * report.sigma)) \
        * np.sum(alloc.rho_u_bar)
    budget = model.input_radii() - (
        (np.eye(model.n_subsystems) + lam_mat) @ alloc.rho_delta_u_hat
        + alloc.rho_u_bar)
    print(f"allocation (gamma1={cfg.gamma1:g}, gamma2={cfg.gamma2:g}, "
          f"floor={cfg.u_bar_floor:g}, objective={alloc.objective:.6g})")
    print(f"{'subsystem':>9}  {'correction':>12}  {'held':>12}  "
          f"{'strict slack':>13}  {'budget slack':>13}")
    for i in range(model.n_subsystems):
        print(f"{i:>9}  {alloc.rho_delta_u_hat[i]:>12.6g}  "
              f"{alloc.rho_u_bar[i]:>12.6g}  {strict[i]:>13.6g}  "
              f"{budget[i]:>13.6g}")
    ok = bool(np.min(strict) >= 1e-9 and np.min(budget) >= 1e-9)
    print(f"re-substitution: {'pass' if ok else 'FAIL'} (both rows, slack >= 1e-9)")
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    cfg, _, model = _load_setup(args)
    bundle = design_pipeline(model, cfg)
    archive = run_closed_loop(model, cfg, bundle)
    out = write_archive(archive, bundle, _out_dir(args))
    x0_norm = float(np.linalg.norm(np.asarray(cfg.x0)))
    final = float(np.linalg.norm(archive.final_state))
    w_max = float(np.max(np.linalg.norm(
        archive.slow_block("wbar", bundle.reduced.n_states), axis=1)))
    print(f"simulated {cfg.n_slow_steps} slow steps x {cfg.period} fast steps "
          f"in {archive.wall_clock:.2f} s")
    print(f"|x|: {x0_norm:.6g} -> {final:.6g}; max |w_bar| = {w_max:.6g} "
          f"(bound {bundle.report.rho_w:.6g})")
    print(f"archive written to {out}")
    return 0


def _cmd_verify(args) -> int:
    root = Path(args.archive)
    if not root.is_dir():
        raise _UsageError(f"archive directory not found: {root}")
    report = verify_archive(root)
    print(report.table())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DesignIncomplete as exc:
        print(f"design incomplete: {exc}", file=sys.stderr)
        return 1
    except HierMPCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
