"""Closed-loop benchmark of the two-rate controller.

    python3 perfbench/run.py --workload coupled_n20 --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
Each run is one process.  It drives the public API as the README walkthrough
does (build_thermal_model -> design_pipeline -> run_closed_loop ->
write_archive -> verify_archive) over and over for `--seconds`, one pipeline
at a time (a closed loop with a single client), and checks every output.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced pipelines with pipelines traced through `layers.hooks`
and reports the per-layer metrics: layer times are medians of raw wall time
over the traced pipelines, and the tracing overhead is traced minus untraced
`loop_s`, in reference seconds.

Times are in reference seconds (see `speed`): wall time scaled by the speed
of a fixed kernel run between the timed phases, so that the load of a shared
host does not move them.  Each reported time is the median over the run's
samples; the lines before the result also give the highest percentile with
ten samples beyond it, the sample count and the median raw wall time.

Correctness: a pipeline fails if it raises DesignIncomplete, InfeasibleHL or
InfeasibleLL, if `verify_archive` does not pass, or if its archive digest
differs from that of the other pipelines of the run.  Once per run the same
workload also goes through `hiermpc simulate` and `hiermpc verify`, called
in-process through `cli.main`; it must exit 0 and reproduce the digest.
Failed pipelines count against those attempted and are never skipped.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each timing's sample count and tail percentile, and the machine.
"""
from __future__ import annotations

import os

# Small dense matrices: a second BLAS thread only adds synchronisation and
# noise.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import layers
import speed
import workloads

PHASES = ("setup_s", "loop_s", "write_s", "verify_s")
# Tail percentiles need this many samples beyond them.
TAIL_SAMPLES = 10
# Design and write are short next to the loop, and single writes vary by a
# sixth from one to the next; repeat both within each pipeline so their
# medians rest on more samples.
REPEATS = 3


def machine_details() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {pkg.__name__: _openblas_threads(pkg)
                         for pkg in (numpy, scipy)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _openblas_threads(package):
    """Thread count of the OpenBLAS a numpy or scipy wheel bundles, if any."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_pipeline(wl, out: Path, tracer=None, repeats: int = 1) -> dict:
    """One design-to-verify pass, design and write made `repeats` times;
    returns the phase times (a `speed.Clock`), digest and verdict."""
    from hiermpc import harness, thermal, trace

    span = tracer.span if tracer else (lambda _name: nullcontext())
    clock = speed.Clock()
    for _ in range(repeats):
        with clock.segment("setup_s"):
            with span("thermal.build_thermal_model"):
                model = thermal.build_thermal_model(wl.building)
            with span("harness.design_pipeline"):
                bundle = harness.design_pipeline(model, wl.cfg)
    with clock.segment("loop_s"), span("harness.run_closed_loop"):
        archive = harness.run_closed_loop(model, wl.cfg, bundle)
    for k in range(repeats):
        with clock.segment("write_s"), span("trace.write_archive"):
            written = trace.write_archive(archive, bundle, out / f"archive{k}")
    with clock.segment("verify_s"), span("trace.verify_archive"):
        report = trace.verify_archive(written)
    failing = [c.name for c in report.checks if not c.passed]
    if failing and tracer:
        tracer.counts["trace.verify_archive.failed"] += 1
    return {
        "clock": clock,
        "digest": trace.archive_digest(written),
        # metadata.json holds wall-clock times; the rest is deterministic.
        "archive_bytes": sum(p.stat().st_size for p in written.iterdir()
                             if p.name != "metadata.json"),
        "failing": failing,
    }


def cli_check(wl, scratch: Path) -> tuple:
    """`hiermpc simulate` then `hiermpc verify` through cli.main; returns
    (archive digest or None, problem or None)."""
    from hiermpc import cli, trace

    config = scratch / "config.json"
    config.write_text(json.dumps(wl.config))
    out = scratch / "cli_archive"
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        if code == 0:
            code = cli.main(["verify", str(out)])
    if code != 0:
        return None, f"cli exited {code}:\n{log.getvalue()}"
    digest = trace.archive_digest(out)
    shutil.rmtree(out)
    return digest, None


class Run:
    """Attempts, failures and the reference digest of one benchmark run."""

    def __init__(self, wl, scratch: Path):
        self.wl = wl
        self.scratch = scratch
        self.attempted = 0
        self.problems = []
        self.digest, problem = cli_check(wl, scratch)
        self.attempted += 1
        if problem:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def attempt(self, tracer=None, repeats: int = 1):
        """One pipeline; returns its record, or None if it failed."""
        from hiermpc.errors import DesignIncomplete, InfeasibleHL, InfeasibleLL

        out = self.scratch / "pipeline"
        gc.collect()
        self.attempted += 1
        try:
            rec = run_pipeline(self.wl, out, tracer, repeats)
        except (DesignIncomplete, InfeasibleHL, InfeasibleLL) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if rec["failing"]:
            self.problems.append(f"verify failed: {rec['failing']}")
            return None
        self.digest = self.digest or rec["digest"]
        if rec["digest"] != self.digest:
            self.problems.append(f"archive digest {rec['digest']} differs from "
                                 f"{self.digest}")
            return None
        return rec


def describe(values) -> str:
    """Median and the highest percentile with TAIL_SAMPLES samples beyond it."""
    text = f"median {statistics.median(values):.6g} (n={len(values)}"
    n_below = len(values) - TAIL_SAMPLES
    if n_below >= 1:
        pct = 100 * n_below // len(values)
        text += f", p{pct} {sorted(values)[n_below - 1]:.6g}"
    return text + ")"


def measure_end_to_end(run: Run, seconds: float) -> dict:
    samples = {name: [] for name in PHASES + ("total_s",)}
    raw = {name: [] for name in PHASES + ("total_s",)}
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not (samples["loop_s"] or run.failed):
        rec = run.attempt(repeats=REPEATS)
        if rec is None:
            continue
        for times, clock_times in ((samples, rec["clock"].scaled),
                                   (raw, rec["clock"].raw)):
            for name in PHASES:
                times[name].extend(clock_times[name])
            times["total_s"].append(sum(statistics.median(clock_times[name])
                                        for name in PHASES))
    for name, values in samples.items():
        if values:
            print(f"{name}: {describe(values)} reference s; "
                  f"raw wall median {statistics.median(raw[name]):.6g} s")
    metrics = {name: (statistics.median(values) if values else None, "s")
               for name, values in samples.items()}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    return metrics


def measure_layers(run: Run, seconds: float) -> dict:
    untraced_loop, traced_loop, traced = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not (traced and untraced_loop
                                             or run.failed):
        rec = run.attempt()
        if rec is not None:
            untraced_loop.append(rec["clock"].scaled["loop_s"][0])
        tracer = layers.Tracer()
        with layers.hooks(tracer):
            rec = run.attempt(tracer)
        if rec is not None:
            tracer.counts["trace.archive_bytes"] = rec["archive_bytes"]
            traced.append(tracer)
            traced_loop.append(rec["clock"].scaled["loop_s"][0])
    if not traced:
        return {}

    count_keys = ("highlevel.solve_hl.calls", "highlevel.solve_hl.iters",
                  "lowlevel.solve_ll.calls", "lowlevel.solve_ll.iters",
                  "lowlevel.apply_correction.calls", "solver.solve_qp.calls",
                  "solver.solve_qp.iters", "solver.project.calls",
                  "solver.lu_factor.calls", "solver.solve_lp.calls",
                  "trace.archive_bytes")
    fail_keys = ("harness.design_pipeline.failed", "highlevel.solve_hl.failed",
                 "lowlevel.solve_ll.failed", "trace.verify_archive.failed")
    counts = [{key: t.counts[key] for key in count_keys} for t in traced]
    if any(c != counts[0] for c in counts):
        run.problems.append(f"layer counts differ between traced runs: {counts}")
    metrics = {key: (counts[0][key], "bytes" if key.endswith("bytes") else "count")
               for key in count_keys}
    for key in fail_keys:
        metrics[key] = (sum(t.counts[key] for t in traced), "count")

    def med(fn):
        return statistics.median(fn(t) for t in traced)

    for name in ("harness.run_closed_loop", "highlevel.solve_hl",
                 "lowlevel.solve_ll", "solver.solve_qp", "highlevel.design_gain",
                 "lowlevel.simulate_auxiliary", "lowlevel.apply_correction",
                 "lowlevel.design_ll_gain", "solver.solve_lp",
                 "analysis.certificate_constants", "analysis.tune_radii",
                 "sets.rpi_outer", "sets.terminal_set", "reduction.reduce_model",
                 "reduction.verify_reduction", "thermal.build_thermal_model",
                 "trace.write_archive", "trace.load_archive"):
        metrics[name + ".s"] = (med(lambda t: t.total[name]), "s")
    for name in ("harness.run_closed_loop", "highlevel.solve_hl",
                 "lowlevel.solve_ll", "trace.verify_archive"):
        metrics[name + ".self_s"] = (med(lambda t: t.self_time[name]), "s")
    ticks = [1e3 * s for t in traced for s in t.ticks]
    deciles = statistics.quantiles(ticks, n=10)
    metrics["harness.tick_compute_ms.p50"] = (statistics.median(ticks), "ms")
    metrics["harness.tick_compute_ms.p90"] = (deciles[8], "ms")
    metrics["bench.tracing_overhead.s"] = (
        statistics.median(traced_loop) - statistics.median(untraced_loop), "s")
    print(f"traced pipelines: {len(traced)}, untraced: {len(untraced_loop)}, "
          f"slow ticks: {len(ticks)}; tick compute ms: {describe(ticks)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    wl = workloads.load(args.workload, args.seed)
    print(json.dumps({"machine": machine_details()}))
    tmp_root = workloads.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        run = Run(wl, scratch)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"workload {wl.name} seed {wl.seed}: attempted {run.attempted}, "
          f"failed {run.failed}, archive digest {run.digest}")
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
