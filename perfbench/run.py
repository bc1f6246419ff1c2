#!/usr/bin/env python3
"""Seeded benchmark of framerep's library and JSON CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-redundant --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list      # every metric by name, unit and direction

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  ``--trace 1`` prints the per-layer metrics: whole cycles of ops
alternate between untraced and traced, the traced ones with spans around
calls into framerep's public names (see tracing.py), and the difference
between the two is the tracing overhead.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import IO_PARSE, IO_WRITE, NUMPY_SVD, LayerStats, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Samples per window of the tail percentile (see ``tail``).
TAIL_WINDOW = 1000
#: Interpreter, import and CLI-cycle children per traced cli-json run.
STARTUP_REPEATS = 3

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

def import_framerep():
    """framerep from this checkout's src, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import framerep
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import framerep from {SRC}: {exc}")
    location = Path(framerep.__file__).resolve()
    if SRC.resolve() not in location.parents:
        sys.exit(f"perfbench: framerep resolved to {location}, outside {SRC}")
    return framerep


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library; None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", "_64", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "commit": git_commit(),
        "seed": seed,
    }


# -- measuring ------------------------------------------------------------------

class Tally:
    """Outcomes of every attempted op; failures are counted and reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.digits: list[float] = []
        self.obs = defaultdict(list)
        self.phase = 0.0

    def record(self, wl, inp, out, seconds, traced):
        self.attempted += 1
        (self.traced_latencies if traced else self.latencies).append(seconds)
        if isinstance(out, Exception):
            self._fail(inp, "raised " + "".join(traceback.format_exception_only(out)).strip())
            return
        try:
            ok, digits, obs = wl.check(inp, out, traced)
        except Exception as exc:  # an output the check cannot read is a failed op
            self._fail(inp, "check raised " + "".join(traceback.format_exception_only(exc)).strip())
            return
        for key, value in obs.items():
            self.obs[key].append(value)
        if digits is not None:
            self.digits.append(digits)
        if not ok:
            self._fail(inp, f"output failed its check ({digits} digits)")

    def _fail(self, inp, reason):
        self.failed += 1
        self.failures.append(f"op {self.attempted - 1} {inp['label']}: {reason}")


def run_loop(wl, rng, seconds, tracer=None, min_cycles=1):
    """Closed loop, one client: whole cycles until ``seconds`` have passed.

    With a tracer, odd cycles run traced (and through ``wl.traced_op``) and
    even ones untraced, so both see the same inputs mix and machine state.
    """
    tally = Tally()
    op = wl.op if tracer is None else wl.traced_op
    deadline = perf_counter() + seconds
    cycle = 0
    while cycle < min_cycles or perf_counter() < deadline:
        inputs = wl.batch(rng)
        traced = tracer is not None and cycle % 2 == 1
        results = []
        if traced:
            tracer.install()
        try:
            phase_start = perf_counter()
            for inp in inputs:
                start = perf_counter()
                try:
                    out = tracer.run_op(tally.attempted + len(results), op, inp) if traced else op(inp)
                except Exception as exc:  # counted as a failed op, never dropped
                    out = exc
                results.append((out, perf_counter() - start))
            tally.phase += perf_counter() - phase_start
        finally:
            if traced:
                tracer.uninstall()
        for inp, (out, elapsed) in zip(inputs, results):
            tally.record(wl, inp, out, elapsed, traced)
        cycle += 1
    return tally


def measure_setup(args):
    """Median wall time of fresh processes that import framerep and set the workload up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        start = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{done.stderr}")
    return statistics.median(times)


def tail(latencies):
    """The highest whole percentile with >= 10 samples beyond it.

    Runs with many samples are cut into consecutive windows of about
    TAIL_WINDOW samples, and the median of the windows' percentiles is
    reported, so that one burst of machine noise in one window does not set
    the run's tail.  Returns (value, percentile, windows).
    """
    windows = np.array_split(np.asarray(latencies), max(1, len(latencies) // TAIL_WINDOW))
    n = min(len(w) for w in windows)
    if n <= 10:
        return max(latencies), 100, 1
    p = math.floor(100 * (n - 10) / n)
    return float(np.median([np.percentile(w, p) for w in windows])), p, len(windows)


def end_to_end(tally, wl, setup_s):
    lat = tally.latencies
    value, p, windows = tail(lat)
    print(f"latency_tail_ms is p{p} of {len(lat)} samples, median over {windows} window(s)")
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * value,
        "ops_per_s": (tally.attempted - tally.failed) / tally.phase,
        "peak_rss_mb": wl.peak_rss_mb(),
        "accuracy_digits": min(tally.digits, default=0.0),
        "success_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(stats, tally, probe):
    obs = tally.obs
    ops = stats.ops or 1
    parse_bytes = sum(stats.extra[n] for n in IO_PARSE)
    write_bytes = sum(stats.extra[n] for n in IO_WRITE)
    parse_s = sum(sum(stats.self_time[n]) for n in IO_PARSE)
    serialize_names = [n for n in stats.calls if n.startswith("io.") and n not in IO_PARSE]
    serialize_s = sum(sum(stats.self_time[n]) for n in serialize_names)
    main_ms = stats.median_ms("cli.main")
    traced_p50 = statistics.median(tally.traced_latencies)
    untraced_p50 = statistics.median(tally.latencies)
    return {
        "frames.construct_ms": stats.median_ms("frames.construct"),
        "frames.spectral_ms": stats.median_ms("frames.spectral"),
        "frames.canonical_dual_ms": stats.median_ms("frames.canonical_dual"),
        "frames.built_per_op": stats.per_op_count("frames.construct"),
        "frames.dual_err_digits": min(obs["dual_err_digits"], default=0.0),
        "frames.share": stats.share("frames"),
        "linalg.pseudoinverse_ms": stats.median_ms("linalg.pseudoinverse"),
        "linalg.pseudoinverse_calls": stats.per_op_count("linalg.pseudoinverse"),
        "linalg.svd_work": stats.extra[NUMPY_SVD] / ops / 1e6,
        "linalg.hermitian_eigs_ms": stats.median_ms("linalg.hermitian_eigs"),
        "linalg.hermitian_eigs_calls": stats.per_op_count("linalg.hermitian_eigs"),
        "linalg.share": stats.share("linalg"),
        "represent.matrix_of_operator_ms": stats.median_ms("represent.matrix_of_operator"),
        "represent.operator_of_matrix_ms": stats.median_ms("represent.operator_of_matrix"),
        "represent.compose_ms": stats.median_ms("represent.compose"),
        "represent.roundtrip_ms": stats.median_ms("represent.roundtrip_reconstruct"),
        "represent.multiplier_ms": stats.median_ms("represent.frame_multiplier"),
        "represent.range_map_ms": stats.median_ms("represent.range_map_check"),
        "represent.kernel_ms": stats.median_ms("represent.kernel_of_representation"),
        "represent.roundtrip_err_digits": min(obs["roundtrip_err_digits"], default=0.0),
        "represent.share": stats.share("represent"),
        "solve.solve_ms": stats.median_ms("solve.solve"),
        "solve.self_ms": stats.median_self_ms("solve.solve"),
        "solve.discretize_ms": stats.median_ms("solve.discretize"),
        "solve.project_ms": stats.median_ms("solve.project_onto_analysis_range"),
        "solve.section_ms": stats.median_ms("solve.finite_section"),
        "solve.residual_operator_max": max(obs["residual_operator"], default=0.0),
        "solve.share": stats.share("solve"),
        "io.parse_ms": stats.per_op_ms(IO_PARSE),
        "io.serialize_ms": stats.per_op_ms(serialize_names),
        "io.bytes_read": parse_bytes / ops,
        "io.bytes_written": write_bytes / ops,
        "io.parse_mb_per_s": parse_bytes / parse_s / 1e6 if parse_s else 0.0,
        "io.serialize_mb_per_s": write_bytes / serialize_s / 1e6 if serialize_s else 0.0,
        "io.share": stats.share("io"),
        "cli.interpreter_ms": probe.get("interpreter_ms", 0.0),
        "cli.import_ms": probe.get("import_ms", 0.0),
        "cli.main_ms": main_ms,
        "cli.startup_ms": probe["subprocess_ms"] - main_ms if probe else 0.0,
        "cli.nonzero_exits": probe.get("nonzero_exits", 0) + sum(obs["nonzero_exit"]),
        "cli.share": stats.share("cli"),
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
    }


def check_premise(workload, metrics, probe):
    """The traced run's evidence for the reason each workload exists."""
    if workload == "solve-redundant":
        text, met = f"linalg.share = {metrics['linalg.share']:.3f} >= 0.8", metrics["linalg.share"] >= 0.8
    elif workload == "represent-warm":
        calls = metrics["linalg.pseudoinverse_calls"]
        text, met = f"linalg.pseudoinverse_calls = {calls} == 0", calls == 0
    else:
        io_ms = metrics["io.parse_ms"] + metrics["io.serialize_ms"]
        share = (metrics["cli.startup_ms"] + io_ms) / probe["subprocess_ms"]
        text, met = f"(cli.startup_ms + io time) / CLI p50 = {share:.3f} > 0.5", share > 0.5
    print(f"premise {workload}: {text} -> {'met' if met else 'NOT MET'}")


# -- entry point ------------------------------------------------------------------

def print_catalog(spec):
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end_to_end (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, bound {m['bound']}")
    print("per_layer (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.list:
        print_catalog(spec)
        return 0
    framerep = import_framerep()
    cls = WORKLOADS[args.workload]
    workdir = WORK / (args.workload + ("-setup" if args.setup_only else ""))
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        cls(framerep, np.random.default_rng(args.seed), workdir, args.tiny)
        return 0

    print("env " + json.dumps(environment(args.seed)))
    setup_s = None if args.trace else measure_setup(args)
    rng = np.random.default_rng(args.seed)
    wl = cls(framerep, rng, workdir, args.tiny)
    if args.trace:
        probe_start = perf_counter()
        probe = wl.startup_probe(1 if args.tiny else STARTUP_REPEATS)
        tracer = Tracer()
        remaining = args.seconds - (perf_counter() - probe_start)
        tally = run_loop(wl, rng, remaining, tracer, min_cycles=2)
        metrics = per_layer(LayerStats(tracer.spans), tally, probe)
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
        check_premise(args.workload, metrics, probe)
        declared = spec["per_layer"]
    else:
        tally = run_loop(wl, rng, args.seconds)
        metrics = end_to_end(tally, wl, setup_s)
        declared = spec["end_to_end"]

    for line in tally.failures:
        print("FAIL " + line)
    result = {}
    for m in declared:
        value = float(metrics[m["name"]])
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
