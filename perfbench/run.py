"""asep-lab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload moments-4pt --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src and
nowhere else.  Workloads (perfbench/workloads.py):

  lowdim-checks  n <= 3 reference checks made of many short calls
  montecarlo     simulator calls at a fixed trajectory count
  exact-dual     exact-rational duality sweeps and the segment dual ODE
  moments-4pt    q_moment at n = 4, where the 4-D circle contraction
                 dominates; too few ops a run to be steady, so it is not
                 in BENCHMARK.json (see its docstring)

Set-up (import in a fresh interpreter, input generation from the seed, one
warm-up op) runs five times and setup_s is the median: one fresh import
alone spreads by 0.2 from one try to the next.  The run then measures
whole cycles of ops until --seconds have passed.  Every time metric is
host-scaled: measured seconds times the ratio of a reference to a fixed
gauge timed beside the work in the same run (perfbench/hostspeed.py), so
that the drift of a shared host's speed cancels; the wall-clock figures
are kept in the detail line.

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 the run is split into an untraced and a traced half, and the last
line carries the per-layer metrics of the traced half (perfbench/tracing.py)
plus trace.overhead_ratio.  The spans are written to
perfbench/traces/<workload>-seed<seed>.jsonl.  The line before the result
(the detail line) records the seed, the inputs, the environment, the op
latency percentile used for op_tail_s and the wall-clock figures.

The result's "correct" is false when a check failed that is not one of
the known defects listed in perfbench/workloads.py.  Exit codes: 0 result
printed; 2 bad arguments or asep_lab not importable from ./src; 3 a
warm-up op, the fresh-interpreter import or the thread-count check
failed, or a trace probe never fired (no result line).
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: all load comes
# from this one process, and one thread keeps timings steady on a shared host
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MODULES = ("model", "moments", "kpz", "simulate", "duality", "segment_ode",
           "partitions", "residues", "quadrature")


def fail(code: int, message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "asep_lab" / "__init__.py").is_file():
        fail(2, f"no asep_lab package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("asep_lab")
    if Path(pkg.__file__).resolve().parent != (src / "asep_lab").resolve():
        fail(2, f"asep_lab imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"asep_lab.{m}") for m in MODULES})


def timed_import() -> float:
    """Seconds a fresh interpreter takes to import asep_lab and its modules."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            + "; ".join(f"import asep_lab.{m}" for m in MODULES)
            + "; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(3, f"importing asep_lab in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "l3_bytes": l3,
            "machine": platform.machine()}


def tail_latency(latencies):
    """Latency at the highest percentile with at least 10 samples above it.

    That is the 11th largest sample.  Below 20 samples it would sit under
    the median, and the largest of so few samples is one stall away from
    any value, so there the median is taken.  The record says how many
    samples lie above the one reported.
    """
    ranked = sorted(latencies, reverse=True)
    beyond = min(10, len(ranked) // 2)
    value = ranked[beyond]
    return value, {"percentile": 100.0 * (len(ranked) - beyond) / len(ranked),
                   "samples": len(ranked), "samples_beyond": beyond}


def run_phase(workload, seconds: float, tracer=None) -> dict:
    """Runs whole cycles of ops until `seconds` have passed.

    Latencies are host-scaled (perfbench/hostspeed.py); the wall-clock ones
    are kept beside them for the record.
    """
    import hostspeed
    wall, marks, errs, failed_idx, pooled, known_failed = [], [], [], set(), [], set()
    unexpected = []
    kinds = {}
    clock = hostspeed.Clock()
    start = perf_counter()
    ops = (op for cycle in itertools.takewhile(lambda _: perf_counter() - start < seconds,
                                               workload.cycles())
           for op in cycle)
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        marks.append(clock.mark())
        t0 = perf_counter()
        try:
            check = op.run()
        except Exception:
            wall.append(perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            check = None
        else:
            wall.append(perf_counter() - t0)
        clock.tick()
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        if check is not None and check.err is not None:
            errs.append(check.err)
        if check is not None and check.pool is not None:
            pooled.append((index, check.pool))
        if check is None or not check.ok:
            failed_idx.add(index)
            if op.known_defect:
                known_failed.add(op.kind)
            else:
                unexpected.append(f"{op.kind} (op {index})")
    clock.tick(force=True)
    for check, indices in workload.finish(pooled):
        errs.append(check.err)
        if not check.ok:
            failed_idx.update(indices)
            unexpected.append(f"pooled check over ops {indices[:3]}...")
    latencies = [w * clock.scale(m) for w, m in zip(wall, marks)]
    return {"latencies": latencies, "ops_per_s": len(latencies) / sum(latencies),
            "wall_latencies": wall, "wall_ops_per_s": len(wall) / sum(wall),
            "gauge_p50_s": statistics.median(clock.readings),
            "attempted": len(latencies), "failed": len(failed_idx),
            "err_ratio": max(errs) if errs else None, "unexpected": unexpected,
            "known_failed": sorted(known_failed), "kinds": kinds}


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    lib = import_library()
    import hostspeed
    import tracing
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    probes = {"moments-4pt": tracing.MOMENT_PROBES,
              "lowdim-checks": tracing.MOMENT_PROBES + tracing.LOWDIM_PROBES,
              "montecarlo": tracing.SIMULATE_PROBES,
              "exact-dual": tracing.EXACT_PROBES}[args.workload]

    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPS):
        before = hostspeed.gauge()
        import_s = timed_import()
        t0 = perf_counter()
        workload = cls(lib, args.seed)
        warm = workload.warmup()
        if hasattr(workload, "threads_agree") and not workload.threads_agree():
            fail(3, "estimate(threads=1) and estimate(threads=2) differ")
        setup_wall.append(import_s + perf_counter() - t0)
        setup_times.append(setup_wall[-1] * hostspeed.REFERENCE_GAUGE_S
                           / ((before + hostspeed.gauge()) / 2))
        if not warm.ok:
            fail(3, f"{args.workload}: warm-up op failed its reference check")

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": workload.inputs, "env": environment()}
    if args.trace:
        plain = run_phase(workload, args.seconds / 2)
        traced_workload = cls(lib, args.seed)
        tracer = tracing.Tracer()
        install = tracing.Installation(lib, tracer, probes)
        try:
            traced = run_phase(traced_workload, args.seconds / 2, tracer)
        finally:
            install.restore()
        silent = install.silent()
        if silent:
            fail(3, "trace probes that never fired: " + ", ".join(silent))
        out_dir = Path(__file__).resolve().parent / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (traced["ops_per_s"] / plain["ops_per_s"], "ratio")
        phases = (plain, traced)
    else:
        result = run_phase(workload, args.seconds)
        tail, tail_info = tail_latency(result["latencies"])
        detail["op_tail"] = tail_info
        wall = result["wall_latencies"]
        detail["wall_clock"] = {"ops_per_s": result["wall_ops_per_s"],
                                "op_p50_s": statistics.median(wall),
                                "op_tail_s": tail_latency(wall)[0],
                                "setup_reps_s": setup_wall,
                                "gauge_p50_s": result["gauge_p50_s"]}
        metrics = {
            "ops_per_s": (result["ops_per_s"], "ops/s"),
            "op_p50_s": (statistics.median(result["latencies"]), "s"),
            "op_tail_s": (tail, "s"),
            "err_ratio": (result["err_ratio"], "ratio"),
            "pass_frac": ((result["attempted"] - result["failed"]) / result["attempted"],
                          "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        phases = (result,)

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    unexpected = [u for p in phases for u in p["unexpected"]]
    detail["ops_by_kind"] = phases[-1]["kinds"]
    detail["known_defects_failed"] = sorted({k for p in phases for k in p["known_failed"]})
    detail["unexpected_failures"] = unexpected[:20]
    print(json.dumps(detail), flush=True)
    if unexpected:
        print(f"perfbench: {len(unexpected)} unexpected check failures, first: "
              f"{unexpected[0]}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
