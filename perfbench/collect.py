"""Repeat the benchmark over seeds and summarise it: medians, quartiles, spread.

    python3 perfbench/collect.py --seeds 1-10 --seconds 20 [--workloads a,b] \
        [--traced] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric its median, quartiles and spread, the
distance between the quartiles as a share of the median
(statistics.quantiles(values, n=4)).  With --traced it adds one traced run
per workload.  With --out it writes the summary, the environment and the
per-layer numbers as JSON, keeping the entries of workloads not rerun.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Inputs the workloads leave out on purpose, with what they cost
LEFT_OUT = {
    "she_moment_nested n=4": "157 s per call at the seed commit (ROADMAP re-anchor); "
                             "n <= 3 is in lowdim-checks",
    "Tier-1 test suite": "123 s (ROADMAP re-anchor); it runs the same library calls",
    "CLI subcommands": "thin wrappers over the same library functions",
    "robin_pde_first_moment (Crank-Nicolson oracle)": "0.4 to 1.0 s per call on the "
                                                      "criterion-8 inputs, 2 cores; Robin n=1 "
                                                      "is checked against the closed form",
}


def seeds_arg(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "seeds": args.seeds, "left_out": LEFT_OUT,
               "workloads": {}}
    if args.out and args.out.exists():
        summary["workloads"] = json.loads(args.out.read_text())["workloads"]
    for workload in args.workloads.split(","):
        rows = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"why": next((w["why"] for w in spec["workloads"] if w["name"] == workload),
                             "not in BENCHMARK.json"),
                 "seconds": args.seconds,
                 "correct": all(r["correct"] for _, r in rows),
                 "attempted": [r["attempted"] for _, r in rows],
                 "failed": [r["failed"] for _, r in rows],
                 "op_tail": [d["op_tail"] for d, _ in rows],
                 "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for _, r in rows]
            entry["end_to_end"][name] = {"unit": rows[0][1]["metrics"][name]["unit"],
                                         **summarise(values)}
        summary["env"] = rows[0][0]["env"]
        if args.traced:
            _, traced = run(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- over a third of bound"
            print(f"{workload:14s} {name:12s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
