#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarise them.

    python3 perfbench/collect.py [--workloads build,reads_k31] [--seeds 1-10]
                                 [--trace-seeds 1,1] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and seed with tracing off, then once per
trace seed with tracing on (repeat a seed to check that counts repeat
exactly).  For each end-to-end metric it prints the median, the quartiles
and the spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json; for each per-layer metric, the value of every traced run.
With ``--out`` it also writes all values as JSON, with the host's nproc and
Python version.  Exits 1 if a run failed or a spread other than
``setup_s``'s reaches its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1,1")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    ok = True
    report = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        seeds = parse_seeds(args.seeds)
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = [run_once(workload, s, seconds, 1) for s in parse_seeds(args.trace_seeds)]
        ok &= all(r["correct"] for r in runs + traced)
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            e2e[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"], "values": values}
            verdict = "ok" if spread < m["bound"] / 3 else "wide" if spread < m["bound"] else "OVER"
            ok &= m["name"] == "setup_s" or spread < m["bound"]
            print(f"{workload:<16} {m['name']:<14} median {med:<12.6g} {m['unit']:<9} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f} "
                  f"(bound {m['bound']}) {verdict}")
        layers = {}
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in traced if r["metrics"]]
            layers[m["name"]] = {"unit": m["unit"], "values": values}
            print(f"{workload:<16} {m['name']:<30} {m['unit']:<6} "
                  + " ".join(f"{v:.6g}" for v in values))
        report["workloads"][workload] = {
            "seeds": seeds, "trace_seeds": parse_seeds(args.trace_seeds),
            "attempted": sum(r.get("attempted", 0) for r in runs),
            "failed": sum(r.get("failed", 0) for r in runs),
            "end_to_end": e2e, "per_layer": layers,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
