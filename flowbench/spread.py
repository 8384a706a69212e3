#!/usr/bin/env python3
"""Run one workload on several seeds and report each run's wall time and
each end-to-end metric's median and spread (the distance between the first and third quartile, as a
share of the median), next to the bound BENCHMARK.json gives it.

    python3 flowbench/spread.py --workload public_verify --seeds 1 2 3 4 5

A spread above a third of its bound is flagged: the benchmark is meant to
stay well inside its bounds on seeds it has never seen.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        print(f"seed {seed} ({wall:.1f} s): " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{'metric':<22} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
        else:
            spread = 0.0
        flag = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
        print(f"{m['name']:<22} {med:>12.6g} {spread:>8.4f} {m['bound']:>6}{flag}")


if __name__ == "__main__":
    main()
