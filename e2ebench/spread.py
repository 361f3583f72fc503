#!/usr/bin/env python3
"""Runs one workload under several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --workload fit [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1]

The spread is the interquartile range over the median, from Python's
statistics.quantiles(values, n=4), next to the bound BENCHMARK.json allows
(and a third of it, the steadiness target). The seconds default to
BENCHMARK.json's run_seconds. Exits 1 when a run fails or reports an
incorrect result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}, result {result}")
            return 1
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':<28}{'median':>14}{'spread':>10}{'bound':>8}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:<28}{q2:>14.6g}{spread:>10.4f}"
              f"{bound if bound is not None else '':>8} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
