#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (a few seconds in all).

    python3 e2ebench/selftest.py

Checks, for every workload in BENCHMARK.json and both trace modes, that a
smoke run exits 0 and that its last line is a correct result carrying
exactly the metric set BENCHMARK.json declares for that mode. Also checks
that bad arguments and a directory without the library sources fail
without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"] for m in bench["end_to_end"]},
        "1": {m["name"] for m in bench["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            cmd = [*bench["command"], "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", trace, "--smoke"]
            code, last, err = run(cmd, ROOT)
            what = f"{workload} --trace {trace}"
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                expect(False, f"{what}: last line is not JSON ({err[-500:]})")
                continue
            expect(code == 0, f"{what}: exit code {code}")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what}: result keys")
            expect(result.get("correct") is True and
                   result.get("failed") == 0 and
                   result.get("attempted", 0) >= 1,
                   f"{what}: correct, {result.get('failed')} failed of "
                   f"{result.get('attempted')}")
            names = set(result.get("metrics", {}))
            expect(names == expected[trace],
                   f"{what}: metric set (missing "
                   f"{sorted(expected[trace] - names)}, extra "
                   f"{sorted(names - expected[trace])})")

    code, last, _ = run([*bench["command"], "--workload", "nope", "--seed",
                         "1", "--seconds", "1", "--trace", "0"], ROOT)
    expect(code != 0 and not last.startswith("{"),
           f"unknown workload fails without a result (exit {code})")

    # A directory holding only the benchmark: it must fail, not measure.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, last, _ = run([*bench["command"], "--workload", "fit", "--seed",
                         "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not last.startswith("{"),
           f"benchmark without the library fails without a result "
           f"(exit {code})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
