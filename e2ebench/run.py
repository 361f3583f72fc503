#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload fit|stream|restart --seed N \
        --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a checkout: the library is compiled from the
checkout's own sources into $CARGO_TARGET_DIR (default .bench_build, taken
relative to the checkout root), which also holds the runs' scratch files
(disk-tier stores, trace files). The benchmark program's standard output
passes through unchanged, so its last line is the JSON result. The exit
code is the program's; a failed build or missing sources exit non-zero
without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "e2ebench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ajd_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "ajd_e2e")


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources under {ROOT}; run from a full checkout")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        return 1
    cmd = [binary, *sys.argv[1:], "--work-dir",
           os.path.join(build_root, "work")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 1


if __name__ == "__main__":
    sys.exit(main())
