#!/usr/bin/env python3
"""Builds the perfbench harness against the anker source tree and runs it.

Usage (from the repository root):
  python3 perfbench/run.py --workload htap_stream --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --probe scatter_anomaly --seed 1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; run data (shard WALs, span files) goes to a per-process
directory below it and is removed when the run ends. Build and harness
diagnostics go to stderr; the last stdout line is the JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h"))):
        sys.exit("perfbench: no anker source tree at %s" % ROOT)
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 2)],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def main():
    args = sys.argv[1:]
    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)
    data_dir = os.path.join(out, "run-%d" % os.getpid())
    extra = []
    if "--selftest" not in args:
        extra = ["--data_dir", data_dir]
        if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
            extra += ["--spans_out", os.path.join(out, "spans.tsv")]
    os.makedirs(data_dir, exist_ok=True)
    proc = subprocess.Popen([binary] + args + extra)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 3
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
