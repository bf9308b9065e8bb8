#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark program into .bench_build/perfbench (Release); later calls
rebuild incrementally. Build output goes to stderr, so standard output
carries only the program's metric lines and, last, its JSON result. With
--trace 1 the traced run's spans are written to
.bench_build/perfbench/spans/<workload>-seed<seed>.tsv.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def flag_value(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def main(args):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if flag_value(args, "--trace") == "1" and "--spans" not in args:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{flag_value(args, '--workload')}-seed{flag_value(args, '--seed')}.tsv"
        args = args + ["--spans", os.path.join(spans, name)]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
