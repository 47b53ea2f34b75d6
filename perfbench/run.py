#!/usr/bin/env python3
"""Builds and runs the vblock end-to-end benchmark.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a vblock source tree. The benchmark is a CMake package
of its own (perfbench/CMakeLists.txt) that compiles the library from that
tree; it is built into $CARGO_TARGET_DIR (default .bench_build) on first
use. The benchmark's last stdout line is its JSON result; build output goes
to stderr. Traced runs (--trace 1) write their spans under the build dir.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("error: perfbench must run from a vblock source tree "
                 "(no CMakeLists.txt/src next to perfbench/)")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target",
                    "vblock_perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)


def main(argv):
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("error: building the benchmark failed: %s" % e)
    if argv == ["--self-test"]:
        code = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
        py = subprocess.run([sys.executable, "-m", "unittest", "-q",
                             "test_stats"], cwd=HERE).returncode
        return code or py
    span_dir = os.path.join(out, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [os.path.join(out, "vblock_perfbench")] + argv + ["--span-dir", span_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
