#!/usr/bin/env python3
"""Build and run the scm simulator wall-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bitonic|scan|tree --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
simulator from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only re-check the build. The benchmark
binary's standard output is passed through, so its last line is the JSON
result. With --trace 1 the span log is written to
<build dir>/spans/<workload>-seed<N>.json.
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def fixed_layout():
    """Turns off address-space randomisation for the benchmark process
    (Linux personality ADDR_NO_RANDOMIZE), so heap and mmap placement, and
    with them cache conflicts, repeat from run to run. Best effort: where
    the call is refused the run proceeds randomised."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)
    except (OSError, AttributeError):
        pass


def build(targets):
    """Configure once, then bring `targets` up to date. Build output goes to
    stderr so stdout stays the benchmark's own."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["bitonic", "scan", "tree"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helpers' unit tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        if args.selftest:
            out = build(["perfbench_selftest"])
            return subprocess.run(
                [os.path.join(out, "perfbench_selftest")]).returncode
        out = build(["scm_perfbench"])
    except subprocess.CalledProcessError as err:
        print(f"perfbench: build failed ({err})", file=sys.stderr)
        return 2

    cmd = [os.path.join(out, "scm_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
