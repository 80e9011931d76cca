#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload fig7_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-digests    # regenerate perfbench/digests.txt

Builds the skp library, the skpd daemon and the perfbench binary from
this checkout's sources into $CARGO_TARGET_DIR (default .bench_build),
then runs it. Build output goes to stderr; perfbench's stdout
passes through, and its last line is the JSON result.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_sweep", "learned_des", "skpd_loop")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (first time) and builds; returns (perfbench, skpd) paths."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "skpd.cpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = [cmake, "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
           "--target", "perfbench", "skpd"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "skp", "tools", "skpd"))


def run(cmd, log_path):
    """Runs perfbench in its own process group; its stderr (and the
    daemon's) goes to log_path and is shown only when the run fails."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stderr=log, start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = 124
    if code != 0:
        with open(log_path) as log:
            sys.stderr.writelines(log.readlines()[-40:])
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not args.write_digests and args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be >= 0")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    perfbench, skpd = build(os.path.abspath(build_dir))
    digests = os.path.join(HERE, "digests.txt")
    if args.write_digests:
        cmd = [perfbench, "--write-digests", digests, "--skpd", skpd]
        sys.exit(run(cmd, os.path.join(build_dir, "write-digests.log")))

    out_dir = os.path.join(build_dir, "spans")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--skpd", skpd, "--digests", digests, "--out-dir", out_dir]
    sys.exit(run(cmd, os.path.join(build_dir, f"{args.workload}.log")))


if __name__ == "__main__":
    main()
