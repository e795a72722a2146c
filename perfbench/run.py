#!/usr/bin/env python3
"""Runs one workload of the streamit-gpu-swp performance benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The script builds the sgpu library, the sgpu-served daemon and the
sgpu-perfbench benchmark program from the checkout's sources
(perfbench/CMakeLists.txt, build tree .bench_build/perfbench), then runs it
in a fresh scratch directory under .bench_build. It prints one JSON object
as the last line of standard output: {"correct", "attempted", "failed",
"metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table1", "table1-cycle", "served-graphgen")
# A run that takes longer is stopped; its phases take about 60 s at most.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_bench(args):
    """Runs sgpu-perfbench in its own process group, so that a timeout also
    stops the daemons it started; returns (exit code, stdout)."""
    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "sgpu-perfbench"),
           "--served=" + os.path.join(BUILD, "sgpu-served"),
           "--work-dir=."] + args
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop_group(*_):
        # Also reaches daemons left behind by a run that crashed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *_: (stop_group(), sys.exit(1)))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group()
        proc.communicate()
        log("error: sgpu-perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1, ""
    finally:
        stop_group()
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every output check rejects corruption")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    for need in ("src/CMakeLists.txt", "tools/sgpu-served.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log("error: %s not found; run from a source checkout" % need)
            return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("error: build failed: %s" % err)
        return 2

    if args.self_test:
        code, out = run_bench(["--self-test"])
    else:
        code, out = run_bench(["--workload=" + args.workload,
                                "--seed=%d" % args.seed,
                                "--seconds=%d" % args.seconds,
                                "--trace=%d" % args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
