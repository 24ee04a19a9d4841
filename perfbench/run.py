#!/usr/bin/env python3
"""Run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload hit-http --seed 1 --seconds 20 --trace 0

Builds the `ssg` binary and the harness with dune, then runs the harness
(perfbench/src/main.ml) pinned to one CPU.  The harness launches a fresh
worker/router/gateway fleet, drives the workload, checks every served
outcome and prints the result as its last line of standard output.  Exits non-zero, without a
result line, if the build or the run fails or the run outlives its
time limit.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hit-http", "miss-native", "mixed-open")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./bin/ssg.exe", "./perfbench/src/main.exe"]
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", *targets],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
    except FileNotFoundError:
        sys.exit("perfbench: dune not found")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    build_dir = os.path.join(ROOT, "_build", "default")
    return (os.path.join(build_dir, "bin", "ssg.exe"),
            os.path.join(build_dir, "perfbench", "src", "main.exe"))


def pin_to_one_cpu():
    """Run the harness and the fleet it launches on one CPU.

    On a VM, a request handed between processes on two vCPUs wakes an
    idle vCPU, and the hypervisor's delay in running it is reported as
    steal. Measured on a 2-vCPU VM, that swung hit-http throughput
    between ~280 and ~1050 jobs/s from one run to the next. On one busy
    CPU the same hand-offs are ordinary context switches. The highest
    allowed CPU is chosen because CPU 0 usually takes more interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ssg, harness = build()
    pin_to_one_cpu()
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ssg", ssg, "--work", os.path.join(ROOT, ".perfbench")]
    # Own process group, so a timeout or a crashed harness takes the
    # fleet down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    reap_group(proc)
    if code is None:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


def reap_group(proc):
    """SIGKILL whatever is left in the harness's process group and wait
    until the group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
