#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/ (which pulls in the repository one directory up)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
builds the driver, exma-worker and the self-tests, runs the self-tests,
then the driver. The driver's last stdout line is the result object.
Everything it writes stays under the build directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, **kw):
    # Build chatter goes to stderr so stdout ends with the result.
    proc = subprocess.run(cmd, stdout=sys.stderr, **kw)
    if proc.returncode != 0:
        fail("'%s' exited with %d" % (" ".join(cmd), proc.returncode))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")
    build = os.path.abspath(os.path.join(root, "build"))
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        fail("no repository beside %s to build" % HERE)
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build, "-j", "4", "--target", "exma-perfbench",
         "exma-worker", "exma-perfbench-selftest"])
    bindir = os.path.join(build, "exma", "perfbench")
    run([os.path.join(bindir, "exma-perfbench-selftest")])

    # Shard files the routers save for their workers, and saved indexes,
    # go to a per-run directory removed afterwards.
    tmp = os.path.abspath(os.path.join(root, "tmp", str(os.getpid())))
    os.makedirs(tmp, exist_ok=True)
    traces = os.path.abspath(os.path.join(root, "traces"))
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(bindir, "exma-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within 170 s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
