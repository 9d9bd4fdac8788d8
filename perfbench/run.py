#!/usr/bin/env python3
"""Build and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) with path dependencies on the workspace crates;
it is built offline with the workspace's release profile into
$CARGO_TARGET_DIR (default: .bench_build). The binary's output is passed
through, with a note of the process's peak resident memory, measured here
from outside, before the last line.

Exit codes: 0 on a finished run, 1 when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["set-compose", "kv-zipf", "kv-durable", "queue-handoff"]
# Slack over --seconds for set-up, checks and recovery, after which a run
# that hangs (a livelock, say) is killed and reported as failed.
RUN_SLACK_S = 60


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)  # no-op when already absolute
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr, so stdout stays the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(args.seconds + RUN_SLACK_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        # wait4 reports this child's own resource usage, peak RSS included.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    # ru_maxrss is in KiB on Linux.
    print(f"# peak resident memory: {usage.ru_maxrss / 1024:.2f} MiB")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
