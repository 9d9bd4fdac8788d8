#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Runs the Rust unit tests (the checks must reject wrong answers: a flipped
model result, a dropped or reordered queue item, an altered recovered
value), then runs every workload briefly, untraced and traced, and checks
that the last line names every metric BENCHMARK.json lists, with its unit,
and no other. Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def check_output(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"{workload} --trace {trace} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        fail(f"{workload} --trace {trace}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"{workload} --trace {trace}: missing {missing}, unlisted {extra}, wrong units {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
    print(f"selftest: {workload} --trace {trace}: {len(got)} metrics named with their units")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    tests = subprocess.run(
        ["cargo", "test", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env)
    if tests.returncode != 0:
        fail("cargo test")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_output(spec, workload, trace)
    print("selftest: ok")


if __name__ == "__main__":
    main()
