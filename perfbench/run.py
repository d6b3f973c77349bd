#!/usr/bin/env python3
"""Build and run the host-time benchmark of the profiling path.

Run from the repository root:

    python3 perfbench/run.py --workload profile-context --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py selftest
    python3 perfbench/run.py regen --engine interp

Builds perfbench/ledger.exe with dune (shared build cache off, so nothing
is written outside the checkout), runs it with the given arguments and
passes its output through.  For a measuring run it first checks that the
result line names exactly the metrics BENCHMARK.json declares for the
trace mode; a mismatch is an error and the result line is withheld.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "ledger.exe")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/ledger.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return done.returncode == 0


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def arg(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def main():
    args = sys.argv[1:]
    if not os.path.exists("dune-project"):
        print("run.py: run from the repository root (no dune-project here)",
              file=sys.stderr)
        return 1
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: ledger.exe timed out", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or arg(args, "--workload") is None:
        sys.stdout.write(done.stdout)
        return done.returncode
    body, last = lines[:-1], lines[-1] if lines else "{}"
    sys.stdout.write("".join(line + "\n" for line in body))
    result = json.loads(last)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(arg(args, "--trace") or "0")
    if got != want:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(want) - set(got)), sorted(set(got) - set(want))),
              file=sys.stderr)
        return 1
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
