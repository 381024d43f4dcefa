#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload covert --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Builds the Go program in this directory with every Go cache, temporary
file and output kept under .bench_build/ at the repository root, then runs
it from the root with the given arguments. With --workload all it runs the
four workloads one after another, each in its own process, and prints each
one's metrics; it exits non-zero if any of them fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")
WORKLOADS = ["covert", "keylog", "rx-sweep", "daemon"]


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "go-cache",
        "GOMODCACHE": "go-mod",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
        GOGC="100",
    )
    return env


def build(env):
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def workload_arg(args):
    for i, a in enumerate(args):
        if a == "--workload" and i + 1 < len(args):
            return i + 1
        if a.startswith("--workload="):
            return i
    return -1


def run_all(args, env):
    """Runs every workload in its own process; returns the exit code."""
    i = workload_arg(args)
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        a = list(args)
        a[i] = name if a[i] == "all" else "--workload=" + name
        proc = subprocess.run([BINARY] + a, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and last["correct"] and proc.returncode == 0
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            summary["metrics"][name + "." + k] = v
    print(json.dumps(summary, sort_keys=True))
    return worst


def main():
    args = sys.argv[1:]
    env = go_env()
    if not build(env):
        return 1
    i = workload_arg(args)
    if i >= 0 and args[i] in ("all", "--workload=all"):
        return run_all(args, env)
    return subprocess.run([BINARY] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
