#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The OCaml program under perfbench/ is
built with dune into _build/ (release profile), then run; its standard
output passes through, and its last line is the JSON result. Exits
non-zero without a result when the checkout cannot be built.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim-nvmeof", "sim-steering-16vf")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def toolchain_env():
    """The environment to run dune in: the caller's, plus the opam
    switch's bin directory when dune is not already on PATH."""
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"  # keep every build output in _build/
    if shutil.which("dune"):
        return env
    for dune in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        bindir = os.path.dirname(dune)
        env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
        env.setdefault("OPAM_SWITCH_PREFIX", os.path.dirname(bindir))
        return env
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} missing: not a LogNIC checkout", file=sys.stderr)
            return 2

    env = toolchain_env()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "--display", "quiet", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
