#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload reports_warm --seed 1 --seconds 10 --trace 0

The build goes through dune (its output is sent to standard error); the
benchmark's own standard output is passed through unchanged, so its last
line is the JSON result.  Exits non-zero, without a result, when the build
or the run fails.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune is not on PATH")


def main():
    if not os.path.isfile(os.path.join("perfbench", "main.ml")):
        sys.exit("perfbench: run from the repository root")
    # the shared dune cache lives outside the checkout; keep the build inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
