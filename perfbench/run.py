#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (shared build cache off, so the
build writes only under _build/ in this tree), then runs it with the same
arguments. The last line of standard output is the JSON result. Build output
goes to standard error. See perfbench/README.md for the workloads and the
metrics.
"""

import os
import shutil
import subprocess
import sys


def dune_command():
    """dune from PATH, else through opam's current switch."""
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main() -> int:
    root = os.getcwd()
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write(
                "perfbench: %s not found; run from the repository root\n" % needed
            )
            return 2
    dune = dune_command()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet",
                "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    child = subprocess.Popen([exe] + sys.argv[1:], env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
