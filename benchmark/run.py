#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to _build/ with dune's
shared cache off, so nothing is read or written outside the checkout;
build output goes to stderr. Then this process becomes wipbench.exe with
the same arguments, whose last stdout line is the result (see README.md).
"""
import os
import subprocess
import sys

root = os.getcwd()
build = subprocess.run(
    ["dune", "build", "--root", root, "--cache=disabled", "--display=quiet",
     "benchmark/wipbench.exe", "benchmark/server.exe"],
    stdout=sys.stderr,
)
if build.returncode != 0:
    sys.exit(build.returncode)
exe = os.path.join(root, "_build", "default", "benchmark", "wipbench.exe")
os.execv(exe, [exe] + sys.argv[1:])
