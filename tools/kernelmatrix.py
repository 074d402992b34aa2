"""Run the tier-1 tests once per OpenBLAS kernel and report each kernel's counts.

Usage: python3 tools/kernelmatrix.py [--kernels K1,K2,...] [-- PYTEST_ARGS...]

Each OpenBLAS kernel rounds matrix products its own way, so the digests
of trained files are recorded per kernel, and a change to the trained
bits is checked under each of them.  For every kernel, one at a time,
this starts the tier-1 command (python -m pytest -q
--continue-on-collection-errors, with src on PYTHONPATH) in a child
process with OPENBLAS_CORETYPE set to the kernel, after a probe that
reports the kernel OpenBLAS then runs: Prescott runs Katmai.  It prints
one line per kernel with its passed, failed and xfailed counts, then
the id of each failing test, and exits 1 if any kernel's run failed.
Arguments after -- go to each pytest run, such as -k EXPR or test paths.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "-rfE"]


def child_env(kernel):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "OPENBLAS_CORETYPE": kernel,
            "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}


def probe(kernel):
    """The kernel OpenBLAS runs with OPENBLAS_CORETYPE=kernel, as tools/epochprofile.py reports it."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "epochprofile.py"), "--rows", "1",
                           "--repeats", "1"], cwd=ROOT, env=child_env(kernel),
                          capture_output=True, text=True)
    found = re.search(r", (\S+) kernel, ", done.stdout)
    return found.group(1) if found else "unknown"


def summarize(output):
    """(counts, failing ids) of a pytest -q -rfE run's output."""
    counts = {"passed": 0, "failed": 0, "xfailed": 0, "xpassed": 0, "error": 0}
    lines = output.splitlines()
    for number, word in re.findall(r"(\d+) (passed|failed|xfailed|xpassed|errors?)\b",
                                   lines[-1] if lines else ""):
        counts[word.rstrip("s") if word.startswith("error") else word] = int(number)
    failing = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return counts, failing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", default=",".join(KERNELS),
                        help="comma-separated OPENBLAS_CORETYPE values (default: %(default)s)")
    parser.add_argument("pytest_args", nargs="*", help="after --, passed on to pytest")
    args = parser.parse_args(argv)
    failed = False
    for kernel in args.kernels.split(","):
        done = subprocess.run([sys.executable, *TIER1, *args.pytest_args], cwd=ROOT,
                              env=child_env(kernel), capture_output=True, text=True)
        counts, failing = summarize(done.stdout)
        failed |= done.returncode != 0
        print(f"{kernel} (runs {probe(kernel)}): {counts['passed']} passed, {counts['failed']} "
              f"failed, {counts['xfailed']} xfailed, {counts['xpassed']} xpassed, "
              f"{counts['error']} errors; pytest exit {done.returncode}", flush=True)
        for test in failing:
            print(f"  {test}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
