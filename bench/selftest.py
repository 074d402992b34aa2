"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Checks that every workload prints every metric BENCHMARK.json declares,
with its unit, in both trace modes; that a corrupted CLI output counts
as a failed op; and that the benchmark refuses to run without sources.
Takes about a minute.
"""

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS threads before numpy loads
import workloads

TINY = {
    "desk22": dict(joints=3, ticks=50, keyframes=3, pool=2),
    "walk1500": dict(joints=3, ticks=200, drops=4, pool=2,
                     schedule_file="phase epochs=20 lr=0.001\nphase epochs=10 lr=0.0005\n"
                                   "reset_on_phase=true\n"),
    "gensim22": dict(joints=3, ticks=100, keyframes=4, pool=2),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def expect(ok, message):
    if not ok:
        raise SystemExit(f"FAIL: {message}")


@contextlib.contextmanager
def corrupted_datasets():
    """Make the CLI's dataset writer alter one value of every file it writes."""
    cli = run.load_program().cli
    original = cli.save_dataset

    def save_and_corrupt(ds, path):
        original(ds, path)
        lines = Path(path).read_text().splitlines()
        row = lines[len(lines) // 2].split(",")
        row[1] = repr(float(row[1]) + 1e-6)
        lines[len(lines) // 2] = ",".join(row)
        Path(path).write_text("\n".join(lines) + "\n")

    cli.save_dataset = save_and_corrupt
    try:
        yield
    finally:
        cli.save_dataset = original


def check_metrics(name, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result, record = run.run_workload(tiny(name), seed=0, seconds=0, trace=trace)
    expect(result["correct"] and result["failed"] == 0, f"{name}: ops failed: {record['failures']}")
    units = {n: m["unit"] for n, m in result["metrics"].items()}
    expect(units == {m["name"]: m["unit"] for m in declared}, f"{name}: metric names or units differ")
    if not trace:
        zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
        expect(not zero, f"{name}: end-to-end metrics not positive: {zero}")
    expect(len(record["digests"]) == TINY[name]["pool"], f"{name}: digests missing")
    expect(record["environment"]["blas_threads"] in (None, run.BLAS_THREADS), "BLAS threads not pinned")
    print(f"ok  {name} trace={int(trace)}: {len(units)} metrics")


def check_corruption(name):
    with corrupted_datasets():
        result, record = run.run_workload(tiny(name), seed=0, seconds=0, trace=False)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"{name}: corrupted dataset not caught")
    expect(all("check failed" in f for f in record["failures"]), f"{name}: {record['failures']}")
    print(f"ok  {name}: corrupted dataset counted as failed op ({record['failures'][0][:70]}...)")


def check_without_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk22",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "benchmark printed a result without program sources")
    print("ok  refuses to run without src/")


def main():
    for name in workloads.WORKLOADS:
        check_metrics(name, trace=False)
        check_metrics(name, trace=True)
        check_corruption(name)
    check_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
