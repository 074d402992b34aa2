"""Benchmark of the motionmimic command-line pipeline.

    python3 bench/run.py --workload desk22 --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout; the program is imported from
src/.  One client drives motionmimic.cli.main(argv) in this process in
a closed loop: the next op starts when the previous one has finished
and its outputs have been checked.  An op carries one seeded input
through its whole CLI pipeline (see workloads.py); ops cycle through a
pool of distinct inputs, and a run makes at least one op per input.

--trace 0 prints the end-to-end metrics.  Each CLI call and set-up is
timed on the wall clock and scaled to an idle core's speed by the probe
in calibrate.py, timed while the call runs: other tenants of a shared
host slow the core by a quarter or more for whole runs, and the scaled
times cancel most of that.  Op and stage times (the *_ref_s metrics)
are medians of these reference seconds over the run's ops after the
first (warm-up) op; set-up time
is the median of SETUP_REPEATS set-ups.  Raw wall times go to the run
record.  --trace 1 alternates untraced and traced ops and prints the
per-layer metrics (medians over the traced ops, wall times) plus the
tracing overhead.  The last stdout line is the result object; the
line before it is the run record (environment, digests, failures).
Scratch files go to .bench_work/ in the checkout.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent
# One BLAS thread: steadier than two on a 2-core box, and never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
WARMUP_OPS = 1
HARD_STOP_S = 120.0  # start no op after this, so a run ends inside 180 s
COUNT_SUFFIXES = (".calls", ".epochs", ".samples", ".errors")
COMPUTED = ("network.flops_per_step", "optimizer.adam_step.bytes_per_step",
            "io.bytes_read_per_op", "io.bytes_written_per_op")


def pin_blas_threads():
    """Fix the BLAS pool size; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def load_program():
    """Import the program from src/ of this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import motionmimic.cli
    import motionmimic.errors
    import motionmimic.motion
    import motionmimic.network
    import motionmimic.plant
    import motionmimic.spline
    import motionmimic.trainer
    return types.SimpleNamespace(
        cli=motionmimic.cli, trainer=motionmimic.trainer, plant=motionmimic.plant,
        motion=motionmimic.motion, network=motionmimic.network, spline=motionmimic.spline,
        errors=motionmimic.errors,
    )


def time_import():
    """Seconds for a fresh interpreter to import motionmimic, as each CLI call does."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import motionmimic.cli"
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child with sleeps of up
    # to 50 ms, which would quantize the measurement.
    subprocess.run([sys.executable, "-B", "-c", code], check=True, env=os.environ)
    return time.perf_counter() - start


def setup(w, seed, inputs_dir, clock):
    """(reference seconds, inputs) of one set-up: import motionmimic and write the seeded inputs."""
    def once():
        time_import()
        shutil.rmtree(inputs_dir, ignore_errors=True)
        return workloads.write_inputs(w, seed, inputs_dir)
    inputs, _, ref_s = clock.around(once)
    return ref_s, inputs


# --- one op ------------------------------------------------------------------


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one motionmimic.cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback the CLI let escape counts as a failed call
        code = 1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def file_bytes(paths):
    return sum(p.stat().st_size for p in paths if p.is_file())


def run_op(mm, w, inp, out, inputs_dir, clock):
    """Run and check one op; returns a dict describing it.

    With a clock, each call is also scaled to reference seconds; without
    one (traced runs) only wall times are kept.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    steps = workloads.op_steps(w, inp, out, inputs_dir)
    op = {"input": inp.index, "ok": False, "stage_s": {}, "op_s": 0.0,
          "stage_ref_s": {}, "op_ref_s": 0.0}
    stdout = {}
    for step in steps:
        if clock is not None:
            (code, text, err), secs, ref = clock.call(call_cli, mm.cli, step.argv)
            op["stage_ref_s"][step.stage] = ref
            op["op_ref_s"] += ref
        else:
            start = time.perf_counter()
            code, text, err = call_cli(mm.cli, step.argv)
            secs = time.perf_counter() - start
        op["stage_s"][step.stage] = secs
        op["op_s"] += secs
        stdout[step.stage] = text
        if code != 0:
            op["reason"] = f"{step.stage} exited {code}: {err.strip()[-400:]}"
            return op
    try:
        op["outcome"] = workloads.check_op(w, inp, out, stdout)
    except Exception as exc:  # any unreadable or wrong output fails the op, not the run
        op["reason"] = f"check failed: {type(exc).__name__}: {exc}"
        return op
    op["ok"] = True
    op["bytes_read"] = sum(file_bytes(s.reads) for s in steps)
    op["bytes_written"] = sum(file_bytes(s.writes) for s in steps)
    return op


# --- run ---------------------------------------------------------------------


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_input(ops, key):
    """Median over distinct inputs of a deterministic per-op outcome."""
    first = {}
    for op in ops:
        if op["ok"] and op["input"] not in first:
            first[op["input"]] = getattr(op["outcome"], key)
    return median_or_zero(list(first.values()))


def digest_record(ops, reference):
    """Digests per input, repeats that changed, and the comparison to reference."""
    digests, repeat_changed = {}, []
    for op in ops:
        if not op["ok"]:
            continue
        key = f"input{op['input']}"
        got = op["outcome"].digests
        if key not in digests:
            digests[key] = got
        elif digests[key] != got:
            repeat_changed.append(key)
    record = {"digests": digests, "repeat_changed": sorted(set(repeat_changed))}
    if reference is None:
        record["vs_reference"] = "no reference for this seed"
    else:
        changed = [f"{key}.{name}" for key, got in digests.items() if key in reference
                   for name, value in got.items() if reference[key].get(name) != value]
        record["vs_reference"] = "changed" if changed else "match"
        record["changed"] = changed
    return record


def end_to_end(w, ops, setup_times, clock, record):
    # The first op pays one-time costs (first BLAS calls, first-touch
    # page faults); it is checked but not timed.
    done = [op for op in ops[WARMUP_OPS:] if op["ok"]]
    timed = sum(op["op_s"] for op in ops[WARMUP_OPS:])
    make = "ingest" if w.pipeline == "walk" else "gen"
    record["wall"] = {
        "ops_per_s": len(done) / timed if timed else 0.0,
        "op_p50_s": median_or_zero([op["op_s"] for op in done]),
        "op_min_s": min((op["op_s"] for op in done), default=0.0),
    }
    record["probe_slowdown"] = {"run": clock.slowdown(clock.probes),
                                "probes": len(clock.probes)}
    record["setup_ref_s"] = [round(t, 6) for t in setup_times]
    return {
        "setup_s": statistics.median(setup_times),
        "op_ref_s": median_or_zero([op["op_ref_s"] for op in done]),
        "dataset_ref_s": median_or_zero([op["stage_ref_s"][make] for op in done]),
        "simulate_ref_s": median_or_zero([op["stage_ref_s"]["simulate"] for op in done]),
        "tracking_rms_rad": per_input(ops, "tracking_rms"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, traced, record):
    """Medians over traced ops of the per-op layer numbers, plus computed counts."""
    per_op = [tracing.op_layer_metrics(t["per"]) for t in traced]
    names = tracing.op_layer_metrics({}).keys()
    counts = [name for name in names if name.endswith(COUNT_SUFFIXES)]
    out = {name: median_or_zero([m[name] for m in per_op]) for name in names}
    out.update({name: statistics.median_low([m[name] for m in per_op]) if per_op else 0
                for name in counts})
    record["count_mismatch"] = sorted(name for name in counts if len({m[name] for m in per_op}) > 1)
    pooled = {name: [d for t in traced for d in t["durations"].get(name, [])]
              for name in tracing.PERCENTILE_SPANS}
    out["network.forward_backward.p50_us"] = tracing.percentile_us(pooled["network.forward_backward"], 50)
    out["network.forward_backward.p90_us"] = tracing.percentile_us(pooled["network.forward_backward"], 90)
    out["optimizer.adam_step.p50_us"] = tracing.percentile_us(pooled["optimizer.adam_step"], 50)

    done = [op for op in ops if op["ok"]]
    arch = done[0]["outcome"].arch if done else []
    flops = workloads.flops_per_step(arch, done[0]["outcome"].rows) if arch else 0
    out["network.flops_per_step"] = flops
    out["network.gflops"] = median_or_zero(
        [flops * m["network.forward_backward.calls"] / m["network.forward_backward.s"] / 1e9
         for m in per_op if m["network.forward_backward.s"]])
    out["optimizer.adam_step.bytes_per_step"] = workloads.adam_bytes_per_step(arch) if arch else 0
    out["io.bytes_read_per_op"] = median_or_zero([op["bytes_read"] for op in done])
    out["io.bytes_written_per_op"] = median_or_zero([op["bytes_written"] for op in done])
    out["final_mae_rad"] = per_input(ops, "mae")
    out["end_time_error_samples"] = per_input(ops, "end_error")
    out["failed_op_ratio"] = (len(ops) - len(done)) / len(ops)

    plain = [op["op_s"] for i, op in enumerate(ops) if i % 2 == 0 and op["ok"]]
    with_spans = [op["op_s"] for i, op in enumerate(ops) if i % 2 == 1 and op["ok"]]
    untraced = len(plain) / sum(plain) if plain else 0.0
    traced_rate = len(with_spans) / sum(with_spans) if with_spans else 0.0
    out["trace.untraced_ops_per_s"] = untraced
    out["trace.traced_ops_per_s"] = traced_rate
    out["trace.overhead_pct"] = 100.0 * (untraced / traced_rate - 1.0) if traced_rate else 0.0
    return out


def run_workload(w, seed, seconds, trace):
    """Set up, run the closed loop, and return (result, record)."""
    workdir = WORK / f"{w.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs_dir, op_dir = workdir / "inputs", workdir / "op"
    clock = calibrate.Clock(w.dataset_rows)
    first_setup, inputs = setup(w, seed, inputs_dir, clock)
    setup_times = [first_setup]
    # The untraced run repeats the set-up (rewriting identical inputs)
    # at even intervals between ops, so its median spans the whole run
    # rather than one phase of a shared host.
    setups = 1 if trace else SETUP_REPEATS
    mm = load_program()
    tracer = tracing.Tracer(mm) if trace else None

    ops, traced, first_spans = [], [], None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup_times) < setups and elapsed >= len(setup_times) * seconds / setups:
            setup_times.append(setup(w, seed, inputs_dir, clock)[0])
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(ops) >= w.pool):
            break
        with_spans = trace and len(ops) % 2 == 1
        if with_spans:
            tracer.install()
        try:
            op = run_op(mm, w, inputs[len(ops) % w.pool], op_dir, inputs_dir,
                        None if trace else clock)
        finally:
            if with_spans:
                tracer.uninstall()
        if with_spans:
            spans = tracer.take()
            if first_spans is None:
                first_spans = (len(ops), spans)
            per, durations = tracing.fold(spans)
            traced.append({"per": per, "durations": durations})
        ops.append(op)
    while len(setup_times) < setups:
        setup_times.append(setup(w, seed, inputs_dir, clock)[0])

    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "attempted": len(ops), "failed": sum(not op["ok"] for op in ops),
        "failures": [f"op {i}: {op['reason']}" for i, op in enumerate(ops) if not op["ok"]][:5],
        "op_s": [round(op["op_s"], 6) for op in ops],
        "stage_s": per_stage(ops, "stage_s"),
        "op_ref_s": [round(op["op_ref_s"], 6) for op in ops],
        "stage_ref_s": per_stage(ops, "stage_ref_s"),
        "computed": list(COMPUTED),
    }
    reference = json.loads((HERE / "reference_digests.json").read_text()).get(w.name, {}).get(str(seed))
    record.update(digest_record(ops, reference))
    if trace:
        metrics = per_layer(ops, traced, record)
        if first_spans is not None:
            write_spans(workdir / "spans.jsonl", *first_spans)
            record["spans_file"] = str((workdir / "spans.jsonl").relative_to(ROOT))
    else:
        metrics = end_to_end(w, ops, setup_times, clock, record)
    shutil.rmtree(inputs_dir, ignore_errors=True)
    shutil.rmtree(op_dir, ignore_errors=True)
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    units = metric_units()
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    return result, record


def per_stage(ops, key):
    """{stage: [seconds of each op]} from each op's dict under key."""
    stages = max((op["stage_s"] for op in ops), key=len, default={})
    return {stage: [round(op[key].get(stage, 0.0), 6) for op in ops] for stage in stages}


def write_spans(path, op_index, spans):
    with open(path, "w") as f:
        for idx, (name, start, end, parent, raised, _) in enumerate(spans):
            f.write(json.dumps({"op": op_index, "id": idx, "parent": parent, "name": name,
                                "start_ns": start, "end_ns": end, "raised": raised}) + "\n")


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- environment -------------------------------------------------------------


def blas_threads_in_effect():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_effect(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motionmimic" / "__init__.py").is_file():
        print(f"error: no motionmimic sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, record = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


sys.dont_write_bytecode = True
pin_blas_threads()
import calibrate  # noqa: E402  (numpy must load after the BLAS pin)
import tracing  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
