"""Outside-in spans around the program's public functions.

Each patch replaces a name where the program looks it up (a module
global, or the CubicSpline.eval class attribute) with a wrapper that
records (name, start_ns, end_ns, parent, raised, value).  Spans stay in
memory; the harness folds each op's spans into per-layer numbers and
keeps the raw spans of the first traced op to write out at the end.
"""

import statistics
import time
from collections import defaultdict
from pathlib import Path

STAGES = ("gen", "ingest", "train", "eval", "rollout", "simulate")
MODULES = ("cli", "motion", "spline", "trainer", "network", "optimizer", "plant")
PERCENTILE_SPANS = ("network.forward_backward", "optimizer.adam_step")
BUNDLE_FILES = ("weights.txt", "model.meta")  # what save_model writes and load_model reads


def _path_bytes(index):
    """Size in bytes of the file, or model bundle directory, passed as argument index."""
    def measure(args, result):
        path = Path(args[index])
        if path.is_dir():
            return sum((path / name).stat().st_size for name in BUNDLE_FILES)
        return path.stat().st_size
    return measure


def _result_rows(args, result):
    """Rows of a returned dataset or rollout."""
    return len(result.times)


def patch_points(mm):
    """(owner, attribute, span name, measure) for every traced call site."""
    cli, trainer, plant, motion = mm.cli, mm.trainer, mm.plant, mm.motion
    points = [(cli, "main", "cli.main", None)]
    points += [(cli, f"cmd_{s}", f"cli.{s}", None) for s in STAGES]
    points += [
        (cli, "load_movement", "motion.load_movement", None),
        (cli, "validate_movement", "motion.validate_movement", None),
        (cli, "sample_movement", "trainer.sample_movement", _result_rows),
        (cli, "save_dataset", "trainer.save_dataset", _path_bytes(1)),
        (cli, "load_joint_log", "trainer.load_joint_log", None),
        (cli, "ingest_log", "trainer.ingest_log", None),
        (cli, "load_dataset", "trainer.load_dataset", _path_bytes(0)),
        (cli, "train", "trainer.train", None),
        (cli, "save_model", "trainer.save_model", _path_bytes(1)),
        (cli, "save_log", "trainer.save_log", _path_bytes(1)),
        (cli, "evaluate", "trainer.evaluate", None),
        (cli, "load_model", "trainer.load_model", _path_bytes(0)),
        (cli, "rollout", "trainer.rollout", _result_rows),
        (cli, "simulate", "plant.simulate", None),
        (cli, "save_comparison", "plant.save_comparison", _path_bytes(2)),
        (trainer, "forward_backward", "network.forward_backward", None),
        (trainer, "forward", "network.forward", None),
        (trainer, "adam_step", "optimizer.adam_step", None),
        (trainer, "reset_state", "optimizer.reset_state", None),
        (trainer, "reference_pose", "motion.reference_pose", None),
        (trainer, "validate_movement", "motion.validate_movement", None),
        (plant, "reference_pose", "motion.reference_pose", None),
        (plant, "rollout", "trainer.rollout", _result_rows),
        (plant, "step", "plant.step", None),
        (plant, "reference_stream", "plant.reference_stream", None),
        (motion, "validate_movement", "motion.validate_movement", None),
        (motion, "build_spline", "spline.build_spline", None),
        (mm.network, "leaky_relu", "network.leaky_relu", None),
        (mm.spline.CubicSpline, "eval", "spline.eval", None),
    ]
    return points


class Tracer:
    """Installs the wrappers and collects the current op's spans."""

    def __init__(self, mm):
        self.spans = []
        self._stack = [-1]
        self._error = mm.errors.MimicError
        self._points = []
        for owner, attr, name, measure in patch_points(mm):
            original = getattr(owner, attr)
            self._points.append((owner, attr, original, self._wrap(name, original, measure)))

    def _wrap(self, name, fn, measure):
        spans, stack, clock, error = self.spans, self._stack, time.perf_counter_ns, self._error

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            raised = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, raised, 0)
            if measure is not None:
                spans[idx] = (name, start, end, parent, False, measure(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._points:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._points:
            setattr(owner, attr, original)

    def take(self):
        """The spans recorded since the last take, and a fresh buffer."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def fold(spans):
    """Per-name [calls, total_ns, self_ns, raised, value] and per-call durations."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per = defaultdict(lambda: [0, 0, 0, 0, 0])
    durations = defaultdict(list)
    for i, (name, start, end, _, raised, value) in enumerate(spans):
        agg = per[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child[i]
        agg[3] += raised
        agg[4] += value
        if name in PERCENTILE_SPANS:
            durations[name].append(end - start)
    return per, durations


def op_layer_metrics(per):
    """Per-layer numbers of one traced op (times in s, counts per op)."""
    def calls(name):
        return per[name][0] if name in per else 0

    def secs(name):
        return per[name][1] / 1e9 if name in per else 0.0

    def self_secs(name):
        return per[name][2] / 1e9 if name in per else 0.0

    def value(name):
        return per[name][4] if name in per else 0

    out = {"cli.self_s": self_secs("cli.main") + sum(self_secs(f"cli.{s}") for s in STAGES)}
    out.update({f"cli.{s}.s": secs(f"cli.{s}") for s in STAGES})
    out["motion.load_movement.s"] = secs("motion.load_movement")
    out["motion.reference_pose.calls"] = calls("motion.reference_pose")
    out["motion.reference_pose.self_s"] = self_secs("motion.reference_pose")
    out["motion.validate_movement.calls"] = calls("motion.validate_movement")
    for name in ("spline.build_spline", "spline.eval", "network.forward_backward",
                 "network.leaky_relu", "network.forward", "optimizer.adam_step", "plant.step"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    sample_s = secs("trainer.sample_movement")
    out["trainer.sample_movement.s"] = sample_s
    out["trainer.sample_movement.poses_per_s"] = value("trainer.sample_movement") / sample_s if sample_s else 0.0
    for name in ("trainer.load_joint_log", "trainer.ingest_log", "trainer.train",
                 "trainer.evaluate", "trainer.rollout", "plant.simulate", "plant.reference_stream"):
        out[f"{name}.s"] = secs(name)
    out["trainer.train.self_s"] = self_secs("trainer.train")
    out["trainer.train.epochs"] = calls("network.forward_backward")
    out["trainer.rollout.samples"] = value("trainer.rollout")
    for name in ("trainer.save_dataset", "trainer.load_dataset", "trainer.save_log",
                 "trainer.save_model", "trainer.load_model", "plant.save_comparison"):
        out[f"{name}.s"] = secs(name)
        out[f"{name}.bytes"] = value(name)
    out["optimizer.reset_state.calls"] = calls("optimizer.reset_state")
    out["plant.simulate.self_s"] = self_secs("plant.simulate")
    for module in MODULES:
        out[f"{module}.errors"] = sum(agg[3] for name, agg in per.items()
                                      if name.startswith(module + "."))
    return out


def percentile_us(durations_ns, q):
    """q-th percentile (0-100) of pooled call durations, in microseconds."""
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e3
    cuts = statistics.quantiles(durations_ns, n=100, method="inclusive")
    return cuts[q - 1] / 1e3
