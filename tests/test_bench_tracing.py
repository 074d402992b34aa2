"""The benchmark's per-layer trace wraps program names; each must still resolve."""

import importlib.util
import types
from pathlib import Path

import motionmimic.cli
import motionmimic.errors
import motionmimic.motion
import motionmimic.network
import motionmimic.plant
import motionmimic.spline
import motionmimic.trainer

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_patch_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mm = types.SimpleNamespace(
        cli=motionmimic.cli, trainer=motionmimic.trainer, plant=motionmimic.plant,
        motion=motionmimic.motion, network=motionmimic.network, spline=motionmimic.spline,
        errors=motionmimic.errors,
    )
    points = tracing.patch_points(mm)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in points
               if not callable(getattr(owner, attr, None))]
    assert points
    assert not missing
