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

from motionmimic.motion import KeyframeMovement
from motionmimic.optimizer import TrainingSchedule

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MM = types.SimpleNamespace(
    cli=motionmimic.cli, trainer=motionmimic.trainer, plant=motionmimic.plant,
    motion=motionmimic.motion, network=motionmimic.network, spline=motionmimic.spline,
    errors=motionmimic.errors,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_patch_point_resolves():
    points = load_tracing().patch_points(MM)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in points
               if not callable(getattr(owner, attr, None))]
    assert points
    assert not missing


def test_traced_train_and_rollout_record_the_network_spans():
    # the per-layer numbers of the benchmark read these spans; a name the
    # program stops looking up would read 0 calls without an error
    tracing = load_tracing()
    movement = KeyframeMovement([0.0, 0.5, 1.0], [[0.0], [0.4], [0.1]])
    ds = motionmimic.trainer.sample_movement(movement, 20.0)
    tracer = tracing.Tracer(MM)
    tracer.install()
    try:
        model, _ = motionmimic.trainer.train(ds, arch=[1, 4, 2],
                                             schedule=TrainingSchedule([(3, 0.001)]))
        motionmimic.trainer.rollout(model, 20.0)
    finally:
        tracer.uninstall()
    per, _ = tracing.fold(tracer.take())
    for name in ("network.forward_backward", "network.leaky_relu", "optimizer.adam_step",
                 "network.forward"):
        assert per[name][0] >= 1, name


def test_tracer_installed_after_a_call_still_sees_every_span(tmp_path, capsys):
    # main builds its parser once per process; a parser that kept the stage
    # functions would run the unwrapped cmd_gen after the first call
    (tmp_path / "demo.mov").write_text("movement n=1 gamma=2 rate=1\nt=0 0\nt=1 0.5\n")
    argv = ["gen", "--movement", str(tmp_path / "demo.mov"), "--out", str(tmp_path / "d.csv")]
    assert motionmimic.cli.main(argv) == 0
    tracing = load_tracing()
    tracer = tracing.Tracer(MM)
    tracer.install()
    try:
        assert motionmimic.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    per, _ = tracing.fold(tracer.take())
    for name in ("cli.main", "cli.gen", "motion.load_movement", "trainer.save_dataset"):
        assert per[name][0] == 1, name
    assert motionmimic.cli.build_parser() is motionmimic.cli.build_parser()
