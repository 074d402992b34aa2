"""Keyframe movements: validation, timing semantics, and playback poses.

A movement is an ordered list of keyframe steps (joint posture + the
time it must be reached) plus a speed rate.  Playback rescales time as
playback_time = keyframe_time / speed_rate, so rates above 1 play the
movement faster.  Poses between keyframes come from one natural cubic
spline through every joint's keyframes, built lazily and cached on the
movement, and evaluated on a whole grid of playback times at once.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import OutOfRangeError, ValidationError
from .spline import CubicSpline, build_spline
from .textio import LineReader, format_numbers, format_record


@dataclass
class KeyframeStep:
    """One target posture and the movement time at which to reach it."""

    time: float
    joints: np.ndarray

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=float)


@dataclass
class ValidationReport:
    ok: bool
    violations: list  # (rule id, message) pairs


@dataclass
class KeyframeMovement:
    steps: list
    speed_rate: float = 1.0
    name: str = ""
    _spline: CubicSpline = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_joints(self) -> int:
        return len(self.steps[0].joints) if self.steps else 0

    @property
    def step_times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps], dtype=float)


def validate_movement(m: KeyframeMovement, n_joints=None) -> ValidationReport:
    """Check every movement invariant; never raises.

    Returns a report listing all violations, with ok=True iff there are
    none.  Pass n_joints to additionally pin the expected joint count.
    """
    bad = []
    if len(m.steps) < 2:
        bad.append(("step-count", "movement needs at least 2 keyframe steps"))
    dims = {len(s.joints) for s in m.steps}
    if len(dims) > 1:
        bad.append(("joint-dimensions", "all keyframes must have the same number of joints"))
    elif n_joints is not None and dims and dims != {n_joints}:
        bad.append(("joint-count", f"expected {n_joints} joints per keyframe, found {dims.pop()}"))
    elif dims == {0}:
        bad.append(("no-joints", "keyframes must hold at least one joint angle"))
    if not all(np.all(np.isfinite(s.joints)) for s in m.steps):
        bad.append(("finite-angles", "joint angles must be finite"))
    times = [s.time for s in m.steps]
    if not all(np.isfinite(t) for t in times):
        bad.append(("finite-times", "step times must be finite"))
    else:
        if m.steps and times[0] != 0.0:
            bad.append(("first-step-time", "first step time must be 0"))
        if any(b <= a for a, b in zip(times, times[1:])):
            bad.append(("times-increasing", "times strictly increasing"))
    if not (np.isfinite(m.speed_rate) and m.speed_rate > 0):
        bad.append(("speed-rate", "speed rate must be positive"))
    return ValidationReport(ok=not bad, violations=bad)


def _require_valid(m: KeyframeMovement):
    report = validate_movement(m)
    if not report.ok:
        detail = "; ".join(f"{rule}: {msg}" for rule, msg in report.violations)
        raise ValidationError(f"invalid movement: {detail}")


MAX_GRID_SAMPLES = 1_000_000  # about 5.5 hours at 50 Hz


def grid_size(span: float, rate: float) -> int:
    """Samples of the uniform grid 0, 1/rate, ... that reach span (1e-9 slack).

    Raises ValidationError unless the count is finite and between 1 and
    MAX_GRID_SAMPLES, so an absurd duration or rate is an input error
    rather than an overflow or a huge allocation.
    """
    last = np.floor(float(span) * float(rate) + 1e-9)
    if not 0 <= last < MAX_GRID_SAMPLES:
        raise ValidationError(
            f"a grid over {span} s at {rate} Hz needs {last + 1} samples; "
            f"allowed are 1 to {MAX_GRID_SAMPLES}"
        )
    return int(last) + 1


def playback_duration(m: KeyframeMovement) -> float:
    """Wall-clock duration of the movement: last keyframe time / speed rate."""
    movement_splines(m)  # validates m once; its spline is needed to play it anyway
    return m.steps[-1].time / m.speed_rate


def movement_splines(m: KeyframeMovement) -> CubicSpline:
    """One natural cubic spline over keyframe time for all joints, cached on m.

    m is validated when its spline is first built; an invalid movement
    raises ValidationError naming every violated rule, and keyframes too
    close for their postures raise ValidationError from build_spline.
    """
    if m._spline is None:
        _require_valid(m)
        m._spline = build_spline(m.step_times, np.stack([s.joints for s in m.steps]))
    return m._spline


def poses(m: KeyframeMovement, times) -> np.ndarray:
    """Interpolated joint postures, one row per playback time.

    Every time must lie in [0, playback_duration(m)]; open-loop
    movements have a definite end, so out-of-range queries raise
    OutOfRangeError rather than clamp.
    """
    spline = movement_splines(m)
    duration = playback_duration(m)
    ts = np.asarray(times, dtype=float)
    outside = ~((ts >= 0.0) & (ts <= duration))
    if np.any(outside):
        raise OutOfRangeError(f"playback time {ts[outside][0]} outside [0, {duration}]")
    # guard the end knot against rounding in t * speed_rate
    return spline.eval(np.minimum(ts * m.speed_rate, m.steps[-1].time))


def reference_pose(m: KeyframeMovement, t: float) -> np.ndarray:
    """Interpolated joint posture at playback time t; see poses."""
    return poses(m, [t])[0]


# --- movement file format -------------------------------------------------

MOVEMENT_HEADER = "movement n=<int> gamma=<int> rate=<float>"
STEP = "t=<float> <text>"  # the text holds the n joint angles


def format_movement(m: KeyframeMovement) -> str:
    lines = [format_record(MOVEMENT_HEADER, m.n_joints, len(m.steps), m.speed_rate)]
    lines += [format_record(STEP, s.time, format_numbers(s.joints)) for s in m.steps]
    return "\n".join(lines) + "\n"


def parse_movement(text: str, name: str = "") -> KeyframeMovement:
    lines = LineReader(text)
    n, gamma, rate = lines.record(MOVEMENT_HEADER)
    steps = []
    while lines.more():
        t, joints = lines.record(STEP)
        steps.append(KeyframeStep(t, lines.numbers(n, "joint", joints)))
    if len(steps) != gamma:
        lines.fail(f"header declares gamma={gamma} but found {len(steps)} steps")
    return KeyframeMovement(steps, speed_rate=rate, name=name)


def save_movement(m: KeyframeMovement, path):
    Path(path).write_text(format_movement(m))


def load_movement(path) -> KeyframeMovement:
    return parse_movement(Path(path).read_text(), name=Path(path).stem)
