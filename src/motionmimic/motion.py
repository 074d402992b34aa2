"""Keyframe movements: validation, timing semantics, and playback poses.

A movement is its keyframe times, one (steps,) array, and the postures
to reach at them, one (steps, joints) array, plus a speed rate.
Playback rescales time as playback_time = keyframe_time / speed_rate,
so rates above 1 play the movement faster.  A movement is checked and
splined once, when it is built: poses between keyframes come from one
natural cubic spline through every joint's keyframes, evaluated on a
whole grid of playback times at once.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MimicError
from .spline import CubicSpline, build_spline
from .textio import LineReader, read_lines

MAX_ANGLE = 1e6  # radians; a joint value beyond it is unusable, whatever produced it


def check_angles(values, what: str):
    """Raise MimicError unless every value is within MAX_ANGLE (NaN is not)."""
    peak = np.abs(values).max(initial=0.0)
    if not peak <= MAX_ANGLE:
        raise MimicError(f"{what} reaches {peak:.6g}, beyond the {MAX_ANGLE:g} rad bound")


@dataclass(frozen=True, eq=False)
class KeyframeMovement:
    """Keyframe times (steps,) and postures (steps, joints), played at speed_rate.

    Building one validates it (see validate_movement) and builds its
    spline; keyframes too close for their postures raise MimicError
    from build_spline.
    """

    times: np.ndarray
    joints: np.ndarray
    speed_rate: float = 1.0
    spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "joints", np.asarray(self.joints, dtype=float))
        validate_movement(self)
        object.__setattr__(self, "spline", build_spline(self.times, self.joints))


def validate_movement(m: KeyframeMovement):
    """Raise one MimicError naming every movement rule m breaks.

    m.joints holds one row per step time, as parse_movement builds it.
    """
    t, q = m.times, m.joints
    bad = []
    if len(t) < 2:
        bad.append(("step-count", "movement needs at least 2 keyframe steps"))
    if q.ndim == 2 and q.shape[1] == 0:
        bad.append(("no-joints", "keyframes must hold at least one joint angle"))
    if not np.all(np.isfinite(q)):
        bad.append(("finite-angles", "joint angles must be finite"))
    if not np.all(np.isfinite(t)):
        bad.append(("finite-times", "step times must be finite"))
    else:
        if np.any(t[:1] != 0.0):
            bad.append(("first-step-time", "first step time must be 0"))
        if np.any(np.diff(t) <= 0):
            bad.append(("times-increasing", "times strictly increasing"))
    if not 0 < m.speed_rate < np.inf:  # errors.require_positive's rule and wording
        bad.append(("speed-rate", f"speed rate must be positive and finite, got {m.speed_rate}"))
    if bad:
        detail = "; ".join(f"{rule}: {msg}" for rule, msg in bad)
        raise MimicError(f"invalid movement: {detail}")


MAX_GRID_SAMPLES = 1_000_000  # about 5.5 hours at 50 Hz


def grid_size(span: float, rate: float) -> int:
    """Samples of the uniform grid 0, 1/rate, ... that reach span (1e-9 slack).

    Raises MimicError unless the count is finite and between 1 and
    MAX_GRID_SAMPLES, so an absurd duration or rate is an input error
    rather than an overflow or a huge allocation.
    """
    last = np.floor(float(span) * float(rate) + 1e-9)
    if not 0 <= last < MAX_GRID_SAMPLES:
        count = int(last) + 1 if np.isfinite(last) else last
        raise MimicError(
            f"a grid over {span} s at {rate} Hz needs {count} samples; "
            f"allowed are 1 to {MAX_GRID_SAMPLES}"
        )
    return int(last) + 1


def playback_duration(m: KeyframeMovement) -> float:
    """Wall-clock duration of the movement: last keyframe time / speed rate."""
    # Python floats: a tiny rate gives inf, which grid_size refuses, not a numpy warning
    return float(m.times[-1]) / float(m.speed_rate)


def poses(m: KeyframeMovement, times) -> np.ndarray:
    """Interpolated joint postures, one row per playback time.

    times is a float64 array of playback times, each in [0,
    playback_duration(m)], so the spline is evaluated only inside its
    knots; playback_grid, the one program caller, passes its grid
    clamped into that range.  Postures beyond MAX_ANGLE (the spline can
    overshoot far past close keyframes) raise MimicError.
    """
    # guard the end knot against rounding in t * speed_rate
    with np.errstate(over="ignore", invalid="ignore"):  # check_angles reports it
        out = m.spline.eval(np.minimum(times * m.speed_rate, m.times[-1]))
    check_angles(out, "the movement's joint angle")
    return out


def playback_grid(m: KeyframeMovement, rate: float):
    """The movement on the grid 0, 1/rate, ...: (times, poses, end).

    times are the grid_size samples that reach the playback duration and
    poses the postures there, a time past the end clamped to it.  end
    is the index of the first sample at or after the end (1e-12 s
    slack): the last grid sample, or else the one after it.  This is the
    one place a movement's grid and its end are laid out.
    """
    duration = playback_duration(m)
    times = np.arange(grid_size(duration, rate)) / rate
    end = len(times) - bool(times[-1] >= duration - 1e-12)
    return times, poses(m, np.minimum(times, duration)), end


def reference_pose(m: KeyframeMovement, t: float) -> np.ndarray:
    """Interpolated joint posture at playback time t; see poses."""
    return poses(m, np.array([t], dtype=float))[0]


# --- movement file format -------------------------------------------------

MOVEMENT_HEADER = "movement n=<int> gamma=<int> rate=<float>"
STEP = "t=<float> <text>"  # the text holds the n joint angles


def parse_movement(lines) -> KeyframeMovement:
    lines = LineReader(lines)
    n, gamma, rate = lines.record(MOVEMENT_HEADER)
    times, joints = [], []
    while lines.more():
        t, angles = lines.record(STEP)
        times.append(t)
        joints.append(lines.numbers(n, "joint", angles))
    if len(times) != gamma:
        lines.fail(f"header declares gamma={gamma} but found {len(times)} steps")
    return KeyframeMovement(times, joints, speed_rate=rate)


def load_movement(path) -> KeyframeMovement:
    return parse_movement(read_lines(path))
