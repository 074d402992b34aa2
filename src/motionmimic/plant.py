"""Speed-controlled joint plant under proportional control.

The simulated joints take speed commands; a proportional controller
turns position references into clamped speed commands, and the plant
integrates them with explicit Euler at the control tick rate.  Fast
references above the plant's bandwidth come out attenuated, which is
the qualitative gap between desired and attained joint curves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MimicError, require_positive
# reference_pose is not called here; bench/tracing.py looks it up on this module
from .motion import KeyframeMovement, playback_grid, reference_pose
from .textio import write_table
from .trainer import rollout

# a joint counts as attenuated when it loses more than 5% of amplitude
ATTENUATION_RATIO = 0.95


@dataclass(frozen=True)
class PlantConfig:
    """Controller gain (1/s) and speed limit (rad/s), shared by every joint, and tick rate (Hz)."""

    kp: float = 25.0
    max_speed: float = 7.0
    tick_rate: float = 50.0

    def __post_init__(self):
        for what, value in (("tick rate", self.tick_rate), ("kp", self.kp),
                            ("max speed", self.max_speed)):
            require_positive(what, value)
        # discrete-time stability: the error recurrence 1 - kp/tick_rate
        # must stay inside (-1, 1]
        if self.kp >= 2.0 * self.tick_rate:
            raise MimicError(
                f"kp must stay below 2 * tick_rate = {2.0 * self.tick_rate} for stability"
            )


@dataclass
class SimulationResult:
    times: np.ndarray
    desired: np.ndarray
    attained: np.ndarray
    overall_rms: float
    attenuated: bool


def step(positions: np.ndarray, references: np.ndarray, cfg: PlantConfig) -> np.ndarray:
    """The joint positions one tick later, driven toward the reference posture.

    The speed command is clamp(kp * (reference - position), +/-max_speed).
    """
    speed = np.clip(cfg.kp * (references - positions), -cfg.max_speed, cfg.max_speed)
    return positions + speed / cfg.tick_rate


def reference_stream(source, tick_rate: float):
    """Tick times and per-tick reference postures for a movement, else a trained model."""
    if isinstance(source, KeyframeMovement):
        return playback_grid(source, tick_rate)[:2]
    ro = rollout(source, tick_rate)
    return ro.times, ro.joints


def simulate(source, cfg: PlantConfig) -> SimulationResult:
    """Run the plant open-loop along the source's reference trajectory.

    The plant starts at the first reference.  The attained position is
    recorded at each tick before the tick's reference is applied, so a
    perfectly tuned plant still trails the reference by one tick.
    """
    times, desired = reference_stream(source, cfg.tick_rate)
    # step's arithmetic in place on one speed buffer; every operand is an array,
    # and the maximum/minimum pair is faster than np.clip(out=)
    kp, high, rate = (np.asarray(v, dtype=float) for v in (cfg.kp, cfg.max_speed, cfg.tick_rate))
    low = -high
    speed = np.empty(desired.shape[1:])
    attained = np.empty_like(desired)
    attained[0] = desired[0]
    for ref, now, nxt in zip(desired, attained, attained[1:]):
        np.subtract(ref, now, out=speed)
        np.multiply(kp, speed, out=speed)
        np.maximum(speed, low, out=speed)
        np.minimum(speed, high, out=speed)
        np.divide(speed, rate, out=speed)
        np.add(now, speed, out=nxt)

    err = desired - attained
    des_amp = 0.5 * (desired.max(axis=0) - desired.min(axis=0))
    att_amp = 0.5 * (attained.max(axis=0) - attained.min(axis=0))
    return SimulationResult(times, desired, attained, float(np.sqrt(np.mean(err * err))),
                            bool(np.any(att_amp < ATTENUATION_RATIO * des_amp - 1e-12)))


def save_comparison(result: SimulationResult, joint_names, path):
    """CSV with per-joint desired and attained columns, one row per tick."""
    header = ["time"] + [f"{n}_{side}" for n in joint_names for side in ("desired", "attained")]
    table = np.empty((len(result.times), 1 + 2 * result.desired.shape[1]))
    table[:, 0], table[:, 1::2], table[:, 2::2] = result.times, result.desired, result.attained
    write_table(path, header, table)
