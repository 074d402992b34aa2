"""Speed-controlled joint plant under per-joint proportional control.

The simulated joints take speed commands; a proportional controller
turns position references into clamped speed commands, and the plant
integrates them with explicit Euler at the control tick rate.  Fast
references above the plant's bandwidth come out attenuated, which is
the qualitative gap between desired and attained joint curves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
# reference_pose is not called here; bench/tracing.py looks it up on this module
from .motion import KeyframeMovement, grid_size, playback_duration, poses, reference_pose
from .textio import format_table
from .trainer import TrainedModel, rollout

# a joint counts as attenuated when it loses more than 5% of amplitude
ATTENUATION_RATIO = 0.95


@dataclass
class PlantConfig:
    """Controller gain (1/s), speed limit (rad/s), and tick rate (Hz).

    kp and max_speed may be scalars or per-joint arrays.
    """

    kp: np.ndarray = 25.0
    max_speed: np.ndarray = 7.0
    tick_rate: float = 50.0

    def __post_init__(self):
        self.kp = np.asarray(self.kp, dtype=float)
        self.max_speed = np.asarray(self.max_speed, dtype=float)
        if self.tick_rate <= 0 or not np.isfinite(self.tick_rate):
            raise ConfigError("tick rate must be positive")
        if np.any(self.kp <= 0) or not np.all(np.isfinite(self.kp)):
            raise ConfigError("kp must be positive")
        if np.any(self.max_speed <= 0) or not np.all(np.isfinite(self.max_speed)):
            raise ConfigError("max speed must be positive")
        # discrete-time stability: the error recurrence 1 - kp/tick_rate
        # must stay inside (-1, 1]
        if np.any(self.kp >= 2.0 * self.tick_rate):
            raise ConfigError(
                f"kp must stay below 2 * tick_rate = {2.0 * self.tick_rate} for stability"
            )


@dataclass
class PlantState:
    """Joint positions (radians) at a simulation time."""

    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)


@dataclass
class TrackingReport:
    per_joint_max: np.ndarray
    per_joint_rms: np.ndarray
    overall_rms: float
    desired_amplitude: np.ndarray
    attained_amplitude: np.ndarray
    attenuated: bool


@dataclass
class SimulationResult:
    times: np.ndarray
    desired: np.ndarray
    attained: np.ndarray
    report: TrackingReport


def p_command(reference, position, kp, max_speed):
    """Proportional speed command clamp(kp * (reference - position), +/-max_speed)."""
    cmd = np.clip(kp * (np.asarray(reference, dtype=float) - position), -max_speed, max_speed)
    return float(cmd) if np.ndim(cmd) == 0 else cmd


def step(state: PlantState, references, cfg: PlantConfig) -> PlantState:
    """Advance the plant one tick toward the reference posture."""
    refs = np.asarray(references, dtype=float)
    if refs.shape != state.positions.shape:
        raise ShapeError(f"references shape {refs.shape} != positions {state.positions.shape}")
    if cfg.kp.ndim > 0 and cfg.kp.shape != refs.shape:
        raise ShapeError(f"per-joint kp shape {cfg.kp.shape} != joints {refs.shape}")
    if cfg.max_speed.ndim > 0 and cfg.max_speed.shape != refs.shape:
        raise ShapeError(f"per-joint max_speed shape {cfg.max_speed.shape} != joints {refs.shape}")
    speed = p_command(refs, state.positions, cfg.kp, cfg.max_speed)
    return PlantState(state.positions + speed / cfg.tick_rate, state.time + 1.0 / cfg.tick_rate)


def reference_stream(source, tick_rate: float):
    """Tick times and per-tick reference postures for a movement or model."""
    if isinstance(source, KeyframeMovement):
        duration = playback_duration(source)
        times = np.arange(grid_size(duration, tick_rate)) / tick_rate
        return times, poses(source, np.minimum(times, duration))
    if isinstance(source, TrainedModel):
        ro = rollout(source, tick_rate)
        return ro.times, ro.joints
    raise ConfigError(f"cannot simulate a {type(source).__name__}")


def simulate(source, cfg: PlantConfig, initial: PlantState = None) -> SimulationResult:
    """Run the plant open-loop along the source's reference trajectory.

    The attained position is recorded at each tick before the tick's
    reference is applied, so a perfectly tuned plant still trails the
    reference by one tick.  initial defaults to the first reference.
    """
    times, desired = reference_stream(source, cfg.tick_rate)
    state = initial if initial is not None else PlantState(desired[0].copy(), float(times[0]))
    if state.positions.shape != desired[0].shape:
        raise ShapeError(
            f"initial state has {state.positions.shape} joints, source {desired[0].shape}"
        )
    attained = np.empty_like(desired)
    for k in range(len(times)):
        attained[k] = state.positions
        state = step(state, desired[k], cfg)

    err = desired - attained
    per_joint_max = np.max(np.abs(err), axis=0)
    per_joint_rms = np.sqrt(np.mean(err * err, axis=0))
    overall_rms = float(np.sqrt(np.mean(err * err)))
    des_amp = 0.5 * (desired.max(axis=0) - desired.min(axis=0))
    att_amp = 0.5 * (attained.max(axis=0) - attained.min(axis=0))
    attenuated = bool(np.any(att_amp < ATTENUATION_RATIO * des_amp - 1e-12))
    report = TrackingReport(per_joint_max, per_joint_rms, overall_rms, des_amp, att_amp, attenuated)
    return SimulationResult(times, desired, attained, report)


def format_comparison(result: SimulationResult, joint_names) -> str:
    """CSV with per-joint desired and attained columns, one row per tick."""
    if len(joint_names) != result.desired.shape[1]:
        raise ShapeError(f"{len(joint_names)} names for {result.desired.shape[1]} joints")
    header = ["time"] + [f"{n}_{side}" for n in joint_names for side in ("desired", "attained")]
    table = np.empty((len(result.times), len(header)))
    table[:, 0], table[:, 1::2], table[:, 2::2] = result.times, result.desired, result.attained
    return format_table(header, table)


def save_comparison(result: SimulationResult, joint_names, path):
    with open(path, "w") as f:
        f.write(format_comparison(result, joint_names))
