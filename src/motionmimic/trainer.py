"""Motion datasets, the phased training loop, and learned-motion evaluation.

A dataset is a uniform time grid of joint targets plus an end flag that
is 0 while the motion is running and 1 from the end onward.  Training
feeds normalized time (scaled into [0, 1] over the dataset span) through
the network with one full-batch Adam step per epoch; the flag is learned
by the same regression and thresholded at 0.5 during rollout.
"""

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    DivergenceError,
    FormatError,
    IngestionError,
    ShapeError,
    ValidationError,
)
# reference_pose and validate_movement are not called here; bench/tracing.py
# looks them up on this module
from .motion import (
    MAX_GRID_SAMPLES,
    KeyframeMovement,
    grid_size,
    playback_duration,
    poses,
    reference_pose,
    validate_movement,
)
from .network import (
    MimicNetwork,
    forward,
    forward_backward,
    initialize,
    load_weights,
    mse_loss,
    save_weights,
)
from .optimizer import TrainingSchedule, adam_init, adam_step, desk_schedule, reset_state
from .textio import LineReader, format_record, format_table, parse_table

DEFAULT_TAIL = 10  # post-end samples that teach the flag transition
DEFAULT_HIDDEN = (75, 50)
MAX_DURATION_FACTOR = 2.0  # a sweep whose flag never crosses stops at twice the span to the end


def default_joint_names(n: int) -> list:
    return [f"j{i + 1}" for i in range(n)]


@dataclass
class MotionDataset:
    """Uniform-rate samples of joint targets plus the end flag.

    targets has one row per sample: n joint angles (radians) followed by
    the end flag.  periodic datasets carry a constant-zero flag.
    """

    times: np.ndarray
    targets: np.ndarray
    sample_rate: float
    joint_names: list = None
    name: str = ""
    periodic: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.times.ndim != 1 or self.targets.ndim != 2:
            raise ShapeError("times must be 1-D and targets 2-D")
        if len(self.times) != len(self.targets):
            raise ShapeError(f"{len(self.times)} times vs {len(self.targets)} target rows")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.targets))):
            raise ValidationError("dataset times and targets must be finite")
        if len(self.times) < 2 or self.targets.shape[1] < 2:
            raise ValidationError("dataset needs at least 2 samples and 1 joint + end flag")
        _check_rate(self.sample_rate)
        deltas = np.diff(self.times)
        if np.any(np.abs(deltas - 1.0 / self.sample_rate) > 1e-9):
            raise ValidationError("sample times must be uniform at 1/rate")
        flags = self.targets[:, -1]
        if not np.all((flags == 0.0) | (flags == 1.0)):
            raise ValidationError("end flag must be 0 or 1")
        if np.any(np.diff(flags) < 0):
            raise ValidationError("end flag must never fall back to 0")
        if self.periodic and np.any(flags != 0.0):
            raise ValidationError("periodic datasets must have a constant-zero end flag")
        if self.joint_names is None:
            self.joint_names = default_joint_names(self.n_joints)
        if len(self.joint_names) != self.n_joints:
            raise ShapeError(f"{len(self.joint_names)} joint names for {self.n_joints} joints")

    @property
    def n_joints(self) -> int:
        return self.targets.shape[1] - 1

    @property
    def joints(self) -> np.ndarray:
        return self.targets[:, :-1]

    @property
    def flags(self) -> np.ndarray:
        return self.targets[:, -1]

    @property
    def time_offset(self) -> float:
        return float(self.times[0])

    @property
    def time_scale(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def duration(self) -> float:
        """Motion end: time of the first flagged sample, or the last sample."""
        flagged = np.nonzero(self.flags >= 0.5)[0]
        return float(self.times[flagged[0]] if len(flagged) else self.times[-1])

    def normalized_times(self) -> np.ndarray:
        return (self.times - self.time_offset) / self.time_scale


@dataclass
class TrainingLog:
    """Per-epoch training records; losses are the pre-update batch values."""

    epochs: np.ndarray
    phases: np.ndarray
    lrs: np.ndarray
    mses: np.ndarray
    maes: np.ndarray

    def __len__(self):
        return len(self.epochs)


@dataclass
class TrainedModel:
    """Frozen network plus the dataset constants needed to replay it."""

    network: MimicNetwork
    name: str
    n_joints: int
    duration: float
    sample_rate: float
    time_offset: float
    time_scale: float
    periodic: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.time_offset) and np.isfinite(self.time_scale)):
            raise ValidationError("normalization constants must be finite")
        if self.time_scale <= 0:
            raise ValidationError("time scale must be positive")
        for what, value in (("duration", self.duration), ("sample rate", self.sample_rate)):
            if not 0 < value < np.inf:
                raise ValidationError(f"{what} must be positive and finite, got {value}")
        if self.network.output_dim != self.n_joints + 1:
            raise ShapeError(
                f"network emits {self.network.output_dim} values, expected {self.n_joints + 1}"
            )

    def predict(self, times) -> np.ndarray:
        """Joint + flag outputs at the given playback times."""
        ts = np.asarray(times, dtype=float)
        x = (ts - self.time_offset) / self.time_scale
        if np.ndim(times) == 0:
            return forward(self.network, np.array([float(x)]))
        return forward(self.network, x[:, None])


@dataclass
class EvalReport:
    mse: float
    mae: float
    per_joint_mae: np.ndarray
    end_time_error: int


@dataclass
class Rollout:
    """Inference sweep: stops at the first flag >= 0.5 or at the time cap."""

    times: np.ndarray
    joints: np.ndarray
    flags: np.ndarray
    end_detected: bool


def sample_movement(m: KeyframeMovement, rate: float, tail: int = DEFAULT_TAIL) -> MotionDataset:
    """Sample a movement's reference poses on a uniform grid.

    Grid points run from 0 to the playback duration; the end flag is 0
    strictly before the end and 1 from the end onward.  tail extra
    samples hold the final keyframe with flag 1 so the transition is
    represented in the data.  Even with tail=0 the grid reaches the first
    sample at or after the end, so the last sample is always flagged.
    """
    _check_rate(rate)
    _check_tail(tail)
    duration = playback_duration(m)
    count = grid_size(duration, rate)
    end = int(np.ceil((duration - 1e-12) * rate))
    times = np.arange(max(count + tail, end + 1)) / rate
    n = m.n_joints
    targets = np.empty((len(times), n + 1))
    targets[:count, :n] = poses(m, np.minimum(times[:count], duration))
    targets[count:, :n] = m.steps[-1].joints
    targets[:, n] = times >= duration - 1e-12
    return MotionDataset(times, targets, rate, name=m.name)


def _check_rate(rate):
    if not 0 < rate < np.inf:
        raise ValidationError("rate must be positive and finite")


def _check_tail(tail):
    if not 0 <= tail <= MAX_GRID_SAMPLES:
        raise ValidationError(f"tail must be 0 to {MAX_GRID_SAMPLES} samples, got {tail}")


def ingest_log(times, joints, rate: float, periodic: bool = False, tail: int = 0,
               joint_names=None, name: str = "") -> MotionDataset:
    """Regularize an externally captured (time, joints) log onto a uniform grid.

    Single missing samples are filled by linear interpolation of their
    neighbors; longer gaps are an error.  Periodic logs (one period of a
    cyclic motion) get a constant-zero end flag; otherwise the final
    sample is flagged and tail copies of it may be appended.
    """
    t = np.asarray(times, dtype=float)
    vals = np.asarray(joints, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if t.ndim != 1 or len(t) != len(vals):
        raise ShapeError(f"{len(t)} times vs {len(vals)} joint rows")
    if len(t) < 2:
        raise IngestionError("log needs at least 2 samples")
    _check_rate(rate)
    _check_tail(tail)
    if not np.all(np.isfinite(t)):
        raise IngestionError("sample times must be finite")
    order = np.diff(t)
    if np.any(order <= 0):
        i = int(np.nonzero(order <= 0)[0][0]) + 1
        raise FormatError(f"samples must be sorted by time (violation at record {i}, t={t[i]})")

    grid_size(t[-1] - t[0], rate)  # a bounded grid, before its slots are cast to int
    slots = np.rint((t - t[0]) * rate).astype(int)
    off_grid = np.abs((t - t[0]) * rate - slots)
    if np.any(off_grid > 0.05):
        i = int(np.argmax(off_grid > 0.05))
        raise IngestionError(f"sample at t={t[i]} is off the {rate} Hz grid")
    gaps = np.diff(slots)
    if np.any(gaps == 0):
        i = int(np.argmax(gaps == 0)) + 1
        raise IngestionError(f"two samples share the grid slot at t={t[i]}")
    if np.any(gaps > 2):
        i = int(np.argmax(gaps > 2))
        raise IngestionError(
            f"{gaps[i] - 1} consecutive missing samples between t={t[i]} and t={t[i + 1]}"
        )

    count = int(slots[-1]) + 1
    grid_times = t[0] + np.arange(count + (0 if periodic else tail)) / rate
    n = vals.shape[1]
    rows = np.empty((len(grid_times), n + 1))
    rows[slots, :n] = vals
    for i in np.nonzero(gaps == 2)[0]:
        rows[slots[i] + 1, :n] = 0.5 * (vals[i] + vals[i + 1])
    rows[:, n] = 0.0
    if not periodic:
        rows[count:, :n] = vals[-1]
        rows[count - 1 :, n] = 1.0
    return MotionDataset(grid_times, rows, rate, joint_names=joint_names,
                         name=name, periodic=periodic)


def train(dataset: MotionDataset, arch=None, schedule: TrainingSchedule = None,
          seed: int = 0, alpha: float = 0.01):
    """Fit a network to the dataset; returns (TrainedModel, TrainingLog).

    One epoch is one full-batch Adam step.  When the schedule asks for
    it, the optimizer state is reset at each phase boundary; the weights
    carry over untouched.  Fully deterministic for a fixed seed.
    """
    if schedule is None:
        schedule = desk_schedule()
    n = dataset.n_joints
    sizes = [int(s) for s in arch] if arch is not None else [1, *DEFAULT_HIDDEN, n + 1]
    if sizes[-1] != n + 1:
        raise ShapeError(
            f"network output size {sizes[-1]} must equal joints + end flag = {n + 1}"
        )
    net = initialize(sizes, seed=seed, alpha=alpha)
    # built first, so a dataset the model could not replay fails before training
    model = TrainedModel(
        network=net,
        name=dataset.name,
        n_joints=n,
        duration=dataset.duration,
        sample_rate=dataset.sample_rate,
        time_offset=dataset.time_offset,
        time_scale=dataset.time_scale,
        periodic=dataset.periodic,
    )

    x = dataset.normalized_times()[:, None]
    y = dataset.targets
    params = [net.params]  # every weight and bias, updated in place by one Adam step
    state = adam_init(params)

    total = schedule.total_epochs
    mses = np.empty(total)
    maes = np.empty(total)
    log_phases = schedule.epoch_phases()
    log_lrs = schedule.epoch_lrs()

    epoch = 0
    try:
        for phase_idx, (n_epochs, lr) in enumerate(schedule.phases):
            if phase_idx > 0 and schedule.reset_on_phase:
                state = reset_state(state)
            for _ in range(n_epochs):
                loss, pred, grads = forward_backward(net, x, y)
                if not np.isfinite(loss):
                    raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
                try:
                    adam_step(state, params, [grads.flat], lr)
                except DivergenceError:
                    where = grads.first_nonfinite()
                    raise DivergenceError(f"non-finite gradient in {where}") from None
                mses[epoch] = loss
                maes[epoch] = np.mean(np.abs(pred[:, :n] - y[:, :n]))
                epoch += 1
    except DivergenceError as err:
        partial = TrainingLog(
            np.arange(epoch), log_phases[:epoch], log_lrs[:epoch], mses[:epoch], maes[:epoch]
        )
        raise DivergenceError(
            f"{err}; last finite epoch {epoch - 1}", last_epoch=epoch - 1, log=partial
        ) from None

    log = TrainingLog(np.arange(total), log_phases, log_lrs, mses, maes)
    return model, log


def evaluate_predictions(pred: np.ndarray, dataset: MotionDataset) -> EvalReport:
    """Metrics of arbitrary predictions against a dataset's targets.

    MAE covers the joint outputs only; the end flag enters the MSE but
    is scored separately as the sample-index error of the 0.5 crossing.
    """
    pred = np.asarray(pred, dtype=float)
    if pred.shape != dataset.targets.shape:
        raise ShapeError(f"prediction shape {pred.shape} != targets {dataset.targets.shape}")
    mse = mse_loss(pred, dataset.targets)
    joint_err = np.abs(pred[:, :-1] - dataset.joints)
    per_joint = joint_err.mean(axis=0)
    return EvalReport(
        mse=mse,
        mae=float(joint_err.mean()),
        per_joint_mae=per_joint,
        end_time_error=_flag_index_error(pred[:, -1], dataset.flags),
    )


def _flag_index_error(pred_flags, true_flags):
    pred_idx = _first_crossing(pred_flags)
    true_idx = _first_crossing(true_flags)
    if pred_idx is None and true_idx is None:
        return 0
    if pred_idx is None or true_idx is None:
        return len(pred_flags)
    return abs(pred_idx - true_idx)


def _first_crossing(flags):
    hits = np.nonzero(np.asarray(flags) >= 0.5)[0]
    return int(hits[0]) if len(hits) else None


def evaluate(model: TrainedModel, dataset: MotionDataset) -> EvalReport:
    """Model metrics on a dataset; see evaluate_predictions."""
    if model.n_joints != dataset.n_joints:
        raise ShapeError(f"model has {model.n_joints} joints, dataset {dataset.n_joints}")
    return evaluate_predictions(model.predict(dataset.times), dataset)


def rollout(model: TrainedModel, rate: float) -> Rollout:
    """Sweep the model over time until its end flag crosses 0.5.

    The sweep starts at the dataset's first time and is capped at
    MAX_DURATION_FACTOR times the span from there to the training
    duration (the end time); if the flag never crosses, the capped
    trajectory is returned with end_detected=False.
    """
    _check_rate(rate)
    count = grid_size(MAX_DURATION_FACTOR * (model.duration - model.time_offset), rate)
    times = model.time_offset + np.arange(count) / rate
    pred = model.predict(times)
    flags = pred[:, -1]
    crossed = np.nonzero(flags >= 0.5)[0]
    if len(crossed):
        end = int(crossed[0]) + 1
        return Rollout(times[:end], pred[:end, :-1], flags[:end], end_detected=True)
    return Rollout(times, pred[:, :-1], flags, end_detected=False)


# --- CSV files: dataset, joint log, rollout, training log --------------------


def format_dataset(ds: MotionDataset) -> str:
    return format_table(["time", *ds.joint_names, "end_flag"],
                        np.column_stack([ds.times, ds.targets]))


def parse_dataset(text: str, name: str = "") -> MotionDataset:
    joint_names, table = parse_table(text, "time,<joint names...>,end_flag")
    if len(table) < 2:
        raise FormatError("dataset needs at least 2 samples")
    times, targets = table[:, 0], table[:, 1:]
    if np.any(np.diff(times) <= 0):
        i = int(np.argmax(np.diff(times) <= 0)) + 1
        raise FormatError(f"dataset times must increase (violation at record {i}, t={times[i]})")
    periodic = not np.any(targets[:, -1] >= 0.5)
    return MotionDataset(times, targets, _recover_rate(times), joint_names=joint_names,
                         name=name, periodic=periodic)


def _recover_rate(times: np.ndarray) -> float:
    rate = (len(times) - 1) / float(times[-1] - times[0])
    if not np.isfinite(rate):
        raise FormatError(f"dataset spans {times[-1] - times[0]} s, too short for a sample rate")
    return float(round(rate)) if abs(rate - round(rate)) < 1e-6 else float(rate)


def save_dataset(ds: MotionDataset, path):
    with open(path, "w") as f:
        f.write(format_dataset(ds))


def load_dataset(path) -> MotionDataset:
    with open(path) as f:
        return parse_dataset(f.read(), name=Path(path).stem)


def load_joint_log(path):
    """Read an external log CSV 'time,<joint names...>': (times, joints, names)."""
    with open(path) as f:
        names, table = parse_table(f.read(), "time,<joint names...>")
    return table[:, 0], table[:, 1:], names


def save_rollout(ro: Rollout, joint_names, path):
    """Rollout CSV: the dataset header, one row per swept sample."""
    table = np.column_stack([ro.times, ro.joints, ro.flags])
    Path(path).write_text(format_table(["time", *joint_names, "end_flag"], table))


LOG_HEADER = "epoch,phase,lr,mse,mae"


def format_log(log: TrainingLog) -> str:
    return format_table(LOG_HEADER.split(","),
                        np.column_stack([log.epochs, log.phases, log.lrs, log.mses, log.maes]))


def save_log(log: TrainingLog, path):
    with open(path, "w") as f:
        f.write(format_log(log))


def load_log(path) -> TrainingLog:
    with open(path) as f:
        _, table = parse_table(f.read(), LOG_HEADER)
    counters = table[:, :2]
    if np.any(counters != np.trunc(counters)):
        raise FormatError("training log epoch and phase must be integers")
    return TrainingLog(counters[:, 0].astype(int), counters[:, 1].astype(int),
                       table[:, 2], table[:, 3], table[:, 4])


# --- model bundle: weights file + metadata sidecar ----------------------------

WEIGHTS_FILE = "weights.txt"
META_FILE = "model.meta"
# model.meta holds one line per TrainedModel field after network, in this order
META_RECORDS = ("name=<text>", "n=<int>", "duration=<float>", "rate=<float>",
                "time_offset=<float>", "time_scale=<float>", "periodic=<true|false>")


def save_model(model: TrainedModel, directory):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    save_weights(model.network, d / WEIGHTS_FILE)
    (d / META_FILE).write_text("".join(format_record(record, getattr(model, f.name)) + "\n"
                                       for record, f in zip(META_RECORDS, fields(model)[1:])))


def load_model(directory) -> TrainedModel:
    d = Path(directory)
    network = load_weights(d / WEIGHTS_FILE)
    lines = LineReader((d / META_FILE).read_text())
    values = [lines.record(record)[0] for record in META_RECORDS]
    lines.end()
    return TrainedModel(network, *values)
