"""Motion datasets, the phased training loop, and learned-motion evaluation.

A dataset is a uniform time grid of joint targets plus an end flag that
is 0 while the motion is running and 1 from the end onward.  Training
feeds normalized time (scaled into [0, 1] over the dataset span) through
the network with one full-batch Adam step per epoch; the flag is learned
by the same regression and thresholded at 0.5 during rollout.
"""

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DivergenceError, MimicError, require_positive
# reference_pose and validate_movement are not called here; bench/tracing.py
# looks them up on this module
from .motion import (
    MAX_GRID_SAMPLES,
    KeyframeMovement,
    check_angles,
    grid_size,
    playback_duration,
    poses,
    reference_pose,
    validate_movement,
)
from .network import (
    MimicNetwork,
    epoch_buffers,
    forward,
    forward_backward,
    initialize,
    load_weights,
    mse_loss,
    nonfinite_tensor,
    parameter_count,
    save_weights,
)
from .optimizer import TrainingSchedule, adam_init, adam_step, reset_state
from .textio import LineReader, format_record, format_table, parse_table, read_text, write_text

DEFAULT_TAIL = 10  # post-end samples that teach the flag transition
DEFAULT_HIDDEN = (75, 50)
MAX_DURATION_FACTOR = 2.0  # a sweep whose flag never crosses stops at twice the span to the end
# how far, in ulps, a dataset's rate may lie from its (rows - 1) / span estimate
# and still be found; the estimate's error grows with the grid's start time
RATE_SEARCH_ULPS = 64
# rows x activations per row (the layer widths after the input) of one training
# batch: about 90 times walk1500's 1500 x 148
MAX_BATCH_ACTIVATIONS = 20_000_000


def default_joint_names(n: int) -> list:
    return [f"j{i + 1}" for i in range(n)]


def _first_crossing(flags):
    """Index of the first end flag >= 0.5, or None: the one place the 0.5 rule is written."""
    hits = np.nonzero(flags >= 0.5)[0]
    return int(hits[0]) if len(hits) else None


@dataclass
class MotionDataset:
    """Uniform-rate samples of joint targets plus the end flag.

    targets has one row per sample: n joint angles (radians) followed by
    the end flag.  A periodic dataset is one with no flagged sample.
    """

    times: np.ndarray
    targets: np.ndarray
    sample_rate: float
    joint_names: list = None
    name: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.targets))):
            raise MimicError("dataset times and targets must be finite")
        check_angles(self.targets, "a dataset value")
        if len(self.times) < 2:
            raise MimicError("dataset needs at least 2 samples")
        require_positive("rate", self.sample_rate)
        deltas = np.diff(self.times)
        if np.any(np.abs(deltas - 1.0 / self.sample_rate) > 1e-9):
            raise MimicError("sample times must be uniform at 1/rate")
        flags = self.targets[:, -1]
        if not np.all((flags == 0.0) | (flags == 1.0)):
            raise MimicError("end flag must be 0 or 1")
        if np.any(np.diff(flags) < 0):
            raise MimicError("end flag must never fall back to 0")
        if self.joint_names is None:
            self.joint_names = default_joint_names(self.n_joints)

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
    def periodic(self) -> bool:
        return not np.any(self.flags)

    @property
    def time_offset(self) -> float:
        return float(self.times[0])

    @property
    def time_scale(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def duration(self) -> float:
        """Motion end: time of the first flagged sample, or the last sample."""
        end = _first_crossing(self.flags)
        return float(self.times[-1 if end is None else end])


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
        if not np.isfinite(self.time_offset):
            raise MimicError("normalization constants must be finite")
        for what, value in (("time scale", self.time_scale), ("duration", self.duration),
                            ("sample rate", self.sample_rate)):
            require_positive(what, value)
        if self.network.input_dim != 1:
            raise MimicError(f"network takes {self.network.input_dim} inputs; "
                             "it needs 1, the normalized time")
        if self.network.output_dim != self.n_joints + 1:
            raise MimicError(f"network output size {self.network.output_dim} must equal "
                             f"joints + end flag = {self.n_joints + 1}")
        if "".join(self.name.splitlines()) != self.name:  # model.meta holds it on one line
            raise MimicError(f"model name {self.name!r} must not hold a line break")

    def inputs(self, times) -> np.ndarray:
        """The net's (rows, 1) input: times normalized over the dataset span.

        Training and replay both read it here, so they agree bit for bit.
        """
        return ((np.asarray(times, dtype=float) - self.time_offset) / self.time_scale)[:, None]

    def predict(self, times) -> np.ndarray:
        """Joint + flag outputs at the given playback times."""
        with np.errstate(over="ignore", invalid="ignore"):  # the bound below reports it
            out = forward(self.network, self.inputs(times))
        check_angles(out, "model output")
        return out


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

    @property
    def end_detected(self) -> bool:
        return _first_crossing(self.flags) is not None


def sample_movement(m: KeyframeMovement, rate: float, tail: int = DEFAULT_TAIL) -> MotionDataset:
    """Sample a movement's reference poses on a uniform grid.

    Grid points run from 0 to the playback duration; the end flag is 0
    strictly before the end and 1 from the end onward.  tail extra
    samples hold the final keyframe with flag 1 so the transition is
    represented in the data.  Even with tail=0 the grid reaches the first
    sample at or after the end, so the last sample is always flagged.
    """
    require_positive("rate", rate)
    _check_tail(tail)
    duration = playback_duration(m)
    count = grid_size(duration, rate)
    end = int(np.ceil((duration - 1e-12) * rate))
    times = np.arange(max(count + tail, end + 1)) / rate
    n = m.joints.shape[1]
    targets = np.empty((len(times), n + 1))
    targets[:count, :n] = poses(m, np.minimum(times[:count], duration))
    targets[count:, :n] = m.joints[-1]
    targets[:, n] = times >= duration - 1e-12
    return MotionDataset(times, targets, rate)


def _check_increasing(times):
    """Raise MimicError naming the first record whose time does not exceed the one before."""
    stalled = np.diff(times) <= 0
    if stalled.any():
        i = int(np.argmax(stalled)) + 1
        raise MimicError(f"times must increase (violation at record {i}, t={times[i]})")


def _check_tail(tail):
    if not 0 <= tail <= MAX_GRID_SAMPLES:
        raise MimicError(f"tail must be 0 to {MAX_GRID_SAMPLES} samples, got {tail}")


def ingest_log(times, joints, rate: float, periodic: bool = False, tail: int = 0,
               joint_names=None) -> MotionDataset:
    """Regularize an externally captured log onto a uniform grid.

    times and joints are the time column and the (samples, joints) rest
    of one table, as load_joint_log reads it.

    Single missing samples are filled by linear interpolation of their
    neighbors; longer gaps are an error.  Periodic logs (one period of a
    cyclic motion) get a constant-zero end flag and take no tail;
    otherwise the final sample is flagged and tail copies of it may be
    appended.
    """
    t = np.asarray(times, dtype=float)
    vals = np.asarray(joints, dtype=float)
    if len(t) < 2:
        raise MimicError("log needs at least 2 samples")
    require_positive("rate", rate)
    _check_tail(tail)
    if periodic and tail:
        raise MimicError(f"a periodic log has no end to hold, so no tail; got tail {tail}")
    if not np.all(np.isfinite(t)):
        raise MimicError("sample times must be finite")
    _check_increasing(t)

    grid_size(t[-1] - t[0], rate)  # a bounded grid, before its slots are cast to int
    slots = np.rint((t - t[0]) * rate).astype(int)
    off_grid = np.abs((t - t[0]) * rate - slots)
    if np.any(off_grid > 0.05):
        i = int(np.argmax(off_grid > 0.05))
        raise MimicError(f"sample at t={t[i]} is off the {rate} Hz grid")
    gaps = np.diff(slots)
    if np.any(gaps == 0):
        i = int(np.argmax(gaps == 0)) + 1
        raise MimicError(f"two samples share the grid slot at t={t[i]}")
    if np.any(gaps > 2):
        i = int(np.argmax(gaps > 2))
        raise MimicError(
            f"{gaps[i] - 1} consecutive missing samples between t={t[i]} and t={t[i + 1]}"
        )

    count = int(slots[-1]) + 1
    grid_times = t[0] + np.arange(count + tail) / rate
    n = vals.shape[1]
    rows = np.empty((len(grid_times), n + 1))
    rows[slots, :n] = vals
    for i in np.nonzero(gaps == 2)[0]:
        rows[slots[i] + 1, :n] = 0.5 * (vals[i] + vals[i + 1])
    rows[count:, :n] = vals[-1]
    rows[:, n] = 0.0
    if not periodic:
        rows[count - 1 :, n] = 1.0
    return MotionDataset(grid_times, rows, rate, joint_names=joint_names)


def train(dataset: MotionDataset, schedule: TrainingSchedule, arch=None,
          seed: int = 0, alpha: float = 0.01):
    """Fit a network to the dataset; returns (TrainedModel, TrainingLog).

    One epoch is one full-batch Adam step.  When the schedule asks for
    it, the optimizer state is reset at each phase boundary; the weights
    carry over untouched.  Each epoch checks that its loss, then its
    gradient, is finite; the first failure raises DivergenceError with
    the log of the finite epochs.  Every epoch writes into the same
    buffers, made once here.  Fully deterministic for a fixed seed.
    """
    n = dataset.n_joints
    sizes = [int(s) for s in arch] if arch is not None else [1, *DEFAULT_HIDDEN, n + 1]
    parameter_count(sizes, alpha)  # the sizes, alpha and MAX_PARAMETERS are refused first
    activations = len(dataset.times) * sum(sizes[1:])
    if activations > MAX_BATCH_ACTIVATIONS:
        raise MimicError(
            f"{len(dataset.times)} rows x {sum(sizes[1:])} activations per row = {activations}; "
            f"a training batch holds at most {MAX_BATCH_ACTIVATIONS}"
        )
    net = initialize(sizes, seed=seed, alpha=alpha)
    # built first, so a net or dataset the model could not replay fails before training
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

    x = model.inputs(dataset.times)
    y = dataset.targets
    state = adam_init(net.params)  # every weight and bias, updated in place by one Adam step
    buffers = epoch_buffers(net, x)
    abs_error = np.empty((len(x), n))  # contiguous, so its sum runs as a fresh array's does
    phases, lrs = schedule.epoch_phases(), schedule.epoch_lrs()
    mses, maes = np.empty(len(lrs)), np.empty(len(lrs))
    # overflow and NaN fail the finite check below, so DivergenceError reports them
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, (phase, lr) in enumerate(zip(phases, lrs)):
            if schedule.reset_on_phase and epoch and phase != phases[epoch - 1]:
                state = reset_state(state)
            loss, _, grads = forward_backward(net, x, y, buffers)
            # a sum is finite only if every entry is; the scan runs when the sum is not,
            # so a finite vector whose sum overflows still passes
            if not (math.isfinite(loss) and (math.isfinite(np.add.reduce(grads))
                                             or np.isfinite(grads).all())):
                what = (f"non-finite gradient in {nonfinite_tensor(sizes, grads)}"
                        if math.isfinite(loss)
                        else f"training loss became non-finite at epoch {epoch}")
                partial = TrainingLog(np.arange(epoch), phases[:epoch], lrs[:epoch],
                                      mses[:epoch], maes[:epoch])
                raise DivergenceError(f"{what}; last finite epoch {epoch - 1}", log=partial)
            adam_step(state, net.params, grads, lr)
            mses[epoch] = loss
            # np.mean without its wrapper: the sum, divided by the count
            np.abs(buffers.error[:, :n], out=abs_error)
            maes[epoch] = np.add.reduce(abs_error, axis=None) / abs_error.size
    return model, TrainingLog(np.arange(len(lrs)), phases, lrs, mses, maes)


def evaluate(model: TrainedModel, dataset: MotionDataset) -> EvalReport:
    """Model metrics on a dataset.

    MAE covers the joint outputs only; the end flag enters the MSE but
    is scored separately as the sample-index error of the 0.5 crossing.
    """
    if model.n_joints != dataset.n_joints:
        raise MimicError(f"model has {model.n_joints} joints, dataset {dataset.n_joints}")
    pred = model.predict(dataset.times)
    joint_err = np.abs(pred[:, :-1] - dataset.joints)
    return EvalReport(
        mse=mse_loss(pred, dataset.targets),
        mae=float(joint_err.mean()),
        per_joint_mae=joint_err.mean(axis=0),
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


def rollout(model: TrainedModel, rate: float) -> Rollout:
    """Sweep the model over time until its end flag crosses 0.5.

    The sweep starts at the dataset's first time and is capped at
    MAX_DURATION_FACTOR times the span from there to the training
    duration (the end time); if the flag never crosses, the capped
    trajectory is returned and end_detected is False.
    """
    require_positive("rate", rate)
    count = grid_size(MAX_DURATION_FACTOR * (model.duration - model.time_offset), rate)
    times = model.time_offset + np.arange(count) / rate
    pred = model.predict(times)
    crossed = _first_crossing(pred[:, -1])
    end = count if crossed is None else crossed + 1
    return Rollout(times[:end], pred[:end, :-1], pred[:end, -1])


# --- CSV files: dataset, joint log, rollout, training log --------------------


def format_dataset(ds: MotionDataset) -> str:
    return format_table(["time", *ds.joint_names, "end_flag"],
                        np.column_stack([ds.times, ds.targets]))


def parse_dataset(text: str, name: str = "") -> MotionDataset:
    joint_names, table = parse_table(text, "time,<joint names...>,end_flag")
    if len(table) < 2:
        raise MimicError("dataset needs at least 2 samples")
    times, targets = table[:, 0], table[:, 1:]
    _check_increasing(times)
    return MotionDataset(times, targets, _recover_rate(times), joint_names=joint_names,
                         name=name)


def _recover_rate(times: np.ndarray) -> float:
    """The rate whose grid times[0] + arange(rows) / rate is the time column bit for bit.

    Tried in turn: the shortest decimals of the estimated rate, then the
    estimate's float neighbours out to RATE_SEARCH_ULPS, nearest first.
    Without a match, the estimate, rounded to an integer when within 1e-6
    of one.
    """
    rate = (len(times) - 1) / float(times[-1] - times[0])
    if not np.isfinite(rate):
        raise MimicError(f"dataset spans {times[-1] - times[0]} s, too short for a sample rate")
    steps = np.arange(len(times))
    decimals = (float(f"{rate:.{digits}g}") for digits in range(1, 18))
    with np.errstate(all="ignore"):  # a grid that overflows is no match
        for candidate in itertools.chain(decimals, _float_neighbours(rate, RATE_SEARCH_ULPS)):
            if np.array_equal(times[0] + steps / candidate, times):
                return candidate
    return float(round(rate)) if abs(rate - round(rate)) < 1e-6 else float(rate)


def _float_neighbours(x: float, reach: int):
    """The floats 1, 2, ... reach ulps above and below x, nearest first."""
    up = down = x
    for _ in range(reach):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        yield float(up)
        yield float(down)


def save_dataset(ds: MotionDataset, path):
    write_text(path, format_dataset(ds))


def load_dataset(path) -> MotionDataset:
    return parse_dataset(read_text(path), name=Path(path).stem)


def load_joint_log(path):
    """Read an external log CSV 'time,<joint names...>': (times, joints, names)."""
    names, table = parse_table(read_text(path), "time,<joint names...>")
    return table[:, 0], table[:, 1:], names


def save_rollout(ro: Rollout, joint_names, path):
    """Rollout CSV: the dataset header, one row per swept sample."""
    table = np.column_stack([ro.times, ro.joints, ro.flags])
    write_text(path, format_table(["time", *joint_names, "end_flag"], table))


LOG_HEADER = "epoch,phase,lr,mse,mae"


def format_log(log: TrainingLog) -> str:
    return format_table(LOG_HEADER.split(","),
                        np.column_stack([log.epochs, log.phases, log.lrs, log.mses, log.maes]))


def save_log(log: TrainingLog, path):
    write_text(path, format_log(log))


def load_log(path) -> TrainingLog:
    _, table = parse_table(read_text(path), LOG_HEADER)
    counters = table[:, :2]
    if np.any(counters != np.trunc(counters)):
        raise MimicError("training log epoch and phase must be integers")
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
    write_text(d / META_FILE, "".join(format_record(record, getattr(model, f.name)) + "\n"
                                      for record, f in zip(META_RECORDS, fields(model)[1:])))


def load_model(directory) -> TrainedModel:
    d = Path(directory)
    network = load_weights(d / WEIGHTS_FILE)
    lines = LineReader(read_text(d / META_FILE))
    values = [lines.record(record)[0] for record in META_RECORDS]
    lines.end()
    return TrainedModel(network, *values)
