"""Motion datasets, the phased training loop, and learned-motion evaluation.

A dataset is a uniform time grid of joint targets plus an end flag that
is 0 while the motion is running and 1 from the end onward.  Training
feeds normalized time (scaled into [0, 1] over the dataset span) through
the network with one full-batch Adam step per epoch; the flag is learned
by the same regression and thresholded at 0.5 during rollout.
"""

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
    playback_grid,
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
from .textio import LineReader, format_record, parse_table, read_lines, write_table, write_text

DEFAULT_TAIL = 10  # post-end samples that teach the flag transition
DEFAULT_HIDDEN = (75, 50)
MAX_DURATION_FACTOR = 2.0  # a sweep whose flag never crosses stops at twice the span to the end
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

    times, shaped (samples,), and targets, one row per sample of n joint
    angles (radians) followed by the end flag, are float64 arrays, as
    parse_dataset slices them from parse_table's table and _dataset
    builds them.  A periodic dataset is one with no flagged sample.
    """

    times: np.ndarray
    targets: np.ndarray
    sample_rate: float
    joint_names: list = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.times)):
            raise MimicError("dataset times must be finite")
        check_angles(self.targets, "a dataset value")  # NaN and inf included
        if len(self.times) < 2:
            raise MimicError("dataset needs at least 2 samples")
        require_positive("rate", self.sample_rate)
        step = 1.0 / self.sample_rate
        # a time holds its grid point to within a few float spacings, so a log recorded on a
        # wall clock fits; times too coarse to tell one sample from the next do not
        slack = 4 * math.ulp(float(np.abs(self.times).max()))
        deltas = np.diff(self.times)
        if not slack < step / 2 or np.any(np.abs(deltas - step) > max(1e-9, slack)):
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
    """The schedule a run followed and the losses of its first len(mses) epochs.

    mses and maes are the pre-update batch values, one per epoch in
    schedule order: every epoch of a finished run, the finite ones in a
    DivergenceError's log.  An epoch's number, phase and learning rate
    follow from the schedule; save_log writes them out.
    """

    schedule: TrainingSchedule
    mses: np.ndarray
    maes: np.ndarray

    def __len__(self):
        return len(self.mses)


@dataclass
class TrainedModel:
    """Frozen network plus the dataset constants needed to replay it."""

    network: MimicNetwork
    duration: float
    sample_rate: float
    time_offset: float
    time_scale: float
    periodic: bool = False

    def __post_init__(self):
        if not np.isfinite(self.time_offset):
            raise MimicError("normalization constants must be finite")
        for what, value in (("time scale", self.time_scale), ("sample rate", self.sample_rate)):
            require_positive(what, value)
        # an end time, not a span: rollout sweeps from time_offset to it, so a
        # dataset recorded at negative times replays as the same one shifted
        if not self.time_offset <= self.duration < math.inf:
            raise MimicError(f"duration must be finite and not before the time offset "
                             f"{self.time_offset}, got {self.duration}")
        if self.network.input_dim != 1:
            raise MimicError(f"network takes {self.network.input_dim} inputs; "
                             "it needs 1, the normalized time")

    @property
    def n_joints(self) -> int:
        return self.network.output_dim - 1  # the last output is the end flag

    def inputs(self, times) -> np.ndarray:
        """The net's (rows, 1) input: times normalized over the dataset span.

        times is a float64 (rows,) array: a dataset's times (train,
        evaluate) or rollout's time_offset + arange(count) / rate.
        Training and replay both read it here, so they agree bit for bit.
        """
        return ((times - self.time_offset) / self.time_scale)[:, None]

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

    The grid and the end are motion.playback_grid's: grid points run
    from 0 to the playback duration, and the end flag is 0 before the
    first sample at or after the end and 1 from there on.  tail extra
    samples hold the final keyframe with flag 1 so the transition is
    represented in the data.  Even with tail=0 the dataset reaches that
    first sample, holding the final keyframe there when it lies past the
    grid, so the last sample is always flagged.
    """
    require_positive("rate", rate)
    _check_tail(tail)
    _, joints, end = playback_grid(m, rate)
    return _dataset(0.0, rate, joints, m.joints[-1], max(tail, end + 1 - len(joints)), end)


def _dataset(start, rate, joints, hold, extra, end, joint_names=None) -> MotionDataset:
    """joints on the grid start + i / rate, then extra rows that hold the posture hold.

    The end flag is 1 from row end onward; end None gives a periodic
    dataset.  sample_movement and ingest_log both build their datasets here.
    """
    count, n = joints.shape
    targets = np.zeros((count + extra, n + 1))
    targets[:count, :n], targets[count:, :n] = joints, hold
    if end is not None:
        targets[end:, n] = 1.0
    with np.errstate(over="ignore"):  # MotionDataset refuses the times of a grid that overflows
        times = start + np.arange(len(targets)) / rate
    return MotionDataset(times, targets, rate, joint_names=joint_names)


def _check_tail(tail):
    if not 0 <= tail <= MAX_GRID_SAMPLES:
        raise MimicError(f"tail must be 0 to {MAX_GRID_SAMPLES} samples, got {tail}")


def ingest_log(times, joints, rate: float, periodic: bool = False, tail: int = 0,
               joint_names=None) -> MotionDataset:
    """Regularize an externally captured log onto a uniform grid.

    times and joints are the float64 time column and (samples, joints)
    rest of one table, as load_joint_log reads it from parse_table, so
    every value is finite.

    Single missing samples are filled by linear interpolation of their
    neighbors; longer gaps are an error.  Periodic logs (one period of a
    cyclic motion) get a constant-zero end flag and take no tail;
    otherwise the final logged sample is the end, flagged, and tail rows
    after it hold its posture.  The rows are built by _dataset, as
    sample_movement's are.
    """
    if len(times) < 2:
        raise MimicError("log needs at least 2 samples")
    require_positive("rate", rate)
    _check_tail(tail)
    if periodic and tail:
        raise MimicError(f"a periodic log has no end to hold, so no tail; got tail {tail}")
    stalled = np.diff(times) <= 0
    if stalled.any():
        i = int(np.argmax(stalled)) + 1
        raise MimicError(f"times must increase (violation at record {i}, t={times[i]})")

    grid_size(times[-1] - times[0], rate)  # a bounded grid, before its slots are cast to int
    slots = np.rint((times - times[0]) * rate).astype(int)
    off_grid = np.abs((times - times[0]) * rate - slots)
    if np.any(off_grid > 0.05):
        i = int(np.argmax(off_grid > 0.05))
        raise MimicError(f"sample at t={times[i]} is off the {rate} Hz grid")
    gaps = np.diff(slots)
    if np.any(gaps == 0):
        i = int(np.argmax(gaps == 0)) + 1
        raise MimicError(f"two samples share the grid slot at t={times[i]}")
    if np.any(gaps > 2):
        i = int(np.argmax(gaps > 2))
        raise MimicError(f"{gaps[i] - 1} consecutive missing samples "
                         f"between t={times[i]} and t={times[i + 1]}")

    count = int(slots[-1]) + 1
    grid = np.empty((count, joints.shape[1]))
    grid[slots] = joints
    for i in np.nonzero(gaps == 2)[0]:
        grid[slots[i] + 1] = 0.5 * (joints[i] + joints[i + 1])
    return _dataset(times[0], rate, grid, joints[-1], tail, None if periodic else count - 1,
                    joint_names)


def train(dataset: MotionDataset, schedule: TrainingSchedule, arch=None,
          seed: int = 0, alpha: float = 0.01):
    """Fit a network to the dataset; returns (TrainedModel, TrainingLog).

    One epoch is one full-batch Adam step.  The phases run in order,
    each for its epochs at its learning rate; when the schedule asks for
    it, the optimizer state is reset at the start of every phase after
    the first, and the weights carry over untouched.  Each epoch checks
    that its loss, then its gradient, is finite; the first failure
    raises DivergenceError with the log of the finite epochs.  Every
    epoch writes into the same buffers, made once here.  Fully
    deterministic for a fixed seed.
    """
    n = dataset.n_joints
    sizes = arch if arch is not None else [1, *DEFAULT_HIDDEN, n + 1]
    parameter_count(sizes, alpha)  # the sizes, alpha and MAX_PARAMETERS are refused first
    if sizes[-1] != n + 1:
        raise MimicError(f"network output size {sizes[-1]} must equal joints + end flag = {n + 1}")
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
    mses, maes = np.empty(schedule.total_epochs), np.empty(schedule.total_epochs)
    first = 0  # the phase's first epoch
    # overflow and NaN fail the finite check below, so DivergenceError reports them
    with np.errstate(over="ignore", invalid="ignore"):
        for phase, (epochs, lr) in enumerate(schedule.phases):
            if phase and schedule.reset_on_phase:
                state = reset_state(state)
            for epoch in range(first, first + epochs):
                loss, _, grads = forward_backward(net, x, y, buffers)
                # a sum is finite only if every entry is; the scan runs when the sum is not,
                # so a finite vector whose sum overflows still passes
                if not (math.isfinite(loss) and (math.isfinite(np.add.reduce(grads))
                                                 or np.isfinite(grads).all())):
                    what = (f"non-finite gradient in {nonfinite_tensor(sizes, grads)}"
                            if math.isfinite(loss)
                            else f"training loss became non-finite at epoch {epoch}")
                    raise DivergenceError(f"{what}; last finite epoch {epoch - 1}",
                                          log=TrainingLog(schedule, mses[:epoch], maes[:epoch]))
                adam_step(state, net.params, grads, lr)
                mses[epoch] = loss
                # np.mean without its wrapper: the sum, divided by the count
                np.abs(buffers.error[:, :n], out=abs_error)
                maes[epoch] = np.add.reduce(abs_error, axis=None) / abs_error.size
            first += epochs
    return model, TrainingLog(schedule, mses, maes)


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


RATE_RECORD = "# rate=<float>"  # line 2: '#' lets readers that skip comment lines take the table


def parse_dataset(lines) -> MotionDataset:
    joint_names, rate, table = parse_table(lines, "time,<joint names...>,end_flag", [RATE_RECORD])
    return MotionDataset(table[:, 0], table[:, 1:], rate, joint_names=joint_names)


def save_dataset(ds: MotionDataset, path):
    table = np.column_stack([ds.times, ds.targets])
    write_table(path, ["time", *ds.joint_names, "end_flag"], table,
                [format_record(RATE_RECORD, ds.sample_rate)])


def load_dataset(path) -> MotionDataset:
    return parse_dataset(read_lines(path))


def load_joint_log(path):
    """Read an external log CSV 'time,<joint names...>': (times, joints, names)."""
    names, table = parse_table(read_lines(path), "time,<joint names...>")
    return table[:, 0], table[:, 1:], names


def save_rollout(ro: Rollout, joint_names, path):
    """Rollout CSV: the dataset header, one row per swept sample."""
    table = np.column_stack([ro.times, ro.joints, ro.flags])
    write_table(path, ["time", *joint_names, "end_flag"], table)


LOG_HEADER = "epoch,phase,lr,mse,mae"


def save_log(log: TrainingLog, path):
    """One row per logged epoch: its number, phase and lr from the schedule, then its losses."""
    epochs, lrs = zip(*log.schedule.phases)
    rows = len(log)
    write_table(path, LOG_HEADER.split(","), np.column_stack([
        np.arange(rows), np.repeat(np.arange(len(epochs)), epochs)[:rows],
        np.repeat(lrs, epochs)[:rows], log.mses, log.maes]))


# --- model bundle: weights file + metadata sidecar ----------------------------

WEIGHTS_FILE = "weights.txt"
META_FILE = "model.meta"
# model.meta holds one line per TrainedModel field after network, in this order
META_RECORDS = ("duration=<float>", "rate=<float>", "time_offset=<float>", "time_scale=<float>",
                "periodic=<true|false>")


def save_model(model: TrainedModel, directory):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    save_weights(model.network, d / WEIGHTS_FILE)
    write_text(d / META_FILE, "".join(format_record(record, getattr(model, f.name)) + "\n"
                                      for record, f in zip(META_RECORDS, fields(model)[1:])))


def load_model(directory) -> TrainedModel:
    d = Path(directory)
    network = load_weights(d / WEIGHTS_FILE)
    lines = LineReader(read_lines(d / META_FILE))
    values = [lines.record(record)[0] for record in META_RECORDS]
    lines.end()
    return TrainedModel(network, *values)
