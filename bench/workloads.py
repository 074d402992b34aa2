"""The three workloads: seeded inputs, the CLI steps of one op, and its checks.

An op carries one generated input through its whole CLI pipeline:

- desk22:   gen -> train --schedule desk -> eval -> rollout -> simulate --model
- walk1500: ingest --periodic -> train (3-phase file) -> eval -> rollout -> simulate --model
- gensim22: gen -> simulate --movement

Each workload keeps a pool of distinct inputs and cycles through it, so
a run makes the same inputs for a seed however many ops fit in its time.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

import checks

RATE = 50  # Hz, the sample rate of every dataset and plant tick
TAIL = 10  # gen's default post-end samples
KP, MAX_SPEED = 25.0, 7.0
WALK_SCHEDULE = (
    "phase epochs=200 lr=0.001\n"
    "phase epochs=100 lr=0.0005\n"
    "phase epochs=100 lr=0.00025\n"
    "reset_on_phase=true\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "desk", "walk" or "gensim"
    joints: int
    ticks: int  # motion length in 1/RATE s samples
    keyframes: int = 0  # movement workloads
    drops: int = 0  # walk: isolated samples missing from the log
    pool: int = 4  # distinct inputs; a run makes at least this many ops
    schedule_file: str = ""  # written and passed to train; empty means --schedule desk

    @property
    def dataset_rows(self):
        """Rows of the op's dataset: the training batch, where there is one."""
        return self.ticks if self.pipeline == "walk" else self.ticks + 1 + TAIL


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk22", "desk", joints=22, ticks=150, keyframes=6, pool=8),
        Workload("walk1500", "walk", joints=22, ticks=1500, drops=40, pool=8,
                 schedule_file=WALK_SCHEDULE),
        Workload("gensim22", "gensim", joints=22, ticks=500, keyframes=12, pool=16),
    )
}


@dataclass
class Movement:
    knot_ticks: np.ndarray  # keyframe times in samples
    poses: np.ndarray  # (keyframes, joints)


@dataclass
class JointLog:
    samples: int
    full: np.ndarray  # every sample, including the dropped ones
    kept: np.ndarray  # indices written to the log
    dropped: np.ndarray
    rate: float = RATE

    @property
    def values(self):
        return self.full[self.kept]


def _fmt(x):
    return repr(float(x))


def make_movement(rng, w):
    """Random-walk keyframes: bounded step per keyframe, knots on the sample grid."""
    spacing = w.ticks / (w.keyframes - 1)
    jitter = rng.integers(-int(spacing // 4), int(spacing // 4) + 1, size=w.keyframes - 2)
    interior = np.rint(np.arange(1, w.keyframes - 1) * spacing).astype(int) + jitter
    knots = np.concatenate([[0], interior, [w.ticks]]).astype(int)
    poses = np.empty((w.keyframes, w.joints))
    pose = rng.uniform(-0.5, 0.5, size=w.joints)
    for k in range(w.keyframes):
        poses[k] = pose
        pose = np.clip(pose + rng.uniform(-0.6, 0.6, size=w.joints), -1.2, 1.2)
    lines = [f"movement n={w.joints} gamma={w.keyframes} rate=1"]
    for tick, pose in zip(knots, poses):
        lines.append(f"t={_fmt(tick / RATE)} " + " ".join(_fmt(v) for v in pose))
    return Movement(knots, poses), "\n".join(lines) + "\n"


def make_log(rng, w):
    """One period of a smooth cyclic motion with isolated samples dropped."""
    t = np.arange(w.ticks) / RATE
    period = w.ticks / RATE
    full = np.zeros((w.ticks, w.joints))
    for h in (1, 2, 3):
        amp = rng.uniform(0.1, 0.4, size=w.joints) / h
        phase = rng.uniform(0.0, 2.0 * np.pi, size=w.joints)
        full += amp * np.sin(2.0 * np.pi * h * t[:, None] / period + phase)
    dropped = set()
    while len(dropped) < w.drops:
        k = int(rng.integers(1, w.ticks - 1))
        if not {k - 1, k, k + 1} & dropped:
            dropped.add(k)
    dropped = np.array(sorted(dropped), dtype=int)
    kept = np.setdiff1d(np.arange(w.ticks), dropped)
    lines = ["time," + ",".join(f"j{j + 1}" for j in range(w.joints))]
    for k in kept:
        lines.append(_fmt(t[k]) + "," + ",".join(_fmt(v) for v in full[k]))
    return JointLog(w.ticks, full, kept, dropped), "\n".join(lines) + "\n"


@dataclass
class Input:
    index: int
    path: object
    source: object  # Movement or JointLog


def write_inputs(w, seed, directory):
    """Write the workload's seeded input pool; returns the Inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = []
    for k in range(w.pool):
        rng = np.random.default_rng([seed, k])
        if w.pipeline == "walk":
            source, text = make_log(rng, w)
            path = directory / f"log{k}.csv"
        else:
            source, text = make_movement(rng, w)
            path = directory / f"move{k}.mov"
        path.write_text(text)
        inputs.append(Input(k, path, source))
    if w.schedule_file:
        (directory / "train.sched").write_text(w.schedule_file)
    return inputs


@dataclass
class Step:
    stage: str
    argv: list
    reads: list
    writes: list


def op_steps(w, inp, out, inputs_dir):
    """The CLI calls of one op on input inp, writing into directory out."""
    ds, model = out / "dataset.csv", out / "model"
    bundle = [model / "weights.txt", model / "model.meta"]
    plant = ["--kp", str(KP), "--max-speed", str(MAX_SPEED)]
    if w.pipeline == "gensim":
        return [
            Step("gen", ["gen", "--movement", str(inp.path), "--out", str(ds)], [inp.path], [ds]),
            Step("simulate", ["simulate", "--movement", str(inp.path), *plant,
                              "--out", str(out / "tracking.csv")],
                 [inp.path], [out / "tracking.csv"]),
        ]
    if w.pipeline == "desk":
        make = Step("gen", ["gen", "--movement", str(inp.path), "--out", str(ds)], [inp.path], [ds])
    else:
        make = Step("ingest", ["ingest", "--log", str(inp.path), "--periodic", "--out", str(ds)],
                    [inp.path], [ds])
    schedule_files = [inputs_dir / "train.sched"] if w.schedule_file else []
    schedule = str(schedule_files[0]) if schedule_files else "desk"
    return [
        make,
        Step("train", ["train", "--dataset", str(ds), "--schedule", schedule,
                       "--seed", str(inp.index), "--out", str(model)],
             [ds, *schedule_files], [*bundle, model / "training_log.csv"]),
        Step("eval", ["eval", "--model", str(model), "--dataset", str(ds)], [*bundle, ds], []),
        Step("rollout", ["rollout", "--model", str(model), "--out", str(out / "rollout.csv")],
             bundle, [out / "rollout.csv"]),
        Step("simulate", ["simulate", "--model", str(model), *plant,
                          "--out", str(out / "tracking.csv")],
             bundle, [out / "tracking.csv"]),
    ]


@dataclass
class Outcome:
    """What the checks of one op found."""

    tracking_rms: float = 0.0
    mae: float = 0.0
    end_error: int = 0
    rows: int = 0  # dataset rows: the training batch size
    arch: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_op(w, inp, out, stdout):
    """Check every output of a finished op; raises checks.CheckError."""
    ds = out / "dataset.csv"
    if w.pipeline == "walk":
        rows = checks.check_ingested(ds, inp.source)
    else:
        rows = checks.check_gen_dataset(ds, inp.source, RATE, TAIL)
    result = Outcome(rows=len(rows), digests={"dataset": sha256(ds)})
    if w.pipeline == "gensim":
        desired = checks.spline_curve(inp.source.knot_ticks / RATE, inp.source.poses,
                                      np.arange(inp.source.knot_ticks[-1] + 1) / RATE)
        result.tracking_rms = checks.check_tracking(out / "tracking.csv", stdout["simulate"],
                                                    desired, KP, MAX_SPEED, RATE)
        return result
    model_dir = out / "model"
    model = checks.read_model(model_dir)
    result.arch = checks.layer_sizes(model)
    result.digests["training_log"] = sha256(model_dir / "training_log.csv")
    result.digests["weights"] = sha256(model_dir / "weights.txt")
    result.mae, result.end_error = checks.check_eval(stdout["eval"], model, rows,
                                                      desk=w.pipeline == "desk")
    ro = checks.check_rollout(out / "rollout.csv", model, RATE)
    result.tracking_rms = checks.check_tracking(out / "tracking.csv", stdout["simulate"],
                                                ro[:, 1:-1], KP, MAX_SPEED, RATE)
    return result


def flops_per_step(sizes, batch):
    """Computed flops of one forward_backward on a batch (multiply-add = 2)."""
    total = 0
    last = len(sizes) - 2
    for li, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        act = fan_out if li < last else 0  # LeakyReLU and its gradient on hidden layers
        total += batch * (2 * fan_in * fan_out + fan_out + act)  # affine + bias + activation
        total += batch * (2 * fan_in * fan_out + fan_out + act)  # weight grad + bias grad + act grad
        if li > 0:
            total += batch * 2 * fan_in * fan_out  # delta through the weights
    return total + 3 * batch * sizes[-1]  # loss: difference, square, sum


def adam_bytes_per_step(sizes):
    """Computed bytes of one Adam step: read p, g, m, v and write p, m, v, float64."""
    params = sum(i * o + o for i, o in zip(sizes, sizes[1:]))
    return params * 8 * 7
