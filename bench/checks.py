"""Independent checks of the files the CLI writes.

Nothing here imports motionmimic: each check rebuilds the expected
output from the generated input with its own arithmetic (a dense
natural-spline solve, a plain Euler plant, a forward pass read straight
from weights.txt) and raises CheckError when the program's file
disagrees.
"""

import re

import numpy as np

KNOT_TOL = 1e-12  # a sampled keyframe must reproduce its posture
CURVE_TOL = 1e-9  # between knots the two spline algorithms round differently
PLANT_TOL = 1e-9
MODEL_TOL = 1e-9
DESK_MAE_LIMIT = 0.018  # rad, the desk-scale acceptance standard
DESK_END_LIMIT = 1  # samples


class CheckError(Exception):
    """A CLI output disagrees with its independent reference."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def read_csv(path, header_prefix):
    """Header columns and a float matrix of a comma-separated file."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    require(header[: len(header_prefix)] == header_prefix, f"{path}: header {header[:3]}")
    require(rows.shape[1] == len(header), f"{path}: {rows.shape[1]} values for {len(header)} columns")
    return header, rows


def stdout_value(text, key):
    """The number printed after 'key=' by a CLI command."""
    match = re.search(re.escape(key) + r"=([-+0-9.eEinfa]+)", text)
    require(match is not None, f"'{key}=' missing from output: {text[:120]!r}")
    return float(match.group(1))


# --- movements ---------------------------------------------------------------


def spline_curve(knot_times, values, times):
    """Natural cubic spline through (knot_times, values[:, j]) at times.

    Solves the full (knots x knots) system for the knot second
    derivatives, so it shares no code or algorithm with the program's
    Thomas solve.
    """
    t = np.asarray(knot_times, dtype=float)
    y = np.asarray(values, dtype=float)
    n = len(t)
    h = np.diff(t)
    a = np.zeros((n, n))
    rhs = np.zeros((n, y.shape[1]))
    a[0, 0] = a[-1, -1] = 1.0
    for i in range(1, n - 1):
        a[i, i - 1], a[i, i], a[i, i + 1] = h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    m = np.linalg.solve(a, rhs)
    q = np.asarray(times, dtype=float)
    i = np.clip(np.searchsorted(t, q, side="right") - 1, 0, n - 2)
    hi = h[i][:, None]
    left = (t[i + 1][:, None] - q[:, None])
    right = (q[:, None] - t[i][:, None])
    return (
        m[i] * left**3 / (6.0 * hi)
        + m[i + 1] * right**3 / (6.0 * hi)
        + (y[i] / hi - m[i] * hi / 6.0) * left
        + (y[i + 1] / hi - m[i + 1] * hi / 6.0) * right
    )


def check_gen_dataset(path, movement, rate, tail):
    """A sampled movement: every row on the spline, knots exact, flag rules."""
    _, rows = read_csv(path, ["time"])
    knots, poses = movement.knot_ticks, movement.poses
    last = knots[-1]
    require(len(rows) == last + 1 + tail, f"{len(rows)} rows, expected {last + 1 + tail}")
    times, joints, flags = rows[:, 0], rows[:, 1:-1], rows[:, -1]
    require(joints.shape[1] == poses.shape[1], f"{joints.shape[1]} joints, expected {poses.shape[1]}")
    require(np.all(np.abs(times - np.arange(len(rows)) / rate) <= KNOT_TOL), "sample times off grid")
    err = np.abs(joints[knots] - poses).max()
    require(err <= KNOT_TOL, f"keyframe posture missed by {err:.3g} rad")
    curve = spline_curve(knots / rate, poses, times[: last + 1])
    err = np.abs(joints[: last + 1] - curve).max()
    require(err <= CURVE_TOL, f"sampled pose off the spline by {err:.3g} rad")
    require(np.array_equal(joints[last + 1 :], np.tile(poses[-1], (tail, 1))),
            "tail rows do not hold the final keyframe")
    expected = (np.arange(len(rows)) >= last).astype(float)
    require(np.array_equal(flags, expected), "end flag does not switch on exactly at the end")
    return rows


def check_ingested(path, log):
    """An ingested periodic log: kept samples exact, single gaps averaged, flag 0."""
    _, rows = read_csv(path, ["time"])
    n = log.samples
    require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    require(np.all(np.abs(rows[:, 0] - np.arange(n) / log.rate) <= KNOT_TOL), "sample times off grid")
    joints = rows[:, 1:-1]
    require(np.array_equal(joints[log.kept], log.values), "a logged sample was altered")
    fill = 0.5 * (log.full[log.dropped - 1] + log.full[log.dropped + 1])
    err = np.abs(joints[log.dropped] - fill).max() if len(log.dropped) else 0.0
    require(err <= KNOT_TOL, f"dropped sample filled off by {err:.3g} rad")
    require(np.all(rows[:, -1] == 0.0), "periodic dataset raised its end flag")
    return rows


# --- models ------------------------------------------------------------------


def read_model(directory):
    """(layers, meta) from a model bundle; layers are (W, b, activation)."""
    with open(directory / "weights.txt") as f:
        lines = f.read().splitlines()
    head = dict(tok.split("=") for tok in lines[0].split()[1:])
    alpha = float(head["alpha"])
    layers, ln = [], 1
    for _ in range(int(head["layers"])):
        spec = dict(tok.split("=") for tok in lines[ln].split()[1:])
        out = int(spec["out"])
        w = np.array([[float(v) for v in lines[ln + 1 + r].split()] for r in range(out)])
        b = np.array([float(v) for v in lines[ln + 1 + out].split()])
        layers.append((w, b, spec["act"]))
        ln += out + 2
    meta = dict(line.split("=", 1) for line in (directory / "model.meta").read_text().splitlines())
    return layers, alpha, meta


def model_outputs(model, times):
    layers, alpha, meta = model
    x = (np.asarray(times) - float(meta["time_offset"])) / float(meta["time_scale"])
    a = x[:, None]
    for w, b, act in layers:
        a = a @ w.T + b
        if act == "leakyrelu":
            a = np.where(a >= 0, a, alpha * a)
    return a


def layer_sizes(model):
    layers = model[0]
    return [layers[0][0].shape[1]] + [w.shape[0] for w, _, _ in layers]


def check_eval(text, model, dataset_rows, desk):
    """eval's printed MAE matches an independent forward pass; desk limits."""
    mae = stdout_value(text, "mae")
    end_error = int(stdout_value(text, "end_time_error"))
    pred = model_outputs(model, dataset_rows[:, 0])
    ours = np.abs(pred[:, :-1] - dataset_rows[:, 1:-1]).mean()
    require(abs(ours - mae) <= 1e-5 * max(ours, 1e-12), f"eval mae {mae} vs recomputed {ours:.6g}")
    if desk:
        require(mae <= DESK_MAE_LIMIT, f"mae {mae} rad above {DESK_MAE_LIMIT}")
        require(end_error <= DESK_END_LIMIT, f"end error {end_error} samples above {DESK_END_LIMIT}")
    return ours, end_error


def check_rollout(path, model, rate):
    """rollout.csv rows are the model's outputs, cut at the first flag >= 0.5."""
    _, rows = read_csv(path, ["time"])
    meta = model[2]
    cap = int(np.floor(2.0 * float(meta["duration"]) * rate + 1e-9)) + 1
    times = float(meta["time_offset"]) + np.arange(cap) / rate
    pred = model_outputs(model, times)
    crossed = np.nonzero(pred[:, -1] >= 0.5)[0]
    count = int(crossed[0]) + 1 if len(crossed) else cap
    require(len(rows) == count, f"{len(rows)} rollout rows, expected {count}")
    err = np.abs(rows[:, 1:] - pred[:count]).max()
    require(err <= MODEL_TOL, f"rollout off the model by {err:.3g}")
    return rows


# --- plant -------------------------------------------------------------------


def check_tracking(path, text, desired, kp, max_speed, tick_rate):
    """tracking.csv holds the desired curve and an Euler P-controlled plant on it."""
    _, rows = read_csv(path, ["time"])
    require(rows.shape == (len(desired), 1 + 2 * desired.shape[1]),
            f"tracking shape {rows.shape}, expected {len(desired)} ticks")
    got_desired, got_attained = rows[:, 1::2], rows[:, 2::2]
    err = np.abs(got_desired - desired).max()
    require(err <= CURVE_TOL, f"desired curve off by {err:.3g} rad")
    attained = np.empty_like(desired)
    pos = desired[0].copy()
    for k in range(len(desired)):
        attained[k] = pos
        pos = pos + np.clip(kp * (desired[k] - pos), -max_speed, max_speed) / tick_rate
    err = np.abs(got_attained - attained).max()
    require(err <= PLANT_TOL, f"attained curve off the plant by {err:.3g} rad")
    rms = float(np.sqrt(np.mean((desired - attained) ** 2)))
    printed = stdout_value(text, "rms")
    require(abs(printed - rms) <= 1e-5 * rms, f"printed rms {printed} vs recomputed {rms:.6g}")
    return rms
