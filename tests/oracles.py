r"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own code paths: the
spline oracle assembles the full dense linear system instead of the
tridiagonal solve, the gradient oracle uses central finite differences,
the Adam oracle is a plain-float recurrence, the forward oracle is
per-neuron Python loops, the derivative oracle differentiates a
spline's segment cubics term by term, the unfused pass and the expression Adam step
are the array code that the buffered epoch replaced, making fresh arrays (the unfused
pass sums each weight gradient over the same row blocks), and the plant oracle
advances one tick at a time through plant.step.  The table oracle is the row-template CSV
writer that textio's block writer replaced: one '%.17g,...' % row per line.
The numbers oracle is the per-value writer of weights.txt rows that the
block writer replaced, and the table reader oracle converts one line at a
time with float(), as textio.parse_table did before it read blocks of lines.
text_lines is the line rule of open and csv, a line ending at '\r\n',
'\r' or '\n', applied to the whole text with a regular expression; tests
hand its pairs to the parsers in place of a file read by textio.read_lines.
written and table_text are not oracles: they give tests the text that the
program's writers stream to a file, read back from a temporary one.
The movement and schedule writers write the two files the program only
reads, one '%.17g' per number, so tests can build fixtures and check that
a parsed file writes back as the same text.  parse_log is the reader of
the one file the program only writes, the training log.  schedule_run
records what train hands the optimizer under a schedule, with the net
and the update stubbed out, so a 50000-epoch schedule runs in a second.
kernel_digests picks a table's digests of trained files for the OpenBLAS
kernel numpy runs on, since each kernel rounds the products differently.
"""

import functools
import importlib.util
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np


def dense_natural_spline(times, values):
    """Segment coefficients (a, b, c, d) from a dense solve.

    One equation per condition: each segment matches its two knot
    values, first and second derivatives agree across interior knots,
    and the second derivative vanishes at both ends.  Unknown layout:
    [a0, b0, c0, d0, a1, ...] in the local basis a + b*d + c*d^2 + d*d^3.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    nseg = len(t) - 1
    size = 4 * nseg
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    row = 0
    for i in range(nseg):
        h = t[i + 1] - t[i]
        # value at segment start and end
        A[row, 4 * i] = 1.0
        rhs[row] = y[i]
        row += 1
        A[row, 4 * i : 4 * i + 4] = [1.0, h, h * h, h * h * h]
        rhs[row] = y[i + 1]
        row += 1
    for i in range(nseg - 1):
        h = t[i + 1] - t[i]
        # slope continuity at interior knot i+1
        A[row, 4 * i + 1 : 4 * i + 4] = [1.0, 2.0 * h, 3.0 * h * h]
        A[row, 4 * (i + 1) + 1] = -1.0
        row += 1
        # curvature continuity
        A[row, 4 * i + 2 : 4 * i + 4] = [2.0, 6.0 * h]
        A[row, 4 * (i + 1) + 2] = -2.0
        row += 1
    # natural ends: zero curvature at the first and last knot
    A[row, 2] = 2.0
    row += 1
    h_last = t[-1] - t[-2]
    A[row, 4 * (nseg - 1) + 2] = 2.0
    A[row, 4 * (nseg - 1) + 3] = 6.0 * h_last
    row += 1
    sol = np.linalg.solve(A, rhs)
    return sol.reshape(nseg, 4)


def eval_segment_poly(coeffs_row, d):
    """Evaluate one segment polynomial at local offset d."""
    a, b, c, e = coeffs_row
    return a + d * (b + d * (c + d * e))


def spline_derivatives(spline, t):
    """First and second derivatives of a CubicSpline at times t: (velocity, acceleration) rows."""
    ts = np.asarray(t, dtype=float)
    knots = spline.knot_times
    i = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(knots) - 2)
    d = (ts - knots[i])[..., None]  # one offset per query, shared by every joint
    b, c, e = (spline.coeffs[i, k] for k in range(1, 4))
    return b + d * (2.0 * c + 3.0 * e * d), 2.0 * c + 6.0 * e * d


def finite_difference_gradients(net, x, y, epsilon=1e-6):
    """Central-difference gradients of the batch loss for every parameter.

    Returns (weight_grads, bias_grads) lists shaped like the layers.
    """
    from motionmimic.network import forward, mse_loss

    def loss():
        return mse_loss(forward(net, x), y)

    def central_difference(tensor):
        grad = np.zeros_like(tensor)
        for idx in np.ndindex(*tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + epsilon
            hi = loss()
            tensor[idx] = orig - epsilon
            lo = loss()
            tensor[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * epsilon)
        return grad

    return ([central_difference(w) for w in net.weights],
            [central_difference(b) for b in net.biases])


def max_relative_gradient_error(analytic_w, analytic_b, fd_w, fd_b, loss=1.0):
    """Worst-case |analytic - fd| / max(|analytic|, |fd|, floor).

    Central differences at epsilon 1e-6 carry roundoff noise of about
    loss * eps / epsilon ~ loss * 2e-10, so the denominator floor scales
    with the loss: parameters whose true gradient sits below the floor
    still have to agree absolutely to floor * tolerance, well above the
    noise; everything larger is compared relatively.
    """
    floor = 1e-4 * max(1.0, loss)
    worst = 0.0
    for a, n in zip(analytic_w + analytic_b, fd_w + fd_b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def scalar_adam(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, theta0=0.0):
    """Plain-float Adam recurrence for one scalar parameter.

    Returns the parameter value after each step.
    """
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(theta)
    return out


def expression_adam_step(m, v, t, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t as plain array expressions; updates m, v and params in place."""
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * grads * grads
    params -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)


def with_ones(a):
    """[a, 1] as a fresh array."""
    return np.column_stack([a, np.ones(len(a))])


def unfused_forward_backward(net, x, y, block_rows=None):
    """The per-tensor pass: np.where activation, slope-mask gradient, fresh arrays.

    Returns (loss, predictions, weight gradients, bias gradients).  Like
    network.forward_backward, a layer of 2 or more inputs and units over
    2 or more rows is one product [a, 1] @ [Wᵀ; b], and any other layer is
    a @ W.T, then + b; each layer's gradient [dJ/dWᵀ; dJ/db] is the sum,
    in row order, of the products [a, 1]ᵀ @ delta of block_rows-row blocks
    (network.BLOCK_ROWS by default), and delta @ W is taken a block at a
    time with a C-ordered W; block_rows = len(x) gives the one-product pass.
    """
    from motionmimic.network import BLOCK_ROWS

    step = block_rows or BLOCK_ROWS
    blocks = [slice(start, start + step) for start in range(0, len(x), step)]
    last = len(net.weights) - 1
    pre, acts = [], [x]
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = acts[-1]
        if min(w.shape) >= 2 and len(a) >= 2:
            z = with_ones(a) @ np.vstack([w.T, b])
        else:
            z = a @ w.T + b
        pre.append(z)
        acts.append(np.where(z >= 0, z, net.alpha * z) if li < last else z)
    diff = acts[-1] - y
    loss = float(0.5 * np.sum(diff * diff) / len(x))
    delta = diff / len(x)
    w_grads, b_grads = [], []
    for li in range(last, -1, -1):
        if li < last:
            # laid out as the network keeps a hidden delta, in an array one column wider: for a
            # 1-unit layer OpenBLAS's matrix-vector kernel sums that strided column in another
            # order than a contiguous one at some lengths (255 rows, say)
            delta = with_ones(delta * np.where(pre[li] >= 0, 1.0, net.alpha))[:, :-1]
        a1 = with_ones(acts[li])
        grad = functools.reduce(np.add, [a1[r].T @ delta[r] for r in blocks])
        w_grads.insert(0, grad[:-1].T)
        b_grads.insert(0, grad[-1])
        w = np.ascontiguousarray(net.weights[li])
        delta = np.concatenate([delta[r] @ w for r in blocks])
    return loss, acts[-1], w_grads, b_grads


def flat_gradient(sizes, w_grads, b_grads):
    """The gradient vector, laid out like a network's params, of per-layer gradients."""
    from motionmimic.network import layer_views, parameter_count

    flat = np.empty(parameter_count(sizes, 1.0))
    for gw, gb, w, b in zip(*layer_views(sizes, flat), w_grads, b_grads):
        gw[:], gb[:] = w, b
    return flat


def loop_forward(net, x):
    """Per-neuron scalar re-implementation of the forward pass for one input vector x.

    Hidden layers are leaky ReLU with slope net.alpha; the last layer is linear.
    """
    values = [float(v) for v in x]
    last = len(net.sizes) - 2
    for li, (n_in, n_out) in enumerate(zip(net.sizes, net.sizes[1:])):
        nxt = []
        for o in range(n_out):
            z = float(net.biases[li][o])
            for i in range(n_in):
                z += float(net.weights[li][o, i]) * values[i]
            if li < last:
                z = z if z >= 0 else net.alpha * z
            nxt.append(z)
        values = nxt
    return np.array(values)


def plant_step_loop(desired, cfg):
    """Attained plant positions from one plant.step call per tick.

    The plant starts at desired[0]; each tick records the position, then
    steps toward that tick's reference.
    """
    from motionmimic.plant import step

    positions = np.array(desired[0], dtype=float)
    attained = np.empty_like(desired)
    for k, ref in enumerate(desired):
        attained[k] = positions
        positions = step(positions, ref, cfg)
    return attained


def format_table_rows(header, matrix):
    """CSV text with every row written by one '%.17g,...' % tuple(row) template."""
    table = np.asarray(matrix, dtype=float)
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [template % tuple(row.tolist()) for row in table]
    lines.append("")  # the final newline, without a second copy of the joined text
    return "\n".join(lines)


def format_numbers_each(values):
    """Space-separated numbers, each written by its own '%.17g' % value."""
    return " ".join("%.17g" % v for v in values)


def text_lines(text):
    r"""(line number, line) of every line of text that is not blank, split at \r\n, \r and \n."""
    return [(no, line) for no, line in enumerate(re.split("\r\n|\r|\n", text), start=1)
            if line.strip()]


def parse_table_rows(text):
    """(names, table) of CSV text, each non-blank line after the first converted by float()."""
    lines = text_lines(text)
    names = lines[0][1].split(",")
    table = np.empty((len(lines) - 1, len(names)))
    for i, (_, line) in enumerate(lines[1:]):
        table[i] = [float(part) for part in line.split(",")]
    return names, table


def format_movement(m):
    """Movement file text: the header, then one 't=<time> <angles>' line per keyframe."""
    lines = ["movement n=%d gamma=%d rate=%.17g" % (m.joints.shape[1], len(m.times), m.speed_rate)]
    lines += ["t=%.17g %s" % (t, format_numbers_each(q)) for t, q in zip(m.times, m.joints)]
    return "\n".join(lines) + "\n"


def format_schedule(schedule):
    """Schedule file text: one phase line per phase, then the reset_on_phase line."""
    lines = ["phase epochs=%d lr=%.17g" % phase for phase in schedule.phases]
    lines.append("reset_on_phase=%s" % ("true" if schedule.reset_on_phase else "false"))
    return "\n".join(lines) + "\n"


def written(save, *args):
    """The text save(*args, path) writes to the file at path, read back as the program reads."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "written"
        save(*args, path)
        return path.read_bytes().decode("utf-8", "surrogateescape")  # no newline translation


def table_text(header, matrix):
    """The CSV text textio.write_table writes for header and matrix."""
    from motionmimic.textio import write_table

    return written(lambda path: write_table(path, header, matrix))


def parse_log(lines):
    """The TrainingLog of training_log.csv lines: the schedule rebuilt from the runs of
    the phase and lr columns (reset_on_phase, which the log does not hold, left true),
    and the two loss columns.  Rows that no schedule writes raise MimicError."""
    from motionmimic.errors import MimicError
    from motionmimic.optimizer import TrainingSchedule
    from motionmimic.textio import parse_table
    from motionmimic.trainer import LOG_HEADER, TrainingLog

    names, table = parse_table(lines, "<columns...>")
    if names != LOG_HEADER.split(","):
        raise MimicError(f"expected header '{LOG_HEADER}'")
    epoch, phase, lr, mses, maes = table.T
    new_run = np.ones(len(table), dtype=bool)
    new_run[1:] = (phase[1:] != phase[:-1]) | (lr[1:] != lr[:-1])
    starts = np.flatnonzero(new_run)
    if not (np.array_equal(epoch, np.arange(len(table)))
            and np.array_equal(phase[starts], np.arange(len(starts)))):
        raise MimicError("epochs must count from 0, and each phase from 0 must hold one lr")
    counts = np.diff(np.append(starts, len(table)))
    return TrainingLog(TrainingSchedule(tuple(zip(counts.tolist(), lr[starts].tolist()))),
                       mses, maes)


def schedule_run(schedule):
    """(lrs, resets, table) of train under schedule, with the net's pass and the update stubbed.

    lrs holds the learning rate that each epoch hands adam_step, resets
    the count of steps taken at each reset_state call, and table the
    columns of the training log that save_log writes for the run.
    """
    import motionmimic.trainer as trainer
    from motionmimic.textio import parse_table

    lrs, resets, reset = [], [], trainer.reset_state

    def zero_pass(net, x, y, buffers):
        buffers.grads[:], buffers.error[:] = 0.0, 0.0
        return 0.0, buffers.acts[-1], buffers.grads

    def record_reset(state):
        resets.append(len(lrs))
        return reset(state)

    dataset = trainer.MotionDataset(np.array([0.0, 0.02]), np.array([[0.0, 0.0], [0.0, 1.0]]), 50.0)
    with mock.patch.object(trainer, "forward_backward", zero_pass), \
            mock.patch.object(trainer, "adam_step", lambda *step: lrs.append(step[-1])), \
            mock.patch.object(trainer, "reset_state", record_reset):
        _, log = trainer.train(dataset, schedule, arch=[1, 2, 2])
    _, table = parse_table(text_lines(written(trainer.save_log, log)), "<columns...>")
    return np.array(lrs), resets, table


@functools.cache
def blas_kernel():
    """The OpenBLAS kernel numpy runs on, as tools/epochprofile.py's blas_probe names it."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "epochprofile.py"
    spec = importlib.util.spec_from_file_location("epochprofile", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.blas_probe()[1]


def kernel_digests(by_kernel):
    """by_kernel[the kernel numpy runs on]; a kernel without recorded digests fails, named."""
    kernel = blas_kernel()
    assert kernel in by_kernel, f"no digests recorded for the OpenBLAS kernel {kernel}"
    return by_kernel[kernel]
