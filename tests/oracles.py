"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own code paths: the
spline oracle assembles the full dense linear system instead of the
tridiagonal solve, the gradient oracle uses central finite differences,
the Adam oracle is a plain-float recurrence, the forward oracle is
per-neuron Python loops, the derivative oracle differentiates a
spline's segment cubics term by term, the unfused pass and the expression Adam step
are the array code that the buffered epoch replaced, making fresh arrays, and the plant oracle advances one tick at a
time through plant.step.  The table oracle is the row-template CSV
writer that textio.format_table replaced: one '%.17g,...' % row per line.
The numbers oracle is the per-value writer that textio.format_numbers
replaced, and the table reader oracle converts one line at a time with
float(), as textio.parse_table did before it read blocks of lines.
"""

import math

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


def unfused_forward_backward(net, x, y):
    """The per-tensor pass: np.where activation, slope-mask gradient, fresh arrays.

    Returns (loss, predictions, weight gradients, bias gradients).
    """
    last = len(net.weights) - 1
    pre, acts = [], [x]
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        pre.append(z)
        acts.append(np.where(z >= 0, z, net.alpha * z) if li < last else z)
    diff = acts[-1] - y
    loss = float(0.5 * np.sum(diff * diff) / len(x))
    delta = diff / len(x)
    w_grads, b_grads = [], []
    for li in range(last, -1, -1):
        if li < last:
            delta = delta * np.where(pre[li] >= 0, 1.0, net.alpha)
        w_grads.insert(0, delta.T @ acts[li])
        b_grads.insert(0, delta.sum(axis=0))
        delta = delta @ net.weights[li]
    return loss, acts[-1], w_grads, b_grads


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
    from motionmimic.errors import MimicError

    table = np.asarray(matrix, dtype=float)
    if table.shape[1:] != (len(header),):
        raise MimicError(f"{len(header)} column names for a table of shape {table.shape}")
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [template % tuple(row.tolist()) for row in table]
    lines.append("")  # the final newline, without a second copy of the joined text
    return "\n".join(lines)


def format_numbers_each(values):
    """Space-separated numbers, each written by its own '%.17g' % value."""
    return " ".join("%.17g" % v for v in values)


def parse_table_rows(text):
    """(names, table) of CSV text, each non-blank line after the first converted by float()."""
    lines = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
    names = lines[0][1].split(",")
    table = np.empty((len(lines) - 1, len(names)))
    for i, (_, line) in enumerate(lines[1:]):
        table[i] = [float(part) for part in line.split(",")]
    return names, table
