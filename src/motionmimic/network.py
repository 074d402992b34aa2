"""Dense feedforward network with hand-derived backpropagation.

No autodiff framework: the forward pass, the half-scaled mean squared
error J = (1/2m) sum_i ||y_i - f_i||^2, and its exact gradients are
written out layer by layer in plain NumPy, in double precision.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MimicError, require_positive
from .textio import LineReader, format_record, read_lines, write_rows

MAX_PARAMETERS = 10_000_000  # about 2000 times the 5123 of the 1-75-50-23 net
# The backward pass sums each weight gradient over blocks of this many rows, in row order, so
# its bits do not depend on how OpenBLAS splits a long sum between threads.  Measured on
# OpenBLAS 0.3.31 (SkylakeX, 1 thread): of 128- to 768-row blocks, 256 ran a 1500-row pass
# fastest, at 0.89 of the time of one product per gradient.
BLOCK_ROWS = 256


def parameter_count(sizes, alpha) -> int:
    """Weights and biases of the net sizes; MimicError unless sizes and alpha are usable."""
    if len(sizes) < 2:
        raise MimicError(f"a network needs at least one layer, so two sizes: {sizes}")
    if any(s <= 0 for s in sizes):
        raise MimicError(f"layer sizes must be positive, got {sizes}")
    total = sum(n_in * n_out + n_out for n_in, n_out in zip(sizes, sizes[1:]))
    if total > MAX_PARAMETERS:
        raise MimicError(f"{total} parameters; a network holds at most {MAX_PARAMETERS}")
    require_positive("alpha", alpha)
    return total


def layer_views(sizes, flat):
    """Per-layer (weights, biases) views into flat: each layer's weights, row-major, then biases."""
    weights, biases, start = [], [], 0
    for in_dim, out_dim in zip(sizes, sizes[1:]):
        weights.append(flat[start : start + out_dim * in_dim].reshape(out_dim, in_dim))
        start += out_dim * in_dim
        biases.append(flat[start : start + out_dim])
        start += out_dim
    return weights, biases


def _activation(i: int, n_layers: int) -> str:
    """The activation of layer i, fixed by its position: the last layer is linear."""
    return "linear" if i == n_layers - 1 else "leakyrelu"


@dataclass(eq=False)
class MimicNetwork:
    """The net of layer sizes [input, hidden..., output]; the reference motion net is 1-75-50-23.

    Each layer maps a to W a + b.  Hidden layers apply leaky ReLU with
    slope alpha; the last layer is linear.  sizes is a list of ints, as
    initialize takes them from train (cli._parse_arch or DEFAULT_HIDDEN)
    and parse_weights reads them from <int> fields.  All weights and
    biases live in params, one float64 vector of parameter_count(sizes,
    alpha) values, as initialize (np.zeros) and parse_weights
    (np.concatenate) build it; weights[i], shaped (out, in), and
    biases[i] are views of it.
    """

    sizes: list
    alpha: float
    params: np.ndarray = field(repr=False)
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        parameter_count(self.sizes, self.alpha)
        if not np.all(np.isfinite(self.params)):
            raise MimicError("network parameters must be finite")
        self.weights, self.biases = layer_views(self.sizes, self.params)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def output_dim(self) -> int:
        return self.sizes[-1]


def nonfinite_tensor(sizes, flat):
    """Name of the first tensor of flat, laid out like params, holding a non-finite value."""
    weights, biases = layer_views(sizes, flat)
    for i, (w, b) in enumerate(zip(weights, biases)):
        for kind, g in (("weights", w), ("biases", b)):
            if not np.isfinite(g).all():
                return f"layer{i}.{kind}"


def leaky_relu(z: np.ndarray, alpha: float, slope: np.ndarray) -> np.ndarray:
    """z for z >= 0, alpha*z otherwise, written over z; returns z.

    slope, shaped like z, is filled with the derivative, 1 where z >= 0
    (0 included, for determinism) and alpha elsewhere, NaN too; the
    backward pass multiplies its delta by it.  parameter_count has
    checked alpha.
    """
    np.greater_equal(z, 0.0, out=slope)  # 1 or 0, with no mask array
    if alpha <= 1:
        np.maximum(slope, alpha, out=slope)
    else:
        np.subtract(1.0, slope, out=slope)  # 0 or 1
        slope *= alpha
        np.maximum(slope, 1.0, out=slope)
    z *= slope
    return z


@dataclass(eq=False)
class EpochBuffers:
    """The arrays one forward_backward pass over a batch x writes into, made once by epoch_buffers.

    x1 is [x, 1] when layer 0 is one matrix product over it (see
    _input_matrix), else None.  acts[i], shaped (rows, out) for layer i,
    holds the layer's pre-activation, then its activation in place, and,
    once the next layer's weight gradient has read it, the backward delta
    of layer i.  slopes[i] holds hidden layer i's leaky ReLU slope.
    error holds the predictions minus the targets; delta holds its
    square, then error / m, the output layer's backward delta.  grads is
    the gradient vector, laid out like params, and grad_weights and
    grad_biases are its per-layer views.  block_grads[i], shaped like
    grad_weights[i], takes the product of each BLOCK_ROWS-row block after
    the first before it is added to the weight gradient.
    """

    x1: np.ndarray
    acts: list
    slopes: list
    error: np.ndarray
    delta: np.ndarray
    grads: np.ndarray
    grad_weights: list
    grad_biases: list
    block_grads: list


def _input_matrix(sizes, x):
    """[x, 1], shaped (rows, 2), when layer 0 is one matrix product over it, else None.

    A 1-input layer 0 stores its one weight column right before its
    biases, so [x, 1] @ params[:2 * width].reshape(2, width) is x w + b,
    bias included.  With at least 2 rows and 2 units numpy runs a
    matrix-matrix product, which rounds exactly as x * w followed by + b;
    a 1-row batch or a 1-unit layer goes to a matrix-vector kernel that
    rounds differently, so those take x @ w.T, then + b, as every other
    layer does.  Both give an exact-zero x * w as +0.0, so with a -0.0
    bias the sum is +0.0 where the broadcast x * w + b gives -0.0.
    """
    if sizes[0] != 1 or x.shape[1] != 1 or len(x) < 2 or sizes[1] < 2:
        return None
    return np.column_stack((x[:, 0], np.ones(len(x))))


def epoch_buffers(net: MimicNetwork, x: np.ndarray) -> EpochBuffers:
    """Buffers for passes of net, or of any net of its sizes, over the batch x."""
    acts = [np.empty((len(x), out)) for out in net.sizes[1:]]
    grads = np.empty_like(net.params)
    grad_weights, grad_biases = layer_views(net.sizes, grads)
    return EpochBuffers(
        x1=_input_matrix(net.sizes, x),
        acts=acts,
        slopes=[np.empty_like(a) for a in acts[:-1]],
        error=np.empty_like(acts[-1]),
        delta=np.empty_like(acts[-1]),
        grads=grads,
        grad_weights=grad_weights,
        grad_biases=grad_biases,
        block_grads=[np.empty_like(g) for g in grad_weights],
    )


def forward(net: MimicNetwork, x: np.ndarray, buffers=None) -> np.ndarray:
    """The net's output for the float (m, in) batch x, evaluated layer by layer.

    With buffers, made for x by epoch_buffers, layer i is written into
    buffers.acts[i]; without, into fresh arrays, each layer's input freed
    once the next layer is computed.
    """
    x1 = _input_matrix(net.sizes, x) if buffers is None else buffers.x1
    last = len(net.weights) - 1
    a = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.empty((len(a), len(b))) if buffers is None else buffers.acts[i]
        if i == 0 and x1 is not None:  # [x, 1] @ [w; b], a view of params: no bias add
            np.matmul(x1, net.params[: 2 * len(b)].reshape(2, len(b)), out=z)
        else:
            np.matmul(a, w.T, out=z)
            z += b
        if i < last:
            leaky_relu(z, net.alpha, np.empty_like(z) if buffers is None else buffers.slopes[i])
        a = z
    return a


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Half-scaled mean squared error over a (m, outputs) batch: (1/2m) sum ||y - f||^2."""
    diff = target - pred
    return float(0.5 * np.sum(diff * diff) / pred.shape[0])


def forward_backward(net: MimicNetwork, x: np.ndarray, y: np.ndarray, buffers: EpochBuffers):
    """One full pass: returns (loss, predictions, gradient vector).

    x is a float (m, in) batch and y its (m, out) targets.  Gradients are
    the exact analytic derivatives of mse_loss with respect to every
    weight and bias, accumulated over the batch, laid out like params.
    Each weight gradient is a sum over BLOCK_ROWS-row blocks in row order,
    and each delta @ W is taken a block at a time; a batch of at most
    BLOCK_ROWS rows is one block.  The pass writes into buffers, made by
    epoch_buffers for this x; the predictions and gradients it returns
    are views of them, overwritten by the next pass through the same
    buffers.
    """
    m = x.shape[0]
    pred = forward(net, x, buffers)
    error, delta = buffers.error, buffers.delta
    np.subtract(pred, y, out=error)
    np.multiply(error, error, out=delta)
    loss = float(0.5 * np.add.reduce(delta, axis=None) / m)  # np.sum, without its wrapper

    grad_weights, grad_biases = buffers.grad_weights, buffers.grad_biases
    np.divide(error, m, out=delta)  # dJ/d(layer output), propagated backwards
    inputs = [x, *buffers.acts[:-1]]
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, m, BLOCK_ROWS)]
    for li in range(len(net.weights) - 1, -1, -1):
        a = inputs[li]
        np.matmul(delta[blocks[0]].T, a[blocks[0]], out=grad_weights[li])
        for rows in blocks[1:]:
            grad_weights[li] += np.matmul(delta[rows].T, a[rows], out=buffers.block_grads[li])
        np.add.reduce(delta, axis=0, out=grad_biases[li])
        if li > 0:
            # layer li - 1's activation has served the weight gradient; its delta takes its place
            for rows in blocks:
                np.matmul(delta[rows], net.weights[li], out=a[rows])
            delta = a
            delta *= buffers.slopes[li - 1]
    return loss, pred, buffers.grads


def initialize(layer_sizes, seed: int = 0, alpha: float = 0.01) -> MimicNetwork:
    """Seeded network: weights uniform in +/-sqrt(6/(in+out)), biases zero.

    layer_sizes is the full chain [input, hidden..., output], a list of
    ints; the network keeps it as its sizes.  Sizes, alpha and the
    MAX_PARAMETERS bound are checked before any array is built.
    """
    total = parameter_count(layer_sizes, alpha)
    if seed < 0:
        raise MimicError(f"seed must be non-negative, got {seed}")
    net = MimicNetwork(layer_sizes, alpha, np.zeros(total))
    rng = np.random.default_rng(seed)
    for w in net.weights:
        bound = np.sqrt(6.0 / sum(w.shape))  # fan_in + fan_out
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return net


# --- weight file format ----------------------------------------------------
# the header, then per layer its header, out rows of in weights and one row of out biases

WEIGHTS_HEADER = "mimicnet layers=<int> input=<int> alpha=<float>"
LAYER_HEADER = "layer out=<int> in=<int> act=<leakyrelu|linear>"


def parse_weights(lines) -> MimicNetwork:
    lines = LineReader(lines)
    n_layers, input_dim, alpha = lines.record(WEIGHTS_HEADER)
    sizes, values = [input_dim], [np.empty(0)]
    for i in range(n_layers):
        out_dim, in_dim, act = lines.record(LAYER_HEADER)
        if in_dim != sizes[-1]:
            lines.fail(f"in={in_dim} must equal the previous out= or input=, {sizes[-1]}")
        if act != _activation(i, n_layers):
            lines.fail(f"layer {i} of {n_layers} must be act={_activation(i, n_layers)}")
        values += [lines.numbers(in_dim, "weight") for _ in range(out_dim)]
        values.append(lines.numbers(out_dim, "bias"))
        sizes.append(out_dim)
    lines.end()
    return MimicNetwork(sizes, alpha, np.concatenate(values))


def save_weights(net: MimicNetwork, path):
    n_layers = len(net.weights)
    with open(path, "wb") as out:
        out.write(f"{format_record(WEIGHTS_HEADER, n_layers, net.input_dim, net.alpha)}\n".encode())
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            layer = format_record(LAYER_HEADER, *w.shape, _activation(i, n_layers))
            out.write(f"{layer}\n".encode())
            write_rows(out, w, b" ")
            write_rows(out, b[None], b" ")


def load_weights(path) -> MimicNetwork:
    return parse_weights(read_lines(path))
