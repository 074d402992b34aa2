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


def layer_blocks(sizes, flat):
    """Per-layer views into flat, each layer's C-ordered (in + 1, out) block [Wᵀ; b] in turn."""
    blocks, start = [], 0
    for in_dim, out_dim in zip(sizes, sizes[1:]):
        blocks.append(flat[start : start + (in_dim + 1) * out_dim].reshape(in_dim + 1, out_dim))
        start += (in_dim + 1) * out_dim
    return blocks


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
    (np.concatenate) build it.  Layer i holds blocks[i], a C-ordered
    (in + 1, out) view of params: W transposed, then a row of biases, so
    [a, 1] @ blocks[i] is the layer's W a + b in one matrix product.
    Layer i's W, shaped (out, in), is blocks[i][:-1].T and its b is
    blocks[i][-1].
    """

    sizes: list
    alpha: float
    params: np.ndarray = field(repr=False)
    blocks: list = field(init=False, repr=False)

    def __post_init__(self):
        parameter_count(self.sizes, self.alpha)
        if not np.all(np.isfinite(self.params)):
            raise MimicError("network parameters must be finite")
        self.blocks = layer_blocks(self.sizes, self.params)


def nonfinite_tensor(sizes, flat):
    """Name of the first tensor of flat, laid out like params, holding a non-finite value."""
    for i, block in enumerate(layer_blocks(sizes, flat)):
        for kind, g in (("weights", block[:-1]), ("biases", block[-1])):
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

    x1 is [x, 1], layer 0's input with its column of ones.  acts[i] holds
    layer i's pre-activation, then its activation in place, and, once the
    next layer's weight gradient has read it, the backward delta of layer
    i.  A hidden layer's acts[i] is shaped (rows, out + 1): its last
    column holds 1.0, so the buffer is [a, 1], the next layer's input.
    The output layer's is (rows, out).  slopes[i], shaped like acts[i],
    holds hidden layer i's leaky ReLU slope, 1 in the column of ones.
    error holds the predictions minus the targets; delta holds its
    square, then error / m, the output layer's backward delta.  grads is
    the gradient vector, laid out like params, and grad_blocks its
    per-layer [Wᵀ; b] views.  block_grads[i], shaped like grad_blocks[i],
    takes the product of each BLOCK_ROWS-row block after the first before
    it is added to the gradient.  weights[i] is a C-ordered copy of layer
    i's W, blocks[i][:-1].T shaped (out, in), for delta @ W; layer 0's is
    None, since no delta goes below it.
    """

    x1: np.ndarray
    acts: list
    slopes: list
    error: np.ndarray
    delta: np.ndarray
    grads: np.ndarray
    grad_blocks: list
    block_grads: list
    weights: list


def _one_product(rows: int, width: int) -> bool:
    """Whether a layer of width units runs over rows rows as the one product [a, 1] @ [Wᵀ; b].

    With at least 2 rows and 2 units numpy runs a matrix-matrix product,
    which takes the bias as the last term of each sum; for a 1-input
    layer that rounds exactly as a * w followed by + b.  A 1-row batch or
    a 1-unit layer goes to a matrix-vector kernel that rounds differently,
    so it takes a @ W.T, then + b.  Both give an exact-zero a * w as
    +0.0, so with a -0.0 bias the sum is +0.0 where the broadcast a * w +
    b gives -0.0.
    """
    return rows >= 2 and width >= 2


def _input_matrix(x):
    """[x, 1]: layer 0's input x with a column of ones."""
    return np.column_stack((x, np.ones(len(x))))


def _layer_buffer(rows: int, width: int, hidden: bool):
    """(rows, width) for the output layer.  A hidden layer's has one more column, held at 1.0,
    so that once the layer has written its activation the buffer is [a, 1]."""
    out = np.empty((rows, width + hidden))
    out[:, width:] = 1.0
    return out


def epoch_buffers(net: MimicNetwork, x: np.ndarray) -> EpochBuffers:
    """Buffers for passes of net, or of any net of its sizes, over the batch x."""
    last = len(net.sizes) - 2
    acts = [_layer_buffer(len(x), out, i < last) for i, out in enumerate(net.sizes[1:])]
    grads = np.empty_like(net.params)
    grad_blocks = layer_blocks(net.sizes, grads)
    return EpochBuffers(
        x1=_input_matrix(x),
        acts=acts,
        slopes=[np.empty_like(a) for a in acts[:-1]],
        error=np.empty_like(acts[-1]),
        delta=np.empty_like(acts[-1]),
        grads=grads,
        grad_blocks=grad_blocks,
        block_grads=[np.empty_like(g) for g in grad_blocks],
        weights=[None, *(np.empty(block[:-1].T.shape) for block in net.blocks[1:])],
    )


def forward(net: MimicNetwork, x: np.ndarray, buffers=None) -> np.ndarray:
    """The net's output for the float (m, in) batch x, evaluated layer by layer.

    With buffers, made for x by epoch_buffers, layer i is written into
    buffers.acts[i]; without, into fresh arrays laid out the same way,
    each layer's input freed once the next layer is computed.  Either
    way each layer's input is [a, 1], and the two give the same bits.
    """
    a1 = _input_matrix(x) if buffers is None else buffers.x1
    last = len(net.blocks) - 1
    for i, block in enumerate(net.blocks):
        width = block.shape[1]
        out = _layer_buffer(len(x), width, i < last) if buffers is None else buffers.acts[i]
        z = out[:, :width]
        if _one_product(len(x), width):
            np.matmul(a1, block, out=z)
        else:
            np.matmul(a1[:, :-1], block[:-1], out=z)
            z += block[-1]
        if i < last:  # over the column of ones too, which stays 1.0 with slope 1
            leaky_relu(out, net.alpha, np.empty_like(out) if buffers is None else buffers.slopes[i])
        a1 = out
    return a1


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Half-scaled mean squared error over a (m, outputs) batch: (1/2m) sum ||y - f||^2."""
    diff = target - pred
    return float(0.5 * np.sum(diff * diff) / pred.shape[0])


def forward_backward(net: MimicNetwork, x: np.ndarray, y: np.ndarray, buffers: EpochBuffers):
    """One full pass: returns (loss, predictions, gradient vector).

    x is a float (m, in) batch and y its (m, out) targets.  Gradients are
    the exact analytic derivatives of mse_loss with respect to every
    weight and bias, accumulated over the batch, laid out like params.
    Each layer's gradient block is [a, 1]ᵀ @ delta, bias row included,
    summed over BLOCK_ROWS-row blocks in row order, and each delta @ W is
    taken a block at a time; a batch of at most BLOCK_ROWS rows is one
    block.  The pass writes into buffers, made by epoch_buffers for this
    x; the predictions and gradients it returns are views of them,
    overwritten by the next pass through the same buffers.
    """
    m = x.shape[0]
    pred = forward(net, x, buffers)
    error, delta = buffers.error, buffers.delta
    np.subtract(pred, y, out=error)
    np.multiply(error, error, out=delta)
    loss = float(0.5 * np.add.reduce(delta, axis=None) / m)  # np.sum, without its wrapper

    np.divide(error, m, out=delta)  # dJ/d(layer output), propagated backwards
    inputs = [buffers.x1, *buffers.acts[:-1]]  # each layer's [a, 1]
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, m, BLOCK_ROWS)]
    for li in range(len(net.blocks) - 1, -1, -1):
        a1, grad = inputs[li], buffers.grad_blocks[li]
        np.matmul(a1[blocks[0]].T, delta[blocks[0]], out=grad)  # [dJ/dWᵀ; dJ/db]
        for rows in blocks[1:]:
            grad += np.matmul(a1[rows].T, delta[rows], out=buffers.block_grads[li])
        if li > 0:
            w = buffers.weights[li]
            np.copyto(w, net.blocks[li][:-1].T)  # OpenBLAS runs delta @ W faster on a C-ordered W
            # layer li - 1's activation has served the gradient; its delta takes its place
            below = a1[:, :-1]
            for rows in blocks:
                np.matmul(delta[rows], w, out=below[rows])
            a1 *= buffers.slopes[li - 1]  # the column of ones times slope 1 stays 1.0
            delta = below
    return loss, pred, buffers.grads


def initialize(layer_sizes, seed: int = 0, alpha: float = 0.01) -> MimicNetwork:
    """Seeded network: weights uniform in +/-sqrt(6/(in+out)), biases zero.

    layer_sizes is the full chain [input, hidden..., output], a list of
    ints; the network keeps it as its sizes.  Sizes, alpha and the
    MAX_PARAMETERS bound are checked before any array is built.  Layer
    by layer, one draw fills W, the view blocks[i][:-1].T shaped (out,
    in), row by row: the order a weights file lists the weights in.
    """
    total = parameter_count(layer_sizes, alpha)
    if seed < 0:
        raise MimicError(f"seed must be non-negative, got {seed}")
    net = MimicNetwork(layer_sizes, alpha, np.zeros(total))
    rng = np.random.default_rng(seed)
    for block in net.blocks:
        w = block[:-1].T
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
        w = np.array([lines.numbers(in_dim, "weight") for _ in range(out_dim)], ndmin=2)
        values += [w.T.ravel(), lines.numbers(out_dim, "bias")]  # the layer's [Wᵀ; b] block
        sizes.append(out_dim)
    lines.end()
    return MimicNetwork(sizes, alpha, np.concatenate(values))


def save_weights(net: MimicNetwork, path):
    n_layers = len(net.blocks)
    with open(path, "wb") as out:
        out.write(f"{format_record(WEIGHTS_HEADER, n_layers, net.sizes[0], net.alpha)}\n".encode())
        for i, block in enumerate(net.blocks):
            w = block[:-1].T
            layer = format_record(LAYER_HEADER, *w.shape, _activation(i, n_layers))
            out.write(f"{layer}\n".encode())
            write_rows(out, w, b" ")
            write_rows(out, block[-1:], b" ")


def load_weights(path) -> MimicNetwork:
    return parse_weights(read_lines(path))
