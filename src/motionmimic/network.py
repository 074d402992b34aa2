"""Dense feedforward network with hand-derived backpropagation.

No autodiff framework: the forward pass, the half-scaled mean squared
error J = (1/2m) sum_i ||y_i - f_i||^2, and its exact gradients are
written out layer by layer in plain NumPy, in double precision.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .textio import LineReader, format_numbers, format_record

LEAKY_RELU = "leakyrelu"
LINEAR = "linear"
_ACTIVATIONS = (LEAKY_RELU, LINEAR)


@dataclass
class DenseLayer:
    """Affine map plus activation: act(W x + b), W is (out, in)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = LEAKY_RELU
    alpha: float = 0.01

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ShapeError("weights must be 2-D and biases 1-D")
        if self.biases.shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"bias length {self.biases.shape[0]} != output size {self.weights.shape[0]}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation '{self.activation}'")
        if self.activation == LEAKY_RELU and not 0 < self.alpha < np.inf:
            raise ConfigError("alpha must be positive and finite")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValidationError("layer parameters must be finite")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


def _layer_views(layers, flat):
    """Per-layer (weights, biases) views into flat: each layer's weights, row-major, then biases."""
    weights, biases, start = [], [], 0
    for layer in layers:
        out_dim, in_dim = layer.weights.shape
        weights.append(flat[start : start + out_dim * in_dim].reshape(out_dim, in_dim))
        start += out_dim * in_dim
        biases.append(flat[start : start + out_dim])
        start += out_dim
    return weights, biases


@dataclass
class MimicNetwork:
    """Stack of dense layers; the reference motion net is 1-75-50-23.

    All weights and biases live in params, one float64 vector that each
    layer's weights and biases are views of.
    """

    layers: list
    input_dim: int
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        prev = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.in_dim != prev:
                raise ShapeError(f"layer {i} expects input {layer.in_dim}, previous gives {prev}")
            prev = layer.out_dim
        self.params = np.concatenate([t.ravel() for layer in self.layers
                                      for t in (layer.weights, layer.biases)])
        for layer, w, b in zip(self.layers, *_layer_views(self.layers, self.params)):
            layer.weights, layer.biases = w, b

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass
class GradientSet:
    """Loss gradients: one vector laid out like MimicNetwork.params, and per-layer views into it."""

    flat: np.ndarray
    weights: list
    biases: list

    def first_nonfinite(self):
        """Name of the first tensor holding a non-finite value, e.g. 'layer1.weights'."""
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            for kind, g in (("weights", w), ("biases", b)):
                if not np.all(np.isfinite(g)):
                    return f"layer{i}.{kind}"


def leaky_relu(x, alpha: float = 0.01):
    """x for x >= 0, alpha*x otherwise; alpha must be positive and finite."""
    if not 0 < alpha < np.inf:
        raise ConfigError("alpha must be positive and finite")
    z = np.asarray(x, dtype=float)
    out = np.multiply(alpha, z, out=np.empty(z.shape))
    # in place: the larger of z and alpha*z when alpha <= 1, the smaller when alpha > 1
    (np.maximum if alpha <= 1 else np.minimum)(z, out, out=out)
    return float(out) if np.ndim(x) == 0 else out


def _leaky_relu_backward(delta, z, alpha):
    # the derivative at exactly 0 is taken as 1, for determinism
    return np.where(z >= 0, delta, alpha * delta)


def _as_batch(x, dim, what="input"):
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ShapeError(f"{what} must have {dim} components, got shape {np.shape(x)}")
    return arr, single


def _layers(net: MimicNetwork, a):
    """Yield (pre-activation, activation) of each layer in turn for the batch a."""
    for layer in net.layers:
        # one input: a broadcast outer product, rounded exactly as the matrix product
        z = a * layer.weights[:, 0] if layer.in_dim == 1 else a @ layer.weights.T
        # in place: large temporaries go back to the OS and are faulted in again every step
        z += layer.biases
        a = leaky_relu(z, layer.alpha) if layer.activation == LEAKY_RELU else z
        yield z, a


def forward(net: MimicNetwork, x):
    """Layer-by-layer evaluation; accepts one vector or a (m, in) batch."""
    a, single = _as_batch(x, net.input_dim)
    for z, a in _layers(net, a):
        del z  # frees each pre-activation before the next layer's is computed
    return a[0] if single else a


def mse_loss(pred, target) -> float:
    """Half-scaled mean squared error over a batch: (1/2m) sum ||y - f||^2."""
    p = np.asarray(pred, dtype=float)
    y = np.asarray(target, dtype=float)
    if p.shape != y.shape:
        raise ShapeError(f"prediction shape {p.shape} != target shape {y.shape}")
    if p.ndim == 1:
        p, y = p[None, :], y[None, :]
    diff = y - p
    return float(0.5 * np.sum(diff * diff) / p.shape[0])


def forward_backward(net: MimicNetwork, x, y):
    """One full pass: returns (loss, predictions, GradientSet).

    Gradients are the exact analytic derivatives of mse_loss with
    respect to every weight and bias, accumulated over the batch.
    """
    xb, _ = _as_batch(x, net.input_dim)
    yb, _ = _as_batch(y, net.output_dim, what="target")
    if xb.shape[0] != yb.shape[0]:
        raise ShapeError(f"batch sizes differ: {xb.shape[0]} inputs vs {yb.shape[0]} targets")
    m = xb.shape[0]

    pre, acts = [], [xb]
    for z, a in _layers(net, xb):
        pre.append(z)
        acts.append(a)
    delta = acts[-1] - yb
    loss = float(0.5 * np.sum(delta * delta) / m)

    flat = np.empty_like(net.params)
    grads = GradientSet(flat, *_layer_views(net.layers, flat))
    delta /= m  # dJ/d(layer output), propagated backwards
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        if layer.activation == LEAKY_RELU:
            delta = _leaky_relu_backward(delta, pre[li], layer.alpha)
        np.matmul(delta.T, acts[li], out=grads.weights[li])
        delta.sum(axis=0, out=grads.biases[li])
        if li > 0:
            delta = delta @ layer.weights
    return loss, acts[-1], grads


MAX_PARAMETERS = 10_000_000  # about 2000 times the 5123 of the 1-75-50-23 net


def initialize(layer_sizes, seed: int = 0, alpha: float = 0.01) -> MimicNetwork:
    """Seeded network: weights uniform in +/-sqrt(6/(in+out)), biases zero.

    layer_sizes is the full chain [input, hidden..., output]; hidden
    layers are leaky ReLU and the last layer is linear.  A chain of more
    than MAX_PARAMETERS weights and biases raises ConfigError before any
    array is built.
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ConfigError("need at least an input and an output size")
    if any(s <= 0 for s in sizes):
        raise ConfigError(f"layer sizes must be positive, got {sizes}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    total = sum(n_in * n_out + n_out for n_in, n_out in zip(sizes, sizes[1:]))
    if total > MAX_PARAMETERS:
        raise ConfigError(f"{total} parameters; a network holds at most {MAX_PARAMETERS}")
    n_layers = len(sizes) - 1

    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        act = LINEAR if i == n_layers - 1 else LEAKY_RELU
        layers.append(DenseLayer(weights, np.zeros(fan_out), act, alpha))
    return MimicNetwork(layers, input_dim=sizes[0])


# --- weight file format ----------------------------------------------------
# the header, then per layer its header, out rows of in weights and one row of out biases

WEIGHTS_HEADER = "mimicnet layers=<int> input=<int> alpha=<float>"
LAYER_HEADER = "layer out=<int> in=<int> act=<leakyrelu|linear>"


def format_weights(net: MimicNetwork) -> str:
    alphas = {layer.alpha for layer in net.layers if layer.activation == LEAKY_RELU}
    if len(alphas) > 1:
        raise ValidationError("layers must share a single alpha to be saved")
    alpha = alphas.pop() if alphas else 0.01
    lines = [format_record(WEIGHTS_HEADER, len(net.layers), net.input_dim, alpha)]
    for layer in net.layers:
        lines.append(format_record(LAYER_HEADER, layer.out_dim, layer.in_dim, layer.activation))
        lines += [format_numbers(row) for row in layer.weights]
        lines.append(format_numbers(layer.biases))
    return "\n".join(lines) + "\n"


def parse_weights(text: str) -> MimicNetwork:
    lines = LineReader(text)
    n_layers, input_dim, alpha = lines.record(WEIGHTS_HEADER)
    layers = []
    for _ in range(n_layers):
        out_dim, in_dim, act = lines.record(LAYER_HEADER)
        rows = [lines.numbers(in_dim, "weight") for _ in range(out_dim)]
        biases = lines.numbers(out_dim, "bias")
        layers.append(DenseLayer(np.array(rows), biases, act, alpha))
    lines.end()
    return MimicNetwork(layers, input_dim=input_dim)


def save_weights(net: MimicNetwork, path):
    Path(path).write_text(format_weights(net))


def load_weights(path) -> MimicNetwork:
    return parse_weights(Path(path).read_text())
