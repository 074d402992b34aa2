import hashlib
import re

import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.network import (
    MimicNetwork,
    epoch_buffers,
    forward,
    forward_backward,
    initialize,
    leaky_relu,
    load_weights,
    mse_loss,
    nonfinite_tensor,
    parameter_count,
    parse_weights,
    save_weights,
)
from motionmimic.optimizer import adam_init, adam_step

from oracles import (
    finite_difference_gradients,
    layer_views,
    loop_forward,
    max_relative_gradient_error,
    text_lines,
    unfused_forward_backward,
    with_ones,
    written,
)


def single_layer(w, b):
    """The linear net of one layer with weights w, shaped (out, in), and biases b."""
    w = np.array(w, dtype=float)
    return MimicNetwork([w.shape[1], w.shape[0]], 0.01, np.vstack([w.T, b]).ravel())


def random_small_network(rng):
    n_layers = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 11)) for _ in range(n_layers + 1)]
    return initialize(sizes, seed=int(rng.integers(0, 2**31)), alpha=0.01)


def relu(z, alpha):
    """leaky_relu of a copy of z, and the slope it wrote."""
    z = np.array(z, dtype=float)
    slope = np.empty_like(z)
    return leaky_relu(z, alpha, slope), slope


def test_leaky_relu_branches():
    z = np.array([2.0, -1.0])
    slope = np.empty_like(z)
    assert leaky_relu(z, 0.01, slope) is z  # in place
    np.testing.assert_array_equal(z, [2.0, -0.01])
    np.testing.assert_array_equal(slope, [1.0, 0.01])
    np.testing.assert_array_equal(relu([0.0], 0.3), [[0.0], [1.0]])
    np.testing.assert_allclose(relu([-2.0, 3.0], 0.1)[0], [-0.2, 3.0])
    # alpha is checked when a net is built, not on each call
    for bad in (0.0, -0.5, np.nan, np.inf):
        refusal = f"^alpha must be positive and finite, got {re.escape(str(bad))}$"
        with pytest.raises(MimicError, match=refusal):
            MimicNetwork([1, 1, 1], bad, np.zeros(4))
        # checked with no hidden layer too, where no leaky ReLU runs
        with pytest.raises(MimicError, match=refusal):
            initialize([1, 3], alpha=bad)


TINY = np.finfo(float).tiny
SPECIAL = np.array([-0.0, 0.0, np.nan, -np.nan, 5e-324, -5e-324, TINY / 3, -TINY / 3, TINY,
                    -TINY, np.inf, -np.inf, 1e300, -1e300, 1.0, -1.0, 2.5, -0.4])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("alpha", [0.01, 1.0, 2.5])
def test_leaky_relu_matches_where_reference_bit_for_bit(alpha):
    rng = np.random.default_rng(11)
    z = np.concatenate([SPECIAL, rng.standard_normal(200), rng.standard_normal(50) * TINY])
    np.testing.assert_array_equal(bits(relu(z, alpha)[0]), bits(np.where(z >= 0, z, alpha * z)))
    for v in SPECIAL:
        one = np.array([v])
        assert bits(relu(one, alpha)[0]) == bits(np.where(one >= 0, one, alpha * one))


@pytest.mark.parametrize("alpha", [0.01, 1.0, 2.5, 1e-300, 1e300])
def test_leaky_relu_backward_matches_slope_mask_bit_for_bit(alpha):
    rng = np.random.default_rng(12)
    z = np.concatenate([SPECIAL, rng.standard_normal(len(SPECIAL))])
    delta = np.concatenate([rng.standard_normal(len(SPECIAL)), SPECIAL])
    z, delta = np.meshgrid(z, delta)  # every value of z against every value of delta
    with np.errstate(over="ignore", under="ignore"):
        _, slope = relu(z, alpha)
        backward, reference = delta * slope, np.where(z >= 0, delta, alpha * delta)
    # the derivative at exactly 0 is taken as 1, for determinism; NaN takes alpha
    np.testing.assert_array_equal(bits(slope), bits(np.where(z >= 0, 1.0, alpha)))
    np.testing.assert_array_equal(bits(backward), bits(reference))


@pytest.mark.parametrize("sizes", [[1, 75, 50, 23], [3, 6, 4, 2], [1, 3]])
@pytest.mark.parametrize("alpha", [0.01, 1.0, 2.5])
def test_forward_backward_matches_unfused_pass_bit_for_bit(sizes, alpha):
    """Fresh buffers, and two passes with other params and targets through one set, match."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, size=(33, sizes[0]))
    shared = epoch_buffers(initialize(sizes, alpha=alpha), x)
    for seed in (4, 5):
        net = initialize(sizes, seed=seed, alpha=alpha)
        for b in layer_views(sizes, net.params)[1]:
            b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
        y = rng.uniform(-1.0, 1.0, size=(33, sizes[-1]))
        ref_loss, ref_pred, ref_w, ref_b = unfused_forward_backward(net, x, y)
        np.testing.assert_array_equal(bits(forward(net, x)), bits(ref_pred))
        for buffers in (epoch_buffers(net, x), shared):
            loss, pred, grads = forward_backward(net, x, y, buffers)
            assert loss == ref_loss
            np.testing.assert_array_equal(bits(pred), bits(ref_pred))
            got_w, got_b = layer_views(sizes, grads)
            for got, want in zip(got_w + got_b, ref_w + ref_b):
                np.testing.assert_array_equal(bits(got), bits(want))
        assert pred is shared.acts[-1] and grads is shared.grads
        np.testing.assert_array_equal(bits(shared.error), bits(ref_pred - y))


def long_batch(sizes, rows):
    """A seeded net with nonzero biases, and a batch of rows inputs on [-1, 1] with targets."""
    rng = np.random.default_rng(rows)
    net = initialize(sizes, seed=rows)
    for b in layer_views(sizes, net.params)[1]:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    x = np.linspace(-1.0, 1.0, rows)[:, None]
    return net, x, rng.uniform(-1.0, 1.0, size=(rows, sizes[-1]))


@pytest.mark.parametrize("rows", [255, 256, 257, 300, 512, 513, 1500])
@pytest.mark.parametrize("sizes", [[1, 75, 50, 23], [1, 5, 1, 3]], ids=["1:75:50:23", "1:5:1:3"])
def test_forward_backward_sums_the_same_row_blocks_as_the_unfused_pass(sizes, rows):
    """One block, two with a 1-row tail, and more: forward_backward is the blocked oracle's bits."""
    net, x, y = long_batch(sizes, rows)
    ref_loss, ref_pred, ref_w, ref_b = unfused_forward_backward(net, x, y)
    loss, pred, grads = forward_backward(net, x, y, epoch_buffers(net, x))
    assert loss == ref_loss
    np.testing.assert_array_equal(bits(pred), bits(ref_pred))
    got_w, got_b = layer_views(sizes, grads)
    for got, want in zip(got_w + got_b, ref_w + ref_b):
        np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("rows", [2, 61, 161, 256, 257, 600, 1500])
@pytest.mark.parametrize("sizes", [[1, 75, 50, 23], [1, 5, 1, 3]], ids=["1:75:50:23", "1:5:1:3"])
def test_replay_gives_the_training_pass_predictions_bit_for_bit(sizes, rows):
    """forward without buffers, as eval and rollout run it, is the buffered pass's output."""
    net, x, y = long_batch(sizes, rows)
    _, pred, _ = forward_backward(net, x, y, epoch_buffers(net, x))
    np.testing.assert_array_equal(bits(forward(net, x)), bits(pred))


def test_column_of_ones_stays_one_through_passes_and_a_nonfinite_target():
    """Each hidden buffer's last column, [a, 1]'s ones, is exactly 1.0 after every pass."""
    for sizes in ([1, 75, 50, 23], [1, 5, 1, 3]):
        net, x, y = long_batch(sizes, 300)
        buffers = epoch_buffers(net, x)
        bad = y.copy()
        bad[7, 1] = np.nan
        with np.errstate(invalid="ignore"):
            for target in (y, bad, y):
                forward_backward(net, x, target, buffers)
                assert np.isfinite(buffers.grads).all() == (target is not bad)
                for a in buffers.acts[:-1]:
                    np.testing.assert_array_equal(bits(a[:, -1]), bits(np.ones(len(x))))


def gradient_magnitudes(net, x, y):
    """(|delta|.T @ |a|, |delta| summed over rows) per layer, |delta| propagated through |W|.

    Each weight-gradient entry sums rows products delta * a, and each
    delta entry is a chain of dot products from the output error down;
    these are the same sums taken over the magnitudes of their terms.
    """
    weights, biases = layer_views(net.sizes, net.params)
    acts, slopes, last = [x], [], len(weights) - 1
    for li, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        slopes.append(np.where(z >= 0, 1.0, net.alpha) if li < last else 1.0)
        acts.append(z * slopes[-1])
    d = np.abs(acts[-1] - y) / len(x)
    w_sums, b_sums = [], []
    for li in range(last, -1, -1):
        w_sums.insert(0, d.T @ np.abs(acts[li]))
        b_sums.insert(0, d.sum(axis=0))
        if li > 0:
            d = (d @ np.abs(weights[li])) * slopes[li - 1]
    return w_sums, b_sums


def test_row_blocks_move_the_gradients_of_1500_rows_by_rounding_only():
    """Blocked and one-product gradients differ by no more than their rounding bound.

    Both passes share the forward pass; they differ in the order of each
    weight gradient's row sum and of each delta @ W.  An entry of layer
    i's weight gradient is a sum of rows products; its delta comes from
    the output error (a subtraction and a division) through, for each
    layer above, a dot product over that layer's width and a slope
    product.  So each pass lies within gamma_N = N u / (1 - N u) of the
    exact value, relative to the same sums over the magnitudes of the
    terms (gradient_magnitudes), with N the count of roundings below, and
    the two passes within 2 gamma_N of each other.  2 N eps = 4 N u
    leaves room for the second-order terms.
    """
    sizes, rows = [1, 75, 50, 23], 1500
    net, x, y = long_batch(sizes, rows)
    _, _, grads = forward_backward(net, x, y, epoch_buffers(net, x))
    _, _, one_w, one_b = unfused_forward_backward(net, x, y, block_rows=rows)
    got_w, got_b = layer_views(sizes, grads)
    w_sums, b_sums = gradient_magnitudes(net, x, y)
    for li in range(len(sizes) - 1):
        # the row sum and each product, the output error, then each layer above
        n = rows + 1 + 2 + sum(width + 1 for width in sizes[li + 2:])
        bound = 2 * n * np.finfo(float).eps
        assert np.all(np.abs(got_w[li] - one_w[li]) <= bound * w_sums[li])
        assert np.all(np.abs(got_b[li] - one_b[li]) <= bound * b_sums[li])


LAYER0_ROWS = [*range(1, 71), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025,
               2999, 3001]
LAYER0_INPUTS = np.array([0.0, -0.0, 5e-324, -5e-324, TINY / 3, TINY, np.inf, -np.inf, 1.0])
# one layer of each width, a width-1 hidden layer and a 1-unit layer 0
LAYER0_NETS = [*(pytest.param([1, w], id=str(w)) for w in (1, 2, 3, 5, 23, 50, 75)),
               pytest.param([1, 5, 1, 3], id="1:5:1:3"), pytest.param([1, 1, 4, 3], id="1:1:4:3")]


def broadcast_forward(net, x):
    """The forward pass with every 1-input layer as the broadcast np.multiply(a, w[:, 0]) + b.

    Any other layer of 2 or more units over 2 or more rows is [a, 1] @
    [Wᵀ; b] on fresh arrays, and the rest a @ w.T + b, as in the network.
    """
    a, (weights, biases) = x, layer_views(net.sizes, net.params)
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape[1] == 1:
            z = np.multiply(a, w[:, 0]) + b
        elif w.shape[0] >= 2 and len(a) >= 2:
            z = with_ones(a) @ np.vstack([w.T, b])
        else:
            z = a @ w.T + b
        a = np.where(z >= 0, z, net.alpha * z) if i < len(weights) - 1 else z
    return a


@pytest.mark.parametrize("sizes", LAYER0_NETS)
def test_layer0_product_matches_broadcast_formula_bit_for_bit(sizes):
    """[t, 1] @ [w; b] rounds as t * w + b, in forward and in the buffered pass, at every size.

    1-row batches and 1-unit layers take a @ w.T, then + b, which rounds
    as the broadcast formula too; a layer after a 1-unit layer is a
    1-input layer, one product over its [a, 1].  The inputs include
    zeros, subnormals and infinities.
    """
    width = sizes[1]
    rng = np.random.default_rng(width)
    for rows in LAYER0_ROWS:
        t = rng.uniform(0.0, 1.0, size=(rows, 1))
        t[1 : 1 + len(LAYER0_INPUTS), 0] = LAYER0_INPUTS[: rows - 1]  # row 0 stays random
        w = rng.uniform(-1.0, 1.0, size=(width, 1))
        w[1:3, 0] = [TINY / 5, -3.0][: width - 1]  # a subnormal product, -0.0 times a negative
        params = [w.ravel(), rng.uniform(-0.5, 0.5, size=width)]
        for n_in, n_out in zip(sizes[1:], sizes[2:]):
            params += [rng.uniform(-1.0, 1.0, size=n_out * n_in),
                       rng.uniform(-0.5, 0.5, size=n_out)]
        net = MimicNetwork(sizes, 0.01, np.concatenate(params))
        with np.errstate(all="ignore"):
            want = bits(broadcast_forward(net, t))
            np.testing.assert_array_equal(bits(forward(net, t)), want)
            buffers = epoch_buffers(net, t)
            _, pred, _ = forward_backward(net, t, np.zeros((rows, sizes[-1])), buffers)
        np.testing.assert_array_equal(bits(pred), want)


def test_layer0_product_sign_of_zero_with_negative_zero_bias():
    """The one bit the product can change: t * w + b is -0.0 only where t * w and b are -0.0.

    The product gives +0.0 there, and so does a 1-row batch's t @ w.T,
    then + b.  Training never makes a -0.0 bias: biases start at +0.0,
    and an Adam step subtracts, which from +0.0 never gives -0.0.
    """
    net = single_layer([[-1.0], [2.0]], [-0.0, -0.0])
    t = np.array([[0.0], [0.5]])
    (w,), (b,) = layer_views(net.sizes, net.params)
    want = np.multiply(t, w[:, 0]) + b
    assert np.signbit(want[0, 0]) and want[0, 0] == 0.0
    got = forward(net, t)
    assert not np.signbit(got[0, 0]) and got[0, 0] == 0.0
    np.testing.assert_array_equal(bits(got.ravel()[1:]), bits(want.ravel()[1:]))
    assert not np.signbit(forward(net, t[:1])[0, 0])
    net = initialize([1, 4, 3], seed=0)
    biases = layer_views(net.sizes, net.params)[1]
    for b in biases:
        assert not np.signbit(b).any()
    state = adam_init(net.params)
    adam_step(state, net.params, np.where(np.arange(net.params.size) % 2, -0.0, 0.0), lr=0.1)
    for b in biases:
        assert not np.signbit(b).any()


def test_parameters_and_gradients_are_views_of_one_vector():
    """Layer by layer, params holds one C-ordered (in + 1, out) block [Wᵀ; b], and so do grads."""
    net = initialize([1, 5, 4, 3], seed=0)
    weights, biases = layer_views(net.sizes, net.params)
    total = sum(w.size + b.size for w, b in zip(weights, biases))
    assert net.params.shape == (total,)
    x = np.array([[0.3], [0.8]])
    _, _, grads = forward_backward(net, x, np.zeros((2, 3)), epoch_buffers(net, x))
    assert grads.shape == (total,)
    start = 0
    for block, w, b, gw, gb in zip(net.blocks, weights, biases, *layer_views(net.sizes, grads)):
        end = start + block.size
        assert block.shape == (w.shape[1] + 1, w.shape[0]) and block.flags.c_contiguous
        assert np.shares_memory(block, net.params[start:end])
        np.testing.assert_array_equal(net.params[start:end], np.vstack([w.T, b]).ravel())
        np.testing.assert_array_equal(grads[start:end], np.vstack([gw.T, gb]).ravel())
        for tensor, grad in ((w, gw), (b, gb)):
            assert np.shares_memory(tensor, block)
            assert np.shares_memory(grad, grads[start:end])
            assert grad.shape == tensor.shape
        start = end
    assert start == total
    net.params[:] = 0.0
    np.testing.assert_array_equal(forward(net, np.array([[0.5]])), np.zeros((1, 3)))


def test_gradient_set_names_first_nonfinite_tensor():
    net = initialize([1, 4, 2], seed=0)
    x = np.array([[0.5]])
    _, _, grads = forward_backward(net, x, np.array([[0.0, 1.0]]), epoch_buffers(net, x))
    weights, biases = layer_views(net.sizes, grads)
    assert nonfinite_tensor(net.sizes, grads) is None
    biases[1][0] = np.inf
    assert nonfinite_tensor(net.sizes, grads) == "layer1.biases"
    weights[1][1, 2] = np.nan
    assert nonfinite_tensor(net.sizes, grads) == "layer1.weights"
    biases[0][3] = -np.inf
    assert nonfinite_tensor(net.sizes, grads) == "layer0.biases"


def test_nonfinite_tensor_names_the_tensor_of_every_index():
    """A NaN at each flat index in turn is named as the oracle's (W, b) reading places it."""
    sizes = [1, 3, 2, 2]
    grads = np.zeros(parameter_count(sizes, 0.01))
    names = []
    for k in range(grads.size):
        grads[k] = np.nan
        weights, biases = layer_views(sizes, grads)
        want = [f"layer{i}.{kind}" for i, (w, b) in enumerate(zip(weights, biases))
                for kind, g in (("weights", w), ("biases", b)) if np.isnan(g).any()]
        assert len(want) == 1
        assert nonfinite_tensor(sizes, grads) == want[0]
        names.append(want[0])
        grads[k] = 0.0
    assert nonfinite_tensor(sizes, grads) is None
    # each block is its W's in * out values, then its out biases
    assert names == (["layer0.weights"] * 3 + ["layer0.biases"] * 3 + ["layer1.weights"] * 6
                     + ["layer1.biases"] * 2 + ["layer2.weights"] * 4 + ["layer2.biases"] * 2)


def test_forward_zero_network_gives_zeros():
    net = initialize([1, 75, 50, 23], seed=0)
    for w, b in zip(*layer_views(net.sizes, net.params)):
        w[:] = 0.0
        b[:] = 0.0
    np.testing.assert_array_equal(forward(net, np.array([[0.7]])), np.zeros((1, 23)))


def test_forward_single_affine_layer():
    net = single_layer([[2.0]], [1.0])
    np.testing.assert_allclose(forward(net, np.array([[3.0]])), [[7.0]])


def test_forward_matches_loop_oracle():
    net = initialize([1, 75, 50, 23], seed=42)
    x = np.array([[0.5]])
    np.testing.assert_allclose(forward(net, x), [loop_forward(net, row) for row in x],
                               rtol=1e-12, atol=1e-12)


def test_forward_batch_and_determinism():
    net = initialize([2, 6, 3], seed=1)
    batch = np.array([[0.1, -0.2], [0.5, 0.7], [0.0, 0.0]])
    out1 = forward(net, batch)
    out2 = forward(net, batch)
    assert out1.shape == (3, 3)
    np.testing.assert_array_equal(out1, out2)
    # single-row evaluation may use a different BLAS path; values agree
    np.testing.assert_allclose(out1[1], forward(net, batch[1:2])[0], rtol=1e-14)


def test_mse_examples():
    assert mse_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0
    assert mse_loss(np.zeros((1, 2)), np.array([[3.0, 4.0]])) == pytest.approx(12.5)
    # per-sample squared norms 2 and 6 with batch size 2 -> (2 + 6) / 4
    pred = np.zeros((2, 2))
    target = np.array([[1.0, 1.0], [2.0, np.sqrt(2.0)]])
    assert mse_loss(pred, target) == pytest.approx(2.0)


def test_mse_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(2)
    pred = rng.standard_normal((5, 4))
    target = pred + rng.standard_normal((5, 4)) * 0.1
    assert mse_loss(pred, target) > 0.0
    assert mse_loss(pred, pred.copy()) == 0.0


def test_backward_hand_differentiated_case():
    # y = w*x + b with w=1, b=0, x=2, target 0: J = (2)^2/2 = 2,
    # dJ/dw = (wx+b-y)*x = 4, dJ/db = 2
    net = single_layer([[1.0]], [0.0])
    x = np.array([[2.0]])
    loss, _, grads = forward_backward(net, x, np.zeros((1, 1)), epoch_buffers(net, x))
    assert loss == pytest.approx(2.0)
    np.testing.assert_allclose(grads, [4.0, 2.0])  # [dJ/dw, dJ/db]


def test_backward_zero_everything_gives_zero_grads():
    net = initialize([1, 8, 4], seed=3)
    net.params[:] = 0.0
    x = np.array([[0.5]])
    loss, _, grads = forward_backward(net, x, np.zeros((1, 4)), epoch_buffers(net, x))
    assert loss == 0.0
    np.testing.assert_array_equal(grads, np.zeros_like(net.params))


def test_backward_reference_architecture_matches_finite_differences():
    net = initialize([1, 75, 50, 23], seed=7)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(5, 1))
    y = rng.uniform(-1.0, 1.0, size=(5, 23))
    loss, _, grads = forward_backward(net, x, y, epoch_buffers(net, x))
    fd_w, fd_b = finite_difference_gradients(net, x, y)
    err = max_relative_gradient_error(*layer_views(net.sizes, grads), fd_w, fd_b, loss=loss)
    assert err < 1e-5


def test_gradients_random_small_networks():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        net = random_small_network(rng)
        batch = int(rng.integers(1, 6))
        x = rng.standard_normal((batch, net.sizes[0]))
        y = rng.standard_normal((batch, net.sizes[-1]))
        loss, _, grads = forward_backward(net, x, y, epoch_buffers(net, x))
        fd_w, fd_b = finite_difference_gradients(net, x, y)
        err = max_relative_gradient_error(*layer_views(net.sizes, grads), fd_w, fd_b, loss=loss)
        assert err < 1e-5


@pytest.mark.parametrize(
    "sizes, alpha",
    [
        pytest.param([3, 7, 5, 4], 2.5, id="alpha-2.5"),
        pytest.param([1, 9, 6, 3], 0.01, id="first-layer-in-dim-1"),
    ],
)
def test_gradients_match_finite_differences(sizes, alpha):
    net = initialize(sizes, seed=17, alpha=alpha)
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, size=(6, sizes[0]))
    y = rng.uniform(-1.0, 1.0, size=(6, sizes[-1]))
    loss, _, grads = forward_backward(net, x, y, epoch_buffers(net, x))
    fd_w, fd_b = finite_difference_gradients(net, x, y)
    err = max_relative_gradient_error(*layer_views(net.sizes, grads), fd_w, fd_b, loss=loss)
    assert err < 1e-5


def test_leaky_grad_at_exact_zero_is_one():
    # hidden pre-activation is exactly 0; its bias gradient uses slope 1
    # weights 1 and biases 0 in both layers: [w0, b0, w1, b1]
    net = MimicNetwork([1, 1, 1], 0.01, np.array([1.0, 0.0, 1.0, 0.0]))
    x = np.zeros((1, 1))
    _, _, grads = forward_backward(net, x, np.array([[-1.0]]), epoch_buffers(net, x))
    np.testing.assert_allclose(layer_views(net.sizes, grads)[1][0], [1.0])


def test_param_count_reference_architecture():
    net = initialize([1, 75, 50, 23], seed=0)
    counts = [block.size for block in net.blocks]  # in * out weights and out biases
    assert counts == [150, 3800, 1173]
    assert net.params.size == 5123


def test_initialize_deterministic_and_bounded():
    a = initialize([1, 75, 50, 23], seed=5)
    b = initialize([1, 75, 50, 23], seed=5)
    (a_w, a_b), (b_w, b_b) = (layer_views(n.sizes, n.params) for n in (a, b))
    for wa, ba, wb, bb in zip(a_w, a_b, b_w, b_b):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(bb, np.zeros_like(bb))
    bound = np.sqrt(6.0 / (1 + 75))
    assert bound == pytest.approx(0.28097574347450816, abs=1e-15)
    assert np.max(np.abs(a_w[0])) <= bound
    c = initialize([1, 75, 50, 23], seed=6)
    c_w = layer_views(c.sizes, c.params)[0]
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a_w, c_w))


def test_initialize_rejects_bad_sizes():
    with pytest.raises(MimicError, match=r"^layer sizes must be positive, got \[1, 0, 3\]$"):
        initialize([1, 0, 3], seed=0)
    with pytest.raises(MimicError,
                       match=r"^a network needs at least one layer, so two sizes: \[4\]$"):
        initialize([4], seed=0)


def test_network_dimension_chaining_enforced():
    # the sizes fix each layer's shape: 2->3 and 3->2 take 9 + 8 values
    assert MimicNetwork([2, 3, 2], 0.01, np.zeros(17)).blocks[1][:-1].T.shape == (2, 3)
    # a weights file whose layer takes other than the previous layer's outputs
    lines = written(save_weights, initialize([2, 3, 2], seed=0)).splitlines()
    assert lines[6] == "layer out=2 in=3 act=linear"
    lines[6] = "layer out=2 in=4 act=linear"
    with pytest.raises(MimicError, match="line 7: in=4 must equal the previous out= or input=, 3"):
        parse_weights(text_lines("\n".join(lines) + "\n"))


def test_weight_file_round_trip():
    net = initialize([1, 5, 3], seed=13, alpha=0.02)
    text = written(save_weights, net)
    again = parse_weights(text_lines(text))
    assert written(save_weights, again) == text
    assert again.sizes == net.sizes == [1, 5, 3]
    assert again.alpha == net.alpha == 0.02
    for wa, ba, wb, bb in zip(*layer_views(net.sizes, net.params),
                              *layer_views(again.sizes, again.params)):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)


# initialize draws with numpy's Generator and save_weights formats with Python, neither through
# BLAS, so one digest holds on every OpenBLAS kernel and thread count
INITIAL_WEIGHTS_DIGESTS = {
    (1, 75, 50, 23, 0): "d04e36cec46cab7860a3c397638a67f0d0da3010f14779fae44cfc92f8c4dcdc",
    (1, 5, 1, 3, 1): "eba5fbe14509714b4d18312d98b697f256b5f697dafd43c8942bfd6febf5e9c6",
}


@pytest.mark.parametrize("key", INITIAL_WEIGHTS_DIGESTS, ids=lambda k: f"{':'.join(map(str, k[:-1]))}-seed{k[-1]}")
def test_initial_weights_file_is_pinned_on_every_kernel(key, tmp_path):
    """The draw order and the file's W-rows-then-biases layout of a seeded initial net."""
    *sizes, seed = key
    save_weights(initialize(sizes, seed), tmp_path / "weights.txt")
    digest = hashlib.sha256((tmp_path / "weights.txt").read_bytes()).hexdigest()
    assert digest == INITIAL_WEIGHTS_DIGESTS[key]


def test_weight_file_save_load(tmp_path):
    net = initialize([2, 4, 3], seed=21)
    path = tmp_path / "w.txt"
    save_weights(net, path)
    loaded = load_weights(path)
    assert written(save_weights, loaded) == path.read_text()


def test_weight_parse_errors_carry_line_numbers():
    good = written(save_weights, initialize([1, 2, 1], seed=0))
    lines = good.splitlines()
    with pytest.raises(MimicError, match="line 1"):
        parse_weights(text_lines("nonsense\n"))
    with pytest.raises(MimicError, match="line 3"):
        parse_weights(text_lines("\n".join(lines[:2] + ["1.0 extra"] + lines[3:]) + "\n"))
    with pytest.raises(MimicError, match="line 2"):
        parse_weights(text_lines("\n".join([lines[0], "layer out=2 in=1 act=sigmoid", *lines[2:]])))
    # act= is fixed by position: leaky ReLU on hidden layers, linear on the last
    assert lines[1] == "layer out=2 in=1 act=leakyrelu"
    assert lines[5] == "layer out=1 in=2 act=linear"
    with pytest.raises(MimicError, match="line 2: layer 0 of 2 must be act=leakyrelu"):
        parse_weights(text_lines("\n".join([lines[0], "layer out=2 in=1 act=linear", *lines[2:]])))
    with pytest.raises(MimicError, match="line 6: layer 1 of 2 must be act=linear"):
        parse_weights(text_lines("\n".join([*lines[:5], "layer out=1 in=2 act=leakyrelu",
                                            *lines[6:]])))
    with pytest.raises(MimicError, match="at least one layer"):
        parse_weights(text_lines("mimicnet layers=0 input=1 alpha=0.01\n"))
    with pytest.raises(MimicError, match="line 9: expected the end of the file"):
        parse_weights(text_lines(good + "0.5\n"))
