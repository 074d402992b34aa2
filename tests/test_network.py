import re

import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.network import (
    MimicNetwork,
    epoch_buffers,
    format_weights,
    forward,
    forward_backward,
    initialize,
    layer_views,
    leaky_relu,
    load_weights,
    mse_loss,
    nonfinite_tensor,
    parse_weights,
    save_weights,
)
from motionmimic.optimizer import adam_init, adam_step

from oracles import (
    finite_difference_gradients,
    loop_forward,
    max_relative_gradient_error,
    unfused_forward_backward,
)


def single_layer(w, b):
    """The linear net of one layer with weights w, shaped (out, in), and biases b."""
    w = np.array(w, dtype=float)
    return MimicNetwork([w.shape[1], w.shape[0]], 0.01, np.concatenate([w.ravel(), b]))


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
        for b in net.biases:
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


LAYER0_ROWS = [*range(1, 71), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025,
               2999, 3001]
LAYER0_INPUTS = np.array([0.0, -0.0, 5e-324, -5e-324, TINY / 3, TINY, np.inf, -np.inf, 1.0])
# one layer of each width, a width-1 hidden layer and a 1-unit layer 0
LAYER0_NETS = [*(pytest.param([1, w], id=str(w)) for w in (1, 2, 3, 5, 23, 50, 75)),
               pytest.param([1, 5, 1, 3], id="1:5:1:3"), pytest.param([1, 1, 4, 3], id="1:1:4:3")]


def broadcast_forward(net, x):
    """The forward pass with every 1-input layer as the broadcast np.multiply(a, w[:, 0]) + b."""
    a = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = (np.multiply(a, w[:, 0]) if w.shape[1] == 1 else a @ w.T) + b
        a = np.where(z >= 0, z, net.alpha * z) if i < len(net.weights) - 1 else z
    return a


@pytest.mark.parametrize("sizes", LAYER0_NETS)
def test_layer0_product_matches_broadcast_formula_bit_for_bit(sizes):
    """[t, 1] @ [w; b] rounds as t * w + b, in forward and in the buffered pass, at every size.

    1-row batches, 1-unit layers and layers after a 1-unit layer take
    a @ w.T, then + b, which rounds as the broadcast formula too; the
    inputs include zeros, subnormals and infinities.
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
    want = np.multiply(t, net.weights[0][:, 0]) + net.biases[0]
    assert np.signbit(want[0, 0]) and want[0, 0] == 0.0
    got = forward(net, t)
    assert not np.signbit(got[0, 0]) and got[0, 0] == 0.0
    np.testing.assert_array_equal(bits(got.ravel()[1:]), bits(want.ravel()[1:]))
    assert not np.signbit(forward(net, t[:1])[0, 0])
    net = initialize([1, 4, 3], seed=0)
    for b in net.biases:
        assert not np.signbit(b).any()
    state = adam_init(net.params)
    adam_step(state, net.params, np.where(np.arange(net.params.size) % 2, -0.0, 0.0), lr=0.1)
    for b in net.biases:
        assert not np.signbit(b).any()


def test_parameters_and_gradients_are_views_of_one_vector():
    net = initialize([1, 5, 4, 3], seed=0)
    total = sum(w.size + b.size for w, b in zip(net.weights, net.biases))
    assert net.params.shape == (total,)
    x = np.array([[0.3], [0.8]])
    _, _, grads = forward_backward(net, x, np.zeros((2, 3)), epoch_buffers(net, x))
    assert grads.shape == (total,)
    start = 0
    for w, b, gw, gb in zip(net.weights, net.biases, *layer_views(net.sizes, grads)):
        for tensor, grad in ((w, gw), (b, gb)):
            assert np.shares_memory(tensor, net.params)
            assert np.shares_memory(grad, grads)
            assert grad.shape == tensor.shape
            np.testing.assert_array_equal(net.params[start : start + tensor.size], tensor.ravel())
            np.testing.assert_array_equal(grads[start : start + grad.size], grad.ravel())
            start += tensor.size
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


def test_forward_zero_network_gives_zeros():
    net = initialize([1, 75, 50, 23], seed=0)
    for w, b in zip(net.weights, net.biases):
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
        x = rng.standard_normal((batch, net.input_dim))
        y = rng.standard_normal((batch, net.output_dim))
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
    counts = [w.size + b.size for w, b in zip(net.weights, net.biases)]
    assert counts == [150, 3800, 1173]
    assert net.params.size == 5123


def test_initialize_deterministic_and_bounded():
    a = initialize([1, 75, 50, 23], seed=5)
    b = initialize([1, 75, 50, 23], seed=5)
    for wa, ba, wb, bb in zip(a.weights, a.biases, b.weights, b.biases):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(bb, np.zeros_like(bb))
    bound = np.sqrt(6.0 / (1 + 75))
    assert bound == pytest.approx(0.28097574347450816, abs=1e-15)
    assert np.max(np.abs(a.weights[0])) <= bound
    c = initialize([1, 75, 50, 23], seed=6)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_initialize_rejects_bad_sizes():
    with pytest.raises(MimicError, match=r"^layer sizes must be positive, got \[1, 0, 3\]$"):
        initialize([1, 0, 3], seed=0)
    with pytest.raises(MimicError,
                       match=r"^a network needs at least one layer, so two sizes: \[4\]$"):
        initialize([4], seed=0)


def test_network_dimension_chaining_enforced():
    # the sizes fix each layer's shape: 2->3 and 3->2 take 9 + 8 values
    assert MimicNetwork([2, 3, 2], 0.01, np.zeros(17)).weights[1].shape == (2, 3)
    with pytest.raises(MimicError, match=r"^sizes \[2, 3, 2\] need 17 parameters, not \(19,\)$"):
        MimicNetwork([2, 3, 2], 0.01, np.zeros(3 * 2 + 3 + 2 * 4 + 2))
    # a weights file whose layer takes other than the previous layer's outputs
    lines = format_weights(initialize([2, 3, 2], seed=0)).splitlines()
    assert lines[6] == "layer out=2 in=3 act=linear"
    lines[6] = "layer out=2 in=4 act=linear"
    with pytest.raises(MimicError, match="line 7: in=4 must equal the previous out= or input=, 3"):
        parse_weights("\n".join(lines) + "\n")


def test_weight_file_round_trip():
    net = initialize([1, 5, 3], seed=13, alpha=0.02)
    text = format_weights(net)
    again = parse_weights(text)
    assert format_weights(again) == text
    assert again.sizes == net.sizes == [1, 5, 3]
    assert again.alpha == net.alpha == 0.02
    for wa, ba, wb, bb in zip(net.weights, net.biases, again.weights, again.biases):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)


def test_weight_file_save_load(tmp_path):
    net = initialize([2, 4, 3], seed=21)
    path = tmp_path / "w.txt"
    save_weights(net, path)
    loaded = load_weights(path)
    assert format_weights(loaded) == format_weights(net)


def test_weight_parse_errors_carry_line_numbers():
    good = format_weights(initialize([1, 2, 1], seed=0))
    lines = good.splitlines()
    with pytest.raises(MimicError, match="line 1"):
        parse_weights("nonsense\n")
    with pytest.raises(MimicError, match="line 3"):
        parse_weights("\n".join(lines[:2] + ["1.0 extra"] + lines[3:]) + "\n")
    with pytest.raises(MimicError, match="line 2"):
        parse_weights("\n".join([lines[0], "layer out=2 in=1 act=sigmoid"] + lines[2:]) + "\n")
    # act= is fixed by position: leaky ReLU on hidden layers, linear on the last
    assert lines[1] == "layer out=2 in=1 act=leakyrelu"
    assert lines[5] == "layer out=1 in=2 act=linear"
    with pytest.raises(MimicError, match="line 2: layer 0 of 2 must be act=leakyrelu"):
        parse_weights("\n".join([lines[0], "layer out=2 in=1 act=linear"] + lines[2:]) + "\n")
    with pytest.raises(MimicError, match="line 6: layer 1 of 2 must be act=linear"):
        parse_weights("\n".join(lines[:5] + ["layer out=1 in=2 act=leakyrelu"] + lines[6:]) + "\n")
    with pytest.raises(MimicError, match="at least one layer"):
        parse_weights("mimicnet layers=0 input=1 alpha=0.01\n")
    with pytest.raises(MimicError, match="line 9: expected the end of the file"):
        parse_weights(good + "0.5\n")
