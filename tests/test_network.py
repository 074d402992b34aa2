import numpy as np
import pytest

from motionmimic.errors import ConfigError, FormatError, ShapeError
from motionmimic.network import (
    DenseLayer,
    MimicNetwork,
    _leaky_relu_backward,
    backward,
    format_weights,
    forward,
    forward_backward,
    initialize,
    leaky_relu,
    load_weights,
    mse_loss,
    param_count,
    parse_weights,
    save_weights,
)

from oracles import finite_difference_gradients, loop_forward, max_relative_gradient_error


def single_layer(w, b, activation="linear", alpha=0.01):
    return MimicNetwork(
        [DenseLayer(np.array(w, dtype=float), np.array(b, dtype=float), activation, alpha)],
        input_dim=np.shape(w)[1],
    )


def random_small_network(rng):
    n_layers = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 11)) for _ in range(n_layers + 1)]
    return initialize(sizes, seed=int(rng.integers(0, 2**31)), alpha=0.01)


def test_leaky_relu_branches():
    assert leaky_relu(2.0, 0.01) == 2.0
    assert leaky_relu(-1.0, 0.01) == -0.01
    assert leaky_relu(0.0, 0.3) == 0.0
    np.testing.assert_allclose(leaky_relu(np.array([-2.0, 3.0]), 0.1), [-0.2, 3.0])
    for bad in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ConfigError):
            leaky_relu(1.0, bad)
        with pytest.raises(ConfigError):
            DenseLayer(np.zeros((1, 1)), np.zeros(1), "leakyrelu", bad)


TINY = np.finfo(float).tiny
SPECIAL = np.array([-0.0, 0.0, np.nan, -np.nan, 5e-324, -5e-324, TINY / 3, -TINY / 3, TINY,
                    -TINY, np.inf, -np.inf, 1e300, -1e300, 1.0, -1.0, 2.5, -0.4])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("alpha", [0.01, 1.0, 2.5])
def test_leaky_relu_matches_where_reference_bit_for_bit(alpha):
    rng = np.random.default_rng(11)
    z = np.concatenate([SPECIAL, rng.standard_normal(200), rng.standard_normal(50) * TINY])
    np.testing.assert_array_equal(bits(leaky_relu(z, alpha)), bits(np.where(z >= 0, z, alpha * z)))
    for v in SPECIAL:
        assert bits(leaky_relu(float(v), alpha)) == bits(np.where(v >= 0, v, alpha * v))


@pytest.mark.parametrize("alpha", [0.01, 1.0, 2.5])
def test_leaky_relu_backward_matches_slope_mask_bit_for_bit(alpha):
    rng = np.random.default_rng(12)
    z = np.concatenate([SPECIAL, rng.standard_normal(len(SPECIAL))])
    delta = np.concatenate([rng.standard_normal(len(SPECIAL)), SPECIAL])
    z, delta = np.meshgrid(z, delta)  # every value of z against every value of delta
    slope_mask = np.where(z >= 0, 1.0, alpha)
    np.testing.assert_array_equal(bits(_leaky_relu_backward(delta, z, alpha)),
                                  bits(delta * slope_mask))


def unfused_forward_backward(net, x, y):
    """The per-tensor pass: np.where activation, slope-mask gradient, fresh arrays."""
    pre, acts = [], [x]
    for layer in net.layers:
        z = acts[-1] @ layer.weights.T + layer.biases
        pre.append(z)
        acts.append(np.where(z >= 0, z, layer.alpha * z) if layer.activation == "leakyrelu" else z)
    diff = acts[-1] - y
    loss = float(0.5 * np.sum(diff * diff) / len(x))
    delta = diff / len(x)
    w_grads, b_grads = [], []
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        if layer.activation == "leakyrelu":
            delta = delta * np.where(pre[li] >= 0, 1.0, layer.alpha)
        w_grads.insert(0, delta.T @ acts[li])
        b_grads.insert(0, delta.sum(axis=0))
        delta = delta @ layer.weights
    return loss, acts[-1], w_grads, b_grads


@pytest.mark.parametrize("sizes", [[1, 75, 50, 23], [3, 6, 4, 2]])
@pytest.mark.parametrize("alpha", [0.01, 1.0, 2.5])
def test_forward_backward_matches_unfused_pass_bit_for_bit(sizes, alpha):
    net = initialize(sizes, seed=4, alpha=alpha)
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, size=(33, sizes[0]))
    y = rng.uniform(-1.0, 1.0, size=(33, sizes[-1]))
    loss, pred, grads = forward_backward(net, x, y)
    ref_loss, ref_pred, ref_w, ref_b = unfused_forward_backward(net, x, y)
    assert loss == ref_loss
    np.testing.assert_array_equal(bits(pred), bits(ref_pred))
    np.testing.assert_array_equal(bits(forward(net, x)), bits(ref_pred))
    for got, want in zip(grads.weights + grads.biases, ref_w + ref_b):
        np.testing.assert_array_equal(bits(got), bits(want))


def test_parameters_and_gradients_are_views_of_one_vector():
    net = initialize([1, 5, 4, 3], seed=0)
    counts, total = param_count(net)
    assert net.params.shape == (total,)
    _, _, grads = forward_backward(net, [[0.3], [0.8]], np.zeros((2, 3)))
    assert grads.flat.shape == (total,)
    start = 0
    for layer, gw, gb in zip(net.layers, grads.weights, grads.biases):
        for tensor, grad in ((layer.weights, gw), (layer.biases, gb)):
            assert np.shares_memory(tensor, net.params)
            assert np.shares_memory(grad, grads.flat)
            assert grad.shape == tensor.shape
            np.testing.assert_array_equal(net.params[start : start + tensor.size], tensor.ravel())
            np.testing.assert_array_equal(grads.flat[start : start + grad.size], grad.ravel())
            start += tensor.size
    assert start == total
    net.params[:] = 0.0
    np.testing.assert_array_equal(forward(net, [0.5]), np.zeros(3))


def test_gradient_set_names_first_nonfinite_tensor():
    net = initialize([1, 4, 2], seed=0)
    _, _, grads = forward_backward(net, [[0.5]], [[0.0, 1.0]])
    assert grads.first_nonfinite() is None
    grads.biases[1][0] = np.inf
    assert grads.first_nonfinite() == "layer1.biases"
    grads.weights[1][1, 2] = np.nan
    assert grads.first_nonfinite() == "layer1.weights"
    grads.biases[0][3] = -np.inf
    assert grads.first_nonfinite() == "layer0.biases"


def test_forward_zero_network_gives_zeros():
    net = initialize([1, 75, 50, 23], seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    np.testing.assert_array_equal(forward(net, [0.7]), np.zeros(23))


def test_forward_single_affine_layer():
    net = single_layer([[2.0]], [1.0])
    np.testing.assert_allclose(forward(net, [3.0]), [7.0])


def test_forward_matches_loop_oracle():
    net = initialize([1, 75, 50, 23], seed=42)
    x = np.array([0.5])
    np.testing.assert_allclose(forward(net, x), loop_forward(net, x), rtol=1e-12, atol=1e-12)


def test_forward_batch_and_determinism():
    net = initialize([2, 6, 3], seed=1)
    batch = np.array([[0.1, -0.2], [0.5, 0.7], [0.0, 0.0]])
    out1 = forward(net, batch)
    out2 = forward(net, batch)
    assert out1.shape == (3, 3)
    np.testing.assert_array_equal(out1, out2)
    # single-row evaluation may use a different BLAS path; values agree
    np.testing.assert_allclose(out1[1], forward(net, batch[1]), rtol=1e-14)


def test_forward_shape_error():
    net = initialize([2, 4], seed=0)
    with pytest.raises(ShapeError):
        forward(net, [1.0, 2.0, 3.0])


def test_mse_examples():
    assert mse_loss([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
    assert mse_loss([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(12.5)
    # per-sample squared norms 2 and 6 with batch size 2 -> (2 + 6) / 4
    pred = np.zeros((2, 2))
    target = np.array([[1.0, 1.0], [2.0, np.sqrt(2.0)]])
    assert mse_loss(pred, target) == pytest.approx(2.0)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 3)), np.zeros((2, 4)))


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
    loss, grads = backward(net, [[2.0]], [[0.0]])
    assert loss == pytest.approx(2.0)
    np.testing.assert_allclose(grads.weights[0], [[4.0]])
    np.testing.assert_allclose(grads.biases[0], [2.0])


def test_backward_zero_everything_gives_zero_grads():
    net = initialize([1, 8, 4], seed=3)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    loss, grads = backward(net, [[0.5]], [[0.0, 0.0, 0.0, 0.0]])
    assert loss == 0.0
    for g in grads.weights + grads.biases:
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_backward_reference_architecture_matches_finite_differences():
    net = initialize([1, 75, 50, 23], seed=7)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(5, 1))
    y = rng.uniform(-1.0, 1.0, size=(5, 23))
    loss, grads = backward(net, x, y)
    fd_w, fd_b = finite_difference_gradients(net, x, y)
    err = max_relative_gradient_error(grads.weights, grads.biases, fd_w, fd_b, loss=loss)
    assert err < 1e-5


def test_gradients_random_small_networks():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        net = random_small_network(rng)
        batch = int(rng.integers(1, 6))
        x = rng.standard_normal((batch, net.input_dim))
        y = rng.standard_normal((batch, net.output_dim))
        loss, grads = backward(net, x, y)
        fd_w, fd_b = finite_difference_gradients(net, x, y)
        err = max_relative_gradient_error(grads.weights, grads.biases, fd_w, fd_b, loss=loss)
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
    loss, grads = backward(net, x, y)
    fd_w, fd_b = finite_difference_gradients(net, x, y)
    err = max_relative_gradient_error(grads.weights, grads.biases, fd_w, fd_b, loss=loss)
    assert err < 1e-5


def test_leaky_grad_at_exact_zero_is_one():
    # hidden pre-activation is exactly 0; its bias gradient uses slope 1
    hidden = DenseLayer(np.array([[1.0]]), np.array([0.0]), "leakyrelu", 0.01)
    out = DenseLayer(np.array([[1.0]]), np.array([0.0]), "linear")
    net = MimicNetwork([hidden, out], input_dim=1)
    _, grads = backward(net, [[0.0]], [[-1.0]])
    np.testing.assert_allclose(grads.biases[0], [1.0])


def test_param_count_reference_architecture():
    net = initialize([1, 75, 50, 23], seed=0)
    counts, total = param_count(net)
    assert counts == [150, 3800, 1173]
    assert total == 5123


def test_initialize_deterministic_and_bounded():
    a = initialize([1, 75, 50, 23], seed=5)
    b = initialize([1, 75, 50, 23], seed=5)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
        np.testing.assert_array_equal(lb.biases, np.zeros_like(lb.biases))
    bound = np.sqrt(6.0 / (1 + 75))
    assert bound == pytest.approx(0.28097574347450816, abs=1e-15)
    assert np.max(np.abs(a.layers[0].weights)) <= bound
    c = initialize([1, 75, 50, 23], seed=6)
    assert any(
        not np.array_equal(la.weights, lc.weights) for la, lc in zip(a.layers, c.layers)
    )


def test_initialize_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        initialize([1, 0, 3], seed=0)
    with pytest.raises(ConfigError):
        initialize([4], seed=0)


def test_network_dimension_chaining_enforced():
    with pytest.raises(ShapeError):
        MimicNetwork(
            [
                DenseLayer(np.zeros((3, 2)), np.zeros(3)),
                DenseLayer(np.zeros((2, 4)), np.zeros(2)),
            ],
            input_dim=2,
        )


def test_weight_file_round_trip():
    net = initialize([1, 5, 3], seed=13, alpha=0.02)
    text = format_weights(net)
    again = parse_weights(text)
    assert format_weights(again) == text
    for la, lb in zip(net.layers, again.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
        assert la.activation == lb.activation
        assert la.alpha == lb.alpha


def test_weight_file_save_load(tmp_path):
    net = initialize([2, 4, 3], seed=21)
    path = tmp_path / "w.txt"
    save_weights(net, path)
    loaded = load_weights(path)
    assert format_weights(loaded) == format_weights(net)


def test_weight_parse_errors_carry_line_numbers():
    good = format_weights(initialize([1, 2, 1], seed=0))
    lines = good.splitlines()
    with pytest.raises(FormatError, match="line 1"):
        parse_weights("nonsense\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_weights("\n".join(lines[:2] + ["1.0 extra"] + lines[3:]) + "\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_weights("\n".join([lines[0], "layer out=2 in=1 act=sigmoid"] + lines[2:]) + "\n")
    with pytest.raises(ShapeError, match="at least one layer"):
        parse_weights("mimicnet layers=0 input=1 alpha=0.01\n")
    with pytest.raises(FormatError, match="line 9: expected the end of the file"):
        parse_weights(good + "0.5\n")
