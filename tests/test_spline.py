import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.spline import build_spline

from oracles import dense_natural_spline, eval_segment_poly, spline_derivatives

# frozen from the dense oracle (and checked against it below)
FOUR_KNOT_TIMES = [0.0, 1.0, 2.0, 3.0]
FOUR_KNOT_VALUES = [0.0, 2.0, 1.0, 3.0]
FOUR_KNOT_COEFFS = np.array(
    [
        [0.0, 3.0, 0.0, -1.0],
        [2.0, 0.0, -3.0, 2.0],
        [1.0, 0.0, 3.0, -1.0],
    ]
)


def column(times, values):
    """The spline through one joint's values: coefficients (segments, 4, 1)."""
    return build_spline(times, np.asarray(values, dtype=float)[:, None])


def value(s, t):
    return float(s.eval([t])[0, 0])


def derivatives(s, t):
    vel, acc = spline_derivatives(s, [t])
    return float(vel[0, 0]), float(acc[0, 0])


def random_knots(rng, n):
    times = np.sort(rng.uniform(0.0, 5.0, size=n))
    while np.any(np.diff(times) < 1e-3):
        times = np.sort(rng.uniform(0.0, 5.0, size=n))
    return times, rng.uniform(-2.0, 2.0, size=n)


def test_two_knot_spline_is_linear():
    s = column([0.0, 1.0], [0.0, 1.0])
    assert value(s, 0.5) == pytest.approx(0.5, abs=1e-15)
    for t in (0.0, 0.3, 1.0):
        vel, acc = derivatives(s, t)
        assert vel == pytest.approx(1.0, abs=1e-15)
        assert acc == 0.0


def test_symmetric_data_gives_symmetric_spline():
    s = column([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert value(s, 1.0) == 1.0
    assert value(s, 0.5) == pytest.approx(value(s, 1.5), abs=1e-14)


def test_four_knot_coefficients_match_dense_oracle():
    oracle = dense_natural_spline(FOUR_KNOT_TIMES, FOUR_KNOT_VALUES)
    np.testing.assert_allclose(oracle, FOUR_KNOT_COEFFS, atol=1e-12)
    s = column(FOUR_KNOT_TIMES, FOUR_KNOT_VALUES)
    np.testing.assert_allclose(s.coeffs[:, :, 0], oracle, atol=1e-12)


def test_four_knot_midpoint_values_frozen():
    s = column(FOUR_KNOT_TIMES, FOUR_KNOT_VALUES)
    assert value(s, 0.5) == pytest.approx(1.375, abs=1e-12)
    assert value(s, 1.5) == pytest.approx(1.5, abs=1e-12)
    assert value(s, 2.5) == pytest.approx(1.625, abs=1e-12)


def test_random_splines_match_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        times, values = random_knots(rng, rng.integers(3, 9))
        s = column(times, values)
        oracle = dense_natural_spline(times, values)
        np.testing.assert_allclose(s.coeffs[:, :, 0], oracle, atol=1e-9, rtol=1e-9)


def test_knot_interpolation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        times, values = random_knots(rng, rng.integers(2, 12))
        s = column(times, values)
        for t, v in zip(times, values):
            assert abs(value(s, t) - v) < 1e-10


def test_c2_continuity_at_interior_knots():
    rng = np.random.default_rng(13)
    for _ in range(20):
        times, values = random_knots(rng, rng.integers(3, 10))
        s = column(times, values)
        for i in range(1, len(times) - 1):
            h = times[i] - times[i - 1]
            left = s.coeffs[i - 1, :, 0]
            right = s.coeffs[i, :, 0]
            # value, velocity, acceleration of the left segment at its end
            val_l = eval_segment_poly(left, h)
            vel_l = left[1] + 2 * left[2] * h + 3 * left[3] * h * h
            acc_l = 2 * left[2] + 6 * left[3] * h
            assert abs(val_l - right[0]) < 1e-8
            assert abs(vel_l - right[1]) < 1e-8
            assert abs(acc_l - 2 * right[2]) < 1e-8


def test_linear_data_reproduced_exactly():
    rng = np.random.default_rng(17)
    times = np.array([0.0, 0.4, 1.1, 2.0, 3.5])
    slope, intercept = 0.7, -0.2
    s = column(times, slope * times + intercept)
    queries = rng.uniform(times[0], times[-1], size=100)
    for t in queries:
        assert abs(value(s, t) - (slope * t + intercept)) < 1e-10


def test_natural_boundary_accelerations_zero():
    rng = np.random.default_rng(19)
    for _ in range(10):
        times, values = random_knots(rng, rng.integers(3, 10))
        s = column(times, values)
        _, acc0 = derivatives(s, times[0])
        _, acc1 = derivatives(s, times[-1])
        assert abs(acc0) < 1e-10
        assert abs(acc1) < 1e-10


def test_derivatives_on_linear_spline():
    s = column([0.0, 2.0], [0.0, 4.0])
    for t in (0.0, 0.7, 2.0):
        vel, acc = derivatives(s, t)
        assert vel == pytest.approx(2.0, abs=1e-15)
        assert acc == 0.0


def test_six_knot_interior_acceleration_jump():
    rng = np.random.default_rng(23)
    times, values = random_knots(rng, 6)
    s = column(times, values)
    for i in range(1, 5):
        h = times[i] - times[i - 1]
        acc_left = 2 * s.coeffs[i - 1, 2, 0] + 6 * s.coeffs[i - 1, 3, 0] * h
        acc_right = 2 * s.coeffs[i, 2, 0]
        assert abs(acc_left - acc_right) < 1e-8


def test_eval_vectorized_matches_scalar():
    s = column(FOUR_KNOT_TIMES, FOUR_KNOT_VALUES)
    ts = np.linspace(0.0, 3.0, 31)
    vals = s.eval(ts)
    assert vals.shape == (31, 1)
    for t, v in zip(ts, vals[:, 0]):
        assert v == value(s, float(t))


def test_joint_matrix_matches_column_splines_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in (2, 3, 6, 12):
        times, _ = random_knots(rng, n)
        values = rng.uniform(-2.0, 2.0, size=(n, 7))
        s = build_spline(times, values)
        assert s.coeffs.shape == (n - 1, 4, 7)
        grid = np.concatenate([times, rng.uniform(times[0], times[-1], size=50)])
        vals = s.eval(grid)
        vel, acc = spline_derivatives(s, grid)
        assert vals.shape == (len(grid), 7)
        for j in range(7):
            col = column(times, values[:, j])
            np.testing.assert_array_equal(s.coeffs[:, :, j], col.coeffs[:, :, 0])
            np.testing.assert_array_equal(vals[:, j], col.eval(grid)[:, 0])
            col_vel, col_acc = spline_derivatives(col, grid)
            np.testing.assert_array_equal(vel[:, j], col_vel[:, 0])
            np.testing.assert_array_equal(acc[:, j], col_acc[:, 0])
            assert s.eval([grid[9]])[0, j] == value(col, grid[9])


def test_overflowing_coefficients_are_rejected():
    # a knot spacing of 1e-320 is positive, but slopes over it overflow
    for values in ([[0.0], [0.8], [0.1]], [[0.0, 0.3], [0.8, -0.4], [0.1, 0.2]]):
        with np.errstate(all="raise"), pytest.raises(MimicError, match="overflow"):
            build_spline([0.0, 1e-320, 1.0], values)
    with pytest.raises(MimicError, match="overflow"):
        build_spline([0.0, 1.0], [[-1e308], [1e308]])
