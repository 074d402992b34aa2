import numpy as np
import pytest

from motionmimic.errors import FormatError, OutOfRangeError, ValidationError
from motionmimic.motion import (
    MAX_GRID_SAMPLES,
    KeyframeMovement,
    KeyframeStep,
    format_movement,
    grid_size,
    load_movement,
    movement_splines,
    parse_movement,
    playback_duration,
    poses,
    reference_pose,
    save_movement,
    validate_movement,
)

from oracles import dense_natural_spline, eval_segment_poly


def simple_movement(rate=1.0):
    return KeyframeMovement(
        [
            KeyframeStep(0.0, [0.0, 0.1]),
            KeyframeStep(0.5, [1.0, -0.2]),
            KeyframeStep(1.0, [0.0, 0.3]),
        ],
        speed_rate=rate,
    )


def bump_movement(rate=1.0):
    # single joint 0 -> 1 -> 0 at t = 0, 1, 2
    return KeyframeMovement(
        [KeyframeStep(0.0, [0.0]), KeyframeStep(1.0, [1.0]), KeyframeStep(2.0, [0.0])],
        speed_rate=rate,
    )


def test_valid_movement_passes():
    report = validate_movement(simple_movement())
    assert report.ok
    assert report.violations == []


def test_nonzero_first_time_violation():
    m = simple_movement()
    m.steps[0] = KeyframeStep(0.1, m.steps[0].joints)
    report = validate_movement(m)
    assert not report.ok
    assert ("first-step-time", "first step time must be 0") in report.violations


def test_duplicate_times_violation():
    m = KeyframeMovement(
        [KeyframeStep(0.0, [0.0]), KeyframeStep(0.5, [1.0]), KeyframeStep(0.5, [2.0])]
    )
    report = validate_movement(m)
    assert not report.ok
    rules = [r for r, _ in report.violations]
    assert "times-increasing" in rules
    assert any(msg == "times strictly increasing" for _, msg in report.violations)


def test_all_violations_reported():
    m = KeyframeMovement(
        [KeyframeStep(0.2, [0.0, 1.0]), KeyframeStep(0.1, [np.inf])],
        speed_rate=-1.0,
    )
    report = validate_movement(m)
    rules = {r for r, _ in report.violations}
    assert {"joint-dimensions", "finite-angles", "first-step-time",
            "times-increasing", "speed-rate"} <= rules
    assert report.ok == (len(report.violations) == 0)


def test_keyframes_without_joints_violation():
    m = KeyframeMovement([KeyframeStep(0.0, []), KeyframeStep(1.0, [])])
    report = validate_movement(m)
    assert ("no-joints", "keyframes must hold at least one joint angle") in report.violations


def test_expected_joint_count_check():
    report = validate_movement(simple_movement(), n_joints=3)
    assert ("joint-count", "expected 3 joints per keyframe, found 2") in report.violations
    assert validate_movement(simple_movement(), n_joints=2).ok


def test_validate_is_pure():
    m = simple_movement()
    first = validate_movement(m)
    second = validate_movement(m)
    assert first == second
    assert m.steps[0].time == 0.0


def test_playback_duration_rates():
    assert playback_duration(bump_movement(1.0)) == pytest.approx(2.0)
    assert playback_duration(bump_movement(2.0)) == pytest.approx(1.0)
    assert playback_duration(bump_movement(0.5)) == pytest.approx(4.0)


def test_duration_scales_inversely_with_rate():
    rng = np.random.default_rng(3)
    for rate in rng.uniform(0.25, 4.0, size=10):
        m = bump_movement(float(rate))
        assert playback_duration(m) * rate == pytest.approx(2.0, rel=1e-12)


def test_duration_invalid_movement_raises():
    m = simple_movement()
    m.speed_rate = 0.0
    with pytest.raises(ValidationError):
        playback_duration(m)


def test_reference_pose_endpoints():
    m = simple_movement()
    np.testing.assert_allclose(reference_pose(m, 0.0), m.steps[0].joints, atol=1e-12)
    np.testing.assert_allclose(
        reference_pose(m, playback_duration(m)), m.steps[-1].joints, atol=1e-12
    )


def test_speed_rate_rescales_knot_arrivals():
    # r > 1 reaches each keyframe at t_i / r, r < 1 later
    for rate, arrival in ((2.0, 0.5), (0.5, 2.0), (1.0, 1.0)):
        m = bump_movement(rate)
        np.testing.assert_allclose(reference_pose(m, arrival), [1.0], atol=1e-10)


def test_reference_pose_interior_frozen_value():
    # natural spline through (0,0), (1,1), (2,0): value(0.5) = 0.6875
    m = bump_movement(1.0)
    assert reference_pose(m, 0.5)[0] == pytest.approx(0.6875, abs=1e-12)
    oracle = dense_natural_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert eval_segment_poly(oracle[0], 0.5) == pytest.approx(0.6875, abs=1e-12)


def test_reference_pose_hits_every_keyframe():
    rng = np.random.default_rng(5)
    times = [0.0, 0.4, 0.9, 1.7, 2.2]
    steps = [KeyframeStep(t, rng.uniform(-1, 1, size=4)) for t in times]
    for rate in (0.5, 1.0, 3.0):
        m = KeyframeMovement(steps, speed_rate=rate)
        for s in steps:
            np.testing.assert_allclose(
                reference_pose(m, s.time / rate), s.joints, atol=1e-10
            )


def test_reference_pose_out_of_range():
    m = simple_movement()
    with pytest.raises(OutOfRangeError):
        reference_pose(m, -0.01)
    with pytest.raises(OutOfRangeError):
        reference_pose(m, playback_duration(m) + 0.01)


def test_reference_pose_invalid_movement():
    m = KeyframeMovement([KeyframeStep(0.0, [0.0])])
    with pytest.raises(ValidationError):
        reference_pose(m, 0.0)


def oracle_poses(m, times):
    """Poses from one dense-solve spline per joint, one sample at a time."""
    knots = np.array([s.time for s in m.steps])
    values = np.stack([s.joints for s in m.steps])
    coeffs = [dense_natural_spline(knots, values[:, j]) for j in range(m.n_joints)]
    out = np.empty((len(times), m.n_joints))
    for k, t in enumerate(times):
        u = min(t * m.speed_rate, knots[-1])
        seg = min(int(np.searchsorted(knots, u, side="right")) - 1, len(knots) - 2)
        out[k] = [eval_segment_poly(c[seg], u - knots[seg]) for c in coeffs]
    return out


def test_poses_on_a_grid_match_dense_oracle():
    rng = np.random.default_rng(21)
    times = [0.0, 0.37, 0.8, 1.45, 2.013]
    steps = [KeyframeStep(t, rng.uniform(-1, 1, size=5)) for t in times]
    for rate in (0.7, 1.0, 1.3):
        m = KeyframeMovement(steps, speed_rate=rate)
        duration = playback_duration(m)
        grid = np.minimum(np.arange(grid_size(duration, 50.0)) / 50.0, duration)
        got = poses(m, grid)
        assert got.shape == (len(grid), 5)
        np.testing.assert_allclose(got, oracle_poses(m, grid), atol=1e-10)
        for k in (0, len(grid) // 2, len(grid) - 1):
            np.testing.assert_array_equal(reference_pose(m, grid[k]), got[k])


def test_one_spline_holds_every_joint():
    m = KeyframeMovement([KeyframeStep(t, np.full(4, t)) for t in (0.0, 0.5, 1.2)])
    spline = movement_splines(m)
    assert spline.coeffs.shape == (2, 4, 4)
    assert movement_splines(m) is spline


def test_poses_reject_any_time_out_of_range():
    m = simple_movement()
    duration = playback_duration(m)
    assert poses(m, [0.0, duration]).shape == (2, 2)
    for bad in (-0.01, duration + 0.01, np.nan):
        grid = np.linspace(0.0, duration, 11)
        grid[7] = bad
        with pytest.raises(OutOfRangeError):
            poses(m, grid)


def test_grid_size_counts_samples_up_to_the_span():
    for span, rate in ((1.0, 50.0), (1.013, 50.0), (2.0, 50.0), (0.0, 50.0), (3.0, 33.0),
                       (1 / 1.3, 50.0), (0.58, 50.0)):
        assert grid_size(span, rate) == int(np.floor(span * rate + 1e-9)) + 1
    assert grid_size((MAX_GRID_SAMPLES - 1) / 50.0, 50.0) == MAX_GRID_SAMPLES


@pytest.mark.parametrize("span, rate", [(np.inf, 50.0), (np.nan, 50.0), (1e300, 50.0),
                                        (1.0, 1e300), (-1.0, 50.0),
                                        (MAX_GRID_SAMPLES / 50.0, 50.0)])
def test_grid_size_rejects_impossible_grids(span, rate):
    with pytest.raises(ValidationError, match="samples; allowed are 1 to"):
        grid_size(span, rate)


def test_movement_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    steps = [KeyframeStep(float(t), rng.standard_normal(3)) for t in (0.0, 0.31, 0.9)]
    m = KeyframeMovement(steps, speed_rate=1.25, name="rt")
    text = format_movement(m)
    again = parse_movement(text)
    assert format_movement(again) == text
    assert again.speed_rate == m.speed_rate
    for a, b in zip(again.steps, m.steps):
        assert a.time == b.time
        np.testing.assert_array_equal(a.joints, b.joints)

    path = tmp_path / "m.mov"
    save_movement(m, path)
    loaded = load_movement(path)
    assert loaded.name == "m"
    assert format_movement(loaded) == text


def test_movement_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_movement("bogus n=1 gamma=2 rate=1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_movement("movement n=2 gamma=2 rate=1\nt=0 0 0\nt=1 0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_movement("movement n=1 gamma=2 rate=1\nt=zero 0\nt=1 0\n")
    with pytest.raises(FormatError, match="gamma=3"):
        parse_movement("movement n=1 gamma=3 rate=1\nt=0 0\nt=1 0\n")
