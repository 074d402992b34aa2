"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line
per criterion.  Tolerances are hard bounds; every run is deterministic.
"""

from pathlib import Path

import numpy as np
import pytest

from motionmimic.motion import KeyframeMovement, parse_movement
from motionmimic.network import (
    epoch_buffers,
    forward_backward,
    initialize,
    parse_weights,
    save_weights,
)
from motionmimic.optimizer import (
    SCHEDULE_PRESETS,
    TrainingSchedule,
    adam_init,
    adam_step,
)
from motionmimic.plant import PlantConfig, simulate, step
from motionmimic.spline import build_spline
from motionmimic.trainer import (
    evaluate,
    parse_dataset,
    rollout,
    sample_movement,
    save_dataset,
    train,
)

from oracles import (
    dense_natural_spline,
    finite_difference_gradients,
    format_movement,
    layer_views,
    max_relative_gradient_error,
    scalar_adam,
    schedule_run,
    spline_derivatives,
    text_lines,
    written,
)


def ok(line):
    print(f"\n{line}: PASS")


def random_walk_movement(seed, n_joints, n_keys, duration):
    """Keyframes that drift like real postures: bounded step per keyframe."""
    rng = np.random.default_rng(seed)
    interior = np.sort(rng.uniform(0.05, duration - 0.05, size=n_keys - 2))
    while np.any(np.diff(interior) < 0.05):
        interior = np.sort(rng.uniform(0.05, duration - 0.05, size=n_keys - 2))
    times = np.concatenate([[0.0], interior, [duration]])
    pose = rng.uniform(-0.5, 0.5, size=n_joints)
    joints = []
    for _ in times:
        joints.append(pose.copy())
        pose = np.clip(pose + rng.uniform(-0.6, 0.6, size=n_joints), -1.2, 1.2)
    return KeyframeMovement(times, joints)


def kick_analog():
    rng = np.random.default_rng(100)
    times = np.linspace(0.0, 1.5, 5)
    joints = [rng.uniform(-1, 1, size=5) for _ in times]
    return KeyframeMovement(times, joints)


def test_c01_parameter_accounting():
    net = initialize([1, 75, 50, 23], seed=0)
    counts = [block.size for block in net.blocks]  # in * out weights and out biases
    assert counts == [150, 3800, 1173]
    assert net.params.size == 5123
    ok("criterion 1 (parameter accounting 150/3800/1173 = 5123)")


def test_c02_gradient_correctness():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(20):
        n_layers = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 11)) for _ in range(n_layers + 1)]
        net = initialize(sizes, seed=int(rng.integers(0, 2**31)))
        batch = int(rng.integers(1, 6))
        x = rng.standard_normal((batch, net.sizes[0]))
        y = rng.standard_normal((batch, net.sizes[-1]))
        loss, _, grads = forward_backward(net, x, y, epoch_buffers(net, x))
        fd_w, fd_b = finite_difference_gradients(net, x, y, epsilon=1e-6)
        err = max_relative_gradient_error(*layer_views(net.sizes, grads), fd_w, fd_b, loss=loss)
        assert err < 1e-5
        checked += 1
    assert checked >= 20
    ok(f"criterion 2 (gradients vs central differences on {checked} networks)")


def test_c03_spline_suite():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        times = np.sort(rng.uniform(0.0, 5.0, size=n))
        while np.any(np.diff(times) < 1e-2):
            times = np.sort(rng.uniform(0.0, 5.0, size=n))
        values = rng.uniform(-2.0, 2.0, size=n)
        s = build_spline(times, values[:, None])
        np.testing.assert_allclose(s.eval(times)[:, 0], values, rtol=0, atol=1e-10)
        coeffs = s.coeffs[:, :, 0]
        for i in range(1, n - 1):
            h = times[i] - times[i - 1]
            left = coeffs[i - 1]
            val_l = left[0] + h * (left[1] + h * (left[2] + h * left[3]))
            vel_l = left[1] + 2 * left[2] * h + 3 * left[3] * h * h
            acc_l = 2 * left[2] + 6 * left[3] * h
            assert abs(val_l - coeffs[i, 0]) < 1e-8
            assert abs(vel_l - coeffs[i, 1]) < 1e-8
            assert abs(acc_l - 2 * coeffs[i, 2]) < 1e-8
        _, acc = spline_derivatives(s, [times[0], times[-1]])
        assert np.all(np.abs(acc) < 1e-10)

    line_times = np.array([0.0, 0.4, 1.1, 2.0, 3.5])
    s = build_spline(line_times, (0.7 * line_times - 0.2)[:, None])
    queries = rng.uniform(0.0, 3.5, size=100)
    np.testing.assert_allclose(s.eval(queries)[:, 0], 0.7 * queries - 0.2, rtol=0, atol=1e-10)

    four = build_spline([0.0, 1.0, 2.0, 3.0], [[0.0], [2.0], [1.0], [3.0]])
    oracle = dense_natural_spline([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0])
    np.testing.assert_allclose(four.coeffs[:, :, 0], oracle, atol=1e-12)
    ok("criterion 3 (spline interpolation, C2, linearity, natural ends, dense oracle)")


def test_c04_desk_scale_mae_and_end_detection():
    motions = {
        "short": random_walk_movement(11, n_joints=4, n_keys=3, duration=1.0),
        "kick-analog": kick_analog(),
        "long": random_walk_movement(5, n_joints=6, n_keys=10, duration=3.0),
    }
    for i, (name, movement) in enumerate(motions.items()):
        dataset = sample_movement(movement, 50.0)
        model, _ = train(dataset, schedule=TrainingSchedule(SCHEDULE_PRESETS["desk"]), seed=i)
        rep = evaluate(model, dataset)
        assert rep.mae <= 0.018, f"{name}: mae {rep.mae}"
        ro = rollout(model, 50.0)
        true_len = int(np.nonzero(dataset.flags >= 0.5)[0][0]) + 1
        assert abs(len(ro.times) - true_len) <= 1, f"{name}: rollout length"
        assert rep.end_time_error <= 1, f"{name}: end-time error"
    ok("criterion 4 (desk-scale training reaches MAE <= 0.018 rad, end within 1 sample)")


def test_c05_schedule_fidelity():
    lrs, _, table = schedule_run(TrainingSchedule(SCHEDULE_PRESETS["reference"]))
    expected = np.concatenate(
        [
            np.full(30000, 0.001),
            np.full(5000, 0.0008),
            np.full(5000, 0.0006),
            np.full(5000, 0.0004),
            np.full(5000, 0.0002),
        ]
    )
    assert len(lrs) == 50000
    np.testing.assert_array_equal(lrs, expected)
    np.testing.assert_array_equal(table[:, 2], expected)  # the training log's lr column
    ok("criterion 5 (per-epoch learning-rate sequence matches the recipe exactly)")


def test_c06_phase_reset_behavior():
    dataset = sample_movement(kick_analog(), 50.0)
    sched_on = TrainingSchedule(SCHEDULE_PRESETS["desk"])
    boundaries = np.cumsum([e for e, _ in sched_on.phases])[:-1]

    model_on, log_on = train(dataset, schedule=sched_on, seed=0)
    final_on = evaluate(model_on, dataset).mse
    for b in boundaries:
        assert final_on < log_on.mses[b - 1]

    sched_off = TrainingSchedule(sched_on.phases, reset_on_phase=False)
    _, log_off = train(dataset, schedule=sched_off, seed=0)
    for b in boundaries:
        pre = log_off.mses[b - 1]
        spike = np.max(log_off.mses[b : b + 3])
        assert spike <= 1.01 * pre
    ok("criterion 6 (reset: final loss under every boundary; no reset: no 1% spike)")


def test_c07_adam_oracle():
    expected = scalar_adam([1.0, 1.0], lr=0.1)
    assert expected[0] == pytest.approx(-0.09999999900000002, abs=1e-15)
    assert expected[1] == pytest.approx(-0.19999999799999935, abs=1e-15)

    params = np.array([0.0])
    state = adam_init(params)
    adam_step(state, params, np.array([1.0]), lr=0.1)
    assert params[0] == pytest.approx(expected[0], abs=1e-12)
    adam_step(state, params, np.array([1.0]), lr=0.1)
    assert params[0] == pytest.approx(expected[1], abs=1e-12)
    ok("criterion 7 (first and second Adam steps match hand values to 1e-12)")


def test_c08_plant_physics():
    rng = np.random.default_rng(8)
    cfg = PlantConfig(kp=30.0, max_speed=2.0, tick_rate=50.0)
    positions = rng.uniform(-1, 1, size=3)
    bound = 2.0 / 50.0 + 1e-14
    for _ in range(300):
        nxt = step(positions, rng.uniform(-2, 2, size=3), cfg)
        assert np.all(np.abs(nxt - positions) <= bound)
        positions = nxt

    # kp/tick_rate = 0.5 is exact in binary, so the recurrence is exact
    cfg = PlantConfig(kp=25.0, max_speed=100.0, tick_rate=50.0)
    positions = np.array([0.0])
    err = 1.0
    for _ in range(20):
        positions = step(positions, np.array([1.0]), cfg)
        new_err = 1.0 - positions[0]
        assert new_err == 0.5 * err
        err = new_err

    times = np.linspace(0.0, 2.0, 73)
    joints = 0.5 * np.sin(2.0 * np.pi * 3.0 * times)[:, None]
    result = simulate(KeyframeMovement(times, joints), PlantConfig(kp=25.0, max_speed=7.0))
    assert np.ptp(result.attained) < np.ptp(result.desired)
    assert result.attenuated
    ok("criterion 8 (speed limit, exact error recurrence, sinusoid attenuation)")


def test_c09_round_trips():
    rng = np.random.default_rng(9)

    net = initialize([1, 7, 4], seed=9, alpha=0.015)
    text = written(save_weights, net)
    assert written(save_weights, parse_weights(text_lines(text))) == text

    movement = KeyframeMovement([0.0, 0.37, 1.12], rng.standard_normal((3, 3)), speed_rate=1.5)
    mtext = format_movement(movement)
    assert format_movement(parse_movement(text_lines(mtext))) == mtext

    dataset = sample_movement(movement, 50.0)
    dtext = written(save_dataset, dataset)
    assert written(save_dataset, parse_dataset(text_lines(dtext))) == dtext
    ok("criterion 9 (weight, movement, and dataset files round-trip bit-exactly)")


def test_c10_out_of_scope_results_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for number in ("64.5", "8.92", "52.6", "7.16", "0.87", "0.23"):
        assert number in readme, f"README must record the reference figure {number}"
    assert "reference" in readme.lower()
    ok("criterion 10 (in-simulator reference figures documented, not reproduced)")
