import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

import motionmimic.trainer
from motionmimic.errors import DivergenceError, MimicError
from motionmimic.motion import MAX_ANGLE, KeyframeMovement, grid_size
from motionmimic.network import initialize, layer_views
from motionmimic.optimizer import SCHEDULE_PRESETS, TrainingSchedule
from motionmimic.spline import build_spline
from motionmimic.textio import parse_table
from motionmimic.trainer import (
    DEFAULT_HIDDEN,
    LOG_HEADER,
    MotionDataset,
    TrainedModel,
    evaluate,
    ingest_log,
    load_dataset,
    load_model,
    parse_dataset,
    rollout,
    sample_movement,
    save_dataset,
    save_log,
    save_model,
    train,
)

from oracles import (expression_adam_step, flat_gradient, kernel_digests, parse_log, text_lines,
                     unfused_forward_backward, written)


def kick_analog(seed=100, n_joints=5, n_keys=5, duration=1.5):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, duration, n_keys)
    return KeyframeMovement(times, rng.uniform(-1, 1, size=(n_keys, n_joints)))


def one_second_movement():
    return KeyframeMovement([0.0, 0.5, 1.0], [[0.0, 0.3], [0.8, -0.4], [0.1, 0.2]])


def zero_model(n_joints, duration=1.0, rate=50.0, scale=1.2, offset=0.0):
    net = initialize([1, 4, n_joints + 1], seed=0)
    net.params[:] = 0.0
    return TrainedModel(
        network=net,
        duration=duration,
        sample_rate=rate,
        time_offset=offset,
        time_scale=scale,
    )


def log_columns(log):
    """The training_log.csv table save_log writes for log: epoch, phase, lr, mse, mae."""
    return parse_table(text_lines(written(save_log, log)), "<columns...>")[1]


@pytest.fixture(scope="module")
def desk_fit():
    movement = kick_analog()
    dataset = sample_movement(movement, 50.0)
    model, log = train(dataset, schedule=TrainingSchedule(SCHEDULE_PRESETS["desk"]), seed=0)
    return movement, dataset, model, log


def test_sample_counts_one_second_50hz():
    ds = sample_movement(one_second_movement(), 50.0)
    assert len(ds.times) == 61  # 51 in-motion + 10 tail
    assert np.sum(ds.flags) == 11  # flagged at t = 1.0 and on the 10 tail samples
    assert ds.sample_rate == 50.0


def test_first_sample_is_first_keyframe_with_flag_zero():
    m = one_second_movement()
    ds = sample_movement(m, 50.0)
    np.testing.assert_allclose(ds.joints[0], m.joints[0], atol=1e-12)
    assert ds.flags[0] == 0.0


def test_samples_equal_spline_values():
    m = kick_analog()
    ds = sample_movement(m, 50.0)
    in_motion = ds.times <= 1.5 + 1e-12
    for j in range(m.joints.shape[1]):
        spline = build_spline(m.times, m.joints[:, [j]])  # this joint alone
        expected = spline.eval(np.minimum(ds.times[in_motion], 1.5))[:, 0]
        np.testing.assert_allclose(ds.joints[in_motion, j], expected, atol=1e-12)


def test_tail_holds_last_keyframe():
    m = one_second_movement()
    ds = sample_movement(m, 50.0, tail=4)
    assert len(ds.times) == 55
    for row in ds.joints[-4:]:
        np.testing.assert_array_equal(row, m.joints[-1])
    np.testing.assert_array_equal(ds.flags[-5:], np.ones(5))


def edge_durations(rate, i):
    """Durations on, beside and just past the grid point i / rate."""
    d = i / rate
    return [d, np.nextafter(d, np.inf), np.nextafter(d, -np.inf), d + 1e-12, d - 1e-12,
            d + 2e-11, d + 5e-11, d + 0.3 / rate, float(f"{i / rate + 1e-12:.12g}")]


@pytest.mark.parametrize("rate", [50.0, 37.0, 100 / 3, 1000 / 7, 60.0, 7.0],
                         ids=["50", "37", "100_over_3", "1000_over_7", "60", "7"])
def test_every_sampled_dataset_flags_its_end_by_one_rule(rate):
    # the row count and the flags follow the same end: the first sample at or
    # after the duration, with 1e-12 s of slack
    for i in range(1, 101):
        for duration in edge_durations(rate, i):
            m = KeyframeMovement([0.0, duration], [[0.0], [1.0]])
            count = grid_size(duration, rate)
            for tail in (0, 3):
                ds = sample_movement(m, rate, tail)
                case = (rate, duration, tail)
                end = int(np.argmax(ds.flags))
                assert ds.flags[-1] == 1.0 and end in (count - 1, count), case
                assert ds.times[end] >= duration - 1e-12, case
                assert end == 0 or ds.times[end - 1] < duration - 1e-12, case
                assert len(ds.times) == max(count + tail, end + 1), case
                assert np.all(ds.joints[count:] == m.joints[-1]), case  # the exact keyframe


def test_sample_rejects_bad_rate_and_movement():
    with pytest.raises(MimicError, match="rate must be positive"):
        sample_movement(one_second_movement(), 0.0)
    for tail in (-1, 10**19):
        with pytest.raises(MimicError, match="tail must be 0 to"):
            sample_movement(one_second_movement(), 50.0, tail=tail)
    with pytest.raises(MimicError, match="first step time must be 0"):
        sample_movement(KeyframeMovement([0.1, 0.5], [[0.0], [1.0]]), 50.0)


def test_dataset_invariants():
    ds = sample_movement(one_second_movement(), 50.0)
    np.testing.assert_allclose(np.diff(ds.times), 1.0 / 50.0, atol=1e-9)
    x = (ds.times - ds.time_offset) / ds.time_scale
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(np.diff(ds.flags) >= 0)
    assert ds.duration == pytest.approx(1.0, abs=1e-12)


def test_model_inputs_are_the_normalized_dataset_times(desk_fit):
    _, dataset, model, _ = desk_fit
    x = model.inputs(dataset.times)
    assert x.shape == (len(dataset.times), 1)
    span = dataset.times[-1] - dataset.times[0]
    np.testing.assert_array_equal(x[:, 0], (dataset.times - dataset.times[0]) / span)
    assert x[0, 0] == 0.0 and x[-1, 0] == 1.0


def test_dataset_validation_errors():
    with pytest.raises(MimicError, match="uniform"):
        MotionDataset(np.array([0.0, 0.02, 0.05]), np.zeros((3, 2)), 50.0)
    with pytest.raises(MimicError, match="end flag"):
        MotionDataset(np.array([0.0, 0.02]), np.array([[0.0, 0.5], [0.0, 1.0]]), 50.0)
    with pytest.raises(MimicError, match="fall back"):
        MotionDataset(np.array([0.0, 0.02]), np.array([[0.0, 1.0], [0.0, 0.0]]), 50.0)
    with pytest.raises(MimicError, match="^a dataset value reaches nan, beyond"):
        MotionDataset(np.array([0.0, 0.02]), np.array([[np.nan, 0.0], [0.0, 1.0]]), 50.0)
    with pytest.raises(MimicError, match="^dataset times must be finite$"):
        MotionDataset(np.array([0.0, np.inf]), np.zeros((2, 2)), 50.0)
    for angle in (1e308, -2 * MAX_ANGLE, np.nextafter(MAX_ANGLE, np.inf)):
        with pytest.raises(MimicError, match="rad bound"):
            MotionDataset(np.array([0.0, 0.02]), np.array([[0.0, 0.0], [angle, 1.0]]), 50.0)
    at_bound = MotionDataset(np.array([0.0, 0.02]), np.array([[MAX_ANGLE, 0.0], [-MAX_ANGLE, 1.0]]),
                             50.0)
    assert np.abs(at_bound.joints).max() == MAX_ANGLE


def test_ingest_uniform_log_is_identity():
    times = np.arange(40) / 50.0
    joints = np.column_stack([np.sin(times), np.cos(times)])
    ds = ingest_log(times, joints, 50.0)
    np.testing.assert_array_equal(ds.times, times)
    np.testing.assert_array_equal(ds.joints, joints)
    np.testing.assert_array_equal(ds.flags[:-1], np.zeros(39))
    assert ds.flags[-1] == 1.0
    assert not ds.periodic


def test_ingest_fills_single_gap_within_curvature_bound():
    rate = 50.0
    times = np.arange(60) / rate
    joints = np.sin(2.0 * np.pi * 1.3 * times)[:, None]
    drop = 23
    kept = np.ones(60, dtype=bool)
    kept[drop] = False
    ds = ingest_log(times[kept], joints[kept], rate)
    assert len(ds.times) == 60
    # linear midpoint error is bounded by max|f''| * h^2 / 2
    h = 1.0 / rate
    bound = (2.0 * np.pi * 1.3) ** 2 * h * h / 2.0
    assert abs(ds.joints[drop, 0] - joints[drop, 0]) < bound


def test_ingest_rejects_long_gaps_and_disorder():
    times = np.arange(10) / 50.0
    joints = np.zeros((10, 1))
    kept = np.ones(10, dtype=bool)
    kept[4:6] = False
    with pytest.raises(MimicError, match="missing samples"):
        ingest_log(times[kept], joints[kept], 50.0)
    shuffled = times.copy()
    shuffled[3], shuffled[4] = shuffled[4], shuffled[3]
    with pytest.raises(MimicError,
                       match=r"^times must increase \(violation at record 4, t=0\.06\)$"):
        ingest_log(shuffled, joints, 50.0)
    with pytest.raises(MimicError, match="off the"):
        ingest_log(times + np.linspace(0, 0.008, 10), joints, 50.0)
    with pytest.raises(MimicError, match="^a dataset value reaches inf, beyond"):
        ingest_log(times, np.full((10, 1), np.inf), 50.0)
    for tail in (-1, 10**19):
        with pytest.raises(MimicError, match="tail must be 0 to"):
            ingest_log(times, joints, 50.0, tail=tail)


def test_ingest_periodic_log_has_zero_flags():
    times = np.arange(50) / 50.0
    joints = np.sin(2 * np.pi * times)[:, None]
    ds = ingest_log(times, joints, 50.0, periodic=True)
    assert ds.periodic
    np.testing.assert_array_equal(ds.flags, np.zeros(50))
    assert ds.duration == pytest.approx(times[-1])


def test_train_constant_target_converges_fast():
    # every sample identical, flag included: biases alone can represent it.
    # A bold first phase covers the bias travel, the small second phase
    # settles Adam's stationary oscillation.
    times = np.arange(20) / 50.0
    targets = np.tile([0.2, -0.4, 0.0], (20, 1))
    ds = MotionDataset(times, targets, 50.0)
    assert ds.periodic
    sched = TrainingSchedule([(250, 0.01), (250, 0.0005)])
    model, _ = train(ds, schedule=sched, seed=0)
    rep = evaluate(model, ds)
    assert rep.mae < 1e-4


def test_train_is_deterministic(desk_fit):
    _, dataset, model, log = desk_fit
    sched = TrainingSchedule([(50, 0.001), (20, 0.0008)])
    m1, l1 = train(dataset, schedule=sched, seed=3)
    m2, l2 = train(dataset, schedule=sched, seed=3)
    np.testing.assert_array_equal(l1.mses, l2.mses)
    np.testing.assert_array_equal(l1.maes, l2.maes)
    for wa, ba, wb, bb in zip(m1.network.weights, m1.network.biases,
                              m2.network.weights, m2.network.biases):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)


# SHA-256 of the files a seeded run saves, per OpenBLAS kernel, each computed
# in a child process with OPENBLAS_CORETYPE set to it (Prescott runs Katmai).
GUARD_DIGESTS = {
    "SkylakeX": {
        "training_log.csv": "8ce8c37376a27b3ae30b794c9098ee37ca49ef33d9851ba7a39a48c68fe1b3c1",
        "weights.txt": "471b983256c7700efcd42f7c0388910160f4c40fff2f92942f3009cc49c16ced",
    },
    "Haswell": {
        "training_log.csv": "15457f69bd68e3c15f5de56f3cce8085fe7ef36721e00b8cd45390f43c8fa4db",
        "weights.txt": "7ee84ff00c076304bda88b8d7e3c8eba11af61ea2fab7dcdeb741841553760f0",
    },
    "Sandybridge": {
        "training_log.csv": "72f37c05a05b41c344cc243287260347e442d208feb80673b0160bd666b6286a",
        "weights.txt": "bbfcad5068ae7e56d4cebd543c522434a4fe2e171f30d622d8a86b74033fdfea",
    },
    "Nehalem": {
        "training_log.csv": "7a6ad7b0d98a44993388e88fa4b3e2b9d4bca3ccd1ac5d632473d18f39577e9a",
        "weights.txt": "9ea1a5d638aedf5ba49d224f15e0d6917ede13c62e1222b75e0f13ff05908e9f",
    },
    "Katmai": {
        "training_log.csv": "62d3b95f8d828920dc4be5f3a2a0ed0251f428a5edca4062c079ec0164a03694",
        "weights.txt": "a35845547ff75ae90b9cb2ceea0dadad44d5c9a437611aeff7654e19f992698c",
    },
}


def test_seeded_training_files_are_bit_identical(tmp_path, monkeypatch):
    updated = []
    real_step = motionmimic.trainer.adam_step

    def recording_step(state, params, grads, lr):
        updated.append(params)
        return real_step(state, params, grads, lr)

    monkeypatch.setattr(motionmimic.trainer, "adam_step", recording_step)
    ds = sample_movement(one_second_movement(), 50.0)  # the README's demo movement
    sched = TrainingSchedule([(200, 0.001), (100, 0.0005)], reset_on_phase=True)
    model, log = train(ds, schedule=sched, seed=0)
    save_model(model, tmp_path)
    save_log(log, tmp_path / "training_log.csv")
    for name, digest in kernel_digests(GUARD_DIGESTS).items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    assert len(updated) == sched.total_epochs
    theta = updated[0]
    assert theta is model.network.params
    assert theta.size == sum(w.size + b.size
                             for w, b in zip(model.network.weights, model.network.biases))
    for w, b in zip(model.network.weights, model.network.biases):
        assert np.shares_memory(w, theta)
        assert np.shares_memory(b, theta)


def reference_training(dataset, schedule, seed, alpha):
    """(params, mses, maes) of the epoch loop on fresh arrays: unfused pass, expression Adam."""
    n = dataset.n_joints
    net = initialize([1, *DEFAULT_HIDDEN, n + 1], seed=seed, alpha=alpha)
    x, y = ((dataset.times - dataset.time_offset) / dataset.time_scale)[:, None], dataset.targets
    m, v, t = np.zeros_like(net.params), np.zeros_like(net.params), 0
    mses, maes = [], []
    for phase, (epochs, lr) in enumerate(schedule.phases):
        if phase and schedule.reset_on_phase:
            m[:], v[:], t = 0.0, 0.0, 0
        for _ in range(epochs):
            loss, pred, w_grads, b_grads = unfused_forward_backward(net, x, y)
            flat = flat_gradient(net.sizes, w_grads, b_grads)
            t += 1
            expression_adam_step(m, v, t, net.params, flat, lr)
            mses.append(loss)
            maes.append(np.mean(np.abs(pred[:, :n] - y[:, :n])))
    return net.params, np.array(mses), np.array(maes)


@pytest.mark.parametrize("alpha", [0.01, 2.5])
def test_buffered_training_matches_fresh_array_loop_bit_for_bit(alpha):
    ds = sample_movement(one_second_movement(), 289.0)
    assert len(ds.times) == 300
    sched = TrainingSchedule([(20, 0.01), (15, 0.004), (10, 0.001)], reset_on_phase=True)
    model, log = train(ds, schedule=sched, seed=2, alpha=alpha)
    params, mses, maes = reference_training(ds, sched, seed=2, alpha=alpha)
    for got, want in ((model.network.params, params), (log.mses, mses), (log.maes, maes)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_divergence_names_the_first_nonfinite_gradient(monkeypatch):
    real_pass = motionmimic.trainer.forward_backward
    passes = []

    def poisoned_pass(*args):  # finite loss, non-finite gradients from epoch 3 on
        loss, pred, grads = real_pass(*args)
        passes.append(loss)
        if len(passes) > 3:
            weights, biases = layer_views(args[0].sizes, grads)
            biases[2][0] = np.inf
            weights[1][3, 4] = np.nan
        return loss, pred, grads

    monkeypatch.setattr(motionmimic.trainer, "forward_backward", poisoned_pass)
    ds = sample_movement(one_second_movement(), 50.0)
    with pytest.raises(DivergenceError, match="non-finite gradient in layer1.weights") as err:
        train(ds, schedule=TrainingSchedule([(5, 0.001)]), seed=0)
    assert "last finite epoch 2" in str(err.value)
    assert len(err.value.log) == 3


def huge_gradient_pass(real_pass, bad=None, from_pass=3):
    """A forward_backward whose layer-0 weight gradients start with two finite 1e308s.

    Their sum overflows, so the vector's sum is not finite though every
    entry is.  From pass from_pass on, layer1.weights[3, 4] is set to bad.
    """
    passes = []

    def poisoned_pass(*args):
        loss, pred, grads = real_pass(*args)
        passes.append(loss)
        weights, _ = layer_views(args[0].sizes, grads)
        weights[0][:2] = 1e308
        assert np.isinf(np.add.reduce(grads))
        if bad is not None and len(passes) >= from_pass:
            weights[1][3, 4] = bad
        return loss, pred, grads

    return poisoned_pass


def test_finite_gradients_whose_sum_overflows_train_on(monkeypatch):
    real_pass = motionmimic.trainer.forward_backward
    monkeypatch.setattr(motionmimic.trainer, "forward_backward", huge_gradient_pass(real_pass))
    ds = sample_movement(one_second_movement(), 50.0)
    model, log = train(ds, schedule=TrainingSchedule([(5, 0.001)]), seed=0)
    assert len(log) == 5
    assert np.all(np.isfinite(log.mses)) and np.all(np.isfinite(model.network.params))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_one_nonfinite_gradient_entry_names_its_tensor(monkeypatch, bad):
    real_pass = motionmimic.trainer.forward_backward
    monkeypatch.setattr(motionmimic.trainer, "forward_backward",
                        huge_gradient_pass(real_pass, bad=bad, from_pass=3))
    ds = sample_movement(one_second_movement(), 50.0)
    with pytest.raises(DivergenceError, match="^non-finite gradient in layer1.weights; "
                                              "last finite epoch 1$") as err:
        train(ds, schedule=TrainingSchedule([(5, 0.001)]), seed=0)
    assert len(err.value.log) == 2


def test_desk_scale_fit_reaches_mae_bound(desk_fit):
    _, dataset, model, _ = desk_fit
    rep = evaluate(model, dataset)
    assert rep.mae <= 0.018
    assert rep.end_time_error <= 1


def test_train_rejects_wrong_output_size():
    ds = sample_movement(one_second_movement(), 50.0)
    with pytest.raises(MimicError, match="output size"):
        train(ds, arch=[1, 8, 5], schedule=TrainingSchedule([(10, 0.001)]))


def test_train_divergence_reports_last_finite_epoch():
    # Adam updates are bounded by the learning rate, so the rate must be
    # absurd enough to push the layer product past float range
    ds = sample_movement(one_second_movement(), 50.0)
    sched = TrainingSchedule([(500, 1e51)])
    with pytest.raises(DivergenceError) as err:
        train(ds, schedule=sched, seed=0)
    log = err.value.log
    last = len(log) - 1
    assert last >= 0
    assert str(err.value).endswith(f"; last finite epoch {last}")
    assert log.schedule == sched and len(log.maes) == last + 1
    np.testing.assert_array_equal(log_columns(log)[:, 0], np.arange(last + 1))
    assert np.all(np.isfinite(log.mses))


def test_log_structure(desk_fit):
    _, _, _, log = desk_fit
    sched = TrainingSchedule(SCHEDULE_PRESETS["desk"])
    assert log.schedule == sched
    assert len(log) == len(log.maes) == sched.total_epochs
    epochs, phases, lrs = log_columns(log)[:, :3].T
    np.testing.assert_array_equal(epochs, np.arange(sched.total_epochs))
    np.testing.assert_array_equal(lrs, np.concatenate([np.full(e, lr) for e, lr in sched.phases]))
    np.testing.assert_array_equal(phases, np.repeat([0, 1, 2, 3, 4], [3000, 500, 500, 500, 500]))
    assert np.all(np.isfinite(log.mses))
    assert np.all(np.isfinite(log.maes))


def test_loss_mostly_nonincreasing_without_reset():
    ds = sample_movement(kick_analog(), 50.0)
    sched = TrainingSchedule(
        [(900, 0.001), (150, 0.0008), (150, 0.0006), (150, 0.0004), (150, 0.0002)],
        reset_on_phase=False,
    )
    _, log = train(ds, schedule=sched, seed=0)
    drops = np.diff(log.mses[100:]) <= 0
    assert np.mean(drops) >= 0.95


def test_phase_reset_spike_is_transient():
    ds = sample_movement(kick_analog(), 50.0)
    sched = TrainingSchedule(SCHEDULE_PRESETS["desk"])
    model, log = train(ds, schedule=sched, seed=0)
    boundaries = np.cumsum([e for e, _ in sched.phases])[:-1]
    final_mse = evaluate(model, ds).mse
    for b in boundaries:
        pre = log.mses[b - 1]
        # the first epochs of the new phase may spike above the boundary loss
        assert final_mse < pre


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
def test_every_sample_rate_must_be_positive_and_finite(rate):
    calls = [
        lambda: sample_movement(one_second_movement(), rate),
        lambda: ingest_log([0.0, 0.02], [[0.0], [1.0]], rate),
        lambda: rollout(zero_model(1), rate),
        lambda: MotionDataset([0.0, 0.02], np.zeros((2, 2)), rate),
    ]
    for call in calls:
        with pytest.raises(MimicError, match="rate must be positive and finite"):
            call()


@pytest.mark.parametrize("field", ["duration", "rate", "scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_trained_model_rejects_bad_duration_and_rate(field, value):
    # the duration is an end time: finite and not before the first time, here 0.5
    message = {
        "duration": f"duration must be finite and not before the time offset 0.5, got {value}",
        "rate": f"sample rate must be positive and finite, got {value}",
        "scale": f"time scale must be positive and finite, got {value}",
    }[field]
    with pytest.raises(MimicError, match=f"^{re.escape(message)}$"):
        zero_model(2, offset=0.5, **{field: value})


@pytest.mark.parametrize("offset, duration", [(0.0, 0.0), (-5.0, -4.22), (-5.0, -5.0)])
def test_trained_model_takes_an_end_at_or_after_its_first_time(offset, duration):
    model = zero_model(2, offset=offset, duration=duration)
    assert rollout(model, 50.0).times[0] == offset


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_trained_model_rejects_nonfinite_time_offset(offset):
    with pytest.raises(MimicError, match="^normalization constants must be finite$"):
        replace(zero_model(2), time_offset=offset)


def test_evaluate_perfect_predictions():
    # a zero network reproduces a still, periodic dataset exactly
    ds = MotionDataset(np.arange(20) / 50.0, np.zeros((20, 3)), 50.0)
    rep = evaluate(zero_model(2, duration=ds.duration, scale=ds.time_scale), ds)
    assert rep.mse == 0.0
    assert rep.mae == 0.0
    np.testing.assert_array_equal(rep.per_joint_mae, np.zeros(2))
    assert rep.end_time_error == 0


def test_evaluate_zero_network_gives_mean_abs_target():
    ds = sample_movement(one_second_movement(), 50.0)
    model = zero_model(2, duration=ds.duration, scale=ds.time_scale)
    rep = evaluate(model, ds)
    assert rep.mae == pytest.approx(np.mean(np.abs(ds.joints)))
    np.testing.assert_allclose(rep.per_joint_mae, np.mean(np.abs(ds.joints), axis=0))
    # flag output never crosses 0.5
    assert rep.end_time_error == len(ds.times)


def test_evaluate_dimension_mismatch():
    ds = sample_movement(one_second_movement(), 50.0)
    with pytest.raises(MimicError, match=f"^model has 3 joints, dataset {ds.n_joints}$"):
        evaluate(zero_model(3), ds)


def test_rollout_length_matches_training_motion(desk_fit):
    _, dataset, model, _ = desk_fit
    ro = rollout(model, 50.0)
    true_len = int(np.nonzero(dataset.flags >= 0.5)[0][0]) + 1
    assert abs(len(ro.times) - true_len) <= 1
    assert ro.end_detected


def test_rollout_periodic_model_hits_cap():
    model = zero_model(2, duration=1.0, rate=50.0)
    ro = rollout(model, 50.0)
    assert not ro.end_detected
    assert ro.times[-1] == pytest.approx(2.0)  # 2x the training duration
    assert np.all(ro.flags < 0.5)


def test_rollout_stops_at_a_flag_of_exactly_one_half():
    model = zero_model(2)
    model.network.biases[-1][-1] = 0.5  # every flag output is the threshold itself
    ro = rollout(model, 50.0)
    assert len(ro.times) == 1 and ro.flags[0] == 0.5 and ro.end_detected


def test_rollout_cap_is_relative_to_the_dataset_start():
    # one periodic 30-sample log, recorded from t=0 and from t=100 s; a flag
    # that never rises caps both sweeps at twice the log's span
    lengths = []
    for start in (0.0, 100.0):
        ds = ingest_log(start + np.arange(30) / 50.0, np.zeros((30, 2)), 50.0, periodic=True)
        model = replace(zero_model(2), duration=ds.duration, time_offset=ds.time_offset,
                        time_scale=ds.time_scale)
        ro = rollout(model, 50.0)
        assert not ro.end_detected
        assert ro.times[0] == start and ro.times[-1] <= start + 2 * ds.time_scale + 1e-9
        lengths.append(len(ro.times))
    assert lengths == [59, 59]


def test_rollout_at_double_rate_is_consistent(desk_fit):
    _, _, model, _ = desk_fit
    ro1 = rollout(model, 50.0)
    ro2 = rollout(model, 100.0)
    shared = min(len(ro1.times), (len(ro2.times) + 1) // 2)
    np.testing.assert_array_equal(ro1.times[:shared], ro2.times[: 2 * shared : 2])
    np.testing.assert_allclose(
        ro1.joints[:shared], ro2.joints[: 2 * shared : 2], atol=1e-12
    )


@pytest.mark.parametrize(
    "rate, rows, start",
    [
        pytest.param(7.77, 511, 0.0, id="7.77-511"),
        pytest.param(29.97, 1541, 0.0, id="29.97-1541"),
        pytest.param(61.7, 11, 0.0, id="61.7-11"),
        # no short decimal regenerates these grids; the rate lies 1 to 7 ulps
        # from the (rows - 1) / span estimate
        pytest.param(100 / 3, 7, 0.37, id="100/3-7-from-0.37"),
        pytest.param(200 / 3, 31, 12.5, id="200/3-31-from-12.5"),
        pytest.param(1000 / 7, 100, 12.5, id="1000/7-100-from-12.5"),
        pytest.param(1000 / 7, 161, -3.3, id="1000/7-161-from--3.3"),
        # other rates fit these short grids too, and a late start lies far from
        # the estimate: only the file's rate line gives the rate back
        pytest.param(100 / 3, 2, 0.37, id="100/3-2-from-0.37"),
        pytest.param(100 / 3, 11, 1.1, id="100/3-11-from-1.1"),
        pytest.param(1000 / 7, 8, 100.0, id="1000/7-8-from-100"),
        pytest.param(1000 / 3, 11, 12.5, id="1000/3-11-from-12.5"),
    ],
)
def test_dataset_rate_round_trips(rate, rows, start, tmp_path):
    ds = MotionDataset(start + np.arange(rows) / rate, np.zeros((rows, 2)), rate)
    save_dataset(ds, tmp_path / "d.csv")
    assert load_dataset(tmp_path / "d.csv").sample_rate == rate


def test_ingested_rate_round_trips_from_a_late_start():
    ds = ingest_log(0.37 + np.arange(161) / 61.7, np.zeros((161, 1)), 61.7)
    again = parse_dataset(text_lines(written(save_dataset, ds)))
    assert again.sample_rate == 61.7
    np.testing.assert_array_equal(0.37 + np.arange(161) / again.sample_rate, again.times)


def test_dataset_csv_round_trip(tmp_path):
    ds = sample_movement(one_second_movement(), 50.0)
    text = written(save_dataset, ds)
    again = parse_dataset(text_lines(text))
    assert written(save_dataset, again) == text
    np.testing.assert_array_equal(again.times, ds.times)
    np.testing.assert_array_equal(again.targets, ds.targets)
    assert again.sample_rate == ds.sample_rate
    assert again.joint_names == ds.joint_names
    assert again.periodic == ds.periodic

    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    assert written(save_dataset, load_dataset(path)) == path.read_text() == text


def test_dataset_csv_parse_errors():
    with pytest.raises(MimicError, match="line 1"):
        parse_dataset(text_lines("bogus\n1,2\n"))
    good = written(save_dataset, sample_movement(one_second_movement(), 50.0))
    broken = good.splitlines()
    broken[3] = broken[3] + ",0.5"
    with pytest.raises(MimicError, match="line 4"):
        parse_dataset(text_lines("\n".join(broken)))


def test_training_log_csv_round_trip(tmp_path, desk_fit):
    _, _, _, log = desk_fit
    path = tmp_path / "log.csv"
    save_log(log, path)
    text = path.read_text()
    names, _ = parse_table(text_lines(text), "<columns...>")
    assert names == LOG_HEADER.split(",")
    again = parse_log(text_lines(text))
    assert again.schedule.phases == log.schedule.phases
    np.testing.assert_array_equal(again.mses, log.mses)
    np.testing.assert_array_equal(again.maes, log.maes)
    assert written(save_log, again) == text


def test_model_bundle_round_trip(tmp_path, desk_fit):
    _, _, model, _ = desk_fit
    save_model(model, tmp_path / "bundle")
    again = load_model(tmp_path / "bundle")
    assert again.n_joints == model.n_joints
    assert again.duration == model.duration
    assert again.sample_rate == model.sample_rate
    assert again.time_offset == model.time_offset
    assert again.time_scale == model.time_scale
    assert again.periodic == model.periodic
    for wa, ba, wb, bb in zip(again.network.weights, again.network.biases,
                              model.network.weights, model.network.biases):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
    probe = np.array([0.0, 0.4, 1.1])
    np.testing.assert_array_equal(again.predict(probe), model.predict(probe))
