import hashlib
from dataclasses import replace

import numpy as np
import pytest

import motionmimic.trainer
from motionmimic.errors import (
    DivergenceError,
    FormatError,
    IngestionError,
    ShapeError,
    ValidationError,
)
from motionmimic.motion import KeyframeMovement, KeyframeStep
from motionmimic.network import initialize
from motionmimic.optimizer import TrainingSchedule, desk_schedule
from motionmimic.spline import build_spline
from motionmimic.trainer import (
    MotionDataset,
    TrainedModel,
    evaluate,
    evaluate_predictions,
    format_dataset,
    format_log,
    ingest_log,
    load_dataset,
    load_log,
    load_model,
    parse_dataset,
    rollout,
    sample_movement,
    save_dataset,
    save_log,
    save_model,
    train,
)


def kick_analog(seed=100, n_joints=5, n_keys=5, duration=1.5):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, duration, n_keys)
    steps = [KeyframeStep(float(t), rng.uniform(-1, 1, size=n_joints)) for t in times]
    return KeyframeMovement(steps, name="kick-analog")


def one_second_movement():
    return KeyframeMovement(
        [
            KeyframeStep(0.0, [0.0, 0.3]),
            KeyframeStep(0.5, [0.8, -0.4]),
            KeyframeStep(1.0, [0.1, 0.2]),
        ],
        name="demo",
    )


def zero_model(n_joints, duration=1.0, rate=50.0, scale=1.2):
    net = initialize([1, 4, n_joints + 1], seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    return TrainedModel(
        network=net,
        name="zero",
        n_joints=n_joints,
        duration=duration,
        sample_rate=rate,
        time_offset=0.0,
        time_scale=scale,
    )


@pytest.fixture(scope="module")
def desk_fit():
    movement = kick_analog()
    dataset = sample_movement(movement, 50.0)
    model, log = train(dataset, schedule=desk_schedule(), seed=0)
    return movement, dataset, model, log


def test_sample_counts_one_second_50hz():
    ds = sample_movement(one_second_movement(), 50.0)
    assert len(ds.times) == 61  # 51 in-motion + 10 tail
    assert np.sum(ds.flags) == 11  # flagged at t = 1.0 and on the 10 tail samples
    assert ds.sample_rate == 50.0


def test_first_sample_is_first_keyframe_with_flag_zero():
    m = one_second_movement()
    ds = sample_movement(m, 50.0)
    np.testing.assert_allclose(ds.joints[0], m.steps[0].joints, atol=1e-12)
    assert ds.flags[0] == 0.0


def test_samples_equal_spline_values():
    m = kick_analog()
    ds = sample_movement(m, 50.0)
    times = np.array([s.time for s in m.steps])
    values = np.stack([s.joints for s in m.steps])
    in_motion = ds.times <= 1.5 + 1e-12
    for j in range(m.n_joints):
        spline = build_spline(times, values[:, j])
        expected = spline.eval(np.minimum(ds.times[in_motion], 1.5))
        np.testing.assert_allclose(ds.joints[in_motion, j], expected, atol=1e-12)


def test_tail_holds_last_keyframe():
    m = one_second_movement()
    ds = sample_movement(m, 50.0, tail=4)
    assert len(ds.times) == 55
    for row in ds.joints[-4:]:
        np.testing.assert_array_equal(row, m.steps[-1].joints)
    np.testing.assert_array_equal(ds.flags[-5:], np.ones(5))


def test_sample_rejects_bad_rate_and_movement():
    with pytest.raises(ValidationError, match="rate must be positive"):
        sample_movement(one_second_movement(), 0.0)
    for tail in (-1, 10**19):
        with pytest.raises(ValidationError, match="tail must be 0 to"):
            sample_movement(one_second_movement(), 50.0, tail=tail)
    bad = KeyframeMovement([KeyframeStep(0.1, [0.0]), KeyframeStep(0.5, [1.0])])
    with pytest.raises(ValidationError, match="first step time must be 0"):
        sample_movement(bad, 50.0)


def test_dataset_invariants():
    ds = sample_movement(one_second_movement(), 50.0)
    np.testing.assert_allclose(np.diff(ds.times), 1.0 / 50.0, atol=1e-9)
    x = ds.normalized_times()
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(np.diff(ds.flags) >= 0)
    assert ds.duration == pytest.approx(1.0, abs=1e-12)


def test_dataset_validation_errors():
    with pytest.raises(ValidationError, match="uniform"):
        MotionDataset(np.array([0.0, 0.02, 0.05]), np.zeros((3, 2)), 50.0)
    with pytest.raises(ValidationError, match="end flag"):
        MotionDataset(np.array([0.0, 0.02]), np.array([[0.0, 0.5], [0.0, 1.0]]), 50.0)
    with pytest.raises(ValidationError, match="fall back"):
        MotionDataset(np.array([0.0, 0.02]), np.array([[0.0, 1.0], [0.0, 0.0]]), 50.0)
    with pytest.raises(ValidationError, match="finite"):
        MotionDataset(np.array([0.0, 0.02]), np.array([[np.nan, 0.0], [0.0, 1.0]]), 50.0)
    with pytest.raises(ValidationError, match="finite"):
        MotionDataset(np.array([0.0, np.inf]), np.zeros((2, 2)), 50.0)


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
    with pytest.raises(IngestionError, match="missing samples"):
        ingest_log(times[kept], joints[kept], 50.0)
    shuffled = times.copy()
    shuffled[3], shuffled[4] = shuffled[4], shuffled[3]
    with pytest.raises(FormatError, match="sorted"):
        ingest_log(shuffled, joints, 50.0)
    with pytest.raises(IngestionError, match="off the"):
        ingest_log(times + np.linspace(0, 0.008, 10), joints, 50.0)
    with pytest.raises(ValidationError, match="finite"):
        ingest_log(times, np.full((10, 1), np.inf), 50.0)
    with pytest.raises(IngestionError, match="finite"):
        ingest_log(np.append(times[:-1], np.inf), joints, 50.0)
    for tail in (-1, 10**19):
        with pytest.raises(ValidationError, match="tail must be 0 to"):
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
    ds = MotionDataset(times, targets, 50.0, periodic=True)
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
    for a, b in zip(m1.network.layers, m2.network.layers):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)


# SHA-256 of the files a seeded run saves, computed at the commit before
# the flat parameter vector (per-tensor Adam loop, unfused layers); the
# flat vector and the fused Adam update must reproduce them bit for bit.
GUARD_DIGESTS = {
    "training_log.csv": "1cefecef3f6da4a3306e504ac0d921b3e46aee3e4a3d0bb861865e588f699bb8",
    "weights.txt": "99cfe1da792ac805363809409113c2af16e329fa0cf8c0fb563bf6b63083ac47",
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
    for name, digest in GUARD_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    assert len(updated) == sched.total_epochs
    (theta,) = updated[0]
    assert theta is model.network.params
    assert theta.size == sum(layer.weights.size + layer.biases.size
                             for layer in model.network.layers)
    for layer in model.network.layers:
        assert np.shares_memory(layer.weights, theta)
        assert np.shares_memory(layer.biases, theta)


def test_divergence_names_the_first_nonfinite_gradient(monkeypatch):
    real_pass = motionmimic.trainer.forward_backward
    passes = []

    def poisoned_pass(net, x, y):  # finite loss, non-finite gradients from epoch 3 on
        loss, pred, grads = real_pass(net, x, y)
        passes.append(loss)
        if len(passes) > 3:
            grads.biases[2][0] = np.inf
            grads.weights[1][3, 4] = np.nan
        return loss, pred, grads

    monkeypatch.setattr(motionmimic.trainer, "forward_backward", poisoned_pass)
    ds = sample_movement(one_second_movement(), 50.0)
    with pytest.raises(DivergenceError, match="non-finite gradient in layer1.weights") as err:
        train(ds, schedule=TrainingSchedule([(5, 0.001)]), seed=0)
    assert "last finite epoch 2" in str(err.value)
    assert len(err.value.log) == 3


def test_desk_scale_fit_reaches_mae_bound(desk_fit):
    _, dataset, model, _ = desk_fit
    rep = evaluate(model, dataset)
    assert rep.mae <= 0.018
    assert rep.end_time_error <= 1


def test_train_rejects_wrong_output_size():
    ds = sample_movement(one_second_movement(), 50.0)
    with pytest.raises(ShapeError, match="output size"):
        train(ds, arch=[1, 8, 5], schedule=TrainingSchedule([(10, 0.001)]))


def test_train_divergence_reports_last_finite_epoch():
    # Adam updates are bounded by the learning rate, so the rate must be
    # absurd enough to push the layer product past float range
    ds = sample_movement(one_second_movement(), 50.0)
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        train(ds, schedule=TrainingSchedule([(500, 1e51)]), seed=0)
    assert err.value.last_epoch is not None
    assert err.value.log is not None
    assert len(err.value.log) == err.value.last_epoch + 1
    assert np.all(np.isfinite(err.value.log.mses))
    assert "last finite epoch" in str(err.value)


def test_log_structure(desk_fit):
    _, _, _, log = desk_fit
    sched = desk_schedule()
    assert len(log) == sched.total_epochs
    np.testing.assert_array_equal(log.epochs, np.arange(sched.total_epochs))
    np.testing.assert_array_equal(log.lrs, sched.epoch_lrs())
    np.testing.assert_array_equal(log.phases, sched.epoch_phases())
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
    sched = desk_schedule()
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
        lambda: ingest_log([0.0, 0.02], [0.0, 1.0], rate),
        lambda: rollout(zero_model(1), rate),
        lambda: MotionDataset([0.0, 0.02], np.zeros((2, 2)), rate),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="rate must be positive and finite"):
            call()


@pytest.mark.parametrize("field", ["duration", "rate"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_trained_model_rejects_bad_duration_and_rate(field, value):
    kwargs = {field: value}
    with pytest.raises(ValidationError, match="must be positive and finite"):
        zero_model(2, **kwargs)


def test_evaluate_perfect_predictions():
    ds = sample_movement(one_second_movement(), 50.0)
    rep = evaluate_predictions(ds.targets, ds)
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
    with pytest.raises(ShapeError):
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


def test_dataset_csv_round_trip(tmp_path):
    ds = sample_movement(one_second_movement(), 50.0)
    text = format_dataset(ds)
    again = parse_dataset(text)
    assert format_dataset(again) == text
    np.testing.assert_array_equal(again.times, ds.times)
    np.testing.assert_array_equal(again.targets, ds.targets)
    assert again.sample_rate == ds.sample_rate
    assert again.joint_names == ds.joint_names
    assert again.periodic == ds.periodic

    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    assert format_dataset(load_dataset(path)) == text


def test_dataset_csv_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_dataset("bogus\n1,2\n")
    good = format_dataset(sample_movement(one_second_movement(), 50.0))
    broken = good.splitlines()
    broken[3] = broken[3] + ",0.5"
    with pytest.raises(FormatError, match="line 4"):
        parse_dataset("\n".join(broken))


def test_training_log_csv_round_trip(tmp_path, desk_fit):
    _, _, _, log = desk_fit
    path = tmp_path / "log.csv"
    save_log(log, path)
    again = load_log(path)
    np.testing.assert_array_equal(again.epochs, log.epochs)
    np.testing.assert_array_equal(again.phases, log.phases)
    np.testing.assert_array_equal(again.lrs, log.lrs)
    np.testing.assert_array_equal(again.mses, log.mses)
    np.testing.assert_array_equal(again.maes, log.maes)
    assert format_log(again) == format_log(log)


def test_model_bundle_round_trip(tmp_path, desk_fit):
    _, _, model, _ = desk_fit
    save_model(model, tmp_path / "bundle")
    again = load_model(tmp_path / "bundle")
    assert again.name == model.name
    assert again.n_joints == model.n_joints
    assert again.duration == model.duration
    assert again.sample_rate == model.sample_rate
    assert again.time_offset == model.time_offset
    assert again.time_scale == model.time_scale
    assert again.periodic == model.periodic
    for a, b in zip(again.network.layers, model.network.layers):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
    probe = np.array([0.0, 0.4, 1.1])
    np.testing.assert_array_equal(again.predict(probe), model.predict(probe))
