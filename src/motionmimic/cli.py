"""Command-line pipeline: movement files -> datasets -> trained networks.

Subcommands mirror the toolkit stages: gen samples a movement into a
dataset, ingest regularizes an external joint log, train fits the
network, eval/rollout/simulate/compare inspect the result.  Exit codes:
0 success, 2 input or validation error, 3 numerical failure.
"""

import argparse
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, DivergenceError, MimicError
# validate_movement is not called here; bench/tracing.py looks it up on this module
from .motion import load_movement, validate_movement
from .optimizer import SCHEDULE_PRESETS, load_schedule
from .plant import PlantConfig, save_comparison, simulate
from .textio import fmt, format_record
from .trainer import (
    default_joint_names,
    evaluate,
    evaluate_predictions,
    ingest_log,
    load_dataset,
    load_joint_log,
    load_model,
    rollout,
    sample_movement,
    save_dataset,
    save_log,
    save_model,
    save_rollout,
    train,
)

log = logging.getLogger("motionmimic")


def _parse_arch(text):
    try:
        sizes = [int(p) for p in text.split(":")]
    except ValueError:
        raise ConfigError(f"arch must look like 1:75:50:23, got '{text}'") from None
    if len(sizes) < 2:
        raise ConfigError("arch needs at least an input and an output size")
    return sizes


def _load_schedule_arg(spec):
    if spec in SCHEDULE_PRESETS:
        return SCHEDULE_PRESETS[spec]()
    if Path(spec).exists():
        return load_schedule(spec)
    raise ConfigError(
        f"unknown schedule '{spec}': expected one of {sorted(SCHEDULE_PRESETS)} or a file"
    )


def _plant_config(args):
    return PlantConfig(kp=args.kp, max_speed=args.max_speed, tick_rate=args.tick_rate)


def cmd_gen(args) -> int:
    ds = sample_movement(load_movement(args.movement), args.rate, tail=args.tail)
    save_dataset(ds, args.out)
    log.info("wrote %s", args.out)
    print(f"{len(ds.times)} samples at {fmt(args.rate)} Hz -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    times, joints, names = load_joint_log(args.log)
    ds = ingest_log(times, joints, args.rate, periodic=args.periodic, tail=args.tail,
                    joint_names=names, name=Path(args.log).stem)
    save_dataset(ds, args.out)
    kind = "periodic" if ds.periodic else "finite"
    print(f"{len(ds.times)} samples ({kind}) at {fmt(args.rate)} Hz -> {args.out}")
    return 0


def cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    arch = _parse_arch(args.arch) if args.arch else None
    schedule = _load_schedule_arg(args.schedule)
    out = Path(args.out)
    try:
        model, tlog = train(ds, arch=arch, schedule=schedule, seed=args.seed, alpha=args.alpha)
    except DivergenceError as err:
        if err.log is not None and len(err.log):
            out.mkdir(parents=True, exist_ok=True)
            save_log(err.log, out / "training_log.csv")
        raise
    save_model(model, out)
    save_log(tlog, out / "training_log.csv")
    rep = evaluate(model, ds)
    print(
        f"trained {len(tlog)} epochs on {len(ds.times)} samples: "
        f"final mse={rep.mse:.6g} mae={rep.mae:.6g} rad -> {out}"
    )
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.dataset)
    rep = evaluate(model, ds)
    print(f"mse={rep.mse:.6g}")
    print(f"mae={rep.mae:.6g} rad")
    for name, v in zip(ds.joint_names, rep.per_joint_mae):
        print(f"mae[{name}]={v:.6g} rad")
    print(f"end_time_error={rep.end_time_error} samples")
    return 0


def cmd_rollout(args) -> int:
    model = load_model(args.model)
    rate = args.rate if args.rate is not None else model.sample_rate
    ro = rollout(model, rate)
    save_rollout(ro, default_joint_names(model.n_joints), args.out)
    status = "end detected" if ro.end_detected else "no end detected (capped)"
    print(f"{len(ro.times)} samples at {fmt(rate)} Hz, {status} -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    source = load_model(args.model) if args.model else load_movement(args.movement)
    cfg = _plant_config(args)
    result = simulate(source, cfg)
    names = default_joint_names(result.desired.shape[1])
    save_comparison(result, names, args.out)
    flag = " (attenuated)" if result.report.attenuated else ""
    print(
        f"{len(result.times)} ticks at {fmt(cfg.tick_rate)} Hz: "
        f"tracking rms={result.report.overall_rms:.6g} rad{flag} -> {args.out}"
    )
    return 0


def cmd_compare(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.self_test:
        rep = evaluate_predictions(ds.targets, ds)
    else:
        rep = evaluate(model, ds)
    save_rollout(rollout(model, ds.sample_rate), ds.joint_names, out / "rollout.csv")

    result = simulate(model, _plant_config(args))
    save_comparison(result, ds.joint_names, out / "tracking.csv")

    metrics = [("mse=<float>", rep.mse), ("mae=<float>", rep.mae),
               ("end_time_error=<int>", rep.end_time_error),
               ("tracking_rms=<float>", result.report.overall_rms),
               ("attenuated=<true|false>", result.report.attenuated)]
    (out / "metrics.txt").write_text("".join(format_record(*m) + "\n" for m in metrics))
    print(f"mae={rep.mae:.6g} rad")
    print(f"end_time_error={rep.end_time_error} samples")
    print(f"tracking_rms={result.report.overall_rms:.6g} rad")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionmimic",
        description="Sample keyframe movements, train a mimicking network, and inspect it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a movement file into a dataset CSV")
    p.add_argument("--movement", required=True)
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--tail", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="regularize an external joint log into a dataset CSV")
    p.add_argument("--log", required=True)
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--tail", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit a network to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--arch", default=None, help="layer sizes like 1:75:50:23")
    p.add_argument("--schedule", default="desk", help="preset name or schedule file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--out", required=True, help="output directory for the model bundle")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained model against a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rollout", help="sweep a model until its end flag crosses 0.5")
    p.add_argument("--model", required=True)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("simulate", help="play a source through the joint plant")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model")
    src.add_argument("--movement")
    p.add_argument("--kp", type=float, default=25.0)
    p.add_argument("--max-speed", type=float, default=7.0, dest="max_speed")
    p.add_argument("--tick-rate", type=float, default=50.0, dest="tick_rate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="evaluate, roll out, and track a model vs its dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kp", type=float, default=25.0)
    p.add_argument("--max-speed", type=float, default=7.0, dest="max_speed")
    p.add_argument("--tick-rate", type=float, default=50.0, dest="tick_rate")
    p.add_argument("--self-test", action="store_true", dest="self_test",
                   help="replay the dataset as the model output (round-trip check)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)
    return parser


def _configure_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("MIMIC_LOG", "").lower(), logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MimicError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
