"""Command-line pipeline: movement files -> datasets -> trained networks.

Subcommands mirror the toolkit stages: gen samples a movement into a
dataset, ingest regularizes an external joint log, train fits the
network, eval/rollout/simulate/compare inspect the result.  Exit codes:
0 success, 2 input or validation error, 3 numerical failure.
"""

import argparse
import functools
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DivergenceError, MimicError
# validate_movement is not called here; bench/tracing.py looks it up on this module
from .motion import load_movement, validate_movement
from .optimizer import SCHEDULE_PRESETS, TrainingSchedule, load_schedule
from .plant import PlantConfig, save_comparison, simulate
from .textio import fmt, format_record, write_text
from .trainer import (
    DEFAULT_TAIL,
    default_joint_names,
    evaluate,
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


def _info(message):
    """Print message as an INFO line on the current stderr when MIMIC_LOG is info or debug."""
    if os.environ.get("MIMIC_LOG", "").lower() in ("info", "debug"):
        print(f"INFO motionmimic: {message}", file=sys.stderr, flush=True)


def _parse_arch(text):
    try:
        sizes = [int(p) for p in text.split(":")]
    except ValueError:
        raise MimicError(f"arch must look like 1:75:50:23, got '{text}'") from None
    return sizes  # train refuses sizes no net or model can take


def _load_schedule_arg(spec):
    if spec in SCHEDULE_PRESETS:
        return TrainingSchedule(SCHEDULE_PRESETS[spec])
    if Path(spec).exists():
        return load_schedule(spec)
    raise MimicError(
        f"unknown schedule '{spec}': expected one of {sorted(SCHEDULE_PRESETS)} or a file"
    )


def _plant_config(args):
    return PlantConfig(**{f.name: getattr(args, f.name) for f in fields(PlantConfig)})


def cmd_gen(args) -> int:
    ds = sample_movement(load_movement(args.movement), args.rate, tail=args.tail)
    save_dataset(ds, args.out)
    _info(f"wrote {args.out}")
    print(f"{len(ds.times)} samples at {fmt(args.rate)} Hz -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    times, joints, names = load_joint_log(args.log)
    ds = ingest_log(times, joints, args.rate, periodic=args.periodic, tail=args.tail,
                    joint_names=names)
    save_dataset(ds, args.out)
    kind = "periodic" if ds.periodic else "finite"
    print(f"{len(ds.times)} samples ({kind}) at {fmt(args.rate)} Hz -> {args.out}")
    return 0


def cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    arch = _parse_arch(args.arch) if args.arch else None
    schedule = _load_schedule_arg(args.schedule)
    out = Path(args.out)
    # the bundle directory is made after training: a file in its way is refused before it
    for part in (out, *out.parents):
        if part.exists() and not part.is_dir():
            raise MimicError(f"--out {out}: {part} exists and is not a directory")
    try:
        model, tlog = train(ds, arch=arch, schedule=schedule, seed=args.seed, alpha=args.alpha)
    except DivergenceError as err:
        if len(err.log):
            out.mkdir(parents=True, exist_ok=True)
            save_log(err.log, out / "training_log.csv")
        raise
    rep = evaluate(model, ds)  # before any file is written, so a refused model leaves none
    save_model(model, out)
    save_log(tlog, out / "training_log.csv")
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
    flag = " (attenuated)" if result.attenuated else ""
    print(
        f"{len(result.times)} ticks at {fmt(cfg.tick_rate)} Hz: "
        f"tracking rms={result.overall_rms:.6g} rad{flag} -> {args.out}"
    )
    return 0


def cmd_compare(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.dataset)
    rep = evaluate(model, ds)
    ro = rollout(model, ds.sample_rate)
    result = simulate(model, _plant_config(args))

    out = Path(args.out)  # created once every result is in hand, so a refusal leaves nothing
    out.mkdir(parents=True, exist_ok=True)
    save_rollout(ro, ds.joint_names, out / "rollout.csv")
    save_comparison(result, ds.joint_names, out / "tracking.csv")

    metrics = [("mse=<float>", rep.mse), ("mae=<float>", rep.mae),
               ("end_time_error=<int>", rep.end_time_error),
               ("tracking_rms=<float>", result.overall_rms),
               ("attenuated=<true|false>", result.attenuated)]
    write_text(out / "metrics.txt", "".join(format_record(*m) + "\n" for m in metrics))
    print(f"mae={rep.mae:.6g} rad")
    print(f"end_time_error={rep.end_time_error} samples")
    print(f"tracking_rms={result.overall_rms:.6g} rad")
    return 0


@functools.cache  # built on the first call, so importing the module stays cheap
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionmimic",
        description="Sample keyframe movements, train a mimicking network, and inspect it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    plant = argparse.ArgumentParser(add_help=False)  # --kp, --max-speed, --tick-rate
    for f in fields(PlantConfig):
        plant.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)

    p = sub.add_parser("gen", help="sample a movement file into a dataset CSV")
    p.add_argument("--movement", required=True)
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--tail", type=int, default=DEFAULT_TAIL)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", help="regularize an external joint log into a dataset CSV")
    p.add_argument("--log", required=True)
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--tail", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fit a network to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--arch", default=None, help="layer sizes like 1:75:50:23")
    p.add_argument("--schedule", default="desk", help="preset name or schedule file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--out", required=True, help="output directory for the model bundle")

    p = sub.add_parser("eval", help="score a trained model against a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("rollout", help="sweep a model until its end flag crosses 0.5")
    p.add_argument("--model", required=True)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", parents=[plant], help="play a source through the joint plant")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model")
    src.add_argument("--movement")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", parents=[plant],
                       help="evaluate, roll out, and track a model vs its dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # a text file over bytes, not a StringIO capture
        # a name or path byte that is not UTF-8 is printed as itself, as the files hold it
        sys.stdout.reconfigure(errors="surrogateescape")
    args = build_parser().parse_args(argv)
    try:
        # looked up per call: a cached parser must not pin the stage functions
        return globals()[f"cmd_{args.command}"](args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (MimicError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
