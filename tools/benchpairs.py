"""Run the benchmark in alternating parent/change pairs and keep every run in one file.

Usage:
    python3 tools/benchpairs.py --parent DIR --change DIR --workload W --seed S \\
        --pairs N [--trace 0|1] --out BENCH_9.json

DIR is a source checkout.  Each run is the benchmark command of
BENCHMARK.json (python3 bench/run.py) with --seconds run_seconds, started
in that checkout; the side that runs first alternates from pair to pair.
Runs are appended to --out (created on first use, laid out like
BENCH_8.json) as soon as each finishes, with the harness's last two
stdout lines as `record` and `result`.  The `summary` is rebuilt from
every untraced run in the file: per workload, seed and end-to-end metric,
each side's median and quartiles, the pairs the change won and the ties.
Entries for op_ref_s also give each side's median wall-clock op time
(record.wall.op_p50_s), since reference-second scaling can move the two
apart.  Each entry is judged twice:

- gain_claimable: at least 10 pairs, the change won at least 9 in 10 of
  them (a tie counts for neither side), and its median is better than
  the parent's by more than the parent's interquartile range;
- within_bound: the change's median is worse than the parent's by no
  more than the metric's relative bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout, spec, workload, seed, trace):
    """(record, result) of one benchmark run in checkout."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(record_line.removeprefix("record ")), json.loads(result_line)


def commit_of(checkout):
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def quartiles(values):
    """(q1, median, q3) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, metrics):
    """One entry per workload, seed and end-to-end metric over the untraced pairs."""
    groups = {}
    for run in runs:
        if run["trace"] == 0:
            key = (run["workload"], run["seed"])
            groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = []
    for (workload, seed), pairs in groups.items():
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not pairs:
            continue
        for metric in metrics:
            lower = metric["better"] == "lower"
            name = metric["name"]
            value = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                     for side in SIDES}
            diffs = [c - p for p, c in zip(value["parent"], value["change"])]
            entry = {"workload": workload, "seed": seed, "metric": name, "pairs": len(pairs),
                     "change_wins": sum(d < 0 if lower else d > 0 for d in diffs),
                     "ties": sum(d == 0 for d in diffs)}
            for side in SIDES:
                q1, median, q3 = quartiles(value[side])
                entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
            entry["change_vs_parent"] = entry["change_median"] / entry["parent_median"] - 1.0
            gain = entry["parent_median"] - entry["change_median"]
            entry["gain_claimable"] = (
                len(pairs) >= 10 and 10 * entry["change_wins"] >= 9 * len(pairs)
                and (gain if lower else -gain) > entry["parent_q3"] - entry["parent_q1"])
            entry["within_bound"] = (entry["change_vs_parent"] <= metric["bound"] if lower
                                     else entry["change_vs_parent"] >= -metric["bound"])
            if name == "op_ref_s":
                for side in SIDES:
                    entry[f"{side}_op_s_median"] = statistics.median(
                        p[side]["record"]["wall"]["op_p50_s"] for p in pairs)
                entry["op_s_change_vs_parent"] = (
                    entry["change_op_s_median"] / entry["parent_op_s_median"] - 1.0)
            summary.append(entry)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    if args.out.exists():
        bench = json.loads(args.out.read_text())
    else:
        bench = {"description": "Alternating parent/change pairs of the benchmark command "
                                "(python3 bench/run.py --workload W --seed S --seconds "
                                f"{spec['run_seconds']} --trace T), each side run from its own "
                                "checkout. `first` names the side that ran first in its pair. "
                                "`record` and `result` are the harness's last two stdout lines.",
                 "parent_commit": commit_of(checkouts["parent"]), "summary": [], "runs": []}
    same = [r for r in bench["runs"] if (r["workload"], r["seed"], r["trace"])
            == (args.workload, args.seed, args.trace)]
    start = 1 + max((r["pair"] for r in same), default=-1)
    for pair in range(start, start + args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            record, result = run_once(checkouts[side], spec, args.workload, args.seed, args.trace)
            bench["runs"].append({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "pair": pair, "side": side,
                                  "first": order[0], "record": record, "result": result})
            bench["summary"] = summarize(bench["runs"], spec["end_to_end"])
            args.out.write_text(json.dumps(bench, indent=1) + "\n")
            print(f"pair {pair} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
