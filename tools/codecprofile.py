"""Time the number paths of the text codec on the benchmark's file shapes.

Usage: python3 tools/codecprofile.py [--repeats K]

The codec is textio: format_table writes every CSV file, format_weights
(through format_numbers) writes weights.txt and parse_table reads every
CSV file.  Before timing, it checks each against a reference that
works one number at a time: format_table against one '%.17g,...' % row
template per line, format_weights against '%.17g' % value for each
number, and parse_table against float() on each field, bit for bit.
It then prints the median and quartiles over K calls of each part:

- format_table RxC and parse_table RxC: a seeded table of R rows and C
  columns, a time column at 50 Hz then angles, shaped as the benchmark's
  files (511x24 and 501x45 for gensim22, 1500x24 and 3000x45 for
  walk1500);
- format_table 1x45: one row, the fixed cost of a block of rows; timed
  between the large parts, it includes what cold caches add;
- format_weights 1:75:50:23: the reference net's weights.txt.

The first line gives the numpy version and the CPU count.
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motionmimic.network import format_weights, initialize  # noqa: E402
from motionmimic.textio import format_table, parse_table  # noqa: E402

SHAPES = [(511, 24), (501, 45), (1500, 24), (3000, 45)]
SIZES = [1, 75, 50, 23]


def bench_table(rows, columns, seed=0):
    """(header, table): time at 50 Hz, then angles in radians."""
    rng = np.random.default_rng(seed)
    table = np.column_stack([np.arange(rows) / 50.0, rng.uniform(-1.5, 1.5, (rows, columns - 1))])
    return ["time", *(f"j{i}" for i in range(1, columns))], table


def row_template(header, table):
    """The CSV text of one '%.17g,...' % row template per line."""
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [template % tuple(row) for row in table.tolist()]
    return "".join(line + "\n" for line in lines)


def checks_pass(net):
    """Whether the codec's three number paths match the one-number-at-a-time references."""
    for shape in [*SHAPES, (1, 45)]:
        header, table = bench_table(*shape)
        text = format_table(header, table)
        fields = [[float(part) for part in line.split(",")] for line in text.splitlines()[1:]]
        names, parsed = parse_table(text, "<names>")
        if (text != row_template(header, table) or names != header
                or not np.array_equal(parsed.view(np.uint64), np.array(fields).view(np.uint64))):
            return False
    numbers = [line for line in format_weights(net).splitlines()[1:]
               if not line.startswith("layer ")]
    rows = [row for w, b in zip(net.weights, net.biases) for row in [*w, b]]
    return numbers == [" ".join("%.17g" % v for v in row) for row in rows]


def parts(net):
    """(name, run) pairs, one per timed call."""
    out = []
    for shape in SHAPES:
        header, table = bench_table(*shape)
        text = format_table(header, table)
        name = "x".join(map(str, shape))
        out.append((f"format_table {name}", lambda h=header, t=table: format_table(h, t)))
        out.append((f"parse_table {name}", lambda s=text: parse_table(s, "<names>")))
    header, table = bench_table(1, 45)
    out.append(("format_table 1x45", lambda: format_table(header, table)))
    out.append((f"format_weights {':'.join(map(str, SIZES))}", lambda: format_weights(net)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    net = initialize(SIZES, seed=0)
    match = checks_pass(net)
    timed = parts(net)
    times = {name: [] for name, _ in timed}
    for _ in range(args.repeats):  # the parts take turns, so a slow spell hits each alike
        for name, run in timed:
            start = time.perf_counter_ns()
            run()
            times[name].append((time.perf_counter_ns() - start) / 1e3)

    print(f"numpy {np.__version__}, {len(os.sched_getaffinity(0))} CPUs")
    print(f"{args.repeats} timed calls each; format_table, parse_table and format_weights "
          f"match the one-number-at-a-time references: {'yes' if match else 'NO'}")
    print(f"{'part':<28}{'median_us':>12}{'q1_us':>12}{'q3_us':>12}")
    for name, values in times.items():
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        print(f"{name:<28}{median:>12.1f}{q1:>12.1f}{q3:>12.1f}")
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
