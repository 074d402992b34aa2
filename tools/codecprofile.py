"""Time the number paths of the text codec on the benchmark's file shapes.

Usage: python3 tools/codecprofile.py [--repeats K]

The codec is textio: write_table streams every CSV file to disk a block
of rows at a time and save_weights streams weights.txt the same way;
parse_table reads every CSV file and load_weights reads weights.txt, each
taking the file's lines from read_lines, which reads it through Python's
universal-newline text reader a buffer at a time.
Every part is called as the program calls it, on a file in a temporary
directory.  Before timing, it checks each path against a reference that
works one number at a time: the bytes write_table streams against one
'%.17g,...' % row template per line, the number rows save_weights streams
against '%.17g' % value for each number, and what parse_table and
load_weights read against float() on each field of the file, bit for bit.
It then prints the median and quartiles over K calls of each part, and
the part's tracemalloc peak over one more call:

- write_table RxC and parse_table RxC: a seeded table of R rows and C
  columns, a time column at 50 Hz then angles, shaped as the benchmark's
  files (511x24 and 501x45 for gensim22, 1500x24 and 3000x45 for
  walk1500), written to a file and read from it;
- write_table 1x45: one row, the fixed cost of a file and a block of
  rows; timed between the large parts, it includes what cold caches add;
- save_weights 1:75:50:23 and load_weights 1:75:50:23: the reference
  net's weights.txt.

Each writer call writes a new file, as a command does; deleting the last
call's file is not timed.

The first line gives the numpy version and the CPU count.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motionmimic.network import initialize, load_weights, save_weights  # noqa: E402
from motionmimic.textio import parse_table, read_lines, write_table  # noqa: E402

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


def read_table(path):
    """(names, table) of the CSV file at path, read as the program reads one."""
    return parse_table(read_lines(path), "<names>")


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def checks_pass(net, directory):
    """Whether the codec's four number paths match the one-number-at-a-time references."""
    path = directory / "check.csv"
    for shape in [*SHAPES, (1, 45)]:
        header, table = bench_table(*shape)
        write_table(path, header, table)
        text = path.read_bytes().decode()
        fields = [[float(part) for part in line.split(",")] for line in text.splitlines()[1:]]
        names, parsed = read_table(path)
        if text != row_template(header, table) or names != header or not same_bits(parsed, fields):
            return False
    save_weights(net, directory / "weights.txt")
    numbers = [line for line in (directory / "weights.txt").read_bytes().decode().splitlines()[1:]
               if not line.startswith("layer ")]
    rows = [row for block in net.blocks for row in [*block[:-1].T, block[-1]]]
    fields = [float(part) for line in numbers for part in line.split()]
    loaded = load_weights(directory / "weights.txt")
    loaded_rows = [row for block in loaded.blocks for row in [*block[:-1].T, block[-1]]]
    return (numbers == [" ".join("%.17g" % v for v in row) for row in rows]
            and same_bits(np.concatenate(loaded_rows), fields))


def parts(net, directory):
    """(name, run, file) triples, one per timed call; file is what run writes, or None."""
    out = []
    for shape in SHAPES:
        header, table = bench_table(*shape)
        name = "x".join(map(str, shape))
        path = directory / f"{name}.csv"
        read = directory / f"read {name}.csv"  # the writer part replaces its own file
        write_table(read, header, table)
        out.append((f"write_table {name}", lambda p=path, h=header, t=table: write_table(p, h, t),
                    path))
        out.append((f"parse_table {name}", lambda p=read: read_table(p), None))
    header, table = bench_table(1, 45)
    path = directory / "1x45.csv"
    out.append(("write_table 1x45", lambda: write_table(path, header, table), path))
    weights, read = directory / "weights.txt", directory / "read weights.txt"
    save_weights(net, read)
    out.append((f"save_weights {':'.join(map(str, SIZES))}", lambda: save_weights(net, weights),
                weights))
    out.append((f"load_weights {':'.join(map(str, SIZES))}", lambda: load_weights(read), None))
    return out


def traced_peak(run):
    """The tracemalloc peak of one run() call, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    net = initialize(SIZES, seed=0)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        match = checks_pass(net, directory)
        timed = parts(net, directory)
        times = {name: [] for name, _, _ in timed}
        for _ in range(args.repeats):  # the parts take turns, so a slow spell hits each alike
            for name, run, written in timed:
                if written is not None:  # each call writes a new file, as a command does
                    written.unlink(missing_ok=True)
                start = time.perf_counter_ns()
                run()
                times[name].append((time.perf_counter_ns() - start) / 1e3)
        peaks = {name: traced_peak(run) for name, run, _ in timed}

    print(f"numpy {np.__version__}, {len(os.sched_getaffinity(0))} CPUs")
    print(f"{args.repeats} timed calls each; write_table, parse_table, save_weights and "
          f"load_weights match the one-number-at-a-time references: {'yes' if match else 'NO'}")
    print(f"{'part':<28}{'median_us':>12}{'q1_us':>12}{'q3_us':>12}{'peak_kb':>12}")
    for name, values in times.items():
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        print(f"{name:<28}{median:>12.1f}{q1:>12.1f}{q3:>12.1f}{peaks[name] / 1024:>12.1f}")
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
