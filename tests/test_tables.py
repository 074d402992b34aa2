"""The five CSV kinds share one reader and one writer: round trips, byte identity
with the row-template writer, bounded memory and a mutation fuzz."""

import math
import random
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.motion import KeyframeMovement
from motionmimic.optimizer import TrainingSchedule
from motionmimic.plant import PlantConfig, format_comparison, simulate
from motionmimic.textio import format_table, parse_table
from motionmimic.trainer import (
    format_dataset,
    format_log,
    ingest_log,
    load_joint_log,
    load_log,
    parse_dataset,
    rollout,
    sample_movement,
    save_log,
    save_rollout,
    train,
)

from oracles import format_table_rows, parse_table_rows

ROLLOUT_HEADER = "time,<joint names...>,end_flag"
TRACKING_HEADER = "time,<joint columns...>"
BAD_TOKENS = ("nan", "inf", "-inf", "1e400", "")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Each CSV kind as the program writes it."""
    tmp = tmp_path_factory.mktemp("tables")
    movement = KeyframeMovement([0.0, 0.37, 1.013], [[0.0, 0.3], [0.8, -0.4], [0.1, 0.2]])
    ds = sample_movement(movement, 50.0)
    model, log = train(ds, arch=[1, 8, 3], schedule=TrainingSchedule([(20, 1e-2), (10, 5e-3)]))
    save_log(log, tmp / "log.csv")
    save_rollout(rollout(model, 50.0), ds.joint_names, tmp / "rollout.csv")
    rng = np.random.default_rng(5)
    times = np.delete(np.arange(40) / 50.0, [7, 21])
    joint_log = np.column_stack([times, rng.uniform(-1, 1, (len(times), 3))])
    return {
        "dataset": format_dataset(ds),
        "joint log": format_table(["time", "hip", "knee", "ankle"], joint_log),
        "training log": (tmp / "log.csv").read_text(),
        "rollout": (tmp / "rollout.csv").read_text(),
        "tracking": format_comparison(simulate(model, PlantConfig()), ds.joint_names),
    }


def readers(tmp_path):
    """kind -> (read text the way the program does, write the result back as text)."""

    def from_file(load):
        def read(text):
            path = tmp_path / "table.csv"
            path.write_text(text)
            return load(path)
        return read

    def table(header):
        return lambda text: parse_table(text, header)

    def retable(head, tail=()):
        return lambda parsed: format_table([*head, *parsed[0], *tail], parsed[1])

    def rejoint(loaded):
        times, joints, names = loaded
        return format_table(["time", *names], np.column_stack([times, joints]))

    return {
        "dataset": (parse_dataset, format_dataset),
        "joint log": (from_file(load_joint_log), rejoint),
        "training log": (from_file(load_log), format_log),
        "rollout": (table(ROLLOUT_HEADER), retable(["time"], ["end_flag"])),
        "tracking": (table(TRACKING_HEADER), retable(["time"])),
    }


KINDS = ("dataset", "joint log", "training log", "rollout", "tracking")


@pytest.mark.parametrize("kind", KINDS)
def test_format_parse_format_is_byte_identical(kind, written, tmp_path):
    read, write = readers(tmp_path)[kind]
    text = written[kind]
    assert write(read(text)) == text


@pytest.mark.parametrize("header", [["time", "a"], ["time", "a", "b", "c"]],
                         ids=["narrower", "wider"])
def test_format_table_header_must_match_columns(header):
    with pytest.raises(MimicError, match=f"{len(header)} column names for a table of shape"):
        format_table(header, np.zeros((2, 3)))


def test_format_table_refuses_a_table_without_columns():
    with pytest.raises(MimicError, match=r"a table of shape \(3, 0\) has no columns"):
        format_table([], np.empty((3, 0)))


@pytest.mark.parametrize("text", ["", "\n\n\n\n", "  \n\t\n"], ids=["empty", "newlines", "blanks"])
@pytest.mark.parametrize("header", ["", "time,a", "time,<names...>"])
def test_parse_table_without_lines_names_line_1(text, header):
    with pytest.raises(MimicError, match="^line 1: expected header"):
        parse_table(text, header)


# --- byte identity with the row-template writer ------------------------------


def assert_same_bytes(table):
    """format_table writes table exactly as the oracle does, under every warning check."""
    table = np.asarray(table, dtype=float)
    header = [f"c{i}" for i in range(table.shape[1])]
    with np.errstate(all="raise"):
        got = format_table(header, table)
    want = format_table_rows(header, table)
    if got != want:  # name the first cell that differs, not two megabytes of text
        for no, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))):
            cells = [(a, b) for a, b in zip(g.split(","), w.split(",")) if a != b]
            assert g == w, f"line {no}: first differing cells (got, want) {cells[:3]}"
    assert got == want


def around(values, steps=3):
    """values with their nearest neighbours on either side, both signs."""
    values = np.asarray(values, dtype=float)
    out = [values]
    for toward in (0.0, np.inf):
        near = values
        for _ in range(steps):
            near = np.nextafter(near, toward)
            out.append(near)
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def test_writer_matches_row_template_on_random_bit_patterns():
    """A million seeded 64-bit patterns: subnormals, zeros, infinities and nans included."""
    bits = np.random.default_rng(2019).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    table = bits.view(np.float64).reshape(-1, 40)
    table[0, :6] = [0.0, -0.0, np.inf, -np.inf, 5e-324, -1.7976931348623157e308]
    assert_same_bytes(table)


def test_writer_matches_row_template_at_powers_of_ten():
    assert_same_bytes(around([float(f"1e{i}") for i in range(-8, 19)], steps=1).reshape(-1, 1))


def test_writer_matches_row_template_where_the_layout_changes():
    """Either side of 1e-5 (the e-05 form), 1e-4 (0.000...), 1e15, 1e16 and 1e17."""
    assert_same_bytes(around([1e-5, 1e-4, 1e15, 1e16, 1e17], steps=40).reshape(-1, 5))


def test_writer_matches_row_template_on_ties():
    """m * 2**-j with 18 significant digits, the last a 5: exact halves at 17 digits."""
    rng = np.random.default_rng(7)
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        ties += [math.ldexp(int(m) | 1, -j) for m in rng.integers(lo, hi - 1, 200)]
    assert all(Decimal(t).as_tuple().digits[17:] == (5,) for t in ties)
    assert_same_bytes(np.array(ties).reshape(-1, 8))


def with_trailing_zeros(zeros, exponent, rng, tries=40):
    """A double whose 17 significant digits, the first worth 10**exponent, end in
    exactly zeros zeros; None if tries draws find none."""
    for _ in range(tries):
        digits = int(rng.integers(10 ** (16 - zeros), 10 ** (17 - zeros)))
        digits += int(rng.integers(1, 10)) - digits % 10  # the last digit is not a zero
        x = float(f"{digits}e{exponent + zeros - 16}")
        mantissa, _, power = ("%.16e" % x).partition("e")
        written = mantissa.replace(".", "")
        if int(power) == exponent and len(written) - len(written.rstrip("0")) == zeros:
            return x
    return None


def test_writer_matches_row_template_for_every_count_of_trailing_zeros():
    """0..16 trailing zeros end a digit group, or fall anywhere inside one.

    The double nearest a short digit string need not write it back at 17
    digits, so each count is drawn at every exponent and kept where found.
    """
    rng = np.random.default_rng(16)
    cells = {zeros: [x for exponent in range(-5, 15)
                     if (x := with_trailing_zeros(zeros, exponent, rng)) is not None]
             for zeros in range(17)}
    assert all(len(found) >= 2 for found in cells.values())
    column = np.concatenate([found for found in cells.values()])
    assert_same_bytes(np.column_stack([column, -column, column[::-1]]))


@pytest.mark.parametrize("kind", KINDS)
def test_writer_matches_row_template_on_written_tables(kind, written):
    names, table = parse_table(written[kind], "<all columns>")
    assert format_table(names, table) == format_table_rows(names, table) == written[kind]


@pytest.mark.parametrize("shape", [(0, 3), (1, 5), (700, 1), (5000, 3), (61, 45)],
                         ids=["no rows", "one row", "one column", "many blocks", "wide"])
def test_writer_matches_row_template_on_every_shape(shape):
    rng = np.random.default_rng(shape)
    assert_same_bytes(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 16, shape))


@pytest.mark.parametrize("shape", [(501, 45), (511, 24), (1500, 45)])
def test_writer_peak_memory_stays_near_the_row_template(shape):
    """The block temporaries add at most 512 KB to the row writer's traced peak."""
    table = np.random.default_rng(1).standard_normal(shape)
    header = [f"c{i}" for i in range(shape[1])]

    def peak(write):
        tracemalloc.start()
        try:
            write(header, table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(format_table) <= peak(format_table_rows) + 512 * 1024


# --- the reader converts a block of lines at a time ------------------------


def three_blocks():
    """The lines of a 3-column CSV text of more than three blocks, and the lines in a block."""
    rows = 2048 // 3
    table = np.random.default_rng(3).standard_normal((3 * rows + 5, 3))
    return format_table(["c0", "c1", "c2"], table).splitlines(), rows


@pytest.mark.parametrize("where", ["first line", "last of a block", "first of the next block",
                                   "last line"])
@pytest.mark.parametrize("fault", ["bad field", "short line"])
def test_reader_names_the_bad_line_in_any_block(where, fault):
    lines, rows = three_blocks()
    row = {"first line": 0, "last of a block": rows - 1, "first of the next block": rows,
           "last line": len(lines) - 2}[where]
    cells = lines[1 + row].split(",")
    lines[1 + row] = ",".join(cells[:2] + ["x"] if fault == "bad field" else cells[:2])
    lines.insert(1 + row // 2, "")  # a blank line still counts in the line numbers
    message = ("c2 is not a number: 'x'" if fault == "bad field"
               else "expected 3 fields, found 2")
    with pytest.raises(MimicError, match=f"^line {row + 3}: {message}$"):
        parse_table("\n".join(lines) + "\n", "c0,c1,c2")


@pytest.mark.parametrize("later", ["same block", "next block"])
def test_reader_names_a_short_line_before_a_later_bad_number(later):
    lines, rows = three_blocks()
    short = rows - 2
    bad = short + (1 if later == "same block" else rows)
    cells = lines[1 + bad].split(",")
    lines[1 + bad] = ",".join([cells[0], "nan_", cells[2]])
    lines[1 + short] = lines[1 + short].rsplit(",", 1)[0]
    with pytest.raises(MimicError, match=f"^line {short + 2}: expected 3 fields, found 2$"):
        parse_table("\n".join(lines) + "\n", "c0,c1,c2")
    lines[1 + short] += ",0"
    with pytest.raises(MimicError, match=f"^line {bad + 2}: c1 is not a number: 'nan_'$"):
        parse_table("\n".join(lines) + "\n", "c0,c1,c2")


@pytest.mark.parametrize("shape", [(501, 45), (1500, 24), (5000, 3)])
def test_reader_peak_memory_stays_near_the_line_reader(shape):
    """The blocks of lines add at most 512 KB to the line-by-line reader's traced peak."""
    text = format_table([f"c{i}" for i in range(shape[1])],
                        np.random.default_rng(2).standard_normal(shape))

    def peak(read):
        tracemalloc.start()
        try:
            names, table = read(text)
            return tracemalloc.get_traced_memory()[1], names, table
        finally:
            tracemalloc.stop()

    peak_blocks, *got = peak(lambda text: parse_table(text, "<names>"))
    peak_lines, *want = peak(parse_table_rows)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert peak_blocks <= peak_lines + 512 * 1024


def mutate(text, rng):
    """Truncate a line or the text, drop or duplicate a field, or swap in a bad token."""
    lines = text.splitlines() or [""]
    i = 0 if rng.random() < 0.2 else rng.randrange(len(lines))
    fields = lines[i].split(",")
    j = rng.randrange(len(fields))
    op = rng.randrange(5)
    if op == 0:
        return text[: rng.randrange(len(text) + 1)]
    if op == 1:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        if op == 2:
            del fields[j]
        elif op == 3:
            fields.insert(j, fields[j])
        else:
            fields[j] = rng.choice(BAD_TOKENS)
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", KINDS)
def test_mutated_tables_load_or_raise_mimic_error(kind, written, tmp_path):
    read, write = readers(tmp_path)[kind]
    rng = random.Random(f"fuzz {kind}")
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(200):
        text = written[kind]
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        with np.errstate(all="raise"):
            try:
                loaded = read(text)
                if kind == "joint log":
                    ingest_log(loaded[0], loaded[1], 50.0, joint_names=loaded[2])
            except MimicError:
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
                cells = [c for ln in write(loaded).splitlines()[1:] for c in ln.split(",")]
                assert all(math.isfinite(float(c)) for c in cells)
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0
