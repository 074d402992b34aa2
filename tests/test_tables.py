"""The five CSV kinds share one reader and one streamed writer: round trips, byte
identity with the row-template writer, refused writes, bounded memory and a
mutation fuzz."""

import io
import math
import random
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.motion import KeyframeMovement
from motionmimic.optimizer import TrainingSchedule
from motionmimic.plant import PlantConfig, SimulationResult, save_comparison, simulate
from motionmimic.textio import parse_table, read_lines, write_table
from motionmimic.trainer import (
    TrainingLog,
    ingest_log,
    load_dataset,
    load_joint_log,
    parse_dataset,
    rollout,
    sample_movement,
    save_dataset,
    save_log,
    save_rollout,
    train,
)

from oracles import (format_table_rows, parse_log, parse_table_rows, table_text, text_lines,
                     written)

ROLLOUT_HEADER = "time,<joint names...>,end_flag"
TRACKING_HEADER = "time,<joint columns...>"
BAD_TOKENS = ("nan", "inf", "-inf", "1e400", "")


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
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
        "dataset": written(save_dataset, ds),
        "joint log": table_text(["time", "hip", "knee", "ankle"], joint_log),
        "training log": (tmp / "log.csv").read_text(),
        "rollout": (tmp / "rollout.csv").read_text(),
        "tracking": written(save_comparison, simulate(model, PlantConfig()), ds.joint_names),
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
        return lambda text: parse_table(text_lines(text), header)

    def retable(head, tail=()):
        return lambda parsed: table_text([*head, *parsed[0], *tail], parsed[1])

    def rejoint(loaded):
        times, joints, names = loaded
        return table_text(["time", *names], np.column_stack([times, joints]))

    return {
        "dataset": (lambda text: parse_dataset(text_lines(text)),
                    lambda ds: written(save_dataset, ds)),
        "joint log": (from_file(load_joint_log), rejoint),
        # no command reads a training log, so the tests' reader rebuilds its schedule
        "training log": (lambda text: parse_log(text_lines(text)),
                         lambda parsed: written(save_log, parsed)),
        "rollout": (table(ROLLOUT_HEADER), retable(["time"], ["end_flag"])),
        "tracking": (table(TRACKING_HEADER), retable(["time"])),
    }


KINDS = ("dataset", "joint log", "training log", "rollout", "tracking")


@pytest.mark.parametrize("kind", KINDS)
def test_format_parse_format_is_byte_identical(kind, tables, tmp_path):
    read, write = readers(tmp_path)[kind]
    text = tables[kind]
    assert write(read(text)) == text


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_comparison_holds_blocks_not_the_file(tmp_path):
    """A 2999-tick, 22-joint tracking file (2999x45) peaks under 2 MiB; the whole text is 2.9 MB."""
    rng = np.random.default_rng(4)
    result = SimulationResult(np.arange(2999) / 300.0, rng.uniform(-1.5, 1.5, (2999, 22)),
                              rng.uniform(-1.5, 1.5, (2999, 22)), 0.0, False)
    names = [f"j{i}" for i in range(1, 23)]
    assert traced_peak(lambda: save_comparison(result, names, tmp_path / "t.csv")) < 2 * 2**20


def test_save_log_holds_blocks_not_the_file(tmp_path):
    """A 5000-epoch training log peaks under 0.8 MiB."""
    rng = np.random.default_rng(5)
    log = TrainingLog(TrainingSchedule([(1000, 1e-3)] * 5), rng.uniform(0, 1, 5000),
                      rng.uniform(0, 1, 5000))
    assert traced_peak(lambda: save_log(log, tmp_path / "log.csv")) < 0.8 * 2**20


@pytest.mark.parametrize("text", ["", "\n\n\n\n", "  \n\t\n"], ids=["empty", "newlines", "blanks"])
@pytest.mark.parametrize("header", ["", "time,a", "time,<names...>"])
def test_parse_table_without_lines_names_line_1(text, header):
    with pytest.raises(MimicError, match="^line 1: expected header"):
        parse_table(text_lines(text), header)


# --- byte identity with the row-template writer ------------------------------


def assert_same_bytes(table):
    """write_table writes table exactly as the oracle does, under every warning check."""
    table = np.asarray(table, dtype=float)
    header = [f"c{i}" for i in range(table.shape[1])]
    with np.errstate(all="raise"):
        got = table_text(header, table)
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
def test_writer_matches_row_template_on_written_tables(kind, tables):
    lines = tables[kind].splitlines(keepends=True)
    if kind == "dataset":  # the rate line follows the header; the rest is the table
        assert lines.pop(1) == "# rate=50\n"
    text = "".join(lines)
    names, table = parse_table(text_lines(text), "<all columns>")
    assert table_text(names, table) == format_table_rows(names, table) == text


@pytest.mark.parametrize("shape", [(0, 3), (1, 5), (700, 1), (5000, 3), (61, 45)],
                         ids=["no rows", "one row", "one column", "many blocks", "wide"])
def test_writer_matches_row_template_on_every_shape(shape):
    rng = np.random.default_rng(shape)
    assert_same_bytes(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 16, shape))


@pytest.mark.parametrize("shape", [(501, 45), (511, 24), (1500, 45)])
def test_writer_peak_memory_stays_near_the_row_template(shape, tmp_path):
    """The block temporaries add at most 512 KB to the row writer's traced peak."""
    table = np.random.default_rng(1).standard_normal(shape)
    header = [f"c{i}" for i in range(shape[1])]
    streamed = traced_peak(lambda: write_table(tmp_path / "t.csv", header, table))
    assert streamed <= traced_peak(lambda: format_table_rows(header, table)) + 512 * 1024


# --- the reader converts a block of lines at a time ------------------------


def three_blocks():
    """The lines of a 3-column CSV text of more than three blocks, and the lines in a block."""
    rows = 2048 // 3
    table = np.random.default_rng(3).standard_normal((3 * rows + 5, 3))
    return table_text(["c0", "c1", "c2"], table).splitlines(), rows


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
        parse_table(text_lines("\n".join(lines) + "\n"), "<names>")


@pytest.mark.parametrize("later", ["same block", "next block"])
def test_reader_names_a_short_line_before_a_later_bad_number(later):
    lines, rows = three_blocks()
    short = rows - 2
    bad = short + (1 if later == "same block" else rows)
    cells = lines[1 + bad].split(",")
    lines[1 + bad] = ",".join([cells[0], "nan_", cells[2]])
    lines[1 + short] = lines[1 + short].rsplit(",", 1)[0]
    with pytest.raises(MimicError, match=f"^line {short + 2}: expected 3 fields, found 2$"):
        parse_table(text_lines("\n".join(lines) + "\n"), "<names>")
    lines[1 + short] += ",0"
    with pytest.raises(MimicError, match=f"^line {bad + 2}: c1 is not a number: 'nan_'$"):
        parse_table(text_lines("\n".join(lines) + "\n"), "<names>")


@pytest.mark.parametrize("shape", [(501, 45), (1500, 24), (5000, 3)])
def test_reader_peak_memory_stays_near_the_line_reader(shape):
    """The blocks of lines add at most 512 KB to the line-by-line reader's traced peak."""
    text = table_text([f"c{i}" for i in range(shape[1])],
                      np.random.default_rng(2).standard_normal(shape))

    def peak(read):
        tracemalloc.start()
        try:
            names, table = read(text)
            return tracemalloc.get_traced_memory()[1], names, table
        finally:
            tracemalloc.stop()

    peak_blocks, *got = peak(lambda text: parse_table(text_lines(text), "<names>"))
    peak_lines, *want = peak(parse_table_rows)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert peak_blocks <= peak_lines + 512 * 1024


@pytest.mark.parametrize("load", [load_dataset, load_joint_log])
def test_reader_holds_blocks_not_the_file(load, tmp_path):
    """A 3000x45 table file (2.65 MB of text, a 1.03 MiB table) peaks under 2.56 MiB: the
    blocks and the table they are joined into, and one buffer of the file's text."""
    table = np.column_stack([np.arange(3000) / 50.0,
                             np.random.default_rng(6).uniform(-1.5, 1.5, (3000, 44))])
    table[:, -1] = np.arange(3000) == 2999  # the end flag, for a dataset
    path = tmp_path / "t.csv"
    write_table(path, ["time", *(f"j{i}" for i in range(1, 44)), "end_flag"], table,
                ["# rate=50"] if load is load_dataset else [])
    assert path.stat().st_size > 2 * table.nbytes  # more than the table and its blocks
    assert traced_peak(lambda: load(path)) <= 2 * table.nbytes + 512 * 1024


# --- the line source: a line ends at '\n', '\r\n' or '\r', as in open and csv ----

# the characters str.splitlines also breaks at, which read_lines keeps in their line
FORMER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
EDGE = io.DEFAULT_BUFFER_SIZE  # bytes the text reader decodes at a time


def file_lines(data, path):
    """read_lines of a file written with the bytes data."""
    path.write_bytes(data)
    return list(read_lines(path))


def test_a_line_ends_only_at_lf_crlf_or_cr(tmp_path):
    breaks = "".join(c for c in map(chr, range(0x110000)) if c.splitlines() == [""])
    assert sorted(breaks) == sorted("\n\r" + FORMER_BREAKS)
    text = f"a{FORMER_BREAKS}b\rc\r\n{FORMER_BREAKS}\n\rd\n\r\ne"
    want = [(1, f"a{FORMER_BREAKS}b"), (2, "c"), (5, "d"), (7, "e")]
    assert text_lines(text) == want
    assert file_lines(text.encode(), tmp_path / "t.txt") == want


# each line end, blank lines, the former breaks inside lines, a two-byte
# character in a name and a byte that is not UTF-8: (line, its end) pairs
EDGE_LINES = [
    ("time,h\xe9p,kn\udcffee", "\r\n"),
    ("0,0.1,0.2", "\r"),
    ("  ", "\r\n"),
    ("0.02,0.3,0.4\x0c", "\n"),
    ("", "\n"),
    ("\x0b\x1c", "\r"),
    ("0.04,0.5,0.6\x85", "\n"),
    ("0.06,0.7\u2028,0.8", "\r\n"),
    ("\t\x1d\x1e", "\n"),
    ("0.08,\u20290.9,1", "\r"),
    ("0.1,1.1,1.2", "\n"),
    ("0.12,1.3,1.4", "\r\n"),
    ("0.14,1.5,1.6", "\r"),
    ("", "\r\n"),
    ("0.16,1.7,1.8", ""),
]
FAULTS = {
    "none": {},
    "bad field": {6: "0.06,0.7,x"},
    "short line": {3: "0.02,0.3"},
    "not finite": {9: "0.08,nan,1"},
    "byte not UTF-8": {1: "0,0.\udcff1,0.2"},
    "truncated character": {10: "0.1,1.1,1.\udce2\udc82"},
    "bad after not finite": {3: "0.02,inf,0.4", 12: "0.14,1.5,1.6,9"},
}


def faulty(fault):
    """EDGE_LINES as bytes, with the lines of FAULTS[fault] swapped in."""
    swaps = FAULTS[fault]
    text = "".join(swaps.get(i, line) + end for i, (line, end) in enumerate(EDGE_LINES))
    return text.encode("utf-8", "surrogateescape")


def read_outcome(lines):
    try:
        names, table = parse_table(lines, "<names>")
    except MimicError as err:
        return str(err)
    return names, table.view(np.uint64).tolist()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("stride", [1, 2, 7])
def test_streamed_lines_match_the_whole_text_across_chunk_edges(fault, stride, tmp_path):
    """A blank line first puts the reader's chunk edge before every stride-th byte of the text."""
    data = faulty(fault)
    for at in range(0, len(data), stride):
        padded = b" " * (EDGE - at - 1) + b"\n" + data
        text = padded.decode("utf-8", "surrogateescape")
        got = file_lines(padded, tmp_path / "t.csv")
        assert got == text_lines(text)
        assert read_outcome(got) == read_outcome(text_lines(text))
        if fault == "none":
            names, table = parse_table_rows(text)
            assert read_outcome(got) == (names, table.view(np.uint64).tolist())


def test_each_fault_is_refused_on_its_own_line(tmp_path):
    messages = {fault: read_outcome(file_lines(faulty(fault), tmp_path / f"{fault}.csv"))
                for fault in FAULTS}
    assert messages == {
        "none": messages["none"],
        "bad field": "line 7: kn\udcffee is not a number: 'x'",
        "short line": "line 4: expected 3 fields, found 2",
        "not finite": "line 10: h\xe9p is not finite: 'nan'",
        "byte not UTF-8": "line 2: h\xe9p is not a number: '0.\udcff1'",
        "truncated character": "line 11: kn\udcffee is not a number: '1.\udce2\udc82'",
        "bad after not finite": "line 13: expected 3 fields, found 4",
    }
    assert messages["none"][0] == ["time", "h\xe9p", "kn\udcffee"]


@pytest.mark.parametrize("blank", [1, 2, 3, 65536])
def test_only_a_leading_byte_order_mark_is_dropped(blank, tmp_path):
    """blank lines after the text add no pair; 65536 of them span 16 chunks of the reader."""
    def lines(data):
        return file_lines(data + b"\r\n" * blank, tmp_path / "t.txt")

    marked = "\ufeffa\n\ufeffb\r\n\ufeff\n".encode()
    assert lines(marked) == [(1, "a"), (2, "\ufeffb"), (3, "\ufeff")]
    assert lines(b"\xef\xbb") == [(1, "\udcef\udcbb")]
    assert lines(b"") == []


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
def test_mutated_tables_load_or_raise_mimic_error(kind, tables, tmp_path):
    read, write = readers(tmp_path)[kind]
    rng = random.Random(f"fuzz {kind}")
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(200):
        text = tables[kind]
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
                cells = [c for ln in write(loaded).splitlines()[1:] if not ln.startswith("#")
                         for c in ln.split(",")]
                assert all(math.isfinite(float(c)) for c in cells)
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0
