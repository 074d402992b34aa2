"""One codec for every text file: key=value records, rows of numbers and CSV tables."""

import re
from pathlib import Path

import numpy as np

from .errors import MimicError


FLOAT = "%.17g"  # 17 significant digits, so every float parses back exactly


def fmt(x: float) -> str:
    """Format a float as FLOAT does."""
    return FLOAT % float(x)


def read_text(path) -> str:
    """The text of the file at path, read as UTF-8.

    A byte that is not UTF-8 is kept as a lone surrogate, which the
    parsers refuse as they refuse any other bad character and which
    write_text writes back as the same byte.
    """
    return Path(path).read_text(encoding="utf-8", errors="surrogateescape")


def write_text(path, text: str):
    """Write text to the file at path as UTF-8, the bytes read_text kept included."""
    Path(path).write_text(text, encoding="utf-8", errors="surrogateescape")


def text_lines(text: str) -> list:
    """(line number, line) of every line of text that is not blank."""
    return [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]


def format_numbers(matrix) -> str:
    """A line of space-separated numbers per row of matrix (a vector is one row).

    Each number is written as fmt does; LineReader.numbers reads a line
    back.  The last line has no newline.
    """
    return _write_rows(b"", np.atleast_2d(np.asarray(matrix, dtype=float)), b" ")[:-1]


# --- records: one line laid out as a template of words and '<kind>' fields -------
# such as 'layer out=<int> in=<int> act=<leakyrelu|linear>'.  A kind is int, float,
# a '|'-list of words ('true|false' is a bool) or text, the rest of the line.

_FIELD = re.compile(r"<([^>]*)>")
_FORMATS = {"float": fmt, "true|false": lambda value: "true" if value else "false"}


def format_record(template: str, *values) -> str:
    """The line holding values in template's fields, in order."""
    it = iter(values)
    return _FIELD.sub(lambda field: _FORMATS.get(field.group(1), str)(next(it)), template)


def parse_record(template: str, line: str, line_no: int) -> list:
    """The values of line's fields, read as template lays them out."""
    fields = template.split()
    rest = fields[-1].endswith("<text>")  # the text may be empty, so the line may end before it
    parts = (line.split(None, len(fields) - 1) + [""])[: len(fields)] if rest else line.split()
    if len(parts) != len(fields):
        raise MimicError(f"line {line_no}: expected '{template}'")
    values = []
    for field, part in zip(fields, parts):
        head, sep, kind = field.partition("<")
        if not part.startswith(head) or (not sep and part != head):
            raise MimicError(f"line {line_no}: expected '{field}', got '{part}'")
        if sep:
            values.append(_parse_value(kind[:-1], part[len(head):], head.rstrip("="), line_no))
    return values


def _parse_value(kind: str, token: str, what: str, line_no: int):
    """token read as a field of the given kind; what names the field in errors."""
    if kind in ("int", "float"):
        try:
            return int(token) if kind == "int" else float(token)
        except ValueError:
            noun = "an integer" if kind == "int" else "a number"
            raise MimicError(f"line {line_no}: {what} is not {noun}: '{token}'") from None
    if kind == "text":
        return token
    words = kind.split("|")
    if token not in words:
        raise MimicError(f"line {line_no}: {what} must be {' or '.join(words)}, got '{token}'")
    return token == "true" if kind == "true|false" else token


class LineReader:
    """The non-blank lines of a text, read in order; every error names its line."""

    def __init__(self, text: str):
        self._lines = text_lines(text)
        self._next = 0
        self.line_no = 0  # of the line read last

    def more(self) -> bool:
        return self._next < len(self._lines)

    def record(self, template: str) -> list:
        """The next line's values, read as template lays them out."""
        return parse_record(template, self._take(f"'{template}'"), self.line_no)

    def numbers(self, count: int, what: str, rest: str = None) -> np.ndarray:
        """count numbers from the next line, or from rest, the end of the line read last."""
        parts = (self._take(f"{what} values") if rest is None else rest).split()
        if len(parts) != count:
            self.fail(f"expected {count} {what} values, found {len(parts)}")
        try:
            return np.array(parts, dtype=float)
        except ValueError:  # number by number, to name the bad one
            return np.array([_parse_value("float", p, what, self.line_no) for p in parts])

    def fail(self, message: str):
        """Raise MimicError about the line read last."""
        raise MimicError(f"line {self.line_no}: {message}")

    def end(self):
        """Raise MimicError unless every line has been read."""
        if self.more():
            line = self._take("")
            self.fail(f"expected the end of the file, got '{line}'")

    def _take(self, what):
        if not self.more():
            self.line_no = self._lines[-1][0] + 1 if self._lines else 1
            self.fail(f"missing {what}")
        self.line_no, line = self._lines[self._next]
        self._next += 1
        return line


# --- CSV tables: every CSV file the toolkit reads or writes ------------------


def format_table(header, matrix) -> str:
    """CSV text: the header names, then one line per row, cells written as fmt does.

    A header whose width differs from the matrix's columns, or a table
    without columns, raises MimicError.
    """
    table = np.asarray(matrix, dtype=float)
    if table.shape[1:] != (len(header),):
        raise MimicError(f"{len(header)} column names for a table of shape {table.shape}")
    if not header:
        raise MimicError(f"a table of shape {table.shape} has no columns")
    head = (",".join(header) + "\n").encode("utf-8", "surrogatepass")  # names may be any text
    return _write_rows(head, table, b",")


def _write_rows(head: bytes, table, sep: bytes) -> str:
    """head, then a line per row of table, its cells split by sep and written as fmt does."""
    # One buffer with room for the longest cells, filled a block of rows at a
    # time: its size is known up front, so it is allocated once, not grown.
    text = bytearray(len(head) + table.size * _LONGEST)
    text[: len(head)] = head
    end = len(head)
    rows = max(1, _BLOCK_CELLS // table.shape[1])
    for i in range(0, len(table), rows):
        lines = _format_rows(table[i : i + rows], sep)
        text[end : end + len(lines)] = lines
        end += len(lines)
    del text[end:]
    return text.decode("utf-8", "surrogatepass")


# Cells are formatted a block of rows at a time.  numpy writes every cell with
# 1e-5 <= |x| < 1e15, and 0: it finds the 17 digits FLOAT would write, then lays
# them out in a NUL-padded slot (sign, '0.'..'0.000' prefix, the digits with their
# dot, 'e-05' suffix, separator) that deleting the NULs closes up.  FLOAT % x
# writes the other cells (-0.0, tiny, huge, inf, nan) into their slots.
_BLOCK_CELLS = 2048  # bounds a block's temporaries, written or read, to a few hundred KB
_SLOT = 32  # bytes per cell, the separator last
_LONGEST = 25  # FLOAT % x writes at most 24 characters, then the separator
_BODY = 7  # slot column of the body, the digits with their dot
_PLAIN = (1e-5, np.nextafter(1e15, 0))  # the closed range of |x| numpy writes
# the 4 ASCII digits of 0..9999 as one uint32 each, in memory order
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_DIGITS4 = _DIGITS4.reshape(-1, 4).view(np.uint32).ravel()
# _LAST[i - 1, g]: the place of the last nonzero digit of g as the i-th group of
# four after the leading digit (place 0), or 0 for g = 0.  Filled in place, one
# digit column at a time, so that import leaves no large temporaries resident.
_LAST = np.zeros((4, 10**4), np.int8)
for _place, _digit in enumerate(_DIGITS4.view(np.uint8).reshape(-1, 4).T, start=1):
    np.copyto(_LAST, np.arange(_place, 17, 4, dtype=np.int8)[:, None], where=_digit != 48)
_POW10 = np.array([float(10**i) for i in range(23)])  # exact doubles


def _layouts():
    """Slot masks and bytes per layout code.

    A code is sign * 357 + (exponent + 5) * 17 + digits - 1, for exponents
    -5..15 and 1..17 digits before the trailing zeros; the last code is 0.
    Returns (mask of the columns that keep digit j, mask of those that take
    digit j - 1, the slot's other bytes), each (codes, _SLOT).
    """
    grid = np.meshgrid([0, 1], np.arange(-5, 16), np.arange(1, 18), indexing="ij")
    neg, k, sig = (a.ravel() for a in grid)
    dot = np.where(k >= 0, k + 1, np.where(k == -5, 1, 18))  # digits before the dot; 18: none
    end = np.where(sig > dot, sig + 1, np.where(k >= 0, dot, sig))  # body length
    j = np.arange(_SLOT) - _BODY  # the body column of each slot column
    body = (j >= 0) & (j < end[:, None])
    masks = [np.vstack([m, np.zeros(_SLOT, bool)]) * np.uint8(255)
             for m in (body & (j < dot[:, None]), body & (j > dot[:, None]))]
    frame = np.zeros((len(k) + 1, _SLOT), np.uint8)
    frame[:-1, 0] = np.where(neg, ord("-"), 0)
    prefix = np.frombuffer(b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0" b"0.000", np.uint8)
    frame[:-1, 1:_BODY - 1] = prefix.reshape(5, 5)[np.where((-5 < k) & (k < 0), -k, 0)]
    shown = np.flatnonzero(sig > dot)
    frame[shown, _BODY + dot[shown]] = ord(".")
    frame[np.flatnonzero(k == -5), _BODY + 18 : _BODY + 22] = np.frombuffer(b"e-05", np.uint8)
    frame[-1, 0] = ord("0")
    return (*masks, frame)


_LEFT, _RIGHT, _FRAME = _layouts()
_ZERO = len(_FRAME) - 1


def _split(a):
    """(hi, lo): a = hi + lo with each half 26 bits wide (Veltkamp)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _rounded(a, b):
    """a * 10**b rounded half to even, as int64, where a * 10**b >= 2**53.

    Dekker's product gives it exactly as p + e, p the rounded double.  p is
    an even integer >= 2**53, so p + rint(e) is p + e rounded half to even.
    """
    p = a * _POW10.take(b)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI.take(b), _POW10_LO.take(b)
    e = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _decimal(a):
    """(k, n): a * 10**(16 - k) rounded half to even is n, in [1e16, 1e17).

    For 1e-5 <= a < 1e15; n holds the 17 digits FLOAT writes, k the exponent.
    """
    k = np.floor(np.log10(a)).astype(np.intp)
    n = _rounded(a, 16 - k)
    # n leaves [1e16, 1e17) exactly when log10 rounded across a power of ten:
    # with the right k, the doubles either side of each power scale to 1e16 ..
    # 1e17 - 8; with k one too high, below 1e16 (below 2**53 the rounding is
    # not exact, but n stays far below 1e16); with k one too low, to 1e17 or more.
    fix = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if fix.size:
        k[fix] += np.where(n[fix] < 10**16, -1, 1)
        n[fix] = _rounded(a[fix], 16 - k[fix])
    return k, n


def _digit_slots(n):
    """(slots, place): the 17 ASCII digits of each n and the place of its last nonzero digit.

    slots is (cells, _SLOT) bytes with the digits in slot words 1..5, the
    leading one written '000d'; the other words are not set.  place is 0
    when only the leading digit is nonzero.
    """
    groups = np.empty((5, len(n)), np.intp)  # the leading digit, then four groups of four
    for i, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(n, scale, out=groups[i])
        n = n - groups[i] * scale
    groups[4] = n
    place = _LAST[0].take(groups[1])
    for i in range(1, 4):
        np.maximum(place, _LAST[i].take(groups[1 + i]), out=place)
    slots = np.empty((len(n), _SLOT), np.uint8)
    for i, group in enumerate(groups, start=1):
        slots.view(np.uint32)[:, i] = _DIGITS4.take(group)
    return slots, place


def _format_rows(block, sep: bytes) -> bytes:
    """The lines of a block of rows, cells split by sep, each byte-identical to FLOAT % x."""
    x = block.ravel()
    a = np.abs(x)
    clamped = np.fmin(np.fmax(a, _PLAIN[0]), _PLAIN[1])  # nan becomes 1e-5
    k, n = _decimal(clamped)
    zero = x.view(np.int64) == 0  # 0.0, not -0.0
    rest = np.flatnonzero((clamped != a) & ~zero)
    slots, place = _digit_slots(n)
    code = (x < 0) * (21 * 17) + (k + 5) * 17 + place
    code[zero] = _ZERO
    # digit j stays put before the dot and moves one column right after it
    flat = slots.ravel()
    moved = _RIGHT.take(code, axis=0).ravel()
    moved[1:] &= flat[:-1]
    flat &= _LEFT.take(code, axis=0).ravel()
    flat |= moved
    flat |= _FRAME.take(code, axis=0).ravel()
    if rest.size:
        text = b"".join(fmt(v).encode().ljust(_SLOT, b"\0") for v in x[rest].tolist())
        slots[rest] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT)
    slots[:, -1] = ord(sep)
    slots[block.shape[1] - 1 :: block.shape[1], -1] = 10  # '\n' after each row's last cell
    return slots.tobytes().translate(None, b"\0")


def parse_table(text: str, header: str):
    """Read CSV text as format_table writes it: (names, (rows, columns) array).

    header is the expected first line.  It may hold one '<...>' item,
    which stands for one or more names; those names are returned.
    Blank lines are skipped.  A text without lines, a wrong header, a
    wrong field count or a field that is not a finite number raises
    MimicError naming the line.
    """
    lines = text_lines(text)
    if not lines:
        raise MimicError(f"line 1: expected header '{header}', found no lines")
    head_no, first = lines[0]
    names = _header_names(first, header)
    if names is None:
        raise MimicError(f"line {head_no}: expected header '{header}'")
    cols = first.split(",")
    table = np.empty((len(lines) - 1, len(cols)))
    step = max(1, _BLOCK_CELLS // len(cols))  # lines converted at a time
    for i in range(0, len(table), step):
        block = lines[1 + i : 1 + i + step]
        rows = [raw.split(",") for _, raw in block]
        try:  # float() on each field; reshape also refuses lines all of another width
            table[i : i + step] = np.array(rows, dtype=float).reshape(len(block), len(cols))
        except ValueError:  # line by line, to name the first bad line
            for j, ((no, _), parts) in enumerate(zip(block, rows)):
                if len(parts) != len(cols):
                    raise MimicError(f"line {no}: expected {len(cols)} fields, found {len(parts)}")
                table[i + j] = [_parse_value("float", p, col, no) for p, col in zip(parts, cols)]
    finite = np.isfinite(table)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        no, raw = lines[1 + r]
        raise MimicError(f"line {no}: {cols[c]} is not finite: '{raw.split(',')[c]}'")
    return names, table


def _header_names(line, header):
    """The names filling header's '<...>' item in line ([] without one), or None."""
    if "<" not in header:
        return [] if line == header else None
    prefix, suffix = header[: header.index("<")], header[header.index(">") + 1 :]
    fits = line.startswith(prefix) and line.endswith(suffix)
    if not fits or len(line) < len(prefix) + len(suffix):
        return None
    return line[len(prefix) : len(line) - len(suffix)].split(",")
