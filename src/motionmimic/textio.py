"""One codec for every text file: key=value records, rows of numbers and CSV tables."""

import re

import numpy as np

from .errors import FormatError, ShapeError


FLOAT = "%.17g"  # 17 significant digits, so every float parses back exactly


def fmt(x: float) -> str:
    """Format a float as FLOAT does."""
    return FLOAT % float(x)


def text_lines(text: str) -> list:
    """(line number, line) of every line of text that is not blank."""
    return [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]


def format_numbers(values) -> str:
    """Space-separated numbers, each written as fmt does; LineReader.numbers reads them."""
    return " ".join(map(fmt, values))


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
        raise FormatError(f"line {line_no}: expected '{template}'")
    values = []
    for field, part in zip(fields, parts):
        head, sep, kind = field.partition("<")
        if not part.startswith(head) or (not sep and part != head):
            raise FormatError(f"line {line_no}: expected '{field}', got '{part}'")
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
            raise FormatError(f"line {line_no}: {what} is not {noun}: '{token}'") from None
    if kind == "text":
        return token
    words = kind.split("|")
    if token not in words:
        raise FormatError(f"line {line_no}: {what} must be {' or '.join(words)}, got '{token}'")
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
            return np.array([float(p) for p in parts])
        except ValueError:  # number by number, to name the bad one
            return np.array([_parse_value("float", p, what, self.line_no) for p in parts])

    def fail(self, message: str):
        """Raise FormatError about the line read last."""
        raise FormatError(f"line {self.line_no}: {message}")

    def end(self):
        """Raise FormatError unless every line has been read."""
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

    A header whose width differs from the matrix's columns raises ShapeError.
    """
    table = np.asarray(matrix, dtype=float)
    if table.shape[1:] != (len(header),):
        raise ShapeError(f"{len(header)} column names for a table of shape {table.shape}")
    template = ",".join([FLOAT] * len(header))
    lines = [",".join(header)]
    lines += [template % tuple(row.tolist()) for row in table]
    lines.append("")  # the final newline, without a second copy of the joined text
    return "\n".join(lines)


def parse_table(text: str, header: str):
    """Read CSV text as format_table writes it: (names, (rows, columns) array).

    header is the expected first line.  It may hold one '<...>' item,
    which stands for one or more names; those names are returned.
    Blank lines are skipped.  A wrong header, a wrong field count or a
    field that is not a finite number raises FormatError naming the line.
    """
    lines = text_lines(text)
    head_no, first = lines[0] if lines else (1, "")
    names = _header_names(first, header)
    if names is None:
        raise FormatError(f"line {head_no}: expected header '{header}'")
    cols = first.split(",")
    table = np.empty((len(lines) - 1, len(cols)))
    for i, (no, raw) in enumerate(lines[1:]):
        parts = raw.split(",")
        if len(parts) != len(cols):
            raise FormatError(f"line {no}: expected {len(cols)} fields, found {len(parts)}")
        try:
            table[i] = [float(p) for p in parts]
        except ValueError:  # field by field, to name the bad one
            table[i] = [_parse_value("float", p, col, no) for p, col in zip(parts, cols)]
    finite = np.isfinite(table)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        no, raw = lines[1 + r]
        raise FormatError(f"line {no}: {cols[c]} is not finite: '{raw.split(',')[c]}'")
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
