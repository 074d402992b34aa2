"""Helpers shared by the line-oriented text formats."""

import numpy as np

from .errors import FormatError


def fmt(x: float) -> str:
    """Format a float with 17 significant digits so it parses back exactly."""
    return format(float(x), ".17g")


def parse_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"line {line_no}: {what} is not a number: '{token}'") from None


def parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {line_no}: {what} is not an integer: '{token}'") from None


def kv_value(token: str, key: str, line_no: int) -> str:
    """Extract the value of a 'key=value' token, checking the key name."""
    name, sep, value = token.partition("=")
    if not sep or name != key:
        raise FormatError(f"line {line_no}: expected '{key}=<value>', got '{token}'")
    return value


# --- CSV tables: every CSV file the toolkit reads or writes ------------------


def format_table(header, matrix) -> str:
    """CSV text: the header names, then one line per row, cells written as fmt does."""
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [template % tuple(row.tolist()) for row in np.asarray(matrix, dtype=float)]
    lines.append("")  # the final newline, without a second copy of the joined text
    return "\n".join(lines)


def parse_table(text: str, header: str):
    """Read CSV text as format_table writes it: (names, (rows, columns) array).

    header is the expected first line.  It may hold one '<...>' item,
    which stands for one or more names; those names are returned.
    Blank lines are skipped.  A wrong header, a wrong field count or a
    field that is not a finite number raises FormatError naming the line.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
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
            table[i] = [parse_float(p, no, col) for p, col in zip(parts, cols)]
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
