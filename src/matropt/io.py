"""Parsers and serializers for the plain-text input formats.

Matroid files:
    uniform n r                       (single line)
    graph n    + n rows of 0/1        (adjacency matrix)
    vector m n + m rows of rationals  ("p/q" or integer entries)
Weight files:
    weights d n + d rows of integers

Rationals are always rendered as "p/q" (or a bare integer) so output is
byte-stable; no decimal notation is ever produced or accepted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .matroid import Matroid, graphic_matroid, uniform_matroid, vector_matroid


def parse_rational(token: str, line=None, column=None) -> Fraction:
    try:
        if "/" in token:
            p, q = token.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {token!r}", line=line, column=column) from None


def format_rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


def parse_matroid(text: str) -> Matroid:
    lines = _lines(text)
    if not lines:
        raise ParseError("empty matroid file", line=1)
    lineno, header = lines[0]
    fields = header.split()
    kind = fields[0].lower()
    if kind == "uniform":
        if len(fields) != 3:
            raise ParseError("expected 'uniform n r'", line=lineno)
        n, r = _ints(fields[1:], lineno)
        return uniform_matroid(n, r)
    if kind == "graph":
        if len(fields) != 2:
            raise ParseError("expected 'graph n'", line=lineno)
        (n,) = _ints(fields[1:], lineno)
        rows = _matrix(lines[1:], n, n, lineno, integer=True)
        for lno, row in zip((l for l, _ in lines[1:]), rows):
            if any(x not in (0, 1) for x in row):
                raise ParseError("adjacency entries must be 0 or 1", line=lno)
        return graphic_matroid([[int(x) for x in row] for row in rows])
    if kind == "vector":
        if len(fields) != 3:
            raise ParseError("expected 'vector m n'", line=lineno)
        m, n = _ints(fields[1:], lineno)
        rows = _matrix(lines[1:], m, n, lineno, integer=False)
        return vector_matroid(rows)
    raise ParseError(f"unknown matroid kind {fields[0]!r}", line=lineno)


def parse_weights(text: str):
    """Weight file -> list of integer rows (d x n)."""
    lines = _lines(text)
    if not lines:
        raise ParseError("empty weights file", line=1)
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0].lower() != "weights":
        raise ParseError("expected 'weights d n'", line=lineno)
    d, n = _ints(fields[1:], lineno)
    rows = _matrix(lines[1:], d, n, lineno, integer=True)
    return [tuple(int(x) for x in row) for row in rows]


def _ints(tokens, lineno):
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(f"expected integer, got {tok!r}", line=lineno) from None
    return tuple(out)


def _matrix(lines, nrows, ncols, header_line, integer):
    if len(lines) < nrows:
        raise ParseError(
            f"expected {nrows} matrix rows, found {len(lines)}", line=header_line
        )
    rows = []
    for lineno, text in lines[:nrows]:
        tokens = text.split()
        if len(tokens) != ncols:
            raise ParseError(
                f"expected {ncols} entries, found {len(tokens)}",
                line=lineno,
                column=len(tokens),
            )
        row = []
        for col, tok in enumerate(tokens, start=1):
            val = parse_rational(tok, line=lineno, column=col)
            if integer and val.denominator != 1:
                raise ParseError("expected integer entry", line=lineno, column=col)
            row.append(int(val) if integer else val)
        rows.append(tuple(row))
    return rows


def parse_point_rows(text: str):
    """'vector m n' header plus m rational rows, returned as plain rows."""
    lines = _lines(text)
    if not lines:
        raise ParseError("empty points file", line=1)
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0].lower() != "vector":
        raise ParseError("expected 'vector m n'", line=lineno)
    m, n = _ints(fields[1:], lineno)
    return _matrix(lines[1:], m, n, lineno, integer=False)


def read_text(path) -> str:
    """Contents of an input file; an unreadable file is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None


def load_matroid(path) -> Matroid:
    return parse_matroid(read_text(path))


def load_weights(path):
    return parse_weights(read_text(path))
