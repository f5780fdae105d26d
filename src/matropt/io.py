"""Parsers and serializers for the plain-text input formats.

Matroid files:
    uniform n r                       (single line)
    graph n    + n rows of 0/1        (adjacency matrix)
    vector m n + m rows of rationals  ("p/q" or integer entries)
Weight files:
    weights d n + d rows of integers
Corner files (classify-2face):
    vector 4 n + the 4 corners of a candidate 2-face, as rows of rationals

One reader parses them all: a header naming the file's kind and its sizes,
then exactly the rows those sizes declare, each of the declared width.  A
declared size is never negative, and each entry is checked as it is parsed;
anything else is a ParseError naming the line, and the column of a bad
entry.

Rationals are always rendered as "p/q" (or a bare integer) so output is
byte-stable; no decimal notation is ever produced or accepted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .matroid import Matroid, graphic_matroid, uniform_matroid, vector_matroid


def parse_rational(token: str, line=None, column=None) -> int | Fraction:
    """An integer or "p/q" token: a plain int when its value is integral
    ("42", "6/3"), a Fraction only for a true rational."""
    try:
        if "/" in token:
            p, q = token.split("/")
            x = Fraction(int(p), int(q))
            return x.numerator if x.denominator == 1 else x
        return int(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {token!r}", line=line, column=column) from None


def format_rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# Each kind of input file: its header, the rows and columns its sizes
# declare, and the entries its rows allow.
_KINDS = {
    "uniform": ("uniform n r", lambda n, r: (0, 0), None),
    "graph": ("graph n", lambda n: (n, n), "0/1"),
    "vector": ("vector m n", lambda m, n: (m, n), "rational"),
    "weights": ("weights d n", lambda d, n: (d, n), "integer"),
}


def _read(text, what, kinds):
    """The kind, the sizes and the rows (tuples) of a `what` file whose
    header is one of `kinds`."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise ParseError(f"empty {what} file", line=1)
    (head, header), body = lines[0], lines[1:]
    word, *fields = header.split()
    kind = word.lower()
    if kind not in kinds:
        raise ParseError("expected " + " or ".join(f"'{_KINDS[k][0]}'" for k in kinds), line=head)
    usage, shape, entries = _KINDS[kind]
    if len(fields) != len(usage.split()) - 1:
        raise ParseError(f"expected '{usage}'", line=head)
    sizes = []
    for tok in fields:
        try:
            size = int(tok)
        except ValueError:
            raise ParseError(f"expected integer, got {tok!r}", line=head) from None
        if size < 0:
            raise ParseError(f"size {size} is negative", line=head)
        sizes.append(size)
    nrows, ncols = shape(*sizes)
    if len(body) < nrows:
        raise ParseError(f"expected {nrows} matrix rows, found {len(body)}", line=head)
    if len(body) > nrows:
        raise ParseError(f"unexpected line past the {nrows} declared rows", line=body[nrows][0])
    integer, binary = entries != "rational", entries == "0/1"
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != ncols:
            raise ParseError(f"expected {ncols} entries, found {len(tokens)}",
                             line=lineno, column=len(tokens))
        row = []
        for col, tok in enumerate(tokens, start=1):
            val = parse_rational(tok, line=lineno, column=col)
            if integer and val.denominator != 1:
                raise ParseError("expected integer entry", line=lineno, column=col)
            if binary and val not in (0, 1):
                raise ParseError("adjacency entries must be 0 or 1", line=lineno, column=col)
            row.append(val)
        rows.append(tuple(row))
    return kind, sizes, rows


def parse_matroid(text: str) -> Matroid:
    kind, sizes, rows = _read(text, "matroid", ("uniform", "graph", "vector"))
    if kind == "uniform":
        return uniform_matroid(*sizes)
    return graphic_matroid(rows) if kind == "graph" else vector_matroid(rows)


def parse_weights(text: str):
    """Weight file -> list of integer rows (d x n), as tuples of int."""
    return _read(text, "weights", ("weights",))[2]


def parse_point_rows(text: str):
    """'vector m n' header plus m rational rows, returned as plain rows."""
    return _read(text, "points", ("vector",))[2]


def read_text(path) -> str:
    """Contents of an input file; an unreadable file is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None


def write_text(path, chunks) -> None:
    """Write the strings `chunks` in turn to an output file; an unwritable
    path is a ParseError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from None


def load_matroid(path) -> Matroid:
    return parse_matroid(read_text(path))


def load_weights(path):
    return parse_weights(read_text(path))


def load_point_rows(path):
    return parse_point_rows(read_text(path))
