"""Exceptions shared across the toolkit, each carrying a CLI exit code, and
`check_cap`, the one reader of the work cap MATROPT_BASES_CAP.  Every
routine whose work grows with its input counts that work (rank-sized
subsets, random draws, spanning trees, sums of bases, table entries,
targets, closed-form steps) and passes it to `check_cap` before doing it.
"""

import os

BASES_CAP_DEFAULT = 10_000_000


class MatroptError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(MatroptError):
    """Malformed input file; carries line/column context where known."""

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class DimensionError(MatroptError):
    """Mismatched sizes between a matroid, weights, points, or objectives."""

    exit_code = 3


class CapError(MatroptError):
    """The work cap MATROPT_BASES_CAP was exceeded."""

    exit_code = 4


class InternalInconsistencyError(MatroptError):
    """Two routes that must agree disagreed; never ignored silently."""

    exit_code = 5


def check_cap(work: int, what: str) -> None:
    """Refuse (CapError) `work` units of `what` above MATROPT_BASES_CAP
    (default 10^7); a value that is not an integer is a ParseError."""
    raw = os.environ.get("MATROPT_BASES_CAP")
    try:
        cap = BASES_CAP_DEFAULT if raw is None else int(raw)
    except ValueError:
        raise ParseError(f"MATROPT_BASES_CAP must be an integer, got {raw!r}") from None
    if work > cap:
        raise CapError(f"{work} {what} exceed cap {cap}")
