"""File-format parsing and the p/q rational convention."""

from fractions import Fraction

import pytest

from matropt import ParseError, parse_matroid, parse_weights
from matropt.io import format_rational, parse_point_rows, parse_rational
from matropt.matroid import GraphicMatroid, UniformMatroid, VectorMatroid


class TestRationals:
    def test_parse_integer(self):
        assert parse_rational("42") == 42

    def test_parse_fraction(self):
        assert parse_rational("-7/3") == Fraction(-7, 3)

    def test_integral_values_are_plain_int(self):
        for token, value in (("42", 42), ("-3", -3), ("6/3", 2), ("0/5", 0), ("4/-2", -2)):
            x = parse_rational(token)
            assert type(x) is int and x == value, token
        assert type(parse_rational("-7/3")) is Fraction

    def test_matrices_weights_and_coefficients_keep_int(self):
        import argparse

        from matropt.cli import _objective
        from matropt.io import parse_point_rows

        rows = parse_point_rows("vector 1 3\n1 1/2 4/2\n")
        assert rows == [(1, Fraction(1, 2), 2)]
        assert [type(x) for x in rows[0]] == [int, Fraction, int]
        weights = parse_weights("weights 1 3\n1 -2 3\n")
        assert all(type(x) is int for row in weights for x in row)
        graph = parse_matroid("graph 3\n0 1 1\n1 0 1\n1 1 0\n")
        assert (graph.nv, graph.edges) == (3, ((0, 1), (0, 2), (1, 2)))
        args = argparse.Namespace(objective="linear", coeff="3,6/3,1/2")
        assert [type(x) for x in _objective(args, 3).c] == [int, int, Fraction]

    def test_reject_decimal(self):
        with pytest.raises(ParseError):
            parse_rational("1.5")

    def test_reject_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_format_roundtrip(self):
        for x in (Fraction(107, 30), Fraction(-3), Fraction(0), Fraction(21, 4)):
            assert parse_rational(format_rational(x)) == x

    def test_integer_formats_bare(self):
        assert format_rational(Fraction(6, 3)) == "2"


class TestMatroidFiles:
    def test_uniform(self):
        M = parse_matroid("uniform 5 2\n")
        assert (type(M), M.n, M.rank) == (UniformMatroid, 5, 2)

    def test_graph(self):
        M = parse_matroid("graph 3\n0 1 1\n1 0 1\n1 1 0\n")
        assert (type(M), M.n, M.rank) == (GraphicMatroid, 3, 2)

    def test_vector_with_rationals(self):
        M = parse_matroid("vector 2 3\n1/2 0 1\n0 1/3 1\n")
        assert (type(M), M.n, M.rank) == (VectorMatroid, 3, 2)

    def test_comments_and_blank_lines(self):
        M = parse_matroid("# a matroid\n\nuniform 4 2  # rank two\n")
        assert M.n == 4

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_matroid("graph 2\n0 1\n1 x\n")
        assert "line 3" in str(err.value)

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_matroid("graph 3\n0 1 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_matroid("transversal 3 2\n")

    def test_non_binary_adjacency(self):
        with pytest.raises(ParseError):
            parse_matroid("graph 2\n0 2\n2 0\n")


class TestDeclaredRows:
    """A file holds exactly the rows its header declares."""

    def _rejects(self, parse, text, line):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert f"(line {line}" in str(err.value)

    def test_negative_size(self):
        self._rejects(parse_matroid, "vector -1 3\n1 0 1\n0 1 1\n", 1)
        self._rejects(parse_matroid, "vector 2 -3\n1 0 1\n0 1 1\n", 1)
        self._rejects(parse_matroid, "graph -1\n0 1\n1 0\n", 1)
        self._rejects(parse_weights, "weights -1 3\n1 2 3\n4 5 6\n", 1)

    def test_row_past_the_count(self):
        self._rejects(parse_matroid, "vector 1 3\n1 0 1\n0 1 1\n", 3)
        self._rejects(parse_matroid, "graph 2\n0 1\n1 0\n\n# a comment\n0 0\n", 6)
        self._rejects(parse_weights, "weights 1 3\n1 2 3\n4 5 6\n", 3)

    def test_line_after_uniform(self):
        self._rejects(parse_matroid, "uniform 3 2\n1 1 0\n", 2)
        self._rejects(parse_matroid, "# U(2,3)\nuniform 3 2\nuniform 3 1\n", 3)


class TestWeightFiles:
    def test_basic(self):
        rows = parse_weights("weights 2 3\n1 2 3\n4 5 6\n")
        assert rows == [(1, 2, 3), (4, 5, 6)]

    def test_rejects_fractions(self):
        with pytest.raises(ParseError):
            parse_weights("weights 1 2\n1/2 1\n")

    def test_rejects_wrong_width(self):
        with pytest.raises(ParseError):
            parse_weights("weights 1 3\n1 2\n")



# A well-formed file of every kind, with the parser that reads it.
READER_FILES = {
    "uniform": (parse_matroid, "uniform 4 2\n"),
    "graph": (parse_matroid, "graph 3\n0 1 1\n1 0 1\n1 1 0\n"),
    "vector": (parse_matroid, "vector 2 3\n1/2 0 1\n0 1/3 1\n"),
    "weights": (parse_weights, "weights 2 3\n1 2 3\n4 5 6\n"),
    "corners": (parse_point_rows, "vector 4 4\n1 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 1\n"),
}


def _entry(token):
    """The case that makes the first row's second entry `token`."""
    def edit(header, rows):
        first = rows[0].split()
        first[1] = token
        return [header, " ".join(first), *rows[1:]], 2, 2
    return edit


# Each case turns a well-formed file's header and rows into a bad file's
# lines, the line its error must name and the column (None: no column).
READER_CASES = {
    "empty file": lambda header, rows: ([], 1, None),
    "unknown header word": lambda header, rows: (
        ["transversal " + header.split(" ", 1)[1], *rows], 1, None),
    "extra size field": lambda header, rows: ([header + " 7", *rows], 1, None),
    "missing size field": lambda header, rows: ([header.rsplit(" ", 1)[0], *rows], 1, None),
    "non-integer size": lambda header, rows: ([header.rsplit(" ", 1)[0] + " x", *rows], 1, None),
    "negative size": lambda header, rows: (
        [header.replace(" ", " -", 1), *rows], 1, None),
    "missing row": lambda header, rows: ([header, *rows[:-1]], 1, None),
    "row past the count": lambda header, rows: (
        [header, *rows, "1 1 0"], len(rows) + 2, None),
    "short row": lambda header, rows: (
        [header, rows[0].rsplit(" ", 1)[0], *rows[1:]], 2, len(rows[0].split()) - 1),
    "bad token": _entry("x"),
    "non-integer entry": _entry("1/2"),
    "2 in a graph": _entry("2"),
}

# The cases a kind's format cannot hit.  A uniform file has no rows, and
# its sizes n and r declare none, so past their sign uniform_matroid checks
# their range (exit 3); only graph and weight entries must be integers.
READER_SKIPS = {
    "uniform": {"missing row", "short row", "bad token",
                "non-integer entry", "2 in a graph"},
    "graph": set(),
    "vector": {"non-integer entry", "2 in a graph"},
    "weights": {"2 in a graph"},
    "corners": {"non-integer entry", "2 in a graph"},
}


class TestReader:
    """One reader parses every input file: each way a header or a row can be
    wrong is a ParseError naming its line, and its column for an entry."""

    @pytest.mark.parametrize("kind, case", [
        (kind, case) for kind in READER_FILES for case in READER_CASES
        if case not in READER_SKIPS[kind]
    ])
    def test_names_line_and_column(self, kind, case):
        parse, text = READER_FILES[kind]
        parse(text)  # the file itself is well formed
        header, *rows = text.splitlines()
        lines, line, column = READER_CASES[case](header, rows)
        with pytest.raises(ParseError) as err:
            parse("".join(f"{l}\n" for l in lines))
        assert (err.value.line, err.value.column) == (line, column)

    def test_graph_entry_errors(self):
        # A fraction in a graph is not an integer; a 2 is not 0 or 1.
        header, *rows = READER_FILES["graph"][1].splitlines()
        for token, message in (("1/2", "expected integer entry"),
                               ("2", "adjacency entries must be 0 or 1")):
            lines, _, _ = _entry(token)(header, rows)
            with pytest.raises(ParseError, match=message):
                parse_matroid("".join(f"{l}\n" for l in lines))
