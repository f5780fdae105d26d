"""Direct unit tests for the exact linear algebra, and for the kernel and
rational-simplex oracles in conftest.  The integer echelon behind rank, row-space
solves and kernel vectors is checked against the Fraction Gauss-Jordan
oracles `fraction_rank` and `fraction_solve`."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    clear_denominators,
    fraction_rank,
    fraction_solve,
    max_minor_gcd,
    rational_kernel_basis,
    simplex_maximize,
    solve_in_row_space,
)
from matropt import DimensionError
from matropt.linalg import (
    _integral,
    _null_vector,
    bareiss_det,
    integer_rank,
)


def fraction_gauss_det(rows):
    """Oracle: plain fraction Gaussian elimination determinant."""
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


class TestDeterminants:
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_bareiss_matches_gauss(self, rows):
        assert bareiss_det(rows) == fraction_gauss_det(rows)

    def test_empty_matrix(self):
        assert bareiss_det([]) == 1

    def test_rejects_entries_that_are_not_ints(self):
        # Its exact division floors a rational quotient: this determinant,
        # -5/6, would come out as -1.
        with pytest.raises(DimensionError):
            bareiss_det([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
        with pytest.raises(DimensionError):
            bareiss_det([[1, 2], [3, 4.0]])


class TestKernelsAndLattices:
    def test_rational_kernel_orthogonality(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        for vec in rational_kernel_basis(rows):
            assert all(sum(Fraction(r[i]) * vec[i] for i in range(3)) == 0 for r in rows)

    def test_max_minor_gcd_lattice_index(self):
        rng = random.Random(2)
        for _ in range(30):
            m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            if bareiss_det(m) != 0:
                assert max_minor_gcd(m) == abs(bareiss_det(m))
        assert max_minor_gcd([(2, 4, 6)]) == 2
        assert max_minor_gcd([(1, 0, -1), (0, 1, -1)]) == 1
        assert max_minor_gcd([(2, 0, -2), (0, 1, -1)]) == 2

    def test_clear_denominators_primitive(self):
        assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
        assert clear_denominators([Fraction(4), Fraction(6)]) == (2, 3)


class TestSolvers:
    def test_solve_in_row_space_square_roundtrip(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if bareiss_det(m) == 0:
                continue
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            target = [sum(x[i] * m[i][j] for i in range(n)) for j in range(n)]
            assert solve_in_row_space(m, target) == tuple(x)

    def test_solve_in_row_space_dependent_rows(self):
        # Dependent rows leave a coordinate without a pivot, even when the
        # target lies in their span.
        assert solve_in_row_space([[1, 1], [2, 2]], [1, 1]) is None
        assert solve_in_row_space([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (2, 3, 0)) is None

    def test_solve_in_row_space_rejects_outside(self):
        basis = [(1, 0, 0), (0, 1, 0)]
        assert solve_in_row_space(basis, (0, 0, 1)) is None
        assert solve_in_row_space(basis, (2, 3, 0)) == (2, 3)


ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)


@st.composite
def matrices(draw, shape=st.tuples(st.integers(0, 5), st.integers(0, 6))):
    """Small int/Fraction matrices, often rank-deficient: some rows are
    zero or combinations of earlier ones.  Returns (columns, rows)."""
    k, n = draw(shape)
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(("free", "free", "zero", "combo")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(ENTRY)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(ENTRY, min_size=n, max_size=n)))
    return n, rows


class TestIntegerEchelon:
    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_fraction_oracle(self, case):
        # Each row scaled to integers first, as `vector_matroid` scales its
        # columns: scaling a row keeps the rank.
        _, rows = case
        assert integer_rank([_integral(r) for r in rows]) == fraction_rank(rows)

    @given(matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_solve_matches_fraction_oracle(self, case, data):
        n, rows = case
        if rows and data.draw(st.booleans()):
            # A target in the span, so the coordinates are exercised too.
            coeffs = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
            target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        else:
            target = data.draw(st.lists(ENTRY, min_size=n, max_size=n))
        assert solve_in_row_space(rows, target) == fraction_solve(rows, target)

    @given(matrices(st.integers(1, 6).map(lambda d: (d - 1, d))))
    @settings(max_examples=300, deadline=None)
    def test_null_vector_of_codimension_one(self, case):
        d, rows = case
        nu = _null_vector([_integral(r) for r in rows], d)  # scaling a row keeps the kernel
        if fraction_rank(rows) < d - 1:
            assert nu is None
        else:
            assert len(nu) == d and any(nu)
            assert all(sum(a * x for a, x in zip(r, nu)) == 0 for r in rows)

    def test_null_vector_cases(self):
        assert _null_vector([], 1) is not None and any(_null_vector([], 1))
        assert _null_vector([[1, 2, 3], [2, 4, 6]], 3) is None
        assert _null_vector([[0, 0]], 2) is None
        nu = _null_vector([[1, 0, -1], [0, 1, -1]], 3)
        assert nu is not None and nu[0] == nu[1] == nu[2] != 0


class TestSimplex:
    def test_simple_optimum(self):
        # max x + y st x + 2y = 4, x <= 3 (slack): vertices (3, 1/2), (0, 2)
        status, x, value = simplex_maximize(
            [[1, 2, 0], [1, 0, 1]], [4, 3], [1, 1, 0]
        )
        assert status == OPTIMAL
        assert value == Fraction(7, 2)

    def test_infeasible_negative_sum(self):
        # x + y = -1 with x, y >= 0
        status, _, _ = simplex_maximize([[1, 1]], [-1], [1, 0])
        assert status == INFEASIBLE

    def test_infeasible_contradictory_rows(self):
        # x = 1 and x = 2 simultaneously
        status, _, _ = simplex_maximize([[1], [1]], [1, 2], [0])
        assert status == INFEASIBLE

    def test_unbounded(self):
        # max x st x - y = 0: both can grow together
        status, _, _ = simplex_maximize([[1, -1]], [0], [1, 0])
        assert status == UNBOUNDED

    def test_degenerate_cycling_guard(self):
        # A classic degenerate instance; Bland's rule must terminate.
        rows = [
            [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
            [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ]
        rhs = [0, 0, 1]
        cost = [Fraction(3, 4), -20, Fraction(1, 2), -6, 0, 0, 0]
        status, _, value = simplex_maximize(rows, rhs, cost)
        assert status == OPTIMAL
        assert value == Fraction(5, 4)

    def test_redundant_rows_dropped(self):
        status, x, value = simplex_maximize(
            [[1, 1], [2, 2]], [2, 4], [1, 0]
        )
        assert status == OPTIMAL
        assert value == 2
