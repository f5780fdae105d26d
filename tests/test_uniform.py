"""Closed-form uniform-matroid machinery and its lattice-count cross-checks."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    composition_count,
    evaluate_polynomial,
    hstar_uniform_triple_sum,
    is_unimodal,
)
from matropt import (
    CapError,
    DimensionError,
    InternalInconsistencyError,
    bounded_composition_counts,
    dilation_lattice_counts,
    ehrhart_uniform,
    hstar_from_counts,
    hstar_uniform,
    uniform_matroid,
)


def expand_power_oracle(n, r):
    """Multiply out (1 + T + ... + T^(r-1))^n term by term (oracle)."""
    poly = [1]
    unit = [1] * r
    for _ in range(n):
        out = [0] * (len(poly) + r - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(unit):
                out[i + j] += a * b
        poly = out
    return tuple(poly)


class TestCompositionTables:
    def test_rank_one_collapses(self):
        assert bounded_composition_counts(5, 1) == (1,)

    def test_parts_below_two_are_binomials(self):
        assert bounded_composition_counts(4, 2) == (1, 4, 6, 4, 1)

    def test_two_trits(self):
        assert bounded_composition_counts(2, 3) == (1, 2, 3, 2, 1)

    def test_matches_polynomial_expansion(self):
        for n in range(1, 9):
            for r in range(1, 6):
                assert bounded_composition_counts(n, r) == expand_power_oracle(n, r)

    def test_symmetry_and_unimodality_wide(self):
        for n in range(1, 41):
            for r in range(1, 7):
                table = bounded_composition_counts(n, r)
                assert table == table[::-1]
                assert is_unimodal(table)
                assert sum(table) == r**n

    def test_rank_relation_identity(self):
        # Table(n, r)[i] = sum over k+l=i of C(n,k) * Table(k, r-1)[l],
        # where the k = 0 factor is the empty product (1 at l = 0 only).
        for n in range(1, 13):
            for r in range(2, 6):
                table = bounded_composition_counts(n, r)
                for i in range(len(table)):
                    total = 1 if i == 0 else 0
                    total += sum(
                        comb(n, k) * composition_count(k, r - 1, i - k)
                        for k in range(1, min(i, n) + 1)
                    )
                    assert table[i] == total

    def test_out_of_range_reads_zero(self):
        assert composition_count(3, 2, -1) == 0
        assert composition_count(3, 2, 99) == 0


class TestUnimodal:
    def test_examples(self):
        assert is_unimodal((1, 2, 1))
        assert not is_unimodal((1, 0, 2))
        assert is_unimodal((1, 10, 20, 10, 1))

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, vec):
        # Exists a peak p with rises before and falls after.
        def naive(v):
            return any(
                all(v[i - 1] <= v[i] for i in range(1, p + 1))
                and all(v[j] >= v[j + 1] for j in range(p, len(v) - 1))
                for p in range(len(v))
            )

        assert is_unimodal(vec) == naive(vec)


class TestHStarUniform:
    def test_u24(self):
        assert hstar_uniform(4, 2) == (1, 2, 1)

    def test_leading_one(self):
        for n in range(2, 12):
            for r in range(1, n):
                assert hstar_uniform(n, r)[0] == 1

    def test_rank_two_closed_form(self):
        # Independent route: h*_l = C(n, 2l) minus n at l = 1.
        for n in range(3, 15):
            expected = []
            l = 0
            while comb(n, 2 * l) > 0 and 2 * l <= n:
                c = comb(n, 2 * l) - (n if l == 1 else 0)
                expected.append(c)
                l += 1
            while expected and expected[-1] == 0:
                expected.pop()
            assert hstar_uniform(n, 2) == tuple(expected)

    def test_rank_three_specialization(self):
        # Reduced expression for rank 3:
        # h*_l = Table(n,3)[3l] - n*C(n, 2l-1) + [l == 2]*C(n, 2).
        for n in range(4, 13):
            full = hstar_uniform(n, 3)
            expected = []
            for l in range(n):
                val = composition_count(n, 3, 3 * l)
                if 2 * l - 1 >= 0:
                    val -= n * comb(n, 2 * l - 1)
                if l == 2:
                    val += comb(n, 2)
                expected.append(val)
            while expected and expected[-1] == 0:
                expected.pop()
            assert full == tuple(expected)

    def test_against_lattice_counts(self):
        for n in range(2, 9):
            for r in range(1, n):
                M = uniform_matroid(n, r)
                dim = n - 1
                counts = dilation_lattice_counts(M, range(dim + 1))
                assert hstar_uniform(n, r) == hstar_from_counts(counts, dim)

    def test_closed_forms_match_triple_sum(self):
        # Both closed forms against the inclusion-exclusion oracle: h* from
        # the counts directly, and h* of the Ehrhart polynomial's values.
        for n in range(2, 26):
            for r in range(1, n):
                expected = hstar_uniform_triple_sum(n, r)
                assert hstar_uniform(n, r) == expected, (n, r)
                coeffs = ehrhart_uniform(n, r)
                counts = [evaluate_polynomial(coeffs, k) for k in range(n + 1)]
                assert all(c.denominator == 1 for c in counts), (n, r)
                assert hstar_from_counts(counts, n - 1) == expected, (n, r)

    def test_rank_three_partial_monotonicity(self):
        # For each prefix length I there is a threshold n(I) beyond which the
        # first I+1 entries are non-decreasing; spot-check I = 2, 3 on a grid.
        def prefix_nondecreasing(n, upto):
            h = hstar_uniform(n, 3)
            return all(h[i] <= h[i + 1] for i in range(min(upto, len(h) - 1)))

        for upto, threshold in ((2, 4), (3, 8)):
            for n in range(threshold, 41):
                assert prefix_nondecreasing(n, upto), (n, upto)

    def test_rejects_out_of_range_rank(self):
        with pytest.raises(DimensionError):
            hstar_uniform(4, 4)
        with pytest.raises(DimensionError):
            hstar_uniform(4, 0)


class TestEhrhartUniform:
    def test_constant_term_one(self):
        for n in range(2, 10):
            for r in range(1, n):
                assert ehrhart_uniform(n, r)[0] == 1

    def test_u24_counts(self):
        coeffs = ehrhart_uniform(4, 2)
        assert evaluate_polynomial(coeffs, 1) == 6
        assert (evaluate_polynomial(coeffs, 2),) == dilation_lattice_counts(
            uniform_matroid(4, 2), (2,))

    def test_matches_lattice_sweeps(self):
        for n in range(2, 8):
            for r in range(1, n):
                M = uniform_matroid(n, r)
                coeffs = ehrhart_uniform(n, r)
                counts = dilation_lattice_counts(M, range(n + 2))
                for k in range(n + 2):
                    assert evaluate_polynomial(coeffs, k) == counts[k]

    def test_integer_values(self):
        coeffs = ehrhart_uniform(7, 3)
        for k in range(10):
            val = evaluate_polynomial(coeffs, k)
            assert val.denominator == 1 and val > 0

    def test_rank_two_positive_coefficients(self):
        for n in range(3, 41):
            assert all(c > 0 for c in ehrhart_uniform(n, 2))


class TestClosedFormChecks:
    """Both closed forms share one range check and one work cap, taken
    before any term: (n + 1)^2 (min(r, n - r) + 1) closed-form steps."""

    @pytest.mark.parametrize("closed_form", [hstar_uniform, ehrhart_uniform])
    def test_range_is_checked_before_the_cap(self, closed_form, monkeypatch):
        monkeypatch.setenv("MATROPT_BASES_CAP", "0")  # the range comes first
        for n, r in ((4, 4), (4, 0), (1, 1), (-1, 2)):
            with pytest.raises(DimensionError, match="need 1 <= r <= n-1"):
                closed_form(n, r)

    @pytest.mark.parametrize("closed_form", [hstar_uniform, ehrhart_uniform])
    def test_cap_boundary(self, closed_form, monkeypatch):
        # U(2,4): 5^2 * 3 = 75; U(1,4) and U(3,4): 5^2 * 2 = 50.
        for (n, r), steps in (((4, 2), 75), ((4, 1), 50), ((4, 3), 50)):
            expected = closed_form(n, r)
            monkeypatch.setenv("MATROPT_BASES_CAP", str(steps))
            assert closed_form(n, r) == expected
            monkeypatch.setenv("MATROPT_BASES_CAP", str(steps - 1))
            with pytest.raises(CapError, match=f"{steps} closed-form steps exceed cap"):
                closed_form(n, r)
            monkeypatch.delenv("MATROPT_BASES_CAP")

    def test_default_cap_refuses_large_n(self, monkeypatch):
        # 1001^2 * 11 = 11,022,011 steps, above the default 10^7.
        monkeypatch.delenv("MATROPT_BASES_CAP", raising=False)
        for closed_form in (hstar_uniform, ehrhart_uniform):
            with pytest.raises(CapError, match="11022011 closed-form steps exceed cap 10000000"):
                closed_form(1000, 10)


class TestHStarFromCounts:
    def test_segment(self):
        assert hstar_from_counts([1, 2, 3], 1) == (1,)

    def test_k4(self, k4):
        counts = dilation_lattice_counts(k4, range(6))
        assert hstar_from_counts(counts, 5) == (1, 10, 20, 10, 1)

    def test_u24(self, u24):
        counts = dilation_lattice_counts(u24, range(4))
        assert hstar_from_counts(counts, 3) == (1, 2, 1)

    def test_wrong_dimension_raises(self):
        counts = [1, 6, 19, 44, 85]  # U(2,4) is 3-dimensional, not 2
        with pytest.raises(InternalInconsistencyError):
            hstar_from_counts(counts, 2)
