"""Projection, Pareto filtering, bounding boxes, objectives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_weight_matrix
from matropt import (
    DimensionError,
    Linear,
    MinMax,
    QuarticDistance,
    SquaredDistance,
    WeightMatrix,
    bounding_box,
    enumerate_bases,
    pareto_filter,
    project,
)
from matropt.multicriteria import dominates


class TestProject:
    def test_all_ones_row_gives_rank(self, k4):
        W = WeightMatrix(((1, 1, 1, 1, 1, 1),))
        for b in enumerate_bases(k4):
            assert project(W, b) == (3,)

    def test_single_row_arithmetic(self):
        W = WeightMatrix(((1, 2, 3, 4),))
        assert project(W, (0, 1)) == (3,)

    def test_two_rows(self):
        W = WeightMatrix(((1, 0, 1, 0), (0, 1, 0, 1)))
        assert project(W, (0, 1)) == (1, 1)

    def test_dimension_mismatch(self, u24):
        W = WeightMatrix(((1, 2, 3),))
        with pytest.raises(DimensionError):
            project(W, (0, u24.n - 1))


class TestWeightMatrix:
    def test_non_integral_weights_raise(self):
        # Truncating them would project the bases for other weights.
        for rows in (((Fraction(5, 2), 1, 1), (0, 1, 1)), ((1, 1, 1), (0, 0.9, 1))):
            with pytest.raises(DimensionError):
                WeightMatrix(rows)

    def test_whole_weights_become_ints(self):
        W = WeightMatrix(((Fraction(4, 2), 1.0, True),))
        assert W.rows == ((2, 1, 1),)
        assert all(type(x) is int for x in W.rows[0])


class TestPareto:
    def test_simple_domination(self):
        assert pareto_filter({(1, 2), (2, 1), (2, 2)}) == {(1, 2), (2, 1)}

    def test_singleton(self):
        assert pareto_filter({(5, 7)}) == {(5, 7)}

    def test_u24_brute_force(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        points = {project(W, b) for b in enumerate_bases(u24)}
        expected = {
            p for p in points if not any(dominates(q, p) for q in points if q != p)
        }
        assert pareto_filter(points) == expected

    def test_minmax_optimum_is_pareto(self):
        # A minmax argmin never gets filtered out, over random instances.
        rng = random.Random(5)
        minmax = MinMax()
        for _ in range(100):
            pts = {tuple(rng.randint(0, 20) for _ in range(3)) for _ in range(rng.randint(1, 15))}
            best = min(pts, key=lambda p: (minmax(p), p))
            front = pareto_filter(pts)
            assert any(minmax(q) == minmax(best) for q in front)
            # the specific argmin is dominated only by an equal-minmax point
            assert best in front or any(
                dominates(q, best) and minmax(q) <= minmax(best) for q in front
            )

    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_filter_is_tight(self, pts):
        front = pareto_filter(pts)
        assert front <= pts
        for p in pts:  # everything is dominated-or-equal by some survivor
            assert any(q == p or dominates(q, p) for q in front)
        for q in front:  # survivors are mutually incomparable
            assert not any(dominates(p, q) for p in front)


class TestMinMax:
    def test_examples(self):
        assert MinMax()((3, 5, 2)) == 5
        assert MinMax()((7,)) == 7

    def test_argmin_matches_brute_force(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        points = [project(W, b) for b in enumerate_bases(u24)]
        assert min(MinMax()(p) for p in points) == min(max(p) for p in points)


class TestBoundingBox:
    def test_u24_single_row(self, u24):
        W = WeightMatrix(((1, 2, 3, 4),))
        lo, hi = bounding_box(u24, W)
        values = {project(W, b)[0] for b in enumerate_bases(u24)}
        assert lo == (min(values),) == (3,)
        assert hi == (max(values),) == (7,)

    def test_all_ones_degenerate(self, k4):
        W = WeightMatrix(((1,) * 6,))
        lo, hi = bounding_box(k4, W)
        assert lo == hi == (3,)

    def test_contains_all_projections(self, k4):
        rng = random.Random(9)
        W = WeightMatrix(random_weight_matrix(rng, 2, 6))
        lo, hi = bounding_box(k4, W)
        for b in enumerate_bases(k4):
            p = project(W, b)
            assert all(a <= x <= c for a, x, c in zip(lo, p, hi))

    def test_matches_brute_force_on_catalog(self, catalog):
        rng = random.Random(2)
        for M in catalog:
            bases = enumerate_bases(M)
            if len(bases) > 200:
                continue
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, lo=-10, hi=10))
            lo, hi = bounding_box(M, W)
            pts = [project(W, b) for b in bases]
            for i in range(2):
                assert lo[i] == min(p[i] for p in pts)
                assert hi[i] == max(p[i] for p in pts)

    def test_distinct_point_count_bound(self, catalog):
        rng = random.Random(3)
        for M in catalog:
            bases = enumerate_bases(M)
            if len(bases) > 200:
                continue
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, lo=0, hi=5))
            lo, hi = bounding_box(M, W)
            pts = {project(W, b) for b in bases}
            volume = 1
            for a, b in zip(lo, hi):
                volume *= b - a + 1
            assert len(pts) <= volume


class TestObjectives:
    def test_linear(self):
        assert Linear((2, -1))((3, 4)) == 2

    def test_squared_distance_zero_at_target(self):
        obj = SquaredDistance((5, 6))
        assert obj((5, 6)) == 0
        assert obj((6, 6)) == 1

    def test_quartic_distance(self):
        obj = QuarticDistance((0, 0))
        assert obj((2, 1)) == 17

    def test_minmax_objective(self):
        assert MinMax()((3, 9, 1)) == 9

    def test_integer_data_gives_int(self):
        point = (3, 9)
        for obj in (SquaredDistance((5, 6)), QuarticDistance((5, 6)), MinMax(), Linear((2, -1))):
            assert type(obj(point)) is int
        assert SquaredDistance((5, 6))(point) == 13
        assert QuarticDistance((5, 6))(point) == 97

    def test_rational_coefficient_stays_exact(self):
        value = Linear((Fraction(1, 2), 1))((3, 4))
        assert type(value) is Fraction
        assert value == Fraction(11, 2)

    def test_length_mismatch(self):
        for obj in (Linear((1, 2)), SquaredDistance((1, 2)), QuarticDistance((1, 2))):
            with pytest.raises(DimensionError):
                obj((1, 2, 3))

    def test_weight_matrix_validation(self):
        with pytest.raises(DimensionError):
            WeightMatrix(((1, 2), (1,)))
