"""Exchange graphs, determinant reduction, unimodular simplices, 2-faces."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    catalog_connected,
    exchange_graphs,
    incidence_rows,
    is_unimodular_simplex,
    rank_component_relation,
    reduced_determinant,
)
from matropt import (
    DimensionError,
    NOT_A_2FACE,
    SQUARE_2FACE,
    classify_square_2face,
    enumerate_bases,
    incidence_vector,
    uniform_matroid,
)
from matropt.linalg import bareiss_det

PAPER_6x6 = [
    (1, 1, 0, 0, 1, 0),
    (1, 1, 0, 0, 0, 1),
    (1, 0, 1, 1, 0, 0),
    (0, 1, 1, 1, 0, 0),
    (0, 0, 1, 0, 1, 1),
    (0, 0, 0, 1, 1, 1),
]


class TestExchangeGraphs:
    def test_six_by_six_example(self):
        g = exchange_graphs(PAPER_6x6)
        assert g.row_edges == frozenset({(0, 1), (2, 3), (4, 5)})
        assert g.column_edges == frozenset({(0, 1), (2, 3), (4, 5)})
        assert len(g.row_components()) == 3
        assert len(g.column_components()) == 3

    def test_identical_rows_rejected(self):
        with pytest.raises(DimensionError):
            exchange_graphs([(1, 0), (1, 0)])

    def test_segment_identity(self):
        g = exchange_graphs([(1, 0), (0, 1)])
        assert g.row_edges == frozenset({(0, 1)})
        assert g.column_edges == frozenset({(0, 1)})

    def test_component_counts_agree_on_random_collections(self):
        rng = random.Random(17)
        checked = 0
        while checked < 200:
            for M in catalog_connected(7):
                bases = enumerate_bases(M)
                if len(bases) < M.n:
                    continue
                rows = incidence_rows(M, rng.sample(bases, M.n))
                if bareiss_det(rows) == 0:
                    continue
                g = exchange_graphs(rows)
                assert len(g.row_components()) == len(g.column_components())
                checked += 1
                if checked >= 200:
                    break


class TestReducedDeterminant:
    def test_paper_reduction(self):
        reduced, det, rdet = reduced_determinant(PAPER_6x6)
        assert reduced == [(2, 0, 1), (1, 2, 0), (0, 1, 2)]
        assert det == 9
        assert rdet == 9

    def test_direct_determinant_is_nine(self):
        assert abs(bareiss_det(PAPER_6x6)) == 9

    def test_single_component_gives_rank(self, u24):
        bases = enumerate_bases(u24)
        rows = incidence_rows(u24, bases[:4])
        if bareiss_det(rows) != 0:
            g = exchange_graphs(rows)
            if len(g.row_components()) == 1:
                reduced, det, rdet = reduced_determinant(rows)
                assert len(reduced) == 1
                assert reduced[0][0] == u24.rank
                assert det == rdet == u24.rank

    def test_dependent_rows_rejected(self):
        rows = [(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)]
        assert bareiss_det(rows) == 0
        with pytest.raises(DimensionError):
            reduced_determinant(rows)

    def test_identity_holds_on_random_collections(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            for M in catalog_connected(7):
                bases = enumerate_bases(M)
                if len(bases) < M.n:
                    continue
                rows = incidence_rows(M, rng.sample(bases, M.n))
                if bareiss_det(rows) == 0:
                    continue
                _, det, rdet = reduced_determinant(rows)
                assert det == rdet
                checked += 1
                if checked >= 200:
                    break

    def test_det_multiple_of_rank_when_connected(self):
        rng = random.Random(29)
        for M in catalog_connected(7):
            bases = enumerate_bases(M)
            if len(bases) < M.n:
                continue
            for _ in range(20):
                rows = incidence_rows(M, rng.sample(bases, M.n))
                det = abs(bareiss_det(rows))
                if det != 0:
                    assert det % M.rank == 0


class TestUnimodularSimplex:
    def test_segment_identity_rows(self):
        M = uniform_matroid(2, 1)
        assert is_unimodular_simplex([(1, 0), (0, 1)], M)

    def test_paper_collection_is_not(self):
        # |det| = 9 while a rank-3 unimodular simplex needs 3.
        class Rank3:
            n, rank = 6, 3

        assert abs(bareiss_det(PAPER_6x6)) == 9
        assert not is_unimodular_simplex(PAPER_6x6, Rank3)

    def test_g_connected_implies_unimodular(self):
        # Exhaustive over n-subsets of bases, small catalog.
        for M in catalog_connected(6):
            bases = enumerate_bases(M)
            if len(bases) < M.n or len(bases) > 12:
                continue
            for combo in combinations(bases, M.n):
                rows = incidence_rows(M, combo)
                if bareiss_det(rows) == 0:
                    continue
                g = exchange_graphs(rows)
                if len(g.row_components()) == 1:
                    assert is_unimodular_simplex(rows, M)

    def test_placing_cells_are_unimodular(self):
        from matropt import placing_triangulation

        for M in catalog_connected(5):
            bases = enumerate_bases(M)
            pts = [incidence_vector(b, M.n) for b in bases]
            cells, _ = placing_triangulation(pts)
            for cell in cells:
                if len(cell) == M.n:
                    assert is_unimodular_simplex([pts[i] for i in cell], M)


class TestRankComponentRelation:
    def test_segment(self):
        rank, comps = rank_component_relation([(1, 0), (0, 1)])
        assert (rank, comps) == (2, 1)
        assert rank == 2 + 1 - comps

    def test_relation_on_dropped_exchange(self):
        # Rows of a row-connected collection missing one column exchange:
        # the column graph splits and the rank drops accordingly.
        rows = [
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
        ]
        g = exchange_graphs(rows)
        if len(g.row_components()) == 1:
            rank, comps = rank_component_relation(rows)
            assert rank == len(rows[0]) + 1 - comps

    def test_relation_holds_on_random_connected(self):
        rng = random.Random(31)
        checked = 0
        while checked < 100:
            for M in catalog_connected(6):
                bases = enumerate_bases(M)
                if len(bases) < M.n:
                    continue
                rows = incidence_rows(M, rng.sample(bases, M.n))
                g = exchange_graphs(rows)
                if len(g.row_components()) != 1:
                    continue
                rank, comps = rank_component_relation(rows)
                assert rank == M.n + 1 - comps
                if comps == 1:
                    assert rank == M.n
                    assert abs(bareiss_det(rows)) == M.rank
                checked += 1
                if checked >= 100:
                    break

    def test_disconnected_rows_rejected(self):
        rows = [(1, 1, 0, 0), (0, 0, 1, 1)]
        with pytest.raises(DimensionError):
            rank_component_relation(rows)


class TestSquare2Face:
    def test_uniform_never_square(self, u24):
        w1 = (1, 1, 0, 0)
        w2 = (1, 0, 1, 0)  # w1 + e3 - e2
        w3 = (0, 1, 0, 1)  # w1 + e4 - e1
        w4 = (0, 0, 1, 1)
        assert classify_square_2face(u24, w1, w2, w3, w4) == NOT_A_2FACE

    def test_product_of_segments_is_square(self):
        from conftest import square_matroid

        M = square_matroid()
        w1 = (1, 0, 1, 0)
        w2 = (0, 1, 1, 0)
        w3 = (1, 0, 0, 1)
        w4 = (0, 1, 0, 1)
        assert classify_square_2face(M, w1, w2, w3, w4) == SQUARE_2FACE

    def test_malformed_pattern_rejected(self, u24):
        w1 = (1, 1, 0, 0)
        w2 = (1, 0, 1, 0)
        with pytest.raises(DimensionError):
            classify_square_2face(u24, w1, w2, w2, w1)

    def test_fractional_corner_rejected(self, u24):
        # Truncated to 1, the 3/2 would turn the corners into a valid
        # parallelogram of U(2,4), which is not a 2-face.
        rest = [(0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)]
        with pytest.raises(DimensionError, match="0/1"):
            classify_square_2face(u24, (Fraction(3, 2), 1, 0, 0), *rest)
        assert classify_square_2face(u24, (Fraction(1), 1, 0, 0), *rest) == NOT_A_2FACE

    def test_candidates_never_a_third_shape(self):
        # Sweep all parallelogram quadruples of catalog vertices: each either
        # classifies (square or not) or violates the pattern, never a third
        # geometric shape.
        from matropt import DimensionError as DimErr

        for M in catalog_connected(6):
            bases = enumerate_bases(M)
            if len(bases) > 20:
                continue
            vecs = {incidence_vector(b, M.n) for b in bases}
            for w1 in vecs:
                for w2 in vecs:
                    diff1 = tuple(a - b for a, b in zip(w2, w1))
                    if sorted(diff1) != [-1] + [0] * (M.n - 2) + [1]:
                        continue
                    for w3 in vecs:
                        diff2 = tuple(a - b for a, b in zip(w3, w1))
                        if sorted(diff2) != [-1] + [0] * (M.n - 2) + [1]:
                            continue
                        w4 = tuple(a + b + c for a, b, c in zip(diff1, diff2, w1))
                        if tuple(w4) not in vecs:
                            continue
                        try:
                            verdict = classify_square_2face(M, w1, w2, w3, w4)
                        except DimErr:
                            continue
                        assert verdict in (SQUARE_2FACE, NOT_A_2FACE)


class TestAdjacentVerticesHyperplane:
    def test_common_hyperplane(self):
        # Neighbors of a vertex all satisfy sum over supp(v) == rank - 1.
        for M in catalog_connected(6):
            for b in enumerate_bases(M):
                supp = set(b)
                for nb in M.adjacent_bases(b):
                    overlap = len(supp & set(nb))
                    assert overlap == M.rank - 1
