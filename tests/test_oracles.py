"""Brute-force ground-truth routines: enumeration, trees, hulls, lattice counts."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import (
    catalog_small,
    cycle_adjacency,
    evaluate_polynomial,
    exchange_edge_cases,
    interpolate_ehrhart,
    polytope_constraints,
    random_connected_graph,
    rank_dimension,
)
from matropt import (
    CapError,
    DimensionError,
    InternalInconsistencyError,
    WeightMatrix,
    dilation_lattice_counts,
    ehrhart_uniform,
    enumerate_bases,
    exact_projected_set,
    graphic_matroid,
    laplacian_tree_count,
    planar_convex_hull,
    polytope_dimension,
    project,
    spanning_trees,
    uniform_matroid,
)
from matropt.matroid import VectorMatroid


def cube_adjacency():
    adj = [[0] * 8 for _ in range(8)]
    for u in range(8):
        for v in range(8):
            if bin(u ^ v).count("1") == 1:
                adj[u][v] = 1
    return adj


def octahedron_adjacency():
    adj = [[1] * 6 for _ in range(6)]
    for i in range(6):
        adj[i][i] = 0
    for i in range(3):
        adj[i][i + 3] = adj[i + 3][i] = 0
    return adj


class TestEnumerateBases:
    def test_u24_has_six(self, u24):
        assert len(enumerate_bases(u24)) == 6

    def test_k4_has_sixteen(self, k4):
        assert len(enumerate_bases(k4)) == 16

    def test_singleton(self):
        assert enumerate_bases(uniform_matroid(1, 1)) == [(0,)]

    def test_no_duplicates_and_all_valid(self, catalog):
        for M in catalog:
            bases = enumerate_bases(M)
            assert len(set(bases)) == len(bases)
            assert all(M.is_basis(b) for b in bases)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("MATROPT_BASES_CAP", "10")
        with pytest.raises(CapError):
            enumerate_bases(uniform_matroid(40, 20))

    def test_k7_count_and_the_basis_test(self):
        # Cayley's 7^5 spanning trees of K7 among its C(21, 6) = 54,264
        # six-edge subsets; the bases are those that the basis test accepts.
        k7 = graphic_matroid([[int(i != j) for j in range(7)] for i in range(7)])
        assert len(enumerate_bases(k7)) == 7 ** 5
        for M in catalog_small():
            bases = enumerate_bases(M)
            assert bases == [b for b in combinations(range(M.n), M.rank) if M.is_basis(b)]


class TestSpanningTrees:
    def test_tetrahedron_16(self, k4):
        nv, edges = k4.nv, k4.edges
        assert sum(1 for _ in spanning_trees(nv, edges)) == 16

    def test_cube_384(self):
        M = graphic_matroid(cube_adjacency())
        nv, edges = M.nv, M.edges
        assert sum(1 for _ in spanning_trees(nv, edges)) == 384

    def test_octahedron_384(self):
        M = graphic_matroid(octahedron_adjacency())
        nv, edges = M.nv, M.edges
        assert sum(1 for _ in spanning_trees(nv, edges)) == 384

    def test_tree_input_single(self):
        assert list(spanning_trees(3, [(0, 1), (1, 2)])) == [frozenset({0, 1})]

    def test_disconnected_rejected(self):
        with pytest.raises(DimensionError):
            list(spanning_trees(4, [(0, 1), (2, 3)]))

    def test_matches_basis_enumeration_and_laplacian(self):
        rng = random.Random(11)
        for _ in range(10):
            adj = random_connected_graph(rng, max_nodes=7)
            M = graphic_matroid(adj)
            nv, edges = M.nv, M.edges
            trees = list(spanning_trees(nv, edges))
            assert len(set(trees)) == len(trees)
            assert {tuple(sorted(t)) for t in trees} == set(enumerate_bases(M))
            assert len(trees) == laplacian_tree_count(nv, edges)

    def test_every_emission_is_a_tree(self, k4):
        nv, edges = k4.nv, k4.edges
        for t in spanning_trees(nv, edges):
            assert k4.is_basis(t)


class TestExactProjectedSet:
    def test_all_ones_single_point(self, k4):
        W = WeightMatrix(((1,) * 6,))
        fibers = exact_projected_set(k4, W)
        assert fibers == {(3,): 16}

    def test_u24_multiset(self, u24):
        W = WeightMatrix(((1, 2, 3, 4),))
        fibers = exact_projected_set(u24, W)
        assert fibers == {(3,): 1, (4,): 1, (5,): 2, (6,): 1, (7,): 1}
        assert len(fibers) == 5

    def test_injective_weights_separate_all(self, k4):
        W = WeightMatrix(((1, 2, 4, 8, 16, 32),))
        fibers = exact_projected_set(k4, W)
        assert len(fibers) == 16
        assert all(c == 1 for c in fibers.values())


class TestPlanarHull:
    def test_square_with_center(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]
        hull = planar_convex_hull(pts + [(0, 0)])
        assert set(hull) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_collinear(self):
        assert planar_convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]

    def test_counterclockwise_order(self):
        hull = planar_convex_hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        area2 = 0
        for i in range(len(hull)):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % len(hull)]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0  # positive signed area = CCW

    def test_starts_at_the_smallest_point(self):
        # The lower-left Pareto chain of the heuristics reads the hull from
        # its first vertex, so that vertex must be the lexicographic minimum.
        rng = random.Random(35)
        for size in [1, 2, 3, 5, 8, 13, 40] * 10:
            span = rng.choice([1, 3, 20])
            points = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(size)]
            assert planar_convex_hull(points)[0] == min(points)

    def test_k4_projection_extremeness_recount(self, k4):
        # Second oracle: a point is extreme iff it is not a convex combination
        # of the others, tested by exhaustive orientation checks.
        W = WeightMatrix(((3, 1, 4, 1, 5, 9), (2, 7, 1, 8, 2, 8)))
        pts = sorted({project(W, b) for b in enumerate_bases(k4)})
        hull = planar_convex_hull(pts)

        def strictly_inside_or_boundary_nonextreme(p, others):
            # p is non-extreme iff p is in conv(others): test via LP-free
            # sweep of all triangles and segments (small point sets only).
            for a, b, c in combinations(others, 3):
                if _orient(a, b, c) == 0:
                    continue  # degenerate triangle: covered by segments
                d1 = _orient(a, b, p)
                d2 = _orient(b, c, p)
                d3 = _orient(c, a, p)
                if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
                    return True
            for a, b in combinations(others, 2):
                if _orient(a, b, p) == 0 and _between(a, b, p):
                    return True
            return False

        def _between(a, b, p):
            return (
                min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
            )

        extreme = [
            p for p in pts
            if not strictly_inside_or_boundary_nonextreme(p, [q for q in pts if q != p])
        ]
        assert set(hull) == set(extreme)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


class TestDilationCounts:
    def test_k0_is_one(self, catalog):
        for M in catalog:
            assert dilation_lattice_counts(M, (0,)) == (1,)

    def test_k4_k1_is_vertex_count(self, k4):
        assert dilation_lattice_counts(k4, (1,)) == (16,)

    def test_u24_k1_is_vertex_count(self, u24):
        assert dilation_lattice_counts(u24, (1,)) == (6,)

    def test_counts_nondecreasing(self, k4, u24):
        for M in (k4, u24):
            counts = dilation_lattice_counts(M, range(5))
            assert list(counts) == sorted(counts)

    def test_negative_factor_raises(self, k4, u24):
        for M in (k4, u24):
            for ks in ((-1,), (0, 1, -1)):
                with pytest.raises(DimensionError):
                    dilation_lattice_counts(M, ks)

    def test_table_equals_single_factors(self, k4, u24):
        # One sweep for the table, one per factor alone: the same counts,
        # in the order asked, empty for no factors.
        for M in (k4, u24):
            table = dilation_lattice_counts(M, range(5))
            assert table == tuple(dilation_lattice_counts(M, (k,))[0] for k in range(5))
            assert dilation_lattice_counts(M, (4, 0, 2)) == (table[4], table[0], table[2])
            assert dilation_lattice_counts(M, ()) == ()

    def test_sweep_matches_constraint_filter(self):
        # Cross-check the sums of bases against a plain box scan with the
        # full subset-constraint membership test: the 4-cycle, and the
        # vector matroids with three components, with a loop and with
        # parallel columns.
        cases = [(graphic_matroid(cycle_adjacency(4)), 3)] + [
            (M, 2 if M.n > 5 else 3) for M in exchange_edge_cases()
            if isinstance(M, VectorMatroid)]
        for M, kmax in cases:
            pc = polytope_constraints(M)
            counts = dilation_lattice_counts(M, range(kmax + 1))
            for k in range(kmax + 1):
                direct = sum(pc.contains(p, k=k) for p in _box_points(M.n, k, k * M.rank))
                assert counts[k] == direct, (M, k)

    def test_cycle_beyond_sixteen_elements(self):
        # The 17-cycle's polytope is a simplex, so L(k) = C(k + 16, 16).
        M = graphic_matroid(cycle_adjacency(17))
        assert dilation_lattice_counts(M, range(5)) == tuple(
            comb(k + 16, 16) for k in range(5))

    def test_sums_cap_boundary(self, k4, monkeypatch):
        # Step j forms |S_(j-1)| * #bases sums: the cap on their total
        # through step k passes at exactly that total and stops one below.
        # Enumerating K4's bases checks C(6,3) = 20 against the same cap.
        # The table for k' <= k sweeps the same steps, so it has the same
        # boundary as k alone.
        counts = dilation_lattice_counts(k4, range(4))
        for k in (2, 3):
            work = len(enumerate_bases(k4)) * sum(counts[:k])
            monkeypatch.setenv("MATROPT_BASES_CAP", str(work))
            assert dilation_lattice_counts(k4, (k,)) == (counts[k],)
            assert dilation_lattice_counts(k4, range(k + 1)) == counts[:k + 1]
            monkeypatch.setenv("MATROPT_BASES_CAP", str(work - 1))
            for ks in ((k,), range(k + 1)):
                with pytest.raises(CapError):
                    dilation_lattice_counts(k4, ks)

    def test_uniform_table_cap_boundary(self, u24, monkeypatch):
        # U(2,4) at k = 3 builds tables of 3m + 1 entries for m = 1..4.
        # The table for k <= 3 is held to k = 3's boundary.
        counts, entries = dilation_lattice_counts(u24, range(4)), 4 + 7 + 10 + 13
        monkeypatch.setenv("MATROPT_BASES_CAP", str(entries))
        assert dilation_lattice_counts(u24, (3,)) == counts[3:]
        assert dilation_lattice_counts(u24, range(4)) == counts
        monkeypatch.setenv("MATROPT_BASES_CAP", str(entries - 1))
        for ks in ((3,), range(4)):
            with pytest.raises(CapError):
                dilation_lattice_counts(u24, ks)
        monkeypatch.delenv("MATROPT_BASES_CAP")
        with pytest.raises(CapError):  # the last table alone: 4 * 10^8 + 1 entries
            dilation_lattice_counts(u24, (10**8,))

    def test_no_tables_outlive_the_call(self):
        # Each composition table is dropped once its count is read: a table
        # for k <= 200 on U(4,8) builds 200 tables of up to 1,601 entries
        # each, and leaves less than 1 MB behind.
        M = uniform_matroid(8, 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = dilation_lattice_counts(M, range(201))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        coeffs = ehrhart_uniform(8, 4)
        assert [counts[k] for k in (0, 1, 200)] == [
            evaluate_polynomial(coeffs, k) for k in (0, 1, 200)]
        assert held < 2**20, f"{held} bytes held after the call"

    @pytest.mark.slow
    def test_k5_at_five(self, monkeypatch):
        # |S_0| + ... + |S_4| = 1 + 125 + 3,425 + 40,275 + 282,675 = 326,501
        # sums, each added to all 125 bases: over the default cap, so the
        # cap is raised to that.  The count is K5's pinned Ehrhart
        # polynomial at k = 5.
        monkeypatch.setenv("MATROPT_BASES_CAP", str(326_501 * 125))
        M = graphic_matroid([[int(i != j) for j in range(5)] for i in range(5)])
        assert dilation_lattice_counts(M, (5,)) == (1_409_975,)

    def test_uniform_fast_path_matches_general_sweep(self):
        # Same matroid through the vector backend exercises the sums of bases.
        from matropt import vector_matroid

        M_uniform = uniform_matroid(4, 2)
        M_vector = vector_matroid([[1, 0, 1, 1], [0, 1, 1, 2]])  # also U(2,4)
        assert set(enumerate_bases(M_vector)) == set(enumerate_bases(M_uniform))
        assert dilation_lattice_counts(M_uniform, range(5)) == dilation_lattice_counts(
            M_vector, range(5))


def _box_points(n, cap, total):
    def rec(i, remaining):
        if i == n:
            if remaining == 0:
                yield ()
            return
        for v in range(min(cap, remaining) + 1):
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    yield from rec(0, total)


class TestInterpolation:
    def test_segment(self):
        coeffs = interpolate_ehrhart([1, 2, 3, 4], 1)
        assert coeffs == (Fraction(1), Fraction(1))

    def test_k4_table(self, k4):
        counts = dilation_lattice_counts(k4, range(6))
        coeffs = interpolate_ehrhart(counts, 5)
        assert coeffs == (
            Fraction(1),
            Fraction(107, 30),
            Fraction(21, 4),
            Fraction(49, 12),
            Fraction(7, 4),
            Fraction(7, 20),
        )

    def test_u24_volume_consistency(self, u24):
        counts = dilation_lattice_counts(u24, range(5))
        coeffs = interpolate_ehrhart(counts, 3)
        # leading coefficient * dim! = normalized volume = sum of h*
        assert coeffs[-1] * 6 == 4

    def test_overdetermined_agreement(self, u24):
        counts = dilation_lattice_counts(u24, range(7))
        assert interpolate_ehrhart(counts, 3) == interpolate_ehrhart(counts[:4], 3)

    def test_inconsistent_counts_raise(self):
        with pytest.raises(InternalInconsistencyError):
            interpolate_ehrhart([1, 2, 3, 5], 1)

    def test_evaluation(self):
        coeffs = (Fraction(1), Fraction(1, 2), Fraction(1, 2))
        assert evaluate_polynomial(coeffs, 3) == 1 + Fraction(3, 2) + Fraction(9, 2)


class TestDimension:
    def test_connected_catalog(self, k4, u24):
        assert polytope_dimension(k4, (0, 1, 2)) == 5
        assert polytope_dimension(u24, (0, 1)) == 3

    def test_direct_sum_loses_dimensions(self):
        from conftest import square_matroid

        M = square_matroid()
        assert polytope_dimension(M, enumerate_bases(M)[0]) == 2

    def test_circuit_route_matches_rank_route(self):
        # n minus the components of a basis's fundamental-circuit graph, for
        # every basis, against the rank of the edge directions over every
        # basis; loops, coloops, parallel elements and several components
        # among them.  By Krogdahl every basis's graph has the matroid's
        # components.
        for M in catalog_small() + exchange_edge_cases():
            bases = enumerate_bases(M)
            dims = {polytope_dimension(M, b) for b in bases}
            assert dims == {rank_dimension(M, bases)}, M
