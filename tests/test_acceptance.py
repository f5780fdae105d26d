"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Every expected value is either a published constant or recomputed here by an
independent brute-force route; nothing is loosened.  Each test prints a
PASS line with its elapsed time (run with -s to see them).
"""

import random
import time
from fractions import Fraction

from conftest import (
    catalog_connected,
    cell_lattice_determinant,
    composition_count,
    cone_triangulation,
    evaluate_polynomial,
    exchange_graphs,
    generic_lambda_of_terms,
    incidence_rows,
    interpolate_ehrhart,
    is_unimodal,
    is_unimodular_simplex,
    matroid_genfun,
    random_connected_graph,
    random_weight_matrix,
    reduced_determinant,
    specialize_count,
    todd_eval,
    vertex_cone,
)
from matropt import (
    Linear,
    WeightMatrix,
    boundary_pareto_search,
    boundary_start,
    bounded_composition_counts,
    dilation_lattice_counts,
    ehrhart_polynomial,
    ehrhart_uniform,
    enumerate_bases,
    exact_projected_set,
    fiber_bfs_driver,
    graphic_matroid,
    hstar_from_counts,
    hstar_uniform,
    incidence_vector,
    laplacian_tree_count,
    local_search,
    pareto_filter,
    placing_triangulation,
    planar_convex_hull,
    project,
    projected_boundary,
    random_basis,
    spanning_trees,
    uniform_matroid,
)
from matropt.linalg import bareiss_det
from test_genfun import box_terms, todd_taylor_oracle

K4_EHRHART = (
    Fraction(1),
    Fraction(107, 30),
    Fraction(21, 4),
    Fraction(49, 12),
    Fraction(7, 4),
    Fraction(7, 20),
)
K4_HSTAR = (1, 10, 20, 10, 1)


class budget:
    """Assert the wall-clock budget of a criterion and print its PASS line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.2f}s / budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        else:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
        return False


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


def test_criterion_01_basis_counts(k4, u24):
    with budget("criterion 1: basis counts", 1):
        assert len(enumerate_bases(u24)) == 6
        assert len(enumerate_bases(k4)) == 16


def test_criterion_02_spanning_tree_enumeration(k4):
    with budget("criterion 2: spanning-tree enumeration", 5):
        solids = [
            (k4, 16),
            (graphic_matroid(cube_adjacency()), 384),
            (graphic_matroid(octahedron_adjacency()), 384),
        ]
        for M, expected in solids:
            nv, edges = M.nv, M.edges
            trees = list(spanning_trees(nv, edges))
            assert len(trees) == expected
            assert len(set(trees)) == expected
            assert laplacian_tree_count(nv, edges) == expected


def test_criterion_03_k4_ehrhart_pipeline(k4):
    with budget("criterion 3: K4 Ehrhart via the full pipeline", 120):
        coeffs = ehrhart_polynomial(k4)
        assert coeffs == K4_EHRHART
        counts = dilation_lattice_counts(k4, range(6))
        assert interpolate_ehrhart(counts, 5) == K4_EHRHART
        assert hstar_from_counts(counts, 5) == K4_HSTAR


def test_k5_k33_ehrhart_by_lattice_points():
    # The pipeline's polynomial against lattice counts, each the number of
    # distinct sums of k bases: K5 at k <= 4 and K3,3 at k <= 5.
    with budget("K5 and K3,3 Ehrhart vs sums of bases", 60):
        for adj, kmax in (
            ([[int(i != j) for j in range(5)] for i in range(5)], 4),
            ([[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)], 5),
        ):
            M = graphic_matroid(adj)
            coeffs = ehrhart_polynomial(M)
            counts = dilation_lattice_counts(M, range(kmax + 1))
            for k in range(kmax + 1):
                assert counts[k] == evaluate_polynomial(coeffs, k), (M, k)


def test_criterion_04_uniform_machinery():
    with budget("criterion 4: uniform closed forms vs dilation counts", 60):
        u24 = uniform_matroid(4, 2)
        counts = dilation_lattice_counts(u24, range(4))
        assert hstar_uniform(4, 2) == (1, 2, 1) == hstar_from_counts(counts, 3)
        for n in range(2, 9):
            for r in range(1, n):
                M = uniform_matroid(n, r)
                coeffs = ehrhart_uniform(n, r)
                counts = dilation_lattice_counts(M, range(n + 2))  # k = 0 .. dim + 2
                for k in range(n + 2):
                    assert evaluate_polynomial(coeffs, k) == counts[k]


def test_criterion_05_composition_table_properties():
    with budget("criterion 5: composition-table symmetry/unimodality/rank relation", 60):
        from math import comb

        for n in range(1, 41):
            for r in range(1, 7):
                table = bounded_composition_counts(n, r)
                assert table == table[::-1]
                assert is_unimodal(table)
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


def test_criterion_06_conjecture_desk_slices():
    with budget("criterion 6: h* unimodality and rank-2 positivity, n <= 40", 60):
        for n in range(2, 41):
            for r in range(1, n):
                assert is_unimodal(hstar_uniform(n, r)), (n, r)
        for n in range(3, 41):
            assert all(c > 0 for c in ehrhart_uniform(n, 2)), n


def test_criterion_07_unimodular_triangulations():
    with budget("criterion 7: unimodular triangulations", 300):
        for M in catalog_connected(6):
            bases = enumerate_bases(M)
            pts = [incidence_vector(b, M.n) for b in bases]
            cells, _ = placing_triangulation(pts)
            for cell in cells:
                assert len(cell) == M.n
                rows = [pts[i] for i in cell]
                assert is_unimodular_simplex(rows, M)
                assert abs(bareiss_det(rows)) == M.rank
        for M in (m for m in catalog_connected(7) if m.n <= 7):
            for b in enumerate_bases(M):
                for cell in cone_triangulation(vertex_cone(M, b)):
                    if cell:
                        assert cell_lattice_determinant(cell) == 1


def test_criterion_08_todd_and_specialization():
    with budget("criterion 8: Todd evaluation and specialization", 30):
        rng = random.Random(88)
        for m in range(11):
            for s in range(1, 7):
                xis = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(s)]
                assert todd_eval(m, xis) == todd_taylor_oracle(m, xis)
        for trial in range(20):
            d = rng.randint(1, 4)
            sides = [rng.randint(1, 6) for _ in range(d)]
            expected = 1
            for a in sides:
                expected *= a + 1
            assert specialize_count(box_terms(sides)) == expected
        # Two independent generic vectors give identical counts.
        M = uniform_matroid(5, 2)
        terms = matroid_genfun(M)
        lam1 = generic_lambda_of_terms(terms)
        lam2 = tuple(31 ** p for p in range(5))
        for t in terms:
            for b in t.denominators:
                assert sum(x * y for x, y in zip(lam2, b)) != 0
        assert specialize_count(terms, lam1) == specialize_count(terms, lam2) == 10


def test_criterion_09_heuristic_oracle_properties():
    with budget("criterion 9: heuristic properties on 50 random graphs", 300):
        rng = random.Random(20260810)
        driver_checked = 0
        for trial in range(50):
            adj = random_connected_graph(rng, max_nodes=9, extra_hi=3)
            M = graphic_matroid(adj)
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, 0, 20))
            bases = enumerate_bases(M)
            exact_pts = set(exact_projected_set(M, W, bases=bases))
            hull = set(planar_convex_hull(exact_pts))
            truth = pareto_filter(exact_pts)

            # (d) local search with a linear objective hits the brute optimum
            obj = Linear((3, 2))
            best = min(obj(p) for p in exact_pts)
            found = local_search(M, W, obj, random_basis(M, random.Random(trial)))
            assert obj(project(W, found)) == best

            # (b) boundary walk covers the hull vertices, (a) stays exact
            start = boundary_start(M, W, random.Random(trial))
            pb = projected_boundary(M, W, start)
            pb_pts = {project(W, b) for b in pb}
            assert hull <= pb_pts <= exact_pts

            # (c) the Pareto sweep recovers the brute-force Pareto set
            bt = boundary_pareto_search(
                M, W, tries=6, seed=trial, searcher="ts", tabu_limit=20
            )
            bt_pts = {project(W, b) for b in bt}
            assert bt_pts == truth
            assert bt_pts <= exact_pts

            # (e) exhaustive driver equals the projected set when enumerable
            if len(bases) <= 200:
                driver_checked += 1
                witnesses = fiber_bfs_driver(
                    M, W, seed=trial, bfs_depth=M.n, num_searches=100_000,
                    boundary_retry_limit=60, random_retry_limit=3000,
                )
                assert witnesses.keys() == exact_pts
                assert all(M.is_basis(b) and project(W, b) == p for p, b in witnesses.items())
        assert driver_checked >= 25


def test_criterion_10_determinant_theory():
    with budget("criterion 10: exchange-graph determinant theory", 30):
        paper_rows = [
            (1, 1, 0, 0, 1, 0),
            (1, 1, 0, 0, 0, 1),
            (1, 0, 1, 1, 0, 0),
            (0, 1, 1, 1, 0, 0),
            (0, 0, 1, 0, 1, 1),
            (0, 0, 0, 1, 1, 1),
        ]
        reduced, det, rdet = reduced_determinant(paper_rows)
        assert reduced == [(2, 0, 1), (1, 2, 0), (0, 1, 2)]
        assert det == rdet == 9

        rng = random.Random(42)
        checked = 0
        while checked < 200:
            for M in catalog_connected(7):
                bases = enumerate_bases(M)
                if len(bases) < M.n:
                    continue
                rows = incidence_rows(M, rng.sample(bases, M.n))
                if bareiss_det(rows) == 0:
                    continue
                graphs = exchange_graphs(rows)
                assert len(graphs.row_components()) == len(graphs.column_components())
                _, d, rd = reduced_determinant(rows)
                assert d == rd
                checked += 1
                if checked >= 200:
                    break
