"""Visibility LP, placing triangulations, cone triangulations, half-open cells,
and the spanning-tree cells of vertex cones against the placing oracle."""

import random
from fractions import Fraction

import pytest

from conftest import (
    HalfOpenSimplicialCone,
    VertexCone,
    _mask_rooted_forest,
    _mask_tree_coordinates,
    catalog_connected,
    catalog_small,
    cell_lattice_determinant,
    cone_generators,
    cone_triangulation,
    disconnected_matroids,
    exchange_edge_cases,
    fraction_solve,
    generic_y_for_cells,
    half_open_cells,
    half_open_contains,
    half_open_decompose,
    join_to_apex,
    pairs_of_adjacent_bases,
    placing_with_facet_normals,
    rational_kernel_basis,
    scaled_to_integers,
    seeded_rational_point_sets,
    tree_cells_both_supplies,
    vertex_cone,
    visible,
)
from matropt import (
    DimensionError,
    Matroid,
    ehrhart_polynomial,
    enumerate_bases,
    graphic_matroid,
    hstar_from_counts,
    dilation_lattice_counts,
    incidence_vector,
    placing_triangulation,
    polytope_dimension,
    tangent_cone,
    tree_cells,
    uniform_matroid,
    vector_matroid,
)
from matropt.genfun import _orbit_cones


class TestVisible:
    SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_point_below_bottom_edge(self):
        assert visible([(0, 0), (1, 0)], self.SQUARE, (Fraction(1, 2), -1))

    def test_point_above_bottom_edge(self):
        assert not visible([(0, 0), (1, 0)], self.SQUARE, (Fraction(1, 2), 2))

    def test_pentagon_two_facets(self):
        # Regular-ish pentagon, integer coordinates; v sits beyond two edges.
        penta = [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]
        edges = [(penta[i], penta[(i + 1) % 5]) for i in range(5)]
        v = (7, 2)

        def sign_test(edge):
            # Independent oracle: v is beyond the edge iff it is strictly on
            # the non-polygon side of the edge's supporting line.
            (x1, y1), (x2, y2) = edge
            def orient(px, py):
                return (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            inner = [orient(*p) for p in penta if orient(*p) != 0]
            return all(s > 0 for s in inner) and orient(*v) < 0 or \
                   all(s < 0 for s in inner) and orient(*v) > 0

        for edge in edges:
            assert visible(list(edge), penta, v) == sign_test(edge)
        assert sum(visible(list(e), penta, v) for e in edges) == 2

    def test_degenerate_facet_raises(self):
        with pytest.raises(DimensionError):
            visible([(0, 0), (1, 1), (2, 2)], self.SQUARE + [(2, 2)], (5, 0))


class TestPlacingTriangulation:
    def test_affinely_independent_single_cell(self):
        cells, volumes = placing_triangulation([(0, 0), (1, 0), (0, 1)])
        assert cells == [(0, 1, 2)]
        assert volumes == [1]

    def test_unit_square_two_triangles(self):
        cells, volumes = placing_triangulation([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert len(cells) == 2
        assert volumes == [1, 1]
        assert all(len(c) == 3 for c in cells)
        covered = set()
        for c in cells:
            covered |= set(c)
        assert covered == {0, 1, 2, 3}

    def test_a_permuted_list_is_placed_in_its_own_order(self):
        # (1, 1) lies on the edge from (2, 0) to (0, 2): placed last it sees
        # no facet and stays unused, placed first it joins both cells.
        pts = [(0, 0), (2, 0), (0, 2), (1, 1)]
        assert placing_triangulation(pts)[0] == [(0, 1, 2)]
        order = (3, 0, 1, 2)
        cells, volumes = placing_triangulation([pts[g] for g in order])
        assert cells == [(0, 1, 2), (0, 1, 3)] and volumes == [2, 2]
        assert [tuple(sorted(order[i] for i in c)) for c in cells] == [(0, 1, 3), (0, 2, 3)]

    def test_interior_points_left_unused(self):
        # A point inside the current hull sees no facet, so it joins no cell;
        # configurations may legitimately triangulate on a subset.
        cells, _ = placing_triangulation([(0, 0), (2, 0), (1, 0), (0, 1)])
        assert cells == [(0, 1, 3)]

    def test_duplicates_ignored(self):
        # A repeated point lies in the current hull, so it sees no facet.
        cells, _ = placing_triangulation([(0, 0), (1, 0), (0, 0), (0, 1)])
        assert all(2 not in c for c in cells)
        cells, _ = placing_triangulation([(0, 0), (0, 0), (1, 0), (0, 1)])
        assert cells == [(0, 2, 3)]

    def test_non_int_coordinates_raise(self):
        # Placing takes integer points; a rational set is scaled by its
        # caller, and a Fraction or float is refused even when it is whole.
        for bad in (Fraction(1, 2), Fraction(1), 1.0):
            with pytest.raises(DimensionError):
                placing_triangulation([(0, 0), (1, 0), (0, bad)])
        assert placing_triangulation([(0, 0), (1, 0), (0, True)])[0] == [(0, 1, 2)]

    def test_volume_coverage_on_polytopes(self):
        # Sum of simplex volumes (over the affine lattice of the polytope)
        # equals the normalized volume from an independent count route.
        for M in catalog_connected(6):
            bases = enumerate_bases(M)
            pts = [incidence_vector(b, M.n) for b in bases]
            cells, _ = placing_triangulation(pts)
            dim = polytope_dimension(M, bases[0])
            total = 0
            for cell in cells:
                assert len(cell) == dim + 1
                first = pts[cell[0]]
                total += cell_lattice_determinant(
                    [tuple(a - b for a, b in zip(pts[idx], first)) for idx in cell[1:]]
                )
            counts = dilation_lattice_counts(M, range(dim + 1))
            assert total == sum(hstar_from_counts(counts, dim))

    def test_volumes_are_lattice_determinants(self, catalog):
        # Placing's volumes, determinants in the hull's pivot coordinates,
        # against the gcd of the maximal minors of each cell's edge vectors:
        # the disconnected square and U(2,3) + U(1,2) among them, the bases
        # in lexicographic order and three seeded shuffles of them, which
        # place cells of volumes 1 to 5 (about 3 s).
        two_components = vector_matroid([[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 2]])
        assert polytope_dimension(two_components, enumerate_bases(two_components)[0]) == 3
        rng = random.Random(5)
        seen = set()
        for M in [*catalog, two_components]:
            pts = [incidence_vector(b, M.n) for b in enumerate_bases(M)]
            for placed in [pts] + [rng.sample(pts, len(pts)) for _ in range(3)]:
                cells, volumes = placing_triangulation(placed)
                assert len(volumes) == len(cells)
                for cell, volume in zip(cells, volumes):
                    first = placed[cell[0]]
                    edges = [tuple(a - b for a, b in zip(placed[i], first)) for i in cell[1:]]
                    assert volume == cell_lattice_determinant(edges), (M, placed, cell)
                    seen.add(volume)
        assert seen == {1, 2, 3, 4, 5}

    def test_cells_inside_polytope_sampled(self, u24):
        from conftest import polytope_constraints

        bases = enumerate_bases(u24)
        pts = [incidence_vector(b, u24.n) for b in bases]
        cells, _ = placing_triangulation(pts)
        pc = polytope_constraints(u24)
        rng = random.Random(3)
        for cell in cells:
            for _ in range(5):
                weights = [Fraction(rng.randint(0, 5)) for _ in cell]
                if sum(weights) == 0:
                    continue
                s = sum(weights)
                point = [
                    sum(w * pts[idx][i] for w, idx in zip(weights, cell)) / s
                    for i in range(u24.n)
                ]
                assert pc.contains(point)


class TestPlacingMatchesFacetNormals:
    # The carried functionals against the loop that takes one kernel
    # elimination per boundary facet: the same cells in the same order.
    def test_catalog_polytopes(self, catalog):
        for M in catalog:  # U(3,7) among them
            pts = [incidence_vector(b, M.n) for b in enumerate_bases(M)]
            assert placing_triangulation(pts)[0] == placing_with_facet_normals(pts)[0], M

    def test_k33(self):
        # 8,923 cells: about 1.5 s for the library, 4.5 s for the oracle.
        M = graphic_matroid([[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)])
        pts = [incidence_vector(b, M.n) for b in enumerate_bases(M)]
        assert placing_triangulation(pts)[0] == placing_with_facet_normals(pts)[0]

    def test_seeded_rational_sets(self):
        # Duplicates, points inside the hull and shuffled orders, dims 1-4,
        # each set scaled to integer points for the library.  Placing a
        # permuted list permutes the cells of the reference run in that
        # insertion order.
        for rational, order in seeded_rational_point_sets(300):
            pts = scaled_to_integers(rational)
            assert placing_triangulation(pts)[0] == placing_with_facet_normals(pts)[0]
            shuffled = [pts[g] for g in order]
            cells = placing_triangulation(shuffled)[0]
            assert cells == placing_with_facet_normals(shuffled)[0]
            back = sorted(tuple(sorted(order[i] for i in c)) for c in cells)
            assert back == sorted(placing_with_facet_normals(pts, order)[0])


class TestTangentCone:
    def test_k4_has_six_generators(self, k4):
        cone = vertex_cone(k4, (0, 1, 2))
        assert len(cone.pairs) == 6
        diffs = [
            tuple(a - b for a, b in zip(incidence_vector(nb, 6), cone.apex))
            for nb in k4.adjacent_bases((0, 1, 2))
        ]
        assert cone_generators(cone) == tuple(diffs)  # in the order of adjacent_bases

    def test_pairs_match_adjacent_bases(self, catalog, monkeypatch):
        # Read off the fundamental circuits, in the sorted order of the
        # neighbours, which are never built: adjacent_bases is refused.  The
        # reference pairs come from single exchanges tried one by one.
        def refuse(self, basis):
            raise AssertionError("tangent_cone must not list neighbours")

        monkeypatch.setattr(Matroid, "adjacent_bases", refuse)
        for M in catalog + exchange_edge_cases():
            for b in enumerate_bases(M):
                assert tangent_cone(M, b) == pairs_of_adjacent_bases(M, b), (M, b)

    def test_rejects_non_basis(self, k4):
        with pytest.raises(DimensionError):
            tangent_cone(k4, (0, 1, 3))  # a triangle
        with pytest.raises(DimensionError):
            tangent_cone(k4, (0, 1, 1))

    def test_segment_single_generator(self):
        M = uniform_matroid(2, 1)
        cone = vertex_cone(M, (0,))
        assert cone.pairs == ((0, 1),)
        assert cone_generators(cone) == ((-1, 1),)

    def test_generators_sum_to_zero_total(self, catalog):
        for M in catalog:
            if M.n > 6:
                continue
            for b in enumerate_bases(M):
                for g in cone_generators(vertex_cone(M, b)):
                    assert sum(g) == 0

    def test_generator_count_bound(self, catalog):
        # Elementary-set bound: at most n|A| + n + |A| rays at a vertex e_A.
        for M in catalog:
            if M.n > 6:
                continue
            for b in enumerate_bases(M):
                assert len(tangent_cone(M, b)) <= M.n * len(b) + M.n + len(b)


class TestConeTriangulation:
    def test_simplicial_cone_is_itself(self):
        cone = VertexCone(apex=(1, 0, 0), pairs=((0, 1), (0, 2)))
        cells = cone_triangulation(cone)
        assert cells == [((-1, 1, 0), (-1, 0, 1))] or set(cells[0]) == {(-1, 1, 0), (-1, 0, 1)}

    def test_u24_vertex_cone_two_cells(self, u24):
        cells = cone_triangulation(vertex_cone(u24, (0, 1)))
        assert len(cells) == 2
        assert all(len(c) == 3 for c in cells)
        assert all(cell_lattice_determinant(c) == 1 for c in cells)

    def test_k4_vertex_cone_unimodular(self, k4):
        cells = cone_triangulation(vertex_cone(k4, (0, 1, 2)))
        assert all(cell_lattice_determinant(c) == 1 for c in cells)
        assert all(len(c) == 5 for c in cells)

    def test_all_catalog_cells_unimodular(self, catalog):
        for M in catalog:
            if M.n > 7:
                continue
            for b in enumerate_bases(M):
                for cell in cone_triangulation(vertex_cone(M, b)):
                    if cell:
                        assert cell_lattice_determinant(cell) == 1

    def test_join_to_apex_keeps_boundary_only(self):
        cells = [(0, 1, 2), (0, 2, 3)]
        joined = join_to_apex(cells, 0)
        assert sorted(joined) == [(0, 1, 2), (0, 2, 3)]

    def test_cell_count_bound(self, catalog):
        # Polynomial bound from the volume argument: 2^r * n!/(n-r)! cells.
        from math import perm

        for M in catalog:
            if M.n > 6:
                continue
            for b in enumerate_bases(M):
                cells = cone_triangulation(vertex_cone(M, b))
                assert len(cells) <= 2 ** M.rank * perm(M.n, M.rank)


class TestHalfOpen:
    def test_single_cell_stays_closed(self):
        cells = [((1, 0), (0, 1))]
        halves = half_open_decompose((0, 0), cells)
        assert halves[0].strict_indices == frozenset()

    def test_shared_facet_open_on_one_side(self):
        # Two cells of a half-plane cone share the ray through (1, 1).
        cells = [((1, 0), (1, 1)), ((1, 1), (0, 1))]
        halves = half_open_decompose((0, 0), cells)
        for point in [(2, 2), (1, 1), (3, 3)]:
            assert sum(half_open_contains(h, point) for h in halves) == 1
        for point in [(1, 0), (0, 1), (2, 1), (1, 2)]:
            assert sum(half_open_contains(h, point) for h in halves) == 1

    def test_not_generic_y_raises(self):
        cells = [((1, 0), (1, 1)), ((1, 1), (0, 1))]
        with pytest.raises(DimensionError):
            half_open_decompose((0, 0), cells, y=(1, 1))  # on the shared wall
        # A cell with linearly dependent generators has no coordinates for
        # any y, whether supplied or constructed.
        dependent = [((1, 0), (2, 0))]
        for y in [(3, 0), None]:
            with pytest.raises(DimensionError):
                half_open_decompose((0, 0), dependent, y=y)

    def test_exterior_y_rejected(self):
        cells = [((1, 0), (1, 1)), ((1, 1), (0, 1))]
        with pytest.raises(DimensionError):
            half_open_decompose((0, 0), cells, y=(-3, -1))  # outside the cone
        # Off the cells' span: its projection (3, 1, 0) is interior, but y
        # itself is not in the cone.
        cells3 = [((1, 0, 0), (1, 1, 0)), ((1, 1, 0), (0, 1, 0))]
        with pytest.raises(DimensionError):
            half_open_decompose((0, 0, 0), cells3, y=(3, 1, 7))

    def test_explicit_interior_y_accepted(self):
        cells = [((1, 0), (1, 1)), ((1, 1), (0, 1))]
        halves = half_open_decompose((0, 0), cells, y=(3, 1))
        assert sum(1 for h in halves if not h.strict_indices) == 1
        for point in [(2, 2), (1, 0), (0, 1), (5, 2)]:
            assert sum(half_open_contains(h, point) for h in halves) == 1

    def test_partition_k4_vertex_cone(self, k4):
        cone = vertex_cone(k4, (0, 1, 2))
        cells = cone_triangulation(cone)
        halves = half_open_decompose(cone.apex, cells)
        rng = random.Random(0)
        for _ in range(1000):
            point = list(cone.apex)
            for g in cone_generators(cone):
                c = rng.randint(0, 3)
                for i in range(len(point)):
                    point[i] += c * g[i]
            assert sum(half_open_contains(h, point) for h in halves) == 1

    def test_partition_catalog_cones(self, catalog):
        rng = random.Random(1)
        for M in catalog:
            if M.n > 6:
                continue
            for b in enumerate_bases(M)[:3]:
                cone = vertex_cone(M, b)
                if not cone.pairs:
                    continue
                cells = cone_triangulation(cone)
                halves = half_open_decompose(cone.apex, cells)
                for _ in range(60):
                    point = list(cone.apex)
                    for g in cone_generators(cone):
                        c = rng.randint(0, 2)
                        for i in range(len(point)):
                            point[i] += c * g[i]
                    assert sum(half_open_contains(h, point) for h in halves) == 1

    def test_strict_facets_separate_y_from_their_ray(self, k4):
        # Independent route through facet normals: the normal of facet j
        # within the cell's span is orthogonal to the other generators and
        # to the span's complement, and facet j is strict exactly when y
        # and b_j lie strictly on opposite sides of it.
        cone = vertex_cone(k4, (0, 1, 2))
        cells = cone_triangulation(cone)
        y, _ = generic_y_for_cells(cells)
        halves = half_open_decompose(cone.apex, cells, y=y)
        assert halves == half_open_decompose(cone.apex, cells)
        for half in halves:
            gens = list(half.generators)
            complement = rational_kernel_basis(gens)
            for j, b in enumerate(gens):
                others = gens[:j] + gens[j + 1:]
                (nrm,) = rational_kernel_basis(others + complement)
                side_y = sum(a * x for a, x in zip(nrm, y))
                side_b = sum(a * x for a, x in zip(nrm, b))
                assert side_y != 0 and side_b != 0
                assert (j in half.strict_indices) == ((side_y > 0) != (side_b > 0))


@pytest.fixture(scope="module")
def oracle_cones():
    """(cone, placing cells) for every vertex cone of the catalog (the
    8-edge wheel among it), K3,3 and K5."""
    k33 = [[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)]
    k5 = [[int(i != j) for j in range(5)] for i in range(5)]
    mats = catalog_small() + [graphic_matroid(k33), graphic_matroid(k5)]
    out = []
    for M in mats:
        for b in enumerate_bases(M):
            cone = vertex_cone(M, b)
            out.append((cone, cone_triangulation(cone)))
    return out


class TestTreeCells:
    def test_cells_match_placing(self, oracle_cones):
        total = 0
        for cone, cells in oracle_cones:
            halves = half_open_cells(cone)
            assert len(halves) == len(cells)
            assert {h.generators for h in halves} == set(cells)
            total += len(cells)
        assert total > 3260  # K5 alone has 3260 cells

    def test_flags_match_rational_route(self, oracle_cones):
        # y = sum_k 2^k g_k over the generators in cone order, through the
        # Fraction row-space solve, on the placing cells of every cone and
        # of the disconnected matroids, whose forests have several roots.
        cones = list(oracle_cones)
        for M in disconnected_matroids():
            for b in enumerate_bases(M):
                cone = vertex_cone(M, b)
                cones.append((cone, cone_triangulation(cone)))
        for cone, cells in cones:
            if not cone.pairs:
                continue
            gens = cone_generators(cone)
            y = [sum(g[p] << k for k, g in enumerate(gens)) for p in range(len(cone.apex))]
            expected = {h.generators: h.strict_indices
                        for h in half_open_decompose(cone.apex, cells, y=y)}
            assert {h.generators: h.strict_indices for h in half_open_cells(cone)} == expected

    def test_leaf_pruned_coordinates_match_fraction_solve(self, oracle_cones):
        # The coordinates of the oracle walk, which rebuilds every forest:
        # a random y in the span, on up to 12 cells of every cone.
        rng = random.Random(7)
        for cone, _ in oracle_cones:
            gens = cone_generators(cone)
            y = [0] * len(cone.apex)
            for g in gens:
                c = rng.randint(-3, 3)
                y = [a + c * x for a, x in zip(y, g)]
            cells = tree_cells(cone.pairs)
            for bits, _, _ in rng.sample(cells, min(len(cells), 12)):
                tree = sum(1 << k for k in bits)
                coords = _mask_tree_coordinates(_mask_rooted_forest(tree, cone.pairs), y, tree)
                assert tuple(coords) == fraction_solve([gens[k] for k in bits], y)

    def test_same_cells_as_both_supplies_route(self, oracle_cones):
        # The same list as when every cell rebuilt its forest and took its
        # coordinates at t = 2: cells, their order, generators and strict
        # flags.
        for cone, _ in oracle_cones:
            assert tree_cells(cone.pairs) == tree_cells_both_supplies(cone)

    def test_swap_record(self, oracle_cones):
        # Every cell after the first is an earlier cell with generator e
        # out and f in, and the records (p, e) strictly increase: a cell
        # lists its neighbours by the edge they swap out.  The first cell
        # and a point vertex carry no record.
        # On the catalog, K3,3 and K5 cones, both disconnected matroids,
        # and a cone carried from its orbit's representative, whose own
        # walk records the representative's swaps.
        lists = [tree_cells(cone.pairs) for cone, _ in oracle_cones]
        for M in disconnected_matroids():
            lists += [tree_cells(tangent_cone(M, b)) for b in enumerate_bases(M)]
        u36 = uniform_matroid(6, 3)
        (rep, _, cells), *carried = _orbit_cones(u36, enumerate_bases(u36))
        basis, pairs, carried_cells = carried[-1]
        assert basis != rep and carried_cells is cells
        assert tree_cells(pairs) == cells
        lists.append(cells)
        lists.append(tree_cells(()))
        for cells in lists:
            assert cells[0][2] is None
            for index, (bits, _, origin) in enumerate(cells[1:], 1):
                p, e, f = origin
                assert 0 <= p < index
                parent = cells[p][0]
                assert e in parent and f not in parent
                assert bits == tuple(sorted(set(parent) - {e} | {f}))
            records = [origin[:2] for _, _, origin in cells[1:]]
            assert all(r < s for r, s in zip(records, records[1:]))

    def test_disconnected_cones_match_the_rebuilt_walk(self):
        for M in disconnected_matroids():
            bases = enumerate_bases(M)
            assert polytope_dimension(M, bases[0]) < M.n - 1
            for b in bases:
                cone = vertex_cone(M, b)
                assert tree_cells(cone.pairs) == tree_cells_both_supplies(cone), (M, b)

    def test_catalog_cells_unimodular(self, catalog):
        for M in catalog:
            for b in enumerate_bases(M):
                for half in half_open_cells(vertex_cone(M, b)):
                    assert cell_lattice_determinant(half.generators) == 1

    @staticmethod
    def assert_partitions_box(cone, cells=None):
        # Every lattice point of a box around the apex lies in exactly one
        # half-open cell if a closed placing cell holds it, else in none.
        from itertools import product

        closed = [HalfOpenSimplicialCone(cone.apex, c, frozenset())
                  for c in cone_triangulation(cone)]
        halves = half_open_cells(cone, cells)
        ranges = [range(-2, 1) if x else range(0, 3) for x in cone.apex]
        for d in product(*ranges):
            if sum(d) != 0:
                continue
            point = [a + x for a, x in zip(cone.apex, d)]
            inside = any(half_open_contains(c, point) for c in closed)
            hits = sum(half_open_contains(h, point) for h in halves)
            assert hits == int(inside), (cone, d)

    def test_half_open_cells_partition_box(self, catalog):
        # At every basis for n <= 5, at the first three for n = 6.
        for M in catalog:
            if M.n > 6:
                continue
            bases = enumerate_bases(M)
            for b in bases if M.n <= 5 else bases[:3]:
                self.assert_partitions_box(vertex_cone(M, b))

    def test_carried_cells_partition_box(self, catalog):
        # A representative's cells on the other cones of its orbit: every
        # cone for n <= 5, and for n = 6 the three after the first
        # representative, which carry its cells.  The carried flags are
        # those of sigma(y), not of the cone's own y.
        for M in catalog:
            if M.n > 6:
                continue
            cones = list(_orbit_cones(M, enumerate_bases(M)))
            for b, pairs, cells in cones if M.n <= 5 else cones[1:4]:
                self.assert_partitions_box(VertexCone(incidence_vector(b, M.n), pairs), cells)

    def test_cone_without_generators(self):
        assert tree_cells(()) == [((), (), None)]
        M = uniform_matroid(3, 3)
        assert tree_cells(tangent_cone(M, (0, 1, 2))) == [((), (), None)]
        assert half_open_cells(vertex_cone(M, (0, 1, 2))) == [
            HalfOpenSimplicialCone((1, 1, 1), (), frozenset())
        ]

    def test_pipeline_needs_no_placing(self, k4, monkeypatch):
        import matropt.genfun
        import matropt.triangulate

        def refuse(*args, **kwargs):
            raise AssertionError("the Ehrhart pipeline must not call this")

        for module in (matropt.genfun, matropt.triangulate):
            monkeypatch.setattr(module, "placing_triangulation", refuse, raising=False)
        coeffs = ehrhart_polynomial(k4)
        assert coeffs[1] == Fraction(107, 30)
