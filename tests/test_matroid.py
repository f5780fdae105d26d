"""Rank oracle, bases, adjacency, greedy, and polytope constraints."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    VECTOR_2x5,
    all_subsets,
    brute_adjacent,
    brute_max_weight,
    brute_rank,
    catalog_small,
    disconnected_matroids,
    exchange_edge_cases,
    k4_matroid,
    polytope_constraints,
)
import matropt.matroid
from matropt import (
    DimensionError,
    ParseError,
    automorphism_generators,
    enumerate_bases,
    graphic_matroid,
    greedy_max_basis,
    random_basis,
    uniform_matroid,
    vector_matroid,
)


class TestRank:
    def test_uniform_rank_is_min(self):
        M = uniform_matroid(4, 2)
        assert M.rank_of([0, 1, 2]) == 2

    def test_vector_parallel_columns(self):
        # Columns 1 and 5 of the 2x5 realization are parallel.
        M = vector_matroid(VECTOR_2x5)
        assert M.rank_of([0, 4]) == 1
        assert M.rank_of([0, 1]) == 2
        assert M.rank_of([1, 2]) == 2

    def test_k4_full_rank(self, k4):
        assert k4.rank_of(range(6)) == 3
        assert k4.rank == 3

    def test_out_of_range(self, u24):
        with pytest.raises(DimensionError):
            u24.rank_of([7])

    def test_rank_matches_independence_sweep(self, catalog):
        for M in catalog:
            if M.n > 6:
                continue
            for subset in all_subsets(M.n):
                assert M.rank_of(subset) == brute_rank(M, subset)

    def test_rank_axioms_monotone_submodular(self, catalog):
        # Monotonicity and submodularity over every subset pair, n <= 8.
        for M in catalog:
            if M.n > 8:
                continue
            subsets = [frozenset(s) for s in all_subsets(M.n)]
            ranks = {s: M.rank_of(s) for s in subsets}
            for s in subsets:
                assert ranks[s] <= len(s)
                for t in subsets:
                    if s <= t:
                        assert ranks[s] <= ranks[t]
                    assert ranks[s & t] + ranks[s | t] <= ranks[s] + ranks[t]


class TestBases:
    def test_k4_known_basis(self, k4):
        assert k4.is_basis({0, 1, 2})

    def test_k4_triangle_is_not(self, k4):
        assert not k4.is_basis({0, 1, 3})

    def test_wrong_cardinality(self, u24):
        assert not u24.is_basis({0})

    def test_repeated_element_is_not_a_basis(self, k4):
        # {0, 1, 2} is a basis; listing 1 twice must not make a fourth element.
        assert not k4.is_basis((0, 1, 1, 2))
        assert not k4.is_basis([0, 0, 1])
        with pytest.raises(DimensionError):
            k4.adjacent_bases((0, 1, 1, 2))

    def test_k4_all_sixteen(self, k4):
        from conftest import K4_BASES_1BASED

        found = {tuple(sorted(b)) for b in enumerate_bases(k4)}
        expected = {tuple(sorted(x - 1 for x in b)) for b in K4_BASES_1BASED}
        assert found == expected

    def test_basis_exchange_axiom(self, catalog):
        # For bases B, B' and x in B'-B there is y in B-B' with B'-x+y a basis.
        for M in catalog:
            if M.n > 7:
                continue
            bases = enumerate_bases(M)
            for b1 in bases:
                for b2 in bases:
                    for x in set(b2) - set(b1):
                        assert any(
                            M.is_basis((set(b2) - {x}) | {y})
                            for y in set(b1) - set(b2)
                        )


class TestAdjacency:
    def test_k4_paper_neighbors(self, k4):
        got = {tuple(i + 1 for i in b) for b in k4.adjacent_bases((0, 1, 2))}
        assert got == {(2, 3, 5), (2, 3, 4), (1, 3, 6), (1, 3, 4), (1, 2, 6), (1, 2, 5)}

    def test_u24_brute_force(self, u24):
        got = set(u24.adjacent_bases((0, 1)))
        assert got == brute_adjacent(u24, (0, 1))
        assert got == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_never_contains_self(self, catalog):
        for M in catalog:
            for b in enumerate_bases(M):
                assert b not in M.adjacent_bases(b)

    def test_symmetric_and_bounded(self, catalog):
        for M in catalog:
            if M.n > 6:
                continue
            bases = enumerate_bases(M)
            adj = {b: set(M.adjacent_bases(b)) for b in bases}
            for b in bases:
                assert len(adj[b]) <= M.rank * (M.n - M.rank)
                for nb in adj[b]:
                    assert b in adj[nb]

    def test_matches_brute_force_everywhere(self, catalog):
        # Loops, parallel elements, coloops and rank 0 or n included: the
        # fundamental circuits of each backend against every swap.
        for M in catalog + exchange_edge_cases():
            for b in enumerate_bases(M):
                assert M.adjacent_bases(b) == tuple(sorted(brute_adjacent(M, b))), (M, b)

    def test_any_order_or_container_gives_the_same_tuple(self, k4):
        for b in enumerate_bases(k4):
            nbs = k4.adjacent_bases(b)
            assert k4.adjacent_bases(b[::-1]) == nbs
            assert k4.adjacent_bases(list(b)) == nbs
            assert k4.adjacent_bases(set(b)) == nbs

    def test_rejects_non_basis(self, u24):
        with pytest.raises(DimensionError):
            u24.adjacent_bases((0, 1, 2))


class TestAutomorphismGenerators:
    def test_generators_map_the_bases_onto_themselves(self):
        k33 = [[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)]
        k5 = [[int(i != j) for j in range(5)] for i in range(5)]
        # A triangle and a pendant edge beside two vertices that meet no edge.
        isolated = [[0] * 6 for _ in range(6)]
        for u, v in ((1, 3), (3, 4), (1, 4), (4, 5)):
            isolated[u][v] = isolated[v][u] = 1
        loop = vector_matroid([[1, 0, 2], [3, 0, 1]])  # column 1 is a loop
        mats = catalog_small() + disconnected_matroids() + [
            graphic_matroid(k33), graphic_matroid(k5), graphic_matroid(isolated), loop,
            uniform_matroid(4, 0), uniform_matroid(4, 4),
        ]
        for M in mats:
            bases = set(enumerate_bases(M))
            for g in automorphism_generators(M):
                assert sorted(g) == list(range(M.n)), (M, g)
                assert {tuple(sorted(g[e] for e in b)) for b in bases} == bases, (M, g)
        # The pendant edge 4-5 is a bridge, so it stays; the triangle's
        # edges 1-3, 1-4 and 3-4 trade places.
        gens = automorphism_generators(graphic_matroid(isolated))
        assert len(gens) == 3 and all(g[3] == 3 for g in gens)
        orbit = {0}
        for _ in range(2):
            orbit |= {g[e] for g in gens for e in orbit}
        assert orbit == {0, 1, 2}
        assert automorphism_generators(loop) == []

    def test_backtracking_search_finds_the_whole_group(self, monkeypatch):
        # The 4-spoke wheel without the spoke to rim vertex 3 (hub 4): the
        # search for an automorphism that fixes vertex 0 must back out of a
        # dead end, which no catalog graph needs.  Its 24 bases fall into 7
        # orbits.  Seeded 6-7 vertex graphs join it; without the step back,
        # the search loses both generators of seed 12's.  The orbits of the
        # bases under the generators must be those under every vertex
        # permutation that keeps adjacency, found by brute force, and a
        # counting list shows that the search did back out.
        pops = []

        class Images(list):
            def pop(self, *args):
                pops.append(1)
                return super().pop(*args)

        search = matropt.matroid._graph_automorphism

        def counted(adj, order, up, images, w):
            return search(adj, order, up, Images(images), w)

        monkeypatch.setattr(matropt.matroid, "_graph_automorphism", counted)
        wheel = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4)]
        graphs = [(5, wheel)]
        for seed in range(13):
            rng = random.Random(seed)
            nv = rng.choice((6, 7))
            graphs.append((nv, [(u, v) for u in range(nv) for v in range(u + 1, nv)
                                if rng.random() < 0.5]))
        backtracks, orbit_counts = [], []
        for nv, edges in graphs:
            adj = [[0] * nv for _ in range(nv)]
            for u, v in edges:
                adj[u][v] = adj[v][u] = 1
            M = graphic_matroid(adj)
            pops.clear()
            gens = automorphism_generators(M)
            backtracks.append(len(pops))
            bases = enumerate_bases(M)
            for g in gens:
                assert {tuple(sorted(g[e] for e in b)) for b in bases} == set(bases), (edges, g)
            orbits = _orbits(bases, gens)
            assert orbits == _orbits(bases, _vertex_automorphisms(M)), edges
            orbit_counts.append(len(orbits))
        assert orbit_counts[0] == 7
        assert backtracks[0] and any(backtracks[1:])

    def test_uniform_transpositions(self):
        assert automorphism_generators(uniform_matroid(4, 2)) == [
            (1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
        assert automorphism_generators(uniform_matroid(1, 1)) == []


def _orbits(bases, perms):
    """The orbits of the bases under the group the permutations generate."""
    left, out = set(bases), set()
    while left:
        orbit = {min(left)}
        stack = list(orbit)
        while stack:
            b = stack.pop()
            for g in perms:
                image = tuple(sorted(g[e] for e in b))
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        out.add(frozenset(orbit))
        left -= orbit
    return out


def _vertex_automorphisms(M):
    """Every permutation of a graphic matroid's edges that a vertex
    permutation keeping the adjacency of its non-bridge edges induces, the
    bridges fixed."""
    nv, edges = M.data
    ground = set(range(M.n))
    bridges = {e for e in ground if M.rank_of(ground - {e}) < M.rank}
    keep = {frozenset(edges[e]) for e in ground - bridges}
    index = {frozenset(e): k for k, e in enumerate(edges)}
    out = []
    for p in permutations(range(nv)):
        if {frozenset(p[u] for u in e) for e in keep} == keep:
            out.append(tuple(e if e in bridges else index[frozenset((p[u], p[v]))]
                             for e, (u, v) in enumerate(edges)))
    return out


class TestGreedy:
    def test_k4_descending_weights(self, k4):
        basis, value = greedy_max_basis(k4, (6, 5, 4, 3, 2, 1))
        assert basis == (0, 1, 2)
        assert value == 15
        assert (basis, value) == brute_max_weight(k4, (6, 5, 4, 3, 2, 1))

    def test_zero_weights_lexicographic(self, catalog):
        for M in catalog:
            basis, value = greedy_max_basis(M, [0] * M.n)
            assert value == 0
            assert basis == min(enumerate_bases(M))

    def test_u24_top_two(self, u24):
        assert greedy_max_basis(u24, (1, 2, 3, 4)) == ((2, 3), Fraction(7))

    def test_weight_keeps_the_type_of_the_weights(self, u24):
        assert type(greedy_max_basis(u24, (1, 2, 3, 4))[1]) is int
        assert greedy_max_basis(u24, (1, 2, Fraction(7, 2), 4)) == ((2, 3), Fraction(15, 2))

    def test_matches_brute_force_on_catalog(self, catalog):
        import random

        rng = random.Random(1)
        for M in catalog:
            if M.n > 8:
                continue
            for _ in range(5):
                w = [rng.randint(-9, 9) for _ in range(M.n)]
                basis, value = greedy_max_basis(M, w)
                bb, bv = brute_max_weight(M, w)
                assert value == bv
                assert basis == bb  # lexicographic tie-break matches

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_greedy_optimal_u24(self, w):
        M = uniform_matroid(4, 2)
        _, value = greedy_max_basis(M, w)
        assert value == brute_max_weight(M, w)[1]


class TestRandomBasis:
    def test_always_a_basis(self, k4):
        for seed in range(1000):
            assert k4.is_basis(random_basis(k4, random.Random(seed)))

    def test_deterministic(self, k4):
        assert random_basis(k4, random.Random(42)) == random_basis(k4, random.Random(42))

    def test_uniform_lands_in_known_set(self, u24):
        bases = set(enumerate_bases(u24))
        for seed in range(50):
            assert random_basis(u24, random.Random(seed)) in bases


class TestPolytopeConstraints:
    def test_segment(self):
        M = uniform_matroid(2, 1)
        pc = polytope_constraints(M)
        assert pc.contains((1, 0))
        assert pc.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not pc.contains((2, -1))

    def test_k4_vertex_and_center(self, k4):
        pc = polytope_constraints(k4)
        assert pc.contains((1, 1, 1, 0, 0, 0))
        half = Fraction(1, 2)
        assert pc.contains((half,) * 6)

    def test_dilation_membership(self, u24):
        pc = polytope_constraints(u24)
        assert pc.contains((2, 1, 1, 0), k=2)
        assert not pc.contains((3, 1, 0, 0), k=2)  # x_i <= k fails

    def test_non_integer_caps_are_parse_errors(self, monkeypatch):
        monkeypatch.setenv("MATROPT_BASES_CAP", "1e3")
        with pytest.raises(ParseError, match="MATROPT_BASES_CAP"):
            enumerate_bases(uniform_matroid(4, 2))

    def test_vertices_satisfy_constraints(self, catalog):
        from matropt import incidence_vector

        for M in catalog:
            if M.n > 7:
                continue
            pc = polytope_constraints(M)
            for b in enumerate_bases(M):
                assert pc.contains(incidence_vector(b, M.n))


class TestBackendValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(DimensionError):
            graphic_matroid([[1, 1], [1, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionError):
            graphic_matroid([[0, 1], [0, 0]])

    def test_rejects_bad_uniform(self):
        with pytest.raises(DimensionError):
            uniform_matroid(3, 5)

    def test_disconnected_graph_spanning_forest(self):
        # Two disjoint edges: the unique basis is the full forest.
        adj = [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
        M = graphic_matroid(adj)
        assert M.rank == 2
        assert enumerate_bases(M) == [(0, 1)]

    def test_vector_backend_same_matroid_as_graph(self):
        # Oriented incidence columns (one vertex row dropped) realize the
        # graphic matroid with the same edge labels.
        from conftest import vector_k4

        Mv = vector_k4()
        Mg = k4_matroid()
        assert set(enumerate_bases(Mv)) == set(enumerate_bases(Mg))
