"""Rank oracle, bases, adjacency, greedy, and polytope constraints."""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    VECTOR_2x5,
    all_subsets,
    brute_adjacent,
    brute_max_weight,
    brute_orbits,
    brute_rank,
    bridges_triangle_adjacency,
    catalog_small,
    disconnected_matroids,
    exchange_edge_cases,
    k4_matroid,
    polytope_constraints,
)
from matropt import (
    CapError,
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

    def test_repeated_element_counts_once(self, k4):
        # On U(3,4) a repeated element counted twice would read rank 3.
        for M in (uniform_matroid(4, 3), k4, vector_matroid(VECTOR_2x5)):
            assert M.rank_of([0, 0, 1]) == M.rank_of([0, 1]) == 2, M

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
            bases = enumerate_bases(M)
            for g in automorphism_generators(M.n, bases):
                assert sorted(g) == list(range(M.n)), (M, g)
                assert {tuple(sorted(g[e] for e in b)) for b in bases} == set(bases), (M, g)
        # The pendant edge 4-5 is the one coloop, in every basis, so it
        # stays; the triangle's edges 1-3, 1-4 and 3-4 form one orbit.
        M = graphic_matroid(isolated)
        gens = automorphism_generators(M.n, enumerate_bases(M))
        assert all(g[3] == 3 for g in gens)
        orbit = {0}
        for _ in range(2):
            orbit |= {g[e] for g in gens for e in orbit}
        assert orbit == {0, 1, 2}
        # The loop stays, and the two coloops, columns 0 and 2, trade places.
        assert automorphism_generators(loop.n, enumerate_bases(loop)) == [(2, 1, 0)]

    def test_orbits_match_brute_force(self):
        # The orbits of the bases under the generators against those under
        # all n! permutations that map the bases onto themselves, on all
        # three backends: the catalog, the edge cases (the disconnected
        # matroids among them) and the seeded graphs with n <= 9.  Seed 4's
        # graph (6 vertices, 8 edges) and K4 beside a triangle are inputs
        # whose first depth-first completion is a dead end: without the
        # step back, the search finds 4 orbits on each, not 2.
        mats = catalog_small() + exchange_edge_cases()
        mats += [M for M in map(_graphic, _seeded_graphs()) if M.n <= 9]
        for M in mats:
            bases = enumerate_bases(M)
            gens = automorphism_generators(M.n, bases)
            assert _orbits(bases, gens) == brute_orbits(M.n, bases), M

    def test_backtracking_search_finds_the_whole_group(self):
        # On every seeded graph, each orbit under the vertex permutations
        # that keep adjacency (the bridges fixed) lies inside one orbit
        # under the generators, so no input walks more orbits than that
        # route gives; series and parallel swaps make some walk fewer.
        # This covers seeds 7, 8, 9 and 12 (n = 11), out of brute force's
        # reach.
        counts = []
        for M in map(_graphic, _seeded_graphs()):
            bases = enumerate_bases(M)
            found = _orbits(bases, automorphism_generators(M.n, bases))
            vertex = _orbits(bases, _vertex_automorphisms(M))
            assert all(any(o <= f for f in found) for o in vertex), M.edges
            counts.append((len(vertex), len(found)))
        assert counts == [(7, 6), (3, 2), (10, 3), (3, 2), (1, 1), (2, 2), (15, 5), (12, 5),
                          (53, 38), (107, 107), (9, 9), (1, 1), (3, 2), (37, 13)]

    def test_sts13_sparse_paving_group(self):
        # The rank-3 sparse paving matroid whose non-bases are the 26 lines
        # of the cyclic Steiner triple system STS(13), blocks {0, 1, 4} and
        # {0, 2, 7} mod 13.  Every pair of elements lies in equally many
        # bases, so the pair counts prune nothing and only the check of
        # each basis as its largest element is placed keeps the search
        # short.  The group the generators give must have the order that
        # a second route finds: an automorphism of the triple system is
        # fixed by the images of 0, 1 and 2, which lie on no line, since
        # every point is reached from them by taking the third point of
        # the line through two reached ones.
        n = 13
        lines = {frozenset((x + a) % n for x in block) for block in ((0, 1, 4), (0, 2, 7))
                 for a in range(n)}
        assert len(lines) == 26
        bases = [b for b in combinations(range(n), 3) if frozenset(b) not in lines]
        start = time.perf_counter()
        gens = automorphism_generators(n, bases)
        elapsed = time.perf_counter() - start
        assert elapsed < 2, f"STS(13) took {elapsed:.2f}s"
        assert _group_order(gens) == _triple_system_group_order(n, lines) == 39

    def test_uniform_matroids_have_one_orbit(self):
        for n, r in ((4, 2), (6, 3), (7, 1), (5, 5), (4, 0)):
            bases = enumerate_bases(uniform_matroid(n, r))
            gens = automorphism_generators(n, bases)
            assert len(gens) <= n - 1
            assert len(_orbits(bases, gens)) == 1
        assert automorphism_generators(1, enumerate_bases(uniform_matroid(1, 1))) == []


def _graphic(graph):
    nv, edges = graph
    adj = [[0] * nv for _ in range(nv)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    return graphic_matroid(adj)


def _seeded_graphs():
    """The 4-spoke wheel without the spoke to rim vertex 3 (hub 4), then
    13 seeded graphs on 6 or 7 vertices, as (vertices, edges)."""
    wheel = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4)]
    graphs = [(5, wheel)]
    for seed in range(13):
        rng = random.Random(seed)
        nv = rng.choice((6, 7))
        graphs.append((nv, [(u, v) for u in range(nv) for v in range(u + 1, nv)
                            if rng.random() < 0.5]))
    return graphs


def _group_order(gens):
    """The order of the group the permutations generate, by listing it."""
    n = len(gens[0])
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        h = stack.pop()
        for g in gens:
            gh = tuple(g[e] for e in h)
            if gh not in group:
                group.add(gh)
                stack.append(gh)
    return len(group)


def _triple_system_group_order(n, lines):
    """The automorphisms of a Steiner triple system on [n], counted by
    sending 0, 1, 2 to every triple of points on no line and closing under
    "the third point of the line through two points"."""
    third = {}
    for line in lines:
        for a, b in permutations(line, 2):
            third[a, b] = next(iter(line - {a, b}))
    assert third.get((0, 1)) != 2
    count = 0
    for x, y, z in permutations(range(n), 3):
        if third[x, y] == z:
            continue
        image = {0: x, 1: y, 2: z}
        grown = True
        while grown:
            grown = False
            for a, b in permutations(list(image), 2):
                if third[a, b] not in image:
                    image[third[a, b]] = third[image[a], image[b]]
                    grown = True
        # Any clash of the closure leaves a line whose image is no line.
        if len(set(image.values())) == n and all(
                frozenset(map(image.get, line)) in lines for line in lines):
            count += 1
    return count


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
    nv, edges = M.nv, M.edges
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

    def test_draws_cap_boundary(self, monkeypatch):
        # Half the rank-sized subsets are bases; seed 1 draws three
        # non-bases before its basis, so the draws cap passes at 4.
        M = graphic_matroid(bridges_triangle_adjacency())
        monkeypatch.setenv("MATROPT_BASES_CAP", "4")
        assert random_basis(M, random.Random(1)) == (0, 1, 2, 3, 4)
        monkeypatch.setenv("MATROPT_BASES_CAP", "3")
        with pytest.raises(CapError, match="4 random draws exceed cap 3"):
            random_basis(M, random.Random(1))
        monkeypatch.setenv("MATROPT_BASES_CAP", "abc")
        with pytest.raises(ParseError, match="MATROPT_BASES_CAP"):
            random_basis(M, random.Random(1))


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
