"""Local/tabu search, pivot test, boundary walk, Pareto sweep, fiber BFS."""

import inspect
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    catalog_small,
    fiber_bfs_driver_loop,
    random_connected_graph,
    random_weight_matrix,
)
from matropt import (
    DimensionError,
    Linear,
    Matroid,
    SquaredDistance,
    WeightMatrix,
    boundary_pareto_search,
    boundary_start,
    bounding_box,
    enumerate_bases,
    exact_projected_set,
    fiber_bfs,
    fiber_bfs_driver,
    graphic_matroid,
    greedy_max_basis,
    local_search,
    pareto_filter,
    pivot_test,
    planar_convex_hull,
    project,
    projected_boundary,
    random_basis,
    tabu_search,
    uniform_matroid,
    vector_matroid,
)
from matropt import heuristics
from matropt.heuristics import (
    _derived_seed,
    _image,
    _in_halfplane,
    _pareto_chain,
    _pivot_test_chunk,
    _pivot_test_point,
    _search_run,
)

W_K4 = WeightMatrix(((3, 1, 4, 1, 5, 9), (2, 7, 1, 8, 2, 8)))


def brute_min(M, W, objective):
    return min(objective(project(W, b)) for b in enumerate_bases(M))


def box_points(M, W):
    """The lattice points of the bounding box of the projected bases, in
    row-major order."""
    lo, hi = bounding_box(M, W)
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


def criterion9_instances(count):
    """The first `count` (matroid, weights) pairs of acceptance criterion 9."""
    rng = random.Random(20260810)
    out = []
    for _ in range(count):
        M = graphic_matroid(random_connected_graph(rng, max_nodes=9, extra_hi=3))
        out.append((M, WeightMatrix(random_weight_matrix(rng, 2, M.n, 0, 20))))
    return out


def in_run(M, W, body):
    """body() inside a search run on M and W, as a public search call opens
    one: the run's own helpers read it."""
    return _search_run(lambda M, W: body())(M, W)


def image(M, W, budget):
    """`_image` in a run of its own."""
    return in_run(M, W, lambda: _image(M, budget))


def count_scans(monkeypatch):
    """Count calls of Matroid.adjacent_bases in calls[0]: a run asks it once
    per basis it scans."""
    calls = [0]
    scan = Matroid.adjacent_bases

    def counting(self, basis):
        calls[0] += 1
        return scan(self, basis)

    monkeypatch.setattr(Matroid, "adjacent_bases", counting)
    return calls


class TestLocalSearch:
    def test_linear_reaches_global_optimum(self, k4):
        obj = Linear((1, 1))
        best = brute_min(k4, W_K4, obj)
        for seed in range(10):
            found = local_search(k4, W_K4, obj, random_basis(k4, random.Random(seed)))
            assert obj(project(W_K4, found)) == best

    def test_already_at_target(self, k4):
        start = (0, 1, 2)
        obj = SquaredDistance(project(W_K4, start))
        assert local_search(k4, W_K4, obj, start) == start

    def test_u24_descends_to_endpoint(self, u24):
        W = WeightMatrix(((1, 2, 3, 4),))
        found = local_search(u24, W, SquaredDistance((7,)), (0, 1))
        assert found == (2, 3)

    def test_output_is_local_minimum(self, k4):
        obj = SquaredDistance((11, 14))
        for seed in range(5):
            found = local_search(k4, W_K4, obj, random_basis(k4, random.Random(seed)))
            value = obj(project(W_K4, found))
            for nb in k4.adjacent_bases(found):
                assert obj(project(W_K4, nb)) >= value

    def test_rejects_non_basis(self, u24):
        # Refused before the start is reported to a transcript.
        W = WeightMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))
        bad, calls = (0, 1, 2), []
        with pytest.raises(DimensionError, match=r"\(0, 1, 2\) is not a basis"):
            local_search(u24, W, Linear((1, 0)), bad, transcript=lambda *rec: calls.append(rec))
        with pytest.raises(DimensionError, match="is not a basis"):
            tabu_search(u24, W, Linear((1, 0)), bad, 2)
        with pytest.raises(DimensionError, match="is not a basis"):
            projected_boundary(u24, W, bad)
        for depth in (0, 1):
            witnesses = {}
            with pytest.raises(DimensionError, match="is not a basis"):
                fiber_bfs(u24, W, bad, depth, witnesses)
            assert witnesses == {}
        assert calls == []

    def test_scores_each_point_once(self):
        # Consecutive neighbourhoods overlap and fibers hold many bases: a
        # counting objective still sees each projected point once per
        # descent, over six seeded descents on each criterion-9 instance.
        for k, (M, W) in enumerate(criterion9_instances(14)):
            goal = SquaredDistance(project(W, random_basis(M, random.Random(k))))
            for seed in range(6):
                scored = []

                def counting(point):
                    scored.append(point)
                    return goal(point)

                local_search(M, W, counting, random_basis(M, random.Random(seed)))
                assert len(scored) == len(set(scored)), (k, seed)

    def test_linear_objective_exact_on_catalog(self):
        from conftest import catalog_small, random_weight_matrix

        rng = random.Random(77)
        for M in catalog_small():
            bases = enumerate_bases(M)
            if len(bases) > 500:
                continue
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, -5, 5))
            obj = Linear((2, -3))
            best = min(obj(project(W, b)) for b in bases)
            found = local_search(M, W, obj, random_basis(M, random.Random(1)))
            assert obj(project(W, found)) == best


class TestTabuSearch:
    def test_stays_at_global_minimum(self, k4):
        obj = SquaredDistance((11, 14))
        best_basis = min(
            enumerate_bases(k4), key=lambda b: (obj(project(W_K4, b)), b)
        )
        for limit in (1, 5, 50):
            assert tabu_search(k4, W_K4, obj, best_basis, limit) == best_basis

    def test_large_limit_finds_optimum_u24(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        for target in {project(W, b) for b in enumerate_bases(u24)}:
            obj = SquaredDistance(target)
            found = tabu_search(u24, W, obj, (0, 1), 10)
            assert obj(project(W, found)) == 0

    def test_never_revisits(self, k4):
        trail = []
        tabu_search(
            k4, W_K4, SquaredDistance((11, 14)), (0, 1, 2), 100,
            transcript=lambda piv, b, p, v: trail.append(b),
        )
        assert len(trail) == len(set(trail))

    def test_scores_each_point_once(self):
        # Neighbourhoods overlap and fibers hold many bases: a counting
        # objective still sees each projected point once per search.
        for k, (M, W) in enumerate(criterion9_instances(6)):
            goal = SquaredDistance(project(W, random_basis(M, random.Random(k))))
            for seed in range(3):
                scored = []

                def counting(point):
                    scored.append(point)
                    return goal(point)

                tabu_search(M, W, counting, random_basis(M, random.Random(seed)), 20)
                assert len(scored) == len(set(scored)), (k, seed)

    def test_at_least_as_good_as_local_search(self, k4):
        # Paired seeded restarts: tabu never loses to plain descent.
        obj = SquaredDistance((11, 14))
        ls_wins = ts_wins = 0
        for seed in range(1000):
            start = random_basis(k4, random.Random(seed))
            ls_val = obj(project(W_K4, local_search(k4, W_K4, obj, start)))
            ts_val = obj(project(W_K4, tabu_search(k4, W_K4, obj, start, 100)))
            assert ts_val <= ls_val
            ls_wins += ls_val == 0
            ts_wins += ts_val == 0
        assert ts_wins >= ls_wins


class TestPivotTest:
    def test_unreachable_point_gives_empty(self, u24):
        W = WeightMatrix(((1, 2, 3, 4),))
        assert pivot_test(u24, W, [(99,)], tries=5, seed=0) == set()

    def test_full_box_covers_projected_set(self, u24):
        W = WeightMatrix(((1, 2, 3, 4),))
        found = pivot_test(u24, W, box_points(u24, W), tries=10, seed=1)
        assert {project(W, b) for b in found} == set(exact_projected_set(u24, W))

    def test_membership_of_known_point(self, k4):
        target = project(W_K4, (0, 1, 2))
        found = pivot_test(k4, W_K4, [target], tries=10, seed=2, searcher="ts")
        assert found
        assert all(project(W_K4, b) == target for b in found)

    def test_outputs_project_into_targets(self, k4):
        targets = [(9, 12), (10, 10), (7, 7)]
        found = pivot_test(k4, W_K4, targets, tries=5, seed=3)
        assert {project(W_K4, b) for b in found} <= set(targets)

    def test_workers_are_equivalent(self, k4):
        targets = sorted({project(W_K4, b) for b in enumerate_bases(k4)})[:6]
        seq = pivot_test(k4, W_K4, targets, tries=4, seed=5, workers=1)
        try:
            par = pivot_test(k4, W_K4, targets, tries=4, seed=5, workers=2)
        except OSError:
            pytest.skip("process pools unavailable")
        assert seq == par

    @pytest.mark.parametrize("searcher", ["ls", "ts"])
    def test_repeats_and_order_do_not_matter(self, searcher):
        # Each distinct target is searched once, with the seed of its index
        # among the sorted distinct targets, whatever the caller's order.
        rng = random.Random(35)
        for k, (M, W) in enumerate(criterion9_instances(4)):
            distinct = box_points(M, W)[::3]
            shuffled = distinct + rng.sample(distinct, len(distinct) // 2)
            rng.shuffle(shuffled)
            kwargs = dict(tries=2, searcher=searcher, seed=k, tabu_limit=3)
            assert pivot_test(M, W, shuffled, **kwargs) == pivot_test(M, W, distinct, **kwargs)

    def test_searches_the_callers_tuples(self, u24, monkeypatch):
        # Integer tuples are held as they are, not copied; other coordinates
        # are rebuilt as ints.
        W = WeightMatrix(((1, 2, 3, 4),))
        searched = []

        def recording(*job):
            searched.append(job[2])
            return _pivot_test_point(*job)

        monkeypatch.setattr(heuristics, "_pivot_test_point", recording)
        targets = [(5,), (3,), [4], (Fraction(6),)]
        assert pivot_test(u24, W, targets, tries=3, seed=0)
        assert searched == [(3,), (4,), (5,), (6,)]
        assert searched[0] is targets[1] and searched[2] is targets[0]
        assert all(type(t[0]) is int for t in searched)

    def test_non_integral_target_raises(self, k4):
        with pytest.raises(DimensionError):
            pivot_test(k4, W_K4, [(Fraction(13, 2), 1)], tries=3, seed=0)
        with pytest.raises(DimensionError):
            pivot_test(k4, W_K4, [(9, 12), (9.5, 12)], tries=3, seed=0)
        whole = pivot_test(k4, W_K4, [(Fraction(9, 1), 12)], tries=3, seed=0)
        assert whole == pivot_test(k4, W_K4, [(9, 12)], tries=3, seed=0)


class TestPivotTestScores:
    """The restarts of one target share one goal, so they share its scores."""

    @pytest.mark.parametrize("searcher", ["ls", "ts"])
    def test_each_point_scored_once_per_target(self, searcher, monkeypatch):
        # The first ten bounding-box targets of each criterion-9 instance,
        # six restarts each.
        scored = []

        class Counting(SquaredDistance):
            def __call__(self, point):
                scored.append(point)
                return super().__call__(point)

        monkeypatch.setattr(heuristics, "SquaredDistance", Counting)
        for k, (M, W) in enumerate(criterion9_instances(14)):
            for i, target in enumerate(box_points(M, W)[:10]):
                scored.clear()
                in_run(M, W, lambda: _pivot_test_point(
                    M, W, target, 6, searcher, 20, _derived_seed(k, i)))
                assert scored and len(scored) == len(set(scored)), (k, target)


class TestPivotTestPruning:
    """Targets outside the image are skipped without changing any result."""

    @staticmethod
    def per_target(M, W, targets, tries, searcher, tabu_limit, seed):
        # Every distinct target in one run, as pivot_test searches them.
        items = sorted(set(targets))
        found = in_run(M, W, lambda: {
            _pivot_test_point(M, W, t, tries, searcher, tabu_limit, _derived_seed(seed, i))
            for i, t in enumerate(items)
        })
        return found - {None}

    @pytest.mark.parametrize("searcher", ["ls", "ts"])
    def test_equals_search_of_every_target(self, searcher):
        for k, (M, W) in enumerate(criterion9_instances(5)):
            targets = box_points(M, W)
            assert image(M, W, len(targets)) is not None
            expected = self.per_target(M, W, targets, 2, searcher, 3, k)
            got = pivot_test(M, W, targets, 2, searcher=searcher, seed=k, tabu_limit=3)
            assert got == expected

    @pytest.mark.parametrize("searcher", ["ls", "ts"])
    def test_workers_agree_with_search_of_every_target(self, searcher):
        M, W = criterion9_instances(3)[2]
        targets = box_points(M, W)
        expected = self.per_target(M, W, targets, 2, searcher, 3, 11)
        try:
            got = pivot_test(M, W, targets, 2, searcher=searcher, seed=11, tabu_limit=3, workers=2)
        except OSError:
            pytest.skip("process pools unavailable")
        assert got == expected

    def test_listing_at_most_doubles_scans_for_image_targets(self, monkeypatch):
        calls = count_scans(monkeypatch)
        for k, (M, W) in enumerate(criterion9_instances(6)):
            image = sorted(set(exact_projected_set(M, W)))
            for targets in (image, image[:2]):
                calls[0] = 0
                expected = self.per_target(M, W, targets, 10, "ls", 10, k)
                searched = calls[0]
                calls[0] = 0
                assert pivot_test(M, W, targets, 10, seed=k) == expected
                assert calls[0] <= 2 * searched + 1

    def test_targets_outside_image_run_no_search(self, u24, monkeypatch):
        W = WeightMatrix(((1, 2, 3, 4),))  # image {3, ..., 7}, six bases
        calls = []

        def counting(*job):
            calls.append(job[2])
            return _pivot_test_point(*job)

        monkeypatch.setattr(heuristics, "_pivot_test_point", counting)
        outside = [(0,), (1,), (2,), (8,), (9,), (10,)]
        assert pivot_test(u24, W, outside, tries=2, seed=0) == set()  # budget 6 >= 6
        assert calls == []
        assert pivot_test(u24, W, outside[1:] + [(5,)], tries=2, seed=0)
        assert calls == [(5,)]
        calls.clear()
        assert pivot_test(u24, W, outside[1:], tries=9, seed=0) == set()  # budget 5 < 6
        assert calls == sorted(outside[1:])


class TestImage:
    def test_equals_exact_projected_set(self):
        rng = random.Random(31)
        single = graphic_matroid([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # a path: one tree
        extra = [uniform_matroid(4, 0), uniform_matroid(3, 3), single]
        for M in catalog_small() + extra:
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, -5, 20))
            bases = enumerate_bases(M)
            assert image(M, W, len(bases)) == set(exact_projected_set(M, W, bases=bases))
        assert len(enumerate_bases(single)) == 1

    def test_budget_boundary(self):
        rng = random.Random(32)
        for M in catalog_small() + [uniform_matroid(4, 0)]:
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n))
            count = len(enumerate_bases(M))
            assert image(M, W, count) is not None
            assert image(M, W, count - 1) is None

    def test_scans_at_most_budget_plus_one(self, monkeypatch):
        W = WeightMatrix(((1, 2, 3, 4, 5, 6, 7),))
        M = uniform_matroid(7, 3)  # 35 bases
        calls = count_scans(monkeypatch)
        for budget in (0, 1, 5, 20, 34):
            calls[0] = 0
            assert image(M, W, budget) is None
            assert calls[0] <= budget + 1

    def test_independent_of_oracles(self, k4, monkeypatch):
        from matropt import oracles

        W = WeightMatrix(W_K4.rows)
        expected = set(exact_projected_set(k4, W))

        def refuse(*args, **kwargs):
            raise AssertionError("_image must not use the oracles")

        for name in ("enumerate_bases", "exact_projected_set", "spanning_trees"):
            monkeypatch.setattr(oracles, name, refuse)
        state = random.getstate()
        assert image(k4, W, 16) == expected
        assert random.getstate() == state


class TestProjectedBoundary:
    def test_requires_two_criteria(self, u24):
        W = WeightMatrix(((1, 2, 3, 4),))
        with pytest.raises(DimensionError):
            projected_boundary(u24, W, (0, 1))

    def test_requires_extreme_start(self, k4):
        # (9, 12) is an interior projection for this weighting.
        interior = next(
            b for b in enumerate_bases(k4) if project(W_K4, b) == (9, 12)
        )
        with pytest.raises(DimensionError):
            projected_boundary(k4, W_K4, interior)

    def test_degenerate_identical_rows(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (1, 2, 3, 4)))
        rng = random.Random(0)
        start = boundary_start(u24, W, rng)
        found = projected_boundary(u24, W, start)
        pts = {project(W, b) for b in found}
        assert {(3, 3), (7, 7)} <= pts  # segment endpoints at minimum
        assert all(x == y for x, y in pts)  # everything stays collinear

    def test_k4_contains_hull_vertices(self, k4):
        rng = random.Random(1)
        start = boundary_start(k4, W_K4, rng)
        found = projected_boundary(k4, W_K4, start)
        pts = {project(W_K4, b) for b in found}
        hull = planar_convex_hull(exact_projected_set(k4, W_K4))
        assert set(hull) <= pts
        assert pts <= set(exact_projected_set(k4, W_K4))

    def test_u25_many_seeds(self):
        M = uniform_matroid(5, 2)
        rng = random.Random(99)
        W = WeightMatrix(random_weight_matrix(rng, 2, 5))
        exact = set(exact_projected_set(M, W))
        hull = set(planar_convex_hull(exact))
        for seed in range(20):
            start = boundary_start(M, W, random.Random(seed))
            pts = {project(W, b) for b in projected_boundary(M, W, start)}
            assert hull <= pts <= exact

    def test_tests_each_basis_once(self, monkeypatch):
        # A basis that fails the closed half-plane test fails it from every
        # neighbour: it is tested once per walk.
        tested = []
        test = heuristics._in_halfplane

        def counting(basis, strict):
            tested.append(basis)
            return test(basis, strict)

        monkeypatch.setattr(heuristics, "_in_halfplane", counting)
        for k, (M, W) in enumerate(criterion9_instances(6)):
            start = boundary_start(M, W, random.Random(k))
            tested.clear()
            projected_boundary(M, W, start)
            assert len(tested) == len(set(tested)), k


class TestExtremenessOracle:
    def test_matches_hull_membership(self, k4):
        exact = set(exact_projected_set(k4, W_K4))
        hull = set(planar_convex_hull(exact))
        for b in enumerate_bases(k4):
            p = project(W_K4, b)
            assert in_run(k4, W_K4, lambda: _in_halfplane(b, strict=True)) == (p in hull)


class TestHalfPlaneOracle:
    """_in_halfplane against the convex hull of each basis's neighbourhood.

    With p the basis's projection and H the hull of p and its neighbours'
    projections, the strict test holds exactly when p is a vertex of H and
    the closed test exactly when p lies on H's boundary (a hull of at most
    two points is all boundary)."""

    @staticmethod
    def weights(kind, rng, n):
        row = tuple(rng.randint(-5, 20) for _ in range(n))
        return {
            "random": random_weight_matrix(rng, 2, n, -5, 20),
            "identical-rows": (row, row),
            "zero-row": (row, (0,) * n),
            "constant-rows": ((3,) * n, (-1,) * n),
            "entries-0-2": random_weight_matrix(rng, 2, n, 0, 2),
        }[kind]

    @staticmethod
    def local_hull(M, W, b):
        p = project(W, b)
        hull = planar_convex_hull([p] + [project(W, nb) for nb in M.adjacent_bases(b)])

        def cross(o, a, c):
            return (a[0] - o[0]) * (c[1] - o[1]) - (a[1] - o[1]) * (c[0] - o[0])

        # p lies in H, so it is on H's boundary exactly when it is on the
        # line through some edge.
        on_boundary = len(hull) <= 2 or any(
            cross(a, c, p) == 0 for a, c in zip(hull, hull[1:] + hull[:1])
        )
        return p in hull, on_boundary

    @pytest.mark.parametrize(
        "kind", ["random", "identical-rows", "zero-row", "constant-rows", "entries-0-2"]
    )
    def test_matches_local_hull(self, kind):
        rng = random.Random(424)
        matroids = catalog_small() + [
            graphic_matroid(random_connected_graph(rng, max_nodes=7)) for _ in range(50)
        ]
        for M in matroids:
            W = WeightMatrix(self.weights(kind, rng, M.n))
            bases = enumerate_bases(M)
            tests = in_run(M, W, lambda: [(_in_halfplane(b, strict=True),
                                           _in_halfplane(b, strict=False)) for b in bases])
            assert tests == [self.local_hull(M, W, b) for b in bases]


class TestBoundaryParetoSearch:
    def test_single_pareto_point(self, k4):
        W = WeightMatrix(((1,) * 6, (1,) * 6))
        found = boundary_pareto_search(k4, W, tries=3, seed=0)
        assert {project(W, b) for b in found} == {(3, 3)}

    def test_u24_exact_pareto(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        truth = pareto_filter(exact_projected_set(u24, W))
        found = boundary_pareto_search(u24, W, tries=10, seed=1)
        assert {project(W, b) for b in found} == truth

    def test_k4_random_weights(self, k4):
        rng = random.Random(7)
        for trial in range(5):
            W = WeightMatrix(random_weight_matrix(rng, 2, 6))
            truth = pareto_filter(exact_projected_set(k4, W))
            found = boundary_pareto_search(
                k4, W, tries=10, seed=trial, searcher="ts", tabu_limit=16
            )
            assert {project(W, b) for b in found} == truth

    def test_searcher_checked_without_targets(self):
        # All-zero weights leave a one-point staircase and no box to search;
        # the searcher is refused all the same.
        k3 = graphic_matroid([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        W = WeightMatrix(((0, 0, 0), (0, 0, 0)))
        assert boundary_pareto_search(k3, W, tries=1) == {(0, 1)}
        with pytest.raises(DimensionError, match="searcher must be 'ls' or 'ts'"):
            boundary_pareto_search(k3, W, tries=1, searcher="bogus")

    def test_pareto_chain_equals_the_index_walk(self):
        # The reference walk: from the smallest (x, y) hull vertex
        # counter-clockwise to the smallest (y, x) vertex, then sorted.
        def index_walk(points):
            hull = planar_convex_hull(points)
            if len(hull) == 1:
                return hull
            i0 = min(range(len(hull)), key=lambda i: (hull[i][0], hull[i][1]))
            i1 = min(range(len(hull)), key=lambda i: (hull[i][1], hull[i][0]))
            chain = []
            i = i0
            while True:
                chain.append(hull[i])
                if i == i1:
                    break
                i = (i + 1) % len(hull)
            return sorted(chain)

        rng = random.Random(35)
        for size in [1, 2, 3, 4, 6, 10, 30] * 20:
            span = rng.choice([1, 2, 5, 30])
            points = {(rng.randint(0, span), rng.randint(0, span)) for _ in range(size)}
            assert _pareto_chain(points) == index_walk(points), points

    def test_outputs_are_mutually_nondominated(self, k4):
        from matropt.multicriteria import dominates

        found = boundary_pareto_search(k4, W_K4, tries=5, seed=2)
        pts = [project(W_K4, b) for b in found]
        for p in pts:
            assert not any(dominates(q, p) for q in pts)


class TestFiberBFS:
    def test_depth_zero_keeps_the_start(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        assert fiber_bfs(u24, W, (1, 0), 0, {}) == {project(W, (0, 1)): (0, 1)}
        # A start whose projection already has a witness keeps that witness.
        known = {project(W, (0, 1)): (2, 3)}
        assert fiber_bfs(u24, W, (0, 1), 0, known) is known
        assert known == {project(W, (0, 1)): (2, 3)}

    def test_depth_one_includes_start(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        assert project(W, (0, 1)) in fiber_bfs(u24, W, (0, 1), 1, {})

    def test_output_inside_exact_set(self, k4):
        exact = set(exact_projected_set(k4, W_K4))
        wit = fiber_bfs(k4, W_K4, (0, 1, 2), 3, {})
        assert wit.keys() <= exact
        for p, b in wit.items():
            assert project(W_K4, b) == p
            assert k4.is_basis(b)

    def test_deep_exhaustive_u24(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        exact = set(exact_projected_set(u24, W))
        assert fiber_bfs(u24, W, (0, 1), 10, {}).keys() == exact

    def test_one_rank_query_per_start_not_yet_listed(self, monkeypatch):
        # Listing the start's neighbours is the basis check: the only rank
        # query is the one each neighbour listing asks, so a fresh start
        # costs one at depth 0 and 1, and one the run has listed costs none.
        queries = [0]
        rank_of = Matroid.rank_of

        def counting(self, subset):
            queries[0] += 1
            return rank_of(self, subset)

        cases = [(M, W, greedy_max_basis(M, [0] * M.n)[0]) for M, W in criterion9_instances(6)]
        scans = count_scans(monkeypatch)
        monkeypatch.setattr(Matroid, "rank_of", counting)
        for M, W, start in cases:
            for depth in range(4):
                queries[0] = scans[0] = 0
                fiber_bfs(M, W, start, depth, {})
                assert queries[0] == scans[0] >= 1, depth
                assert depth > 1 or scans[0] == 1
            queries[0] = 0
            in_run(M, W, lambda: [fiber_bfs(M, W, start, depth, {}) for depth in (1, 0, 1)])
            assert queries[0] == 1

    @staticmethod
    def recursive_fiber_bfs(M, W, start, depth):
        """The rule fiber_bfs walks, one recursive call per level: explore
        a basis's fresh neighbours depth first, in the order they are met."""
        witnesses = {project(W, start): start}

        def rec(basis, level):
            if level >= depth:
                return
            frontier = []
            for nb in M.adjacent_bases(basis):
                q = project(W, nb)
                if q not in witnesses:
                    witnesses[q] = nb
                    frontier.append(nb)
            for nb in frontier:
                rec(nb, level + 1)

        rec(start, 0)
        return witnesses

    @staticmethod
    def k7_instance():
        M = graphic_matroid([[int(i != j) for j in range(7)] for i in range(7)])
        rng = random.Random(5)
        W = WeightMatrix(tuple(tuple(rng.randint(0, 10**6) for _ in range(M.n))
                               for _ in range(2)))
        return M, W, greedy_max_basis(M, [0] * M.n)[0]

    def test_matches_the_recursive_rule(self):
        cases = [(M, W, greedy_max_basis(M, [0] * M.n)[0], range(M.n + 1))
                 for M, W in criterion9_instances(6)]
        M, W, start = self.k7_instance()
        cases.append((M, W, start, (900,)))
        for M, W, start, depths in cases:
            for depth in depths:
                wit = fiber_bfs(M, W, start, depth, {})
                want = self.recursive_fiber_bfs(M, W, start, depth)
                assert list(wit.items()) == list(want.items())

    def test_depth_beyond_the_recursion_limit(self):
        # Fresh projections chain the walk thousands of levels deep on K7,
        # whose 7^5 spanning trees (Cayley) project to distinct points here.
        M, W, start = self.k7_instance()
        assert len(fiber_bfs(M, W, start, 1000, {})) == 7 ** 5


# The driver's knobs and their defaults, read off its signature.
DRIVER_DEFAULTS = {name: p.default
                   for name, p in inspect.signature(fiber_bfs_driver).parameters.items()
                   if p.kind is p.KEYWORD_ONLY}


class TestFiberBFSDriver:
    def test_minimal_limits_nonempty(self, k4):
        wit = fiber_bfs_driver(
            k4, W_K4, seed=0, bfs_depth=1, num_searches=1,
            boundary_retry_limit=1, random_retry_limit=1,
        )
        assert wit
        assert wit.keys() <= set(exact_projected_set(k4, W_K4))

    def test_generous_limits_reach_everything(self):
        rng = random.Random(55)
        for trial in range(5):
            M = graphic_matroid(random_connected_graph(rng, max_nodes=7))
            if len(enumerate_bases(M)) > 50:
                continue
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n))
            wit = fiber_bfs_driver(
                M, W, seed=trial, bfs_depth=M.n, num_searches=10_000,
                boundary_retry_limit=100, random_retry_limit=2000,
            )
            assert wit.keys() == set(exact_projected_set(M, W))

    @pytest.mark.parametrize("knobs", [
        lambda M: dict(bfs_depth=M.n, num_searches=100_000, boundary_retry_limit=60,
                       random_retry_limit=3000),
        lambda M: {},
        lambda M: dict(bfs_depth=1, boundary_retry_limit=1, random_retry_limit=1),
        lambda M: dict(bfs_depth=0, num_searches=100, boundary_retry_limit=2,
                       random_retry_limit=3),
        lambda M: dict(bfs_depth=1, num_searches=50),
        lambda M: dict(num_searches=2),
    ], ids=["exhaustive", "defaults", "over-budget", "small-budget-depth0",
            "searches-budget", "few-searches"])
    def test_equals_loop_without_image_stop(self, knobs):
        for trial, (M, W) in enumerate(criterion9_instances(6)):
            params = dict(DRIVER_DEFAULTS, seed=trial, **knobs(M))
            budget = min(
                params["num_searches"],
                params["boundary_retry_limit"] + params["random_retry_limit"],
            )
            over = len(enumerate_bases(M)) > budget
            assert (image(M, W, budget) is None) == over
            assert fiber_bfs_driver(M, W, **params) == fiber_bfs_driver_loop(M, W, **params)

    def test_listing_scans_at_most_budget_plus_one_more(self, monkeypatch):
        k6 = graphic_matroid([[int(i != j) for j in range(6)] for i in range(6)])
        cases = [(M, W, {}) for M, W in criterion9_instances(3)] + [
            (k6, WeightMatrix(random_weight_matrix(random.Random(5), 2, k6.n, 0, 20)), knobs)
            for knobs in ({}, dict(bfs_depth=1), dict(bfs_depth=0, num_searches=40))
        ]
        calls = count_scans(monkeypatch)
        for M, W, knobs in cases:
            params = dict(DRIVER_DEFAULTS, seed=3, **knobs)
            calls[0] = 0
            expected = fiber_bfs_driver_loop(M, W, **params)
            searched = calls[0]
            calls[0] = 0
            assert fiber_bfs_driver(M, W, **params) == expected
            assert calls[0] <= searched + params["num_searches"] + 1

    def test_monotone_in_num_searches(self, k4):
        base = dict(seed=9, bfs_depth=2, boundary_retry_limit=5, random_retry_limit=20)
        small = fiber_bfs_driver(k4, W_K4, num_searches=3, **base)
        large = fiber_bfs_driver(k4, W_K4, num_searches=6, **base)
        assert small.items() <= large.items()

    def test_deterministic(self, k4):
        params = dict(seed=4, bfs_depth=2, num_searches=5)
        a = fiber_bfs_driver(k4, W_K4, **params)
        b = fiber_bfs_driver(k4, W_K4, **params)
        assert list(a.items()) == list(b.items())


class TestKnobValidation:
    """Counts and limits must be >= 1 and a depth >= 0."""

    @pytest.mark.parametrize("knob", ["tries", "tabu_limit", "workers"])
    def test_pivot_test(self, k4, knob):
        kwargs = dict(tries=2, seed=1, searcher="ts", tabu_limit=2, workers=1)
        with pytest.raises(DimensionError):
            pivot_test(k4, W_K4, [(9, 12)], **{**kwargs, knob: 0})
        assert pivot_test(k4, W_K4, [(9, 12)], **{**kwargs, knob: 1}) <= set(enumerate_bases(k4))

    @pytest.mark.parametrize("knob", ["tries", "tabu_limit", "workers"])
    def test_boundary_pareto_search(self, k4, knob):
        kwargs = dict(tries=2, seed=1, tabu_limit=2, workers=1)
        with pytest.raises(DimensionError):
            boundary_pareto_search(k4, W_K4, **{**kwargs, knob: 0})
        assert boundary_pareto_search(k4, W_K4, **{**kwargs, knob: 1})

    def test_fiber_bfs_driver(self, k4):
        low = dict(num_searches=0, boundary_retry_limit=0, random_retry_limit=0, bfs_depth=-1)
        for knob, value in low.items():
            with pytest.raises(DimensionError, match=f"{knob} must be >= {value + 1}"):
                fiber_bfs_driver(k4, W_K4, **{knob: value})
            wit = fiber_bfs_driver(k4, W_K4, seed=1, **{knob: value + 1})
            assert wit and wit.keys() <= set(exact_projected_set(k4, W_K4))

    def test_fiber_bfs(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        witnesses = {}
        with pytest.raises(DimensionError, match="depth must be >= 0"):
            fiber_bfs(u24, W, (0, 1), -1, witnesses)
        assert witnesses == {}
        assert fiber_bfs(u24, W, (0, 1), 0, witnesses) == {project(W, (0, 1)): (0, 1)}

    def test_tabu_search(self, k4):
        obj = SquaredDistance((9, 12))
        with pytest.raises(DimensionError):
            tabu_search(k4, W_K4, obj, (0, 1, 2), 0)
        assert k4.is_basis(tabu_search(k4, W_K4, obj, (0, 1, 2), 1))


class TestProjectionMemo:
    def test_matches_project_on_catalog(self, catalog, monkeypatch):
        # Inside a run each basis is projected once, by `project`.
        projected = []

        def counting(W, basis):
            projected.append(basis)
            return project(W, basis)

        monkeypatch.setattr(heuristics, "project", counting)
        rng = random.Random(8)
        for M in catalog:
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, -5, 20))
            bases = enumerate_bases(M)
            projected.clear()
            points = in_run(M, W, lambda: list(map(heuristics._RUN.get()[3], bases + bases)))
            assert points == [project(W, b) for b in bases + bases]
            assert projected == bases

    def test_oracle_route_bypasses_memo(self, k4, monkeypatch):
        # The oracles never enter a run: outside one they see none, and
        # inside one they still project every basis themselves.
        from matropt import oracles

        runs = []

        def projecting(W, basis):
            runs.append(heuristics._RUN.get()[0])
            return project(W, basis)

        monkeypatch.setattr(oracles, "project", projecting)
        exact = exact_projected_set(k4, W_K4)
        assert len(runs) == 16 and set(runs) == {None}
        runs.clear()
        assert in_run(k4, W_K4, lambda: exact_projected_set(k4, W_K4)) == exact
        assert len(runs) == 16 and set(runs) == {k4}
        assert heuristics._RUN.get() == (None,) * 4

    def test_memo_is_not_part_of_the_value(self, k4):
        import pickle

        searched = WeightMatrix(W_K4.rows)
        local_search(k4, searched, SquaredDistance((9, 12)), (0, 1, 2))
        fresh = WeightMatrix(W_K4.rows)
        assert vars(searched) == vars(fresh)
        assert searched == fresh and hash(searched) == hash(fresh)
        assert repr(searched) == repr(fresh)
        assert pickle.dumps(searched) == pickle.dumps(fresh)


class TestRun:
    """One run per outermost call, joined by nested calls on the same M and W."""

    def test_nothing_survives_a_top_level_call(self, monkeypatch):
        calls = count_scans(monkeypatch)
        for M, W in criterion9_instances(4):
            start = random_basis(M, random.Random(M.n))
            scans = []
            for _ in range(2):
                calls[0] = 0
                local_search(M, W, SquaredDistance((0, 0)), start)
                scans.append(calls[0])
            assert scans[0] == scans[1] > 1
            assert heuristics._RUN.get() == (None,) * 4

    def test_nested_calls_join_the_run(self, monkeypatch):
        # A second search on this very M and W inside the run scans nothing
        # new; one on an equal copy, as a pool worker unpickles it, gets its
        # own memos, and so does an equal copy of W.
        import pickle

        calls = count_scans(monkeypatch)
        M, W = criterion9_instances(1)[0]
        goal = SquaredDistance((0, 0))
        start = random_basis(M, random.Random(1))
        alone = local_search(M, W, goal, start)
        scans = calls[0]
        M2, W2 = pickle.loads(pickle.dumps(M)), WeightMatrix(W.rows)

        def body():
            counts = []
            for args in ((M, W), (M, W), (M2, W), (M, W2), (M, W)):
                calls[0] = 0
                assert local_search(*args, goal, start) == alone
                counts.append(calls[0])
            return counts

        assert in_run(M, W, body) == [scans, 0, scans, scans, 0]

    def test_run_ends_on_a_refusal(self, k4):
        with pytest.raises(DimensionError):
            local_search(k4, W_K4, SquaredDistance((0, 0)), (0, 1, 3))  # a triangle
        assert heuristics._RUN.get() == (None,) * 4
        with pytest.raises(DimensionError, match="weight matrix has 4 columns"):
            local_search(k4, WeightMatrix(((1, 2, 3, 4),)), SquaredDistance((0,)), (0, 1, 2))

    def test_a_chunk_shares_one_run(self, monkeypatch):
        # Inside the run on (M, W), a chunk of jobs on an unpickled copy, as
        # a pool worker gets it, opens one run of its own: it scans each
        # basis once over all its targets, and finds what one pivot test does.
        import pickle

        scanned = []
        scan = Matroid.adjacent_bases

        def recording(self, basis):
            scanned.append(basis)
            return scan(self, basis)

        monkeypatch.setattr(Matroid, "adjacent_bases", recording)
        for k, (M, W) in enumerate(criterion9_instances(4)):
            targets = box_points(M, W)
            jobs = [(t, 2, "ls", 3, _derived_seed(k, i)) for i, t in enumerate(targets)]
            M2, W2 = pickle.loads(pickle.dumps((M, W)))
            scanned.clear()
            found = in_run(M, W, lambda: _pivot_test_chunk(M2, W2, jobs))
            assert scanned and len(scanned) == len(set(scanned)), k
            # The seed of each target's index among them, as pivot_test uses.
            assert found == pivot_test(M, W, targets, 2, seed=k, tabu_limit=3), k


# The vector matroid of the columns of a 2 x 5 matrix, with parallel columns.
VECTOR_2X5 = [[1, 0, 1, -1, 2], [1, 1, 0, 1, 2]]


def every_backend():
    """K5, U(2,5) and VECTOR_2X5, each freshly built with an empty cache."""
    return [graphic_matroid([[int(i != j) for j in range(5)] for i in range(5)]),
            uniform_matroid(5, 2), vector_matroid(VECTOR_2X5)]


class TestPickling:
    def test_caches_stay_behind(self):
        # A search leaves M and W as it found them: the same fields as a
        # fresh value, the same pickled size, and the round trip keeps the
        # backend's class and fields.
        import pickle

        rng = random.Random(41)
        for M, fresh in zip(every_backend(), every_backend()):
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, 0, 9))
            sizes = len(pickle.dumps(M)), len(pickle.dumps(W))
            pivot_test(M, W, box_points(M, W), tries=1, seed=2)
            boundary_pareto_search(M, W, tries=1, seed=2)
            assert vars(M) == vars(fresh)
            assert W == WeightMatrix(W.rows) and vars(W) == vars(WeightMatrix(W.rows))
            assert (len(pickle.dumps(M)), len(pickle.dumps(W))) == sizes
            M2, W2 = pickle.loads(pickle.dumps((M, W)))
            assert type(M2) is type(M) and vars(M2) == vars(M)
            assert W2 == W
            assert sorted(enumerate_bases(M2)) == sorted(enumerate_bases(M))

    def test_workers_agree_on_every_backend(self):
        # Each backend crosses the process pool: two workers find what one does.
        rng = random.Random(43)
        for M in every_backend():
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, 0, 9))
            targets = box_points(M, W)
            assert len(exact_projected_set(M, W)) > 1  # more than one job
            seq = pivot_test(M, W, targets, tries=2, seed=7, workers=1)
            try:
                par = pivot_test(M, W, targets, tries=2, seed=7, workers=2)
            except OSError:
                pytest.skip("process pools unavailable")
            assert seq and par == seq, M


class TestDeterminism:
    def test_all_heuristics_repeatable(self, k4):
        for fn in (
            lambda: pivot_test(k4, W_K4, [(9, 12)], tries=3, seed=8),
            lambda: boundary_pareto_search(k4, W_K4, tries=3, seed=8),
        ):
            assert fn() == fn()

    def test_every_result_is_a_basis(self, k4):
        found = boundary_pareto_search(k4, W_K4, tries=5, seed=12)
        found |= pivot_test(k4, W_K4, [(9, 12), (10, 11)], tries=5, seed=12)
        for b in found:
            assert k4.is_basis(b)
