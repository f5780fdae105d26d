"""Local/tabu search, pivot test, boundary walk, Pareto sweep, fiber BFS."""

import random

import pytest

from conftest import random_connected_graph, random_weight_matrix
from matropt import (
    DimensionError,
    Linear,
    SearchParams,
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
    local_search,
    pareto_filter,
    pivot_test,
    planar_convex_hull,
    project,
    projected_boundary,
    random_basis,
    tabu_search,
    uniform_matroid,
)
from matropt.heuristics import _is_extreme_projection, _point

W_K4 = WeightMatrix(((3, 1, 4, 1, 5, 9), (2, 7, 1, 8, 2, 8)))


def brute_min(M, W, objective):
    return min(objective(project(W, b)) for b in enumerate_bases(M))


class TestLocalSearch:
    def test_linear_reaches_global_optimum(self, k4):
        obj = Linear((1, 1))
        best = brute_min(k4, W_K4, obj)
        for seed in range(10):
            found = local_search(k4, W_K4, obj, random_basis(k4, seed=seed))
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
            found = local_search(k4, W_K4, obj, random_basis(k4, seed=seed))
            value = obj(project(W_K4, found))
            for nb in k4.adjacent_bases(found):
                assert obj(project(W_K4, nb)) >= value

    def test_rejects_non_basis(self, u24):
        W = WeightMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))
        bad = (0, 1, 2)
        with pytest.raises(DimensionError):
            local_search(u24, W, Linear((1, 0)), bad)
        with pytest.raises(DimensionError):
            tabu_search(u24, bad, W, Linear((1, 0)), 2)
        with pytest.raises(DimensionError):
            projected_boundary(u24, W, bad)
        with pytest.raises(DimensionError):
            fiber_bfs(u24, W, bad, 1)

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
            found = local_search(M, W, obj, random_basis(M, seed=1))
            assert obj(project(W, found)) == best


class TestTabuSearch:
    def test_stays_at_global_minimum(self, k4):
        obj = SquaredDistance((11, 14))
        best_basis = min(
            enumerate_bases(k4), key=lambda b: (obj(project(W_K4, b)), b)
        )
        for limit in (1, 5, 50):
            assert tabu_search(k4, best_basis, W_K4, obj, limit) == best_basis

    def test_large_limit_finds_optimum_u24(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        for target in {project(W, b) for b in enumerate_bases(u24)}:
            obj = SquaredDistance(target)
            found = tabu_search(u24, (0, 1), W, obj, 10)
            assert obj(project(W, found)) == 0

    def test_never_revisits(self, k4):
        trail = []
        tabu_search(
            k4, (0, 1, 2), W_K4, SquaredDistance((11, 14)), 100,
            transcript=lambda piv, b, p, v: trail.append(b),
        )
        assert len(trail) == len(set(trail))

    def test_at_least_as_good_as_local_search(self, k4):
        # Paired seeded restarts: tabu never loses to plain descent.
        obj = SquaredDistance((11, 14))
        ls_wins = ts_wins = 0
        for seed in range(1000):
            start = random_basis(k4, seed=seed)
            ls_val = obj(project(W_K4, local_search(k4, W_K4, obj, start)))
            ts_val = obj(project(W_K4, tabu_search(k4, start, W_K4, obj, 100)))
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
        box = bounding_box(u24, W)
        found = pivot_test(u24, W, list(box.lattice_points()), tries=10, seed=1)
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


class TestExtremenessOracle:
    def test_matches_hull_membership(self, k4):
        exact = set(exact_projected_set(k4, W_K4))
        hull = set(planar_convex_hull(exact))
        for b in enumerate_bases(k4):
            p = project(W_K4, b)
            assert _is_extreme_projection(k4, W_K4, b) == (p in hull)


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

    def test_outputs_are_mutually_nondominated(self, k4):
        from matropt.multicriteria import dominates

        found = boundary_pareto_search(k4, W_K4, tries=5, seed=2)
        pts = [project(W_K4, b) for b in found]
        for p in pts:
            assert not any(dominates(q, p) for q in pts)


class TestFiberBFS:
    def test_depth_zero_is_empty(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        seen, wit = fiber_bfs(u24, W, (0, 1), 0)
        assert seen == set() and wit == {}

    def test_depth_one_includes_start(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        seen, _ = fiber_bfs(u24, W, (0, 1), 1)
        assert project(W, (0, 1)) in seen

    def test_output_inside_exact_set(self, k4):
        exact = set(exact_projected_set(k4, W_K4))
        seen, wit = fiber_bfs(k4, W_K4, (0, 1, 2), 3)
        assert seen <= exact
        for p, b in wit.items():
            assert project(W_K4, b) == p
            assert k4.is_basis(b)

    def test_deep_exhaustive_u24(self, u24):
        W = WeightMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        exact = set(exact_projected_set(u24, W))
        seen, _ = fiber_bfs(u24, W, (0, 1), 10)
        assert seen == exact


class TestFiberBFSDriver:
    def test_minimal_limits_nonempty(self, k4):
        params = SearchParams(
            seed=0, bfs_depth=1, num_searches=1,
            boundary_retry_limit=1, random_retry_limit=1,
        )
        seen, _ = fiber_bfs_driver(k4, W_K4, params)
        assert seen
        assert seen <= set(exact_projected_set(k4, W_K4))

    def test_generous_limits_reach_everything(self):
        rng = random.Random(55)
        for trial in range(5):
            M = graphic_matroid(random_connected_graph(rng, max_nodes=7))
            if len(enumerate_bases(M)) > 50:
                continue
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n))
            params = SearchParams(
                seed=trial, bfs_depth=M.n, num_searches=10_000,
                boundary_retry_limit=100, random_retry_limit=2000,
            )
            seen, _ = fiber_bfs_driver(M, W, params)
            assert seen == set(exact_projected_set(M, W))

    def test_monotone_in_num_searches(self, k4):
        base = dict(seed=9, bfs_depth=2, boundary_retry_limit=5, random_retry_limit=20)
        small, _ = fiber_bfs_driver(k4, W_K4, SearchParams(num_searches=3, **base))
        large, _ = fiber_bfs_driver(k4, W_K4, SearchParams(num_searches=6, **base))
        assert small <= large

    def test_deterministic(self, k4):
        params = SearchParams(seed=4, bfs_depth=2, num_searches=5)
        a, _ = fiber_bfs_driver(k4, W_K4, params)
        b, _ = fiber_bfs_driver(k4, W_K4, params)
        assert a == b


class TestKnobValidation:
    """tries, tabu_limit and workers must be >= 1, as in SearchParams."""

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

    def test_tabu_search(self, k4):
        obj = SquaredDistance((9, 12))
        with pytest.raises(DimensionError):
            tabu_search(k4, (0, 1, 2), W_K4, obj, 0)
        assert k4.is_basis(tabu_search(k4, (0, 1, 2), W_K4, obj, 1))


class TestProjectionMemo:
    def test_matches_project_on_catalog(self, catalog):
        rng = random.Random(8)
        for M in catalog:
            W = WeightMatrix(random_weight_matrix(rng, 2, M.n, -5, 20))
            bases = enumerate_bases(M)
            for b in bases:
                assert _point(W, b) == project(W, b)
                assert _point(W, b) == project(W, b)  # served from the memo
            assert set(W._points) == set(bases)

    def test_oracle_route_bypasses_memo(self, k4):
        W = WeightMatrix(W_K4.rows)
        exact = exact_projected_set(k4, W)
        assert W._points == {}
        boundary_pareto_search(k4, W, tries=2, seed=3)
        assert W._points
        assert exact_projected_set(k4, W) == exact

    def test_memo_is_not_part_of_the_value(self, k4):
        import pickle

        filled = WeightMatrix(W_K4.rows)
        local_search(k4, filled, SquaredDistance((9, 12)), (0, 1, 2))
        fresh = WeightMatrix(W_K4.rows)
        assert filled._points and not fresh._points
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert pickle.loads(pickle.dumps(filled))._points == filled._points


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(DimensionError):
            SearchParams(tries=0)
        with pytest.raises(DimensionError):
            SearchParams(bfs_depth=-1)
        assert SearchParams(bfs_depth=0).bfs_depth == 0


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
