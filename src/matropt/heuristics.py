"""Search procedures over the base-exchange graph of a matroid.

All procedures are deterministic functions of (inputs, seed): randomness
flows only through integer-seeded generators, with per-attempt seeds derived
arithmetically so that parallel and sequential runs agree bit for bit.
Objective values are plain ints on integer points with integer data and
exact Fractions only for truly rational coefficients or targets; ties
always break toward the lexicographically smallest basis.  Projections go
through `_point`, which memoizes them on the weight matrix.
"""

from __future__ import annotations

import functools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd

from .errors import DimensionError
from .matroid import Matroid, random_basis
from .multicriteria import (
    Custom,
    SquaredDistance,
    WeightMatrix,
    pareto_filter,
    project,
)

RANDOM_DIRECTION_RANGE = 1000  # integer entries drawn uniformly in [-R, R]


def _check_knobs(**knobs):
    for name, value in knobs.items():
        if value < 1:
            raise DimensionError(f"{name} must be >= 1")


@dataclass(frozen=True)
class SearchParams:
    """Driver knobs shared by the seeded procedures."""

    seed: int = 0
    tabu_limit: int = 10
    tries: int = 10
    bfs_depth: int = 2
    num_searches: int = 10
    boundary_retry_limit: int = 100
    random_retry_limit: int = 1000

    def __post_init__(self):
        _check_knobs(**{
            name: getattr(self, name)
            for name in ("tabu_limit", "tries", "num_searches", "boundary_retry_limit", "random_retry_limit")
        })
        if self.bfs_depth < 0:
            raise DimensionError("bfs_depth must be >= 0")


def _check(M: Matroid, W: WeightMatrix):
    if W.n != M.n:
        raise DimensionError(f"weight matrix has {W.n} columns, matroid has {M.n}")


def _point(W: WeightMatrix, basis):
    """project(W, basis), memoized in W._points for the search procedures."""
    p = W._points.get(basis)
    if p is None:
        p = W._points[basis] = project(W, basis)
    return p


def _derived_seed(seed: int, *indices) -> int:
    out = seed & 0xFFFFFFFFFFFFFFFF
    for i in indices:
        out = (out * 1_000_003 + i + 1) & 0xFFFFFFFFFFFFFFFF
    return out


def local_search(M: Matroid, W: WeightMatrix, objective, start, transcript=None):
    """Steepest-descent pivoting to the best neighbor while it strictly improves.

    Returns a basis none of whose neighbors has a smaller objective value.
    Always terminates: the value strictly decreases over a finite base set.
    """
    _check(M, W)
    current = tuple(sorted(start))
    if not M.is_basis(current):
        raise ValueError(f"{current} is not a basis")
    value = objective(_point(W, current))
    pivots = 0
    while True:
        if transcript is not None:
            transcript(pivots, current, _point(W, current), value)
        best = None
        for nb in M.adjacent_bases(current):
            nb_value = objective(_point(W, nb))
            if nb_value < value and (best is None or (nb_value, nb) < best):
                best = (nb_value, nb)
        if best is None:
            return current
        value, current = best
        pivots += 1


def tabu_search(M: Matroid, start, W: WeightMatrix, objective, tabu_limit, transcript=None):
    """Pivot to the best not-yet-visited neighbor, even uphill.

    Tracks the best basis seen; stops after `tabu_limit` consecutive pivots
    without improving it, or when every neighbor has been visited.
    """
    _check(M, W)
    _check_knobs(tabu_limit=tabu_limit)
    current = tuple(sorted(start))
    if not M.is_basis(current):
        raise ValueError(f"{current} is not a basis")
    visited = {current}
    best_basis = current
    best_value = objective(_point(W, current))
    stale = 0
    pivots = 0
    while stale < tabu_limit:
        # Neighbors are distinct, so the pair order is the (value, basis) order.
        candidates = [
            (objective(_point(W, nb)), nb) for nb in M.adjacent_bases(current) if nb not in visited
        ]
        if not candidates:
            break
        value, current = min(candidates)
        visited.add(current)
        pivots += 1
        if transcript is not None:
            transcript(pivots, current, _point(W, current), value)
        if value < best_value:
            best_value = value
            best_basis = current
            stale = 0
        else:
            stale += 1
    return best_basis


def _pivot_test_point(M, W, target, tries, searcher, tabu_limit, seed):
    goal = SquaredDistance(tuple(target))
    rng = random.Random(seed)
    for _ in range(tries):
        start = random_basis(M, rng=rng)
        if searcher == "ts":
            found = tabu_search(M, start, W, goal, tabu_limit)
        else:
            found = local_search(M, W, goal, start)
        if goal(_point(W, found)) == 0:
            return found
    return None


def pivot_test(M: Matroid, W: WeightMatrix, targets, tries, searcher="ls", seed=0,
               tabu_limit=10, workers=1):
    """Hunt for bases projecting onto each target point.

    For each target x', up to `tries` seeded restarts of the chosen searcher
    minimize the squared distance to x'; a basis is kept only when the
    distance reaches zero, so every reported projection lies in the target
    set.  Targets are processed independently (and in parallel when
    workers > 1) with per-target seeds, so partitioning never changes the
    result.
    """
    _check(M, W)
    _check_knobs(tries=tries, tabu_limit=tabu_limit, workers=workers)
    if searcher not in ("ls", "ts"):
        raise DimensionError("searcher must be 'ls' or 'ts'")
    items = sorted(set(tuple(int(x) for x in t) for t in targets))
    for t in items:
        if len(t) != W.d:
            raise DimensionError("target dimension mismatch")
    jobs = [
        (M, W, target, tries, searcher, tabu_limit, _derived_seed(seed, i))
        for i, target in enumerate(items)
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(_pivot_test_star, jobs, chunksize=max(1, len(jobs) // workers)))
    else:
        found = [_pivot_test_star(job) for job in jobs]
    return {b for b in found if b is not None}


def _pivot_test_star(job):
    return _pivot_test_point(*job)


# Planar boundary walk ------------------------------------------------------


def _primitive(d):
    g = gcd(abs(d[0]), abs(d[1]))
    return (d[0] // g, d[1] // g)


def _angle_sorted(dirs):
    """Distinct primitive directions in counter-clockwise order from +x."""

    def half(d):
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        cross = u[0] * v[1] - u[1] * v[0]
        return 0 if cross == 0 else (-1 if cross > 0 else 1)

    return sorted(dirs, key=functools.cmp_to_key(cmp))


def _projection_gap_crossings(M: Matroid, W: WeightMatrix, basis):
    """Cross products of consecutive CCW neighbor directions, or None when
    there are at most one distinct direction."""
    p = _point(W, basis)
    dirs = set()
    for nb in M.adjacent_bases(basis):
        q = _point(W, nb)
        d = (q[0] - p[0], q[1] - p[1])
        if d != (0, 0):
            dirs.add(_primitive(d))
    if len(dirs) <= 1:
        return None
    vecs = _angle_sorted(dirs)
    return [
        vecs[i][0] * vecs[(i + 1) % len(vecs)][1]
        - vecs[i][1] * vecs[(i + 1) % len(vecs)][0]
        for i in range(len(vecs))
    ]


def _is_extreme_projection(M: Matroid, W: WeightMatrix, basis) -> bool:
    """d=2 vertex test: sort neighbor directions by angle; the projection is
    extreme iff some cyclic angular gap exceeds pi.  Exact integer arithmetic:
    with distinct primitive directions sorted CCW, a gap is > pi exactly when
    the cross product of its endpoints is negative."""
    crossings = _projection_gap_crossings(M, W, basis)
    if crossings is None:
        return True  # image is a point, or all moves leave in one direction
    return any(c < 0 for c in crossings)


def _is_boundary_projection(M: Matroid, W: WeightMatrix, basis) -> bool:
    """Weak variant: some gap >= pi, i.e. all directions fit in a closed
    halfplane.  Holds for every projection on the hull boundary, including
    non-vertex lattice points sitting inside hull edges."""
    crossings = _projection_gap_crossings(M, W, basis)
    if crossings is None:
        return True
    return any(c <= 0 for c in crossings)


def projected_boundary(M: Matroid, W: WeightMatrix, start):
    """Walk the base-exchange graph along hull-boundary projections (d = 2).

    Starting from a basis whose projection is a vertex of the projected
    hull, pivots onto neighbors whose projections are new and on the hull
    boundary (weak halfplane test), so that non-vertex lattice points inside
    hull edges never block the path.  The output projections contain every
    hull vertex and stay on the boundary.
    """
    _check(M, W)
    if W.d != 2:
        raise DimensionError("projected_boundary is implemented for d = 2 only")
    start = tuple(sorted(start))
    if not M.is_basis(start):
        raise ValueError(f"{start} is not a basis")
    if not _is_extreme_projection(M, W, start):
        raise DimensionError("start basis must project to an extreme point")
    out = {start}
    seen_points = {_point(W, start)}
    queue = [start]
    while queue:
        current = queue.pop(0)
        for nb in M.adjacent_bases(current):
            p = _point(W, nb)
            if p in seen_points:
                continue
            if _is_boundary_projection(M, W, nb):
                seen_points.add(p)
                out.add(nb)
                queue.append(nb)
    return out


def _random_direction(rng, d):
    while True:
        vec = tuple(rng.randint(-RANDOM_DIRECTION_RANGE, RANDOM_DIRECTION_RANGE) for _ in range(d))
        if any(vec):
            return vec


def boundary_start(M: Matroid, W: WeightMatrix, rng):
    """Basis whose projection is a hull vertex: minimize a random linear
    objective refined lexicographically, which pins down a vertex exactly."""
    direction = _random_direction(rng, W.d)

    def key(point):
        return (sum(c * x for c, x in zip(direction, point)),) + tuple(point)

    start = random_basis(M, rng=rng)
    return local_search(M, W, Custom(key), start)


def _pareto_chain(points):
    """Hull vertices on the lower-left chain, sorted by first coordinate.

    Walking the CCW hull from the lexicographically smallest (x, y) vertex
    to the smallest (y, x) vertex visits exactly the vertices minimizing
    some nonnegative linear functional; each is a genuine Pareto optimum of
    the full projected set, unlike arbitrary boundary lattice points.
    """
    from .oracles import planar_convex_hull

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


def boundary_pareto_search(M: Matroid, W: WeightMatrix, tries, seed=0, searcher="ts",
                           tabu_limit=10, workers=1):
    """Pareto set hunt for d = 2: boundary walk, staircase gap sweep, filter.

    The boundary walk supplies the projected hull; its lower-left chain
    vertices form a staircase of certain Pareto optima, and any further
    optimum must lie in the closed axis-aligned box spanned by a pair of
    consecutive staircase points.  Every lattice point of those boxes is
    attacked with the pivot test, and a final pairwise filter keeps exactly
    the bases whose projections are Pareto-minimal among everything found.
    """
    _check(M, W)
    _check_knobs(tries=tries, tabu_limit=tabu_limit, workers=workers)
    if W.d != 2:
        raise DimensionError("boundary_pareto_search requires d = 2")
    rng = random.Random(_derived_seed(seed, 0))
    start = boundary_start(M, W, rng)
    boundary = projected_boundary(M, W, start)
    best = {b: _point(W, b) for b in boundary}
    staircase = _pareto_chain(set(best.values()))
    found = {b for b, p in best.items() if p in set(staircase)}
    targets = set()
    for (p1, p2), (q1, q2) in zip(staircase, staircase[1:]):
        for x in range(p1, q1 + 1):
            for y in range(q2, p2 + 1):
                if (x, y) != (p1, p2) and (x, y) != (q1, q2):
                    targets.add((x, y))
    if targets:
        found |= pivot_test(
            M, W, targets, tries, searcher=searcher,
            seed=_derived_seed(seed, 1), tabu_limit=tabu_limit, workers=workers,
        )
    projections = {b: _point(W, b) for b in found}
    final_points = pareto_filter(projections.values())
    return {b for b, p in projections.items() if p in final_points}


# Fiber-skipping breadth-first search ---------------------------------------


def fiber_bfs(M: Matroid, W: WeightMatrix, start, depth, seen=None, witnesses=None):
    """Bounded BFS that only pivots onto fresh projections.

    Explores from `start`, recording a neighbor only when its projection has
    not been seen (pivots inside a fiber are forbidden), and recursing while
    the level stays below `depth`.  Depth 0 returns nothing, by the guard.
    Returns (projections, witness map); `seen` is shared and mutated when a
    driver passes its accumulated set.
    """
    _check(M, W)
    start = tuple(sorted(start))
    if not M.is_basis(start):
        raise ValueError(f"{start} is not a basis")
    seen = set() if seen is None else seen
    witnesses = {} if witnesses is None else witnesses

    def rec(basis, level):
        if level >= depth:
            return
        p = _point(W, basis)
        if p not in seen:
            seen.add(p)
            witnesses[p] = basis
        frontier = []
        for nb in M.adjacent_bases(basis):
            q = _point(W, nb)
            if q not in seen:
                seen.add(q)
                witnesses[q] = nb
                frontier.append(nb)
        for nb in frontier:
            rec(nb, level + 1)

    rec(start, 0)
    return seen, witnesses


def fiber_bfs_driver(M: Matroid, W: WeightMatrix, params: SearchParams):
    """Alternate boundary and random seeding, exploring each fresh projection.

    Boundary attempts run a lexicographically refined linear minimization in
    a random direction; random attempts draw a basis by rejection sampling.
    An attempt whose projection is already known counts against that side's
    consecutive-failure budget.  Stops after `num_searches` fresh seeds or
    when both budgets are exhausted.  Per-attempt seeds make the first N
    successes of a longer run identical to a shorter one, so output grows
    monotonically in num_searches.
    """
    _check(M, W)
    seen: set = set()
    witnesses: dict = {}
    successes = 0
    boundary_failures = 0
    random_failures = 0
    attempt = [0, 0]  # per-phase attempt counters for seed derivation
    while successes < params.num_searches:
        if (
            boundary_failures >= params.boundary_retry_limit
            and random_failures >= params.random_retry_limit
        ):
            break
        for phase in (0, 1):
            if phase == 0 and boundary_failures >= params.boundary_retry_limit:
                continue
            if phase == 1 and random_failures >= params.random_retry_limit:
                continue
            rng = random.Random(_derived_seed(params.seed, phase, attempt[phase]))
            attempt[phase] += 1
            if phase == 0:
                basis = boundary_start(M, W, rng)
            else:
                basis = random_basis(M, rng=rng)
            p = _point(W, basis)
            if p in seen:
                if phase == 0:
                    boundary_failures += 1
                else:
                    random_failures += 1
                continue
            if phase == 0:
                boundary_failures = 0
            else:
                random_failures = 0
            successes += 1
            if params.bfs_depth == 0:
                seen.add(p)
                witnesses[p] = basis
            else:
                fiber_bfs(M, W, basis, params.bfs_depth, seen=seen, witnesses=witnesses)
            if successes >= params.num_searches:
                break
    return seen, witnesses
