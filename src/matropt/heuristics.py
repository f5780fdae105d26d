"""Search procedures over the base-exchange graph of a matroid.

All procedures are deterministic functions of (inputs, seed): randomness
flows only through integer-seeded generators, with per-attempt seeds derived
arithmetically so that parallel and sequential runs agree bit for bit.
Every knob is a plain argument, checked on entry: counts and limits must be
at least 1 and a depth at least 0, or DimensionError; `pivot_test` and
`boundary_pareto_search` check theirs through one helper.
Objective values are plain ints on integer points with integer data and
exact Fractions only for truly rational coefficients or targets; ties
always break toward the lexicographically smallest basis.  Projections go
through `_point`, which memoizes them on the weight matrix.  Neighbourhoods
come from `Matroid.adjacent_bases`, cached on the matroid.  It also refuses
(DimensionError) a start that is not a basis: `local_search`, `tabu_search`
and `projected_boundary` list their start's neighbours before they report
or leave it, and only `fiber_bfs`, which lists none at depth 0, checks its
start itself.  Within one call,
`local_search` and `tabu_search` score each projected point once (the
restarts of one pivot-test target share their scores), and
`projected_boundary` tests each basis against the half-plane rule once.

The pivot test and the fiber-BFS driver first list the projected image with
`_image`, a breadth-first search of the exchange graph that gives up once
it reaches more bases than a budget: the least work the caller does anyway
(one restart per target, or the fewest attempts before the driver stops on
its own).  Under that budget they skip targets outside the image and stop
once every image point has a witness; neither changes any result, only the
work spent on empty fibers.  The pivot test holds its targets once, as one
sorted list of the caller's tuples.
"""

from __future__ import annotations

import random
from itertools import groupby

from .errors import DimensionError, check_cap
from .matroid import Matroid, greedy_max_basis, random_basis
from .multicriteria import (
    Custom,
    SquaredDistance,
    WeightMatrix,
    check_fit,
    pareto_filter,
    project,
)
from .oracles import planar_convex_hull

RANDOM_DIRECTION_RANGE = 1000  # integer entries drawn uniformly in [-R, R]


def _check_knobs(**knobs):
    for name, value in knobs.items():
        if value < 1:
            raise DimensionError(f"{name} must be >= 1")


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


def _image(M: Matroid, W: WeightMatrix, budget):
    """Every projection of a basis, or None once more than `budget` bases are
    reached.

    Breadth-first search of the exchange graph, which is connected, from the
    lexicographically first basis; it draws no random numbers and scans at
    most budget + 1 neighbourhoods.
    """
    start = greedy_max_basis(M, [0] * M.n)[0]
    reached = {start}
    queue = [start]
    for basis in queue:
        for nb in M.adjacent_bases(basis):
            if nb not in reached:
                reached.add(nb)
                queue.append(nb)
        if len(reached) > budget:
            return None
    return {_point(W, b) for b in reached}


def _scorer(W: WeightMatrix, objective, scores):
    """basis -> the objective value of its projection, each projected point
    scored once into the dict `scores` (a fresh one when None)."""
    scores = {} if scores is None else scores

    def score(basis):
        p = _point(W, basis)
        value = scores.get(p)
        if value is None:
            value = scores[p] = objective(p)
        return value

    return score


def local_search(M: Matroid, W: WeightMatrix, objective, start, transcript=None, scores=None):
    """Steepest-descent pivoting to the best neighbor while it strictly improves.

    Returns a basis none of whose neighbors has a smaller objective value.
    Always terminates: the value strictly decreases over a finite base set.
    Each projected point is scored once per call; a caller that searches
    again with the same objective passes one dict `scores` to every call,
    and then each point is scored once over all of them.
    """
    check_fit(M, W)
    current = tuple(sorted(start))
    score = _scorer(W, objective, scores)
    value = score(current)
    pivots = 0
    while True:
        neighbors = M.adjacent_bases(current)
        if transcript is not None:
            transcript(pivots, current, _point(W, current), value)
        best_value, best = min(((score(nb), nb) for nb in neighbors), default=(value, current))
        if best_value >= value:
            return current
        value, current = best_value, best
        pivots += 1


def tabu_search(M: Matroid, W: WeightMatrix, objective, start, tabu_limit, transcript=None,
                scores=None):
    """Pivot to the best not-yet-visited neighbor, even uphill.

    Tracks the best basis seen; stops after `tabu_limit` consecutive pivots
    without improving it, or when every neighbor has been visited.  Each
    projected point is scored once, as in `local_search`.
    """
    check_fit(M, W)
    _check_knobs(tabu_limit=tabu_limit)
    current = tuple(sorted(start))
    visited = {current}
    score = _scorer(W, objective, scores)
    best_basis = current
    best_value = score(current)
    stale = 0
    pivots = 0
    while stale < tabu_limit:
        # Neighbors are distinct, so the pair order is the (value, basis) order.
        candidates = [(score(nb), nb) for nb in M.adjacent_bases(current) if nb not in visited]
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
    scores = {}  # one goal for every restart, so each point is scored once
    rng = random.Random(seed)
    for _ in range(tries):
        start = random_basis(M, rng)
        if searcher == "ts":
            found = tabu_search(M, W, goal, start, tabu_limit, scores=scores)
        else:
            found = local_search(M, W, goal, start, scores=scores)
        if scores[_point(W, found)] == 0:
            return found
    return None


def _check_pivot_test(M: Matroid, W: WeightMatrix, tries, searcher, tabu_limit, workers):
    """`pivot_test`'s argument checks, which `boundary_pareto_search` makes first."""
    check_fit(M, W)
    _check_knobs(tries=tries, tabu_limit=tabu_limit, workers=workers)
    if searcher not in ("ls", "ts"):
        raise DimensionError("searcher must be 'ls' or 'ts'")


def pivot_test(M: Matroid, W: WeightMatrix, targets, tries, searcher="ls", seed=0,
               tabu_limit=10, workers=1):
    """Hunt for bases projecting onto each target point.

    For each target x', up to `tries` seeded restarts of the chosen searcher
    minimize the squared distance to x'; a basis is kept only when the
    distance reaches zero, so every reported projection lies in the target
    set.  Targets must be integral (a non-integral coordinate raises
    DimensionError).  They are held once, as one sorted list of the
    caller's own tuples, and a repeated target is searched once.  Targets
    are processed independently (and in parallel when workers > 1) with
    per-target seeds, so partitioning never changes the result.

    When the matroid has at most as many bases as there are distinct
    targets, the projected image is listed first (`_image`) and targets
    outside it run no search, saving `tries` restarts each.  Listing scans
    at most one neighbourhood more than there are targets, and every target
    gets at least one restart, which scans at least one; so when no target
    lies outside the image, listing adds at most one scan more than the
    searches make.  Each kept target keeps the seed of its index among all
    sorted distinct targets, so the result is the same as searching every
    target.
    """
    _check_pivot_test(M, W, tries, searcher, tabu_limit, workers)
    items = []
    for t in map(tuple, targets):
        if len(t) != W.d:
            raise DimensionError("target dimension mismatch")
        if not all(isinstance(x, int) for x in t):
            if any(x != int(x) for x in t):
                raise DimensionError(f"target {t} is not integral")
            t = tuple(map(int, t))
        items.append(t)
    items.sort()
    image = _image(M, W, sum(1 for _ in groupby(items)))
    jobs = (
        (M, W, target, tries, searcher, tabu_limit, _derived_seed(seed, i))
        for i, (target, _) in enumerate(groupby(items))
        if image is None or target in image
    )
    if workers > 1:
        jobs = list(jobs)
    if workers > 1 and len(jobs) > 1:
        # Imported here: multiprocessing would add about 2.5 MB of resident
        # memory to every command that never starts a worker.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(_pivot_test_point, *zip(*jobs),
                                  chunksize=max(1, len(jobs) // workers)))
    else:
        found = (_pivot_test_point(*job) for job in jobs)
    return {b for b in found if b is not None}


# Planar boundary walk ------------------------------------------------------


def _in_halfplane(M: Matroid, W: WeightMatrix, basis, strict) -> bool:
    """Do the directions from the basis's projection p to its neighbours'
    projections fit in a half-plane (d = 2)?

    The nonzero directions d = q - p lie in a closed half-plane exactly when
    one of them, u, has cross(u, v) >= 0 for every direction v: the most
    clockwise direction of the half-plane is such a u, and any such u bounds
    one.  They lie in an open half-plane (`strict`), which makes p a vertex of
    the projected hull, exactly when in addition every v with cross(u, v) = 0
    points the same way as u (dot(u, v) > 0).  No directions at all counts
    as true.  This is the angular gap test without sorting: with the
    directions in counter-clockwise order, a cyclic gap of at least pi (more
    than pi when strict) ends at u exactly when every direction lies within
    pi (strictly less than pi) counter-clockwise of u.
    """
    x, y = _point(W, basis)
    dirs = {(q[0] - x, q[1] - y) for q in (_point(W, nb) for nb in M.adjacent_bases(basis))}
    dirs.discard((0, 0))
    for ux, uy in dirs:
        for vx, vy in dirs:
            cross = ux * vy - uy * vx
            if cross < 0 or (cross == 0 and strict and ux * vx + uy * vy < 0):
                break
        else:
            return True
    return not dirs


def projected_boundary(M: Matroid, W: WeightMatrix, start):
    """Walk the base-exchange graph along hull-boundary projections (d = 2).

    The start basis must project to a vertex of the projected hull (the
    strict half-plane test); otherwise DimensionError.  The walk is a
    breadth-first search that pivots onto neighbours whose projections are
    new and pass the closed half-plane test, so lattice points inside hull
    edges never block the path.  The output projections contain every hull
    vertex and stay on the boundary.
    """
    check_fit(M, W)
    if W.d != 2:
        raise DimensionError("projected_boundary is implemented for d = 2 only")
    start = tuple(sorted(start))
    if not _in_halfplane(M, W, start, strict=True):
        raise DimensionError("start basis must project to an extreme point")
    seen_points = {_point(W, start)}
    off_boundary = set()  # bases that failed the test, whose verdict is theirs alone
    queue = [start]
    for current in queue:
        for nb in M.adjacent_bases(current):
            p = _point(W, nb)
            if p in seen_points or nb in off_boundary:
                continue
            if _in_halfplane(M, W, nb, strict=False):
                seen_points.add(p)
                queue.append(nb)
            else:
                off_boundary.add(nb)
    return set(queue)


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

    start = random_basis(M, rng)
    return local_search(M, W, Custom(key), start)


def _pareto_chain(points):
    """Hull vertices on the lower-left chain, sorted by first coordinate.

    The CCW hull starts at the lexicographically smallest (x, y) vertex, and
    its lower chain up to the smallest (y, x) vertex is sorted; that chain
    is exactly the vertices minimizing some nonnegative linear functional,
    each a genuine Pareto optimum of the full projected set, unlike
    arbitrary boundary lattice points.
    """
    hull = planar_convex_hull(points)
    return hull[:hull.index(min(hull, key=lambda p: (p[1], p[0]))) + 1]


def boundary_pareto_search(M: Matroid, W: WeightMatrix, tries, seed=0, searcher="ts",
                           tabu_limit=10, workers=1):
    """Pareto set hunt for d = 2: boundary walk, staircase gap sweep, filter.

    The boundary walk supplies the projected hull; its lower-left chain
    vertices form a staircase of certain Pareto optima, and any further
    optimum must lie in the closed axis-aligned box spanned by a pair of
    consecutive staircase points.  Every lattice point of those boxes is
    attacked with the pivot test, and a final pairwise filter keeps exactly
    the bases whose projections are Pareto-minimal among everything found.
    The boxes meet only at their shared corners, so their points less the
    corners are distinct: they are counted before any is listed, refused
    (CapError) above MATROPT_BASES_CAP, and listed once.  The pivot test's
    arguments are checked before the walk, and `projected_boundary`
    refuses d != 2.
    """
    _check_pivot_test(M, W, tries, searcher, tabu_limit, workers)
    rng = random.Random(_derived_seed(seed, 0))
    start = boundary_start(M, W, rng)
    boundary = projected_boundary(M, W, start)
    best = {b: _point(W, b) for b in boundary}
    staircase = _pareto_chain(set(best.values()))
    corners = set(staircase)
    found = {b for b, p in best.items() if p in corners}
    steps = list(zip(staircase, staircase[1:]))
    check_cap(sum((q1 - p1 + 1) * (p2 - q2 + 1) - 2 for (p1, p2), (q1, q2) in steps),
              "staircase targets")
    targets = [(x, y) for (p1, p2), (q1, q2) in steps
               for x in range(p1, q1 + 1) for y in range(q2, p2 + 1)
               if (x, y) != (p1, p2) and (x, y) != (q1, q2)]
    if targets:
        found |= pivot_test(
            M, W, targets, tries, searcher=searcher,
            seed=_derived_seed(seed, 1), tabu_limit=tabu_limit, workers=workers,
        )
    projections = {b: _point(W, b) for b in found}
    final_points = pareto_filter(projections.values())
    return {b for b, p in projections.items() if p in final_points}


# Fiber-skipping breadth-first search ---------------------------------------


def fiber_bfs(M: Matroid, W: WeightMatrix, start, depth, seen, witnesses):
    """Bounded BFS that only pivots onto fresh projections.

    Records the projection of `start`, then explores from it, recording a
    neighbor only when its projection is not in `seen` (pivots inside a
    fiber are forbidden), and exploring from each recorded neighbor in turn,
    depth first, while its level stays below `depth`; depth 0 records the
    start alone.  New projections go into the caller's set `seen` and their
    bases into its dict `witnesses`; returns (seen, witnesses).
    """
    check_fit(M, W)
    start = tuple(sorted(start))
    if not M.is_basis(start):
        raise DimensionError(f"{start} is not a basis")
    p = _point(W, start)
    if p not in seen:
        seen.add(p)
        witnesses[p] = start

    # An explicit stack, so that no depth meets Python's recursion limit;
    # each frontier goes on reversed, so that its first basis is explored
    # next.  Every basis on the stack was recorded when it was reached.
    stack = [(start, 0)]
    while stack:
        basis, level = stack.pop()
        if level >= depth:
            continue
        frontier = []
        for nb in M.adjacent_bases(basis):
            q = _point(W, nb)
            if q not in seen:
                seen.add(q)
                witnesses[q] = nb
                frontier.append((nb, level + 1))
        stack.extend(reversed(frontier))
    return seen, witnesses


def fiber_bfs_driver(M: Matroid, W: WeightMatrix, *, seed=0, bfs_depth=2, num_searches=10,
                     boundary_retry_limit=100, random_retry_limit=1000):
    """Alternate boundary and random seeding, exploring each fresh projection.

    Phase 0 (boundary) attempts run a lexicographically refined linear
    minimization in a random direction; phase 1 (random) attempts draw a
    basis by rejection sampling.  An attempt whose projection is already
    known counts against its phase's consecutive-failure budget
    (boundary_retry_limit, random_retry_limit); a phase whose budget is
    spent sits out.  Stops after `num_searches` fresh seeds or when both
    budgets are spent.  Per-attempt seeds make the first N successes of a
    longer run identical to a shorter one, so output grows monotonically in
    num_searches.  A fresh seed is explored by `fiber_bfs` to `bfs_depth`;
    depth 0 keeps the seed's own projection alone.  The count and both
    retry limits must be >= 1 and `bfs_depth` >= 0 (else DimensionError).

    It also stops once every projected point has a witness: from then on
    each attempt would fail and change nothing.  That needs the image from
    `_image`, listed only when the matroid has at most
    min(num_searches, boundary_retry_limit + random_retry_limit) bases.
    Without the early stop the driver makes at least that many attempts,
    since it ends only after num_searches successes or after at least
    boundary_retry_limit + random_retry_limit failures; listing scans at
    most one neighbourhood more than that.
    """
    check_fit(M, W)
    _check_knobs(num_searches=num_searches, boundary_retry_limit=boundary_retry_limit,
                 random_retry_limit=random_retry_limit)
    if bfs_depth < 0:
        raise DimensionError("bfs_depth must be >= 0")
    limits = (boundary_retry_limit, random_retry_limit)
    image = _image(M, W, min(num_searches, sum(limits)))
    seen: set = set()
    witnesses: dict = {}
    successes = 0
    failures = [0, 0]  # consecutive failures per phase
    attempt = [0, 0]  # per-phase attempt counters for seed derivation
    while successes < num_searches and any(f < n for f, n in zip(failures, limits)):
        for phase in (0, 1):
            if failures[phase] >= limits[phase]:
                continue
            if image is not None and len(seen) == len(image):
                return seen, witnesses
            rng = random.Random(_derived_seed(seed, phase, attempt[phase]))
            attempt[phase] += 1
            basis = boundary_start(M, W, rng) if phase == 0 else random_basis(M, rng)
            p = _point(W, basis)
            if p in seen:
                failures[phase] += 1
                continue
            failures[phase] = 0
            successes += 1
            fiber_bfs(M, W, basis, bfs_depth, seen, witnesses)
            if successes >= num_searches:
                break
    return seen, witnesses
