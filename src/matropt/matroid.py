"""Matroids behind a rank oracle, one `Matroid` subclass per exact backend.

A `Matroid` (uniform, graphic or vector) answers rank, basis and
basis-exchange queries; around it sit incidence vectors, the greedy
maximum-weight basis, seeded random bases and the automorphism group,
read off the list of bases whatever the backend.  Elements are 0-based
internally and rendered 1-based at the file/CLI surface.  A `Matroid` is
immutable after construction and safe to share across workers; every
operation is a pure function of (matroid, arguments, seed).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import count

from .errors import DimensionError, check_cap
from .linalg import _extend, _integral, _reduce, _unit, integer_rank


class Matroid:
    """Ground set [n] plus a rank oracle.

    A backend is a subclass that supplies `_rank(elements)`, the rank of a
    set of in-range elements, and `_circuit_pairs(b, out)`, the pair (i, j)
    for each j of `out` (the elements outside the basis b) and each i on
    the fundamental circuit C(b, j), in any order.  Do not mutate after
    construction.  Nothing memoizes a rank query; the neighbor lists of
    bases are cached on first use because the search heuristics hammer
    them, and each costs one rank query, the basis check.  The cache stays
    behind when the matroid is pickled (to worker processes, say).
    """

    def __init__(self, n, rank):
        self.n = n
        self.rank = rank
        self._adj_cache = {}

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, rank={self.rank})"

    def __getstate__(self):
        return {**vars(self), "_adj_cache": {}}

    def rank_of(self, subset) -> int:
        """Rank of a subset of the ground set; a repeated element counts once."""
        elements = set(subset)
        for i in elements:
            if not 0 <= i < self.n:
                raise DimensionError(f"element {i} out of range for ground set of size {self.n}")
        return self._rank(elements)

    def is_basis(self, subset) -> bool:
        # The input's own length: a repeated element must not pass.
        subset = tuple(subset)
        return len(subset) == self.rank and self.rank_of(subset) == self.rank

    def adjacent_bases(self, basis):
        """All bases reachable by one exchange, sorted; excludes the input.

        One neighbor per exchange pair, built in the pairs' order, which is
        the neighbors' sorted order; only the basis check asks the rank
        oracle.
        """
        if type(basis) is tuple:
            cached = self._adj_cache.get(basis)
            if cached is not None:
                return cached
        b = tuple(sorted(basis))
        cached = self._adj_cache.get(b)
        if cached is not None:
            return cached
        if not self.is_basis(b):
            raise DimensionError(f"{b} is not a basis")
        neighbors = []
        for i, j in self._exchange_pairs(b):
            nb = list(b)
            nb.remove(i)
            insort(nb, j)
            neighbors.append(tuple(nb))
        self._adj_cache[b] = neighbors = tuple(neighbors)
        return neighbors

    def _exchange_pairs(self, b):
        """The pair (i, j) of every adjacent basis b - i + j, in the neighbors'
        sorted order: i lies on the fundamental circuit C(b, j).  Sorted sets
        of one size sort lexicographically in the descending order of
        sum_e 2^(n-1-e), so the neighbors sort in the ascending order of
        2^(n-1-i) - 2^(n-1-j), and no neighbor is built."""
        inside = set(b)
        pairs = self._circuit_pairs(b, [j for j in range(self.n) if j not in inside])
        top = self.n - 1
        pairs.sort(key=lambda p: (1 << (top - p[0])) - (1 << (top - p[1])))
        return pairs


class UniformMatroid(Matroid):
    """U(rank, n): every set of `rank` elements is a basis."""

    def _rank(self, elements):
        return min(len(elements), self.rank)

    def _circuit_pairs(self, b, out):
        return [(i, j) for j in out for i in b]


class GraphicMatroid(Matroid):
    """The edges of a graph on `nv` vertices; `edges[e]` is (u, v), u < v."""

    def __init__(self, nv, edges):
        self.nv = nv
        self.edges = edges
        super().__init__(len(edges), self._rank(range(len(edges))))

    def _rank(self, elements):
        return len(_spanning_forest(self.nv, self.edges, elements))

    def _circuit_pairs(self, b, out):
        # C(b, j) is j and the tree path between j's endpoints in the
        # forest b: the symmetric difference of their root-path masks.
        edges = self.edges
        anc, _ = _root_paths(self.nv, edges, b)
        paths = [(j, anc[edges[j][0]] ^ anc[edges[j][1]]) for j in out]
        return [(i, j) for j, path in paths for i in b if path >> i & 1]


class VectorMatroid(Matroid):
    """The columns `cols` of an m x n integer matrix, each a tuple of m ints."""

    def __init__(self, m, cols):
        self.m = m
        self.cols = cols
        super().__init__(len(cols), integer_rank(cols))

    def _rank(self, elements):
        return integer_rank([self.cols[j] for j in elements])

    def _circuit_pairs(self, b, out):
        # Column j, reduced against b's columns tagged with unit vectors,
        # carries the combination of them that cancels it; the basis
        # elements with a nonzero tag are those on C(b, j).
        m, cols, r = self.m, self.cols, len(b)
        echelon: list = []
        for t, e in enumerate(b):
            _extend(echelon, [*cols[e], *_unit(t, r)], m)
        tags = [(j, _reduce(echelon, [*cols[j], *[0] * r])[m:]) for j in out]
        return [(i, j) for j, tag in tags for i, x in zip(b, tag) if x]


def uniform_matroid(n: int, r: int) -> Matroid:
    if n < 1:
        raise DimensionError("ground set must have at least one element")
    if not 0 <= r <= n:
        raise DimensionError(f"uniform rank {r} must lie in [0, {n}]")
    return UniformMatroid(n, r)


def graphic_matroid(adjacency) -> Matroid:
    """Graphic matroid of a simple graph given by a 0/1 adjacency matrix.

    Edges are labeled in row-major order of the strict upper triangle.
    Self-loops are rejected; parallel edges cannot be expressed.
    """
    nv = len(adjacency)
    edges = []
    for u in range(nv):
        if len(adjacency[u]) != nv:
            raise DimensionError("adjacency matrix must be square")
        if adjacency[u][u] not in (0, False):
            raise DimensionError("self-loops are not supported")
        for v in range(u + 1, nv):
            if adjacency[u][v] != adjacency[v][u]:
                raise DimensionError("adjacency matrix must be symmetric")
            if adjacency[u][v]:
                edges.append((u, v))
    if not edges:
        raise DimensionError("graph has no edges")
    return GraphicMatroid(nv, tuple(edges))


def vector_matroid(rows) -> Matroid:
    """Vector matroid of the columns of an m x n matrix of exact rationals."""
    m = len(rows)
    if m == 0 or len(rows[0]) == 0:
        raise DimensionError("vector matroid needs a nonempty matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionError("ragged matrix")
    # Column scaling does not change independence: clear denominators per column.
    cols = tuple(tuple(_integral([Fraction(r[j]) for r in rows])) for j in range(n))
    return VectorMatroid(m, cols)


def _spanning_forest(nv, edges, subset):
    """The edges of `subset`, indices into `edges` (pairs of vertices
    0..nv-1), that a greedy pass keeps, in their order: each joins two
    components of those kept before it.  A union-find with path halving."""
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for idx in subset:
        u, v = edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append(idx)
    return kept


def _root_paths(nv, edges, forest):
    """(anc, heads) of the forest of the edge indices `forest`, each
    component rooted at its least vertex: anc[v] masks the edges from v up
    to its root, and heads the edges (u, v) whose lower end, the one
    farther from the root, is v."""
    adj = [[] for _ in range(nv)]
    for e in forest:
        u, v = edges[e]
        adj[u].append((v, e))
        adj[v].append((u, e))
    anc, heads, reached = [0] * nv, 0, [False] * nv
    for root in range(nv):
        if reached[root]:
            continue
        reached[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v, e in adj[u]:
                if not reached[v]:
                    reached[v] = True
                    anc[v] = anc[u] | 1 << e
                    if v == edges[e][1]:
                        heads |= 1 << e
                    stack.append(v)
    return anc, heads


def automorphism_generators(n: int, bases):
    """Generators of the automorphisms of the matroid on [n] with the given
    bases (sorted tuples): permutations sigma (tuples, sigma[e] the image
    of e) that map the bases onto themselves, read off the bases alone.

    A stabilizer chain (Sims, Computational methods in the study of
    permutation groups, 1970): level i keeps 0..i-1 fixed and, for each
    w > i not yet in the orbit of i under the level's generators, largest
    first, looks depth-first for a map that sends i to w; the first one
    found joins the generators.  Each level's orbit of i is then the
    whole orbit under its stabilizer, so the generators of all levels
    generate the group.  Position p may take x only when p and x lie in
    equally many bases, p and a in as many as x and the image of a, for
    every a < p, and the image of every basis whose largest element is p
    is a basis.  Every basis is checked when its largest element is
    placed, so a complete map sends the bases into, hence onto, the bases.
    """
    masks = {sum(1 << e for e in b) for b in bases}
    both = [[0] * n for _ in range(n)]  # both[e][f]: bases holding e and f
    ending = [[] for _ in range(n)]  # ending[p]: bases with largest element p, less p
    for b in bases:
        for e in b:
            for f in b:
                both[e][f] += 1
        if b:
            ending[b[-1]].append(b[:-1])

    def fits(img, x):
        p = len(img)
        return (x not in img and both[p][p] == both[x][x]
                and all(both[p][a] == both[x][y] for a, y in enumerate(img))
                and all((sum(1 << img[a] for a in rest) | 1 << x) in masks for rest in ending[p]))

    gens = []
    for i in range(n - 1):
        level, orbit = [], {i}
        for w in range(n - 1, i, -1):
            if w in orbit:
                continue
            img = list(range(i))
            pools = [iter([w])]  # pools[-1]: the candidates left for the next position
            while pools and len(img) < n:
                x = next((x for x in pools[-1] if fits(img, x)), None)
                if x is None:
                    pools.pop()
                    if pools:
                        img.pop()
                else:
                    img.append(x)
                    pools.append(iter(range(n)))
            if pools:
                level.append(tuple(img))
                stack = list(orbit)
                while stack:
                    e = stack.pop()
                    for g in level:
                        if g[e] not in orbit:
                            orbit.add(g[e])
                            stack.append(g[e])
        gens += level
    return gens


def incidence_vector(basis, n):
    """0/1 vector with ones on the basis elements."""
    vec = [0] * n
    for i in basis:
        vec[i] = 1
    return tuple(vec)


def greedy_max_basis(M: Matroid, weights):
    """Maximum-weight basis by the greedy algorithm.

    Ties are broken by scanning elements in ascending index order, which
    yields the lexicographically smallest optimal basis.  The weight of the
    basis is an int for integer weights.
    """
    if len(weights) != M.n:
        raise DimensionError(f"weight vector length {len(weights)} != {M.n}")
    order = sorted(range(M.n), key=lambda i: (-weights[i], i))
    chosen = []
    current = set()
    for i in order:
        if M.rank_of(current | {i}) > len(chosen):
            chosen.append(i)
            current.add(i)
            if len(chosen) == M.rank:
                break
    basis = tuple(sorted(chosen))
    return basis, sum(weights[i] for i in basis)


def random_basis(M: Matroid, rng):
    """Uniform random basis by rejection-sampling rank-sized subsets, drawn
    from the generator `rng` (a `random.Random`); each draw first passes
    its number through the work cap (`check_cap`)."""
    for draws in count(1):
        check_cap(draws, "random draws")
        cand = rng.sample(range(M.n), M.rank)
        if M.rank_of(cand) == M.rank:
            return tuple(sorted(cand))
