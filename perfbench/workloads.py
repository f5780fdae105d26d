"""Inputs, command lines and oracle checks of the benchmark's workloads.

`WORKLOADS[workload](seed, directory)` writes the seeded input files and
returns the operations, each a `matropt` argv plus a check of its stdout.  Checks
compare against pinned values or brute-force oracles and run outside the
timed region; a failed check raises `CheckFailed`.  A check returns
(found, total) oracle points for `search_recall`, or (0, 0).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from pathlib import Path
from typing import Callable

class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[str], tuple]


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# Catalog ------------------------------------------------------------------

K4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
DIAMOND = [[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 0]]
K23 = [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [1, 1, 0, 0, 0]]
# Hub 0 joined to the 4-cycle 1-2-3-4: eight edges.
WHEEL8 = [[0, 1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 1, 0, 1, 0], [1, 0, 1, 0, 1], [1, 1, 0, 1, 0]]
VECTOR_2X5 = [[1, 0, 1, -1, 2], [1, 1, 0, 1, 2]]
SQUARE = [[1, 1, 0, 0], [0, 0, 1, 1]]  # U(1,2) + U(1,2), a disconnected matroid

# (name, kind, data, Ehrhart coefficients, number of bases).  The
# coefficients come from routes independent of the generating-function
# pipeline: K4 from the README, the wheel from the pinned values of
# tests/test_genfun.py::test_wheel_graph_rank_four, U(r,n) from the closed
# form `ehrhart_uniform`, and the rest from interpolating lattice-sweep
# counts (`dilation_lattice_count` at k = 0..dim+1, `interpolate_ehrhart`).
EHRHART_CASES = (
    ("k4", "graph", K4, ("1", "107/30", "21/4", "49/12", "7/4", "7/20"), 16),
    ("k23", "graph", K23, ("1", "193/60", "33/8", "8/3", "7/8", "7/60"), 12),
    ("diamond", "graph", DIAMOND, ("1", "11/4", "67/24", "5/4", "5/24"), 8),
    ("wheel8", "graph", WHEEL8,
     ("1", "135/28", "3691/360", "1511/120", "88/9", "39/8", "529/360", "89/420"), 45),
    ("u25", "uniform", (5, 2), ("1", "35/12", "85/24", "25/12", "11/24"), 10),
    ("u36", "uniform", (6, 3), ("1", "37/10", "25/4", "23/4", "11/4", "11/20"), 20),
    ("vector2x5", "vector", VECTOR_2X5, ("1", "17/6", "19/6", "5/3", "1/3"), 9),
    ("square", "vector", SQUARE, ("1", "2", "1"), 4),
)


def eulerian(n, k):
    """A(n, k): permutations of n letters with k descents.  A(n-1, r-1) is
    the normalized volume of the hypersimplex P(U(r, n))."""
    row = [1]
    for m in range(2, n + 1):
        row = [(j + 1) * (row[j] if j < len(row) else 0) + (m - j) * (row[j - 1] if j else 0)
               for j in range(m)]
    return row[k] if 0 <= k < len(row) else 0


def pinned_volume(case_name):
    """(normalized volume, dimension) from a pinned Ehrhart polynomial."""
    coeffs = next(c[3] for c in EHRHART_CASES if c[0] == case_name)
    dim = len(coeffs) - 1
    return factorial(dim) * Fraction(coeffs[-1]), dim


# Matroid files, with ground-set labels permuted by the seed ----------------


def rows_text(header, rows):
    return header + "\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def edges(adj):
    """Edges in file-label order: row-major over the upper triangle."""
    n = len(adj)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u][v]]


def relabel(adj, rng):
    """Copy of the graph with its vertices permuted, which permutes the edge
    labels; also returns, for each edge of the copy, its index in adj."""
    n = len(adj)
    perm = rng.sample(range(n), n)
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            out[perm[u]][perm[v]] = adj[u][v]
    index = {frozenset((perm[u], perm[v])): i for i, (u, v) in enumerate(edges(adj))}
    return out, [index[frozenset(e)] for e in edges(out)]


def graph_text(adj):
    return rows_text(f"graph {len(adj)}", adj)


def vector_text(rows, rng):
    n = len(rows[0])
    perm = rng.sample(range(n), n)
    return rows_text(f"vector {len(rows)} {n}", [[row[j] for j in perm] for row in rows])


def matroid_text(kind, data, rng):
    if kind == "graph":
        return graph_text(relabel(data, rng)[0])
    if kind == "vector":
        return vector_text(data, rng)
    n, r = data
    return f"uniform {n} {r}\n"  # no labels to permute


def write(directory, name, text):
    path = Path(directory) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# Workload: ehrhart ----------------------------------------------------------


def ehrhart_ops(seed, directory):
    rng = random.Random(seed)
    ops = []
    for name, kind, data, coeffs, nbases in EHRHART_CASES:
        path = write(directory, f"{name}.matroid", matroid_text(kind, data, rng))
        ops.append(Op(f"ehrhart-{name}", ["ehrhart", "--matroid", path],
                      _ehrhart_check(coeffs, nbases)))
    return ops


def _ehrhart_check(coeffs, nbases):
    def check(stdout):
        out = json.loads(stdout)
        expect(tuple(out["coefficients"]) == coeffs, f"coefficients {out['coefficients']}")
        expect(out["dimension"] == len(coeffs) - 1, "dimension")
        at_one = sum(Fraction(c) for c in out["coefficients"])
        expect(at_one == nbases, f"value {at_one} at k = 1, expected {nbases} bases")
        return 0, 0

    return check


# Workload: search -----------------------------------------------------------

SEARCH_INSTANCES = 14
# The generator seed of acceptance criterion 9: the pool is its first graphs.
POOL_SEED = 20260810
DFBFS_MAX_BASES = 200
LS_COEFF = (3, 2)


def random_connected_graph(rng, max_nodes=9, extra_hi=3):
    """Random tree plus a few extra edges.  The same construction as the
    generator of the same name in tests/conftest.py, kept here so that the
    benchmark's inputs stay fixed when the tests change."""
    nodes = rng.randint(5, max_nodes)
    chosen = set()
    for v in range(1, nodes):
        chosen.add((rng.randrange(v), v))
    extra = rng.randint(1, extra_hi)
    tries = 0
    while extra > 0 and tries < 100:
        tries += 1
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in chosen:
            chosen.add(e)
            extra -= 1
    adj = [[0] * nodes for _ in range(nodes)]
    for u, v in chosen:
        adj[u][v] = adj[v][u] = 1
    return adj


def random_weight_matrix(rng, d, n, lo=0, hi=20):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(d))


def spanning_tree_count(adj):
    """Matrix-tree theorem with exact rational elimination."""
    n = len(adj)
    lap = [[Fraction(-adj[i][j]) if i != j else Fraction(sum(adj[i])) for j in range(1, n)]
           for i in range(1, n)]
    det = Fraction(1)
    for c in range(n - 1):
        piv = next(r for r in range(c, n - 1) if lap[r][c] != 0)
        if piv != c:
            lap[c], lap[piv] = lap[piv], lap[c]
            det = -det
        det *= lap[c][c]
        for r in range(c + 1, n - 1):
            f = lap[r][c] / lap[c][c]
            lap[r] = [a - f * b for a, b in zip(lap[r], lap[c])]
    return int(det)


class SearchInstance:
    """One graph and weight matrix, with its brute-force truth computed on
    first use (after the timed passes)."""

    def __init__(self, adj, weights):
        self.adj = adj
        self.weights = weights

    @cached_property
    def truth(self):
        from matropt import graphic_matroid
        from matropt.multicriteria import WeightMatrix, pareto_filter
        from matropt.oracles import enumerate_bases, exact_projected_set, planar_convex_hull

        M = graphic_matroid(self.adj)
        bases = set(enumerate_bases(M))
        image = set(exact_projected_set(M, WeightMatrix(self.weights), bases=sorted(bases)))
        return bases, image, set(planar_convex_hull(image)), pareto_filter(image)

    def project(self, basis):
        return tuple(sum(row[i] for i in basis) for row in self.weights)

    def checked_points(self, out):
        """Every listed basis is a basis; returns the listed points, which
        must be exactly the projections of the listed bases and lie in the
        projected image."""
        bases, image, _, _ = self.truth
        found = {tuple(e - 1 for e in b) for b in out["bases"]}
        expect(found <= bases, "a returned set is not a basis")
        points = {tuple(p) for p in out["points"]}
        expect(points == {self.project(b) for b in found}, "points are not the bases' projections")
        expect(points <= image, "a point lies outside the projected image")
        return points

    def check_btrpt(self, stdout):
        points = self.checked_points(json.loads(stdout))
        pareto = self.truth[3]
        expect(points <= pareto, "btrpt returned a dominated point")
        return len(points), len(pareto)

    def check_pb(self, stdout):
        points = self.checked_points(json.loads(stdout))
        expect(self.truth[2] <= points, "pb missed a hull vertex")
        return 0, 0

    def check_ls(self, stdout):
        out = json.loads(stdout)
        bases, image, _, _ = self.truth
        basis = tuple(e - 1 for e in out["basis"])
        expect(basis in bases, "ls returned a non-basis")
        point = self.project(basis)
        expect(tuple(out["point"]) == point, "ls point is not the basis' projection")
        value = sum(c * x for c, x in zip(LS_COEFF, point))
        expect(out["value"] == str(value), "ls value")
        best = min(sum(c * x for c, x in zip(LS_COEFF, p)) for p in image)
        expect(value == best, f"ls stopped at {value}, optimum is {best}")
        return 0, 0

    def check_dfbfs(self, stdout):
        out = json.loads(stdout)
        bases, image, _, _ = self.truth
        points = {tuple(p) for p in out["points"]}
        expect(points <= image, "dfbfs point outside the projected image")
        witnessed = set()
        for p, b in out["witnesses"]:
            basis = tuple(e - 1 for e in b)
            expect(basis in bases and self.project(basis) == tuple(p), "bad dfbfs witness")
            witnessed.add(tuple(p))
        expect(witnessed == points, "dfbfs witnesses do not cover its points")
        return len(points), len(image)


def search_ops(seed, directory):
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    ops = []
    for i in range(SEARCH_INSTANCES):
        adj = random_connected_graph(pool, max_nodes=9, extra_hi=3)
        n_edges = len(edges(adj))
        weights = random_weight_matrix(pool, 2, n_edges)
        adj, order = relabel(adj, rng)
        weights = tuple(tuple(row[j] for j in order) for row in weights)
        op_seed = rng.randrange(1_000_000)
        inst = SearchInstance(adj, weights)
        g = write(directory, f"g{i}.matroid", graph_text(adj))
        w = write(directory, f"g{i}.weights", rows_text(f"weights 2 {n_edges}", weights))
        common = ["--matroid", g, "--weights", w, "--seed", str(op_seed)]
        ops.append(Op("btrpt", ["btrpt", *common, "--searcher", "ts", "--tries", "6",
                                "--tabu-limit", "20", "--workers", "1"], inst.check_btrpt))
        ops.append(Op("pb", ["pb", *common], inst.check_pb))
        ops.append(Op("ls", ["ls", *common, "--objective", "linear",
                             "--coeff", ",".join(map(str, LS_COEFF))], inst.check_ls))
        if spanning_tree_count(adj) <= DFBFS_MAX_BASES:
            # The exhaustive settings of acceptance criterion 9.
            ops.append(Op("dfbfs", ["dfbfs", *common, "--depth", str(n_edges),
                                    "--searches", "100000", "--boundary-retries", "60",
                                    "--random-retries", "3000"], inst.check_dfbfs))
    return ops


# Workload: polytope ---------------------------------------------------------

UNIMODULAR_CASES = (("k4", "graph", K4), ("k23", "graph", K23),
                    ("u36", "uniform", (6, 3)), ("u37", "uniform", (7, 3)))
HSTAR_N = 40
EHRHART_UNIFORM_NMAX = 12


def polytope_ops(seed, directory):
    rng = random.Random(seed)
    ops = []
    for name, kind, data in UNIMODULAR_CASES:
        path = write(directory, f"{name}.matroid", matroid_text(kind, data, rng))
        if kind == "uniform":
            n, r = data
            volume, dim = eulerian(n - 1, r - 1), n - 1
        else:
            volume, dim = pinned_volume(name)
        ops.append(Op(f"check-unimodular-{name}", ["check-unimodular", "--matroid", path],
                      _unimodular_check(volume, dim)))
    for r in range(1, HSTAR_N):
        ops.append(Op("hstar-uniform", ["hstar-uniform", "--n", str(HSTAR_N), "--r", str(r)],
                      _hstar_check(HSTAR_N, r)))
    for n in range(2, EHRHART_UNIFORM_NMAX + 1):
        for r in range(1, n):
            ops.append(Op("ehrhart-uniform", ["ehrhart-uniform", "--n", str(n), "--r", str(r)],
                          _ehrhart_uniform_check(n, r)))
    return ops


def _unimodular_check(volume, dim):
    def check(stdout):
        out = json.loads(stdout)
        expect(out["all_unimodular"] is True, "not all cells unimodular")
        expect(out["dimension"] == dim, f"dimension {out['dimension']}, expected {dim}")
        expect(all(c["lattice_det"] == 1 for c in out["cells"]), "a cell has lattice det != 1")
        expect(len(out["cells"]) == volume, f"{len(out['cells'])} cells, volume is {volume}")
        return 0, 0

    return check


def _hstar_check(n, r):
    def check(stdout):
        h = json.loads(stdout)["hstar"]
        expect(h[0] == 1, "h*_0 != 1")
        expect(all(x >= 0 for x in h), "negative h* entry")
        expect(sum(h) == eulerian(n - 1, r - 1), "sum of h* is not the normalized volume")
        return 0, 0

    return check


def _ehrhart_uniform_check(n, r):
    def check(stdout):
        out = json.loads(stdout)
        c = out["coefficients"]
        expect(c[0] == "1", "constant term != 1")
        expect(out["dimension"] == n - 1 == len(c) - 1, "dimension")
        expect(factorial(n - 1) * Fraction(c[-1]) == eulerian(n - 1, r - 1),
               "leading coefficient does not give the normalized volume")
        return 0, 0

    return check


WORKLOADS = {"ehrhart": ehrhart_ops, "search": search_ops, "polytope": polytope_ops}
