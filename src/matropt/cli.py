"""Command-line surface.

Every stochastic subcommand requires --seed and echoes {seed, params} into
its output header; identical inputs and flags give byte-identical output.
Rationals print as "p/q", elements as 1-based labels.  Exit codes: 0 ok,
2 parse/usage, 3 dimension mismatch, 4 cap exceeded, 5 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from .errors import DimensionError, InternalInconsistencyError, MatroptError, ParseError
from .genfun import ehrhart_polynomial
from .heuristics import (
    boundary_pareto_search,
    boundary_start,
    fiber_bfs_driver,
    local_search,
    pivot_test,
    projected_boundary,
    tabu_search,
)
from .incidence import classify_square_2face
from .io import (
    format_rational,
    load_matroid,
    load_weights,
    parse_point_rows,
    parse_rational,
    read_text,
    write_text,
)
from .matroid import greedy_max_basis, incidence_vector, random_basis
from .multicriteria import (
    Linear,
    MinMax,
    QuarticDistance,
    SquaredDistance,
    WeightMatrix,
    bounding_box,
    pareto_filter,
    project,
)
from .oracles import (
    dilation_lattice_counts,
    enumerate_bases,
    exact_projected_set,
    laplacian_tree_count,
    polytope_dimension,
    spanning_trees,
)
from .linalg import bareiss_det
from .triangulate import placing_triangulation
from .uniform import ehrhart_uniform, hstar_uniform


# json.dumps(obj, sort_keys=True, separators=(", ", ": ")): the format of
# every JSON report a subcommand writes.
_encode = json.JSONEncoder(sort_keys=True, separators=(", ", ": ")).encode


def _one_based(basis):
    return [i + 1 for i in basis]


def _parse_basis(text, n):
    try:
        elems = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad basis {text!r}") from None
    for e in elems:
        if not 1 <= e <= n:
            raise DimensionError(f"element {e} outside 1..{n}")
    return tuple(sorted(e - 1 for e in elems))


def _parse_point(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ParseError(f"bad point {text!r}") from None


def _objective(args, d):
    kind = args.objective
    if kind == "linear":
        if args.coeff is None:
            raise ParseError("linear objective needs --coeff")
        c = tuple(parse_rational(tok) for tok in args.coeff.split(","))
        if len(c) != d:
            raise DimensionError(f"--coeff needs {d} entries")
        return Linear(c)
    if kind in ("sqdist", "quartic"):
        if args.target is None:
            raise ParseError(f"{kind} objective needs --target")
        t = _parse_point(args.target)
        if len(t) != d:
            raise DimensionError(f"--target needs {d} entries")
        return SquaredDistance(t) if kind == "sqdist" else QuarticDistance(t)
    return MinMax()


def _emit(args, payload, point_rows=None, csv_rows=None):
    """Write the payload in the --format that the subcommand's parser
    offers: json always, points and csv only where rows are passed."""
    fmt = args.format
    if fmt == "points":
        lines = [f"# {k}={payload[k]}" for k in ("seed",) if k in payload]
        lines += [" ".join(str(x) for x in row) for row in point_rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        text = "\n".join(",".join(str(x) for x in row) for row in csv_rows) + "\n"
    else:
        text = _encode(payload) + "\n"
    _write(args, (text,))


def _write(args, chunks):
    """Write the strings `chunks` in turn to --output, or else to stdout."""
    if args.output:
        write_text(args.output, chunks)
    else:
        sys.stdout.writelines(chunks)


def _weights(args, M):
    if not getattr(args, "weights", None):
        raise ParseError("this subcommand needs --weights")
    W = WeightMatrix(tuple(load_weights(args.weights)))
    if W.n != M.n:
        raise DimensionError(f"weights have {W.n} columns, matroid has {M.n}")
    return W


def cmd_bases(args):
    M = load_matroid(args.matroid)
    bases = enumerate_bases(M)
    _emit(args, {"count": len(bases), "bases": [_one_based(b) for b in bases]})


def cmd_adjacency(args):
    M = load_matroid(args.matroid)
    basis = _parse_basis(args.basis, M.n)
    if not M.is_basis(basis):
        raise DimensionError(f"{args.basis} is not a basis")
    neighbors = [_one_based(b) for b in M.adjacent_bases(basis)]
    _emit(args, {"basis": _one_based(basis), "neighbors": neighbors})


def cmd_greedy(args):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    if not 1 <= args.row <= W.d:
        raise DimensionError(f"--row must be in 1..{W.d}")
    basis, value = greedy_max_basis(M, W.rows[args.row - 1])
    _emit(args, {"basis": _one_based(basis), "weight": format_rational(value)})


def _run_single_search(args, use_tabu):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    obj = _objective(args, W.d)
    if args.start:
        start = _parse_basis(args.start, M.n)
        if not M.is_basis(start):
            raise DimensionError(f"{args.start} is not a basis")
    else:
        start = random_basis(M, random.Random(args.seed))
    trail = []

    def sink(pivot, basis, point, value):
        trail.append((pivot, basis, point, value))

    if use_tabu:
        result = tabu_search(M, W, obj, start, args.tabu_limit, transcript=sink)
        reason = "tabu stop"
    else:
        result = local_search(M, W, obj, start, transcript=sink)
        reason = "local minimum"
    if args.transcript:
        write_text(args.transcript, (
            json.dumps({
                "pivot": pivot,
                "basis": _one_based(basis),
                "point": list(point),
                "objective": format_rational(value),
            }, sort_keys=True) + "\n"
            for pivot, basis, point, value in trail
        ))
    point = project(W, result)
    payload = {
        "seed": args.seed,
        "params": {"objective": args.objective, "start": _one_based(start)},
        "basis": _one_based(result),
        "point": list(point),
        "value": format_rational(obj(point)),
        "pivots": trail[-1][0] if trail else 0,
        "reason": reason,
    }
    if use_tabu:
        payload["params"]["tabu_limit"] = args.tabu_limit
    _emit(args, payload, point_rows=[point])


def cmd_ls(args):
    _run_single_search(args, use_tabu=False)


def cmd_ts(args):
    _run_single_search(args, use_tabu=True)


def cmd_pt(args):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    if args.targets is not None:
        targets = [(_parse_point(tok)) for tok in args.targets.split(";") if tok.strip()]
        for t in targets:
            if len(t) != W.d:
                raise DimensionError(f"targets need {W.d} coordinates")
    else:
        lo, hi = bounding_box(M, W)
        targets = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    found = pivot_test(
        M, W, targets, args.tries, searcher=args.searcher, seed=args.seed,
        tabu_limit=args.tabu_limit, workers=args.workers,
    )
    points = sorted(project(W, b) for b in found)
    payload = {
        "seed": args.seed,
        "params": {
            "tries": args.tries,
            "searcher": args.searcher,
            "tabu_limit": args.tabu_limit,
            "workers": args.workers,
            "targets": len(targets),
        },
        "bases": sorted(_one_based(b) for b in found),
        "points": [list(p) for p in points],
    }
    _emit(args, payload, point_rows=points)


def cmd_pb(args):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    if W.d != 2:
        raise DimensionError("pb requires exactly 2 criteria")
    rng = random.Random(args.seed)
    start = boundary_start(M, W, rng)
    found = projected_boundary(M, W, start)
    points = sorted({project(W, b) for b in found})
    payload = {
        "seed": args.seed,
        "params": {"start": _one_based(start)},
        "bases": sorted(_one_based(b) for b in found),
        "points": [list(p) for p in points],
    }
    _emit(args, payload, point_rows=points)


def cmd_btrpt(args):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    found = boundary_pareto_search(
        M, W, args.tries, seed=args.seed, searcher=args.searcher,
        tabu_limit=args.tabu_limit, workers=args.workers,
    )
    points = sorted({project(W, b) for b in found})
    payload = {
        "seed": args.seed,
        "params": {"tries": args.tries, "searcher": args.searcher, "tabu_limit": args.tabu_limit},
        "bases": sorted(_one_based(b) for b in found),
        "points": [list(p) for p in points],
    }
    _emit(args, payload, point_rows=points)


def cmd_dfbfs(args):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    seen, witnesses = fiber_bfs_driver(
        M, W, seed=args.seed, bfs_depth=args.depth, num_searches=args.searches,
        boundary_retry_limit=args.boundary_retries, random_retry_limit=args.random_retries,
    )
    points = sorted(seen)
    payload = {
        "seed": args.seed,
        "params": {
            "num_searches": args.searches,
            "bfs_depth": args.depth,
            "boundary_retry_limit": args.boundary_retries,
            "random_retry_limit": args.random_retries,
        },
        "points": [list(p) for p in points],
        "witnesses": [[list(p), _one_based(witnesses[p])] for p in points],
    }
    _emit(args, payload, point_rows=points)


def cmd_enumerate_trees(args):
    M = load_matroid(args.matroid)
    if M.kind != "graphic":
        raise DimensionError("enumerate-trees needs a graph-format matroid")
    nv, edges = M.data
    trees = [sorted(t) for t in spanning_trees(nv, edges)]
    trees.sort()
    lap = laplacian_tree_count(nv, edges)
    if lap != len(trees):
        raise InternalInconsistencyError(
            f"enumerated {len(trees)} trees but the Laplacian cofactor gives {lap}"
        )
    _emit(args, {
        "count": len(trees),
        "laplacian_count": lap,
        "trees": [_one_based(t) for t in trees],
    })


def cmd_projected_set(args):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    fibers = exact_projected_set(M, W)
    points = sorted(fibers)
    payload = {
        "points": [list(p) for p in points],
        "fibers": [[list(p), fibers[p]] for p in points],
    }
    _emit(args, payload, point_rows=points, csv_rows=[list(p) + [fibers[p]] for p in points])


def cmd_pareto(args):
    M = load_matroid(args.matroid)
    W = _weights(args, M)
    fibers = exact_projected_set(M, W)
    points = sorted(pareto_filter(fibers))
    _emit(args, {"points": [list(p) for p in points]}, point_rows=points)


def cmd_ehrhart(args):
    M = load_matroid(args.matroid)
    coeffs = ehrhart_polynomial(M)
    _emit(args, {
        "coefficients": [format_rational(c) for c in coeffs],
        "dimension": len(coeffs) - 1,
    })


def cmd_ehrhart_uniform(args):
    coeffs = ehrhart_uniform(args.n, args.r)
    _emit(args, {
        "coefficients": [format_rational(c) for c in coeffs],
        "dimension": len(coeffs) - 1,
    })


def cmd_hstar_uniform(args):
    _emit(args, {"hstar": list(hstar_uniform(args.n, args.r))})


def cmd_lattice_count(args):
    if args.format == "csv" and args.kmax is None:
        raise ParseError("csv format needs --kmax")
    M = load_matroid(args.matroid)
    if args.kmax is not None:
        if args.kmax < 0:
            raise DimensionError(f"--kmax must be >= 0, got {args.kmax}")
        table = [[k, c] for k, c in enumerate(dilation_lattice_counts(M, range(args.kmax + 1)))]
        _emit(args, {"counts": table}, csv_rows=[["k", "count"]] + table)
    else:
        _emit(args, {"k": args.k, "count": dilation_lattice_counts(M, (args.k,))[0]})


def cmd_check_unimodular(args):
    M = load_matroid(args.matroid)
    bases = enumerate_bases(M)
    points = [incidence_vector(b, M.n) for b in bases]
    cells, volumes = placing_triangulation(points)
    dim = polytope_dimension(M, bases[0])
    # Each volume is the cell's lattice determinant, its index in the affine
    # lattice of P.  lin(P - P) is cut out by "each connected component's
    # coordinates sum to zero", and placing's pivot columns project it
    # injectively, so they leave out exactly one element per component.
    # That element's coordinate is minus the sum of the rest of its
    # component, so the projection maps Z^n meet lin(P - P) onto Z^dim and
    # keeps every determinant.  For a connected matroid (exactly when a cell
    # has n vertices) |det| of the n incidence vectors is the rank times the
    # lattice determinant, a second route checked on every such cell before
    # any output, so unimodularity reads "lattice det == 1".
    dets = [abs(bareiss_det([points[i] for i in cell])) if len(cell) == M.n else None
            for cell in cells]
    for cell, det, lattice_det in zip(cells, dets, volumes):
        if det is not None and det != M.rank * lattice_det:
            raise InternalInconsistencyError(
                f"cell {[_one_based(bases[i]) for i in cell]}: |det| {det} is not "
                f"rank {M.rank} times lattice det {lattice_det}"
            )

    def report():
        # The bytes _emit would give the whole payload, written cell by cell
        # so that no list of entries or single string of them is ever held.
        all_ok = all(v == 1 for v in volumes)
        yield f'{{"all_unimodular": {_encode(all_ok)}, "cells": ['
        for k, (cell, det, lattice_det) in enumerate(zip(cells, dets, volumes)):
            entry = {
                "cell": [_one_based(bases[i]) for i in cell],
                "lattice_det": lattice_det,
                "unimodular": lattice_det == 1,
            }
            if det is not None:
                entry["det"] = det
            yield (", " if k else "") + _encode(entry)
        # Placing takes the bases in their lexicographic order.
        order = _encode(list(range(len(points))))
        yield f'], "dimension": {dim}, "insertion_order": {order}}}\n'

    _write(args, report())


def cmd_classify_2face(args):
    M = load_matroid(args.matroid)
    rows = parse_point_rows(read_text(args.points))
    if len(rows) != 4 or any(len(r) != M.n for r in rows):
        raise DimensionError("expected a 'vector 4 n' file of the four corners")
    verdict = classify_square_2face(M, *rows)
    _emit(args, {"classification": verdict})


def build_parser():
    top = argparse.ArgumentParser(prog="matropt", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, matroid=True, weights=False, seeded=False, formats=("json",)):
        p = sub.add_parser(name)
        if matroid:
            p.add_argument("--matroid", required=True, help="matroid file")
        if weights:
            p.add_argument("--weights", help="weights file")
        if seeded:
            p.add_argument("--seed", type=int, required=True)
        p.add_argument("--output", help="write here instead of stdout")
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(func=fn)
        return p

    points = ("json", "points")  # the formats of the subcommands that find points
    add("bases", cmd_bases)
    p = add("adjacency", cmd_adjacency)
    p.add_argument("--basis", required=True, help="comma-separated 1-based elements")
    p = add("greedy", cmd_greedy, weights=True)
    p.add_argument("--row", type=int, default=1)

    for name, fn in (("ls", cmd_ls), ("ts", cmd_ts)):
        p = add(name, fn, weights=True, seeded=True, formats=points)
        p.add_argument("--objective", choices=("linear", "sqdist", "quartic", "minmax"),
                       default="sqdist")
        p.add_argument("--coeff", help="comma-separated rationals for linear")
        p.add_argument("--target", help="comma-separated integers for distance objectives")
        p.add_argument("--start", help="starting basis; random when omitted")
        if name == "ts":
            p.add_argument("--tabu-limit", dest="tabu_limit", type=int, default=10)
        p.add_argument("--transcript", help="stream pivot records here as JSON lines")

    def pivot_test_options(p, searcher):
        """The options of pt and btrpt, which differ in the --searcher default."""
        p.add_argument("--tries", type=int, default=10)
        p.add_argument("--searcher", choices=("ls", "ts"), default=searcher)
        p.add_argument("--tabu-limit", dest="tabu_limit", type=int, default=10)
        p.add_argument("--workers", type=int, default=1)

    p = add("pt", cmd_pt, weights=True, seeded=True, formats=points)
    p.add_argument("--targets", help="semicolon-separated points; bounding box when omitted")
    pivot_test_options(p, "ls")
    add("pb", cmd_pb, weights=True, seeded=True, formats=points)
    pivot_test_options(add("btrpt", cmd_btrpt, weights=True, seeded=True, formats=points), "ts")

    p = add("dfbfs", cmd_dfbfs, weights=True, seeded=True, formats=points)
    p.add_argument("--searches", type=int, default=10)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--boundary-retries", dest="boundary_retries", type=int, default=100)
    p.add_argument("--random-retries", dest="random_retries", type=int, default=1000)

    add("enumerate-trees", cmd_enumerate_trees)
    add("projected-set", cmd_projected_set, weights=True, formats=("json", "csv", "points"))
    add("pareto", cmd_pareto, weights=True, formats=points)
    add("ehrhart", cmd_ehrhart)

    p = add("ehrhart-uniform", cmd_ehrhart_uniform, matroid=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p = add("hstar-uniform", cmd_hstar_uniform, matroid=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("lattice-count", cmd_lattice_count, formats=("json", "csv"))
    group = p.add_mutually_exclusive_group()
    # A str default is parsed like "--k 1" but is not that value, so argparse
    # still sees an explicit "--k 1" and rejects it next to --kmax.
    group.add_argument("--k", type=int, default="1")
    group.add_argument("--kmax", type=int)

    add("check-unimodular", cmd_check_unimodular)

    p = add("classify-2face", cmd_classify_2face)
    p.add_argument("--points", required=True, help="'vector 4 n' file of the corners")

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except MatroptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
