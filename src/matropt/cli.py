"""Command-line surface.

Each subcommand declares once, in `build_parser`, which input files it
reads; `main` loads them, the --matroid first, then the --weights checked
against it, then the --points, and hands them to the command, so no command
reads a file.  Every stochastic subcommand requires --seed and echoes {seed,
params} into its output header; identical inputs and flags give
byte-identical output.
Rationals print as "p/q", elements as 1-based labels.  Exit codes: 0 ok,
2 parse/usage, 3 dimension mismatch, 4 cap exceeded, 5 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys

from .errors import DimensionError, InternalInconsistencyError, MatroptError, ParseError, check_cap
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
    load_point_rows,
    load_weights,
    parse_rational,
    write_text,
)
from .matroid import GraphicMatroid, greedy_max_basis, incidence_vector, random_basis
from .multicriteria import (
    Linear,
    MinMax,
    QuarticDistance,
    SquaredDistance,
    WeightMatrix,
    bounding_box,
    check_fit,
    pareto_filter,
    project,
)
from .oracles import (
    dilation_lattice_counts,
    enumerate_bases,
    exact_projected_set,
    laplacian_tree_count,
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


def _parse_basis(text, M):
    """The 0-based sorted basis of M that `text` lists as 1-based elements."""
    try:
        elems = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad basis {text!r}") from None
    for e in elems:
        if not 1 <= e <= M.n:
            raise DimensionError(f"element {e} outside 1..{M.n}")
    basis = tuple(sorted(e - 1 for e in elems))
    if not M.is_basis(basis):
        raise DimensionError(f"{text} is not a basis")
    return basis


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


def cmd_bases(args, M):
    bases = enumerate_bases(M)
    _emit(args, {"count": len(bases), "bases": [_one_based(b) for b in bases]})


def cmd_adjacency(args, M):
    basis = _parse_basis(args.basis, M)
    neighbors = [_one_based(b) for b in M.adjacent_bases(basis)]
    _emit(args, {"basis": _one_based(basis), "neighbors": neighbors})


def cmd_greedy(args, M, W):
    if not 1 <= args.row <= W.d:
        raise DimensionError(f"--row must be in 1..{W.d}")
    basis, value = greedy_max_basis(M, W.rows[args.row - 1])
    _emit(args, {"basis": _one_based(basis), "weight": format_rational(value)})


def cmd_search(args, M, W):
    """ls and ts: one descent from --start, or from a seeded random basis."""
    obj = _objective(args, W.d)
    if args.start:
        start = _parse_basis(args.start, M)
    else:
        start = random_basis(M, random.Random(args.seed))
    trail = []

    def sink(pivot, basis, point, value):
        trail.append((pivot, basis, point, value))

    params = {"objective": args.objective, "start": _one_based(start)}
    if args.command == "ts":
        result = tabu_search(M, W, obj, start, args.tabu_limit, transcript=sink)
        reason = "tabu stop"
        params["tabu_limit"] = args.tabu_limit
    else:
        result = local_search(M, W, obj, start, transcript=sink)
        reason = "local minimum"
    if args.transcript:
        write_text(args.transcript, (
            _encode({
                "pivot": pivot,
                "basis": _one_based(basis),
                "point": list(point),
                "objective": format_rational(value),
            }) + "\n"
            for pivot, basis, point, value in trail
        ))
    point = project(W, result)
    payload = {
        "seed": args.seed,
        "params": params,
        "basis": _one_based(result),
        "point": list(point),
        "value": format_rational(obj(point)),
        "pivots": trail[-1][0] if trail else 0,
        "reason": reason,
    }
    _emit(args, payload, point_rows=[point])


def _emit_found(args, W, found, params):
    """The report of pt, pb and btrpt: the bases they found, sorted, and
    their distinct projections."""
    points = sorted({project(W, b) for b in found})
    payload = {
        "seed": args.seed,
        "params": params,
        "bases": sorted(_one_based(b) for b in found),
        "points": [list(p) for p in points],
    }
    _emit(args, payload, point_rows=points)


def cmd_pt(args, M, W):
    if args.targets is not None:
        targets = [_parse_point(tok) for tok in args.targets.split(";") if tok.strip()]
    else:
        lo, hi = bounding_box(M, W)
        check_cap(math.prod(b - a + 1 for a, b in zip(lo, hi)), "bounding-box targets")
        targets = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    found = pivot_test(
        M, W, targets, args.tries, searcher=args.searcher, seed=args.seed,
        tabu_limit=args.tabu_limit, workers=args.workers,
    )
    _emit_found(args, W, found, {
        "tries": args.tries,
        "searcher": args.searcher,
        "tabu_limit": args.tabu_limit,
        "workers": args.workers,
        "targets": len(targets),
    })


def cmd_pb(args, M, W):
    rng = random.Random(args.seed)
    start = boundary_start(M, W, rng)
    _emit_found(args, W, projected_boundary(M, W, start), {"start": _one_based(start)})


def cmd_btrpt(args, M, W):
    found = boundary_pareto_search(
        M, W, args.tries, seed=args.seed, searcher=args.searcher,
        tabu_limit=args.tabu_limit, workers=args.workers,
    )
    _emit_found(args, W, found,
                {"tries": args.tries, "searcher": args.searcher, "tabu_limit": args.tabu_limit})


def cmd_dfbfs(args, M, W):
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


def cmd_enumerate_trees(args, M):
    if not isinstance(M, GraphicMatroid):
        raise DimensionError("enumerate-trees needs a graph-format matroid")
    # The matrix-tree count bounds the listing first; the listing then
    # checks it.
    lap = laplacian_tree_count(M.nv, M.edges)
    check_cap(lap, "spanning trees")
    trees = sorted(sorted(t) for t in spanning_trees(M.nv, M.edges))
    if lap != len(trees):
        raise InternalInconsistencyError(
            f"enumerated {len(trees)} trees but the Laplacian cofactor gives {lap}"
        )
    _emit(args, {
        "count": len(trees),
        "laplacian_count": lap,
        "trees": [_one_based(t) for t in trees],
    })


def cmd_projected_set(args, M, W):
    fibers = exact_projected_set(M, W)
    points = sorted(fibers)
    payload = {
        "points": [list(p) for p in points],
        "fibers": [[list(p), fibers[p]] for p in points],
    }
    _emit(args, payload, point_rows=points, csv_rows=[list(p) + [fibers[p]] for p in points])


def cmd_pareto(args, M, W):
    points = sorted(pareto_filter(exact_projected_set(M, W)))
    _emit(args, {"points": [list(p) for p in points]}, point_rows=points)


def _emit_coefficients(args, coeffs):
    """The report of ehrhart and ehrhart-uniform: the Ehrhart polynomial's
    coefficients from the constant term up, and its degree."""
    _emit(args, {
        "coefficients": [format_rational(c) for c in coeffs],
        "dimension": len(coeffs) - 1,
    })


def cmd_ehrhart(args, M):
    _emit_coefficients(args, ehrhart_polynomial(M))


def cmd_ehrhart_uniform(args):
    _emit_coefficients(args, ehrhart_uniform(args.n, args.r))


def cmd_hstar_uniform(args):
    _emit(args, {"hstar": list(hstar_uniform(args.n, args.r))})


def cmd_lattice_count(args, M):
    if args.format == "csv" and args.kmax is None:
        raise ParseError("csv format needs --kmax")
    if args.kmax is not None:
        if args.kmax < 0:
            raise DimensionError(f"--kmax must be >= 0, got {args.kmax}")
        table = [[k, c] for k, c in enumerate(dilation_lattice_counts(M, range(args.kmax + 1)))]
        _emit(args, {"counts": table}, csv_rows=[["k", "count"]] + table)
    else:
        _emit(args, {"k": args.k, "count": dilation_lattice_counts(M, (args.k,))[0]})


def cmd_check_unimodular(args, M):
    bases = enumerate_bases(M)
    points = [incidence_vector(b, M.n) for b in bases]
    cells, volumes = placing_triangulation(points)
    dim = len(cells[0]) - 1  # every cell spans the affine hull of P
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


def cmd_classify_2face(args, M, rows):
    if len(rows) != 4 or any(len(r) != M.n for r in rows):
        raise DimensionError("expected a 'vector 4 n' file of the four corners")
    verdict = classify_square_2face(M, *rows)
    _emit(args, {"classification": verdict})


def build_parser():
    top = argparse.ArgumentParser(prog="matropt", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, matroid=True, weights=False, points=False, seeded=False,
            formats=("json",)):
        p = sub.add_parser(name)
        if matroid:
            p.add_argument("--matroid", required=True, help="matroid file")
        if weights:
            p.add_argument("--weights", required=True, help="weights file")
        if points:
            p.add_argument("--points", required=True, help="'vector 4 n' file of the corners")
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

    for name in ("ls", "ts"):
        p = add(name, cmd_search, weights=True, seeded=True, formats=points)
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

    add("classify-2face", cmd_classify_2face, points=True)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        inputs = []
        if hasattr(args, "matroid"):
            inputs.append(load_matroid(args.matroid))
        if hasattr(args, "weights"):
            inputs.append(WeightMatrix(tuple(load_weights(args.weights))))
            check_fit(*inputs)
        if hasattr(args, "points"):
            inputs.append(load_point_rows(args.points))
        args.func(args, *inputs)
    except MatroptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
