"""Spans and counters around matropt's public functions, from outside it.

`instrument(tracer)` wraps every public function of the traced modules and
rebinds each wrapper at every place the function is looked up: the defining
module and every module that copied the name with `from .x import f`.  Hot
callables get counters instead of spans.  Spans are kept in memory as
[name, start, end, parent, op] and summarised or written out after the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = (
    "cli", "genfun", "triangulate", "linalg", "uniform",
    "multicriteria", "heuristics", "matroid", "oracles", "io",
)

# Called too often for a span each; counted instead.
COUNTED = {
    "multicriteria.project", "multicriteria.dominates", "linalg.clear_denominators",
    "matroid.incidence_vector", "io.parse_rational", "io.format_rational",
    "uniform.bounded_composition_counts",
}

OBJECTIVES = ("Linear", "SquaredDistance", "QuarticDistance", "MinMax", "Custom")
SEARCHES = ("heuristics.local_search", "heuristics.tabu_search")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self.searching = 0
        self._rank_keys = set()

    def begin_op(self, op):
        """Start a new operation; rank_of distinctness is counted per op,
        because every operation loads a fresh matroid with a cold cache."""
        self.op = op
        self.counts["matroid.rank_of.distinct"] += len(self._rank_keys)
        self._rank_keys = set()

    def finish(self):
        self.begin_op(None)

    def spanned(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        search = name in SEARCHES

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            if search:
                self.searching += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if search:
                    self.searching -= 1
            if after is not None:
                after(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def rank_of(self, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        def wrapper(matroid, subset):
            counts["matroid.rank_of.calls"] += 1
            if stack and spans[stack[-1]][0] == "matroid.random_basis":
                counts["matroid.random_basis.draws"] += 1
            self._rank_keys.add((id(matroid), frozenset(subset)))
            return fn(matroid, subset)

        wrapper.__wrapped__ = fn
        return wrapper

    # Summaries ------------------------------------------------------------

    def summary(self):
        """Inclusive and self seconds per span name, plus call counts."""
        inclusive = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        spans = self.spans
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            if not _has_ancestor(spans, parent, name):
                inclusive[name] += dur
        return inclusive, self_s, calls

    def per_op(self, names):
        """Inclusive seconds of the given span names, per operation."""
        out = defaultdict(lambda: dict.fromkeys(names, 0.0))
        for name, start, end, parent, op in self.spans:
            if name in names and not _has_ancestor(self.spans, parent, name):
                out[op][name] += end - start
        return dict(out)


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _after_cone_triangulation(tracer, args, cells):
    tracer.counts["triangulate.cells"] += len(cells)
    key = "triangulate.cells_per_cone_max"
    tracer.counts[key] = max(tracer.counts[key], len(cells))


def _after_placing(tracer, args, out):
    tracer.counts["triangulate.placing_cells"] += len(out[0])


def _after_genfun(tracer, args, terms):
    tracer.counts["genfun.terms"] += len(terms)


def _after_enumerate_bases(tracer, args, bases):
    tracer.counts["oracles.bases"] += len(bases)


def _after_pivot_test(tracer, args, found):
    tracer.counts["heuristics.pivot_test.targets"] += len({tuple(t) for t in args[2]})
    tracer.counts["heuristics.pivot_test.found"] += len(found)


def _after_adjacent_bases(tracer, args, out):
    if tracer.searching:
        tracer.counts["heuristics.neighbor_scans"] += 1


AFTER = {
    "triangulate.cone_triangulation": _after_cone_triangulation,
    "triangulate.placing_triangulation": _after_placing,
    "genfun.matroid_genfun": _after_genfun,
    "oracles.enumerate_bases": _after_enumerate_bases,
    "heuristics.pivot_test": _after_pivot_test,
}


def instrument(tracer):
    """Wrap matropt's public functions at every binding site.

    Must run on a freshly imported matropt; the wrappers stay in place for
    the life of those module objects.
    """
    modules = {short: sys.modules[f"matropt.{short}"] for short in TRACED_MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if short == "cli" and attr != "main":
                continue  # cli.self_s is main minus the calls it makes into other layers
            name = f"{short}.{attr}"
            if name in COUNTED:
                wrapped[obj] = tracer.counted(name, obj)
            else:
                wrapped[obj] = tracer.spanned(name, obj, AFTER.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "matropt" and not mod_name.startswith("matropt."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    matroid_cls = modules["matroid"].Matroid
    matroid_cls.rank_of = tracer.rank_of(matroid_cls.rank_of)
    matroid_cls.adjacent_bases = tracer.spanned(
        "matroid.adjacent_bases", matroid_cls.adjacent_bases, _after_adjacent_bases
    )
    for cls_name in OBJECTIVES:
        cls = getattr(modules["multicriteria"], cls_name)
        cls.__call__ = tracer.counted("multicriteria.objective", cls.__call__)

    leftover = [
        f"{mod_name}.{attr}"
        for mod_name, mod in sys.modules.items()
        if mod_name == "matropt" or mod_name.startswith("matropt.")
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj in wrapped
    ]
    if leftover:
        raise RuntimeError(f"unwrapped binding sites: {leftover}")

