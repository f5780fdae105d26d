"""Cross-cutting surfaces: the error taxonomy, the public names the library
itself uses, and the equivalence of the placing fast path with the
visibility LP."""

import ast
import io
import random
import types
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import matropt
from conftest import fraction_rank, scaled_to_integers, visible
from matropt import (
    CapError,
    DimensionError,
    InternalInconsistencyError,
    MatroptError,
    ParseError,
    enumerate_bases,
    incidence_vector,
    placing_triangulation,
)


def _affine_rank(points):
    return fraction_rank([tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]])


class TestErrorTaxonomy:
    def test_exit_codes(self):
        assert ParseError("x").exit_code == 2
        assert DimensionError("x").exit_code == 3
        assert CapError("x").exit_code == 4
        assert InternalInconsistencyError("x").exit_code == 5
        assert issubclass(ParseError, MatroptError)


class TestPublicNamesAreUsed:
    def test_every_exported_name_is_referenced_in_the_library(self):
        # A name exported from the package that no library module refers to
        # has only tests as callers; such code belongs with the oracles in
        # tests/conftest.py.
        used = set()
        package = Path(matropt.__file__).parent
        for path in package.glob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
        assert sorted(set(matropt.__all__) - used) == []

    def test_star_import_brings_no_submodule(self):
        # A submodule in __all__ would rebind a name such as `io` in the
        # importing namespace.
        namespace = {"io": io}
        exec("from matropt import *", namespace)
        assert namespace["io"] is io
        assert not [name for name in matropt.__all__
                    if isinstance(getattr(matropt, name), types.ModuleType)]


class TestPlacingMatchesVisibilityLP:
    def test_boundary_facets_agree_with_lp(self):
        # Replay insertions of a full-dimensional planar instance and check
        # the supporting-hyperplane shortcut against the spec's LP on every
        # boundary facet.
        rng = random.Random(12)
        pts = [(0, 0), (4, 0), (0, 4), (4, 4), (2, 5), (5, 2)]
        for cut in range(3, len(pts)):
            placed = pts[:cut]
            v = pts[cut]
            sub_cells, _ = placing_triangulation(placed)
            counts = Counter()
            for c in sub_cells:
                for f in combinations(c, len(c) - 1):
                    counts[f] += 1
            for f, mult in counts.items():
                if mult != 1:
                    continue
                lp_says = visible([placed[i] for i in f], placed, v)
                # Recompute what placing would decide by re-running it with
                # the point appended and checking whether the coned cell
                # appears.
                appended, _ = placing_triangulation(placed + [v])
                coned = tuple(sorted(f + (len(placed),)))
                assert (coned in appended) == lp_says

    def test_random_sets_agree_with_lp(self):
        # Seeded sets in dims 1-4 with rational coordinates, a point on a
        # segment, the centroid (relatively interior) and a duplicate,
        # shuffled, scaled to integer points and placed prefix by prefix.
        # Each step either leaves a duplicate unused, cones every cell over
        # a point off the affine hull, or appends, in first-occurrence order
        # of the boundary facets, exactly the facets the LP calls visible
        # from the new point.
        rng = random.Random(20261018)
        for trial in range(40):
            dim = 1 + trial % 4
            pts = [
                tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
                for _ in range(rng.randint(2, 4 + dim))
            ]
            a, b = rng.sample(pts, 2)
            pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
            pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
            pts.append(rng.choice(pts))
            rng.shuffle(pts)
            pts = scaled_to_integers(pts)
            before, _ = placing_triangulation(pts[:1])
            for idx in range(1, len(pts)):
                placed = pts[:idx]
                after, _ = placing_triangulation(pts[:idx + 1])
                if pts[idx] in placed:
                    assert after == before
                elif _affine_rank(placed + [pts[idx]]) > _affine_rank(placed):
                    assert after == [tuple(sorted(c + (idx,))) for c in before]
                else:
                    counts = Counter(f for c in before for f in combinations(c, len(c) - 1))
                    coned = [
                        tuple(sorted(f + (idx,)))
                        for f, mult in counts.items()
                        if mult == 1 and visible([pts[g] for g in f], placed, pts[idx])
                    ]
                    assert after == before + coned
                before = after

    def test_u24_polytope_replay(self, u24):
        bases = enumerate_bases(u24)
        pts = [incidence_vector(b, u24.n) for b in bases]
        cells, _ = placing_triangulation(pts)
        assert len(cells) == 4  # normalized volume of the octahedron slice
