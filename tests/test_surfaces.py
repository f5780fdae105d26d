"""Cross-cutting surfaces: serialization, error taxonomy, and the
equivalence of the placing fast path with the visibility LP."""

import json
import random
from itertools import combinations

from matropt import (
    CapError,
    DimensionError,
    InternalInconsistencyError,
    MatroptError,
    ParseError,
    enumerate_bases,
    incidence_vector,
    matroid_genfun,
    placing_triangulation,
    specialize_count,
    term_from_dict,
    term_to_dict,
    visible,
)


class TestTermSerialization:
    def test_round_trip_preserves_counts(self, u24):
        terms = matroid_genfun(u24)
        payload = json.dumps([term_to_dict(t) for t in terms], sort_keys=True)
        back = [term_from_dict(d) for d in json.loads(payload)]
        assert back == terms
        assert specialize_count(back) == 6

    def test_shape(self, u24):
        d = term_to_dict(matroid_genfun(u24)[0])
        assert set(d) == {"a", "v", "b"}


class TestErrorTaxonomy:
    def test_exit_codes(self):
        assert ParseError("x").exit_code == 2
        assert DimensionError("x").exit_code == 3
        assert CapError("x").exit_code == 4
        assert InternalInconsistencyError("x").exit_code == 5
        assert issubclass(ParseError, MatroptError)


class TestPlacingMatchesVisibilityLP:
    def test_boundary_facets_agree_with_lp(self):
        # Replay insertions of a full-dimensional planar instance and check
        # the supporting-hyperplane shortcut against the spec's LP on every
        # boundary facet.
        rng = random.Random(12)
        pts = [(0, 0), (4, 0), (0, 4), (4, 4), (2, 5), (5, 2)]
        cells, order = placing_triangulation(pts)
        for cut in range(3, len(pts)):
            placed = [pts[i] for i in order[:cut]]
            v = pts[order[cut]]
            sub_cells, _ = placing_triangulation(placed)
            from collections import Counter

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

    def test_u24_polytope_replay(self, u24):
        bases = enumerate_bases(u24)
        pts = [incidence_vector(b, u24.n) for b in bases]
        cells, _ = placing_triangulation(pts)
        assert len(cells) == 4  # normalized volume of the octahedron slice
