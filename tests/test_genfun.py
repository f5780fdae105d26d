"""Generating-function terms, Todd weights, specialization, Ehrhart pipeline."""

import random
import time
from fractions import Fraction

import pytest

import matropt.genfun
from conftest import (
    VECTOR_2x5,
    GenFunTerm,
    HalfOpenSimplicialCone,
    _idot,
    catalog_connected,
    catalog_small,
    cell_term,
    count_lattice_points,
    disconnected_matroids,
    ehrhart_per_cone,
    evaluate_polynomial,
    fraction_todd_log,
    generic_lambda_of_terms,
    genfun_of_halfopen,
    hstar_by_half_open_placing,
    interpolate_ehrhart,
    matroid_genfun,
    minimal_matroid,
    minimal_matroid_count,
    sparse_paving_count,
    sparse_paving_non_bases,
    specialize_count,
    term_polynomial,
    term_polynomial_taylor_shift,
    todd_eval,
    vertex_cone,
)
from matropt import (
    DimensionError,
    InternalInconsistencyError,
    dilation_lattice_counts,
    dilation_polynomial,
    ehrhart_polynomial,
    ehrhart_uniform,
    enumerate_bases,
    graphic_matroid,
    hstar_from_counts,
    polytope_dimension,
    tangent_cone,
    tree_cells,
    uniform_matroid,
    vector_matroid,
)
from matropt.genfun import _cone_value, _orbit_cones, _powers, _todd_log


def cone_pairs(M):
    """The exchange pairs of every vertex cone of P_M, cone after cone."""
    return [p for b in enumerate_bases(M) for p in tangent_cone(M, b)]


def todd_taylor_oracle(m, xis):
    """Independent route: invert the series (1 - e^-x)/x by long division,
    then convolve the s factors in one shot."""
    # (1 - e^-x)/x has coefficients (-1)^n / (n+1)!
    fact = [1]
    for i in range(1, m + 2):
        fact.append(fact[-1] * i)
    recip = [Fraction((-1) ** n, fact[n + 1]) for n in range(m + 1)]
    # h = 1 / recip as a power series
    h = [Fraction(0)] * (m + 1)
    h[0] = 1 / recip[0]
    for n in range(1, m + 1):
        h[n] = -sum(recip[j] * h[n - j] for j in range(1, n + 1)) / recip[0]
    # product over xi of h(x * xi), truncated
    acc = [Fraction(1)] + [Fraction(0)] * m
    for xi in xis:
        factor = [h[n] * Fraction(xi) ** n for n in range(m + 1)]
        out = [Fraction(0)] * (m + 1)
        for i in range(m + 1):
            for j in range(m + 1 - i):
                out[i + j] += acc[i] * factor[j]
        acc = out
    return acc[m]


def box_terms(sides):
    """Vertex-cone terms of the box prod [0, a_i] (all cones simplicial)."""
    d = len(sides)
    terms = []
    for mask in range(2 ** d):
        apex = tuple(sides[i] if (mask >> i) & 1 else 0 for i in range(d))
        gens = tuple(
            tuple((-1 if (mask >> i) & 1 else 1) * (1 if j == i else 0) for j in range(d))
            for i in range(d)
        )
        terms.append(GenFunTerm(numerator=apex, vertex=apex, denominators=gens))
    return terms


class TestToddEvaluation:
    def test_td0_is_one(self):
        assert todd_eval(0, [Fraction(7), Fraction(-3)]) == 1

    def test_td1_is_half_sum(self):
        assert todd_eval(1, [Fraction(2), Fraction(5)]) == Fraction(7, 2)

    def test_td2_single_variable(self):
        assert todd_eval(2, [Fraction(1)]) == Fraction(1, 12)

    def test_integer_tables_match_fraction_recurrence(self):
        # The tangent-number tables against the log recurrence in Fractions.
        for m in range(41):
            assert _todd_log(m) == fraction_todd_log(m), m

    def test_matches_taylor_oracle(self):
        rng = random.Random(6)
        for m in range(11):
            for s in range(1, 7):
                xis = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(s)]
                assert todd_eval(m, xis) == todd_taylor_oracle(m, xis)


class TestGenFunOfHalfOpen:
    def test_closed_ray(self):
        half = HalfOpenSimplicialCone((0, 0), ((1, 0),), frozenset())
        term = genfun_of_halfopen(half)
        assert term.numerator == (0, 0)
        assert term.denominators == ((1, 0),)

    def test_open_ray_shifts_numerator(self):
        half = HalfOpenSimplicialCone((0, 0), ((1, 0),), frozenset({0}))
        assert genfun_of_halfopen(half).numerator == (1, 0)

    def test_quadrant_with_one_strict_facet(self):
        half = HalfOpenSimplicialCone((2, 0), ((1, 0), (0, 1)), frozenset({1}))
        term = genfun_of_halfopen(half)
        assert term.numerator == (2, 1)
        # Oracle: smallest lattice point of the half-open cell in lex order.
        points = [
            (2 + a, b) for a in range(3) for b in range(3)
            if b > 0  # strict second generator
        ]
        assert min(points) == term.numerator

    def test_rejects_non_unimodular(self):
        half = HalfOpenSimplicialCone((0, 0), ((2, 0),), frozenset())
        with pytest.raises(DimensionError):
            genfun_of_halfopen(half)


class TestGenericLambda:
    """The pipeline's fixed lam = (0, 1, ..., n - 1): lam_j - lam_i = j - i."""

    def test_k4_terms_all_nonorthogonal(self, k4):
        lam = tuple(range(k4.n))
        for t in matroid_genfun(k4):
            for b in t.denominators:
                assert _idot(lam, b) != 0

    def test_fixed_lambda_orthogonal_to_no_catalog_pair(self):
        k5 = graphic_matroid([[int(i != j) for j in range(5)] for i in range(5)])
        k34 = graphic_matroid([[int((i < 3) != (j < 3)) for j in range(7)] for i in range(7)])
        for M in catalog_small() + [k5, k34]:
            lam = tuple(range(M.n))
            assert all(lam[j] != lam[i] for i, j in cone_pairs(M)), M


class TestSpecializeCount:
    def test_segment(self):
        terms = [
            GenFunTerm((0,), (0,), ((1,),)),
            GenFunTerm((3,), (3,), ((-1,),)),
        ]
        assert specialize_count(terms) == 4

    def test_unit_square(self):
        assert specialize_count(box_terms([1, 1])) == 4

    def test_k4_vertex_count(self, k4):
        assert count_lattice_points(k4) == 16

    def test_u24_vertex_count(self, u24):
        assert count_lattice_points(u24) == 6

    def test_random_boxes(self):
        rng = random.Random(13)
        for _ in range(20):
            d = rng.randint(1, 4)
            sides = [rng.randint(1, 6) for _ in range(d)]
            expected = 1
            for a in sides:
                expected *= a + 1
            assert specialize_count(box_terms(sides)) == expected

    def test_two_lambdas_agree(self, k4):
        terms = matroid_genfun(k4)
        lam1 = generic_lambda_of_terms(terms)
        # A different generic vector: shift the moment curve base.
        n = len(lam1)
        xi = 23
        lam2 = tuple(xi ** p for p in range(n))
        for t in terms:
            for b in t.denominators:
                assert sum(x * y for x, y in zip(lam2, b)) != 0
        assert specialize_count(terms, lam1) == specialize_count(terms, lam2) == 16


def _as_fractions(term, lam):
    nums, den = term_polynomial(term, lam)
    assert den > 0
    return [Fraction(c, den) for c in nums]


class TestTermPolynomial:
    """Each term's dilation polynomial from one exponential with the shift
    folded in, against Todd weights followed by a Taylor shift."""

    def test_catalog_terms_at_fixed_lambda(self):
        # Every cell of every catalog cone (the 8-edge wheel among them) on
        # its own: `_cone_value` of a cone given just that cell, with no
        # origin, at the pipeline's lam = (0, 1, ..., n - 1).
        for M in catalog_small():
            lam = tuple(range(M.n))
            for b in enumerate_bases(M):
                cone = vertex_cone(M, b)
                if not cone.pairs:
                    continue  # a point: no denominators
                powers = _powers({j - i for i, j in cone.pairs}, M.n)
                for bits, strict, _ in tree_cells(cone.pairs):
                    term = cell_term(cone, bits, strict)
                    nums, den = _cone_value(b, cone.pairs, [(bits, strict, None)], powers)
                    assert den > 0
                    got = [Fraction(c, den) for c in nums]
                    assert got == term_polynomial_taylor_shift(term, lam), (M, cone, bits)

    def test_box_terms(self):
        rng = random.Random(29)
        for _ in range(10):
            terms = box_terms([rng.randint(1, 6) for _ in range(rng.randint(1, 4))])
            lam = generic_lambda_of_terms(terms)
            for t in terms:
                assert _as_fractions(t, lam) == term_polynomial_taylor_shift(t, lam)

    def test_random_terms(self):
        # Denominators with arbitrary integer entries, not e_j - e_i.
        rng = random.Random(31)
        checked = 0
        while checked < 200:
            n, s = rng.randint(1, 5), rng.randint(0, 7)
            dens = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(s))
            if any(not any(b) for b in dens):
                continue
            lam = tuple(rng.randint(-9, 9) for _ in range(n))
            if any(_idot(lam, b) == 0 for b in dens):
                continue
            vertex = tuple(rng.randint(-5, 5) for _ in range(n))
            num = tuple(rng.randint(-5, 5) for _ in range(n))
            t = GenFunTerm(num, vertex, dens)
            assert _as_fractions(t, lam) == term_polynomial_taylor_shift(t, lam), t
            checked += 1

    def test_count_is_the_polynomial_at_one(self):
        for M in catalog_small():
            assert specialize_count(matroid_genfun(M)) == sum(ehrhart_polynomial(M))


class TestMatroidGenfun:
    def test_segment_two_terms(self):
        terms = matroid_genfun(uniform_matroid(2, 1))
        assert len(terms) == 2
        assert specialize_count(terms) == 2

    def test_k4_specializes_to_sixteen(self, k4):
        assert specialize_count(matroid_genfun(k4)) == 16

    def test_term_count_matches_cells(self, u24):
        # One term per half-open cell: 6 vertices with 2 cells each.
        assert len(matroid_genfun(u24)) == 12


class TestEhrhartPipeline:
    def test_segment_polynomial(self):
        coeffs = ehrhart_polynomial(uniform_matroid(2, 1))
        assert coeffs == (Fraction(1), Fraction(1))

    def test_k4_table_row(self, k4):
        assert ehrhart_polynomial(k4) == (
            Fraction(1),
            Fraction(107, 30),
            Fraction(21, 4),
            Fraction(49, 12),
            Fraction(7, 4),
            Fraction(7, 20),
        )

    def test_u24_matches_interpolation(self, u24):
        counts = dilation_lattice_counts(u24, range(5))
        assert ehrhart_polynomial(u24) == interpolate_ehrhart(counts, 3)

    def test_catalog_pipeline_matches_sweeps(self):
        for M in catalog_connected(7):
            dim = polytope_dimension(M, enumerate_bases(M)[0])
            coeffs = ehrhart_polynomial(M)
            assert len(coeffs) == dim + 1
            counts = dilation_lattice_counts(M, range(dim + 3))
            for k in range(dim + 3):
                assert evaluate_polynomial(coeffs, k) == counts[k]

    def test_disconnected_matroid_lower_degree(self):
        from conftest import square_matroid

        M = square_matroid()
        coeffs = ehrhart_polynomial(M)
        assert len(coeffs) == 3  # dim = n - #components = 4 - 2
        assert evaluate_polynomial(coeffs, 1) == 4
        for k in range(5):
            assert evaluate_polynomial(coeffs, k) == (k + 1) ** 2

    def test_wheel_graph_rank_four(self):
        # 8-edge wheel: value at k = 1 is its spanning-tree count, and the
        # series numerator of the resulting counts is non-negative.
        from conftest import wheel4_adjacency
        from matropt import graphic_matroid, hstar_from_counts, laplacian_tree_count

        M = graphic_matroid(wheel4_adjacency())
        nv, edges = M.data
        coeffs = ehrhart_polynomial(M)
        assert coeffs == (
            Fraction(1),
            Fraction(135, 28),
            Fraction(3691, 360),
            Fraction(1511, 120),
            Fraction(88, 9),
            Fraction(39, 8),
            Fraction(529, 360),
            Fraction(89, 420),
        )
        assert evaluate_polynomial(coeffs, 1) == laplacian_tree_count(nv, edges) == 45
        counts = [int(evaluate_polynomial(coeffs, k)) for k in range(8)]
        assert hstar_from_counts(counts, 7) == (1, 37, 254, 475, 262, 38, 1)

    def test_k5_pinned(self):
        # K5 (10 edges, 125 bases, dim 9): the value at k = 1 is the
        # spanning-tree count 5^3 (Cayley).
        from matropt import graphic_matroid

        M = graphic_matroid([[int(i != j) for j in range(5)] for i in range(5)])
        start = time.perf_counter()
        coeffs = ehrhart_polynomial(M)
        elapsed = time.perf_counter() - start
        # A wall-clock ceiling, well above the goal of 2 s, so that a slower
        # cell or specialization route shows up as a failure.
        assert elapsed < 10, f"K5 took {elapsed:.1f}s"
        assert coeffs == (
            Fraction(1),
            Fraction(629, 105),
            Fraction(8287, 504),
            Fraction(11801, 432),
            Fraction(1465, 48),
            Fraction(34541, 1440),
            Fraction(641, 48),
            Fraction(569, 112),
            Fraction(149, 126),
            Fraction(541, 4320),
        )
        assert evaluate_polynomial(coeffs, 1) == 125

    def test_k34_pinned(self):
        # K3,4 (12 edges, 432 bases, dim 11): pinned from the placing
        # pipeline; the value at k = 1 is the spanning-tree count 3^3 * 4^2.
        from matropt import graphic_matroid

        M = graphic_matroid([[int((i < 3) != (j < 3)) for j in range(7)] for i in range(7)])
        coeffs = ehrhart_polynomial(M)
        assert coeffs == (
            Fraction(1),
            Fraction(41375, 5544),
            Fraction(1315901, 50400),
            Fraction(6436427, 113400),
            Fraction(690443, 8064),
            Fraction(2289625, 24192),
            Fraction(377681, 4800),
            Fraction(3736549, 75600),
            Fraction(185683, 8064),
            Fraction(548455, 72576),
            Fraction(78661, 50400),
            Fraction(168809, 1108800),
        )
        assert evaluate_polynomial(coeffs, 1) == 432

    @pytest.mark.slow
    def test_k6_pinned(self):
        # K6 (15 edges, 1,296 bases in 6 orbits, dim 14, 350,370 cells):
        # 10-15 s, so it runs only under `pytest -m slow`.  The value at
        # k = 1 is the spanning-tree count 6^4 (Cayley).
        from matropt import graphic_matroid

        M = graphic_matroid([[int(i != j) for j in range(6)] for i in range(6)])
        coeffs = ehrhart_polynomial(M)
        assert coeffs == tuple(map(Fraction, (
            "1", "1563391/180180", "2710218517/75675600", "37289185/399168",
            "187782661/1088640", "57856559/241920", "5603803493/21772800",
            "2267927/10368", "2247716213/15240960", "56758883/725760",
            "346782833/10886400", "1271213/133056", "47174219/23950080",
            "12821917/51891840", "5591699/396264960",
        )))
        assert evaluate_polynomial(coeffs, 1) == 1296

    @pytest.mark.slow
    def test_k35_pinned(self):
        # K3,5 (15 edges, 2,025 bases in 10 orbits, dim 14, 753,060 cells):
        # about 27 s.
        # Pinned from the pipeline's own output; the value at k = 1 is the
        # spanning-tree count 3^4 * 5^2.
        from matropt import graphic_matroid

        M = graphic_matroid([[int((i < 3) != (j < 3)) for j in range(8)] for i in range(8)])
        coeffs = ehrhart_polynomial(M)
        assert coeffs == tuple(map(Fraction, (
            "1", "3354997/360360", "6247448869/151351200", "21003413/181440",
            "550734467/2395008", "15567137/45360", "2166158863/5443200",
            "151431887/414720", "3253395653/12192768", "89739101/580608",
            "3036661051/43545600", "756067313/31933440", "108977651/19160064",
            "32459047/37739520", "2676698273/43589145600",
        )))
        assert evaluate_polynomial(coeffs, 1) == 2025

    @pytest.mark.slow
    @pytest.mark.parametrize("n, r", [(30, 2), (16, 3)])
    def test_fixed_rank_matches_closed_form(self, n, r):
        # Fixed rank at large n: U(2,30) (435 bases, 28 cells per cone,
        # dim 29) and U(3,16) (560 bases, 91 cells per cone, dim 15), so
        # the specialization runs at s = 29 and s = 15, against the closed
        # form of `ehrhart_uniform`.
        assert ehrhart_polynomial(uniform_matroid(n, r)) == ehrhart_uniform(n, r)

    def test_vector_backend_agrees_with_graphic(self, k4):
        # The oriented-incidence realization has the same bases, so the whole
        # pipeline must produce the identical polynomial through a different
        # rank oracle.
        from conftest import vector_k4

        assert ehrhart_polynomial(vector_k4()) == ehrhart_polynomial(k4)

    def test_hstar_nonnegative_on_catalog(self):
        for M in catalog_connected(6):
            dim = polytope_dimension(M, enumerate_bases(M)[0])
            coeffs = ehrhart_polynomial(M)
            counts = [int(evaluate_polynomial(coeffs, k)) for k in range(dim + 1)]
            hstar = hstar_from_counts(counts, dim)
            assert all(h >= 0 for h in hstar)
            assert hstar[0] == 1

    def test_nongeneric_lambda_rejected(self, u24):
        terms = matroid_genfun(u24)
        with pytest.raises((DimensionError, InternalInconsistencyError)):
            specialize_count(terms, (0, 0, 0, 0))

    def test_dilation_polynomial_checks(self):
        # Values (nums, den) summed over the lcm of their denominators.
        assert dilation_polynomial([([3, 1], 6), ([1, 1], 2)], 1) == (Fraction(1), Fraction(2, 3))
        with pytest.raises(InternalInconsistencyError):  # degree 2 above dim = 1
            dilation_polynomial([([1, 0, 1], 1)], 1)
        with pytest.raises(InternalInconsistencyError):  # constant term 2
            dilation_polynomial([([1, 1], 1), ([1, 0], 1)], 1)


def orbit_matroids():
    """The catalog, K3,3, K5 and the disconnected matroids."""
    k33 = [[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)]
    k5 = [[int(i != j) for j in range(5)] for i in range(5)]
    return catalog_small() + [graphic_matroid(k33), graphic_matroid(k5)] + disconnected_matroids()


class TestOrbitCones:
    """Cells walked once per automorphism orbit of the bases, carried to
    the other cones of the orbit."""

    def test_every_cone_once_with_its_own_cells(self):
        # A carried cone has the pairs of `tangent_cone` in another order,
        # and `tree_cells` of it gives back its representative's cells.
        for M in orbit_matroids():
            bases = enumerate_bases(M)
            seen = []
            for b, pairs, cells in _orbit_cones(M, bases):
                assert sorted(pairs) == sorted(tangent_cone(M, b)), (M, b)
                assert tree_cells(pairs) == cells, (M, b)
                seen.append(b)
            assert sorted(seen) == bases, M

    def test_one_walk_per_orbit(self, monkeypatch):
        walks = []

        def counted(pairs):
            walks.append(pairs)
            return tree_cells(pairs)

        monkeypatch.setattr(matropt.genfun, "tree_cells", counted)
        k5 = graphic_matroid([[int(i != j) for j in range(5)] for i in range(5)])
        for M, orbits in ((k5, 3), (uniform_matroid(6, 3), 1), (vector_matroid(VECTOR_2x5), 9)):
            walks.clear()
            assert len(list(_orbit_cones(M, enumerate_bases(M)))) == len(enumerate_bases(M))
            assert len(walks) == orbits, M

    def test_orbit_route_matches_per_cone_route(self):
        for M in orbit_matroids():
            assert ehrhart_polynomial(M) == ehrhart_per_cone(M), M

    def test_swapped_cells_match_cells_alone(self):
        # A cone's value, each cell after the first updated from the cell
        # it was found from, against the sum of every cell's value with
        # the cell given alone, summed afresh: on every cone of the
        # catalog, K3,3 and the disconnected matroids, carried cones among
        # them, and on every seventh cone of K5.
        for M in orbit_matroids():
            bases = enumerate_bases(M)
            powers = _powers(range(1 - M.n, M.n), polytope_dimension(M, bases[0]))
            cones = list(_orbit_cones(M, bases))
            if M.n == 10:  # K5
                cones = cones[::7]
            for b, pairs, cells in cones:
                nums, den = _cone_value(b, pairs, cells, powers)
                alone = [Fraction(0)] * len(nums)
                for bits, strict, _ in cells:
                    c_nums, c_den = _cone_value(b, pairs, [(bits, strict, None)], powers)
                    alone = [a + Fraction(c, c_den) for a, c in zip(alone, c_nums)]
                assert [Fraction(c, den) for c in nums] == alone, (M, b)


class TestSparsePaving:
    """The pipeline against Ferroni's closed forms, a route that needs no
    generic vector: minimal matroids T(r, n), and sparse paving matroids
    through ehr(U(r, n), t) - lam * ehr(T(r, n), t - 1)."""

    @staticmethod
    def agree(M, count):
        # Both sides have degree <= n - 1, so n + 1 values fix them.
        coeffs = ehrhart_polynomial(M)
        return all(evaluate_polynomial(coeffs, t) == count(t) for t in range(M.n + 1))

    def test_minimal_matroids_match_closed_form(self):
        for r, n in ((2, 4), (2, 6), (3, 6), (3, 7), (4, 8)):
            M = minimal_matroid(r, n)
            assert len(enumerate_bases(M)) == r * (n - r) + 1
            assert self.agree(M, lambda t: minimal_matroid_count(r, n, t)), (r, n)

    def test_k4_has_four_circuit_hyperplanes(self, k4):
        non_bases = sparse_paving_non_bases(k4)
        assert sorted(map(sorted, non_bases)) == [[0, 1, 3], [0, 2, 4], [1, 2, 5], [3, 4, 5]]
        assert self.agree(k4, lambda t: sparse_paving_count(k4, t))

    def test_detector(self):
        from conftest import wheel4_adjacency
        from matropt import graphic_matroid

        assert sparse_paving_non_bases(uniform_matroid(5, 2)) == []
        # A triangle of the wheel plus any fourth edge is a non-basis, and
        # two of those share the triangle's three edges.
        assert sparse_paving_non_bases(graphic_matroid(wheel4_adjacency())) is None
        # {0, 3, 4} and {0, 3, 5} share two elements.
        assert sparse_paving_non_bases(minimal_matroid(3, 6)) is None

    def test_catalog_sparse_paving_matches_formula(self):
        checked = 0
        for M in catalog_small():
            if sparse_paving_non_bases(M) is None:
                continue
            assert self.agree(M, lambda t: sparse_paving_count(M, t)), M
            checked += 1
        assert checked == len(catalog_small()) - 1  # all but the 8-edge wheel

    @staticmethod
    def planar(rng, n, lines):
        """Rank-3 vector matroid of n rational points (x, y, 1) in the
        plane, `lines` 3-point lines among them drawn on purpose, and the
        points.  Further collinear triples may fall out of the draw."""

        def point():
            return tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(2))

        pts = []
        for _ in range(lines):
            a, b = point(), point()
            share = Fraction(rng.randint(1, 4), 5)
            pts += [a, b, tuple(x + share * (y - x) for x, y in zip(a, b))]
        while len(pts) < n:
            pts.append(point())
        return vector_matroid([[p[0] for p in pts], [p[1] for p in pts], [1] * n]), pts

    def test_seeded_planar_point_sets(self):
        # Rank-3 vector matroids of planar points, each with one or two
        # 3-point lines drawn on purpose; a set with a 4-point line or a
        # repeated point is not sparse paving and is drawn again.  The
        # circuit-hyperplanes are the 3-point lines (about 0.3 s).
        rng = random.Random(14)
        lines_seen = []
        while len(lines_seen) < 12:
            n = 6 + len(lines_seen) % 3
            M, pts = self.planar(rng, n, rng.randint(1, 2))
            non_bases = sparse_paving_non_bases(M)
            if M.rank != 3 or not non_bases:
                continue
            assert self.agree(M, lambda t: sparse_paving_count(M, t)), pts
            lines_seen.append(len(non_bases))
        assert min(lines_seen) >= 1 and max(lines_seen) >= 2

    def pin_planar(self, n, seed):
        # The first sparse paving draw with three lines drawn on purpose;
        # every cone of a vector matroid is walked, about C(n, 3) of them.
        rng = random.Random(seed)
        while True:
            M, pts = self.planar(rng, n, 3)
            non_bases = sparse_paving_non_bases(M)
            if M.rank == 3 and non_bases:
                break
        assert len(non_bases) >= 3
        assert self.agree(M, lambda t: sparse_paving_count(M, t)), pts

    def test_planar_point_set_on_14_elements(self):
        self.pin_planar(14, 1914)  # about 1.5 s

    @pytest.mark.slow
    def test_planar_point_set_on_16_elements(self):
        self.pin_planar(16, 1916)  # about 4 s


class TestHalfOpenPlacing:
    """The pipeline's h* against half-open cells of the whole polytope's
    placing triangulation, a route that needs no generic lambda and no
    Ehrhart counts."""

    @staticmethod
    def pipeline_hstar(M):
        dim = polytope_dimension(M, enumerate_bases(M)[0])
        coeffs = ehrhart_polynomial(M)
        return hstar_from_counts([int(evaluate_polynomial(coeffs, k)) for k in range(dim + 1)], dim)

    def test_small_polytopes(self, k4):
        # U(2,5), U(3,6), K4 and the 8-edge wheel (1,068 cells): about 0.5 s.
        from conftest import wheel4_adjacency

        wheel = graphic_matroid(wheel4_adjacency())
        for M in (uniform_matroid(5, 2), uniform_matroid(6, 3), k4, wheel):
            assert hstar_by_half_open_placing(M) == self.pipeline_hstar(M), M.label
        assert hstar_by_half_open_placing(wheel) == (1, 37, 254, 475, 262, 38, 1)

    @pytest.mark.slow
    def test_k33(self):
        # 8,923 cells: about 4 s.
        M = graphic_matroid([[int((i < 3) != (j < 3)) for j in range(6)] for i in range(6)])
        assert hstar_by_half_open_placing(M) == self.pipeline_hstar(M)

    @pytest.mark.slow
    def test_k5(self):
        # 45,444 cells: about 25 s, half of it placing.
        M = graphic_matroid([[int(i != j) for j in range(5)] for i in range(5)])
        assert hstar_by_half_open_placing(M) == self.pipeline_hstar(M)
