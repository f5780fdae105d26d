"""Short rational generating functions for matroid polytope lattice points.

Pipeline: every vertex cone of P_M is triangulated into unimodular cells,
the cells are made half-open so they partition the cone, each half-open
cell contributes one term z^a / prod(1 - z^b_j), and the vertex sum equals
the full lattice-point generating function.  Evaluating at z = 1 (a
removable singularity) through Todd-polynomial weights yields exact counts
and, with the dilation form z^(a + (k-1)v), the whole Ehrhart polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DimensionError, InternalInconsistencyError
from .matroid import Matroid
from .oracles import enumerate_bases, polytope_dimension
from .triangulate import (
    cell_lattice_determinant,
    cone_triangulation,
    half_open_decompose,
    tangent_cone,
)


@dataclass(frozen=True)
class GenFunTerm:
    """One term z^numerator / prod_j (1 - z^denominators[j]).

    `vertex` stores the apex so the k-th dilation reads numerator+(k-1)*vertex.
    """

    numerator: tuple
    vertex: tuple
    denominators: tuple

    def __post_init__(self):
        for b in self.denominators:
            if all(x == 0 for x in b):
                raise DimensionError("denominator exponents must be nonzero")


def matroid_genfun(M: Matroid, bases=None):
    """Generating-function terms of P_M by the vertex-cone decomposition."""
    if bases is None:
        bases = enumerate_bases(M)
    terms = []
    for b in bases:
        cone = tangent_cone(M, b)
        cells = cone_triangulation(cone)
        terms.extend(genfun_of_halfopen(h) for h in half_open_decompose(cone.apex, cells))
    return terms


def genfun_of_halfopen(half) -> GenFunTerm:
    """Term of one unimodular half-open cell: numerator sits at the unique
    lattice point of the fundamental parallelepiped, apex + strict generators."""
    if half.generators and cell_lattice_determinant(half.generators) != 1:
        raise DimensionError("cell is not unimodular over its lattice")
    num = list(half.apex)
    for j in half.strict_indices:
        num = [a + g for a, g in zip(num, half.generators[j])]
    return GenFunTerm(
        numerator=tuple(num),
        vertex=tuple(half.apex),
        denominators=tuple(half.generators),
    )


# Todd polynomials ---------------------------------------------------------

_TODD_C = [1]


def todd_series_coefficients(m: int):
    """Taylor coefficients b_0..b_m of x / (1 - exp(-x)), exact.

    b_n = c_n / (n! (n+1)!) with the integer recursion
    c_n = sum_{j=1}^{n} (-1)^(j+1) C(n+1, j+1) * n!/(n-j+1)! * c_(n-j).
    """
    while len(_TODD_C) <= m:
        n = len(_TODD_C)
        total = 0
        for j in range(1, n + 1):
            term = comb(n + 1, j + 1) * (factorial(n) // factorial(n - j + 1)) * _TODD_C[n - j]
            total += term if j % 2 == 1 else -term
        _TODD_C.append(total)
    return [Fraction(_TODD_C[n], factorial(n) * factorial(n + 1)) for n in range(m + 1)]


def todd_eval(m: int, xis):
    """td_m(xi_1..xi_s): coefficient of x^m in prod_j (x*xi_j / (1-exp(-x*xi_j))).

    The s truncated series are multiplied one at a time, truncating at order
    m, so the cost is O(s m^2) exact operations.
    """
    if m < 0:
        raise DimensionError("order must be >= 0")
    b = todd_series_coefficients(m)
    acc = [Fraction(1)] + [Fraction(0)] * m
    for xi in xis:
        xi = Fraction(xi)
        powers = [Fraction(1)]
        for _ in range(m):
            powers.append(powers[-1] * xi)
        factor = [b[n] * powers[n] for n in range(m + 1)]
        nxt = [Fraction(0)] * (m + 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                if factor[j] != 0:
                    nxt[i + j] += a * factor[j]
        acc = nxt
    return acc[m]


# Specialization at z = 1 --------------------------------------------------


def generic_lambda(terms):
    """Moment-curve vector not orthogonal to any denominator exponent."""
    denominators = [b for t in terms for b in t.denominators]
    if not denominators:
        return None
    n = len(denominators[0])
    xi = 0
    bound = (n - 1) * sum(len(t.denominators) for t in terms) + 1
    while xi <= bound:
        lam = tuple(xi**p for p in range(n))
        if all(_idot(lam, b) != 0 for b in denominators):
            return lam
        xi += 1
    raise InternalInconsistencyError("moment-curve search exhausted its bound")


def _idot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _term_weights(term: GenFunTerm, lam):
    """w_l for l = 0..s: Todd weights of one term at the singular point."""
    s = len(term.denominators)
    dots = [Fraction(_idot(lam, b)) for b in term.denominators]
    if any(d == 0 for d in dots):
        raise DimensionError("lambda is not generic for this term")
    denom_prod = Fraction(1)
    for d in dots:
        denom_prod *= d
    sign = Fraction(-1) ** s
    weights = []
    for l in range(s + 1):
        td = todd_eval(s - l, [-d for d in dots])
        weights.append(sign * td / (factorial(l) * denom_prod))
    return weights


def specialize_count(terms, lam=None) -> int:
    """Exact number of lattice points represented by the term sum.

    Independent of the chosen generic lambda; a non-integer total means the
    lambda was not generic or the terms are wrong, and raises.
    """
    if lam is None:
        lam = generic_lambda(terms)
    total = Fraction(0)
    for t in terms:
        if not t.denominators:
            total += 1
            continue
        weights = _term_weights(t, lam)
        na = Fraction(_idot(lam, t.numerator))
        acc = Fraction(0)
        power = Fraction(1)
        for l, w in enumerate(weights):
            acc += w * power
            power *= na
        total += acc
    if total.denominator != 1:
        raise InternalInconsistencyError(f"specialization gave non-integer {total}")
    return int(total)


def dilation_polynomial(terms, dim: int, lam=None):
    """Ehrhart coefficients from dilated terms z^(a + (k-1) v).

    Coefficient of k^m is assembled from the binomial split of
    <lam, a + (k-1)v>^l; all coefficients above the polytope dimension must
    vanish exactly, and the constant term must be 1.
    """
    if lam is None:
        lam = generic_lambda(terms)
    smax = max((len(t.denominators) for t in terms), default=0)
    coeffs = [Fraction(0)] * (smax + 1)
    for t in terms:
        s = len(t.denominators)
        if s == 0:
            coeffs[0] += 1  # point vertex: one lattice point per dilation
            continue
        weights = _term_weights(t, lam)
        va = Fraction(_idot(lam, t.vertex))
        shifted = Fraction(_idot(lam, t.numerator)) - va
        vpow = [Fraction(1)]
        spow = [Fraction(1)]
        for _ in range(s):
            vpow.append(vpow[-1] * va)
            spow.append(spow[-1] * shifted)
        for m in range(s + 1):
            c = Fraction(0)
            for l in range(m, s + 1):
                c += comb(l, m) * weights[l] * spow[l - m]
            coeffs[m] += vpow[m] * c
    for m in range(dim + 1, smax + 1):
        if coeffs[m] != 0:
            raise InternalInconsistencyError(
                f"degree-{m} coefficient {coeffs[m]} should vanish above dim={dim}"
            )
    out = coeffs[: dim + 1]
    if out and out[0] != 1:
        raise InternalInconsistencyError(f"Ehrhart constant term is {out[0]}, not 1")
    return tuple(out)


def ehrhart_polynomial(M: Matroid):
    """Exact Ehrhart polynomial of P_M via the full vertex-cone pipeline."""
    bases = enumerate_bases(M)
    dim = polytope_dimension(M, bases)
    terms = matroid_genfun(M, bases)
    return dilation_polynomial(terms, dim)


def term_to_dict(term: GenFunTerm) -> dict:
    """JSON-ready form: {a, v, b}."""
    return {
        "a": list(term.numerator),
        "v": list(term.vertex),
        "b": [list(b) for b in term.denominators],
    }


def term_from_dict(payload: dict) -> GenFunTerm:
    return GenFunTerm(
        numerator=tuple(int(x) for x in payload["a"]),
        vertex=tuple(int(x) for x in payload["v"]),
        denominators=tuple(tuple(int(x) for x in b) for b in payload["b"]),
    )


def count_lattice_points(M: Matroid) -> int:
    """#(P_M intersect Z^n) by specializing the generating function."""
    return specialize_count(matroid_genfun(M))
