"""Short rational generating functions for matroid polytope lattice points.

Pipeline: every vertex cone of P_M is triangulated into unimodular cells,
the cells are made half-open so they partition the cone, each half-open
cell contributes one term z^a / prod(1 - z^b_j), and the vertex sum equals
the full lattice-point generating function.  Evaluating at z = 1 (a
removable singularity) through Todd-polynomial weights yields exact counts
and, with the dilation form z^(a + (k-1)v), the whole Ehrhart polynomial.
Each term's weights are integer numerators over one denominator, from a
single truncated series product.
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


def _todd_numerators(m: int):
    """c_0..c_m with b_n = c_n / (n! (n+1)!) the Taylor coefficients of
    x / (1 - exp(-x)), from the integer recursion
    c_n = sum_{j=1}^{n} (-1)^(j+1) C(n+1, j+1) * n!/(n-j+1)! * c_(n-j).
    """
    while len(_TODD_C) <= m:
        n = len(_TODD_C)
        total = 0
        for j in range(1, n + 1):
            term = comb(n + 1, j + 1) * (factorial(n) // factorial(n - j + 1)) * _TODD_C[n - j]
            total += term if j % 2 == 1 else -term
        _TODD_C.append(total)
    return _TODD_C[: m + 1]


def _todd_product(m: int, xis):
    """prod_j (x*xi_j / (1-exp(-x*xi_j))) truncated at x^m, in integers.

    Returns (p, den) with coefficient i equal to p[i] / den.  Each factor's
    series is scaled by D = m!(m+1)!, which clears every b_n with n <= m,
    and by q^m for a rational xi = r/q, so the product is a single pass of
    s truncated integer multiplications over the common denominator
    D^s * prod q_j^m.
    """
    big = factorial(m) * factorial(m + 1)
    scaled = [
        c * (big // (factorial(n) * factorial(n + 1))) for n, c in enumerate(_todd_numerators(m))
    ]
    acc = [1] + [0] * m
    den = 1
    for xi in xis:
        xi = Fraction(xi)
        r, q = xi.numerator, xi.denominator
        factor = [scaled[n] * r**n * q ** (m - n) for n in range(m + 1)]
        acc = [
            sum(acc[i] * factor[k - i] for i in range(k + 1) if acc[i] and factor[k - i])
            for k in range(m + 1)
        ]
        den *= big * q**m
    return acc, den


def todd_eval(m: int, xis):
    """td_m(xi_1..xi_s): coefficient of x^m in prod_j (x*xi_j / (1-exp(-x*xi_j))).

    Read from one truncated integer series product, O(s m^2) operations.
    """
    if m < 0:
        raise DimensionError("order must be >= 0")
    p, den = _todd_product(m, xis)
    return Fraction(p[m], den)


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
    """Todd weights w_0..w_s of one term at the singular point, as integer
    numerators over one denominator: w_l = nums[l] / den.

    w_l = (-1)^s td_(s-l)(-<lam, b_1>, ..., -<lam, b_s>) / (l! prod_j <lam, b_j>),
    and all s + 1 Todd values come from a single series product.
    """
    s = len(term.denominators)
    dots = [_idot(lam, b) for b in term.denominators]
    if any(d == 0 for d in dots):
        raise DimensionError("lambda is not generic for this term")
    p, den = _todd_product(s, [-d for d in dots])
    den *= factorial(s)
    for d in dots:
        den *= d
    sign = -1 if s % 2 else 1
    nums = [sign * p[s - l] * (factorial(s) // factorial(l)) for l in range(s + 1)]
    return nums, den


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
        nums, den = _term_weights(t, lam)
        na = _idot(lam, t.numerator)
        total += Fraction(sum(w * na**l for l, w in enumerate(nums)), den)
    if total.denominator != 1:
        raise InternalInconsistencyError(f"specialization gave non-integer {total}")
    return int(total)


def dilation_polynomial(terms, dim: int, lam=None):
    """Ehrhart coefficients from dilated terms z^(a + (k-1) v).

    Coefficient of k^m is assembled from the binomial split of
    <lam, a + (k-1)v>^l; per term it is one integer numerator over the
    term's weight denominator.  All coefficients above the polytope
    dimension must vanish exactly, and the constant term must be 1.
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
        nums, den = _term_weights(t, lam)
        va = _idot(lam, t.vertex)
        shifted = _idot(lam, t.numerator) - va
        spow = [shifted**j for j in range(s + 1)]
        for m in range(s + 1):
            c = sum(comb(l, m) * nums[l] * spow[l - m] for l in range(m, s + 1))
            if c:
                coeffs[m] += Fraction(va**m * c, den)
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
