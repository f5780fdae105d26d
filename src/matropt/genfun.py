"""Short rational generating functions for matroid polytope lattice points.

Pipeline: every vertex cone of P_M is cut into unimodular half-open cells
that partition it, the spanning-forest cells of its exchange graph
(`triangulate.tree_cells`); each cell contributes one term
z^a / prod(1 - z^b_j), and the vertex sum equals the full lattice-point
generating function.  Evaluating at z = 1 (a removable singularity)
through Todd-polynomial weights yields exact counts and, with the dilation
form z^(a + (k-1)v), the whole Ehrhart polynomial.  Each term's weights
are integer numerators over one denominator, from one integer exponential
of a power series, and the terms are summed over one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, perm
from operator import mul

from .errors import DimensionError, InternalInconsistencyError
from .matroid import Matroid
from .oracles import enumerate_bases, polytope_dimension
from .triangulate import tangent_cone, tree_cells


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
    """Generating-function terms of P_M by the vertex-cone decomposition.

    One term per half-open tree cell of every vertex cone: the cell's
    generators are the denominators, and the numerator sits at the unique
    lattice point of its fundamental parallelepiped, the apex plus the
    strict generators (the cells are unimodular by construction).
    """
    if bases is None:
        bases = enumerate_bases(M)
    terms = []
    for b in bases:
        for half in tree_cells(tangent_cone(M, b)):
            num = list(half.apex)
            for j in half.strict_indices:
                num = [a + g for a, g in zip(num, half.generators[j])]
            terms.append(GenFunTerm(tuple(num), half.apex, half.generators))
    return terms


# Todd polynomials ---------------------------------------------------------


@cache
def _todd_log(m: int):
    """(A, (alpha_0..alpha_m)) with log(x / (1 - exp(-x))) equal to
    sum_n alpha_n / A * x^n up to x^m: minus the log series l of
    (1 - exp(-x)) / x = sum_n c_n x^n, c_n = (-1)^n / (n+1)!, from
    n l_n = n c_n - sum_{0<k<n} k l_k c_(n-k), over a common A."""
    c = [Fraction((-1) ** n, factorial(n + 1)) for n in range(m + 1)]
    log = [Fraction(0)] * (m + 1)
    for n in range(1, m + 1):
        log[n] = c[n] - sum([k * log[k] * c[n - k] for k in range(1, n)], Fraction(0)) / n
    big = lcm(*[x.denominator for x in log])
    return big, tuple(-int(x * big) for x in log)


def _todd_product(m: int, xis):
    """prod_j (x*xi_j / (1-exp(-x*xi_j))) truncated at x^m, in integers.

    Returns (p, den) with coefficient n equal to p[n] / den.  The product
    is exp(sum_k alpha_k / A * P_k x^k), P_k the power sums of the xi; with
    xi_j = r_j / q and R_k = sum_j r_j^k, exp's recurrence
    n g_n = sum_k k h_k g_(n-k) stays integral as g_n = gamma_n / (n! (Aq)^n),
    gamma_n = sum_k k (n-1)!/(n-k)! alpha_k A^(k-1) R_k gamma_(n-k).
    """
    big, alpha = _todd_log(m)
    xis = [Fraction(x) for x in xis]
    q = lcm(*[x.denominator for x in xis])
    rs = [x.numerator * (q // x.denominator) for x in xis]
    weights = [
        (k, alpha[k] * big ** (k - 1) * sum([r**k for r in rs]))
        for k in range(1, m + 1)
        if alpha[k]
    ]
    gamma = [1]
    for n in range(1, m + 1):
        gamma.append(sum([k * perm(n - 1, k - 1) * w * gamma[n - k] for k, w in weights if k <= n]))
    scale = big * q
    p = [g * perm(m, m - n) * scale ** (m - n) for n, g in enumerate(gamma)]
    return p, factorial(m) * scale**m


def todd_eval(m: int, xis):
    """td_m(xi_1..xi_s): coefficient of x^m in prod_j (x*xi_j / (1-exp(-x*xi_j))).

    Read from one integer exp of summed power series, O(s m + m^2) operations.
    """
    if m < 0:
        raise DimensionError("order must be >= 0")
    p, den = _todd_product(m, xis)
    return Fraction(p[m], den)


# Specialization at z = 1 --------------------------------------------------


def generic_lambda(terms):
    """Moment-curve vector not orthogonal to any denominator exponent."""
    denominators = {b for t in terms for b in t.denominators}
    if not denominators:
        return None
    n = len(next(iter(denominators)))
    xi = 0
    bound = (n - 1) * sum(len(t.denominators) for t in terms) + 1
    while xi <= bound:
        lam = tuple(xi**p for p in range(n))
        if all(_idot(lam, b) != 0 for b in denominators):
            return lam
        xi += 1
    raise InternalInconsistencyError("moment-curve search exhausted its bound")


def _idot(a, b):
    return sum(map(mul, a, b))


def _term_weights(term: GenFunTerm, lam):
    """Todd weights w_0..w_s of one term at the singular point, as integer
    numerators over one positive denominator: w_l = nums[l] / den.

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
    sign = -1 if (s % 2) != (den < 0) else 1
    nums = [sign * p[s - l] * (factorial(s) // factorial(l)) for l in range(s + 1)]
    return nums, abs(den)


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

    A term with Todd weights w_l contributes sum_l w_l <lam, a + (k-1)v>^l,
    the weight polynomial shifted by <lam, a - v> (a Taylor shift) with k^m
    scaled by <lam, v>^m.  The integer numerators of all terms are summed
    over the lcm of their denominators, one division per coefficient at
    the end.  All coefficients above the polytope dimension must vanish
    exactly, and the constant term must be 1.
    """
    if lam is None:
        lam = generic_lambda(terms)
    smax = max((len(t.denominators) for t in terms), default=0)
    acc = [0] * (smax + 1)
    common = 1
    points = 0  # point vertices: one lattice point per dilation
    for t in terms:
        s = len(t.denominators)
        if s == 0:
            points += 1
            continue
        nums, den = _term_weights(t, lam)
        va = _idot(lam, t.vertex)
        shifted = _idot(lam, t.numerator) - va
        for i in range(s):
            for j in range(s - 1, i - 1, -1):
                nums[j] += shifted * nums[j + 1]
        grow = den // gcd(common, den)
        if grow > 1:
            common *= grow
            acc = [x * grow for x in acc]
        scale = common // den
        for m, c in enumerate(nums):
            acc[m] += c * scale
            scale *= va
    coeffs = [Fraction(x, common) for x in acc]
    coeffs[0] += points
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


def count_lattice_points(M: Matroid) -> int:
    """#(P_M intersect Z^n) by specializing the generating function."""
    return specialize_count(matroid_genfun(M))
