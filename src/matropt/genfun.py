"""Short rational generating functions for matroid polytope lattice points.

Pipeline: every vertex cone of P_M is cut into unimodular half-open cells
that partition it, the spanning-forest cells of its exchange graph
(`triangulate.tree_cells`); each cell contributes one term
z^a / prod(1 - z^b_j), and the vertex sum equals the full lattice-point
generating function.  Evaluating at z = 1 (a removable singularity)
through Todd-polynomial weights yields exact counts and, with the dilation
form z^(a + (k-1)v), the whole Ehrhart polynomial (the exponential
substitution of De Loera, Hemmecke, Tauzer and Yoshida, Effective lattice
point counting in rational convex polytopes, J. Symbolic Comput. 2004).
Each term's value is a polynomial in k read off one integer exponential of
a power series, with the dilation shift folded into its x^1 weight; it has
integer numerators over one denominator, and the terms are summed over one
common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, perm
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
            if not any(b):
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


@cache
def _exp_table(m: int):
    """(A, alpha_1, rows, binomials, m! A^m) for integer exponentials of
    series h(x) = sum_k beta_k / A x^k up to x^m whose odd coefficients
    above x^1 vanish, as in sum_k alpha_k / A * P_k x^k (P_k a power sum).

    exp(h) = sum_n gamma_n / (n! A^n) x^n with gamma_0 = 1 and
    gamma_n = beta_1 gamma_(n-1) + sum_(even k <= n) c_nk P_k gamma_(n-k),
    c_nk = k (n-1)!/(n-k)! alpha_k A^(k-1); rows[n] lists (k, c_nk).
    """
    big, alpha = _todd_log(m)
    rows = [
        tuple((k, k * perm(n - 1, k - 1) * alpha[k] * big ** (k - 1))
              for k in range(2, n + 1, 2) if alpha[k])
        for n in range(m + 1)
    ]
    half = alpha[1] if m else 0
    return big, half, rows, tuple(comb(m, i) for i in range(m + 1)), factorial(m) * big**m


def _exp_gamma(rows, beta_1: int, values):
    """gamma_0..gamma_m for the rows of `_exp_table(m)`, beta_1 and the
    power sums of `values` at the even orders."""
    m = len(rows) - 1
    sums = [0] * (m + 1)
    squares = [v * v for v in values]
    power = squares
    for k in range(2, m + 1, 2):
        sums[k] = sum(power)
        power = [a * b for a, b in zip(power, squares)]
    gamma = [1]
    for n in range(1, m + 1):
        g = beta_1 * gamma[n - 1]
        for k, c in rows[n]:
            g += c * sums[k] * gamma[n - k]
        gamma.append(g)
    return gamma


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


def _term_polynomial(term: GenFunTerm, lam):
    """The term's value at z = 1 in its k-th dilation z^(a + (k-1)v), as a
    polynomial in k: (nums, den) with coefficient m equal to nums[m] / den,
    den > 0.

    With d_j = <lam, b_j> and X = <lam, a + (k-1)v> = S + kV the value is
    (-1)^s / prod_j d_j * [x^s] exp(xX + sum_k alpha_k / A P_k(-d) x^k).
    Splitting off exp(xkV) leaves one integer exponential (`_exp_gamma`)
    with beta_1 = A S - alpha_1 P_1(d), and k^m has the numerator
    +-C(s, m) (A V)^m gamma_(s-m) over s! A^s |prod_j d_j|.
    """
    s = len(term.denominators)
    if not s:
        return [1], 1  # a point vertex: one lattice point in every dilation
    dots = [_idot(lam, b) for b in term.denominators]
    if 0 in dots:
        raise DimensionError("lambda is not generic for this term")
    big, half, rows, binomials, den = _exp_table(s)
    sign = -1 if s % 2 else 1
    for d in dots:
        den *= d
    if den < 0:
        sign, den = -sign, -den
    va = _idot(lam, term.vertex)
    gamma = _exp_gamma(rows, big * (_idot(lam, term.numerator) - va) - half * sum(dots), dots)
    step = big * va
    nums = []
    scale = sign
    for m in range(s + 1):
        nums.append(scale * binomials[m] * gamma[s - m])
        scale *= step
    return nums, den


def dilation_polynomial(terms, dim: int, lam=None):
    """Ehrhart coefficients from dilated terms z^(a + (k-1) v).

    Each term's value at z = 1 is a polynomial in k with integer numerators
    over one denominator (`_term_polynomial`).  The numerators of all terms
    are summed over the lcm of their denominators, one division per
    coefficient at the end.  All coefficients above the polytope dimension
    must vanish exactly, and the constant term must be 1.
    """
    if lam is None:
        lam = generic_lambda(terms)
    smax = max((len(t.denominators) for t in terms), default=0)
    acc = [0] * (smax + 1)
    common = 1
    for t in terms:
        nums, den = _term_polynomial(t, lam)
        grow = den // gcd(common, den)
        if grow > 1:
            common *= grow
            acc = [x * grow for x in acc]
        scale = common // den
        for m, c in enumerate(nums):
            acc[m] += c * scale
    coeffs = [Fraction(x, common) for x in acc]
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
