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

The terms are never built.  A cone arrives as exchange pairs (i, j) and a
cell as generator indices, so <lam, e_j - e_i> = lam_j - lam_i needs no
dot product: lam, each pair's value and its even powers are taken once per
matroid, and a cell only sums and multiplies them over its indices.  Each
cell's value is a polynomial in k read off one integer exponential of a
power series, with the dilation shift folded into its x^1 weight; a cone
sums its cells over one denominator, and the cones are summed, one after
the other, over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, perm, prod

from .errors import DimensionError, InternalInconsistencyError
from .matroid import Matroid
from .oracles import enumerate_bases, polytope_dimension
from .triangulate import tangent_cone, tree_cells


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
    c_nk = k (n-1)!/(n-k)! alpha_k A^(k-1); rows[n] lists (k // 2, n - k,
    c_nk), the positions of P_k and gamma_(n-k) with their factor.
    """
    big, alpha = _todd_log(m)
    rows = [
        tuple((k // 2, n - k, k * perm(n - 1, k - 1) * alpha[k] * big ** (k - 1))
              for k in range(2, n + 1, 2) if alpha[k])
        for n in range(m + 1)
    ]
    half = alpha[1] if m else 0
    return big, half, rows, tuple(comb(m, i) for i in range(m + 1)), factorial(m) * big**m


def _exp_gamma(rows, beta_1: int, sums):
    """gamma_0..gamma_m for the rows of `_exp_table(m)`, beta_1 and the
    power sums P_k at the even orders k, sums[k // 2] = P_k."""
    gamma = [1]
    for row in rows[1:]:
        g = beta_1 * gamma[-1]
        for i, j, c in row:
            g += c * sums[i] * gamma[j]
        gamma.append(g)
    return gamma


# Specialization at z = 1 --------------------------------------------------


def generic_lambda(pairs, n: int):
    """Moment-curve vector lam = (xi^0, ..., xi^(n-1)) orthogonal to no
    denominator e_j - e_i of an exchange pair (i, j), least xi first.

    <lam, e_j - e_i> = xi^j - xi^i is a nonzero polynomial in xi of degree
    at most n - 1, so of the (n - 1) D + 1 values of xi up to (n - 1) D,
    D the number of distinct pairs, at most (n - 1) D are roots.
    """
    pairs = set(pairs)
    if not pairs:
        return None
    xi, bound = 0, (n - 1) * len(pairs) + 1
    while xi <= bound:
        lam = tuple(xi**p for p in range(n))
        if all(lam[i] != lam[j] for i, j in pairs):
            return lam
        xi += 1
    raise InternalInconsistencyError("moment-curve search exhausted its bound")


def _pair_powers(pairs, lam, order: int):
    """Per exchange pair (i, j), d = <lam, e_j - e_i> = lam_j - lam_i and
    its even powers up to the given order: [d, d^2, d^4, ...]."""
    out = {}
    for i, j in pairs:
        d = lam[j] - lam[i]
        out[i, j] = [d] + [d ** (2 * k) for k in range(1, order // 2 + 1)]
    return out


def _cone_value(cone, lam, powers):
    """The value at z = 1 of the terms of a vertex cone's cells, summed,
    in the k-th dilation: (nums, den) with the coefficient of k^m equal to
    nums[m] / den, den > 0.  `powers` holds d_j and its even powers for
    every exchange pair of the cone, up to the order of its cells
    (`_pair_powers`).

    A cell's term is z^a / prod_j (1 - z^(g_j)) over its generators, a
    being the apex v plus its strict generators, in the k-th dilation
    z^(a + (k-1)v).  With d_j = <lam, g_j> = lam_head - lam_tail and
    X = <lam, a + (k-1)v> = S + kV its value is
    (-1)^s / prod_j d_j * [x^s] exp(xX + sum_k alpha_k / A P_k(-d) x^k).
    Splitting off exp(xkV) leaves one integer exponential (`_exp_gamma`)
    with beta_1 = A S - alpha_1 P_1(d), S the sum of d_j over the strict
    generators, and k^m has the numerator +-C(s, m) (A V)^m gamma_(s-m)
    over s! A^s |prod_j d_j|.  Each cell sums the d_j and their even
    powers over its generator indices: column sums of (d_j, d_j^2, d_j^4,
    ...) give P_1, P_2, P_4, ...  The product D of the d_j over all the
    cone's generators is a common denominator of its cells, cell c
    entering with D / prod_(j in c) d_j.
    """
    if not cone.pairs:
        return [1], 1  # a point vertex: one lattice point in every dilation
    cells = tree_cells(cone)
    table = [powers[p] for p in cone.pairs]
    d = [row[0] for row in table]
    total = prod(d)
    if not total:
        raise DimensionError("lambda is not generic for this cone")
    s = len(cells[0][0])
    big, half, rows, binomials, den = _exp_table(s)
    d_at, powers_at = d.__getitem__, table.__getitem__
    acc = [0] * (s + 1)
    for bits, strict in cells:
        sums = list(map(sum, zip(*map(powers_at, bits))))
        gamma = _exp_gamma(rows, big * sum(map(d_at, strict)) - half * sums[0], sums)
        share = total // prod(map(d_at, bits))
        acc = [a + share * g for a, g in zip(acc, gamma)]
    step = big * sum(x for x, v in zip(lam, cone.apex) if v)
    sign = -1 if (s % 2) != (total < 0) else 1
    nums = [sign * c * step**m * a for m, (c, a) in enumerate(zip(binomials, reversed(acc)))]
    return nums, den * abs(total)


def dilation_polynomial(values, dim: int):
    """Ehrhart coefficients from the values (nums, den) at z = 1 of the
    dilated terms z^(a + (k-1) v) of every vertex cone, each a polynomial
    in k with integer numerators over one denominator (`_cone_value`).

    The numerators are summed over the lcm of the denominators as they
    arrive, one division per coefficient at the end.  All coefficients
    above the polytope dimension must vanish exactly, and the constant
    term must be 1.
    """
    acc = []
    common = 1
    for nums, den in values:
        if len(nums) > len(acc):
            acc += [0] * (len(nums) - len(acc))
        grow = den // gcd(common, den)
        if grow > 1:
            common *= grow
            acc = [x * grow for x in acc]
        scale = common // den
        for m, c in enumerate(nums):
            acc[m] += c * scale
    coeffs = [Fraction(x, common) for x in acc]
    for m in range(dim + 1, len(coeffs)):
        if coeffs[m] != 0:
            raise InternalInconsistencyError(
                f"degree-{m} coefficient {coeffs[m]} should vanish above dim={dim}"
            )
    out = coeffs[: dim + 1]
    if out and out[0] != 1:
        raise InternalInconsistencyError(f"Ehrhart constant term is {out[0]}, not 1")
    return tuple(out)


def ehrhart_polynomial(M: Matroid):
    """Exact Ehrhart polynomial of P_M via the full vertex-cone pipeline,
    streamed cone by cone."""
    bases = enumerate_bases(M)
    dim = polytope_dimension(M, bases)
    cones = [tangent_cone(M, b) for b in bases]
    pairs = {p for cone in cones for p in cone.pairs}
    lam = generic_lambda(pairs, M.n)
    powers = _pair_powers(pairs, lam, dim)
    return dilation_polynomial((_cone_value(cone, lam, powers) for cone in cones), dim)
