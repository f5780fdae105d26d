"""Short rational generating functions for matroid polytope lattice points.

Pipeline: every vertex cone of P_M is cut into unimodular half-open cells
that partition it, the spanning-forest cells of its exchange graph
(`triangulate.tree_cells`), walked once per orbit of the bases under the
matroid's automorphisms, found from the bases alone, and carried to the
other cones of the orbit; each cell contributes one term
z^a / prod(1 - z^b_j), and the vertex sum equals the full lattice-point
generating function.  Evaluating at z = 1 (a removable singularity)
through Todd-polynomial weights yields exact counts and, with the dilation
form z^(a + (k-1)v), the whole Ehrhart polynomial (the exponential
substitution of De Loera, Hemmecke, Tauzer and Yoshida, Effective lattice
point counting in rational convex polytopes, J. Symbolic Comput. 2004).

The terms are never built.  A cone arrives as exchange pairs (i, j) and a
cell as generator indices, and lam = (0, 1, ..., n - 1) is generic for
every cone: <lam, e_j - e_i> = j - i is never zero and needs no dot
product.  The even powers of each such value are taken once per matroid.
Each cell's value is a polynomial in k read off one integer exponential of
a power series, with the dilation shift folded into its x^1 weight; a cone
sums its cells over one denominator, each cell seeding its exponential
with its share of it.  The walk finds every cell but the first from an
earlier one by swapping one generator, and records the swap, so a cell
takes its power sums and its share from that cell's with one generator
out and one in; only a cone's first cell sums over all its indices.  The
cones are summed, one after the other, over one common denominator.

The fixed work per call is small too.  The dimension and each orbit
representative's cone are a basis's exchange pairs, read once off its
fundamental circuits (`polytope_dimension`, `tangent_cone`), a carried
cone travels as its basis and its pairs, and the coefficients of the Todd
logarithm are integers from the tangent numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, perm, prod
from operator import add, sub

from .errors import InternalInconsistencyError
from .matroid import Matroid, automorphism_generators
from .oracles import enumerate_bases, polytope_dimension
from .triangulate import tangent_cone, tree_cells


# Todd polynomials ---------------------------------------------------------


def _tangent_numbers(m: int):
    """T_1..T_m, tan x = sum_k T_k x^(2k-1) / (2k-1)!, by the integer
    recurrence of Brent and Harvey (Fast computation of Bernoulli, tangent
    and secant numbers, 2013, algorithm TangentNumbers)."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:m + 1]


@cache
def _todd_log(m: int):
    """(A, (alpha_0..alpha_m)) with log(x / (1 - exp(-x))) equal to
    sum_n alpha_n / A * x^n up to x^m, A the least common denominator.

    The series is x/2 - sum_k B_2k / (2k (2k)!) x^(2k), and with
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), T_k the tangent numbers,
    alpha_2k / A = (-1)^k T_k / (4^k (4^k - 1) (2k)!), all in integers."""
    if not m:
        return 1, (0,)
    even = []  # (numerator, denominator) of alpha_2k / A in lowest terms
    for k, t in enumerate(_tangent_numbers(m // 2), 1):
        den = 4**k * (4**k - 1) * factorial(2 * k)
        g = gcd(t, den)
        even.append(((-1) ** k * (t // g), den // g))
    big = lcm(2, *[den for _, den in even])
    alpha = [0, big // 2] + [0] * (m - 1)
    for k, (num, den) in enumerate(even, 1):
        alpha[2 * k] = num * (big // den)
    return big, tuple(alpha)


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


def _exp_gamma(rows, gamma_0: int, beta_1: int, sums):
    """gamma_0..gamma_m for the rows of `_exp_table(m)`, the seed gamma_0,
    beta_1 and the power sums P_k at the even orders k, sums[k // 2] = P_k.
    The recurrence is linear in gamma, so a seed c gives c times the
    exponential's coefficients, the seed 1 the coefficients themselves."""
    g = gamma_0
    gamma = [g]
    for row in rows[1:]:
        g *= beta_1
        for i, j, c in row:
            g += c * sums[i] * gamma[j]
        gamma.append(g)
    return gamma


# Specialization at z = 1 --------------------------------------------------


def _powers(values, order: int):
    """Per value d, d and its even powers up to the given order:
    [d, d^2, d^4, ...]."""
    return {d: [d] + [d ** (2 * k) for k in range(1, order // 2 + 1)] for d in values}


def _cone_value(basis, pairs, cells, powers):
    """The value at z = 1 of the terms of the half-open cells of the vertex
    cone at e_B, B the basis, with the given exchange pairs (triples
    (bits, strict, origin) of generator indices and the swap that found
    the cell, as `tree_cells` gives them), summed, in the k-th dilation:
    (nums, den) with the coefficient of k^m equal to nums[m] / den,
    den > 0.  `powers` holds, per value d = j - i of an exchange pair
    (i, j), d and its even powers up to the order of the cells (`_powers`).

    A cell's term is z^a / prod_j (1 - z^(g_j)) over its generators, a
    being the apex v plus its strict generators, in the k-th dilation
    z^(a + (k-1)v).  For lam = (0, 1, ..., n - 1), with
    d_j = <lam, g_j> = head - tail and X = <lam, a + (k-1)v> = S + kV, V the
    sum of the elements of B, its value is
    (-1)^s / prod_j d_j * [x^s] exp(xX + sum_k alpha_k / A P_k(-d) x^k).
    Splitting off exp(xkV) leaves one integer exponential (`_exp_gamma`)
    with beta_1 = A S - alpha_1 P_1(d), S the sum of d_j over the strict
    generators, and k^m has the numerator +-C(s, m) (A V)^m gamma_(s-m)
    over s! A^s |prod_j d_j|.  The column sums of (d_j, d_j^2, d_j^4, ...)
    over a cell's generator indices give P_1, P_2, P_4, ...  The product
    D of the d_j over all the cone's generators is a common denominator of
    its cells, cell c entering with its share D / prod_(j in c) d_j, the
    seed of its exponential.  A cell found from cells[p] by the swap of
    generator e for f takes both from that cell's: its sums minus row e
    plus row f, and its share times d_e, exactly divided by d_f.  A cell
    with no origin, the cone's first, sums its generators afresh.
    """
    if not pairs:
        return [1], 1  # a point vertex: one lattice point in every dilation
    table = [powers[j - i] for i, j in pairs]
    d = [row[0] for row in table]
    total = prod(d)
    s = len(cells[0][0])
    big, half, rows, binomials, den = _exp_table(s)
    d_at, powers_at = d.__getitem__, table.__getitem__
    found, gammas = [], []
    for bits, strict, origin in cells:
        if origin is None:
            sums = list(map(sum, zip(*map(powers_at, bits))))
            share = total // prod(map(d_at, bits))
        else:
            p, e, f = origin
            sums, share = found[p]
            sums = list(map(add, map(sub, sums, table[e]), table[f]))
            share = share * d[e] // d[f]
        found.append((sums, share))
        gammas.append(_exp_gamma(rows, share, big * sum(map(d_at, strict)) - half * sums[0], sums))
    acc = list(map(sum, zip(*gammas)))
    step = big * sum(basis)
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


def _orbit_cones(M: Matroid, bases):
    """Every vertex cone of P_M, once each, with half-open cells: triples
    (basis, pairs, cells), the cone at e_basis with those exchange pairs,
    `tree_cells` taken once per orbit of the bases under the group that
    `automorphism_generators` reads off them, on every backend.

    An automorphism sigma carries the vertex cone at e_R onto the one at
    e_sigma(R), and exchange pair (i, j) of R onto (sigma(i), sigma(j)).
    `tree_cells` reads only the pair order, never the element labels, so
    R's cells are those of every carried cone: a half-open unimodular
    decomposition of it, for the interior vector sigma(y).  The orbit of
    each representative R, the least basis not yet reached, is searched
    one generator at a time, each reached basis taking the pairs of the
    basis it was reached from, carried; the group itself is never listed.
    Only a representative's pairs are read off its fundamental circuits,
    for its walk.
    """
    gens = automorphism_generators(M.n, bases)
    todo = set(bases)
    for rep in bases:
        if rep not in todo:
            continue
        todo.remove(rep)
        pairs = tangent_cone(M, rep)
        cells = tree_cells(pairs)
        stack = [(rep, pairs)]
        while stack:
            basis, pairs = stack.pop()
            yield basis, pairs, cells
            for g in gens:
                image = tuple(sorted([g[e] for e in basis]))
                if image in todo:
                    todo.remove(image)
                    stack.append((image, tuple([(g[i], g[j]) for i, j in pairs])))


def ehrhart_polynomial(M: Matroid):
    """Exact Ehrhart polynomial of P_M via the full vertex-cone pipeline,
    streamed cone by cone, for lam = (0, 1, ..., n - 1): lam_j - lam_i =
    j - i is nonzero for every exchange pair (i, j)."""
    bases = enumerate_bases(M)
    dim = polytope_dimension(M, bases[0])
    powers = _powers(range(1 - M.n, M.n), dim)
    return dilation_polynomial(
        (_cone_value(*cone, powers) for cone in _orbit_cones(M, bases)), dim)
