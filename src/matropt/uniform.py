"""Closed-form Ehrhart and h* machinery for uniform matroid polytopes.

Both closed forms rest on the alternating binomial count
  i(k) = sum_{s=0}^{r-1} (-1)^s C(n,s) C(k(r-s) - s + n - 1, n - 1)
of the lattice points of k P(U^{r,n}).  The h*-vector is the series
numerator of i(0), ..., i(n); the Ehrhart polynomial is the same sum
expanded in k.  x -> 1 - x maps P(U^{r,n}) onto P(U^{n-r,n}) and Z^n onto
itself, so both closed forms take the rank min(r, n - r) and sum the
fewer terms.  Everything is plain `int` until the last division by
(n-1)!.  The coefficient tables of (1 + T + ... + T^(r-1))^n, the counts of
n-part compositions with parts below r, serve the uniform lattice count in
`oracles.dilation_lattice_counts`, independent of the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import sub

from .errors import DimensionError, InternalInconsistencyError, check_cap


def bounded_composition_counts(n: int, r: int):
    """Coefficients of (1 + T + ... + T^(r-1))^n as a tuple of ints.

    Entry i counts compositions of i into n parts from {0, ..., r-1}.
    Computed by the sliding-window recurrence over n; symmetric and unimodal
    in i.
    """
    if n < 1 or r < 1:
        raise DimensionError("need n >= 1 and r >= 1")
    table = (1,) * r
    for _ in range(n - 1):
        # Entry i of the next table sums table[i - r + 1 .. i]: a difference
        # of prefix sums, padded with r zeros in front and r - 1 behind.
        prefix = (0,) * r + tuple(accumulate(table + (0,) * (r - 1), initial=0))
        table = tuple(map(sub, prefix[r + 1:], prefix[1:-r]))
    return table


def _count_terms(n: int, r: int):
    """Triples (c, slope, offset) = ((-1)^s C(n,s), r - s, n - 1 - s) for
    s < r, so that i(k) is the sum of c * C(slope * k + offset, n - 1); r is
    first replaced by min(r, n - r), which keeps every i(k).

    Both closed forms start here, so it checks 1 <= r <= n - 1 for them and
    caps their work at (n + 1)^2 (min(r, n - r) + 1) steps: about n^2 for
    each term, and n^2 more for the series numerator or the division."""
    if not 1 <= r <= n - 1:
        raise DimensionError(f"uniform closed forms need 1 <= r <= n-1, got r={r}, n={n}")
    r = min(r, n - r)
    check_cap((n + 1) ** 2 * (r + 1), "closed-form steps")
    return [(-comb(n, s) if s % 2 else comb(n, s), r - s, n - 1 - s) for s in range(r)]


def hstar_uniform(n: int, r: int):
    """h*-vector of the uniform matroid polytope P(U^{r,n}).

    The series numerator of the closed-form counts i(0), ..., i(n): one count
    beyond the dimension n - 1, so `hstar_from_counts` checks that the
    coefficient above the dimension vanishes.  Trailing zeros are trimmed;
    h*_0 = 1 always.
    """
    terms = _count_terms(n, r)
    counts = [
        sum(c * comb(slope * k + offset, n - 1) for c, slope, offset in terms)
        for k in range(n + 1)
    ]
    return hstar_from_counts(counts, n - 1)


def ehrhart_uniform(n: int, r: int):
    """Ehrhart polynomial of P(U^{r,n}), ascending exact coefficients.

    Expands each C(k(r-s) - s + n - 1, n - 1) of the closed-form count as the
    integer product prod_{t=0}^{n-2} (k(r-s) - s + n - 1 - t) over (n-1)!,
    sums the integer numerators, and divides once per coefficient.
    """
    terms = _count_terms(n, r)
    deg = n - 1
    numerators = [0] * (deg + 1)
    for c, slope, offset in terms:
        poly = [c]
        for t in range(deg):
            const = offset - t
            nxt = [0] * (len(poly) + 1)
            for p, cp in enumerate(poly):
                nxt[p] += cp * const
                nxt[p + 1] += cp * slope
            poly = nxt
        for p, cp in enumerate(poly):
            numerators[p] += cp
    fact = factorial(deg)
    coeffs = tuple(Fraction(c, fact) for c in numerators)
    if coeffs[0] != 1:
        raise InternalInconsistencyError("Ehrhart constant term must be 1")
    return coeffs


def hstar_from_counts(counts, dim: int):
    """Ehrhart-series numerator from a table of dilation counts.

    Multiplies the series sum i(k) t^k by (1-t)^(dim+1); coefficients past
    position dim must vanish, otherwise the dimension or the counts are
    wrong.  Trailing zeros are trimmed to match the closed forms.
    """
    if len(counts) < dim + 1:
        raise DimensionError(f"need at least {dim + 1} counts for dimension {dim}")
    signed = [-comb(dim + 1, i) if i % 2 else comb(dim + 1, i) for i in range(dim + 2)]
    out = [sum(c * counts[j - i] for i, c in enumerate(signed[: j + 1]))
           for j in range(len(counts))]
    for j in range(dim + 1, len(counts)):
        if out[j] != 0:
            raise InternalInconsistencyError(
                f"series numerator has a nonzero coefficient at degree {j} > dim={dim}"
            )
    trimmed = out[: dim + 1]
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    return tuple(trimmed)
