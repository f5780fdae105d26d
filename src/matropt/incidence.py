"""Square 2-faces of the matroid polytope.

A parallelogram of vertices w1 + {0, e_s - e_t} + {0, e_m - e_l} of P_M is
a square 2-face exactly when one of its two diagonal exchanges is not a
vertex (`classify_square_2face`).
"""

from __future__ import annotations

from .errors import DimensionError
from .matroid import Matroid


SQUARE_2FACE = "square-2-face"
NOT_A_2FACE = "not-a-2-face"


def classify_square_2face(M: Matroid, w1, w2, w3, w4) -> str:
    """Decide whether a parallelogram of vertices is a square 2-face of P_M.

    The quadruple must satisfy w2 = w1 + e_s - e_t, w3 = w1 + e_m - e_l and
    w4 = w1 + (e_s - e_t) + (e_m - e_l) with s, t, m, l as four conditions
    s != m, t != l, s != t, m != l.  It is a square 2-face exactly when at
    least one of the two diagonal exchanges w1 + e_s - e_l, w1 + e_m - e_t
    fails to be a vertex of P_M.
    """
    pts = [tuple(w) for w in (w1, w2, w3, w4)]
    if any(len(p) != M.n for p in pts):
        raise DimensionError("points must have one coordinate per element")
    if any(x not in (0, 1) for p in pts for x in p):
        raise DimensionError("points must be 0/1 incidence vectors")
    for p in pts:
        if not M.is_basis(_support(p)):
            raise DimensionError("all four points must be vertices of the polytope")
    s, t = _single_exchange(pts[0], pts[1])
    m, l = _single_exchange(pts[0], pts[2])
    if s == m or t == l or s == t or m == l:
        raise DimensionError("degenerate exchange pattern")
    expected_w4 = list(pts[0])
    for up, down in ((s, t), (m, l)):
        expected_w4[up] += 1
        expected_w4[down] -= 1
    if tuple(expected_w4) != pts[3]:
        raise DimensionError("w4 must close the parallelogram")
    w5_support = set(_support(pts[0])) - {l} | {s}
    w6_support = set(_support(pts[0])) - {t} | {m}
    if M.is_basis(w5_support) and M.is_basis(w6_support):
        return NOT_A_2FACE
    return SQUARE_2FACE


def _support(vec):
    return [i for i, x in enumerate(vec) if x == 1]


def _single_exchange(a, b):
    """Indices (up, down) with b = a + e_up - e_down; error otherwise."""
    plus = [i for i, (x, y) in enumerate(zip(a, b)) if y - x == 1]
    minus = [i for i, (x, y) in enumerate(zip(a, b)) if y - x == -1]
    if len(plus) != 1 or len(minus) != 1 or sum(y != x for x, y in zip(a, b)) != 2:
        raise DimensionError("points must differ by a single exchange")
    return plus[0], minus[0]
