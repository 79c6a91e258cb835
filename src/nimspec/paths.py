"""Exact big-integer moment and dimension computations.

Path counts: [Delta^m (Delta^T)^n]_{*,*} = <x_m, x_n>, where
x_k = (Delta^T)^k e_* is the k-step forward walk from the distinguished
vertex.  A single moment, a moment table and the loop series are all read
off one walk over sparse out-edge lists (`moments`).

Alongside are the closed-form combinatorial formulas (binomial/Catalan,
hexagonal and triangular lattice moments, path counts on the SU(3) quadrant
graph, Hecke algebra dimensions).

Everything in this module is integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .errors import FailedIdentityError, InvalidParameterError, TruncationError, require_int
from .graphs import Graph


def _forward_walk(graph: Graph, steps: int) -> List[Dict[int, int]]:
    """x_0 .. x_steps with x_k = (Delta^T)^k e_*: x_k[v] counts the k-step
    paths from * to v.  Vectors are sparse dicts, stepped over sparse
    out-edge lists."""
    out_edges = graph.out_edges
    walk = [{graph.distinguished: 1}]
    for _ in range(steps):
        nxt: Dict[int, int] = {}
        for i, c in walk[-1].items():
            for j, a in out_edges[i]:
                nxt[j] = nxt.get(j, 0) + a * c
        walk.append(nxt)
    return walk


def moments(graph: Graph, pairs: Iterable[Tuple[int, int]]) -> Dict[Tuple[int, int], int]:
    """[Delta^m (Delta^T)^n]_{*,*} for each pair (m, n), as exact integers.

    The entry is <x_m, x_n>, the number of pairs of paths from * of lengths
    m and n with a common endpoint, so every entry is read off one forward
    walk of max(m, n) steps.  Every pair is checked before the walk starts.
    """
    pairs = [(require_int("a moment order", m, 0), require_int("a moment order", n, 0))
             for m, n in pairs]
    for m, n in pairs:
        if graph.trunc_depth is not None and m + n > graph.trunc_depth:
            raise TruncationError(
                f"moment ({m},{n}) exceeds safe depth {graph.trunc_depth} of {graph.id}"
            )
    walk = _forward_walk(graph, max((max(p) for p in pairs), default=0))
    out = {}
    for m, n in pairs:
        xn = walk[n]
        out[(m, n)] = sum(c * xn.get(v, 0) for v, c in walk[m].items())
    return out


def moment_path_count(graph: Graph, m: int, n: int = 0):
    """[Delta^m (Delta^T)^n]_{*,*} as an exact integer.

    Counts pairs of paths from * of lengths m and n meeting at a common
    endpoint (for symmetric graphs this only depends on m+n).
    """
    return moments(graph, [(m, n)])[(m, n)]


def moment_table(graph: Graph, max_m: int, max_n: int = 0) -> Dict[Tuple[int, int], int]:
    """All moments (m, n) with m <= max_m, n <= max_n as a dict: the Gram
    matrix of one forward walk."""
    max_m, max_n = require_int("max_m", max_m, 0), require_int("max_n", max_n, 0)
    return moments(graph, [(m, n) for m in range(max_m + 1) for n in range(max_n + 1)])


def moment_table_csv(table: Dict[Tuple[int, int], int]) -> str:
    lines = ["m,n,value"]
    for (m, n) in sorted(table):
        lines.append(f"{m},{n},{table[(m, n)]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed-form dimension counts
# ---------------------------------------------------------------------------

def combinatorial_dimension(kind: str, k: int):
    """Dimension of the k-th level of the relevant fixed-point path algebra."""
    k = require_int("k", k, 0)
    if kind == "su2_torus":
        return math.comb(2 * k, k)
    if kind == "su2_group":
        return math.comb(2 * k, k) // (k + 1)
    if kind == "su3_torus2":
        return sum(math.comb(2 * j, j) * math.comb(k, j) ** 2 for j in range(k + 1))
    if kind == "su3_group":
        return moment_formula_su3_Ainf(k, k)
    raise InvalidParameterError(f"unknown dimension kind {kind!r}")


def _multinomial(a: int, b: int, c: int) -> int:
    """(a,b,c)! = (a+b+c)!/(a! b! c!), zero if any part is negative."""
    if a < 0 or b < 0 or c < 0:
        return 0
    return math.factorial(a + b + c) // (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
    )


def _multinomial_sum(m: int, r: int, b1: int = 0, b2: int = 0) -> int:
    """sum over k1 + k2 <= m of (k1, k2, m-k1-k2)! times
    (k1+r+b1, k2+r-b2, m+r-b1+b2-k1-k2)!: the double sum of both SU(3)
    lattice closed forms, skipping the terms whose second factor is zero."""
    total = 0
    for k1 in range(m + 1):
        for k2 in range(m + 1 - k1):
            second = _multinomial(k1 + r + b1, k2 + r - b2, m + r - b1 + b2 - k1 - k2)
            if second:
                total += _multinomial(k1, k2, m - k1 - k2) * second
    return total


def moment_formula_su3_A6inf(m: int, n: int):
    """Closed-form moment of the hexagonal-lattice graph: a double sum of
    products of multinomial coefficients; zero unless m = n mod 3."""
    m, n = require_int("a moment order", m, 0), require_int("a moment order", n, 0)
    if (m - n) % 3 != 0:
        return 0
    return _multinomial_sum(m, (n - m) // 3)


@lru_cache(maxsize=None)
def _gamma_coefficients() -> Dict[Tuple[int, int], int]:
    """Coefficients of the square of the Laurent polynomial
    w1 w2 + w1 w2^-2 + w1^-2 w2 - w1^-1 w2^-1 - w1^2 w2^-1 - w1^-1 w2^2,
    derived by expansion (never hard-coded)."""
    base = {
        (1, 1): 1,
        (1, -2): 1,
        (-2, 1): 1,
        (-1, -1): -1,
        (2, -1): -1,
        (-1, 2): -1,
    }
    sq: Dict[Tuple[int, int], int] = {}
    for (a1, a2), ca in base.items():
        for (b1, b2), cb in base.items():
            key = (a1 + b1, a2 + b2)
            sq[key] = sq.get(key, 0) + ca * cb
    return {k: v for k, v in sq.items() if v != 0}


def moment_formula_su3_Ainf(m: int, n: int):
    """Closed-form moment of the SU(3) quadrant graph via the J^2-weighted
    uniform measure; the signed sum is asserted divisible by -6."""
    m, n = require_int("a moment order", m, 0), require_int("a moment order", n, 0)
    if (m - n) % 3 != 0:
        return 0
    r = (n - m) // 3
    gamma = _gamma_coefficients()
    signed = 0
    for (a1, a2), g in gamma.items():
        if (a1 - a2) % 3 != 0:
            raise FailedIdentityError("gamma support must have a1 = a2 mod 3")
        b1 = (2 * a1 + a2) // 3
        b2 = (a1 + 2 * a2) // 3
        signed += g * _multinomial_sum(m, r, b1, b2)
    if signed % 6 != 0:
        raise FailedIdentityError(f"signed moment sum {signed} is not divisible by 6")
    value = -signed // 6
    if value < 0:
        raise FailedIdentityError(f"moment ({m},{n}) came out negative: {value}")
    return value


def su3_path_count_formula(n: int, l1: int, l2: int):
    """Number of length-n paths (0,0) -> (l1,l2) on the SU(3) quadrant graph."""
    n, l1, l2 = (require_int(w, v, 0) for w, v in zip(("n", "l1", "l2"), (n, l1, l2)))
    num = (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) * math.factorial(n)
    parts = (n + 2 * l1 + l2 + 6, n - l1 + l2 + 3, n - l1 - 2 * l2)
    den = 1
    for p in parts:
        if p % 3 != 0 or p < 0:
            return 0
        den *= math.factorial(p // 3)
    val = Fraction(num, den)
    if val.denominator != 1:
        raise FailedIdentityError("path count formula produced a non-integer")
    return int(val)


def hecke_dimension(n: int, p1: int, p2: int, method: str = "determinantal"):
    """Dimension of the Hecke algebra irreducible for the <=3-row diagram
    (p1, p2, n-p1-p2); determinantal and multinomial routes agree exactly."""
    n, p1, p2 = (require_int(w, v, 0) for w, v in zip(("n", "p1", "p2"), (n, p1, p2)))
    p3 = n - p1 - p2
    if not (p1 >= p2 >= p3 >= 0):
        raise InvalidParameterError(
            f"({p1},{p2},{p3}) is not a weakly decreasing 3-row shape"
        )
    if method == "determinantal":
        def inv_fact(q):
            return Fraction(0) if q < 0 else Fraction(1, math.factorial(q))

        rows = [
            [inv_fact(p1), inv_fact(p1 + 1), inv_fact(p1 + 2)],
            [inv_fact(p2 - 1), inv_fact(p2), inv_fact(p2 + 1)],
            [inv_fact(p3 - 2), inv_fact(p3 - 1), inv_fact(p3)],
        ]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        val = math.factorial(n) * det
        if val.denominator != 1:
            raise FailedIdentityError("determinantal formula gave a non-integer")
        return int(val)
    if method == "multinomial":
        return (
            _multinomial(p1, p2, p3)
            - _multinomial(p1, p2 + 1, p3 - 1)
            + _multinomial(p1 + 1, p2 + 1, p3 - 2)
            - _multinomial(p1 + 1, p2 - 1, p3)
            + _multinomial(p1 + 2, p2 - 1, p3 - 1)
            - _multinomial(p1 + 2, p2, p3 - 2)
        )
    raise InvalidParameterError(f"unknown method {method!r}")


def hecke_shapes(n: int):
    """All <=3-row shapes (p1, p2) of n with n - p1 <= 2 p2 ordering."""
    n = require_int("n", n, 0)
    return [
        (p1, p2)
        for p1 in range(n + 1)
        for p2 in range(min(p1, n - p1) + 1)
        if p1 >= p2 >= n - p1 - p2 >= 0
    ]
