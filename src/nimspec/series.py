"""Truncated power series (scalar and matrix) with exact rational
coefficients, and the series invariants of the graph catalogue: Hilbert
series of pre-projective and CY3-type path algebras, loop generating
functions, T and Theta series by independent routes, Kostant numerator
extraction, and Molien series of abelian SU(3) subgroups.

The matrix Hilbert series H(t) = D(t)^{-1} N(t) are one recurrence on the
graph's sparse out-edge rows, solved in the private kernel module
`nimspec._recurrence`.  `hilbert_su2`, `hilbert_su3` and `cy3_hilbert` solve
every column by default, into one integer block array: each degree is one
gather of the previous blocks' rows and one matrix product written straight
into the next block.  A bound on |entry| proven in Python keeps every sum
inside int64; the real entries are read only when that bound runs out of
headroom, and the array switches to Python ints only if they are too large
as well.  With `column=j` the same kernel solves only column j, on n x 1
blocks, for the identities that read one column (the CY3 Molien check,
F_id = H_{id,id}, the Kostant numerators).  Every solve stops at its
numerator's degree if the last blocks there are zero, since then every
later block is, and runs to its order otherwise.  The termination check
runs on each block as it is solved, and the sign check once on the solved
blocks.  A `MatrixSeries` holds the block array and the length of
its zero tail; its tuple rows (`mats`) are built only when read, and
`su2_numerator`/`su3_numerator` multiply the array, one batched gather over
all degrees.  `generalized_t`, the independent route to the same series on
affine graphs, sums binomial multiples of the powers of Delta in one
tensordot, and the Molien counts are one bincount over the monomials.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._recurrence import _identity_rows, _multiply, _solve, _stack
from .errors import FailedIdentityError, InvalidParameterError, TruncationError, require_int
from .graphs import Graph, _dense, _graph_from, _is_su3, _su3_rotation_rows, by_id, parse_id

Number = Union[int, Fraction, float, complex]


@dataclass
class TruncatedSeries:
    coeffs: list
    var: str = "q"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(order: int, var: str = "q") -> "TruncatedSeries":
        order = require_int("series order", order, 0)
        return TruncatedSeries([Fraction(0)] * (order + 1), var)

    @staticmethod
    def one(order: int, var: str = "q") -> "TruncatedSeries":
        s = TruncatedSeries.zero(order, var)
        s.coeffs[0] = Fraction(1)
        return s

    @staticmethod
    def from_coeffs(coeffs: Sequence[Number], order: Optional[int] = None,
                    var: str = "q") -> "TruncatedSeries":
        c = list(coeffs)
        if order is not None:
            order = require_int("series order", order, 0)
            c = (c + [0] * (order + 1))[: order + 1]
        return TruncatedSeries(c, var)

    @staticmethod
    def inverse_quadratic(chi: Number, order: int, var: str = "t") -> "TruncatedSeries":
        """1 / (1 - chi t + t^2)."""
        order = require_int("series order", order, 0)
        a = [1, chi]
        for k in range(2, order + 1):
            a.append(chi * a[k - 1] - a[k - 2])
        return TruncatedSeries(a[: order + 1], var)

    # -- arithmetic ----------------------------------------------------------

    def _zip(self, other: "TruncatedSeries"):
        n = min(self.order, other.order)
        return n, self.coeffs, other.coeffs

    def __add__(self, other):
        n, a, b = self._zip(other)
        return TruncatedSeries([a[k] + b[k] for k in range(n + 1)], self.var)

    def __sub__(self, other):
        n, a, b = self._zip(other)
        return TruncatedSeries([a[k] - b[k] for k in range(n + 1)], self.var)

    def __mul__(self, other):
        """Truncated product, or the product with a scalar.

        With rational coefficients a = A / L and b = B / M on both sides, the
        integer convolution A * B is divided once by L * M per coefficient;
        with any float or complex coefficient the convolution runs on the
        coefficients themselves."""
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.var)
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if not (_rational(a) and _rational(b)):
            return TruncatedSeries(_product(a, b), self.var)
        (a, den_a), (b, den_b) = _integer_numerators(a), _integer_numerators(b)
        den = den_a * den_b
        return TruncatedSeries([Fraction(c, den) for c in _product(a, b)], self.var)

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.var)

    def inverse(self) -> "TruncatedSeries":
        """1 / self to the same order; the constant term must be nonzero.

        The recurrence b_0 = 1 / a_0, b_k = -b_0 sum_{j>=1} a_j b_{k-j}, exact
        on int and Fraction coefficients."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise InvalidParameterError("series inverse needs a unit constant term")
        inv0 = Fraction(1, 1) / a0 if isinstance(a0, (int, Fraction)) else 1.0 / a0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = 0
            for j in range(1, k + 1):
                aj = self.coeffs[j] if j < len(self.coeffs) else 0
                acc += aj * out[k - j]
            out.append(-inv0 * acc)
        return TruncatedSeries(out, self.var)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner) to inner's order, exactly; inner needs a zero constant
        term, and both series rational (int or Fraction) coefficients.

        With L and M the lcm of the denominators of self (a_k = A_k / L)
        and of inner (inner = J / M), the result is
        sum_k A_k M^(N-k) J^k / (L M^N) on integer numerators
        (``_compose_numerators``), one division per coefficient.  Terms a_k
        with k above the order vanish and are dropped.
        """
        if inner.coeffs[0] != 0:
            raise InvalidParameterError("composition needs zero constant term")
        outer, den_outer = _integer_numerators(self.coeffs[: inner.order + 1])
        j_coeffs, den_inner = _integer_numerators(inner.coeffs)
        acc = _compose_numerators(outer, j_coeffs, den_inner)
        den = den_outer * den_inner ** max(len(outer) - 1, 0)    # L * M^N
        return TruncatedSeries([Fraction(c, den) for c in acc], inner.var)

    def even_part_sqrt(self) -> "TruncatedSeries":
        """Coefficients of q^{2k} reinterpreted at q^k (asserting odd = 0)."""
        for k in range(1, self.order + 1, 2):
            if self.coeffs[k] != 0:
                raise FailedIdentityError(f"odd coefficient at degree {k} is nonzero")
        return TruncatedSeries(self.coeffs[::2], self.var)

    def substitute_q_squared(self, order: int) -> "TruncatedSeries":
        """self(q^2) to the given order."""
        out = [0] * (order + 1)
        for k, c in enumerate(self.coeffs):
            if 2 * k > order:
                break
            out[2 * k] = c
        return TruncatedSeries(out, self.var)

    def max_difference(self, other: "TruncatedSeries") -> float:
        n = min(self.order, other.order)
        return max(
            abs(complex(self.coeffs[k]) - complex(other.coeffs[k]))
            for k in range(n + 1)
        )

    def to_json(self) -> dict:
        def fmt(c):
            if isinstance(c, Fraction):
                return f"{c.numerator}/{c.denominator}"
            if isinstance(c, int):
                return f"{c}/1"
            return repr(float(c))

        return {"variable": self.var, "order": self.order,
                "coeffs": [fmt(c) for c in self.coeffs]}


def _product(a: list, b: list) -> list:
    """The truncated product of two coefficient lists of equal length,
    summed for each degree in order of the first factor's index and
    skipping zero terms."""
    n = len(a) - 1
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                if i + j > n:
                    break
                out[i + j] += ai * bj
    return out


def _compose_numerators(outer: List[int], inner: List[int], den_inner: int) -> List[int]:
    """sum_k A_k M^(N-k) J^k to J's order, for integers A = outer (N + 1 of
    them), J = inner with J_0 = 0, and M = den_inner.  The powers J^k are
    stepped on J's small integers, and each A_k meets each coefficient of
    J^k once.  J^k starts at degree k, so terms with k above the order
    vanish."""
    order = len(inner) - 1
    n = len(outer) - 1
    j_terms = [(d, c) for d, c in enumerate(inner) if c]
    acc = [0] * (order + 1)
    power = [1] + [0] * order                   # J^k
    for k, a in enumerate(outer[: order + 1]):
        if a:
            a *= den_inner ** (n - k)
            for d in range(k, order + 1):
                if power[d]:
                    acc[d] += a * power[d]
        nxt = [0] * (order + 1)
        for i in range(k, order + 1):
            if power[i]:
                for d, c in j_terms:
                    if i + d > order:
                        break
                    nxt[i + d] += power[i] * c
        power = nxt
    return acc


def _rational(coeffs) -> bool:
    return all(isinstance(c, numbers.Rational) for c in coeffs)


def _integer_numerators(coeffs) -> Tuple[List[int], int]:
    """(A, L) with L the lcm of the coefficients' denominators and
    A_k = c_k * L integers; non-rational coefficients are rejected."""
    for c in coeffs:
        if not isinstance(c, numbers.Rational):
            raise InvalidParameterError(
                f"exact composition needs int or Fraction coefficients, got {c!r}")
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _factor_product(factors: Sequence[Tuple[int, int]], order: int) -> List[int]:
    """The integer coefficients of prod (1 + sign * q^k) to the order: each
    factor is a shift-add, p_i += sign * p_{i-k} from the top down."""
    order = require_int("series order", order, 0)
    p = [1] + [0] * order
    for sign, k in factors:
        k = require_int("factor 1 + sign q^k: k", k, 1)
        for i in range(order, k - 1, -1):
            p[i] += sign * p[i - k]
    return p


def poly_from_factors(factors: Sequence[Tuple[int, int]], order: int) -> TruncatedSeries:
    """Product of (1 + sign * q^k) over (sign, k) pairs with k >= 1, as a series."""
    return TruncatedSeries([Fraction(c) for c in _factor_product(factors, order)])


def rational_series(num: Sequence[Tuple[int, int]], den: Sequence[Tuple[int, int]],
                    order: int) -> TruncatedSeries:
    """N(q) / D(q) for the factor products N and D.  D_0 = 1, so the
    quotient is the integer recurrence R_k = N_k - sum_{j>=1} D_j R_{k-j}."""
    top = _factor_product(num, order)
    d_terms = [(j, c) for j, c in enumerate(_factor_product(den, order)) if j and c]
    out = []
    for k, nk in enumerate(top):
        out.append(nk - sum(c * out[k - j] for j, c in d_terms if j <= k))
    return TruncatedSeries([Fraction(c) for c in out])


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

Matrix = Tuple[Tuple[int, ...], ...]


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_zero(n: int) -> Matrix:
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def mat_scale(c: int, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


class MatrixSeries:
    """H_0 .. H_order as n x n matrices, or as n x 1 blocks when only one
    column was solved; entry(i, j) is H_{i,j} either way.

    The coefficients are `blocks`, one integer array of shape (s, n, w),
    int64 or Python ints (dtype object), followed by `tail` zero blocks.  A
    solve passes its block array and zero tail; a list of matrices is
    stacked, and is then also `mats`."""

    def __init__(self, graph_id: str, mats, var: str = "t",
                 column: Optional[int] = None, tail: int = 0):
        self.graph_id, self.var, self.column, self.tail = graph_id, var, column, tail
        if isinstance(mats, np.ndarray):
            self.blocks = mats
        else:
            self.mats = list(mats)
            self.blocks = _stack(self.mats)

    @cached_property
    def mats(self) -> list:
        """The list of Matrix, index = degree, as tuple rows built on first
        read; the zero tail is one shared block."""
        _, n, w = self.blocks.shape
        zero = ((0,) * w,) * n
        return [tuple(map(tuple, m)) for m in self.blocks.tolist()] + [zero] * self.tail

    @property
    def order(self) -> int:
        return len(self.blocks) + self.tail - 1

    def entry(self, i: int, j: int) -> TruncatedSeries:
        n = self.blocks.shape[1]
        i, j = require_int("row index", i), require_int("column index", j)
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidParameterError(f"entry ({i}, {j}) is outside an {n}x{n} series")
        if self.column is not None and j != self.column:
            raise InvalidParameterError(
                f"column {j} was not solved; this series holds column {self.column} only")
        col = j if self.column is None else 0
        return TruncatedSeries(self.blocks[:, i, col].tolist() + [0] * self.tail, self.var)

    def total_at_one(self) -> int:
        """Sum of all coefficients of all solved entries (requires termination)."""
        return self.blocks.sum(dtype=object)

    def to_json(self) -> dict:
        _, n, w = self.blocks.shape
        out = {
            "graph_id": self.graph_id,
            "variable": self.var,
            "order": self.order,
            "coefficient_matrices": self.blocks.tolist() + [[[0] * w] * n] * self.tail,
        }
        if self.column is not None:
            out["column"] = self.column
        return out


# ---------------------------------------------------------------------------
# SU(2) pre-projective Hilbert series
# ---------------------------------------------------------------------------

def _su2_involution_rows(graph: Graph) -> tuple:
    """The sparse rows of su2_involution: row i holds (sigma(i), 1)."""
    n = graph.n_vertices
    fam = graph.family
    idx = {v: i for i, v in enumerate(graph.vertices)}
    perm = list(range(n))
    if fam == "A":
        for i, v in enumerate(graph.vertices):
            perm[i] = idx[n + 1 - v]
    elif fam == "D" and n % 2 == 1:
        perm[idx[1]], perm[idx[2]] = idx[2], idx[1]
    elif fam == "E" and n == 6:
        swaps = {1: 5, 5: 1, 2: 4, 4: 2, 3: 3, 6: 6}
        for v, w in swaps.items():
            perm[idx[v]] = idx[w]
    return tuple(((j, 1),) for j in perm)


def _check_hilbert_graph(graph: Graph, su3: bool) -> None:
    """Refuse a truncated graph, whose series is not its infinite graph's, and a
    family of the other group; an ad hoc graph has no family and passes."""
    if graph.trunc_depth is not None:
        raise TruncationError(f"{graph.id} is truncated at depth {graph.trunc_depth}; "
                              "a Hilbert series needs the whole graph")
    if graph.family is not None and _is_su3(graph.family) != su3:
        n = 3 if su3 else 2
        raise InvalidParameterError(f"hilbert_su{n}: {graph.id} is in the family "
                                    f"{graph.family}, not an SU({n}) family")


def su2_involution(graph: Graph) -> Matrix:
    """The numerator permutation: the unique nontrivial involution for A_n,
    D_odd and E6; the identity for D_even, E7, E8 and tadpoles."""
    return _dense(_su2_involution_rows(graph))


def hilbert_su2(graph: Graph, order: int = 40,
                column: Optional[int] = None) -> MatrixSeries:
    """Matrix Hilbert series of the pre-projective algebra of an unoriented
    graph: (1 + P t^h)(1 - Delta t + t^2)^{-1} for ADET graphs (a matrix
    polynomial of degree h - 2), (1 - Delta t + t^2)^{-1} otherwise.  With a
    column index, only that column is solved and checked.  A graph of an SU(3)
    family is refused."""
    _check_hilbert_graph(graph, su3=False)
    if not graph.symmetric:
        raise InvalidParameterError("hilbert_su2 needs an unoriented graph")
    adet = graph.family in ("A", "D", "E", "Tad")
    h = graph.coxeter_h
    blocks, tail = _solve(graph, False, order,
                          (h, _su2_involution_rows(graph)) if adet else None, column,
                          nonnegative=True, vanish_from=h - 1 if adet else None)
    return MatrixSeries(graph.id, blocks, column=column, tail=tail)


def su2_numerator(hs: MatrixSeries, graph: Graph) -> List[Matrix]:
    """Coefficients of (1 - Delta t + t^2) * H, for identity checks."""
    return _multiply(graph, False, hs)


# ---------------------------------------------------------------------------
# SU(3) Hilbert series
# ---------------------------------------------------------------------------

def hilbert_su3(graph: Graph, order: Optional[int] = None,
                column: Optional[int] = None) -> MatrixSeries:
    """(1 - P t^h)(1 - Delta t + Delta^T t^2 - t^3)^{-1} for a directed
    SU(3) fusion graph with Coxeter number h, to order 3h by default.  P is
    the family's permutation commuting with Delta: the triangle rotation
    for A^(l) and the identity for A^(l)*.  With a column index, only that
    column is solved and checked.  A graph of any other family is refused."""
    _check_hilbert_graph(graph, su3=True)
    h = graph.coxeter_h
    if h is None:
        raise InvalidParameterError("hilbert_su3 needs the Coxeter number h")
    p_rows = (_su3_rotation_rows(graph) if graph.family == "SU3-A"
              else _identity_rows(graph.n_vertices))
    minus_p = tuple(((j, -a),) for (j, a), in p_rows)   # each row of P holds one entry
    blocks, tail = _solve(graph, True, 3 * h if order is None else order, (h, minus_p),
                          column, nonnegative=True)
    return MatrixSeries(graph.id, blocks, column=column, tail=tail)


def su3_numerator(hs: MatrixSeries, graph: Graph) -> List[Matrix]:
    """Coefficients of (1 - Delta t + Delta^T t^2 - t^3) * H."""
    return _multiply(graph, True, hs)


def cy3_hilbert(mckay: Graph, order: int = 30, column: Optional[int] = None) -> MatrixSeries:
    """(1 - Delta t + Delta^T t^2 - t^3)^{-1} for a subgroup McKay graph, or
    only its column with the given index."""
    blocks, tail = _solve(mckay, True, order, column=column)
    return MatrixSeries(mckay.id, blocks, column=column, tail=tail)


def _weights_mod(weights: Tuple[int, int, int], m: int,
                 least: int = 1) -> Tuple[int, int, int]:
    """The character weights (a, b, c), each reduced mod m, once m is checked
    as a cyclic subgroup order >= least."""
    m = require_int("cyclic subgroup order", m, least)
    try:
        a, b, c = weights
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"weights must be a triple (a, b, c), got {weights!r}") from None
    return tuple(require_int("character weight", w) % m for w in (a, b, c))


def abelian_mckay(m: int, weights: Tuple[int, int, int]) -> Graph:
    """McKay graph of the cyclic subgroup of SU(3) acting by the diagonal
    matrix with character weights (a, b, c); needs a + b + c = 0 mod m."""
    a, b, c = _weights_mod(weights, m, least=2)
    if (a + b + c) % m != 0:
        raise InvalidParameterError("weights must sum to 0 mod m (det = 1)")
    edges = [(k, (k + w) % m) for k in range(m) for w in (a, b, c)]
    return _graph_from(f"McKay-Z{m}{(a, b, c)}", list(range(m)), edges, star=0,
                       symmetric=False)


def molien_abelian(m: int, weights: Tuple[int, int, int], j: int,
                   order: int) -> TruncatedSeries:
    """Molien series of the symmetric algebra of the dual module for the
    cyclic subgroup: coefficient k counts degree-k monomials of character j.

    Exact integer counts, by enumeration of monomial weights: the dual
    module carries the negated weights.
    """
    weights = _weights_mod(weights, m)
    j = require_int("character j", j) % m
    order = require_int("series order", order, 0)
    return TruncatedSeries(_monomial_characters(m, weights, order)[:, j].tolist(), "t")


@lru_cache(maxsize=8)
def _monomial_grid(order: int) -> np.ndarray:
    """Rows k, x, y over every monomial of degree k <= order in three
    variables: x and y are its first two exponents, and k - x - y the third
    (read-only, as it is cached)."""
    k, x, y = grid = np.indices((order + 1,) * 3).reshape(3, -1)
    grid = grid[:, x + y <= k]
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=64)
def _monomial_characters(m: int, weights: Tuple[int, int, int], order: int) -> np.ndarray:
    """counts[k, j]: the degree-k monomials x^a y^b z^c of character j, as
    one bincount over the monomial grid (read-only, as it is cached)."""
    a, b, c = weights
    k, x, y = _monomial_grid(order)
    character = -(a * x + b * y + c * (k - x - y)) % m
    counts = np.bincount(k * m + character, minlength=(order + 1) * m).reshape(order + 1, m)
    counts.flags.writeable = False
    return counts


def molien_abelian_det(m: int, weights: Tuple[int, int, int], j: int,
                       order: int) -> TruncatedSeries:
    """Same series by the determinant form (1/m) sum_g chi_j(g)* /
    det(1 - conj(rho(g)) t), in complex floats; a cross-check route."""
    # No suite reads this yet: it is the tests' reference for molien_abelian.
    a, b, c = _weights_mod(weights, m)
    order = require_int("series order", order, 0)
    coeffs = [0j] * (order + 1)
    for g in range(m):
        eps = [cmath.exp(-2j * math.pi * g * w / m) for w in (a, b, c)]
        den = TruncatedSeries.one(order)
        for e in eps:
            den = den * TruncatedSeries.from_coeffs([1, -e], order)
        inv = den.inverse()
        chi_conj = cmath.exp(-2j * math.pi * g * j / m)
        for k in range(order + 1):
            coeffs[k] += chi_conj * inv.coeffs[k] / m
    out = []
    for cc in coeffs:
        if abs(cc.imag) > 1e-9:
            raise FailedIdentityError("Molien coefficients must be real")
        out.append(cc.real)
    return TruncatedSeries(out, "t")


# ---------------------------------------------------------------------------
# loop series, T series, Theta series
# ---------------------------------------------------------------------------

def loop_series(graph: Graph, order: int) -> TruncatedSeries:
    """f(z) = sum_k [Delta^{2k}]_{*,*} z^k (exact loop counts, from one
    forward walk of 2 * order steps)."""
    from .paths import moments

    order = require_int("series order", order, 0)
    loops = moments(graph, [(2 * k, 0) for k in range(order + 1)])
    return TruncatedSeries([Fraction(loops[(2 * k, 0)]) for k in range(order + 1)], "z")


# family -> (numerator, denominator) factors (sign, k) of 1 + sign q^k at the
# family's argument
_T_FACTORS: Dict[str, Callable[[int], tuple]] = {
    "A": lambda k: ([(-1, k)], [(-1, k + 1)]),
    # as derived from the measure alpha d'_{n-1} (and from loop counts);
    # tables sometimes print this row with the index shifted by one
    "D": lambda k: ([(1, k - 2)], [(1, k - 1)]),
    "E": {6: ([(-1, 6), (-1, 8)], [(-1, 3), (-1, 12)]),
          7: ([(-1, 9), (-1, 12)], [(-1, 4), (-1, 18)]),
          8: ([(-1, 10), (-1, 15), (-1, 18)], [(-1, 5), (-1, 9), (-1, 30)])}.get,
    # 1 + q^m at m = lcm(k, 2)/2: an odd k-cycle has the even closed walks of the 2k-cycle
    "Aff-A": lambda k: ([(1, math.lcm(k, 2) // 2)], [(-1, 1), (-1, math.lcm(k, 2) // 2)]),
    "Aff-D": lambda k: ([(1, k - 1)], [(-1, 2), (-1, k - 2)]),
    "Aff-E": {6: ([(1, 6)], [(-1, 3), (-1, 4)]),
              7: ([(1, 9)], [(-1, 4), (-1, 6)]),
              8: ([(1, 15)], [(-1, 6), (-1, 10)])}.get,
}


def t_closed_form(graph_id: str, order: int) -> TruncatedSeries:
    """The tabulated closed forms of the T series."""
    name, k = parse_id(graph_id)
    if name not in _T_FACTORS:
        raise InvalidParameterError(f"no closed-form T series for {graph_id!r}")
    num, den = _T_FACTORS[name](k)
    return rational_series(num, den, order)


def _over_one_plus_q(order: int) -> TruncatedSeries:
    """1 / (1 + q) = sum_k (-1)^k q^k."""
    return TruncatedSeries([(-1) ** k for k in range(order + 1)])


def _w_substitution(order: int) -> TruncatedSeries:
    """q / (1 + q)^2 = sum_{k>=1} (-1)^(k-1) k q^k."""
    return TruncatedSeries([0] + [(-1) ** (k - 1) * k for k in range(1, order + 1)])


def t_series(graph_id: str, order: int = 40, route: str = "closed_form") -> TruncatedSeries:
    """T series of a graph by one of three routes: the tabulated closed form,
    the circle-moment series of the canonical measure, or composition of the
    loop series with q/(1+q)^2."""
    order = require_int("series order", order, 0)
    if route == "closed_form":
        return t_closed_form(graph_id, order)
    if route == "measure":
        from .measures import canonical_measure, circle_series

        mu = canonical_measure(graph_id)
        g = TruncatedSeries(circle_series(mu, 2 * order), "q")
        g_sqrt = g.even_part_sqrt()          # G(q^{1/2}); odd moments vanish
        num = 2 * g_sqrt - TruncatedSeries.one(order)
        return TruncatedSeries(list(accumulate(num.coeffs)), "q")    # num / (1 - q)
    if route == "f_compose":
        graph = by_id(graph_id)
        f = loop_series(graph, order)
        composed = TruncatedSeries(f.coeffs, "q").compose(_w_substitution(order))
        return composed * _over_one_plus_q(order)
    raise InvalidParameterError(f"unknown T-series route {route!r}")


def theta_series(graph_id: str, order: int = 24, route: str = "measure") -> TruncatedSeries:
    """Theta series: multiplicities of irreducible Temperley-Lieb modules,
    Theta(q) = q + (1 - q) T(q), from T's measure route ("measure") or its
    f_compose route ("f")."""
    routes = {"measure": "measure", "f": "f_compose"}
    order = require_int("series order", order, 0)
    if route not in routes:
        raise InvalidParameterError(f"unknown Theta route {route!r}")
    t = t_series(graph_id, order, routes[route]).coeffs
    coeffs = [c - d for c, d in zip(t, [0] + t)]
    if order >= 1:
        coeffs[1] += 1
    return TruncatedSeries(coeffs, "q")


def generalized_t(graph: Graph, order: int = 24) -> MatrixSeries:
    """The matrix series (1+q)^{-1} ftilde(q/(1+q)^2) evaluated at q = t^2,
    where ftilde(z) = (1 - z^{1/2} Delta)^{-1} is handled in the auxiliary
    variable w = z^{1/2} = t/(1+t^2): the sum over k of
    t^k / (1+t^2)^{k+1} Delta^k, whose t^d coefficient is
    (-1)^m C(k+m, m) at d = k + 2m.

    Coded independently of hilbert_su2; the two must agree entrywise.
    """
    if not graph.symmetric:
        raise InvalidParameterError("generalized T series needs an unoriented graph")
    order = require_int("series order", order, 0)
    n = graph.n_vertices
    coeff = [[(-1) ** ((d - k) // 2) * math.comb((d + k) // 2, k) if (d - k) % 2 == 0 else 0
              for k in range(d + 1)] + [0] * (order - d) for d in range(order + 1)]
    # |Delta^k| <= r^k entrywise, so sum_k |c_dk| r^k bounds every partial sum
    # of the t^d coefficient, and of Delta^d itself (its c_dd = 1): int64 holds
    # every degree before the first whose bound reaches 2**63
    r = max((sum(abs(a) for _, a in row) for row in graph.out_edges), default=0)
    safe = next((d for d, row in enumerate(coeff)
                 if sum(abs(c) * r ** k for k, c in enumerate(row)) >= 2 ** 63), order + 1)
    delta = np.array(graph.adjacency, np.int64 if safe > 1 else object)
    powers = [np.identity(n, np.int64)]
    for k in range(1, order + 1):
        if k == safe:
            delta = delta.astype(object)
        powers.append(powers[-1] @ delta)
    c = np.array(coeff, object)
    blocks = np.tensordot(c[:safe, :safe].astype(np.int64), np.array(powers[:safe]), 1)
    if safe <= order:
        blocks = np.concatenate([blocks.astype(object),
                                 np.tensordot(c[safe:], np.array(powers, object), 1)])
    return MatrixSeries(graph.id, blocks)


def g_composition_route(cd, order: int) -> TruncatedSeries:
    """(1 + t^2)^{-1} G(t / (1 + t^2)) with G the moment generating series of
    a subgroup's class data.

    The raw composition has exponentially large alternating intermediate
    coefficients (character values up to 2 raised to the order), so floats
    lose everything; the character values are rationalized to 40 digits and
    the composition runs in exact arithmetic.

    G's coefficients are held as integer numerators over the one
    denominator n * 10^(40 order), composed with t / (1 + t^2) and
    multiplied by 1 / (1 + t^2) on integers; each coefficient is then one
    correctly rounded int / int division.
    """
    order = require_int("series order", order, 0)
    scale = 10 ** 40
    rows = [(r.size, round(r.chi_rho * scale)) for r in cd.rows]
    # G = sum_r (size_r / n) / (1 - chi_r q) with chi_r = c_r / 10^40, so
    # G_k = sum_r size_r c_r^k 10^(40 (order - k)) / (n 10^(40 order))
    powers = [size for size, _ in rows]
    g = []
    for k in range(order + 1):
        g.append(sum(powers) * scale ** (order - k))
        powers = [p * c for p, (_, c) in zip(powers, rows)]
    inner = [(-1) ** (d // 2) if d % 2 else 0 for d in range(order + 1)]    # t / (1 + t^2)
    composed = _compose_numerators(g, inner, 1)
    # times 1 / (1 + t^2): c_k - c_{k-2} + c_{k-4} - ... = c_k - out_{k-2}
    out = []
    for k, c in enumerate(composed):
        out.append(c - out[k - 2] if k >= 2 else c)
    den = cd.order * scale ** order
    return TruncatedSeries([c / den for c in out], "t")


# ---------------------------------------------------------------------------
# Kostant numerators
# ---------------------------------------------------------------------------

# family -> (a, b) at the family's argument
_KOSTANT_AB: Dict[str, Callable[[int], Tuple[int, int]]] = {
    "A": lambda k: (2, k + 1),
    "D": lambda k: (4, 2 * k - 4),
    "E": {6: (6, 8), 7: (8, 12), 8: (12, 20)}.get,
}

# family -> the affine (McKay) graph of the same subgroup
_KOSTANT_PARTNER: Dict[str, Callable[[int], Graph]] = {
    "A": lambda k: by_id(f"Aff-A({k + 1})"),
    "D": lambda k: by_id(f"Aff-D({k})"),
    "E": lambda k: by_id(f"Aff-E({k})"),
}


def _kostant_row(table: dict, graph_id: str):
    name, k = parse_id(graph_id)
    if name not in table:
        raise InvalidParameterError(f"no Kostant data for {graph_id!r}")
    return table[name](k)


def kostant_parameters(graph_id: str) -> Tuple[int, int]:
    """(a, b) with a + b = h + 2 and a b = 2 |Gamma|."""
    return _kostant_row(_KOSTANT_AB, graph_id)


def kostant_affine_partner(graph_id: str) -> Graph:
    return _kostant_row(_KOSTANT_PARTNER, graph_id)


def kostant_closed_form_check(graph_id: str, order: Optional[int] = None) -> list:
    """For each vertex gamma of the affine partner, multiply the Hilbert
    column H_{gamma, id} by (1 - t^a)(1 - t^b) and assert the product is a
    polynomial of degree <= a + b - 2; returns the numerators z_gamma."""
    a, b = kostant_parameters(graph_id)
    if order is None:
        order = 2 * (a + b)
    elif order < a + b - 1:
        raise InvalidParameterError(
            f"{graph_id}: order {order} is below a + b - 1 = {a + b - 1}, "
            f"so no numerator coefficient would be checked")
    affine = kostant_affine_partner(graph_id)
    star = affine.distinguished
    hs = hilbert_su2(affine, order, column=star)
    denom = poly_from_factors([(-1, a), (-1, b)], order)
    out = []
    for gamma in range(affine.n_vertices):
        col = hs.entry(gamma, star)
        z = col * denom
        for k in range(a + b - 1, order + 1):
            if z.coeffs[k] != 0:
                raise FailedIdentityError(
                    f"{graph_id}: vertex {affine.vertices[gamma]} numerator "
                    f"fails to truncate at degree {k}"
                )
        out.append(TruncatedSeries(z.coeffs[: a + b - 1], "t"))
    return out
