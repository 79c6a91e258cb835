"""The matrix-recurrence kernel behind the Hilbert series of `nimspec.series`.

Each Hilbert series is H(t) = D(t)^{-1} N(t), solved for all columns or for
one (`_solve`), and each numerator check computes D(t) H(t) (`_multiply`).
A block is n rows of its w solved columns: w = n, or w = 1 for one column.

A solve keeps X_{-deg} .. X_k as one stacked integer array (deg is D's
degree).  Each degree slices the previous deg blocks, gathers the rows that
the sparse rows of D name with one `take` along a plan built once per
solve, and writes one `matmul` with the multipliers straight into the next
block; N_k is added as single entries, cut to the solved column when there
is one.  The array stays int64 under a bound on |entry| that is proven in
Python and checked against the real entries only when it runs out of
headroom; it holds Python ints only if those are too large as well.  The
solve returns the solved blocks with the length of their zero tail: tuple
rows are built by `MatrixSeries.mats` on first read.  The product D(t) H(t)
is the same gather, batched over all degrees.

A solve's setup costs about the size of D's sparse rows: the plan writes
each row's indices and multipliers in one pass over its entries, N_d's
entries are listed once, and the numerator Q is checked against Delta
alone, since Q Delta^T Q^T = (Q Delta Q^T)^T and 1 commutes with Q.

Every solve has one shape.  The degrees up to last = min(N's degree,
order) are solved into an array of deg + last + 1 blocks.  Past last, N_k
= 0 and the recurrence is homogeneous: S_{k+1} = C S_k for the window S_k
of the last deg blocks, and C is invertible, since D's top coefficient is
+-1.  So a series whose window at last is zero has ended, and the solve
stops there.  One whose window is not zero never ends (N = 1 among them,
since S_0 holds H_0 = 1): its array grows once, to deg + order + 1 blocks,
and the homogeneous rest runs as X_{k+j} = T_j S_k.  The transfer blocks
T_0 .. T_{m-1}, an (m n) x (deg n) integer matrix, are the kernel's own
steps run for m degrees on the identity window (`_transfer`).  Each chunk
of m degrees is then one product T S_k written into the array (`_chunks`),
in float64 (BLAS) while reach(T) (max|S_k| + 1) < 2**53, so that every
product and partial sum is an integer that a double holds exactly,
whatever the summation order; once it is not, the solve goes on one
degree at a time, as above.  max|S_k| is a bound proven from the last
chunk, read from the real entries only when it trips.  An int64 product is
no alternative: numpy's integer matmul has no BLAS, and full solves with
forced int64 chunks took 2-4.6 times as long as with float64 ones
(BENCH_25.json, `arith`: Aff-D(11) at order 158 to 2000, the Z12 CY3
series at order 120).

The rule for when to chunk is fixed: m = isqrt(order - last), and only
when order - last >= _CHUNK_FROM = 24 and deg n^2 <= _CHUNK_WIDTH = 1024.
Timed with N = 1 (last = 0) on a 2-core host (BENCH_25.json, `rule`,
forced chunks against forced steps), with deg n^2 <= 800 chunks take
0.60-0.97 of the time at order 24, 0.31-0.53 at order 100, and 0.90-1.26
at order 16; past that width the m wide steps that build T cost more than
the narrow steps of a column solve they save: 1.01-1.34 of the time at
orders 24-36 for SU3-A(8), Aff-A(30) and Aff-A(40).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .errors import FailedIdentityError, InvalidParameterError, SymmetryError, require_int
from .graphs import Graph

_GATHER_ELEMENTS = 1 << 20      # one gather's temporary: at most 8 MB of int64
_INT64_SAFE = 1 << 62           # reach * (bound + 1) below this: every partial sum fits
_FLOAT_EXACT = 1 << 53          # reach * (bound + 1) below this: a float64 product is exact
_CHUNK_FROM = 24                # the fewest homogeneous degrees solved in chunks
_CHUNK_WIDTH = 1 << 10          # the most entries deg * n * n of one transfer block


def _identity_rows(n: int) -> tuple:
    return tuple(((i, 1),) for i in range(n))


def _denominator(graph: Graph, directed: bool) -> list:
    """D(t) = 1 + sum_j c_j M_j t^j as terms (j, c_j, sparse rows of M_j):
    1 - Delta t + t^2, or 1 - Delta t + Delta^T t^2 - t^3 when directed, so
    the last term's rows are the identity's.  Delta's rows are the graph's
    out-edges, and Delta^T's are scattered from them once; no dense matrix
    is built."""
    rows = graph.out_edges
    one = _identity_rows(len(rows))
    if not directed:
        return [(1, -1, rows), (2, 1, one)]
    cols = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, a in row:
            cols[j].append((i, a))
    return [(1, -1, rows), (2, 1, tuple(map(tuple, cols))), (3, -1, one)]


def _check_numerator(q_rows: tuple, delta: tuple, n: int) -> None:
    """Q must be a signed permutation, row i = s_i e_{sigma(i)}, that commutes
    with D(t).  Q Delta == Delta Q is Q Delta Q^T == Delta: each entry
    (i, l, a) of Delta reappears, relabelled through sigma, as (sigma(i),
    sigma(l), s_i s_l a).  That is the whole check: the other coefficients
    are 1 and Delta^T, and Q Delta^T Q^T = (Q Delta Q^T)^T."""
    if (len(q_rows) != n or any(len(row) != 1 or abs(row[0][1]) != 1 for row in q_rows)
            or sorted(row[0][0] for row in q_rows) != list(range(n))):
        raise InvalidParameterError(
            f"the numerator must be an {n}x{n} signed permutation, one entry +-1 per row")
    sigma, sign = zip(*(row[0] for row in q_rows))
    entries = {(i, l, a) for i, row in enumerate(delta) for l, a in row}
    if entries != {(sigma[i], sigma[l], sign[i] * sign[l] * a) for i, l, a in entries}:
        raise SymmetryError("numerator permutation does not commute with "
                            "the t^1 coefficient of the denominator")


def _plan(terms: list, n: int, sign: int) -> Tuple[np.ndarray, list, int]:
    """Row i of sign * sum_j c_j D_j X_{k-j} as a gather from the window of
    blocks X_{k-deg} .., stacked row by row: X_{k-j}'s row l is window row
    (deg - j) * n + l, for deg the largest j.  Returns the (n, width) window
    rows, their multipliers sign * c_j * a, and `reach`, the largest row sum
    of |multiplier|, so that every partial sum is at most reach * max|X|.
    Each row's indices and multipliers are written in one pass over its
    entries; short rows are padded with window row i and multiplier 0."""
    deg = terms[-1][0]
    steps = [((deg - j) * n, sign * c, rows) for j, c, rows in terms]
    idx, mult = [], []
    for i in range(n):
        at, by = [], []
        for base, f, rows in steps:
            for l, a in rows[i]:
                at.append(base + l)
                by.append(f * a)
        idx.append(at)
        mult.append(by)
    width = max(1, max(map(len, idx)))
    for i, (at, by) in enumerate(zip(idx, mult)):
        if len(at) < width:
            at += [i] * (width - len(at))
            by += [0] * (width - len(by))
    return np.array(idx, np.intp), mult, max(sum(map(abs, by)) for by in mult)


def _entries(rows: tuple, column: Optional[int]) -> tuple:
    """The entries of sparse rows as three lists (rows, columns, values), in
    one pass; with a column, only its entries, at column 0 of an n x 1 block.
    Empty when no entry is left."""
    if column is None:
        found = [(i, c, a) for i, row in enumerate(rows) for c, a in row]
    else:
        found = [(i, 0, a) for i, row in enumerate(rows) for c, a in row if c == column]
    return tuple(map(list, zip(*found)))


def _magnitude(block: np.ndarray) -> int:
    """The largest |entry|, negated as a Python int so that -2**63 cannot wrap."""
    return max(int(block.max()), -int(block.min()))


def _stack(mats) -> np.ndarray:
    """Equal-shaped integer matrices as one (count, rows, columns) array:
    int64, or Python ints (dtype object) once an entry is past int64."""
    try:
        blocks = np.array(mats, np.int64)
    except OverflowError:
        blocks = np.array(mats, object)
    except (TypeError, ValueError):
        blocks = None
    if blocks is None or blocks.ndim != 3:
        raise InvalidParameterError("coefficient matrices must be equal-shaped integer matrices")
    return blocks


def _parts(idx: np.ndarray, w: int) -> list:
    """The plan's rows in chunks whose gather holds at most _GATHER_ELEMENTS
    entries of w columns each, as (row slice, window rows) pairs."""
    chunk = max(1, _GATHER_ELEMENTS // (idx.shape[1] * w))
    return [(slice(lo, lo + chunk), idx[lo:lo + chunk]) for lo in range(0, len(idx), chunk)]


def _step(hist: np.ndarray, k: int, deg: int, mult: np.ndarray, parts: list) -> np.ndarray:
    """Write the gathered sum over the window X_{k-deg} .. X_{k-1} into
    block deg + k of hist, row chunk by row chunk, and return that block."""
    _, n, _, w = hist.shape
    window, block = hist[k:k + deg].reshape(deg * n, w), hist[deg + k]
    for rows, at in parts:
        np.matmul(mult[rows], window.take(at, axis=0), out=block[rows])
    return block


def _transfer(idx: np.ndarray, mult: np.ndarray, reach: int, deg: int,
              m: int) -> Optional[Tuple[np.ndarray, int]]:
    """The transfer blocks T_0 .. T_{m-1} of the homogeneous recurrence, as
    one (m n, deg n) int64 array with X_{k+j} = T_j S_k for the window S_k
    of X_{k-deg} .. X_{k-1} stacked as deg n rows, and reach(T), its largest
    row sum of |entry|.  They are the kernel's own steps on the identity
    window.  None when an entry or a row sum could leave int64."""
    n, width = len(idx), deg * len(idx)
    hist = np.zeros((deg + m, n, 1, width), np.int64)
    hist[:deg].reshape(width, width)[:] = np.identity(width, np.int64)
    parts, bound = _parts(idx, width), 1
    for k in range(m):
        if reach * (bound + 1) >= _INT64_SAFE:
            bound = _magnitude(hist[k:k + deg])
            if reach * (bound + 1) >= _INT64_SAFE:
                return None
        _step(hist, k, deg, mult, parts)
        bound *= reach
    t = hist[deg:].reshape(m * n, width)
    size = np.abs(t)                # every entry is below 2**62, so abs cannot wrap
    if int(size.max()) * width >= _INT64_SAFE:
        return None
    return t, int(size.sum(axis=1).max())


def _product(t: np.ndarray, window: np.ndarray) -> np.ndarray:
    """T S in float64 (BLAS) for an int64 window S; the caller has proven
    that every product and partial sum is an integer that a double holds
    exactly."""
    return t @ window.astype(np.float64)


def _chunks(hist: np.ndarray, k: int, deg: int, idx: np.ndarray, mult: np.ndarray,
            reach: int, bound: int) -> Tuple[int, int]:
    """Solve the homogeneous degrees k .. of an int64 history in chunks of
    m = isqrt(remaining degrees): each chunk is one float64 product T @ S_k
    written into the block array, while reach(T) (max|S_k| + 1) < 2**53, so
    that every product and partial sum is an integer that a double holds
    exactly.  Returns the first degree left unsolved (len(hist) - deg when
    every degree is) and a bound on |entry| of its window; the caller steps
    on from there, one degree at a time."""
    _, n, _, w = hist.shape
    m = math.isqrt(len(hist) - deg - k)
    found = _transfer(idx, mult, reach, deg, m)
    if found is None:
        return k, bound
    t, reach_t = found
    t = t.astype(np.float64)
    while k < len(hist) - deg:
        c = min(m, len(hist) - deg - k)
        window = hist[k:k + deg].reshape(deg * n, w)
        if reach_t * (bound + 1) >= _FLOAT_EXACT:
            bound = _magnitude(window)
            if reach_t * (bound + 1) >= _FLOAT_EXACT:
                break
        hist[deg + k:deg + k + c] = _product(t[:c * n], window).reshape(c, n, 1, w)
        k, bound = k + c, reach_t * bound
    return k, bound


def _solve(graph: Graph, directed: bool, order: int,
           numerator: Optional[Tuple[int, tuple]] = None,
           column: Optional[int] = None, nonnegative: bool = False,
           vanish_from: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """H_0 .. H_order of H(t) = D(t)^{-1} N(t), where N(t) = 1 + Q t^h for
    numerator (h, sparse rows of Q) and N(t) = 1 for None:
    H_k = N_k - sum_{j>=1} D_j H_{k-j}.  Q must be a signed permutation that
    commutes with every D_j, so that the series is also N(t) D(t)^{-1}.
    With a column, N_0 and N_h are cut to it and each H_k is an n x 1 block.
    Returns (blocks, tail): H_0 .. H_{s-1} as one (s, n, w) array, and the
    number of zero blocks after them, s + tail = order + 1.

    The degrees 0 .. last = min(N's degree, order) are solved one at a
    time, into an array of deg + last + 1 blocks.  Past last, N_k = 0 and
    the recurrence is homogeneous: S_{k+1} = C S_k for the window S_k of
    H_{k-deg+1} .. H_k, and C is invertible, since D's top coefficient is
    +-1.  So if S_last is zero, every later block is zero and the solve
    stops there.  If it is not, no later window is zero either, as always
    with N = 1, where S_0 holds H_0 = 1.  Then the array grows once, to
    deg + order + 1 blocks, and the homogeneous rest runs in transfer-block
    chunks (`_chunks`) while they pay, then one degree at a time.

    A nonzero block from degree vanish_from on raises at once.  That is
    checked on the degrees up to last, which covers the whole series when
    vanish_from <= N's degree - deg + 1 (h - 1 in `hilbert_su2`): then
    every block of S_last is checked, and every later block is zero if
    they are.  With nonnegative, a negative entry raises once the solve
    ends, so that a failure to vanish is still the error reported."""
    order = require_int("series order", order, 0)
    n = graph.n_vertices
    if column is not None:
        column = require_int("column", column)
        if not 0 <= column < n:
            raise InvalidParameterError(f"column {column} is outside 0..{n - 1}")
    terms = _denominator(graph, directed)
    num = {0: terms[-1][2]}         # N_0 = 1, the rows of D's top coefficient
    if numerator is not None:
        h, q_rows = numerator
        h = require_int("numerator degree h", h, 1)    # t^0 would overwrite N_0 = 1
        _check_numerator(q_rows, graph.out_edges, n)
        num[h] = q_rows
    deg, w = terms[-1][0], n if column is None else 1
    idx, mult, reach = _plan(terms, n, -1)
    dtype = np.int64 if reach < _INT64_SAFE else object
    mult = np.array(mult, dtype).reshape(n, 1, -1)
    last, k = min(max(num), order), 0
    hist = np.zeros((deg + last + 1, n, 1, w), dtype)
    parts = _parts(idx, w)
    # N_d's entries as (rows, columns, values) within the solved columns
    entries = {d: _entries(rows, column) for d, rows in num.items()}
    bound, exact = 0, dtype is np.int64     # bound >= max|X| over the solved blocks
    while k <= order:               # k: the degrees solved so far
        if k == last + 1:
            if not np.count_nonzero(hist[k:k + deg]):   # S_last = 0: the series has ended
                break
            grown = np.zeros((deg + order + 1,) + hist.shape[1:], hist.dtype)
            grown[:len(hist)] = hist
            hist = grown
            if exact and order - last >= _CHUNK_FROM and 0 < deg * n * n <= _CHUNK_WIDTH:
                k, bound = _chunks(hist, k, deg, idx, mult, reach, bound)
                if k > order:
                    break
        # X_k = N_k + sign * sum_j c_j D_j X_{k-j}, written into block deg + k.
        # Each step keeps bound >= max|X| by bound <- reach * bound + 1.  Only
        # when that bound leaves no headroom are the window's real entries
        # read, and only if they leave none either does the array switch to
        # Python ints.
        if exact and reach * (bound + 1) >= _INT64_SAFE:
            bound = _magnitude(hist[k:k + deg])
            if reach * (bound + 1) >= _INT64_SAFE:
                hist, mult, exact = hist.astype(object), mult.astype(object), False
        block = _step(hist, k, deg, mult, parts)
        if entries.get(k):
            i, cols, values = entries[k]
            block[i, 0, cols] += values
        if exact:
            bound = reach * bound + 1
        if vanish_from is not None and k >= vanish_from and np.count_nonzero(block):
            raise FailedIdentityError(
                f"{graph.id}: pre-projective series fails to terminate at degree {k}")
        k += 1
    while not np.count_nonzero(hist[deg + k - 1]):     # H_0 = 1 ends the zero run
        k -= 1
    out = hist[deg:deg + k].reshape(k, n, w)
    if nonnegative and out.min() < 0:
        raise FailedIdentityError(f"{graph.id}: negative Hilbert coefficient")
    return out, order + 1 - k


def _multiply(graph: Graph, directed: bool, series) -> list:
    """The coefficients N_k = H_k + sum_{j>=1} D_j H_{k-j} of D(t) H(t), as
    tuple rows, for a MatrixSeries H of n x n blocks (n x 1 for a column
    series) on the graph's n vertices.

    H_k is zero past the series' solved blocks, so N_k is too from deg
    blocks later on.  The N_k before that are one gather over all degrees,
    in row chunks of at most _GATHER_ELEMENTS entries, with H_k as the
    identity term D_0 = 1 of the plan.  The array is int64 when reach *
    (max|H| + 1) is below 2**62, and holds Python ints otherwise."""
    n = graph.n_vertices
    blocks, tail = series.blocks, series.tail
    shape = (n, n if series.column is None else 1)
    if blocks.shape[1:] != shape:
        raise InvalidParameterError(
            f"{graph.id} needs {shape[0]}x{shape[1]} blocks, "
            f"the series has {blocks.shape[1]}x{blocks.shape[2]}")
    solved, w = len(blocks), shape[1]
    terms = _denominator(graph, directed)
    terms = [(0, 1, terms[-1][2])] + terms      # D_0 = 1, the rows of D's top coefficient
    deg = terms[-1][0]
    count = min(solved + deg, solved + tail)
    idx, mult, reach = _plan(terms, n, 1)
    dtype = np.int64 if reach * (_magnitude(blocks) + 1) < _INT64_SAFE else object
    padded = np.zeros((deg + count, n, w), dtype)
    padded[deg:deg + solved] = blocks
    flat = padded.reshape(-1, w)
    gather = (np.arange(count).reshape(count, 1, 1) * n + idx).reshape(count * n, -1)
    mult = np.tile(np.array(mult, dtype).reshape(n, 1, -1), (count, 1, 1))
    out = np.empty((count * n, 1, w), dtype)
    for rows, at in _parts(gather, w):
        np.matmul(mult[rows], flat.take(at, axis=0), out=out[rows])
    zero = ((0,) * w,) * n
    return ([tuple(map(tuple, m)) for m in out.reshape(count, n, w).tolist()]
            + [zero] * (solved + tail - count))
