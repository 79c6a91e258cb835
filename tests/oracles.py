"""Independent brute-force oracles used to pin expected values.

Nothing here calls the library's closed-form or matrix-power routes: path
counts are DFS enumerations, algebra dimensions come from Gaussian
elimination on explicit path bases, tableau counts from direct recursion,
series composition is Horner's rule on Fractions, and matrix Hilbert series
are dense tuple-of-tuples recurrences.
"""

from __future__ import annotations

from fractions import Fraction


def brute_pair_paths(adjacency, start: int, m: int, n: int) -> int:
    """Number of pairs (m-step path, n-step path) from `start` with a common
    endpoint, edges of the second path taken in the reversed graph."""
    size = len(adjacency)

    def endpoints(steps, transpose):
        counts = {start: 1}
        for _ in range(steps):
            nxt = {}
            for v, c in counts.items():
                for w in range(size):
                    mult = adjacency[w][v] if transpose else adjacency[v][w]
                    if mult:
                        nxt[w] = nxt.get(w, 0) + c * mult
            counts = nxt
        return counts

    fwd = endpoints(m, False)
    rev = endpoints(n, False)   # n forward steps from start, then reversed
    return sum(c * rev.get(v, 0) for v, c in fwd.items())


def horner_compose(outer, inner):
    """outer(inner) truncated at inner's order, by Horner's rule on Fraction
    coefficient lists: acc <- acc * inner + a_k, for k from the top down."""
    order = len(inner) - 1
    acc = [Fraction(0)] * (order + 1)
    for a in reversed(outer):
        nxt = [Fraction(0)] * (order + 1)
        for i, ai in enumerate(acc):
            for j in range(order + 1 - i):
                nxt[i + j] += ai * Fraction(inner[j])
        nxt[0] += Fraction(a)
        acc = nxt
    return acc


def _dense_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _dense_add(a, b, sign=1):
    return tuple(
        tuple(x + sign * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def dense_hilbert(adjacency, order, directed=False, numerator=None):
    """H_0 .. H_order of D(t)^{-1} N(t) by dense matrix products, with
    D(t) = 1 - A t + t^2, or 1 - A t + A^T t^2 - t^3 when directed, and
    N(t) = 1 + Q t^h for numerator (h, Q), N(t) = 1 for None:
    H_k = A H_{k-1} - H_{k-2} (+ Q at k = h), or
    H_k = A H_{k-1} - A^T H_{k-2} + H_{k-3} (+ Q at k = h)."""
    n = len(adjacency)
    adjt = tuple(zip(*adjacency))
    mats = [tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))]
    for k in range(1, order + 1):
        m = _dense_mul(adjacency, mats[k - 1])
        if k >= 2:
            m = _dense_add(m, _dense_mul(adjt, mats[k - 2]) if directed else mats[k - 2],
                           sign=-1)
        if directed and k >= 3:
            m = _dense_add(m, mats[k - 3])
        if numerator is not None and k == numerator[0]:
            m = _dense_add(m, numerator[1])
        mats.append(m)
    return mats


def dfs_path_count(adjacency, start: int, end: int, length: int) -> int:
    """Paths of a given length from start to end by explicit DFS."""
    size = len(adjacency)
    total = 0
    stack = [(start, 0)]
    while stack:
        v, steps = stack.pop()
        if steps == length:
            if v == end:
                total += 1
            continue
        for w in range(size):
            for _ in range(adjacency[v][w]):
                stack.append((w, steps + 1))
    return total


def standard_tableaux(shape) -> int:
    """Number of standard Young tableaux of a partition shape, by the
    branching recursion."""
    shape = tuple(s for s in shape if s > 0)
    if sum(shape) == 0:
        return 1
    total = 0
    for i, row in enumerate(shape):
        if row > 0 and (i == len(shape) - 1 or shape[i + 1] < row):
            smaller = list(shape)
            smaller[i] -= 1
            total += standard_tableaux(smaller)
    return total


def _rank(rows) -> int:
    """Rank of a list of Fraction/int vectors by Gaussian elimination."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_rows = []
    for row in rows:
        for col, prow in pivot_rows:
            if row[col]:
                f = row[col] / prow[col]
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((c for c in range(ncols) if row[c] != 0), None)
        if lead is not None:
            pivot_rows.append((lead, row))
            rank += 1
    return rank


def preprojective_dimensions(edges, n_vertices: int, max_grade: int = 16):
    """Graded dimensions of the pre-projective algebra of an unoriented
    simple graph, by explicit linear algebra on path bases.

    Doubles every edge into a pair of opposite arrows, then quotients the
    path space at each grade by the two-sided ideal generated by the
    sums of 2-loops at each vertex.
    """
    arrows = []              # (source, target, reverse_index)
    for (u, v) in edges:
        i = len(arrows)
        arrows.append([u, v, i + 1])
        arrows.append([v, u, i])

    paths_by_grade = [[()]]  # grade 0: one empty path per vertex handled below
    # enumerate paths as arrow-index tuples
    def extend(path_list):
        out = []
        for p in path_list:
            last_target = arrows[p[-1]][1] if p else None
            for i, (s, t, r) in enumerate(arrows):
                if last_target is None or s == last_target:
                    out.append(p + (i,))
        return out

    # grade-0 space: one idempotent per vertex
    dims = [n_vertices]
    grade_paths = [[] for _ in range(max_grade + 1)]
    grade_paths[1] = [(i,) for i in range(len(arrows))]
    for k in range(2, max_grade + 1):
        grade_paths[k] = extend(grade_paths[k - 1])

    def path_source(p):
        return arrows[p[0]][0]

    def path_target(p):
        return arrows[p[-1]][1]

    total = n_vertices
    dims_out = [n_vertices, len(grade_paths[1])]
    total += len(grade_paths[1])
    for k in range(2, max_grade + 1):
        basis = {p: i for i, p in enumerate(grade_paths[k])}
        if not basis:
            dims_out.append(0)
            continue
        rel_rows = []
        # p * r_i * q with |p| = s, |q| = k - 2 - s
        for s in range(k - 1):
            lefts = grade_paths[s] if s > 0 else [()]
            rights = grade_paths[k - 2 - s] if k - 2 - s > 0 else [()]
            for p in lefts:
                p_end = path_target(p) if p else None
                for vert in range(n_vertices):
                    if p and p_end != vert:
                        continue
                    for q in rights:
                        if q and path_source(q) != vert:
                            continue
                        row = [0] * len(basis)
                        hit = False
                        for i, (src, tgt, rev) in enumerate(arrows):
                            if src != vert:
                                continue
                            loop = (i, rev)
                            full = p + loop + q
                            if full in basis:
                                row[basis[full]] = 1
                                hit = True
                        if hit:
                            rel_rows.append(row)
        dim = len(basis) - (_rank(rel_rows) if rel_rows else 0)
        dims_out.append(dim)
        total += dim
        if dim == 0 and dims_out[-2] == 0:
            break
    return dims_out, total


def su3_quadrant_paths(n: int, target) -> int:
    """Length-n forward paths (0,0) -> target on the SU(3) quadrant graph,
    by DFS (no closed formulas)."""
    moves = ((1, 0), (0, -1), (-1, 1))
    total = 0
    stack = [((0, 0), 0)]
    while stack:
        (l1, l2), steps = stack.pop()
        if steps == n:
            if (l1, l2) == tuple(target):
                total += 1
            continue
        for d1, d2 in moves:
            w = (l1 + d1, l2 + d2)
            if w[0] >= 0 and w[1] >= 0:
                stack.append((w, steps + 1))
    return total
