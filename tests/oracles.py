"""Independent brute-force oracles used to pin expected values.

Nothing here calls the library's closed-form or matrix-power routes: path
counts are DFS enumerations, algebra dimensions come from Gaussian
elimination on explicit path bases, tableau counts from direct recursion,
series products, inverses and composition are direct loops on Fraction
coefficient lists, matrix Hilbert series are dense tuple-of-tuples
recurrences whose numerator is checked against every coefficient of the
denominator, finite groups are closed and partitioned one matrix product at
a time, torus moments are summed one atom at a time, the D_l measure and
its J^2 density are built one Fraction atom at a time through the scalar
deltoid routes, the deltoid-density CSV is written one grid point at a time
through the complex discriminant, graphs are assembled one arc at a time in
a dict keyed by label, the truncated hexagon is grown by breadth-first
search, the D_l grid filters all (3l)^2 numerator pairs and Phi on it takes
two complex exponentials per point, the cubic inversion of Phi runs Cardano's
formula one point at a time on Python complex numbers, Molien counts
enumerate monomials one at a time, circle Fourier transforms are nested
closures built node by node from a measure spec, and circle atom dicts are
built and merged eagerly, node by node, from the same spec.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from nimspec import deltoid
from nimspec.errors import InvalidParameterError, SymmetryError
from nimspec.graphs import Graph


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


def fraction_mul(a, b):
    """The truncated product of two coefficient lists by the direct
    convolution loop, coefficient by coefficient in the inputs' own
    arithmetic (Fraction, float or complex)."""
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j in range(0, n + 1 - i):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def fraction_inverse(a):
    """1 / a to len(a) - 1 terms by the direct recurrence
    b_k = -b_0 sum_{j>=1} a_j b_{k-j}, with b_0 = 1 / a_0 a Fraction when
    a_0 is rational."""
    a0 = a[0]
    inv0 = Fraction(1, 1) / a0 if isinstance(a0, (int, Fraction)) else 1.0 / a0
    out = [inv0]
    for k in range(1, len(a)):
        acc = 0
        for j in range(1, k + 1):
            acc += a[j] * out[k - j]
        out.append(-inv0 * acc)
    return out


def quadratic_class_sum(rows, order):
    """sum_r (size_r / n) / (1 - chi_r t + t^2) to the order, for class rows
    (size_r, chi_r) with n = sum size_r and chi_r rational, each term by the
    Fraction recurrence a_k = chi a_{k-1} - a_{k-2}: the closed form of
    (1 + t^2)^{-1} G(t / (1 + t^2)) for G = sum_r (size_r / n) / (1 - chi_r q)."""
    n = sum(size for size, _ in rows)
    out = [Fraction(0)] * (order + 1)
    for size, chi in rows:
        prev, cur = Fraction(0), Fraction(size, n)
        for k in range(order + 1):
            out[k] += cur
            prev, cur = cur, chi * cur - prev
    return out


def fraction_generalized_t(adjacency, order):
    """Coefficient matrices of sum_k w^k (1+t^2)^{-1} A^k with
    w = t / (1+t^2), to the given order: Fraction series per entry, added
    one power of A at a time."""
    n = len(adjacency)
    one_t2 = [Fraction(1), Fraction(0), Fraction(1)] + [Fraction(0)] * order
    prefactor = fraction_inverse(one_t2[: order + 1])
    w = fraction_mul([Fraction(0), Fraction(1)] + [Fraction(0)] * order, prefactor)
    entries = [[[Fraction(0)] * (order + 1) for _ in range(n)] for _ in range(n)]
    power = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    wk = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(order + 1):
        term = fraction_mul(wk, prefactor)
        for i in range(n):
            for j in range(n):
                if power[i][j]:
                    entries[i][j] = [x + power[i][j] * y for x, y in zip(entries[i][j], term)]
        power = _dense_mul(power, adjacency)
        wk = fraction_mul(wk, w)
    return [tuple(tuple(entries[i][j][d] for j in range(n)) for i in range(n))
            for d in range(order + 1)]


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


def all_terms_check_numerator(q_rows, terms, n: int) -> None:
    """The numerator check against every coefficient of D(t): Q must be a
    signed permutation, and each term (j, c, sparse rows of D_j) must keep
    its entry set under the relabelling (i, l, a) -> (sigma(i), sigma(l),
    s_i s_l a)."""
    unsigned = sorted(tuple((c, abs(s)) for c, s in row) for row in q_rows)
    if unsigned != [((j, 1),) for j in range(n)]:
        raise InvalidParameterError(
            f"the numerator must be an {n}x{n} signed permutation, one entry +-1 per row")
    sigma, sign = zip(*(row[0] for row in q_rows))
    for j, _, rows in terms:
        entries = {(i, l, a) for i, row in enumerate(rows) for l, a in row}
        if entries != {(sigma[i], sigma[l], sign[i] * sign[l] * a) for i, l, a in entries}:
            raise SymmetryError(f"numerator permutation does not commute with "
                                f"the t^{j} coefficient of the denominator")


def dense_numerator(adjacency, mats, directed=False):
    """N_0 .. N_order of D(t) H(t) for the matrices H_k (n x n, or the n x 1
    blocks of one column), degree by degree by dense products:
    N_k = H_k - A H_{k-1} + H_{k-2}, or
    N_k = H_k - A H_{k-1} + A^T H_{k-2} - H_{k-3} when directed."""
    n = len(adjacency)
    one = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    terms = [(1, adjacency, -1), (2, tuple(zip(*adjacency)) if directed else one, 1)]
    if directed:
        terms.append((3, one, -1))
    out = []
    for k, m in enumerate(mats):
        for j, d, sign in terms:
            if k >= j:
                m = _dense_add(m, _dense_mul(d, mats[k - j]), sign)
        out.append(m)
    return out


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


def _round_key(g) -> tuple:
    return tuple((round(z.real, 7), round(z.imag, 7)) for z in g.flatten())


def loop_generate_group(gens):
    """Closure of 2x2 complex generators by breadth-first multiplication,
    one product g @ h at a time, elements identified by entrywise
    round(., 7) keys; elements in order of discovery."""
    ident = np.eye(2, dtype=complex)
    elems = {_round_key(ident): ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                prod = g @ h
                k = _round_key(prod)
                if k not in elems:
                    elems[k] = prod
                    new.append(prod)
        frontier = new
    return list(elems.values())


def loop_conjugacy_classes(elements):
    """Conjugation orbits as sorted index lists, in order of their first
    element: every h g h^H keyed one at a time."""
    keys = {_round_key(g): i for i, g in enumerate(elements)}
    seen = set()
    classes = []
    for i, g in enumerate(elements):
        if i in seen:
            continue
        orbit = {keys[_round_key(h @ g @ h.conj().T)] for h in elements}
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def atom_circle_sum(atoms, power):
    """(sum, sum of |term|) of w power(u) over circle atoms {t: w},
    u = e^{2 pi i t}, one atom at a time."""
    total = 0j
    size = 0.0
    for t, w in atoms.items():
        term = complex(w) * power(cmath.exp(2j * math.pi * float(t)))
        total += term
        size += abs(term)
    return total, size


def atom_moment_t2(atoms, m: int, n: int):
    """(sum, sum of |term|) of w Phi^m conj(Phi)^n over torus atoms
    {(t1, t2): w}, Phi = w1 + 1/w2 + w2/w1, one atom at a time."""
    total = 0j
    size = 0.0
    for (t1, t2), w in atoms.items():
        w1 = cmath.exp(2j * math.pi * float(t1))
        w2 = cmath.exp(2j * math.pi * float(t2))
        z = w1 + 1 / w2 + w2 / w1
        term = complex(w) * z ** m * z.conjugate() ** n
        total += term
        size += abs(term)
    return total, size


def loop_monomial_characters(m: int, weights, order: int):
    """counts[k][j]: the degree-k monomials x^a y^b z^c whose character
    -(a w1 + b w2 + c w3) is j mod m, one monomial at a time."""
    w1, w2, w3 = weights
    counts = []
    for k in range(order + 1):
        row = [0] * m
        for x in range(k + 1):
            for y in range(k + 1 - x):
                row[-(w1 * x + w2 * y + w3 * (k - x - y)) % m] += 1
        counts.append(row)
    return counts


def _scalar_polish_root(w: complex, z: complex) -> complex:
    """Newton-polish one root of p(w) = w^3 - z w^2 + zbar w - 1; at a
    boundary double root, move to the zero of p' instead."""
    zb = z.conjugate()

    def p(x):
        return x ** 3 - z * x ** 2 + zb * x - 1

    dp = 3 * w ** 2 - 2 * z * w + zb
    if abs(dp) < 1e-4:
        disc = cmath.sqrt(z * z - 3 * zb)
        for cand in ((z + disc) / 3, (z - disc) / 3):
            if abs(cand - w) < 1e-4 and abs(p(cand)) <= abs(p(w)) + 1e-14:
                return cand
    for _ in range(60):
        f = p(w)
        if abs(f) < 1e-15:
            break
        df = 3 * w ** 2 - 2 * z * w + zb
        if abs(df) < 1e-8:
            break
        w = w - f / df
    return w


def scalar_invert_phi(z: complex, tol: float = 1e-9):
    """The three roots of w^3 - z w^2 + zbar w - 1 by Cardano's formula on
    Python complex numbers, one point at a time: the triple root z/3 at a
    cusp, each other root Newton-polished and checked against tol."""
    zb = z.conjugate()
    d = deltoid.discriminant(z)
    if not (abs(d.imag) < math.sqrt(tol) and d.real >= -math.sqrt(tol)):
        raise ValueError(f"{z} lies outside the deltoid")
    p3 = 27 - 9 * z * zb + 2 * z ** 3 + 3 * math.sqrt(3) * cmath.sqrt(d)
    mag = abs(p3) ** (1 / 3)
    if mag < 1e-7:
        return [z / 3] * 3
    ang = cmath.phase(p3) / 3
    while ang < 0:
        ang += 2 * math.pi / 3
    while ang >= 2 * math.pi / 3:
        ang -= 2 * math.pi / 3
    big_p = mag * cmath.exp(1j * ang)
    c = 2 ** (1 / 3)
    roots = []
    for k in range(3):
        eps = cmath.exp(2j * math.pi * k / 3)
        w = (z + big_p * eps / c + c * eps.conjugate() * (z * z - 3 * zb) / big_p) / 3
        roots.append(_scalar_polish_root(w, z))
    for w in roots:
        if abs(w ** 3 - z * w ** 2 + zb * w - 1) > tol:
            raise ValueError(f"cubic root {w} fails the residual check at z={z}")
    return roots


def scalar_invert_phi_pairs(z: complex, tol: float = 1e-9):
    """Each root w1 of scalar_invert_phi paired with the first conjugated
    root w2 that brings w1 + 1/w2 + w2/w1 closest to z."""
    roots = scalar_invert_phi(z, tol)
    pairs = []
    for w1 in roots:
        best = None
        for w2 in (r.conjugate() for r in roots):
            val = w1 + 1 / w2 + w2 / w1
            if best is None or abs(val - z) < best[0]:
                best = (abs(val - z), w2)
        pairs.append((w1, best[1]))
    return pairs


def dict_graph_from(id_, labels, edges, star, h=None, symmetric=True, depth=None, loops=()):
    """A Graph from an edge list, one arc at a time: each arc adds 1 to the
    dict entry of its target in its source's row, and each row is then
    sorted by target index."""
    idx = {v: i for i, v in enumerate(labels)}
    rows = [{} for _ in labels]
    arcs = [*edges, *((v, u) for u, v in edges if symmetric), *((u, u) for u in loops)]
    for u, v in arcs:
        row, j = rows[idx[u]], idx[v]
        row[j] = row.get(j, 0) + 1
    return Graph(id=id_, vertices=tuple(labels),
                 out_edges=tuple(tuple(sorted(row.items())) for row in rows),
                 distinguished=idx[star], coxeter_h=h, symmetric=symmetric,
                 trunc_depth=depth)


def dict_su3_triangle(id_, size, h=None, depth=None):
    """The SU(3) triangle {(l1, l2) >= 0, l1 + l2 <= size}, with an arc to
    each of (l1 + 1, l2), (l1, l2 - 1), (l1 - 1, l2 + 1) found in the label
    set."""
    labels = sorted((l1, s - l1) for s in range(size + 1) for l1 in range(s + 1))
    inside = set(labels)
    directed = [((l1, l2), tgt) for (l1, l2) in labels
                for tgt in ((l1 + 1, l2), (l1, l2 - 1), (l1 - 1, l2 + 1)) if tgt in inside]
    return dict_graph_from(id_, labels, directed, star=(0, 0), h=h, symmetric=False,
                           depth=depth)


def bfs_trunc_su3a6inf(depth):
    """Trunc-SU3A6inf(depth): the points that a breadth-first search with the
    six lattice steps reaches from (0, 0) in depth rounds, with the three
    forward steps as arcs."""
    verts, frontier = {(0, 0)}, {(0, 0)}
    steps = [(1, 0), (0, -1), (-1, 1), (-1, 0), (0, 1), (1, -1)]
    for _ in range(depth):
        frontier = {(v[0] + s[0], v[1] + s[1]) for v in frontier for s in steps} - verts
        verts |= frontier
    labels = sorted(verts)
    directed = [(v, (v[0] + s[0], v[1] + s[1])) for v in labels
                for s in ((1, 0), (0, -1), (-1, 1)) if (v[0] + s[0], v[1] + s[1]) in verts]
    return dict_graph_from(f"Trunc-SU3A6inf({depth})", labels, directed, star=(0, 0),
                           symmetric=False, depth=depth)


def filtered_dl_numerators(l: int) -> np.ndarray:
    """D_l as numerators over 3l: all (3l)^2 pairs (q1, q2), q1 outer, kept
    where q1 + q2 = 0 mod 3."""
    q1, q2 = np.divmod(np.arange(9 * l * l), 3 * l)
    keep = (q1 + q2) % 3 == 0
    return np.stack([q1[keep], q2[keep]], axis=1)


def dl_atoms(l: int) -> dict:
    """The atoms of d^(l): one weight object 1/(3 l^2) on every point
    (q1/3l, q2/3l) with q1 + q2 = 0 mod 3, q1 outer and q2 inner."""
    pts = [(Fraction(q1, 3 * l), Fraction(q2, 3 * l))
           for q1 in range(3 * l) for q2 in range(3 * l) if (q1 + q2) % 3 == 0]
    w = Fraction(1, len(pts))
    return {p: w for p in pts}


def j2_atoms(atoms) -> dict:
    """{(t1, t2): w} times J^2/(24 pi^4), one deltoid.jacobian call per atom."""
    out = {}
    for (t1, t2), w in atoms.items():
        jv = deltoid.jacobian((t1, t2), "sine_product")
        out[(t1, t2)] = float(w) * jv * jv / (24 * math.pi ** 4)
    return out


def loop_density_csv(n: int) -> str:
    """The `export deltoid-density --grid n` CSV, one grid point at a time:
    the complex discriminant and four reprs per point, NaN outside."""
    rows = ["x,y,abs_J,inv_abs_J"]
    nan = float("nan")
    for i in range(n):
        x = -3.0 + 6.0 * i / (n - 1)
        for j in range(n):
            y = -3.0 + 6.0 * j / (n - 1)
            d = deltoid.discriminant(complex(x, y))
            if d.real < 0 or abs(d.imag) > 1e-9:
                aj = ij = nan
            else:
                aj = 2 * math.pi ** 2 * math.sqrt(max(d.real, 0.0))
                ij = (1.0 / aj) if aj > 1e-12 else nan
            rows.append(f"{x!r},{y!r},{aj!r},{ij!r}")
    return "\n".join(rows) + "\n"


def closure_fourier(spec):
    """r -> integral of u^r of the circle measure make_measure(spec), as
    nested closures built node by node; None where a node has no rational
    transform (a float weight or scale factor, a Dirac atom off 0 and 1/2,
    or a child without one).  Covers the nodes roots, d, dprime, ddprime,
    dirac, alpha, alpha_j, scale and sum."""
    op, args = spec[0], spec[1:]
    if op == "roots":
        n = args[0]
        return lambda r: Fraction(1) if r % n == 0 else Fraction(0)
    if op == "d":
        return closure_fourier(("roots", 2 * args[0]))
    if op == "dprime":
        n = args[0]
        return _closure_sum((Fraction(2), ("d", 2 * n)), (Fraction(-1), ("d", n)))
    if op == "ddprime":
        n = args[0]
        return _closure_sum((Fraction(3, 2), ("dprime", 3 * n)),
                            (Fraction(-1, 2), ("dprime", n)))
    if op == "dirac":
        theta = Fraction(args[0]) % 1
        weight = args[1] if len(args) > 1 else 1
        if theta.denominator not in (1, 2) or not isinstance(weight, (int, Fraction)):
            return None
        wq = Fraction(weight)
        if theta == 0:
            return lambda r: wq
        return lambda r: wq if r % 2 == 0 else -wq
    if op in ("alpha", "alpha_j"):
        j, inner = (1, args[0]) if op == "alpha" else args
        f = closure_fourier(inner)
        if f is None:
            return None
        return lambda r: f(r) - Fraction(1, 2) * (f(r + 2 * j) + f(r - 2 * j))
    if op == "scale":
        return _closure_sum(args)
    if op == "sum":
        return _closure_sum(*[(1, s) for s in args])
    raise ValueError(f"no closure for spec node {op!r}")


def _closure_sum(*terms):
    """sum c * f over (c, spec) terms; None unless every c is an int or a
    Fraction and every spec has a closure."""
    fs = [closure_fourier(spec) for _, spec in terms]
    if any(f is None for f in fs) or not all(isinstance(c, (int, Fraction)) for c, _ in terms):
        return None
    cs = [Fraction(c) for c, _ in terms]
    return lambda r: sum((c * f(r) for c, f in zip(cs, fs)), Fraction(0))


def eager_atoms(spec) -> dict:
    """The atom dict of make_measure(spec), each node's dict built in full
    before its parent's: a sum merges its children's dicts left to right
    (a key keeps its first position), a scale multiplies every weight, and
    an alpha density multiplies each weight by 2 sin(2 pi j theta)^2.  Covers
    the nodes roots, d, dprime, ddprime, dirac, alpha, alpha_j, scale, sum
    and product."""
    op, args = spec[0], spec[1:]
    if op == "roots":
        n = args[0]
        return {Fraction(j, n): Fraction(1, n) for j in range(n)}
    if op == "d":
        return eager_atoms(("roots", 2 * args[0]))
    if op == "dprime":
        n = args[0]
        return _eager_combine((Fraction(2), ("d", 2 * n)), (Fraction(-1), ("d", n)))
    if op == "ddprime":
        n = args[0]
        return _eager_combine((Fraction(3, 2), ("dprime", 3 * n)),
                              (Fraction(-1, 2), ("dprime", n)))
    if op == "dirac":
        return {Fraction(args[0]) % 1: args[1] if len(args) > 1 else 1}
    if op in ("alpha", "alpha_j"):
        j, inner = (1, args[0]) if op == "alpha" else args
        return {t: w * (2 * math.sin(2 * math.pi * j * float(t)) ** 2)
                for t, w in eager_atoms(inner).items()}
    if op == "scale":
        return _eager_combine(args)
    if op == "sum":
        return _eager_combine(*[(1, s) for s in args])
    if op == "product":
        a, b = eager_atoms(args[0]), eager_atoms(args[1])
        return {(t1, t2): w1 * w2 for t1, w1 in a.items() for t2, w2 in b.items()}
    raise ValueError(f"no eager atoms for spec node {op!r}")


def _eager_combine(*terms) -> dict:
    """sum c * atoms over (c, spec) terms, scaled and merged term by term."""
    out: dict = {}
    for i, (c, spec) in enumerate(terms):
        scaled = {k: c * w for k, w in eager_atoms(spec).items()}
        if i == 0:
            out = scaled
            continue
        for k, w in scaled.items():
            out[k] = out.get(k, 0) + w
    return out


def multinomial_moment(fourier, m: int, shift: int):
    """integral of (u + 1/u + shift)^m from the Fourier transform, one
    multinomial term m! / (i! j! k!) shift^k c-hat(i - j) at a time."""
    total = Fraction(0)
    for i in range(m + 1):
        for j in range(m - i + 1):
            k = m - i - j
            coeff = math.factorial(m) // (math.factorial(i) * math.factorial(j)
                                          * math.factorial(k))
            total += coeff * Fraction(shift) ** k * fourier(i - j)
    return total
