"""Graph catalogue: ADE / affine Dynkin diagrams, truncated infinite graphs,
SU(3) fusion graphs, and closed-form eigendata (exponents, eigenvalues,
squared first-entry weights) for each of them.

Eigendata have one shape: an entry is an exponent, its copies and a weight
per copy.  Every ADE weight comes from one formula (`_su2_eigendata`), and
SU3-A and SU3-D from one pass over the alcove (`_su3_alcove`).

Vertex conventions follow the usual diagram pictures: for A_n the
distinguished vertex * is the endpoint 1, for D_n it is the tail-end vertex n
(the two fork tips are vertices 1 and 2), for E_n it is the degree-1 vertex of
lowest Perron-Frobenius weight, and for every affine diagram it is the
extended vertex (the identity representation of the McKay subgroup).

A graph is built at about the cost of its out-edge rows.  Edge-list graphs
append each arc's target index to its source's list and sort each list once
(``_graph_from``).  The SU(3) triangles and the truncated hexagon are
lattice regions with one run of b per a, so their rows are written in index
order from the runs, with no label lookups (``_su3_lattice``).  ``by_id``
sets the family on the graph it has just built instead of copying it.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from itertools import accumulate, repeat
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import deltoid
from .errors import (DataUnavailableError, FailedIdentityError, InvalidParameterError,
                     require_int)

Exponent = Union[int, tuple, str]


@dataclass(frozen=True)
class Graph:
    """A graph with a distinguished vertex, stored as its sparse out-edge
    rows; the dense adjacency matrix is a view derived from them."""
    id: str
    vertices: tuple
    out_edges: tuple          # row i: the pairs (j, a) for the a > 0 edges i -> j, j ascending
    distinguished: int        # index into vertices
    coxeter_h: Optional[int] = None
    symmetric: bool = True    # False for directed graphs; A^(l)* is an undirected SU(3) graph
    trunc_depth: Optional[int] = None
    family: Optional[str] = None   # the FAMILIES row it was built from; None for McKay graphs

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> tuple:
        """The dense matrix as a tuple of tuples, built from the rows on first read."""
        return _dense(self.out_edges)

    def spectral_radius(self) -> float:
        a = np.array(self.adjacency, dtype=float)
        return float(max(abs(np.linalg.eigvals(a))))

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "vertices": [str(v) for v in self.vertices],
            "adjacency": [list(row) for row in self.adjacency],
            "distinguished": self.distinguished,
            "coxeter_h": self.coxeter_h,
        }


@dataclass(frozen=True)
class EigenEntry:
    """One exponent: `multiplicity` copies of the eigenvalue, each with `weight`
    = |psi_*|^2 of its own eigenvector.  Over a graph's entries the copies sum
    to its vertex count, and weight * multiplicity sums to 1."""
    exponent: Exponent
    eigenvalue: complex
    weight: float             # per copy
    multiplicity: int = 1     # copies


@dataclass(frozen=True)
class EigenData:
    graph_id: str
    entries: tuple

    def total_mass(self) -> float:
        return sum(e.weight * e.multiplicity for e in self.entries)

    def to_json(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "entries": [
                {
                    "exponent": list(e.exponent) if isinstance(e.exponent, tuple) else e.exponent,
                    "eigenvalue": [e.eigenvalue.real, e.eigenvalue.imag],
                    "weight": e.weight,
                    "multiplicity": e.multiplicity,
                }
                for e in self.entries
            ],
        }


def _out_edges(matrix) -> tuple:
    """Sparse rows of a square matrix: row i lists (j, a) for each nonzero
    a = matrix[i][j], in the format of Graph.out_edges."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in matrix)


def _dense(rows: tuple) -> tuple:
    """The square matrix, as a tuple of tuples, whose sparse rows are given."""
    dense = []
    for row in rows:
        full = [0] * len(rows)
        for j, a in row:
            full[j] = a
        dense.append(tuple(full))
    return tuple(dense)


def _row(targets: list) -> tuple:
    """The sorted out-edge row (j, a) of a vertex whose arcs end at the
    vertex indices in targets, a counting the repeats of j."""
    targets.sort()
    if len(set(targets)) == len(targets):
        return tuple(zip(targets, repeat(1)))
    return tuple((j, targets.count(j)) for j in sorted(set(targets)))


def _graph_from(id_, labels, edges, star, h=None, symmetric=True, depth=None, loops=()):
    """Assemble a Graph from an edge list (plus optional loops); each edge
    runs both ways unless symmetric is False.  Each arc appends its target
    index to its source's list, and each list becomes one sorted row."""
    idx = {v: i for i, v in enumerate(labels)}
    targets = [[] for _ in labels]
    for u, v in edges:
        i, j = idx[u], idx[v]
        targets[i].append(j)
        if symmetric:
            targets[j].append(i)
    for u in loops:
        targets[idx[u]].append(idx[u])
    return Graph(
        id=id_,
        vertices=tuple(labels),
        out_edges=tuple(map(_row, targets)),
        distinguished=idx[star],
        coxeter_h=h,
        symmetric=symmetric,
        trunc_depth=depth,
    )


def _su3_lattice(id_: str, spans: list, h: Optional[int] = None,
                 depth: Optional[int] = None) -> Graph:
    """The directed SU(3) fusion graph on the lattice points (a, b) with
    lo <= b <= hi, for the rows (a, lo, hi) of spans (a consecutive and
    ascending), with * = (0, 0).  The vertices are in (a, b) order, so each
    row of spans is one run of indices, and the arcs of (a, b) to
    (a - 1, b + 1), (a, b - 1) and (a + 1, b) that stay inside are already
    in index order: each out-edge row is written in one pass, with no label
    lookups."""
    start = list(accumulate((hi - lo + 1 for _, lo, hi in spans), initial=0))
    labels, rows = [], []
    for r, (a, lo, hi) in enumerate(spans):
        up = spans[r - 1] if r else (a - 1, 1, 0)           # (1, 0): no b fits
        down = spans[r + 1] if r + 1 < len(spans) else (a + 1, 1, 0)
        for i, b in enumerate(range(lo, hi + 1), start[r]):
            row = []
            if up[1] <= b + 1 <= up[2]:
                row.append((start[r - 1] + b + 1 - up[1], 1))
            if b > lo:
                row.append((i - 1, 1))
            if down[1] <= b <= down[2]:
                row.append((start[r + 1] + b - down[1], 1))
            labels.append((a, b))
            rows.append(tuple(row))
    star = -spans[0][0]                 # the row of spans with a = 0
    return Graph(
        id=id_,
        vertices=tuple(labels),
        out_edges=tuple(rows),
        distinguished=start[star] - spans[star][1],
        coxeter_h=h,
        symmetric=False,
        trunc_depth=depth,
    )


# ---------------------------------------------------------------------------
# Graph builders, one per id family; FAMILIES below checks their argument
# ---------------------------------------------------------------------------

def _path_graph(id_: str, n: int, h: Optional[int] = None, loops=(), depth=None) -> Graph:
    """The path 1 - 2 - ... - n with * = 1."""
    edges = [(i, i + 1) for i in range(1, n)]
    return _graph_from(id_, list(range(1, n + 1)), edges, star=1, h=h, depth=depth, loops=loops)


def _dn_graph(n: int) -> Graph:
    labels = list(range(1, n + 1))
    edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]
    return _graph_from(f"D({n})", labels, edges, star=n, h=2 * n - 2)


# E_n for n = 6, 7, 8: its edges, its Coxeter number, and the arm tip that
# the extended vertex 0 of Aff-E(n) attaches to
_E_SHAPES = {
    6: ([(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)], 12, 6),
    7: ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)], 18, 6),
    8: ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)], 30, 1),
}


def _en_graph(n: int) -> Graph:
    edges, h, _ = _E_SHAPES[n]
    return _graph_from(f"E({n})", list(range(1, n + 1)), edges, star=1, h=h)


def _cycle_graph(m: int) -> Graph:
    """m-cycle (McKay graph of the cyclic group Z_m); m = 2 gives a double bond."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    return _graph_from(f"Aff-A({m})", list(range(m)), edges, star=0)


def _affine_dn_graph(n: int) -> Graph:
    labels = [0] + list(range(1, n + 1))
    edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)] + [(0, n - 1)]
    return _graph_from(f"Aff-D({n})", labels, edges, star=0)


def _affine_en_graph(n: int) -> Graph:
    edges, _, attach = _E_SHAPES[n]
    return _graph_from(f"Aff-E({n})", list(range(n + 1)), edges + [(0, attach)], star=0)


def _su3_triangle(id_: str, size: int, h: Optional[int] = None, depth: Optional[int] = None) -> Graph:
    """Directed graph on {(l1,l2) >= 0, l1+l2 <= size} with the fusion edges."""
    return _su3_lattice(id_, [(l1, 0, size - l1) for l1 in range(size + 1)], h=h, depth=depth)


# Truncations of infinite graphs: the finite induced subgraph of radius
# `depth` around *; moments with m+n <= depth agree with the infinite graph.

def _trunc_ainfinf_graph(depth: int) -> Graph:
    labels = list(range(-depth, depth + 1))
    edges = [(i, i + 1) for i in range(-depth, depth)]
    return _graph_from(f"Trunc-Ainfinf({depth})", labels, edges, star=0, depth=depth)


def _trunc_dinf_graph(depth: int) -> Graph:
    labels = [1, 2] + list(range(3, depth + 3))
    edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, depth + 2)]
    return _graph_from(f"Trunc-Dinf({depth})", labels, edges, star=1, depth=depth)


def _trunc_su3a6inf_graph(depth: int) -> Graph:
    """The hexagon max(|a|, |b|, |a + b|) <= depth: the points that the six
    steps (+-1, 0), (0, +-1), +-(1, -1) reach from * in depth steps."""
    spans = [(a, max(-depth, -depth - a), min(depth, depth - a)) for a in range(-depth, depth + 1)]
    return _su3_lattice(f"Trunc-SU3A6inf({depth})", spans, depth=depth)


def _su3_rotation_rows(graph: Graph) -> tuple:
    """The sparse rows of su3_rotation: row v holds (w, 1) for the image w.
    The triangle's vertices are in (l1, l2) order (`_su3_triangle`), so
    (a, b) has index start(a) + b, start(a) = a (2 size + 3 - a) / 2, and
    the image (size - a - b, a) of each vertex is found by that arithmetic."""
    size = graph.vertices[-1][0]        # the last vertex is (size, 0)
    start = [a * (2 * size + 3 - a) // 2 for a in range(size + 1)]
    return tuple(((start[size - a - b] + a, 1),)
                 for a in range(size + 1) for b in range(size + 1 - a))


def su3_rotation(graph: Graph) -> tuple:
    """Order-3 rotation (l1,l2) -> (size-l1-l2, l1) of SU3-A(l) as a
    permutation matrix (tuple of rows)."""
    return _dense(_su3_rotation_rows(graph))


# ---------------------------------------------------------------------------
# Eigendata
# ---------------------------------------------------------------------------

# the E_n exponents, and the vertices P of A_{h-1} that E_n's * lifts to
_E_EXPONENTS = {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17),
                8: (1, 7, 11, 13, 17, 19, 23, 29)}
_E_FUSION_P = {6: (1, 7), 7: (1, 9, 17), 8: (1, 11, 19, 29)}


def _su2_eigendata(h: int, exponents: Sequence[int], p: Sequence[int]) -> list:
    """The eigendata of an ADE graph with Coxeter number h, from its
    exponents (a repeated exponent j is c copies of j, labelled (j, "pm")
    when c = 2) and the vertices P of A_{h-1} that its * lifts to: j gets
    eigenvalue 2 cos(j pi/h) and weight per copy s_1j sum_{i in P} s_ij / c,
    with s_ij = sqrt(2/h) sin(ij pi/h) the eigenvector entries of A_{h-1}."""
    def s(i, j):
        return math.sqrt(2.0 / h) * math.sin(i * j * math.pi / h)

    return [EigenEntry(j if c == 1 else (j, "pm"), complex(2 * math.cos(j * math.pi / h)),
                       s(1, j) * sum(s(i, j) for i in p) / c, c)
            for j, c in Counter(exponents).items()]


def su3_exponent_angles(l: int, lam: tuple) -> tuple:
    """(theta1, theta2) of an SU(3) exponent (l1,l2) at level l-3, exact."""
    l1, l2 = lam
    return (Fraction(l1 + 2 * l2 + 3, 3 * l), Fraction(2 * l1 + l2 + 3, 3 * l))


def su3_psi_star(l: int, lam: tuple) -> float:
    """First (apex) entry of the eigenvector of A^(l) at exponent lam."""
    a, b = lam[0] + 1, lam[1] + 1
    return (2.0 / (l * math.sqrt(3))) * (
        math.sin(2 * a * math.pi / l) + math.sin(2 * b * math.pi / l)
        - math.sin(2 * (a + b) * math.pi / l)
    )


def _su3_alcove(l: int, step: int = 1):
    """Each exponent lam = (l1, l2) of level l - 3 (l1 + l2 <= l - 3), with
    its angles and the sine-product Jacobian J there; step 3 keeps the
    exponents of triality 0 (l1 = l2 mod 3) alone."""
    for l1 in range(l - 2):
        for l2 in range(l1 % step, l - 2 - l1, step):
            lam = (l1, l2)
            t = su3_exponent_angles(l, lam)
            yield lam, t, deltoid.jacobian(t, "sine_product")


def _su3_eigendata_a(l: int) -> list:
    out = []
    for lam, t, jv in _su3_alcove(l):
        psi = su3_psi_star(l, lam)
        jpsi = -jv / (2 * math.sqrt(3) * math.pi ** 2 * l)
        if abs(psi - jpsi) > 1e-12:
            raise FailedIdentityError(f"eigenvector/Jacobian mismatch at {lam}: {psi} vs {jpsi}")
        out.append(EigenEntry(lam, deltoid.phi(t), jv * jv / (12 * math.pi ** 4 * l * l), 1))
    return out


def _su3_eigendata_d(n: int) -> list:
    k = n // 3
    out, total = [], 0.0
    for lam, t, jv in _su3_alcove(n, step=3):
        if lam != (k - 1, k - 1):
            w = jv * jv / (4 * math.pi ** 4 * n * n)
            total += w
            out.append(EigenEntry(lam, deltoid.phi(t), w, 1))
    # the triple exponent (k-1,k-1) sits at eigenvalue 0, so only the sum of
    # its three weights is determined; unitarity fixes it
    out.append(EigenEntry((k - 1, k - 1), complex(0.0), (1.0 - total) / 3.0, 3))
    return out


def _su3_eigendata_astar(l: int) -> list:
    return [EigenEntry((j, j), complex(2 * math.cos(2 * math.pi * (j + 1) / l) + 1),
                       (4.0 / l) * math.sin(2 * math.pi * (j + 1) / l) ** 2, 1)
            for j in range((l - 3) // 2 + 1)]


@lru_cache(maxsize=None)
def _exceptional_tables() -> dict:
    """graph id -> eigendata entries of data/su3_exceptional.json, read once."""
    ref = resources.files("nimspec").joinpath("data/su3_exceptional.json")
    return {
        graph_id: tuple(
            EigenEntry(
                tuple(e["exponent"]) if isinstance(e["exponent"], list) else e["exponent"],
                complex(e["eigenvalue"][0], e["eigenvalue"][1]),
                e["weight"],
                e["multiplicity"],
            )
            for e in table["entries"]
        )
        for graph_id, table in json.loads(ref.read_text()).items()
    }


def _exceptional_eigendata(graph_id: str) -> tuple:
    entries = _exceptional_tables().get(graph_id)
    if entries is None:
        raise DataUnavailableError(f"no eigendata table for {graph_id}")
    return entries


# ---------------------------------------------------------------------------
# The id families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One id family: the ids 'name(n)' for the n that `accepts` admits."""
    name: str
    domain: str                           # `accepts` in words, for errors and docs
    accepts: Callable[[int], bool]
    graph: Optional[Callable[[int], Graph]]   # None: eigendata only, no adjacency here
    eigen: Optional[Callable[[int], Sequence[EigenEntry]]] = None   # None: no eigendata

    def check(self, n: int) -> None:
        if not self.accepts(n):
            raise InvalidParameterError(f"{self.name}(n) needs {self.domain}, got n = {n}")


FAMILIES: Dict[str, Family] = {f.name: f for f in (
    Family("A", "n >= 1", lambda n: n >= 1,
           lambda n: _path_graph(f"A({n})", n, h=n + 1),
           lambda n: _su2_eigendata(n + 1, range(1, n + 1), (1,))),
    # D(n)'s exponents are the odd j < h = 2n - 2 and n - 1, which is odd
    # (so doubled) for even n; * lifts to both ends of A_{h-1}
    Family("D", "n >= 4", lambda n: n >= 4, _dn_graph,
           lambda n: _su2_eigendata(2 * n - 2, [*range(1, 2 * n - 2, 2), n - 1], (1, 2 * n - 3))),
    Family("E", "n in {6, 7, 8}", lambda n: n in (6, 7, 8), _en_graph,
           lambda n: _su2_eigendata(_E_SHAPES[n][1], _E_EXPONENTS[n], _E_FUSION_P[n])),
    Family("Tad", "n >= 1", lambda n: n >= 1,
           lambda n: _path_graph(f"Tad({n})", n, h=2 * n + 1, loops=(n,))),
    Family("Aff-A", "n >= 2", lambda n: n >= 2, _cycle_graph),
    Family("Aff-D", "n >= 4", lambda n: n >= 4, _affine_dn_graph),
    Family("Aff-E", "n in {6, 7, 8}", lambda n: n in (6, 7, 8), _affine_en_graph),
    Family("SU3-A", "n >= 4", lambda n: n >= 4,
           lambda l: _su3_triangle(f"SU3-A({l})", l - 3, h=l), _su3_eigendata_a),
    # A^(l)*: the path on (l - 1) // 2 vertices with a loop at each of the
    # first l // 2 - 1, so at the far end too for even l only
    Family("SU3-Astar", "n >= 4", lambda n: n >= 4,
           lambda l: _path_graph(f"SU3-Astar({l})", (l - 1) // 2, h=l, loops=range(1, l // 2)),
           _su3_eigendata_astar),
    Family("SU3-D", "n = 3k, k >= 2", lambda n: n >= 6 and n % 3 == 0,
           None, _su3_eigendata_d),
    Family("SU3-E", "n in {8, 24} (eigendata for n = 8 only)", lambda n: n in (8, 24),
           None, lambda l: _exceptional_eigendata(f"SU3-E({l})")),
    Family("SU3-E1", "n = 12", lambda n: n == 12,
           None, lambda l: _exceptional_eigendata(f"SU3-E1({l})")),
    Family("Trunc-Ainf", "n >= 1", lambda n: n >= 1,
           lambda d: _path_graph(f"Trunc-Ainf({d})", d + 1, depth=d)),
    Family("Trunc-Ainfinf", "n >= 1", lambda n: n >= 1, _trunc_ainfinf_graph),
    Family("Trunc-Dinf", "n >= 1", lambda n: n >= 1, _trunc_dinf_graph),
    Family("Trunc-SU3Ainf", "n >= 1", lambda n: n >= 1,
           lambda d: _su3_triangle(f"Trunc-SU3Ainf({d})", d, depth=d)),
    Family("Trunc-SU3A6inf", "n >= 1", lambda n: n >= 1, _trunc_su3a6inf_graph),
)}


def _is_su3(family: Optional[str]) -> bool:
    """Whether a graph's family is an SU(3) one (SU3-A, SU3-Astar, SU3-D, ...)."""
    return (family or "").startswith("SU3-")


def parse_id(graph_id: str, check: bool = True) -> Tuple[str, int]:
    """Split an id like 'Aff-E(7)' into its family and argument, ('Aff-E', 7),
    and check the argument against the family's row of FAMILIES.  With
    check=False the text is only split, for ids outside the graph catalogue
    such as the group ids 'BD(8)'."""
    m = re.fullmatch(r"([A-Za-z0-9\-]+?)\((-?\d+)\)", graph_id)
    if not m:
        raise InvalidParameterError(f"cannot parse id {graph_id!r}")
    name, n = m.group(1), int(m.group(2))
    if check:
        if name not in FAMILIES:
            raise InvalidParameterError(f"unknown graph family {name!r} in {graph_id!r}")
        FAMILIES[name].check(n)
    return name, n


def _build(name: str, n: int) -> Graph:
    family = FAMILIES[name]
    family.check(n)
    if family.graph is None:
        raise DataUnavailableError(f"{name}({n}) has no adjacency figure here")
    graph = family.graph(n)
    object.__setattr__(graph, "family", name)     # the new graph is not yet shared: no copy
    return graph


def by_id(graph_id: str) -> Graph:
    """Build the graph named by an id like 'A(5)', 'Aff-E(7)', 'SU3-A(6)',
    'Trunc-Ainfinf(8)'; FAMILIES lists the families and their domains."""
    return _build(*parse_id(graph_id))


def eigendata(graph_id: str) -> EigenData:
    """Closed-form (exponent, eigenvalue, |psi_*|^2 per copy, copies) data."""
    name, n = parse_id(graph_id)
    eigen = FAMILIES[name].eigen
    if eigen is None:
        raise DataUnavailableError(f"no tabulated eigendata for {graph_id}")
    ed = EigenData(graph_id, tuple(eigen(n)))
    mass = ed.total_mass()
    if abs(mass - 1.0) > 1e-12:
        raise FailedIdentityError(f"eigendata for {graph_id} has mass {mass}")
    return ed


def eigen_moment(ed: EigenData, m: int, n: int = 0) -> complex:
    """Sum over exponents of copies * weight * beta^m * conj(beta)^n."""
    m, n = require_int("a moment order", m, 0), require_int("a moment order", n, 0)
    return sum(
        e.multiplicity * e.weight * e.eigenvalue ** m * e.eigenvalue.conjugate() ** n
        for e in ed.entries
    )
