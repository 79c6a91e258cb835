import json
import math

import numpy as np
import pytest

from nimspec import graphs
from nimspec.errors import DataUnavailableError, InvalidParameterError
from nimspec.graphs import FAMILIES, by_id, eigen_moment, eigendata
from nimspec.paths import moment_path_count

from oracles import bfs_trunc_su3a6inf, dict_graph_from, dict_su3_triangle


def _degree(g, i):
    return sum(a for _, a in g.out_edges[i])


def _degrees(g):
    return [_degree(g, i) for i in range(g.n_vertices)]


def test_a3_is_path_with_sqrt2_radius():
    g = by_id("A(3)")
    assert g.n_vertices == 3
    assert g.distinguished == 0
    assert abs(g.spectral_radius() - math.sqrt(2)) < 1e-12


def test_e6_shape():
    g = by_id("E(6)")
    assert sorted(_degrees(g)) == [1, 1, 1, 2, 2, 3]
    assert g.coxeter_h == 12


def test_d4_star_shape():
    g = by_id("D(4)")
    assert sorted(_degrees(g)) == [1, 1, 1, 3]
    assert _degree(g, g.distinguished) == 1


@pytest.mark.parametrize("gid", ["A(0)", "D(3)", "E(5)", "Tad(0)"])
def test_su2_range_errors(gid):
    with pytest.raises(InvalidParameterError):
        by_id(gid)


def test_affine_cycle_and_mckay_shapes():
    c4 = by_id("Aff-A(4)")
    assert c4.n_vertices == 4 and all(d == 2 for d in _degrees(c4))
    e8 = by_id("Aff-E(8)")
    assert e8.n_vertices == 9
    d4 = by_id("Aff-D(4)")
    assert sorted(_degrees(d4)) == [1, 1, 1, 1, 4]
    c5 = by_id("Aff-A(5)")     # odd cycles are in the family too
    assert c5.n_vertices == 5 and all(d == 2 for d in _degrees(c5))


@pytest.mark.parametrize("gid", ["A(5)", "D(6)", "E(7)", "Tad(3)"])
def test_dynkin_radius_below_two(gid):
    assert by_id(gid).spectral_radius() < 2 - 1e-6


@pytest.mark.parametrize("gid", ["Aff-A(6)", "Aff-D(7)", "Aff-E(6)", "Aff-E(7)", "Aff-E(8)"])
def test_affine_radius_exactly_two(gid):
    assert abs(by_id(gid).spectral_radius() - 2.0) < 1e-12


def test_affine_distinguished_degree():
    # extended vertex has degree 1 except on cycles where it has degree 2
    for gid in ["Aff-D(5)", "Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]:
        g = by_id(gid)
        assert _degree(g, g.distinguished) == 1
    g = by_id("Aff-A(6)")
    assert _degree(g, g.distinguished) == 2


def test_dynkin_star_has_lowest_pf_weight():
    for gid in ["A(6)", "D(5)", "D(6)", "E(6)", "E(7)", "E(8)"]:
        g = by_id(gid)
        a = np.array(g.adjacency, dtype=float)
        vals, vecs = np.linalg.eigh(a)
        pf = np.abs(vecs[:, np.argmax(vals)])
        assert pf[g.distinguished] <= pf.min() + 1e-9, gid


def test_truncations():
    t = by_id("Trunc-Ainfinf(6)")
    assert t.n_vertices == 13 and t.vertices[t.distinguished] == 0
    t = by_id("Trunc-SU3A6inf(2)")
    assert t.n_vertices == 19
    t = by_id("Trunc-SU3Ainf(3)")
    assert t.n_vertices == 10
    t = by_id("Trunc-Dinf(4)")
    assert sorted(_degrees(t)) == [1, 1, 1, 2, 2, 3]


def test_hexagonal_truncation_radius_increases_to_three():
    radii = [
        by_id(f"Trunc-SU3A6inf({d})").spectral_radius() for d in (2, 4, 6)
    ]
    assert radii == sorted(radii)
    assert radii[-1] < 3.0 and radii[-1] > 2.8


def test_su3_triangle_graphs():
    g4 = by_id("SU3-A(4)")
    assert g4.n_vertices == 3
    # the fusion triangle at the smallest level is the directed 3-cycle
    assert sorted(sum(row) for row in g4.adjacency) == [1, 1, 1]
    assert not g4.symmetric

    g5 = by_id("SU3-A(5)")
    assert g5.n_vertices == 6
    out_degrees = {sum(row) for row in g5.adjacency}
    assert out_degrees <= {1, 2, 3}
    at = tuple(zip(*g5.adjacency))
    assert at != g5.adjacency

    star8 = by_id("SU3-Astar(8)")
    a3 = by_id("A(3)")
    expect = tuple(
        tuple(a3.adjacency[i][j] + (i == j) for j in range(3)) for i in range(3)
    )
    assert star8.adjacency == expect

    # odd l: no loop at the far end
    assert by_id("SU3-Astar(7)").adjacency == ((1, 1, 0), (1, 1, 1), (0, 1, 0))


def test_su3_astar_spectrum_and_weights_match_the_eigendata():
    """For both parities, the graph's eigenvalues are 1 + 2cos(2 pi j/l) and
    the squared * entries of its eigenvectors are the eigendata weights."""
    for l in range(4, 42):
        g = by_id(f"SU3-Astar({l})")
        values, vectors = np.linalg.eigh(np.array(g.adjacency, dtype=float))
        entries = sorted(eigendata(g.id).entries, key=lambda e: e.eigenvalue.real)
        assert len(entries) == g.n_vertices == (l - 1) // 2
        assert max(abs(v - e.eigenvalue.real) for v, e in zip(values, entries)) < 1e-13, l
        weights = vectors[g.distinguished] ** 2
        assert max(abs(w - e.weight) for w, e in zip(weights, entries)) < 1e-13, l


def test_su3_distinguished_out_degree_one():
    for l in range(4, 9):
        g = by_id(f"SU3-A({l})")
        assert sum(g.adjacency[g.distinguished]) == 1


def test_eigendata_unitarity_and_moments():
    for gid in ["A(5)", "D(4)", "D(7)", "E(6)", "E(7)", "E(8)",
                "SU3-A(5)", "SU3-A(8)", "SU3-Astar(8)"]:
        ed = eigendata(gid)
        assert abs(ed.total_mass() - 1) < 1e-12
    # where adjacency exists, eigen sums must reproduce exact path counts
    # for every order up to m + n = 10
    for gid in ["A(6)", "D(5)", "E(7)", "SU3-A(6)", "SU3-Astar(8)"]:
        ed = eigendata(gid)
        g = by_id(gid)
        for m in range(11):
            for n in (range(11 - m) if not g.symmetric else [0]):
                em = eigen_moment(ed, m, n)
                assert abs(em - moment_path_count(g, m, n)) < 1e-9, (gid, m, n)


def test_eigendata_su2_eigenvalues_are_coxeter_cosines():
    for gid in ["A(5)", "D(6)", "E(6)", "E(7)", "E(8)"]:
        g = by_id(gid)
        ed = eigendata(gid)
        spectrum = sorted(np.linalg.eigvalsh(np.array(g.adjacency, dtype=float)))
        listed = sorted(
            e.eigenvalue.real for e in ed.entries for _ in range(e.multiplicity)
        )
        assert max(abs(a - b) for a, b in zip(spectrum, listed)) < 1e-12


def test_e6_eigendata_weights():
    w = {e.exponent: e.weight for e in eigendata("E(6)").entries}
    assert abs(w[1] - (3 - math.sqrt(3)) / 24) < 1e-15
    assert abs(w[4] - 0.25) < 1e-15


def test_exceptional_eigendata_tables():
    ed = eigendata("SU3-E(8)")
    w = {tuple(e.exponent): e.weight for e in ed.entries}
    assert abs(w[(0, 0)] - (2 - math.sqrt(2)) / 24) < 1e-15
    assert abs(w[(5, 0)] - w[(0, 5)]) < 1e-15
    ed12 = eigendata("SU3-E1(12)")
    copies12 = {tuple(e.exponent): (e.multiplicity, e.weight) for e in ed12.entries}
    for lam in [(2, 2), (5, 2), (2, 5)]:
        copies, weight = copies12[lam]
        assert copies == 2 and abs(weight - 1 / 9) < 1e-15
        assert abs(copies * weight - 2 / 9) < 1e-15


_BUILT_EIGEN_IDS = ([f"A({n})" for n in range(1, 13)] + [f"D({n})" for n in range(4, 13)]
                    + ["E(6)", "E(7)", "E(8)"] + [f"SU3-A({l})" for l in range(4, 10)]
                    + [f"SU3-Astar({l})" for l in range(4, 13)])


@pytest.mark.parametrize("gid", _BUILT_EIGEN_IDS)
def test_eigendata_copies_are_the_graphs_spectrum(gid):
    """multiplicity counts copies: they sum to the vertex count, and the
    eigenvalues with their copies give tr(A^k), an exact integer trace."""
    g, ed = by_id(gid), eigendata(gid)
    assert sum(e.multiplicity for e in ed.entries) == g.n_vertices
    a = np.array(g.adjacency, dtype=object)
    power = np.identity(g.n_vertices, dtype=int).astype(object)
    for k in range(7):
        trace = int(np.trace(power))
        listed = sum(e.multiplicity * e.eigenvalue ** k for e in ed.entries)
        assert abs(listed - trace) < 1e-9, (k, listed, trace)
        power = power.dot(a)


@pytest.mark.parametrize("gid", ["SU3-E(8)", "SU3-E1(12)"])
def test_exceptional_tables_count_twelve_copies(gid):
    """Both exceptional graphs have 12 vertices: their tables' copies sum to
    12, and weight per copy times copies sums to 1."""
    entries = eigendata(gid).entries
    assert sum(e.multiplicity for e in entries) == 12
    assert abs(sum(e.multiplicity * e.weight for e in entries) - 1) < 1e-12


def _su2_closed_forms(gid):
    """exponent -> weight per copy, from the closed forms of each family:
    (2/h) sin^2(j pi/h) on A; on D, twice that on the odd exponents, once
    for each copy of the doubled one of even n, and 0 on the even n - 1 of
    odd n; (3 -+ sqrt 3)/24 and 1/4 on E(6)."""
    name, n = graphs.parse_id(gid)
    if name == "E":
        low, high = (3 - math.sqrt(3)) / 24, (3 + math.sqrt(3)) / 24
        return {1: low, 11: low, 4: 0.25, 8: 0.25, 5: high, 7: high}
    h = n + 1 if name == "A" else 2 * n - 2

    def w(j):
        return (2 / h) * math.sin(j * math.pi / h) ** 2

    if name == "A":
        return {j: w(j) for j in range(1, n + 1)}
    forms = {j: 2 * w(j) for j in range(1, h, 2)}
    if n % 2 == 0:
        del forms[n - 1]
        forms[(n - 1, "pm")] = w(n - 1)
    else:
        forms[n - 1] = 0.0
    return forms


@pytest.mark.parametrize("gid", [f"A({n})" for n in range(1, 13)]
                         + [f"D({n})" for n in range(4, 13)] + ["E(6)"])
def test_su2_weights_equal_their_closed_forms(gid):
    got = {e.exponent: e.weight for e in eigendata(gid).entries}
    want = _su2_closed_forms(gid)
    assert got.keys() == want.keys()
    assert max(abs(got[j] - want[j]) for j in want) < 1e-15


def test_eigendata_unavailable():
    with pytest.raises(DataUnavailableError):
        eigendata("SU3-E(24)")


def test_exceptional_tables_are_read_once():
    for gid in ("SU3-E(8)", "SU3-E1(12)", "SU3-E(8)"):
        eigendata(gid)
    with pytest.raises(DataUnavailableError):
        eigendata("SU3-E(24)")
    assert graphs._exceptional_tables.cache_info().misses == 1


def test_graph_json_roundtrip():
    g = by_id("SU3-A(5)")
    blob = json.loads(json.dumps(g.to_json()))
    assert blob["adjacency"] == [list(r) for r in g.adjacency]
    assert blob["distinguished"] == g.distinguished
    assert blob["coxeter_h"] == 5


# The sizes each family is built at below; every family runs through 2..15
# as well, where its domain admits them.
_ORACLE_SIZES = {"Trunc-SU3A6inf": range(1, 21), "SU3-A": range(4, 31),
                 "Trunc-SU3Ainf": range(1, 21)}


def test_every_family_builder_matches_the_dict_oracle(monkeypatch):
    """Each FAMILIES builder gives the graph of the reference builders in
    oracles: arcs counted one at a time in a dict keyed by label, the SU(3)
    triangle found by label-set lookups and the hexagon grown by
    breadth-first search."""
    built = {}
    for name, family in FAMILIES.items():
        for n in sorted({*range(2, 16), *_ORACLE_SIZES.get(name, ())}):
            if family.graph is not None and family.accepts(n):
                built[name, n] = by_id(f"{name}({n})")
    monkeypatch.setattr(graphs, "_graph_from", dict_graph_from)
    monkeypatch.setattr(graphs, "_su3_triangle", dict_su3_triangle)
    for (name, n), g in built.items():
        ref = bfs_trunc_su3a6inf(n) if name == "Trunc-SU3A6inf" else FAMILIES[name].graph(n)
        assert g.family == name
        for field in ("id", "vertices", "out_edges", "distinguished", "coxeter_h", "symmetric",
                      "trunc_depth"):
            assert getattr(g, field) == getattr(ref, field), (name, n, field)


def test_the_su3_rotation_rows_equal_the_label_dict_route():
    """The rotation (l1, l2) -> (size - l1 - l2, l1), found by index
    arithmetic on the triangle's lattice order, against a label lookup."""
    for l in range(4, 41):
        g = by_id(f"SU3-A({l})")
        size = l - 3
        idx = {v: i for i, v in enumerate(g.vertices)}
        want = tuple(((idx[(size - a - b, a)], 1),) for a, b in g.vertices)
        assert graphs._su3_rotation_rows(g) == want, l
