import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimspec import _recurrence, graphs
from nimspec.errors import InvalidParameterError, TruncationError
from nimspec.graphs import Graph, by_id
from nimspec.paths import (
    _gamma_coefficients,
    combinatorial_dimension,
    hecke_dimension,
    hecke_shapes,
    moment_formula_su3_A6inf,
    moment_formula_su3_Ainf,
    moment_path_count,
    moment_table,
    moment_table_csv,
    moments,
    su3_path_count_formula,
)
from nimspec.series import loop_series

from oracles import brute_pair_paths, standard_tableaux, su3_quadrant_paths


def test_binomial_and_catalan_moments():
    tr2 = by_id("Trunc-Ainfinf(26)")
    tr1 = by_id("Trunc-Ainf(26)")
    for k in range(13):
        assert moment_path_count(tr2, 2 * k) == math.comb(2 * k, k)
        assert moment_path_count(tr1, 2 * k) == math.comb(2 * k, k) // (k + 1)
        if k:
            assert moment_path_count(tr2, 2 * k - 1) == 0
            assert moment_path_count(tr1, 2 * k - 1) == 0
    assert moment_path_count(tr2, 6) == 20
    assert moment_path_count(tr1, 6) == 5


def test_truncation_guard():
    tr = by_id("Trunc-Ainf(8)")
    with pytest.raises(TruncationError):
        moment_path_count(tr, 9)
    with pytest.raises(TruncationError):
        moment_path_count(tr, 5, 4)
    with pytest.raises(TruncationError):
        moment_table(tr, 4, 5)
    assert len(moment_table(tr, 4, 4)) == 25
    with pytest.raises(TruncationError):
        loop_series(tr, 5)
    assert loop_series(tr, 4).coeffs == [1, 1, 2, 5, 14]


def test_su3_small_pair_path_counts():
    g = by_id("SU3-A(6)")
    assert moment_path_count(g, 2, 2) == 2
    assert moment_path_count(g, 3, 3) == 6
    tr = by_id("Trunc-SU3Ainf(6)")
    assert moment_path_count(tr, 2, 2) == 2
    assert moment_path_count(tr, 3, 3) == 6


def test_path_counts_match_dfs_oracle():
    g = by_id("SU3-A(5)")
    for m in range(4):
        for n in range(4):
            assert moment_path_count(g, m, n) == brute_pair_paths(
                [list(r) for r in g.adjacency], g.distinguished, m, n
            )


def test_combinatorial_dimensions():
    assert combinatorial_dimension("su2_torus", 3) == 20
    assert combinatorial_dimension("su2_group", 3) == 5
    assert combinatorial_dimension("su3_torus2", 2) == 15
    assert combinatorial_dimension("su3_group", 3) == 6
    assert [combinatorial_dimension("su3_torus2", k) for k in range(4)] == [1, 3, 15, 93]


def test_hexagonal_moment_formula():
    assert moment_formula_su3_A6inf(0, 0) == 1
    assert moment_formula_su3_A6inf(1, 1) == 3
    assert moment_formula_su3_A6inf(3, 0) == 6
    assert moment_formula_su3_A6inf(1, 0) == 0
    tr = by_id("Trunc-SU3A6inf(9)")
    for m in range(10):
        for n in range(10 - m):
            assert moment_formula_su3_A6inf(m, n) == moment_path_count(tr, m, n)
    # the diagonal reproduces the torus-invariant dimensions
    for k in range(7):
        assert moment_formula_su3_A6inf(k, k) == combinatorial_dimension("su3_torus2", k)


def test_quadrant_moment_formula():
    assert moment_formula_su3_Ainf(1, 1) == 1
    assert moment_formula_su3_Ainf(3, 3) == 6
    assert moment_formula_su3_Ainf(3, 0) == 1
    assert moment_formula_su3_Ainf(2, 0) == 0
    tr = by_id("Trunc-SU3Ainf(9)")
    for m in range(10):
        for n in range(10 - m):
            assert moment_formula_su3_Ainf(m, n) == moment_path_count(tr, m, n)


def test_upsilon_support_is_within_stated_region():
    ups = _gamma_coefficients().keys()
    assert (0, 0) in ups
    for a1, a2 in ups:
        assert (a1 - a2) % 3 == 0
        assert abs(a1 + a2) <= 4
        assert abs(a1) + abs(a2) <= 6


def test_su3_path_count_formula_examples():
    assert su3_path_count_formula(3, 0, 0) == 1
    assert su3_path_count_formula(2, 0, 1) == 1
    assert su3_path_count_formula(4, 1, 0) == 3
    assert su3_path_count_formula(2, 2, 2) == 0   # wrong colour


@pytest.mark.parametrize("n", range(7))
def test_su3_path_count_formula_vs_dfs(n):
    for l1 in range(n + 1):
        for l2 in range(n + 1 - l1):
            assert su3_path_count_formula(n, l1, l2) == su3_quadrant_paths(n, (l1, l2))


def test_hecke_examples_and_oracle():
    assert hecke_dimension(3, 2, 1) == 2
    assert hecke_dimension(3, 3, 0) == 1
    assert hecke_dimension(4, 2, 1) == 3
    for n in range(1, 8):
        for p1, p2 in hecke_shapes(n):
            shape = tuple(s for s in (p1, p2, n - p1 - p2) if s)
            assert hecke_dimension(n, p1, p2) == standard_tableaux(shape)


def test_hecke_two_routes_agree_exhaustively():
    for n in range(13):
        for p1, p2 in hecke_shapes(n):
            assert hecke_dimension(n, p1, p2, "determinantal") == hecke_dimension(
                n, p1, p2, "multinomial"
            )


def test_hecke_invalid_shape():
    with pytest.raises(InvalidParameterError):
        hecke_dimension(3, 1, 2)


def test_dimension_identity_chain():
    for n in range(10):
        target = moment_formula_su3_Ainf(n, n)
        sq = sum(
            su3_path_count_formula(n, l1, l2) ** 2
            for l1 in range(n + 1)
            for l2 in range(n + 1 - l1)
        )
        assert sq == target
        hk = sum(hecke_dimension(n, p1, p2) ** 2 for p1, p2 in hecke_shapes(n))
        assert hk == target


def test_moment_table_csv():
    g = by_id("A(3)")
    table = moment_table(g, 4)
    text = moment_table_csv(table)
    assert text.splitlines()[0] == "m,n,value"
    assert "4,0,2" in text   # [Delta^4]_{1,1} on the 3-path


def test_su3_moment_colour_selection_rule():
    g = by_id("SU3-A(7)")
    for m in range(6):
        for n in range(6):
            if (m - n) % 3 != 0:
                assert moment_path_count(g, m, n) == 0


def test_bipartite_moments_depend_on_total_degree_only():
    g = by_id("E(7)")
    for m in range(0, 11, 2):
        assert moment_path_count(g, m, 0) == moment_path_count(g, m // 2, m - m // 2)
    for m in range(1, 11, 2):
        assert moment_path_count(g, m, 0) == 0


def test_su3_finite_graph_agrees_with_truncation():
    # the level-(l-3) triangle and the deep truncation count the same
    # pair-paths while neither feels its boundary
    for l in (5, 6, 7):
        g = by_id(f"SU3-A({l})")
        tr = by_id("Trunc-SU3Ainf(10)")
        bound = min(l - 3, 10)
        for m in range(bound + 1):
            for n in range(bound + 1 - m):
                assert moment_path_count(g, m, n) == moment_path_count(tr, m, n)


@st.composite
def digraphs(draw):
    """Small weighted digraphs, mostly sparse, with a random start vertex."""
    size = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3])
    adj = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                        min_size=size, max_size=size))
    return Graph(id="random", vertices=tuple(range(size)),
                 out_edges=graphs._out_edges(adj),
                 distinguished=draw(st.integers(0, size - 1)), symmetric=False)


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.integers(0, 5), st.integers(0, 5))
def test_path_counts_match_brute_force_on_random_digraphs(g, m, n):
    adj = [list(r) for r in g.adjacency]
    star = g.distinguished
    assert moment_path_count(g, m, n) == brute_pair_paths(adj, star, m, n)
    assert moment_path_count(g, n, m) == moment_path_count(g, m, n)
    assert moment_table(g, m, n) == {
        (i, j): brute_pair_paths(adj, star, i, j) for i in range(m + 1) for j in range(n + 1)
    }


@settings(max_examples=100, deadline=None)
@given(digraphs(), st.integers(0, 4))
def test_loop_series_reads_the_even_closed_walks(g, order):
    adj = [list(r) for r in g.adjacency]
    coeffs = loop_series(g, order).coeffs
    assert coeffs == [moment_path_count(g, 2 * k) for k in range(order + 1)]
    assert coeffs == [brute_pair_paths(adj, g.distinguished, 2 * k, 0) for k in range(order + 1)]


def test_a_large_truncation_is_walked_without_its_dense_matrix():
    # 4921 vertices: its dense adjacency alone would take hundreds of MB
    g = by_id("Trunc-SU3A6inf(40)")
    pairs = [(m, n) for m in range(21) for n in range(21 - m)]
    assert moments(g, pairs) == {(m, n): moment_formula_su3_A6inf(m, n) for m, n in pairs}
    assert "adjacency" not in g.__dict__


def test_sparse_rows_are_built_once_per_graph():
    adjacency = ((0, 1, 0), (1, 0, 2), (0, 2, 1))
    g = Graph("g", (0, 1, 2), graphs._out_edges(adjacency), 0)
    counts = [moment_path_count(g, m, n) for m in range(4) for n in range(4)]
    assert counts == [brute_pair_paths(adjacency, 0, m, n) for m in range(4) for n in range(4)]
    assert _recurrence._denominator(g, False)[0][2] is g.out_edges == graphs._out_edges(adjacency)
