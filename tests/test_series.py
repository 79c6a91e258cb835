import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nimspec import _recurrence, suites
from nimspec.errors import (
    FailedIdentityError,
    InvalidParameterError,
    NimspecError,
    SymmetryError,
)
from nimspec.graphs import Graph, _out_edges, by_id, su3_rotation
from nimspec.measures import canonical_measure, circle_series, moment_t_exact
from nimspec.paths import moments
from nimspec.series import (
    MatrixSeries,
    TruncatedSeries,
    abelian_mckay,
    cy3_hilbert,
    g_composition_route,
    generalized_t,
    hilbert_su2,
    hilbert_su3,
    kostant_affine_partner,
    kostant_closed_form_check,
    kostant_parameters,
    mat_identity,
    mat_scale,
    mat_zero,
    molien_abelian,
    molien_abelian_det,
    poly_from_factors,
    rational_series,
    su2_involution,
    su2_numerator,
    su3_numerator,
    t_closed_form,
    t_series,
    theta_series,
)
from nimspec.subgroups import ClassData, ClassRow, class_data, generate_group

from oracles import (
    all_terms_check_numerator,
    dense_hilbert,
    dense_numerator,
    fraction_generalized_t,
    fraction_inverse,
    fraction_mul,
    horner_compose,
    loop_monomial_characters,
    preprojective_dimensions,
    quadratic_class_sum,
)


def _solve(graph, *args, **kwargs):
    """The kernel's solve, read back as the matrices of the series it gives."""
    blocks, tail = _recurrence._solve(graph, *args, **kwargs)
    return MatrixSeries(graph.id, blocks, tail=tail).mats


# -- series arithmetic -------------------------------------------------------

def test_series_arithmetic_exact():
    one_minus_q = TruncatedSeries.from_coeffs([1, -1], 10)
    geo = one_minus_q.inverse()
    assert geo.coeffs == [Fraction(1)] * 11
    sq = geo * geo
    assert sq.coeffs == [Fraction(k + 1) for k in range(11)]
    assert (sq - sq).coeffs == [0] * 11


def test_rational_series_expansion():
    t = rational_series([(-1, 2)], [(-1, 3)], 8)
    # (1-q^2)/(1-q^3) = 1 - q^2 + q^3 - q^5 + q^6 - q^8 ...
    assert t.coeffs == [1, 0, -1, 1, 0, -1, 1, 0, -1]


def _factor_list(factors, order):
    """prod (1 + sign q^k) to the order, by fraction_mul one factor at a time."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for sign, k in factors:
        f = [Fraction(1)] + [Fraction(0)] * order
        if k <= order:
            f[k] = Fraction(sign)
        out = fraction_mul(out, f)
    return out


factor_lists = st.lists(st.tuples(st.sampled_from([-1, 1]), st.integers(1, 16)), max_size=4)


@settings(max_examples=100, deadline=None)
@given(factor_lists, factor_lists, st.integers(0, 12))
@example([(-1, 2)], [(-1, 3)], 8)
@example([(1, 15)], [(-1, 6), (-1, 10)], 4)
def test_rational_series_matches_the_fraction_loops(num, den, order):
    """Factors with k above the order are drawn too; they leave the product
    unchanged."""
    top = poly_from_factors(num, order).coeffs
    assert top == _factor_list(num, order)
    assert all(type(c) is Fraction for c in top)
    got = rational_series(num, den, order).coeffs
    assert got == fraction_mul(_factor_list(num, order),
                               fraction_inverse(_factor_list(den, order)))
    assert all(type(c) is Fraction for c in got)


def test_compose_requires_zero_constant():
    f = TruncatedSeries.from_coeffs([1, 1], 5)
    with pytest.raises(InvalidParameterError):
        f.compose(TruncatedSeries.from_coeffs([1, 1], 5))


@st.composite
def bounded_fractions(draw):
    """p/q with 1 <= q <= 12 and -20 <= p/q <= 20: the domain of
    st.fractions(min_value=-20, max_value=20, max_denominator=12), drawn as
    two integers, which costs about half as much per example."""
    q = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(-20 * q, 20 * q)), q)


rationals = st.one_of(st.integers(-40, 40), bounded_fractions())


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12), st.lists(rationals, max_size=10))
@example([Fraction(1, 3), 2, Fraction(-5, 7)], [Fraction(1, 2), Fraction(2, 3)])
@example([1, 1, 1, 1], [Fraction(1, 6)])
def test_compose_matches_fraction_horner(outer, inner_tail):
    inner = [0] + inner_tail
    got = TruncatedSeries(outer).compose(TruncatedSeries(inner, "t"))
    assert got.coeffs == horner_compose(outer, inner)
    assert got.var == "t"


@pytest.mark.parametrize("outer,inner", [([1.0, 2], [0, 1]), ([1, 2], [0, 0.5]),
                                         ([1, 2j], [0, 1])])
def test_compose_rejects_non_rational_coefficients(outer, inner):
    with pytest.raises(InvalidParameterError):
        TruncatedSeries(outer).compose(TruncatedSeries(inner))


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12).filter(lambda c: c[0] != 0))
def test_series_times_its_inverse_is_one(coeffs):
    a = TruncatedSeries(coeffs)
    assert (a * a.inverse()).coeffs == TruncatedSeries.one(a.order).coeffs


inexact = st.one_of(st.floats(-4, 4), st.complex_numbers(max_magnitude=4, allow_nan=False,
                                                        allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(rationals, inexact), min_size=1, max_size=10),
       st.lists(st.one_of(rationals, inexact), min_size=1, max_size=10))
@example([Fraction(-3, 4), 2, Fraction(5, 6), 0, 7], [3, Fraction(1, 9), -2])
@example([2, 0.5, 1], [Fraction(1, 3), 1, 1])
@example([1j, 2, Fraction(1, 2)], [0.25, 0, 1])
def test_product_and_inverse_match_the_direct_loops(a, b):
    """Rational inputs give the loops' values; a float or complex
    coefficient gives the loops' results bit for bit."""
    def check(got, want, inputs):
        if all(isinstance(c, (int, Fraction)) for c in inputs):
            assert got == want
        else:
            assert repr(got) == repr(want)

    n = min(len(a), len(b))
    check((TruncatedSeries(a) * TruncatedSeries(b)).coeffs, fraction_mul(a, b), a[:n] + b[:n])
    if a[0] != 0:
        check(TruncatedSeries(a).inverse().coeffs, fraction_inverse(a), a)


# -- pre-projective Hilbert series -------------------------------------------

@pytest.mark.parametrize("gid,total", [("A(2)", 4), ("A(3)", 10), ("D(4)", 28)])
def test_hilbert_totals_match_bruteforce_oracle(gid, total):
    g = by_id(gid)
    hs = hilbert_su2(g, 2 * g.coxeter_h)
    assert hs.total_at_one() == total
    # re-derive the oracle value live
    edges = []
    for i, row in enumerate(g.adjacency):
        for j in range(i + 1, len(row)):
            edges += [(i, j)] * row[j]
    dims, brute_total = preprojective_dimensions(edges, g.n_vertices)
    assert brute_total == total
    graded = [sum(sum(r) for r in m) for m in hs.mats]
    assert graded[: len(dims)] == dims + [0] * (len(graded[: len(dims)]) - len(dims))


def _last_degree_dropped(hs):
    """The mutation of a terminating series that zeroes its last nonzero
    degree: one solved block fewer, one zero block more."""
    return MatrixSeries(hs.graph_id, hs.blocks[:-1], column=hs.column, tail=hs.tail + 1)


def test_preprojective_dimension_is_h_h_plus_1_n_over_6():
    """H(1) = h(h+1)n/6 on the pre-projective algebra of every ADE Dynkin
    graph (Malkin-Ostrik-Vybornov).  Tad(n) is not a Dynkin graph: there the
    same total is an observation, checked for n <= 20."""
    ids = ([f"A({n})" for n in range(2, 41)] + [f"D({n})" for n in range(4, 41)]
           + ["E(6)", "E(7)", "E(8)"] + [f"Tad({n})" for n in range(1, 21)])
    for gid in ids:
        g = by_id(gid)
        h, n = g.coxeter_h, g.n_vertices
        hs = hilbert_su2(g, h + 2)
        assert 6 * hs.total_at_one() == h * (h + 1) * n, gid
        assert 6 * _last_degree_dropped(hs).total_at_one() != h * (h + 1) * n, gid


@pytest.mark.parametrize("mutation", ["drop the last degree", "H(1) formula + 1"])
def test_each_mutation_fails_every_preprojective_case(monkeypatch, mutation):
    """Dropping the last nonzero degree fails the numerator identity and the
    H(1) check; a wrong H(1) formula alone fails the H(1) check."""
    if mutation == "drop the last degree":
        real = suites.series.hilbert_su2
        monkeypatch.setattr(suites.series, "hilbert_su2",
                            lambda g, order: _last_degree_dropped(real(g, order)))
    else:
        formula = suites._preprojective_dimension
        monkeypatch.setattr(suites, "_preprojective_dimension", lambda g: formula(g) + 1)
    cases = [c for c in suites.run_suite("hilbert").cases
             if c.case_id.startswith("hilbert:preprojective:")]
    assert len(cases) == 11 and all(c.status == "fail" for c in cases)


def test_a2_hilbert_is_linear():
    g = by_id("A(2)")
    hs = hilbert_su2(g, 10)
    assert hs.mats[0] == mat_identity(2)
    assert hs.mats[1] == g.adjacency
    assert all(hs.mats[k] == mat_zero(2) for k in range(2, 11))


@pytest.mark.parametrize("gid", ["A(4)", "A(6)", "D(5)", "D(6)", "E(6)", "E(7)", "E(8)",
                                 "Tad(2)", "Tad(4)"])
def test_preprojective_numerator_identity(gid):
    g = by_id(gid)
    h = g.coxeter_h
    hs = hilbert_su2(g, 2 * h)
    num = su2_numerator(hs, g)
    p = su2_involution(g)
    assert num[0] == mat_identity(g.n_vertices)
    for k in range(1, 2 * h + 1):
        assert num[k] == (p if k == h else mat_zero(g.n_vertices)), (gid, k)
    # polynomial of degree h - 2
    assert all(hs.mats[k] == mat_zero(g.n_vertices) for k in range(h - 1, 2 * h + 1))


def test_involution_is_nontrivial_where_expected():
    assert su2_involution(by_id("A(3)")) != mat_identity(3)
    assert su2_involution(by_id("D(5)")) != mat_identity(5)
    assert su2_involution(by_id("E(6)")) != mat_identity(6)
    assert su2_involution(by_id("D(4)")) == mat_identity(4)
    assert su2_involution(by_id("E(7)")) == mat_identity(7)
    assert su2_involution(by_id("E(8)")) == mat_identity(8)


def test_affine_hilbert_positive_and_infinite():
    g = by_id("Aff-D(4)")
    hs = hilbert_su2(g, 30)
    assert all(x >= 0 for m in hs.mats for row in m for x in row)
    assert hs.mats[30] != mat_zero(5)


# -- SU(3) Hilbert series -----------------------------------------------------

def test_su3_a4_hilbert_is_i_plus_ct():
    g = by_id("SU3-A(4)")
    hs = hilbert_su3(g)
    assert hs.mats[0] == mat_identity(3)
    assert hs.mats[1] == g.adjacency
    assert all(hs.mats[k] == mat_zero(3) for k in range(2, hs.order + 1))


@pytest.mark.parametrize("l", [4, 5, 6, 7])
def test_su3_numerator_identity(l):
    g = by_id(f"SU3-A({l})")
    hs = hilbert_su3(g, order=3 * l)
    num = su3_numerator(hs, g)
    p = su3_rotation(g)
    assert num[0] == mat_identity(g.n_vertices)
    for k in range(1, 3 * l + 1):
        assert num[k] == (mat_scale(-1, p) if k == l else mat_zero(g.n_vertices))


def test_su3_astar_hilbert_nonnegative():
    g = by_id("SU3-Astar(8)")
    hs = hilbert_su3(g, order=20)
    assert all(x >= 0 for m in hs.mats for row in m for x in row)


@pytest.mark.parametrize("l", range(4, 18))
def test_su3_astar_numerator_is_one_minus_t_to_the_l(l):
    """A^(l)*, of either parity: (1 - Dt + D^T t^2 - t^3) H = 1 - t^l, with
    P the identity, and the last nonzero degree of H is l - 3."""
    g = by_id(f"SU3-Astar({l})")
    n = g.n_vertices
    hs = hilbert_su3(g, order=3 * l)
    num = su3_numerator(hs, g)
    assert num[0] == mat_identity(n)
    for k in range(1, 3 * l + 1):
        assert num[k] == (mat_scale(-1, mat_identity(n)) if k == l else mat_zero(n)), k
    nonzero = [k for k, m in enumerate(hs.mats) if m != mat_zero(n)]
    assert nonzero[-1] == l - 3


def test_su3_a_hilbert_dimension_observation():
    """An observation, with no source in this repository: H(1) of SU3-A(l)
    is C(l + 2, 5), checked for l = 4..15."""
    for l in range(4, 16):
        assert hilbert_su3(by_id(f"SU3-A({l})")).total_at_one() == math.comb(l + 2, 5), l


def test_su3_astar_hilbert_dimension_observation():
    """An observation, with no source in this repository: H(1) of
    SU3-Astar(2k) is k^2(k^2 - 1)/6 and H(1) of SU3-Astar(2k + 1) is
    k(k + 1)(k^2 + k + 1)/6, checked for l = 4..41."""
    for l in range(4, 42):
        k = l // 2
        six_h = k * k * (k * k - 1) if l % 2 == 0 else k * (k + 1) * (k * k + k + 1)
        assert 6 * hilbert_su3(by_id(f"SU3-Astar({l})")).total_at_one() == six_h, l


def _swap01(n):
    """The permutation matrix that swaps vertices 0 and 1."""
    rows = [list(r) for r in mat_identity(n)]
    rows[0], rows[1] = rows[1], rows[0]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("column", [None, 2])
@pytest.mark.parametrize("gid, directed", [("A(4)", False), ("SU3-A(5)", True)])
def test_a_numerator_that_does_not_commute_is_rejected(gid, directed, column):
    g = by_id(gid)
    q = _swap01(g.n_vertices)
    with pytest.raises(SymmetryError, match="does not commute"):
        _solve(g, directed, 12, (5, _out_edges(q)), column)


@pytest.mark.parametrize("q_rows", [
    (((0, 2),), ((1, 1),), ((2, 1),)),          # an entry other than +-1
    (((0, 1), (1, 1)), ((1, 1),), ((2, 1),)),   # two entries in a row
    ((), ((1, 1),), ((2, 1),)),                 # an empty row
    (((0, 1),), ((0, -1),), ((2, 1),)),         # two rows on one column
    (((0, 1),), ((1, 1),)),                     # too few rows
], ids=["entry-2", "two-entries", "empty-row", "repeated-column", "short"])
def test_a_numerator_that_is_not_a_signed_permutation_is_rejected(q_rows):
    with pytest.raises(InvalidParameterError, match="signed permutation"):
        _solve(by_id("A(3)"), False, 6, (2, q_rows))


@st.composite
def numerator_cases(draw):
    """(adjacency, Q's sparse rows, n): Q a signed permutation, and in half
    the cases an adjacency summed over the orbit of Q's permutation, so that
    the two commute once the signs agree along every edge; Q is sometimes
    broken into a matrix that is no signed permutation."""
    n = draw(st.integers(1, 5))
    sigma = draw(st.permutations(range(n)))
    signs = draw(st.one_of(st.just([1] * n), st.just([-1] * n),
                           st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    flat = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    dense = [flat[i * n:(i + 1) * n] for i in range(n)]
    if draw(st.booleans()):
        orbit, cur = [dense], dense
        while True:
            nxt = [[0] * n for _ in range(n)]
            for i in range(n):
                for l in range(n):
                    nxt[sigma[i]][sigma[l]] = cur[i][l]
            if nxt == dense:
                break
            orbit.append(nxt)
            cur = nxt
        dense = [[sum(m[i][l] for m in orbit) for l in range(n)] for i in range(n)]
    q_rows = [((sigma[i], signs[i]),) for i in range(n)]
    broken = draw(st.sampled_from(["none"] * 4 + ["entry 2", "two entries", "repeated column",
                                                  "short"]))
    if broken == "entry 2":
        q_rows[0] = ((sigma[0], 2 * signs[0]),)
    elif broken == "two entries" and n > 1:
        q_rows[0] = tuple(sorted({(sigma[0], signs[0]), (sigma[1], 1)}))
    elif broken == "repeated column" and n > 1:
        q_rows[1] = ((sigma[0], signs[1]),)
    elif broken == "short":
        q_rows.pop()
    return _out_edges(dense), tuple(q_rows), n


@settings(max_examples=150, deadline=None)
@given(numerator_cases(), st.booleans())
def test_the_numerator_check_on_delta_alone_equals_the_all_terms_check(case, directed):
    """Checking Q against Delta alone accepts and rejects, with the same
    error, exactly what checking it against every coefficient of D(t) does."""
    rows, q_rows, n = case
    g = Graph("g", tuple(range(n)), rows, 0, symmetric=not directed)

    def outcome(check, *args):
        try:
            check(q_rows, *args, n)
        except NimspecError as exc:
            return type(exc), str(exc)
        return None

    assert (outcome(_recurrence._check_numerator, rows)
            == outcome(all_terms_check_numerator, _recurrence._denominator(g, directed)))


@pytest.mark.parametrize("h", [0, -1])
@pytest.mark.parametrize("gid, route", [("A(3)", lambda g: hilbert_su2(g, 6)),
                                        ("SU3-A(4)", lambda g: hilbert_su3(g, order=3))])
def test_a_numerator_degree_below_1_is_rejected(gid, route, h):
    with pytest.raises(InvalidParameterError, match="numerator degree"):
        route(replace(by_id(gid), coxeter_h=h))


@pytest.mark.parametrize("gid, route", [
    *((gid, lambda g: hilbert_su2(g, 12)) for gid in ("SU3-Astar(8)", "SU3-A(5)")),
    *((gid, lambda g: hilbert_su3(g, order=12))
      for gid in ("A(5)", "D(5)", "E(6)", "Tad(3)", "Aff-A(4)"))])
def test_a_hilbert_route_refuses_the_other_groups_graphs(gid, route):
    """hilbert_su2 takes no SU3- family and hilbert_su3 no other family; each
    refuses with one line naming the family.  Graphs with no family, built
    directly, are taken by both (the dense-oracle tests below)."""
    g = by_id(gid)
    with pytest.raises(InvalidParameterError) as info:
        route(g)
    assert f"the family {g.family}," in str(info.value) and "\n" not in str(info.value)


# -- CY3 / abelian subgroups --------------------------------------------------

def test_abelian_mckay_shapes():
    g = abelian_mckay(3, (1, 1, 1))
    assert g.adjacency == ((0, 3, 0), (0, 0, 3), (3, 0, 0))
    g5 = abelian_mckay(5, (1, 1, 3))
    assert all(sum(row) == 3 for row in g5.adjacency)
    with pytest.raises(InvalidParameterError):
        abelian_mckay(2, (1, 0, 0))


def test_z3_cy3_dimension():
    h = cy3_hilbert(abelian_mckay(3, (1, 1, 1)), 10)
    assert h.entry(0, 0).coeffs[3] == 10
    assert h.mats[0] == mat_identity(3)


def test_cy3_hilbert_equals_molien_exactly():
    for m in range(2, 8):
        for a in range(m):
            for b in range(m):
                weights = (a, b, (-a - b) % m)
                h = cy3_hilbert(abelian_mckay(m, weights), 10)
                for j in range(m):
                    mol = molien_abelian(m, weights, j, 10)
                    assert h.entry(j, 0).coeffs == [int(x) for x in mol.coeffs]


def test_molien_counts_equal_the_monomial_loop():
    """Every weight triple for m <= 6 and every det-1 triple for m <= 12, at
    order 20 and at one order 0..20 that cycles along the triples: all
    characters j."""
    triples = [(m, (a, b, c)) for m in range(1, 7)
               for a in range(m) for b in range(m) for c in range(m)]
    triples += [(m, (a, b, (-a - b) % m)) for m in range(7, 13) for a in range(m) for b in range(m)]
    for i, (m, weights) in enumerate(triples):
        want = loop_monomial_characters(m, weights, 20)
        for order in (20, i % 21):
            for j in range(m):
                got = molien_abelian(m, weights, j, order).coeffs
                assert got == [row[j] for row in want[:order + 1]], (m, weights, j, order)
                assert all(type(c) is int for c in got)


def test_molien_det_route_cross_check():
    mol = molien_abelian(5, (1, 1, 3), 0, 25)
    det = molien_abelian_det(5, (1, 1, 3), 0, 25)
    assert mol.max_difference(det) < 1e-9


# -- the matrix-recurrence kernel against the dense oracle ---------------------

@st.composite
def weighted_adjacency(draw, symmetric):
    n = draw(st.integers(1, 5))
    rows = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return tuple(tuple(r) for r in rows)


@given(st.one_of(weighted_adjacency(symmetric=True), weighted_adjacency(symmetric=False)))
def test_a_graph_built_from_its_rows_gives_back_its_matrix(adjacency):
    g = Graph("g", tuple(range(len(adjacency))), _out_edges(adjacency), 0, symmetric=False)
    assert g.adjacency == adjacency


def _outcome(call):
    """The call's value, or the type of the NimspecError it raised."""
    try:
        return call()
    except NimspecError as exc:
        return type(exc)


def _oracle(adjacency, order, directed, numerator=None, nonnegative=True):
    """dense_hilbert under the library's error contract."""
    if order < 0:
        raise InvalidParameterError("negative order")
    mats = dense_hilbert(adjacency, order, directed, numerator)
    if nonnegative and any(x < 0 for m in mats for row in m for x in row):
        raise FailedIdentityError("negative coefficient")
    return mats


@settings(max_examples=150, deadline=None)
@given(weighted_adjacency(symmetric=True), weighted_adjacency(symmetric=False),
       st.integers(-2, 9), st.integers(1, 6))
def test_matrix_recurrences_match_the_dense_oracle(sym, digraph, order, h):
    su2 = Graph("sym", tuple(range(len(sym))), _out_edges(sym), 0, symmetric=True)
    su3 = Graph("digraph", tuple(range(len(digraph))), _out_edges(digraph), 0, coxeter_h=h,
                symmetric=False)
    minus_one = tuple(tuple(-1 if i == j else 0 for j in range(su3.n_vertices))
                      for i in range(su3.n_vertices))
    cases = [
        (su2, su2_numerator, None, lambda: hilbert_su2(su2, order).mats,
         lambda: _oracle(sym, order, False)),
        (su3, su3_numerator, None, lambda: cy3_hilbert(su3, order).mats,
         lambda: _oracle(digraph, order, True, nonnegative=False)),
        (su3, su3_numerator, minus_one, lambda: hilbert_su3(su3, order=order).mats,
         lambda: _oracle(digraph, order, True, (h, minus_one))),
    ]
    for g, numerator, at_h, route, oracle in cases:
        got = _outcome(route)
        assert got == _outcome(oracle)
        if isinstance(got, list):
            n = g.n_vertices
            want = [mat_identity(n)] + [mat_zero(n)] * order
            if at_h is not None and h <= order:
                want[h] = at_h
            assert numerator(MatrixSeries(g.id, got), g) == want



# -- one-column solves ---------------------------------------------------------

def _cut(mats, column):
    """Column `column` of each matrix, as the n x 1 blocks a column solve returns."""
    return [tuple((row[column],) for row in m) for m in mats]


def _checked(mats, column, terminates_from=None):
    """_cut under the library's checks of one column: the ADET termination
    check from degree terminates_from on, then nonnegativity."""
    col = _cut(mats, column)
    if terminates_from is not None and any(x for m in col[terminates_from:] for (x,) in m):
        return FailedIdentityError
    if any(x < 0 for m in col for (x,) in m):
        return FailedIdentityError
    return col


@settings(max_examples=100, deadline=None)
@given(weighted_adjacency(symmetric=True), weighted_adjacency(symmetric=False),
       st.integers(0, 9), st.integers(1, 6), st.integers(0, 4))
def test_column_recurrences_match_the_dense_oracle(sym, digraph, order, h, column):
    su2 = Graph("sym", tuple(range(len(sym))), _out_edges(sym), 0, symmetric=True)
    su3 = Graph("digraph", tuple(range(len(digraph))), _out_edges(digraph), 0, coxeter_h=h,
                symmetric=False)
    minus_one = tuple(tuple(-1 if i == j else 0 for j in range(su3.n_vertices))
                      for i in range(su3.n_vertices))
    c2, c3 = column % su2.n_vertices, column % su3.n_vertices
    cases = [
        (su2, c2, su2_numerator, None, lambda: hilbert_su2(su2, order, column=c2),
         lambda: _checked(dense_hilbert(sym, order), c2)),
        (su3, c3, su3_numerator, None, lambda: cy3_hilbert(su3, order, column=c3),
         lambda: _cut(dense_hilbert(digraph, order, True), c3)),
        (su3, c3, su3_numerator, minus_one, lambda: hilbert_su3(su3, order=order, column=c3),
         lambda: _checked(dense_hilbert(digraph, order, True, (h, minus_one)), c3)),
    ]
    for g, c, numerator, at_h, route, oracle in cases:
        got = _outcome(route)
        want = oracle()
        if isinstance(got, MatrixSeries):
            assert got.column == c and got.mats == want
            n = g.n_vertices
            num = [mat_identity(n)] + [mat_zero(n)] * order
            if at_h is not None and h <= order:
                num[h] = at_h
            assert numerator(got, g) == _cut(num, c)
        else:
            assert got == want


def test_every_su2_column_equals_the_full_solve():
    from nimspec.suites import _su2_catalogue

    ids = _su2_catalogue()
    assert len(ids) == 30
    for gid in ids:
        g = by_id(gid)
        order = 2 * (g.coxeter_h or 12)
        full = hilbert_su2(g, order)
        for c in range(g.n_vertices):
            col = hilbert_su2(g, order, column=c)
            assert col.mats == _cut(full.mats, c), (gid, c)
            for i in range(g.n_vertices):
                assert col.entry(i, c) == full.entry(i, c)


@pytest.mark.parametrize("l", range(4, 10))
def test_su3_columns_equal_the_full_solve_and_raise_only_where_it_is_negative(l):
    g = by_id(f"SU3-A({l})")
    n = g.n_vertices
    full = hilbert_su3(g, order=3 * l)
    for p in (su3_rotation(g), mat_identity(n)):
        unchecked = _solve(g, True, 3 * l, (l, _out_edges(mat_scale(-1, p))))
        want = [_checked(unchecked, c) for c in range(n)]
        if p == su3_rotation(g):
            assert unchecked == full.mats
            assert [hilbert_su3(g, order=3 * l, column=c).mats for c in range(n)] == want
        for c in range(n):
            assert _outcome(lambda: _solve(g, True, 3 * l, (l, _out_edges(mat_scale(-1, p))), c,
                                           nonnegative=True)) == want[c]
    # with P = 1 the full call raises, but on SU3-A(6) one column stays nonnegative
    if l == 6:
        assert [w is FailedIdentityError for w in want].count(False) == 1


def test_every_cy3_column_equals_the_full_solve():
    for m in range(2, 10):
        for a in range(m):
            for b in range(m):
                g = abelian_mckay(m, (a, b, (-a - b) % m))
                full = cy3_hilbert(g, 12)
                for c in range(m):
                    assert cy3_hilbert(g, 12, column=c).mats == _cut(full.mats, c)


def _column_cases():
    """(label, solve): solve() is the full solve and solve(j) the solve of
    column j alone, on ADET, affine, SU3-A, SU3-Astar and cy3 Z_m graphs,
    and on a weighted graph whose entries pass 2**63, so that its bound
    trips into dtype object."""
    heavy = Graph("heavy", tuple(range(5)), _out_edges(_weighted_complete(5, 2, 2)), 0,
                  symmetric=True)
    return [
        *((gid, lambda c=None, g=by_id(gid): hilbert_su2(g, 30, column=c))
          for gid in ("A(6)", "D(5)", "E(6)", "E(8)", "Tad(4)", "Aff-D(5)", "Aff-E(8)")),
        *((gid, lambda c=None, g=by_id(gid): hilbert_su3(g, order=24, column=c))
          for gid in ("SU3-A(6)", "SU3-Astar(10)")),
        ("cy3 Z7(1,2,4)", lambda c=None: cy3_hilbert(abelian_mckay(7, (1, 2, 4)), 20, column=c)),
        ("past int64", lambda c=None: hilbert_su2(heavy, 40, column=c)),
    ]


@pytest.mark.parametrize("elements", [1 << 20, 1])
def test_a_one_column_solve_is_column_j_of_the_full_solve(monkeypatch, elements):
    """For every column j, the blocks, the zero tail and the tuple rows of
    the column solve are column j of the full solve's: the column may end
    its solved blocks earlier, never later.  With _GATHER_ELEMENTS = 1 every
    row is its own gather."""
    monkeypatch.setattr(_recurrence, "_GATHER_ELEMENTS", elements)
    for label, solve in _column_cases():
        full = solve()
        for j in range(full.blocks.shape[1]):
            col = solve(j)
            s = len(col.blocks)
            assert col.blocks.shape[1:] == (full.blocks.shape[1], 1), (label, j)
            assert np.array_equal(col.blocks, full.blocks[:s, :, j:j + 1]), (label, j)
            assert not full.blocks[s:, :, j].any() and s + col.tail == full.order + 1
            assert col.mats == _cut(full.mats, j), (label, j)
            if label == "past int64":
                assert col.blocks.dtype == object and max(col.blocks[40].ravel()) > 2 ** 100
            else:
                assert col.blocks.dtype == full.blocks.dtype == np.int64, (label, j)


def test_an_adet_column_raises_exactly_where_its_column_fails_to_terminate():
    # a triangle labelled as A(3): P swaps vertices 1 and 3 and commutes with
    # Delta, but the series does not terminate
    tri = Graph("A(3)", (1, 2, 3), (((1, 1), (2, 1)), ((0, 1), (2, 1)), ((0, 1), (1, 1))),
                0, coxeter_h=4, family="A")
    with pytest.raises(FailedIdentityError, match="fails to terminate at degree 3"):
        hilbert_su2(tri, 8)
    unchecked = _solve(tri, False, 8, (4, _out_edges(su2_involution(tri))))
    for c in range(3):
        want = _checked(unchecked, c, terminates_from=3)
        assert want is FailedIdentityError
        with pytest.raises(want, match="fails to terminate at degree 3"):
            hilbert_su2(tri, 8, column=c)


@pytest.mark.parametrize("build,route", [
    (lambda: by_id("E(6)"), lambda g: su2_numerator(hilbert_su2(g, 12), g)),
    (lambda: by_id("Aff-D(5)"), lambda g: hilbert_su2(g, 10, column=2)),
    (lambda: by_id("SU3-A(6)"), lambda g: su3_numerator(hilbert_su3(g, order=12), g)),
    (lambda: by_id("SU3-A(6)"), lambda g: hilbert_su3(g, order=12, column=3)),
    (lambda: abelian_mckay(5, (1, 1, 3)), lambda g: cy3_hilbert(g, 10)),
    (lambda: abelian_mckay(5, (1, 1, 3)), lambda g: cy3_hilbert(g, 10, column=4)),
], ids=["su2", "su2-column", "su3", "su3-column", "cy3", "cy3-column"])
def test_hilbert_routes_leave_the_dense_adjacency_unbuilt(build, route):
    g = build()
    route(g)
    assert "adjacency" not in g.__dict__


@pytest.mark.parametrize("column", [-1, 5, True, 1.0, "0"])
def test_a_column_outside_the_graph_is_rejected(column):
    with pytest.raises(InvalidParameterError):
        hilbert_su2(by_id("A(5)"), 6, column=column)


@pytest.mark.parametrize("i,j", [(-1, 0), (0, -1), (3, 0), (0, 3), (0, True), (True, 0),
                                 (0, 1.0), (1.0, 0)])
def test_entry_rejects_an_index_outside_the_series(i, j):
    hs = hilbert_su2(by_id("A(3)"), 4)
    with pytest.raises(InvalidParameterError):
        hs.entry(i, j)


def test_a_column_series_rejects_the_columns_it_did_not_solve():
    g = by_id("A(3)")
    col = hilbert_su2(g, 4, column=1)
    assert col.entry(2, 1) == hilbert_su2(g, 4).entry(2, 1)
    for j in (0, 2):
        with pytest.raises(InvalidParameterError):
            col.entry(0, j)


# -- exactness past int64, and the zero tail ------------------------------------

def _weighted_complete(n, up, down):
    """n vertices, no loops; i -> j carries weight up for i < j, down for i > j."""
    return tuple(tuple(0 if i == j else (up if i < j else down) for j in range(n))
                 for i in range(n))


def _numerator_is(num, n, h=None, p=None):
    """num == [1, 0, .., 0] with p at degree h when h is within the order."""
    want = [mat_identity(n)] + [mat_zero(n)] * (len(num) - 1)
    if h is not None and h < len(num):
        want[h] = p
    return num == want


def test_full_solves_past_int64_equal_the_dense_oracle():
    """Entries pass 2**63 within the order, so the int64 blocks must switch
    to Python ints on the way; a weight past 2**62 starts there."""
    sym, digraph = _weighted_complete(5, 2, 2), _weighted_complete(5, 2, 1)
    su2 = Graph("sym", tuple(range(5)), _out_edges(sym), 0, symmetric=True)
    su3 = Graph("digraph", tuple(range(5)), _out_edges(digraph), 0, coxeter_h=6,
                symmetric=False)
    minus_one = mat_scale(-1, mat_identity(5))
    hs = hilbert_su2(su2, 40)
    assert hs.mats == dense_hilbert(sym, 40)
    assert max(hs.mats[40][0]) > 2 ** 100
    assert _numerator_is(su2_numerator(hs, su2), 5)
    cy3 = cy3_hilbert(su3, 40)
    assert cy3.mats == dense_hilbert(digraph, 40, True)
    assert max(cy3.mats[40][0]) > 2 ** 63
    assert _numerator_is(su3_numerator(cy3, su3), 5)
    su3_hs = hilbert_su3(su3, order=40)        # a graph with no family: P = 1
    assert su3_hs.mats == dense_hilbert(digraph, 40, True, (6, minus_one))
    assert _numerator_is(su3_numerator(su3_hs, su3), 5, 6, minus_one)
    heavy = ((0, 2 ** 70), (2 ** 70, 0))
    g = Graph("heavy", (0, 1), _out_edges(heavy), 0, symmetric=True)
    hs = hilbert_su2(g, 6)
    assert hs.mats == dense_hilbert(heavy, 6)
    assert _numerator_is(su2_numerator(hs, g), 2)


def test_full_solves_of_the_catalogue_equal_the_dense_oracle():
    """Each ADE series vanishes from degree h - 1 on, so at order 4h most of
    it is the zero tail."""
    from nimspec.suites import _su2_catalogue

    ade = [gid for gid in _su2_catalogue() if gid.split("(")[0] in ("A", "D", "E")]
    assert len(ade) == 16
    for gid in ade:
        g = by_id(gid)
        h, p = g.coxeter_h, su2_involution(g)
        hs = hilbert_su2(g, 4 * h)
        assert hs.mats == dense_hilbert(g.adjacency, 4 * h, False, (h, p)), gid
        assert _numerator_is(su2_numerator(hs, g), g.n_vertices, h, p)
    for l in range(4, 10):
        g = by_id(f"SU3-A({l})")
        minus_p = mat_scale(-1, su3_rotation(g))
        hs = hilbert_su3(g, order=4 * l)
        assert hs.mats == dense_hilbert(g.adjacency, 4 * l, True, (l, minus_p)), l
        assert _numerator_is(su3_numerator(hs, g), g.n_vertices, l, minus_p)


@st.composite
def invariant_graph(draw):
    """(adjacency, sigma, directed): a graph on 2..6 vertices whose weights
    are constant on the orbits of vertex pairs (unordered when undirected)
    under the permutation sigma, so that s P_sigma commutes with Delta and
    Delta^T.  Weights are c * 2**e with c <= 3: at e = 0 the proven int64
    bound often trips partway through the series while the real entries
    still fit, and at e = 12 the entries pass 2**63 as well."""
    n = draw(st.integers(2, 6))
    sigma = draw(st.permutations(range(n)))
    scale = 2 ** draw(st.sampled_from([0, 12]))
    directed = draw(st.booleans())
    pair_key = tuple if directed else (lambda pair: tuple(sorted(pair)))
    orbit_weight = {}
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            orbit, pair = [], pair_key((i, j))
            while pair not in orbit:
                orbit.append(pair)
                pair = pair_key((sigma[pair[0]], sigma[pair[1]]))
            if min(orbit) not in orbit_weight:
                orbit_weight[min(orbit)] = draw(st.integers(0, 3)) * scale
            adj[i][j] = orbit_weight[min(orbit)]
    return tuple(map(tuple, adj)), sigma, directed


@settings(max_examples=80, deadline=None)
@given(invariant_graph(), st.integers(30, 40), st.sampled_from([None, 1, -1]),
       st.integers(1, 40))
def test_the_full_kernel_equals_the_dense_oracle_across_the_int64_switch(graph, order, sign, h):
    adj, sigma, directed = graph
    n = len(adj)
    g = Graph("g", tuple(range(n)), _out_edges(adj), 0, symmetric=not directed)
    q = tuple(tuple(sign if sigma[i] == j else 0 for j in range(n)) for i in range(n))
    at = () if sign is None else (h, q)
    got = _solve(g, directed, order, (h, _out_edges(q)) if at else None)
    assert got == dense_hilbert(adj, order, directed, at or None)
    multiply = su3_numerator if directed else su2_numerator
    assert _numerator_is(multiply(MatrixSeries("g", got), g), n, *at)


def test_a_long_affine_solve_rereads_its_magnitude_only_when_the_bound_trips(monkeypatch):
    """Aff-D(11)'s entries grow polynomially, so the proven bound trips
    again and again, and each time the real magnitude still fits."""
    reads = []
    magnitude = _recurrence._magnitude
    monkeypatch.setattr(_recurrence, "_magnitude",
                        lambda block: reads.append(1) or magnitude(block))
    g = by_id("Aff-D(11)")
    hs = hilbert_su2(g, 600)
    assert hs.mats == dense_hilbert(g.adjacency, 600)
    assert 2 <= len(reads) <= 600 // 10


@st.composite
def solve_case(draw):
    """(adjacency, directed, order, numerator): a weighted graph on 1..6
    vertices, its weights c * 2**e with c <= 2, an order up to 200, and
    numerator None (N = 1) or (h, s) for N = 1 + s t^h with h = 1..4 and
    s = +-1, since +-1 commutes with every Delta.  At e = 0 the entries
    often pass 2**53 and 2**63 on the way; at e = 20 and 40 they start near
    them."""
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    scale = 2 ** draw(st.sampled_from([0, 0, 20, 40]))
    rows = [[draw(st.integers(0, 2)) * scale for _ in range(n)] for _ in range(n)]
    if not directed:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    sign = draw(st.sampled_from([None, 1, -1]))
    numerator = None if sign is None else (draw(st.integers(1, 4)), sign)
    return tuple(map(tuple, rows)), directed, draw(st.integers(0, 200)), numerator


@settings(max_examples=60, deadline=None)
@given(solve_case())
@example((_weighted_complete(5, 1, 1), False, 100, None))  # float64 chunks, then Python ints
@example((((0, 1), (1, 0)), True, 200, None))
@example((((0,),), False, 25, None))                       # 1/(1 + t^2): one zero block at the end
@example((((0,),), True, 26, None))                        # 1/(1 - t^3): two
@example((((0,),), False, 30, (2, 1)))                     # (1 + t^2)/(1 + t^2) = 1
@example((((0,),), True, 30, (3, -1)))                     # (1 - t^3)/(1 - t^3) = 1
@example((((0,),), False, 30, (2, -1)))                    # (1 - t^2)/(1 + t^2): in chunks
def test_solves_equal_the_dense_oracle_in_its_integers(case):
    """Solves with N = 1 or N = 1 +- t^h, full and of every column, at
    every order 0..200: the blocks equal dense_hilbert's up to its trailing
    zero blocks, hold Python ints when read, and are int64 while the proven
    bound leaves room, Python ints past 2**63."""
    adj, directed, order, numerator = case
    n = len(adj)
    g = Graph("g", tuple(range(n)), _out_edges(adj), 0, symmetric=not directed)
    at = None
    if numerator is not None:
        h, sign = numerator
        at = (h, mat_scale(sign, mat_identity(n)))
        numerator = (h, _out_edges(at[1]))
    want = dense_hilbert(adj, order, directed, at)
    reach = _recurrence._plan(_recurrence._denominator(g, directed), n, -1)[2]
    for column in [None, *range(n)]:
        blocks, tail = _recurrence._solve(g, directed, order, numerator, column)
        mats = want if column is None else _cut(want, column)
        assert MatrixSeries("g", blocks, tail=tail).mats == mats
        assert tail == len(mats) - max(k + 1 for k, m in enumerate(mats) if any(map(any, m)))
        assert all(type(x) is int for x in blocks.ravel().tolist())
        top = max(abs(x) for m in want for row in m
                  for x in (row if column is None else (row[column],)))
        if top >= 2 ** 63:
            assert blocks.dtype == object
        elif reach * (top + 1) < 2 ** 62:
            assert blocks.dtype == np.int64


def test_long_unnumerated_solves_run_in_transfer_chunks(monkeypatch):
    """Aff-D(11) at order 158 and the Z12 CY3 series at order 120 are
    solved in isqrt(order)-degree chunks, one float64 product each; once
    the entries pass 2**53 the solve goes on one degree at a time.  So is
    (1 + t^9)/(1 - Delta t + t^2) on A(8), which never ends, from degree 10
    on.  Short solves and series that end never chunk."""
    products = []
    product = _recurrence._product
    monkeypatch.setattr(_recurrence, "_product",
                        lambda t, window: products.append(t.dtype) or product(t, window))
    g = by_id("Aff-D(11)")
    assert hilbert_su2(g, 158).mats == dense_hilbert(g.adjacency, 158)
    assert products == [np.float64] * math.ceil(158 / math.isqrt(158))
    products.clear()
    mckay = abelian_mckay(12, (1, 4, 7))
    want = dense_hilbert(mckay.adjacency, 120, True)
    assert cy3_hilbert(mckay, 120, column=0).mats == _cut(want, 0)
    assert cy3_hilbert(mckay, 120).mats == want
    assert products == [np.float64] * (2 * math.ceil(120 / math.isqrt(120)))
    products.clear()
    k5 = _weighted_complete(5, 1, 1)
    hs = _solve(Graph("K5", tuple(range(5)), _out_edges(k5), 0, symmetric=True), False, 100)
    assert hs == dense_hilbert(k5, 100)
    assert products == [np.float64, np.float64]
    products.clear()
    a8 = by_id("A(8)")
    assert _solve(a8, False, 400, (9, _out_edges(mat_identity(8)))) == \
        dense_hilbert(a8.adjacency, 400, False, (9, mat_identity(8)))
    assert products == [np.float64] * math.ceil(391 / math.isqrt(391))
    products.clear()
    hilbert_su2(g, 23)
    hilbert_su2(by_id("E(8)"), 120)
    hilbert_su3(by_id("SU3-A(6)"), order=60)
    assert products == []


@pytest.mark.parametrize("elements", [1, 100])
def test_row_chunked_gathers_equal_the_dense_oracle(monkeypatch, elements):
    """With a gather of one row, or of a few, at a time, each chunk is summed
    into the ring slot it shares with X_{k-deg}, whose other rows the later
    chunks still read."""
    monkeypatch.setattr(_recurrence, "_GATHER_ELEMENTS", elements)
    g = by_id("SU3-A(6)")
    minus_p = mat_scale(-1, su3_rotation(g))
    hs = hilbert_su3(g, order=18)
    assert hs.mats == dense_hilbert(g.adjacency, 18, True, (6, minus_p))
    assert _numerator_is(su3_numerator(hs, g), g.n_vertices, 6, minus_p)
    g = by_id("Aff-D(5)")
    hs = hilbert_su2(g, 30)
    assert hs.mats == dense_hilbert(g.adjacency, 30)
    assert _numerator_is(su2_numerator(hs, g), g.n_vertices)


@pytest.mark.parametrize("gid, order", [("D(12)", 160), ("E(8)", 120), ("SU3-A(21)", 63)])
def test_a_series_that_ends_holds_only_its_blocks_up_to_the_numerator_degree(gid, order):
    """The array behind the blocks of a series that ends holds deg + h + 1
    blocks: the deg zero blocks before H_0, then H_0 .. H_h."""
    g = by_id(gid)
    directed = not g.symmetric
    hs = hilbert_su3(g, order=order) if directed else hilbert_su2(g, order)
    assert hs.tail > 0
    assert len(hs.blocks.base) <= (3 if directed else 2) + g.coxeter_h + 1


def test_a_long_terminating_solve_holds_only_its_ring_and_one_zero_block():
    """SU3-A(12) terminates early, so 10 001 blocks are mostly the one
    shared zero block; an (order + 1)-block int64 stack would be 487 MB."""
    import tracemalloc

    g = by_id("SU3-A(12)")
    hilbert_su3(g, order=12)
    tracemalloc.start()
    try:
        hs = hilbert_su3(g, order=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert hs.mats[-1] is hs.mats[-2]
    assert hs.mats[-1] == mat_zero(g.n_vertices)


# -- the block array and the tuple rows read from it ------------------------------

def _solved_cases():
    """(graph, directed, series, the dense oracle's matrices) for full solves
    that terminate, that do not, and that pass int64 on the way, and for
    column solves."""
    cases = []
    for gid in ("A(5)", "E(6)"):
        g = by_id(gid)
        h, p = g.coxeter_h, su2_involution(g)
        cases.append((g, False, hilbert_su2(g, 4 * h),
                      dense_hilbert(g.adjacency, 4 * h, False, (h, p))))
    g = by_id("SU3-A(6)")
    cases.append((g, True, hilbert_su3(g, order=18),
                  dense_hilbert(g.adjacency, 18, True, (6, mat_scale(-1, su3_rotation(g))))))
    g = by_id("Aff-D(5)")
    cases.append((g, False, hilbert_su2(g, 30), dense_hilbert(g.adjacency, 30)))
    g = abelian_mckay(5, (1, 1, 3))
    cases.append((g, True, cy3_hilbert(g, 12), dense_hilbert(g.adjacency, 12, True)))
    sym, digraph = _weighted_complete(5, 2, 2), _weighted_complete(5, 2, 1)
    g = Graph("sym", tuple(range(5)), _out_edges(sym), 0, symmetric=True)
    cases.append((g, False, hilbert_su2(g, 40), dense_hilbert(sym, 40)))
    g = Graph("digraph", tuple(range(5)), _out_edges(digraph), 0, symmetric=False)
    cases.append((g, True, cy3_hilbert(g, 40, column=2), _cut(dense_hilbert(digraph, 40, True), 2)))
    g = by_id("A(5)")
    cases.append((g, False, hilbert_su2(g, 24, column=1),
                  _cut(dense_hilbert(g.adjacency, 24, False, (6, su2_involution(g))), 1)))
    return cases


def test_a_solved_series_reads_the_same_as_its_list_of_matrices():
    """A solve's block array with its zero tail, and the same series built
    from its list of matrices, agree with the dense oracle on every reading:
    the rows, each entry, H(1), the JSON text and both numerator products."""
    for g, directed, hs, want in _solved_cases():
        listed = MatrixSeries(hs.graph_id, hs.mats, column=hs.column)
        assert hs.mats == listed.mats == want, g.id
        assert hs.order == listed.order == len(want) - 1
        for i in range(g.n_vertices):
            for j in range(g.n_vertices) if hs.column is None else [hs.column]:
                col = j if hs.column is None else 0
                assert hs.entry(i, j) == listed.entry(i, j)
                assert hs.entry(i, j).coeffs == [m[i][col] for m in want]
        assert hs.total_at_one() == listed.total_at_one() == sum(map(sum, sum(want, ())))
        blob = {"graph_id": g.id, "variable": "t", "order": len(want) - 1,
                "coefficient_matrices": [[list(r) for r in m] for m in want]}
        if hs.column is not None:
            blob["column"] = hs.column
        text = json.dumps(blob, indent=1, sort_keys=True)
        assert json.dumps(hs.to_json(), indent=1, sort_keys=True) == text
        assert json.dumps(listed.to_json(), indent=1, sort_keys=True) == text
        multiply = su3_numerator if directed else su2_numerator
        assert multiply(hs, g) == multiply(listed, g) == dense_numerator(g.adjacency, want, directed)


@pytest.mark.parametrize("elements", [1, 100])
def test_the_batched_numerator_product_equals_the_per_degree_oracle(monkeypatch, elements):
    """One gather over all degrees, cut into chunks of one row or of a few,
    on the solved series and on lists of small random matrices, whose
    products are not 1 + P t^h."""
    monkeypatch.setattr(_recurrence, "_GATHER_ELEMENTS", elements)
    rng = random.Random(19)
    for g, directed, hs, want in _solved_cases():
        multiply = su3_numerator if directed else su2_numerator
        assert multiply(hs, g) == dense_numerator(g.adjacency, want, directed), g.id
        n, w = g.n_vertices, len(want[0][0])
        noise = [tuple(tuple(rng.randint(-3, 3) for _ in range(w)) for _ in range(n))
                 for _ in range(9)]
        column = None if hs.column is None else hs.column
        assert (multiply(MatrixSeries(g.id, noise, column=column), g)
                == dense_numerator(g.adjacency, noise, directed))


def test_a_full_solve_builds_its_tuple_rows_only_when_read():
    g = by_id("SU3-A(7)")
    hs = hilbert_su3(g, order=21)
    assert hs.order == 21 and hs.entry(0, 0).coeffs[0] == 1
    hs.total_at_one()
    hs.to_json()
    su3_numerator(hs, g)
    assert "mats" not in hs.__dict__
    mats = hs.mats
    assert hs.mats is mats
    assert mats[-1] is mats[-2]


@pytest.mark.parametrize("other", ["A(2)", "A(4)"])
@pytest.mark.parametrize("column", [None, 1])
def test_a_numerator_product_rejects_a_series_of_another_size(other, column):
    hs = hilbert_su2(by_id("A(3)"), 6, column=column)
    with pytest.raises(InvalidParameterError, match="blocks"):
        su2_numerator(hs, by_id(other))
    su3 = hilbert_su3(by_id("SU3-A(5)"), order=6, column=column)
    with pytest.raises(InvalidParameterError, match="blocks"):
        su3_numerator(su3, by_id("SU3-A(4)" if other == "A(2)" else "SU3-A(6)"))


def test_a_full_product_rejects_column_blocks_and_ragged_matrices():
    g = by_id("A(3)")
    with pytest.raises(InvalidParameterError, match="blocks"):
        su2_numerator(MatrixSeries(g.id, hilbert_su2(g, 6, column=1).mats), g)
    with pytest.raises(InvalidParameterError, match="equal-shaped"):
        MatrixSeries(g.id, [mat_identity(3), mat_identity(2)])


@pytest.mark.parametrize("column", [None, 1])
def test_fewer_zero_blocks_than_the_denominator_degree_do_not_end_the_series(column):
    """With no edges, H = 1/(1 - t^3) and 1/(1 + t^2): one or two zero
    blocks in a row, then a nonzero one."""
    g = Graph("empty", (0, 1, 2), ((), (), ()), 0, coxeter_h=4, symmetric=True)
    empty = mat_zero(3)
    cut = _cut if column is not None else (lambda mats, c: mats)
    assert cy3_hilbert(g, 9, column=column).mats == cut(dense_hilbert(empty, 9, True), column)
    assert _solve(g, False, 7, column=column) == cut(dense_hilbert(empty, 7), column)
    assert _solve(g, False, 7, column=column)[6] == cut([mat_scale(-1, mat_identity(3))], column)[0]
    with pytest.raises(FailedIdentityError):
        hilbert_su2(g, 2, column=column)
    # N = 1 - t^4 over 1 - t^3: zero at degrees 1 and 2, then 1 and -1 at 3 and 4
    minus_one = mat_scale(-1, mat_identity(3))
    assert (_solve(g, True, 9, (4, _out_edges(minus_one)), column)
            == cut(dense_hilbert(empty, 9, True, (4, minus_one)), column))

# -- T and Theta series -------------------------------------------------------

T_IDS = ["A(2)", "A(5)", "D(4)", "D(7)", "E(6)", "E(7)", "E(8)",
         "Aff-A(4)", "Aff-A(8)", "Aff-D(4)", "Aff-D(7)",
         "Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]


@pytest.mark.parametrize("gid", T_IDS)
def test_t_series_three_routes(gid):
    cf = t_series(gid, 30, "closed_form")
    ms = t_series(gid, 30, "measure")
    fc = t_series(gid, 30, "f_compose")
    assert cf.coeffs == ms.coeffs        # exact: all routes are rational here
    assert cf.coeffs == fc.coeffs


def test_t_closed_form_values():
    t = t_series("A(2)", 8, "closed_form")
    assert t.coeffs == [1, 0, -1, 1, 0, -1, 1, 0, -1]
    e8 = t_series("Aff-E(8)", 16, "closed_form")
    assert e8.coeffs[:7] == [1, 0, 0, 0, 0, 0, 1]
    assert e8.coeffs[10] == 1 and e8.coeffs[15] == 1 and e8.coeffs[16] == 1


def test_t_series_unknown_closed_form():
    with pytest.raises(InvalidParameterError):
        t_series("Trunc-Ainf(8)", 10, "closed_form")


def _cycle_adjacency(n):
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        adjacency[i][(i + 1) % n] += 1
        adjacency[(i + 1) % n][i] += 1
    return tuple(map(tuple, adjacency))


@pytest.mark.parametrize("n", range(2, 16))
def test_every_cycle_is_one_family_row(n):
    """Aff-A(n) is the n-cycle for either parity; its T row equals the loop
    count route, and its canonical measure's exact moments equal its path
    counts (odd orders included, which are nonzero on an odd cycle)."""
    gid = f"Aff-A({n})"
    g = by_id(gid)
    assert g.adjacency == _cycle_adjacency(n) and g.distinguished == 0
    assert t_closed_form(gid, 30).coeffs == t_series(gid, 30, "f_compose").coeffs
    mu = canonical_measure(gid)
    counts = moments(g, [(m, 0) for m in range(13)])
    assert [moment_t_exact(mu, m) for m in range(13)] == [counts[(m, 0)] for m in range(13)]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_the_measure_route_refuses_an_odd_cycle(n):
    # u^n has a nonzero integral on the n-th roots, so T(q^2) has odd terms
    with pytest.raises(FailedIdentityError):
        t_series(f"Aff-A({n})", 6, "measure")


def test_theta_routes_agree():
    for gid in ["A(3)", "A(6)", "E(6)", "Aff-A(4)", "Aff-E(6)"]:
        tm = theta_series(gid, 12, "measure")
        tf = theta_series(gid, 12, "f")
        assert tm.coeffs == tf.coeffs
        assert tm.coeffs[0] == 1


@pytest.mark.parametrize("gid", T_IDS)
def test_theta_is_read_off_the_circle_series(gid):
    """Theta(q^2) = 2 G(q) + q^2 - 1, G the circle series of the canonical
    measure, exactly on both routes."""
    order = 12
    want = [2 * c for c in circle_series(canonical_measure(gid), 2 * order)]
    want[0] -= 1
    want[2] += 1
    for route in ("measure", "f"):
        assert theta_series(gid, order, route).substitute_q_squared(2 * order).coeffs == want


def test_theta_of_infinite_graphs():
    # the half-line graph carries only the lowest-weight module ...
    th = theta_series("Trunc-Ainf(26)", 10, "f")
    assert th.coeffs == [1] + [0] * 10
    # ... while the line graph adds one copy at weight one
    th2 = theta_series("Trunc-Ainfinf(26)", 10, "f")
    assert th2.coeffs == [1, 1] + [0] * 9


def test_generalized_t_equals_hilbert():
    for gid in ["Aff-A(4)", "Aff-D(5)", "Aff-E(6)", "Aff-E(8)"]:
        g = by_id(gid)
        hs = hilbert_su2(g, 24)
        gt = generalized_t(g, 24)
        assert all(hs.mats[k] == gt.mats[k] for k in range(25))


@settings(max_examples=100, deadline=None)
@given(weighted_adjacency(symmetric=True), st.integers(0, 9))
def test_generalized_t_matches_the_fraction_route_and_hilbert(adjacency, order):
    g = Graph("sym", tuple(range(len(adjacency))), _out_edges(adjacency), 0, symmetric=True)
    mats = generalized_t(g, order).mats
    assert mats == fraction_generalized_t(adjacency, order)
    assert mats == dense_hilbert(adjacency, order)
    hs = _outcome(lambda: hilbert_su2(g, order).mats)
    assert hs is FailedIdentityError or hs == mats


@pytest.mark.parametrize("build, order", [
    (lambda: by_id("Aff-E(8)"), 48),
    (lambda: Graph("heavy", tuple(range(4)), _out_edges(_weighted_complete(4, 3, 3)), 0,
                   symmetric=True), 30),
], ids=["Aff-E(8)", "past-int64"])
def test_generalized_t_past_the_int64_bound_equals_the_fraction_route(build, order):
    """On Aff-E(8) (r = 3) the bound sum_k |c_dk| 3^k passes 2**63 at degree
    37 while every entry stays small; on the weighted K4 (r = 9) the entries
    themselves pass 2**63, so int64 sums would wrap."""
    g = build()
    gt = generalized_t(g, order)
    assert gt.blocks.dtype == object
    assert gt.mats == fraction_generalized_t(g.adjacency, order)
    if g.id == "heavy":
        assert max(gt.mats[order][0]) > 2 ** 63


def test_generalized_t_star_entry_is_scalar_t():
    g = by_id("Aff-E(6)")
    gt = generalized_t(g, 24)
    entry = gt.entry(g.distinguished, g.distinguished)
    t2 = t_series("Aff-E(6)", 12, "f_compose").substitute_q_squared(24)
    assert entry.coeffs == t2.coeffs


def test_four_cycle_hilbert_diagonal():
    # cross-checked against the Molien series of the order-4 cyclic subgroup:
    # (1/4)[(1-t)^-2 + 2/(1+t^2) + (1+t)^-2] = 1 + t^2 + 3t^4 + ...
    g = by_id("Aff-A(4)")
    hs = hilbert_su2(g, 6)
    star = g.distinguished
    assert hs.entry(star, star).coeffs[:6] == [1, 0, 1, 0, 3, 0]


# -- Kostant ------------------------------------------------------------------

def test_kostant_parameters():
    assert kostant_parameters("E(6)") == (6, 8)
    assert kostant_parameters("E(7)") == (8, 12)
    assert kostant_parameters("E(8)") == (12, 20)
    assert kostant_parameters("A(4)") == (2, 5)
    assert kostant_parameters("D(6)") == (4, 8)


@pytest.mark.parametrize("k", range(1, 21))
def test_the_a_partner_is_the_catalogue_cycle(k):
    partner = kostant_affine_partner(f"A({k})")
    assert partner.id == f"Aff-A({k + 1})"
    rebuilt = by_id(partner.id)
    assert (rebuilt.out_edges, rebuilt.distinguished) == (partner.out_edges, partner.distinguished)
    assert partner.adjacency == _cycle_adjacency(k + 1)


def test_kostant_ab_consistency():
    # a + b = h + 2 and a b = 2 |Gamma| on the exceptional diagrams
    for gid, order in [("E(6)", 24), ("E(7)", 48), ("E(8)", 120)]:
        a, b = kostant_parameters(gid)
        g = by_id(gid)
        assert a + b == g.coxeter_h + 2
        assert a * b == 2 * order


@pytest.mark.parametrize("gid", ["E(6)", "E(7)", "E(8)", "A(3)", "A(4)", "A(5)",
                                 "D(4)", "D(5)", "D(6)"])
def test_kostant_numerators_are_polynomials(gid):
    zs = kostant_closed_form_check(gid)
    a, b = kostant_parameters(gid)
    for z in zs:
        assert len(z.coeffs) <= a + b - 1
        assert all(isinstance(c, (int, Fraction)) for c in z.coeffs)


def test_kostant_e6_identity_numerator():
    zs = kostant_closed_form_check("E(6)")
    z_star = zs[0]           # the affine graph lists the extended vertex first
    assert z_star.coeffs[0] == 1 and z_star.coeffs[12] == 1
    assert all(c == 0 for c in z_star.coeffs[1:12])


def test_g_composition_route_is_stable():
    grp = generate_group("BI")
    cd = class_data(grp)
    comp = g_composition_route(cd, 40)
    g = by_id("Aff-E(8)")
    hid = hilbert_su2(g, 40).entry(g.distinguished, g.distinguished)
    assert comp.max_difference(hid) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), st.floats(-2, 2)), min_size=1, max_size=5),
       st.integers(0, 14))
def test_g_composition_route_matches_the_fraction_route(rows, order):
    cd = ClassData("G", tuple(ClassRow(f"c{i}", size, chi)
                              for i, (size, chi) in enumerate(rows)))
    n, scale = cd.order, 10 ** 40
    g = [sum(Fraction(size, n) * Fraction(round(chi * scale), scale) ** k
             for size, chi in rows) for k in range(order + 1)]
    t = [Fraction(0), Fraction(1)] + [Fraction(0)] * order
    one_t2 = [Fraction(1), Fraction(0), Fraction(1)] + [Fraction(0)] * order
    over_one_t2 = fraction_inverse(one_t2[: order + 1])
    composed = fraction_mul(horner_compose(g, fraction_mul(t, over_one_t2)), over_one_t2)
    assert g_composition_route(cd, order).coeffs == [float(c) for c in composed]


@pytest.mark.parametrize("name,n", [("BD", n) for n in range(5, 9)]
                         + [("Z2n", n) for n in range(3, 9)])
def test_g_composition_route_is_the_float_of_the_quadratic_class_sum(name, n):
    """(1 + t^2)^{-1} G(t / (1 + t^2)) = sum_r (size_r / |G|) / (1 - chi_r t + t^2)
    for the rationalized characters, summed in Fractions and rounded once."""
    cd = class_data(generate_group(name, n))
    scale = 10 ** 40
    rows = [(r.size, Fraction(round(r.chi_rho * scale), scale)) for r in cd.rows]
    want = [float(c) for c in quadratic_class_sum(rows, 60)]
    assert g_composition_route(cd, 60).coeffs == want


def test_f_compose_substitutions_are_the_series_inverses():
    from nimspec.series import _over_one_plus_q, _w_substitution

    order = 20
    one_plus_q = [Fraction(1), Fraction(1)] + [Fraction(0)] * (order - 1)
    q = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    assert _over_one_plus_q(order).coeffs == fraction_inverse(one_plus_q)
    assert _w_substitution(order).coeffs == fraction_mul(
        q, fraction_inverse(fraction_mul(one_plus_q, one_plus_q)))


# -- order guards and input checks -------------------------------------------

def _bi_class_data():
    return class_data(generate_group("BI"))


@pytest.mark.parametrize("call", [
    lambda: generalized_t(by_id("Aff-A(4)"), -1),
    lambda: g_composition_route(_bi_class_data(), -1),
    lambda: rational_series([(-1, 2)], [(-1, 3)], -1),
    lambda: poly_from_factors([(-1, 2)], -1),
    lambda: molien_abelian(3, (1, 1, 1), 0, -1),
    lambda: molien_abelian_det(3, (1, 1, 1), 0, -1),
], ids=["generalized_t", "g_composition_route", "rational_series",
        "poly_from_factors", "molien_abelian", "molien_abelian_det"])
def test_negative_order_is_rejected(call):
    with pytest.raises(InvalidParameterError):
        call()


@pytest.mark.parametrize("m", [0, -3])
def test_molien_abelian_rejects_a_nonpositive_group_order(m):
    for route in (molien_abelian, molien_abelian_det):
        with pytest.raises(InvalidParameterError):
            route(m, (1, 1, 1), 0, 4)


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 1, 0), 5])
@pytest.mark.parametrize("call", [
    lambda w: abelian_mckay(3, w),
    lambda w: molien_abelian(3, w, 0, 4),
    lambda w: molien_abelian_det(3, w, 0, 4),
], ids=["abelian_mckay", "molien_abelian", "molien_abelian_det"])
def test_weights_that_are_not_a_triple_are_rejected(call, weights):
    with pytest.raises(InvalidParameterError, match="weights"):
        call(weights)


@pytest.mark.parametrize("gid", ["A(3)", "D(5)", "Aff-E(6)"])
def test_theta_routes_agree_at_order_zero(gid):
    assert theta_series(gid, 0, "f").coeffs == theta_series(gid, 0, "measure").coeffs == [1]


@pytest.mark.parametrize("factors", [[(1, 0)], [(-1, 2), (1, -1)]])
def test_poly_from_factors_rejects_nonpositive_exponents(factors):
    with pytest.raises(InvalidParameterError):
        poly_from_factors(factors, 6)


@pytest.mark.parametrize("gid,order", [("E(6)", 3), ("E(6)", 12), ("A(3)", 2), ("D(4)", 0)])
def test_kostant_check_rejects_an_order_too_short_to_check(gid, order):
    with pytest.raises(InvalidParameterError):
        kostant_closed_form_check(gid, order)


def test_kostant_check_at_the_shortest_order():
    a, b = kostant_parameters("E(6)")
    assert kostant_closed_form_check("E(6)", a + b - 1) == kostant_closed_form_check("E(6)")
