import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nimspec.cli import main
from nimspec.errors import DataIntegrityError, InvalidParameterError, NimspecError
from nimspec.graphs import by_id
from nimspec.paths import moment_path_count
from nimspec.series import hilbert_su2, rational_series
from nimspec.subgroups import (
    FiniteMatrixGroup,
    _gen_matrices,
    class_data,
    conjugacy_classes,
    generate_group,
    kostant_trivial,
    molien_series_trivial,
    reference_table,
    subgroup_moment,
)

from oracles import loop_conjugacy_classes, loop_generate_group

ORDERS = [("Z2n", 2, 4), ("Z2n", 3, 6), ("BD", 4, 8), ("BD", 5, 12),
          ("BT", None, 24), ("BO", None, 48), ("BI", None, 120)]


@pytest.mark.parametrize("name,n,order", ORDERS)
def test_group_orders(name, n, order):
    g = generate_group(name, n)
    assert g.order == order
    for el in g.elements:
        assert abs(np.linalg.det(el) - 1) < 1e-10


def test_bad_parameters():
    with pytest.raises(InvalidParameterError):
        generate_group("Z2n", 0)
    with pytest.raises(InvalidParameterError):
        generate_group("BD", 2)


def test_bt_class_table():
    cd = class_data(generate_group("BT"))
    assert [r.size for r in cd.rows] == [1, 1, 6, 4, 4, 4, 4]
    assert [r.chi_rho for r in cd.rows] == [2, -2, 0, 1, -1, -1, 1]


def test_bi_class_table_golden_ratio():
    cd = class_data(generate_group("BI"))
    mu_p = (1 + math.sqrt(5)) / 2
    assert any(abs(r.chi_rho - mu_p) < 1e-9 for r in cd.rows)
    assert [r.size for r in cd.rows] == [1, 1, 12, 12, 12, 12, 30, 20, 20]


def test_z4_classes():
    cd = class_data(generate_group("Z2n", 2))
    assert [r.size for r in cd.rows] == [1, 1, 1, 1]
    assert sorted(round(r.chi_rho) for r in cd.rows) == [-2, 0, 0, 2]


def test_class_sizes_sum_to_order():
    for name, n, order in ORDERS:
        cd = class_data(generate_group(name, n))
        assert cd.order == order
        assert all(-2 - 1e-12 <= r.chi_rho <= 2 + 1e-12 for r in cd.rows)


def test_theta_column():
    cd = class_data(generate_group("BT"))
    thetas = {r.label: r.theta for r in cd.rows}
    assert thetas["1"] == pytest.approx(0.0)
    assert thetas["-1"] == pytest.approx(0.5)
    assert thetas["tau"] == pytest.approx(0.25)
    assert thetas["mu"] == pytest.approx(1 / 6)


GROUP_GRAPH = [("Z2n", 2, "Aff-A(4)"), ("Z2n", 3, "Aff-A(6)"),
               ("BD", 4, "Aff-D(4)"), ("BD", 5, "Aff-D(5)"),
               ("BT", None, "Aff-E(6)"), ("BO", None, "Aff-E(7)"),
               ("BI", None, "Aff-E(8)")]


@pytest.mark.parametrize("name,n,gid", GROUP_GRAPH)
def test_subgroup_moments_match_mckay_graph(name, n, gid):
    cd = class_data(generate_group(name, n))
    g = by_id(gid)
    for m in range(13):
        assert abs(subgroup_moment(cd, m) - moment_path_count(g, m)) < 1e-9


def test_moment_examples():
    bt = class_data(generate_group("BT"))
    assert subgroup_moment(bt, 2) == pytest.approx(1.0)
    assert subgroup_moment(bt, 0) == pytest.approx(1.0)
    z4 = class_data(generate_group("Z2n", 2))
    assert subgroup_moment(z4, 2) == pytest.approx(2.0)


def test_moment_generating_series_examples():
    """The moment series' coefficients, read off subgroup_moment."""
    bt = class_data(generate_group("BT"))
    assert [round(subgroup_moment(bt, k)) for k in range(5)] == [1, 0, 1, 0, 2]
    z4 = class_data(generate_group("Z2n", 2))
    assert [round(subgroup_moment(z4, k)) for k in range(3)] == [1, 0, 2]


def test_molien_matches_closed_forms():
    cases = [("BT", [(1, 12)], [(-1, 6), (-1, 8)]),
             ("BI", [(1, 30)], [(-1, 12), (-1, 20)])]
    for name, num, den in cases:
        grp = generate_group(name)
        mol = molien_series_trivial(grp, 40)
        closed = rational_series(num, den, 40)
        assert mol.max_difference(closed) < 1e-9
        assert mol.coeffs[0] == pytest.approx(1.0)


def test_kostant_equals_molien_and_hilbert():
    for name, n, gid in GROUP_GRAPH:
        grp = generate_group(name, n)
        cd = class_data(grp)
        kost = kostant_trivial(cd, 40)
        mol = molien_series_trivial(grp, 40)
        assert kost.max_difference(mol) < 1e-9
        g = by_id(gid)
        hid = hilbert_su2(g, 40).entry(g.distinguished, g.distinguished)
        assert kost.max_difference(hid) < 1e-9


def test_table_mismatch_detection():
    # a deliberately wrong reference row must be flagged, not silently used
    rows = reference_table("BT")
    assert rows[2][1] == 6


def _same_closure_and_partition(name, n):
    grp = generate_group(name, n)
    want = loop_generate_group(_gen_matrices(name, n))
    assert [g.tobytes() for g in grp.elements] == [g.tobytes() for g in want]
    position = {g.tobytes(): i for i, g in enumerate(grp.elements)}
    classes = [[position[g.tobytes()] for g in c] for c in conjugacy_classes(grp)]
    assert classes == loop_conjugacy_classes(want)


@settings(max_examples=5, deadline=None)
@given(st.integers(1, 30))
@example(30)
def test_cyclic_closure_and_classes_match_the_loops(n):
    """Same elements bit for bit and in the same order, and the same class
    partition, as the one-product-at-a-time loops."""
    _same_closure_and_partition("Z2n", n)


@settings(max_examples=5, deadline=None)
@given(st.integers(3, 30))
@example(30)
def test_binary_dihedral_closure_and_classes_match_the_loops(n):
    _same_closure_and_partition("BD", n)


@pytest.mark.parametrize("name", ["BT", "BO", "BI"])
def test_exceptional_closure_and_classes_match_the_loops(name):
    _same_closure_and_partition(name, None)


def test_an_element_list_not_closed_under_conjugation_is_a_typed_error():
    i, j = np.eye(2, dtype=complex), np.array([[0, 1], [-1, 0]], dtype=complex)
    grp = FiniteMatrixGroup("BD", 3, (i, j, np.diag([1j, -1j])), (j,))
    with pytest.raises(DataIntegrityError, match=r"BD\(3\)"):
        conjugacy_classes(grp)


# -- group ids ----------------------------------------------------------------

@pytest.mark.parametrize("name,n", [("BD", None), ("Z2n", None), ("BD", 2), ("Z2n", 0),
                                   ("BT", 5), ("BI", 0), ("Foo", None), ("Z2n", "3"),
                                   ("BD", 3.5), ("Z2n", True)])
def test_group_ids_outside_their_domain_are_rejected(name, n):
    for route in (generate_group, reference_table):
        with pytest.raises(InvalidParameterError):
            route(name, n)


@pytest.mark.parametrize("call", [
    lambda cd, grp: subgroup_moment(cd, -1),
    lambda cd, grp: kostant_trivial(cd, -1),
    lambda cd, grp: molien_series_trivial(grp, -1),
], ids=["subgroup_moment", "kostant_trivial", "molien_series_trivial"])
@pytest.mark.parametrize("name,n", [("BT", None), ("Z2n", 3)])
def test_negative_orders_are_rejected(call, name, n):
    grp = generate_group(name, n)
    with pytest.raises(InvalidParameterError, match="non-negative"):
        call(class_data(grp), grp)


# Stated here independently of the library's own table of groups.
GROUP_DOMAINS = {
    "Z2n": lambda n: n is not None and n >= 1,
    "BD": lambda n: n is not None and n >= 3,
    "BT": lambda n: n is None,
    "BO": lambda n: n is None,
    "BI": lambda n: n is None,
}

group_ids = st.tuples(
    st.sampled_from(sorted(GROUP_DOMAINS) + ["Foo", "BX"]),
    st.none() | st.integers(-3, 30),
)


@settings(max_examples=100, deadline=None)
@given(group_ids)
@example(("BT", 5))
@example(("BD", None))
def test_classdata_export_follows_the_group_domains(name_n):
    name, n = name_n
    in_domain = name in GROUP_DOMAINS and GROUP_DOMAINS[name](n)
    gid = name if n is None else f"{name}({n})"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["export", f"classdata:{gid}"])
    assert code == (0 if in_domain else 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    for route in (generate_group, reference_table):
        try:
            route(name, n)
        except NimspecError:
            assert not in_domain
        else:
            assert in_domain
