"""The id families: every entry point that takes a graph id agrees with the
FAMILIES table on which ids exist, and rejects the rest with a typed error."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimspec.cli import main
from nimspec.errors import (
    DataUnavailableError,
    InvalidParameterError,
    NimspecError,
    NoClosedFormError,
)
from nimspec.graphs import FAMILIES, by_id, eigendata, parse_id
from nimspec.measures import canonical_measure, exceptional_measure_atoms, moments_t, moments_t2
from nimspec.series import kostant_affine_partner, kostant_parameters, t_closed_form

# Stated here independently of the library's own tables.
HAS_MEASURE = {"A", "D", "E", "Aff-A", "Aff-D", "Aff-E", "SU3-A", "SU3-D", "SU3-Astar"}
HAS_T_CLOSED_FORM = {"A", "D", "E", "Aff-A", "Aff-D", "Aff-E"}
HAS_KOSTANT = {"A", "D", "E"}
UNTABULATED = {"SU3-E(24)"}

ROUTES = {
    "by_id": by_id,
    "eigendata": eigendata,
    "canonical_measure": canonical_measure,
    "t_closed_form": lambda gid: t_closed_form(gid, 8),
    "kostant_parameters": kostant_parameters,
    "kostant_affine_partner": kostant_affine_partner,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_route_follows_the_family_row(name):
    family = FAMILIES[name]
    for n in range(-3, 16):
        gid = f"{name}({n})"
        if not family.accepts(n):
            for route in ROUTES.values():
                with pytest.raises(InvalidParameterError):
                    route(gid)
            continue
        assert parse_id(gid) == (name, n)
        if family.graph is None:
            with pytest.raises(DataUnavailableError):
                by_id(gid)
        else:
            g = by_id(gid)
            assert (g.id, g.family) == (gid, name)
        if family.eigen is not None and gid not in UNTABULATED:
            assert eigendata(gid).total_mass() == pytest.approx(1.0, abs=1e-12)
        else:
            with pytest.raises(DataUnavailableError):
                eigendata(gid)
        if name in HAS_MEASURE:
            assert canonical_measure(gid).total_mass() == pytest.approx(1.0, abs=1e-9)
        else:
            with pytest.raises((InvalidParameterError, NoClosedFormError)):
                canonical_measure(gid)
        if name in HAS_T_CLOSED_FORM:
            assert t_closed_form(gid, 8).coeffs[0] == 1
        else:
            with pytest.raises(InvalidParameterError):
                t_closed_form(gid, 8)
        if name in HAS_KOSTANT:
            a, b = kostant_parameters(gid)
            assert kostant_affine_partner(gid).n_vertices > 0 and a * b > 0
        else:
            for route in (kostant_parameters, kostant_affine_partner):
                with pytest.raises(InvalidParameterError):
                    route(gid)


@pytest.mark.parametrize("gid", ["A(0)", "D(2)", "D(3)", "E(9)", "Aff-A(1)", "Aff-D(3)",
                                 "Aff-E(9)", "SU3-A(3)", "SU3-D(7)"])
def test_out_of_domain_ids_are_rejected_everywhere(gid):
    for route in ROUTES.values():
        with pytest.raises(InvalidParameterError):
            route(gid)


def test_kostant_needs_an_ade_id():
    with pytest.raises(InvalidParameterError):
        kostant_affine_partner("Aff-E(6)")
    with pytest.raises(InvalidParameterError):
        kostant_parameters("Aff-E(6)")


def test_parse_id_without_check_only_splits():
    assert parse_id("BD(8)", check=False) == ("BD", 8)
    with pytest.raises(InvalidParameterError):
        parse_id("BD(8)")
    for junk in ["BD(x)", "A(5)\n", "A5", "(5)", "A(5))"]:
        with pytest.raises(InvalidParameterError):
            parse_id(junk, check=False)


# -- property: typed errors only, never a traceback ---------------------------

def _family_arg(name):
    # Trunc-SU3A6inf(n) has 3n(n+1)+1 vertices, and `export graph:` writes its
    # dense adjacency as JSON (test_export_of_any_id_exits_0_or_2), which
    # passes 100 MB beyond n = 20; every other family stays small up to 40.
    return st.integers(-3, 20 if name == "Trunc-SU3A6inf" else 40)


ids = st.one_of(
    st.sampled_from(sorted(FAMILIES) + ["Foo", "Aff", "SU3"]).flatmap(
        lambda name: _family_arg(name).map(lambda n: f"{name}({n})")
    ),
    st.text(max_size=12),
)


def _canonical_moment_1_1(gid):
    """R_{1,1} of the canonical measure, in its family's chart."""
    mu = canonical_measure(gid)
    if mu.dimension == 2:
        return moments_t2(mu, [(1, 1)])
    return moments_t(mu, [2], shift=1 if parse_id(gid)[0] == "SU3-Astar" else 0)


LIBRARY_ROUTES = list(ROUTES.values()) + [
    parse_id,
    _canonical_moment_1_1,
    exceptional_measure_atoms,
]


@settings(max_examples=150, deadline=None)
@given(ids)
def test_library_id_routes_raise_only_typed_errors(gid):
    for route in LIBRARY_ROUTES:
        try:
            route(gid)
        except NimspecError:
            pass


EXPORT_KINDS = ["graph:", "eigendata:", "measure:", "moments:", "series:T:",
                "series:Theta:", "series:hilbert:"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EXPORT_KINDS), ids)
def test_export_of_any_id_exits_0_or_2(kind, gid):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["export", kind + gid, "--depth", "1", "--order", "6"])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
