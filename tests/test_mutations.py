"""A mutation table for the verification suites: each row patches one kernel
on the module that defines it and names the cases that must then fail.

A row runs only the suites it names.  Before it runs them, it checks that
the patch really changed the kernel's output, so that no row can pass with
a patch that reaches nothing.  The failing cases must be exactly the ones
the row names: a case that a patch of its own route does not fail is a case
that cannot fail."""

import dataclasses
from typing import Callable, NamedTuple, Tuple

import numpy as np
import pytest

from nimspec import _recurrence, deltoid, graphs, paths, series, suites


class Row(NamedTuple):
    patch: Callable                  # patch(monkeypatch) applies the mutation
    probe: Callable                  # probe() reads the kernel the patch changes
    suites: Tuple[str, ...]
    must_fail: Callable[[str], bool]  # the case ids the row fails


_real_moments = paths.moments


def _plus_one_at_order_two(graph, pairs):
    """paths.moments with +1 on every count of m + n = 2."""
    return {mn: v + (sum(mn) == 2) for mn, v in _real_moments(graph, pairs).items()}


def _patch_moments(*modules):
    def patch(monkeypatch):
        for module in modules:
            monkeypatch.setattr(module, "moments", _plus_one_at_order_two, raising=False)
    return patch


# every case that reads a count of m + n = 2
_MOMENT_CASES = (
    "su2-measures:binomial-catalan-dimensions", "su2-measures:measure-vs-path:",
    "su2-measures:eigendata-vs-path:",
    "su2-subgroups:", "series-theorems:T-series:", "su3-dimensions:moments:",
    "su3-dimensions:five-way-identity:n=1", "su3-measures:measure:SU3-A(",
    "su3-measures:measure:SU3-Astar(",
)
_MOMENT_SUITES = ("su2-measures", "su2-subgroups", "series-theorems", "su3-dimensions",
                  "su3-measures")


def _far_end_loop(monkeypatch):
    """A^(l)* with a loop at the far end for odd l too, as for even l."""
    family = graphs.FAMILIES["SU3-Astar"]
    monkeypatch.setitem(graphs.FAMILIES, "SU3-Astar", dataclasses.replace(
        family, graph=lambda l: graphs._path_graph(
            f"SU3-Astar({l})", (l - 1) // 2, h=l, loops=range(1, (l + 1) // 2))))


# walks of length <= 8 reach the far end and come back only while l <= 9;
# the Hilbert solve finds a negative coefficient at every odd l
_FAR_END_CASES = {"su3-measures:measure:SU3-Astar(5)", "su3-measures:measure:SU3-Astar(7)",
                  "su3-measures:measure:SU3-Astar(9)", "hilbert:cy3-q:SU3-Astar(5)",
                  "hilbert:cy3-q:SU3-Astar(7)"}


def _identity_involution(monkeypatch):
    """P = 1 in the pre-projective numerator 1 + P t^h, for every graph."""
    monkeypatch.setattr(series, "_su2_involution_rows",
                        lambda graph: _recurrence._identity_rows(graph.n_vertices))


# P is the identity already on D(4), D(6), E(7) and E(8)
_INVOLUTION_CASES = {f"hilbert:preprojective:{gid}"
                     for gid in ("A(2)", "A(3)", "A(4)", "A(5)", "A(6)", "D(5)", "E(6)")}


def _k_cycle_partner(monkeypatch):
    """The k-cycle as A(k)'s affine partner, one vertex short."""
    monkeypatch.setitem(series._KOSTANT_PARTNER, "A", graphs._cycle_graph)


_KOSTANT_A_CASES = {f"series-theorems:kostant-numerators:A({k})" for k in (3, 4, 5)}


def _scaled_e8_eigenvalue(monkeypatch):
    """The first eigenvalue of the shipped SU3-E(8) table times 1.001."""
    tables = dict(graphs._exceptional_tables())
    first, *rest = tables["SU3-E(8)"]
    tables["SU3-E(8)"] = (dataclasses.replace(first, eigenvalue=first.eigenvalue * 1.001), *rest)
    monkeypatch.setattr(graphs, "_exceptional_tables", lambda: tables)


_real_su2_eigendata = graphs._su2_eigendata


def _d_without_far_end(monkeypatch):
    """D's P set {1, h - 1} without h - 1: * lifts to one end of A_{h-1}."""
    def eigendata(h, exponents, p):
        return _real_su2_eigendata(h, exponents, (1,) if p == (1, h - 1) else p)

    monkeypatch.setattr(graphs, "_su2_eigendata", eigendata)


_real_product = _recurrence._product


def _plus_one_in_each_chunk(monkeypatch):
    """+1 on the last row's first entry of every transfer-chunk product."""
    def product(t, window):
        out = _real_product(t, window)
        out[-1, 0] += 1
        return out

    monkeypatch.setattr(_recurrence, "_product", product)


# every case that reads an unnumerated solve long enough to run in chunks
_CHUNK_CASES = ({f"series-theorems:generalized-T:{gid}" for gid in (
                    "Aff-A(4)", "Aff-A(6)", "Aff-D(4)", "Aff-D(5)", "Aff-E(6)", "Aff-E(7)",
                    "Aff-E(8)")}
                | {f"series-theorems:theorem-chain:{name}" for name in (
                    "BT(None)", "BO(None)", "BI(None)", "BD(4)", "Z2n(2)")}
                | {f"series-theorems:kostant-numerators:{gid}"
                   for gid in ("E(6)", "E(7)", "E(8)", "D(6)")})

_real_discriminant = deltoid.discriminant


def _shifted_discriminant(monkeypatch):
    """The discriminant plus 1e-6."""
    monkeypatch.setattr(deltoid, "discriminant", lambda z: _real_discriminant(z) + 1e-6)


def _unpolished_roots(monkeypatch):
    """Cardano's roots as they come, with no Newton polish."""
    monkeypatch.setattr(deltoid, "_polish", lambda w, z: w)


_real_dl_numerators = deltoid.dl_numerators


def _dl_on_the_wrong_coset(monkeypatch):
    """D_l's numerators with q2 = (q1 mod 3) + 3j: q1 - q2, not q1 + q2, is 0 mod 3."""
    def numerators(l):
        q = _real_dl_numerators(l)
        q[:, 1] += q[:, 0] % 3 - (-q[:, 0] % 3)
        return q

    monkeypatch.setattr(deltoid, "dl_numerators", numerators)


_DL_CASES = {"deltoid-geometry:Dl-grid-size",
             *(f"su3-dimensions:five-way-identity:n={n}" for n in (2, 5, 8)),
             *(f"su3-measures:measure:SU3-A({l})" for l in range(4, 10))}


def _shear_in_s3(monkeypatch):
    """The shear ((1, 1), (0, 1)) in place of the second S3 matrix."""
    first, _, *rest = deltoid._S3_MATRICES
    monkeypatch.setattr(deltoid, "_S3_MATRICES", [first, ((1, 1), (0, 1)), *rest])


ROWS = {
    # a patch on the defining module fails the same cases as one that also
    # sets the name on suites, which reads paths.moments through its module
    "paths.moments +1 at m+n=2": Row(
        _patch_moments(paths), lambda: paths.moments(graphs.by_id("A(3)"), [(1, 1)]),
        _MOMENT_SUITES, lambda case: case.startswith(_MOMENT_CASES)),
    "paths.moments and suites.moments +1 at m+n=2": Row(
        _patch_moments(paths, suites), lambda: paths.moments(graphs.by_id("A(3)"), [(1, 1)]),
        _MOMENT_SUITES, lambda case: case.startswith(_MOMENT_CASES)),
    "SU3-Astar far-end loop at odd l": Row(
        _far_end_loop, lambda: [graphs.by_id(f"SU3-Astar({l})").out_edges for l in (5, 7)],
        ("su3-measures", "hilbert"), _FAR_END_CASES.__contains__),
    "su2_involution rows -> identity": Row(
        _identity_involution, lambda: series._su2_involution_rows(graphs.by_id("A(3)")),
        ("hilbert",), _INVOLUTION_CASES.__contains__),
    "Kostant partner of A(k) -> the k-cycle": Row(
        _k_cycle_partner, lambda: series.kostant_affine_partner("A(3)").out_edges,
        ("series-theorems",), _KOSTANT_A_CASES.__contains__),
    "transfer chunk +1 in one entry": Row(
        _plus_one_in_each_chunk,
        lambda: series.hilbert_su2(graphs.by_id("Aff-D(11)"), 158).blocks.tolist(),
        ("series-theorems",), _CHUNK_CASES.__contains__),
    "deltoid.discriminant + 1e-6": Row(
        _shifted_discriminant, lambda: deltoid.discriminant(0j), ("deltoid-geometry",),
        {"deltoid-geometry:jacobian-four-forms", "deltoid-geometry:boundary-curve"}.__contains__),
    "deltoid._polish -> identity": Row(
        _unpolished_roots, lambda: deltoid._polish(np.array([1.01 + 0j]), np.array([0j])).tolist(),
        ("deltoid-geometry",), {"deltoid-geometry:invert-phi-roundtrip"}.__contains__),
    "D's P set without h - 1": Row(
        _d_without_far_end, lambda: graphs.FAMILIES["D"].eigen(5), ("su2-measures",),
        lambda case: case.startswith("su2-measures:eigendata-vs-path:D(")),
    "SU3-E(8) table eigenvalue x 1.001": Row(
        _scaled_e8_eigenvalue, lambda: graphs.eigendata("SU3-E(8)").entries,
        ("su3-obstructions",), {"su3-obstructions:atoms-vs-eigendata:SU3-E(8)"}.__contains__),
    "deltoid.dl_numerators on the wrong coset": Row(
        _dl_on_the_wrong_coset, lambda: deltoid.dl_numerators(4).tolist(),
        ("deltoid-geometry", "su3-dimensions", "su3-measures"), _DL_CASES.__contains__),
    "deltoid S3 matrix -> a shear": Row(
        _shear_in_s3,
        lambda: [deltoid._mat_apply(g, (0.1, 0.3)) for g in deltoid._S3_MATRICES],
        ("deltoid-geometry", "su3-obstructions"),
        {"deltoid-geometry:jacobian-s3-invariance", "su3-obstructions:atoms-vs-eigendata:SU3-E(8)",
         "su3-obstructions:atoms-vs-eigendata:SU3-E1(12)"}.__contains__),
}


@pytest.mark.parametrize("name", ROWS)
def test_each_mutation_fails_exactly_its_cases(monkeypatch, name):
    row = ROWS[name]
    before = row.probe()
    row.patch(monkeypatch)
    assert row.probe() != before, "the patch does not change the kernel's output"
    cases = [c for suite in row.suites for c in suites.run_suite(suite).cases]
    failing = {c.case_id for c in cases if c.status == "fail"}
    assert failing == {c.case_id for c in cases if row.must_fail(c.case_id)}
    assert failing
