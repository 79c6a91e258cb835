"""Acceptance battery: one test per criterion, each printing a PASS line with
the measured extremes.  Tolerances are pinned here, not configurable.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines,
or `nimspec verify all` for the CLI equivalent.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from nimspec import deltoid, measures, series, subgroups
from nimspec.graphs import by_id, eigen_moment, eigendata
from nimspec.paths import (
    hecke_dimension,
    hecke_shapes,
    moment_formula_su3_Ainf,
    moment_path_count,
    su3_path_count_formula,
)

from oracles import preprojective_dimensions


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPT {criterion}: PASS  ({detail})")


def test_criterion_01_binomial_catalan():
    tr2 = by_id("Trunc-Ainfinf(26)")
    tr1 = by_id("Trunc-Ainf(26)")
    for k in range(13):
        assert moment_path_count(tr2, 2 * k) == math.comb(2 * k, k)
        assert moment_path_count(tr1, 2 * k) == math.comb(2 * k, k) // (k + 1)
        if k:
            assert moment_path_count(tr2, 2 * k - 1) == 0
            assert moment_path_count(tr1, 2 * k - 1) == 0
    _report("01 binomial/Catalan dimensions", "exact for k <= 12, odd moments 0")


SU2_CATALOGUE = (
    [f"A({n})" for n in range(1, 9)]
    + [f"D({n})" for n in range(4, 9)]
    + ["E(6)", "E(7)", "E(8)"]
    + [f"Aff-A({m})" for m in (2, 4, 6, 8)]
    + [f"Aff-D({n})" for n in range(4, 9)]
    + ["Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]
)


def test_criterion_02_su2_measure_vs_path():
    worst = 0.0
    for gid in SU2_CATALOGUE:
        mu = measures.canonical_measure(gid)
        g = by_id(gid)
        for m in range(13):
            err = abs(measures.moment_t(mu, m) - moment_path_count(g, m))
            worst = max(worst, err)
            assert err < 1e-9, (gid, m)
    _report("02 SU(2) measure-vs-path", f"{len(SU2_CATALOGUE)} graphs, worst {worst:.2e}")


def test_criterion_03_subgroup_route():
    cases = [("Z2n", 2, 4, "Aff-A(4)"), ("Z2n", 3, 6, "Aff-A(6)"),
             ("BD", 4, 8, "Aff-D(4)"), ("BD", 5, 12, "Aff-D(5)"),
             ("BT", None, 24, "Aff-E(6)"), ("BO", None, 48, "Aff-E(7)"),
             ("BI", None, 120, "Aff-E(8)")]
    worst = 0.0
    for name, n, order, gid in cases:
        grp = subgroups.generate_group(name, n)
        assert grp.order == order
        cd = subgroups.class_data(grp)     # validates sizes and chi against tables
        g = by_id(gid)
        for m in range(13):
            err = abs(subgroups.subgroup_moment(cd, m) - moment_path_count(g, m))
            worst = max(worst, err)
            assert err < 1e-9
    _report("03 subgroup route", f"orders 4,6,8,12,24,48,120; worst {worst:.2e}")


def test_criterion_04_e7_e8_alpha_p():
    ed7 = {e.exponent: e.weight for e in eigendata("E(7)").entries}
    u7 = cmath.exp(1j * math.pi / 18)
    table7 = {1: 0.4076, 5: 2.7057, 7: -0.1133, 9: 4.0}
    for p, val in table7.items():
        assert abs(18 * ed7[p] - 2 * (u7 ** p).imag ** 2 - val) < 5e-4
    for p in ed7:
        if p != 9:
            assert abs(9 * ed7[p] - 2 * (u7 ** (2 * p)).imag ** 2) < 1e-12

    ed8 = {e.exponent: e.weight for e in eigendata("E(8)").entries}
    u8 = cmath.exp(1j * math.pi / 30)
    table8 = {1: 0.4038, 7: 3.5135, 11: 2.0511, 13: 4.5316}
    for p, val in table8.items():
        assert abs(30 * ed8[p] - 2 * (u8 ** p).imag ** 2 - val) < 5e-4
    # the exact identity holds with constant h/2 = 15 (the doubled constant
    # that sometimes appears in print equals 2(alpha_1 + alpha_3), checked
    # alongside so the normalization stays observable)
    for p in ed8:
        a13 = 2 * (u8 ** p).imag ** 2 + 2 * (u8 ** (3 * p)).imag ** 2
        assert abs(15 * ed8[p] - a13) < 1e-12
        assert abs(30 * ed8[p] - 2 * a13) < 1e-12
    _report("04 E7/E8 alpha_p", "tables at 5e-4; exact identities at 1e-12")


def test_criterion_05_cyclotomic_solver():
    ed = {e.exponent: e.weight for e in eigendata("E(6)").entries}
    b6 = [1, 4, 5, 7, 8, 11, 13, 16, 17, 19, 20, 23]
    target = measures.DiscreteMeasure(
        1, {Fraction(p, 24): ed[p if p <= 12 else 24 - p] / 2 for p in b6}, "E6"
    )
    basis = [measures.with_alpha(measures.d_measure(12)), measures.d_measure(12),
             measures.d_measure(6), measures.d_measure(4), measures.d_measure(3)]
    fit = measures.cyclotomic_fit(target, basis)
    assert fit.feasible
    coeffs = [Fraction(c).limit_denominator(10 ** 6) for c in fit.coefficients]
    assert coeffs == [Fraction(1), Fraction(1, 2), Fraction(-1, 2),
                      Fraction(-1, 2), Fraction(1, 2)]

    residuals = {}
    for gid, half in [("E(7)", 18), ("E(8)", 30)]:
        edx = {e.exponent: e.weight for e in eigendata(gid).entries}
        bset = [p for p in range(1, 2 * half) if p % 2 == 1 and
                (p in edx or 2 * half - p in edx)]
        tgt = measures.DiscreteMeasure(
            1, {Fraction(p, 2 * half): edx[p if p <= half else 2 * half - p] / 2
                for p in bset}, gid)
        f = measures.cyclotomic_fit(tgt, measures.cyclotomic_basis(half))
        assert not f.feasible and f.residual > 1e-2
        residuals[gid] = f.residual

    rows, rhs = measures.exceptional_obstruction_system("SU3-E(8)")
    f8 = measures.fit_linear_system(rows, rhs)
    assert not f8.feasible
    assert abs(f8.max_certificate_residual - abs(1 / 16 - 1 / 12)) < 1e-12
    rows, rhs = measures.exceptional_obstruction_system("SU3-E1(12)")
    f12 = measures.fit_linear_system(rows, rhs)
    assert not f12.feasible and f12.max_certificate_residual > 1e-2
    _report("05 cyclotomic solver",
            f"E6 exact; E7/E8 residuals {residuals['E(7)']:.3f}/{residuals['E(8)']:.3f}; "
            f"exceptional residual |1/16-1/12|")


T_FORM_IDS = ["A(3)", "A(6)", "D(4)", "D(6)", "E(6)", "E(7)", "E(8)",
              "Aff-A(4)", "Aff-A(6)", "Aff-D(5)", "Aff-D(6)",
              "Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]


def test_criterion_06_t_series():
    for gid in T_FORM_IDS:
        cf = series.t_series(gid, 30, "closed_form")
        ms = series.t_series(gid, 30, "measure")
        fc = series.t_series(gid, 30, "f_compose")
        assert cf.coeffs == ms.coeffs, gid
        assert cf.coeffs == fc.coeffs, gid
    _report("06 T-series", f"{len(T_FORM_IDS)} closed forms; all routes exact to order 30")


def test_criterion_07_theorem_chain():
    for gid in ["Aff-A(4)", "Aff-A(6)", "Aff-D(4)", "Aff-D(5)",
                "Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]:
        g = by_id(gid)
        hs = series.hilbert_su2(g, 24)
        gt = series.generalized_t(g, 24)
        assert all(hs.mats[k] == gt.mats[k] for k in range(25)), gid

    worst = 0.0
    for name, n, gid in [("BT", None, "Aff-E(6)"), ("BO", None, "Aff-E(7)"),
                         ("BI", None, "Aff-E(8)"), ("BD", 4, "Aff-D(4)"),
                         ("Z2n", 2, "Aff-A(4)")]:
        grp = subgroups.generate_group(name, n)
        cd = subgroups.class_data(grp)
        kost = subgroups.kostant_trivial(cd, 40)
        mol = subgroups.molien_series_trivial(grp, 40)
        g = by_id(gid)
        hid = series.hilbert_su2(g, 40).entry(g.distinguished, g.distinguished)
        t2 = series.t_series(gid, 20, "closed_form").substitute_q_squared(40)
        comp = series.g_composition_route(cd, 40)
        for err in (kost.max_difference(mol), kost.max_difference(hid),
                    hid.max_difference(t2), comp.max_difference(hid)):
            worst = max(worst, err)
            assert err < 1e-9, (name, err)

    for gid, ab in [("E(6)", (6, 8)), ("E(7)", (8, 12)), ("E(8)", (12, 20)),
                    ("A(4)", (2, 5)), ("A(6)", (2, 7)),
                    ("D(4)", (4, 4)), ("D(6)", (4, 8))]:
        assert series.kostant_parameters(gid) == ab
        series.kostant_closed_form_check(gid)    # raises if any z_gamma fails
    _report("07 theorem chain", f"Ttilde(t^2)=H; F=P=H=T(t^2) worst {worst:.2e}; "
            "Kostant numerators polynomial")


def test_criterion_08_preprojective_hilbert():
    ids = [f"A({n})" for n in range(2, 7)] + ["D(4)", "D(5)", "D(6)",
                                              "E(6)", "E(7)", "E(8)"]
    for gid in ids:
        g = by_id(gid)
        hs = series.hilbert_su2(g, 2 * g.coxeter_h)
        num = series.su2_numerator(hs, g)
        p = series.su2_involution(g)
        assert num[0] == series.mat_identity(g.n_vertices)
        for k in range(1, len(num)):
            expect = p if k == g.coxeter_h else series.mat_zero(g.n_vertices)
            assert num[k] == expect, (gid, k)
    # totals against the brute-force path-algebra enumeration
    for gid, expected in [("A(2)", 4), ("A(3)", 10), ("D(4)", 28)]:
        g = by_id(gid)
        hs = series.hilbert_su2(g, 2 * g.coxeter_h)
        assert hs.total_at_one() == expected
        edges = [
            (i, j)
            for i, row in enumerate(g.adjacency)
            for j in range(i + 1, len(row))
            for _ in range(row[j])
        ]
        _, brute = preprojective_dimensions(edges, g.n_vertices)
        assert brute == expected
    _report("08 pre-projective Hilbert", "numerators exact; totals 4/10/28 = brute force")


def test_criterion_09_su3_dimensions():
    worst = 0.0
    for n in range(10):
        target = moment_formula_su3_Ainf(n, n)
        tr = by_id(f"Trunc-SU3Ainf({max(2 * n, 1)})")
        assert moment_path_count(tr, n, n) == target
        assert sum(
            su3_path_count_formula(n, l1, l2) ** 2
            for l1 in range(n + 1) for l2 in range(n + 1 - l1)
        ) == target
        for method in ("determinantal", "multinomial"):
            assert sum(
                hecke_dimension(n, p1, p2, method) ** 2
                for p1, p2 in hecke_shapes(n)
            ) == target
        mu = measures.canonical_measure(f"SU3-A({n + 4})")
        err = abs(measures.moment_t2(mu, n, n) - target)
        worst = max(worst, err)
        assert err < 1e-9
    _report("09 SU(3) dimensions", f"five-way chain exact for n <= 9; grid err {worst:.2e}")


def test_criterion_10_su3_measures():
    worst = 0.0
    for l in range(4, 10):
        mu = measures.canonical_measure(f"SU3-A({l})")
        g = by_id(f"SU3-A({l})")
        ed = eigendata(f"SU3-A({l})")
        for m in range(9):
            for n in range(9 - m):
                val = measures.moment_t2(mu, m, n)
                e1 = abs(val - eigen_moment(ed, m, n))
                e2 = abs(val - moment_path_count(g, m, n))
                worst = max(worst, e1, e2)
                assert e1 < 1e-9 and e2 < 1e-9
    for k in (2, 3):
        mu = measures.canonical_measure(f"SU3-D({3 * k})")
        ed = eigendata(f"SU3-D({3 * k})")
        for m in range(9):
            for n in range(9 - m):
                err = abs(measures.moment_t2(mu, m, n) - eigen_moment(ed, m, n))
                worst = max(worst, err)
                assert err < 1e-9
    for l in (4, 6, 8, 10, 12, 14, 16):
        mu = measures.canonical_measure(f"SU3-Astar({l})")
        g = by_id(f"SU3-Astar({l})")
        for m in range(9):
            assert measures.moment_t_exact(mu, m, shift=1) == moment_path_count(g, m)
    _report("10 SU(3) measure theorems",
            f"A(4..9), D(6),D(9), Astar(4..16); worst {worst:.2e}; shift identity exact")


def test_criterion_11_su3_hilbert():
    for l in (4, 5, 6, 7):
        g = by_id(f"SU3-A({l})")
        hs = series.hilbert_su3(g, order=3 * l)
        num = series.su3_numerator(hs, g)
        from nimspec.graphs import su3_rotation

        p = su3_rotation(g)
        assert num[0] == series.mat_identity(g.n_vertices)
        for k in range(1, 3 * l + 1):
            expect = series.mat_scale(-1, p) if k == l else series.mat_zero(g.n_vertices)
            assert num[k] == expect, (l, k)
    g4 = by_id("SU3-A(4)")
    h4 = series.hilbert_su3(g4)
    assert h4.mats[1] == g4.adjacency
    assert all(h4.mats[k] == series.mat_zero(3) for k in range(2, h4.order + 1))
    for m in range(2, 8):
        for a in range(m):
            for b in range(m):
                weights = (a, b, (-a - b) % m)
                h = series.cy3_hilbert(series.abelian_mckay(m, weights), 10)
                for j in range(m):
                    mol = series.molien_abelian(m, weights, j, 10)
                    assert h.entry(j, 0).coeffs == [int(x) for x in mol.coeffs]
    _report("11 SU(3) Hilbert", "numerator identities to 3l; CY3 Molien exact, m <= 7")


def test_criterion_12_deltoid():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        p = (rng.random(), rng.random())
        jt = deltoid.jacobian(p, "theta")
        js = deltoid.jacobian(p, "sine_product")
        jo = deltoid.jacobian(p, "omega")
        ja = deltoid.jacobian(p, "abs_z")
        assert abs(jt - js) < 1e-12 * max(1.0, abs(jt))
        assert abs(jt * jt - jo * jo) < 1e-9 * max(1.0, jt * jt)
        assert abs(jt * jt - ja * ja) < 1e-9 * max(1.0, jt * jt)
    for l in range(4, 13):
        assert len(deltoid.dl_numerators(l)) == 3 * l * l
    zs = []
    while len(zs) < 1000:
        z = deltoid.phi((rng.random(), rng.random()))
        if deltoid.discriminant(z).real >= 1e-8:
            zs.append(z)
    zs = np.array(zs)
    pairs = deltoid.invert_phi_pairs(zs)        # all 1000 points in one array call
    w1, w2 = pairs[..., 0], pairs[..., 1]
    miss = np.abs(w1 + 1 / w2 + w2 / w1 - zs[:, None])
    assert (miss < 1e-9).all(), zs[miss.max(axis=1).argmax()]
    for k in range(500):
        z = deltoid.boundary_point(1.0, k / 500)
        assert abs(deltoid.discriminant(z)) < 1e-9
    _report("12 deltoid geometry",
            "4 Jacobian forms, |D_l| = 3l^2, roundtrip < 1e-9, boundary J = 0")
