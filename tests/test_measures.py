import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimspec import deltoid
from nimspec.errors import FailedIdentityError, InvalidParameterError, NoClosedFormError
from nimspec.graphs import by_id, eigen_moment, eigendata
from nimspec.measures import (
    DiscreteMeasure,
    canonical_measure,
    circle_series,
    cyclotomic_basis,
    cyclotomic_fit,
    d_measure,
    ddprime_measure,
    dirac,
    dl_measure,
    dprime_measure,
    exceptional_measure_atoms,
    exceptional_obstruction_system,
    fit_linear_system,
    make_measure,
    moment_t,
    moment_t2,
    moment_t_exact,
    moments_t,
    moments_t2,
    product_measure,
    scale,
    uniform_roots,
    with_alpha,
    with_j2,
)
from nimspec.paths import moment_path_count
from nimspec.series import abelian_mckay, molien_abelian
from nimspec.suites import _su2_catalogue

from oracles import (
    atom_circle_sum,
    atom_moment_t2,
    closure_fourier,
    dl_atoms,
    eager_atoms,
    j2_atoms,
    multinomial_moment,
)

SU2_IDS = (
    [f"A({n})" for n in range(1, 9)]
    + [f"D({n})" for n in range(4, 9)]
    + ["E(6)", "E(7)", "E(8)"]
    + [f"Aff-A({m})" for m in (2, 4, 6, 8)]
    + [f"Aff-D({n})" for n in range(4, 9)]
    + ["Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]
)


def test_make_measure_primitives():
    d1 = make_measure(("d", 1))
    assert d1.atoms == {Fraction(0): Fraction(1, 2), Fraction(1, 2): Fraction(1, 2)}
    assert abs(moment_t(d1, 2) - 4.0) < 1e-12

    ad2 = make_measure(("alpha", ("d", 2)))
    assert abs(ad2.total_mass() - 1) < 1e-12
    assert ad2.atoms[Fraction(1, 4)] == pytest.approx(0.5)
    assert ad2.atoms[Fraction(0)] == pytest.approx(0.0)

    d6grid = make_measure(("dl", 6))
    assert len(d6grid.atoms) == 108

    with pytest.raises(InvalidParameterError):
        make_measure(("d", 0))
    with pytest.raises(InvalidParameterError):
        make_measure(("dl", 3))


@pytest.mark.parametrize("spec", [[], "d", ("d",), ("sum",), ("scale", 2),
                                  ("product", ("d", 2)), ("d", 3, 4), ("alpha", 5),
                                  ("dirac", 0, 1, 2), (["d"], 2)])
def test_malformed_measure_specs_raise_a_typed_error(spec):
    with pytest.raises(InvalidParameterError, match="measure spec node"):
        make_measure(spec)


@pytest.mark.parametrize("fn, args", [
    (make_measure, [("d", "3")]),
    (make_measure, [("dprime", 1.5)]),
    (make_measure, [("ddprime", True)]),
    (make_measure, [("roots", 2.5)]),
    (make_measure, [("dl", 4.0)]),
    (make_measure, [("dirac", "x")]),
    (make_measure, [("dirac", None, 1)]),
    (abelian_mckay, ["3", (1, 1, 1)]),
    (abelian_mckay, [3, ("a", 1, 1)]),
    (molien_abelian, [3, (1, 1, 1.5), 0, 4]),
    (molien_abelian, [3, (1, 1, 1), "0", 4]),
    (molien_abelian, [3, (1, 1, 1), 0, 4.0]),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_wrongly_typed_arguments_raise_a_typed_error_naming_the_value(fn, args):
    with pytest.raises(InvalidParameterError, match=r"must be (an integer|rational), got "):
        fn(*args)


def test_a_non_integer_moment_order_raises_a_typed_error():
    with pytest.raises(InvalidParameterError, match="a moment order must be an integer, got 2.0"):
        moment_t(d_measure(3), 2.0)


def test_dprime_and_ddprime_supports():
    # d'_n: the 4n-th roots of odd order, each of weight 1/(2n)
    for n in (1, 2, 3, 5):
        mu = dprime_measure(n)
        support = {t for t, w in mu.atoms.items() if w != 0}
        assert support == {Fraction(j, 4 * n) for j in range(1, 4 * n, 2)}
        assert all(mu.atoms[t] == Fraction(1, 2 * n) for t in support)
    # d''_n: the 12n-th roots of order 6k +- 1, each of weight 1/(4n)
    for n in (1, 3, 5):
        mu = ddprime_measure(n)
        support = {t for t, w in mu.atoms.items() if w != 0}
        expect = {
            Fraction(j, 12 * n)
            for j in range(12 * n)
            if j % 2 == 1 and j % 3 != 0
        }
        assert support == expect
        assert all(mu.atoms[t] == Fraction(1, 4 * n) for t in support)


def test_moment_examples():
    assert moment_t(canonical_measure("A(3)"), 2) == pytest.approx(1.0)
    assert moment_t(d_measure(2), 2) == pytest.approx(2.0)
    assert moment_t(d_measure(2), 0) == pytest.approx(1.0)
    mu = canonical_measure("SU3-A(6)")
    assert moment_t2(mu, 1, 1) == pytest.approx(1.0)
    assert moment_t2(mu, 0, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("gid", SU2_IDS)
def test_su2_measure_reproduces_path_counts(gid):
    mu = canonical_measure(gid)
    g = by_id(gid)
    assert abs(mu.total_mass() - 1) < 1e-12
    assert all(w >= -1e-12 for w in mu.atoms.values())
    for m in range(13):
        pc = moment_path_count(g, m)
        assert abs(moment_t(mu, m) - pc) < 1e-9
        assert moment_t_exact(mu, m) == pc       # exact Fourier route


@pytest.mark.parametrize("gid", ["D(4)", "Aff-A(12)", "Aff-D(10)", "E(8)", "A(8)",
                                 "E(7)", "Aff-E(8)"])
def test_high_moments_match_path_counts_to_rounding(gid):
    # odd moments vanish while the terms grow like 2^m: the float sum is
    # good to the rounding of the term sizes, not of its (zero) value
    mu = canonical_measure(gid)
    g = by_id(gid)
    for m in range(31):
        size = sum(abs(float(w)) * abs(2 * math.cos(2 * math.pi * float(t))) ** m
                   for t, w in mu.atoms.items())
        assert abs(moment_t(mu, m) - moment_path_count(g, m)) <= 1e-13 * size


def test_su2_measure_vs_eigendata_atoms():
    # same moments out of the closed-form measure and the eigendata sum
    for gid in ["A(5)", "D(6)", "E(6)", "E(7)", "E(8)"]:
        mu = canonical_measure(gid)
        ed = eigendata(gid)
        for m in range(11):
            assert abs(moment_t(mu, m) - eigen_moment(ed, m).real) < 1e-9


def test_su3_grid_measures():
    for l in range(4, 10):
        mu = canonical_measure(f"SU3-A({l})")
        g = by_id(f"SU3-A({l})")
        ed = eigendata(f"SU3-A({l})")
        assert abs(mu.total_mass() - 1) < 1e-12
        for m in range(9):
            for n in range(9 - m):
                val = moment_t2(mu, m, n)
                assert abs(val - moment_path_count(g, m, n)) < 1e-9
                assert abs(val - eigen_moment(ed, m, n)) < 1e-9


def test_su3_d_measure_matches_eigendata():
    for k in (2, 3):
        gid = f"SU3-D({3 * k})"
        mu = canonical_measure(gid)
        ed = eigendata(gid)
        assert abs(mu.total_mass() - 1) < 1e-12
        for m in range(9):
            for n in range(9 - m):
                assert abs(moment_t2(mu, m, n) - eigen_moment(ed, m, n)) < 1e-9


def test_astar_shift_identity_exact():
    for l in (4, 6, 8, 10, 12, 14, 16):
        mu = canonical_measure(f"SU3-Astar({l})")
        g = by_id(f"SU3-Astar({l})")
        for m in range(9):
            assert moment_t_exact(mu, m, shift=1) == moment_path_count(g, m)


def test_astar_semicircle_moments():
    from nimspec.paths import combinatorial_dimension

    mu = canonical_measure("SU3-Astar(120)")
    for m in range(7):
        target = sum(
            math.comb(m, 2 * k) * combinatorial_dimension("su2_group", k)
            for k in range(m // 2 + 1)
        )
        got = moment_t_exact(mu, m, shift=1)
        assert abs(float(got) - target) <= 1e-2 * max(target, 1)
        assert got == target      # exact at any l with 2k < l-ish orders


def test_canonical_moment_dispatch():
    # each family's chart: SU(2) (u + 1/u)^m, SU3-Astar shifted by +1, SU(3) R_{m,n}
    assert moment_t(canonical_measure("A(4)"), 2) == pytest.approx(1.0)
    assert moment_t2(canonical_measure("SU3-A(6)"), 1, 1) == pytest.approx(1.0)
    assert moment_t(canonical_measure("SU3-Astar(8)"), 2, shift=1) == pytest.approx(
        moment_path_count(by_id("SU3-Astar(8)"), 2)
    )


def test_no_closed_form_for_exceptional():
    with pytest.raises(NoClosedFormError):
        canonical_measure("SU3-E(8)")
    with pytest.raises(NoClosedFormError):
        canonical_measure("SU3-E1(12)")


def test_exceptional_atom_measure_matches_eigendata():
    # the S3-symmetrized atom list is an independent route to the moments
    for gid in ["SU3-E(8)", "SU3-E1(12)", "SU3-A(6)", "SU3-D(9)", "SU3-Astar(7)"]:
        mu = exceptional_measure_atoms(gid)
        ed = eigendata(gid)
        assert abs(mu.total_mass() - 1) < 1e-12
        for m in range(5):
            for n in range(5 - m):
                assert abs(moment_t2(mu, m, n) - eigen_moment(ed, m, n)) < 1e-9


def test_e7_alpha2_identity():
    ed = {e.exponent: e.weight for e in eigendata("E(7)").entries}
    ut = cmath.exp(1j * math.pi / 18)
    for p in ed:
        if p == 9:
            continue
        alpha2 = 2 * (ut ** (2 * p)).imag ** 2
        assert abs(9 * ed[p] - alpha2) < 1e-12


def test_e8_alpha13_identity():
    # the constant is h/2 = 15 (tables sometimes print the doubled value,
    # which equals 2(alpha_1 + alpha_3) instead)
    ed = {e.exponent: e.weight for e in eigendata("E(8)").entries}
    ut = cmath.exp(1j * math.pi / 30)
    for p in ed:
        a13 = 2 * (ut ** p).imag ** 2 + 2 * (ut ** (3 * p)).imag ** 2
        assert abs(15 * ed[p] - a13) < 1e-12
        assert abs(30 * ed[p] - 2 * a13) < 1e-12


def test_alpha_p_tables():
    ed7 = {e.exponent: e.weight for e in eigendata("E(7)").entries}
    ut7 = cmath.exp(1j * math.pi / 18)
    expected7 = {1: 0.4076, 5: 2.7057, 7: -0.1133, 9: 4.0}
    for p, val in expected7.items():
        ap = 18 * ed7[p] - 2 * (ut7 ** p).imag ** 2
        assert abs(ap - val) < 5e-4
    ed8 = {e.exponent: e.weight for e in eigendata("E(8)").entries}
    ut8 = cmath.exp(1j * math.pi / 30)
    expected8 = {1: 0.4038, 7: 3.5135, 11: 2.0511, 13: 4.5316}
    for p, val in expected8.items():
        ap = 30 * ed8[p] - 2 * (ut8 ** p).imag ** 2
        assert abs(ap - val) < 5e-4


def _target_from_eigendata(gid, half_order):
    ed = {e.exponent: e.weight for e in eigendata(gid).entries}
    full = 2 * half_order
    bset = [p for p in range(1, full) if p % 2 == 1 and
            (p in ed or full - p in ed)]
    if gid == "E(6)":
        bset = [1, 4, 5, 7, 8, 11, 13, 16, 17, 19, 20, 23]
    atoms = {
        Fraction(p, full): ed[p if p <= half_order else full - p] / 2 for p in bset
    }
    return DiscreteMeasure(1, atoms, f"{gid} atoms from eigendata")


def test_e6_cyclotomic_decomposition():
    target = _target_from_eigendata("E(6)", 12)
    basis = [with_alpha(d_measure(12)), d_measure(12), d_measure(6),
             d_measure(4), d_measure(3)]
    fit = cyclotomic_fit(target, basis)
    assert fit.feasible and fit.residual < 1e-12
    got = [Fraction(c).limit_denominator(10 ** 6) for c in fit.coefficients]
    assert got == [Fraction(1), Fraction(1, 2), Fraction(-1, 2),
                   Fraction(-1, 2), Fraction(1, 2)]


def test_e7_e8_not_cyclotomic():
    for gid, half in [("E(7)", 18), ("E(8)", 30)]:
        target = _target_from_eigendata(gid, half)
        fit = cyclotomic_fit(target, cyclotomic_basis(half))
        assert not fit.feasible
        assert fit.residual > 1e-2


def test_exact_rational_fit_path():
    # affine A measure is rational: the solver works in exact arithmetic
    target = d_measure(2)
    fit = cyclotomic_fit(target, [d_measure(2), d_measure(1)])
    assert fit.feasible
    assert fit.coefficients == [Fraction(1), Fraction(0)]


def test_an_exact_system_is_decided_by_its_elimination_not_by_a_float():
    # x = y = 1 solves it, though least squares in floats misses 10^12 + 1 by 1e-4
    fit = fit_linear_system([[10 ** 12, 1], [1, 0]], [10 ** 12 + 1, 1])
    assert (fit.feasible, fit.coefficients, fit.residual, fit.certificate) == \
        (True, [Fraction(1), Fraction(1)], 0.0, [])
    fit = fit_linear_system([[1, 1], [2, 2]], [Fraction(1, 3), 1])
    assert (fit.feasible, fit.coefficients, fit.certificate) == (False, None, [(1, 1 / 3)])


def test_empty_basis_rejected():
    with pytest.raises(InvalidParameterError):
        cyclotomic_fit(d_measure(2), [])


@pytest.mark.parametrize("call", [
    lambda: fit_linear_system([], []),
    lambda: fit_linear_system([[1, 2], [3]], [1, 2]),
    lambda: fit_linear_system([[1, 0], [0, 1]], [1, 2, 3]),
    lambda: cyclotomic_fit(d_measure(3), [canonical_measure("SU3-A(4)")]),
    lambda: cyclotomic_fit(DiscreteMeasure(1, {}, "empty"), [DiscreteMeasure(1, {}, "empty")]),
], ids=["no-rows", "ragged-rows", "rhs-length", "mixed-dimension", "no-atoms"])
def test_malformed_fits_raise_a_typed_error(call):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert "\n" not in str(info.value)


def test_exceptional_obstruction_systems():
    rows, rhs = exceptional_obstruction_system("SU3-E(8)")
    assert abs(rows[0][1] - (3 - 2 * math.sqrt(2))) < 1e-12
    assert abs(rows[1][1] - (3 + 2 * math.sqrt(2))) < 1e-12
    assert abs(rows[2][1] - 2.0) < 1e-12
    assert rhs[0] == pytest.approx((2 - math.sqrt(2)) / 24)
    fit = fit_linear_system(rows, rhs)
    assert not fit.feasible
    assert abs(fit.max_certificate_residual - abs(1 / 16 - 1 / 12)) < 1e-12

    rows, rhs = exceptional_obstruction_system("SU3-E1(12)")
    assert abs(rows[0][1] - (7 - 4 * math.sqrt(3)) / 4) < 1e-12
    assert abs(rows[1][1] - (7 + 4 * math.sqrt(3)) / 4) < 1e-12
    assert abs(rows[2][1] - 3 / 4) < 1e-12
    fit = fit_linear_system(rows, rhs)
    assert not fit.feasible
    assert abs(fit.max_certificate_residual - 1 / 36) < 1e-12


def test_circle_series_of_an_asymmetric_measure_raises_a_typed_error():
    # the internal reality check raises a NimspecError, so it survives python -O
    with pytest.raises(FailedIdentityError):
        circle_series(dirac(Fraction(1, 4)), 2)


def test_circle_series_is_exact_for_uniform_measures():
    g = circle_series(d_measure(3), 12)
    assert g == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]


circle_atoms = st.dictionaries(st.builds(Fraction, st.integers(0, 23), st.just(24)),
                               st.floats(-2, 2), min_size=1, max_size=20)


@settings(max_examples=40, deadline=None)
@given(circle_atoms, st.integers(0, 12), st.sampled_from([0, 1]))
def test_float_circle_moments_match_the_atom_loop(atoms, m, shift):
    got = moment_t(DiscreteMeasure(1, atoms, "random atoms"), m, shift=shift)
    want, size = atom_circle_sum(atoms, lambda u: (u + 1 / u + shift) ** m)
    assert abs(got - want.real) <= 1e-12 * size


@settings(max_examples=40, deadline=None)
@given(circle_atoms, st.integers(0, 12))
def test_float_circle_series_matches_the_atom_loop(atoms, order):
    """A measure without a Fourier transform takes the float branch; it is
    symmetrized under t -> -t, so its series is real."""
    symmetric = {}
    for t, w in atoms.items():
        symmetric[t] = symmetric[-t % 1] = w
    got = circle_series(DiscreteMeasure(1, symmetric, "symmetric atoms"), order)
    assert len(got) == order + 1
    for m, g in enumerate(got):
        want, size = atom_circle_sum(symmetric, lambda u: u ** m)
        assert abs(g - want.real) <= 1e-12 * size


@settings(max_examples=40, deadline=None)
@given(circle_atoms, st.lists(st.integers(0, 12), max_size=8), st.sampled_from([0, 1]))
def test_batched_circle_moments_are_the_one_order_moments(atoms, orders, shift):
    mu = DiscreteMeasure(1, atoms, "random atoms")
    got = moments_t(mu, orders, shift=shift)
    assert list(got) == list(dict.fromkeys(orders))
    for m in orders:
        assert got[m] == moment_t(mu, m, shift=shift)     # the same float products


@pytest.mark.parametrize("gid", ["A(5)", "E(8)", "Aff-D(6)", "SU3-Astar(10)"])
def test_batched_circle_moments_of_a_canonical_measure(gid):
    mu = canonical_measure(gid)
    got = moments_t(mu, range(13), shift=1)
    assert got == {m: moment_t(mu, m, shift=1) for m in range(13)}
    with pytest.raises(InvalidParameterError, match="a moment order must be non-negative, got -"):
        moments_t(mu, [2, -1])
    with pytest.raises(InvalidParameterError, match="circle measure"):
        moments_t(canonical_measure("SU3-A(4)"), [1])


_spec_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_spec_leaves = st.one_of(
    st.tuples(st.just("roots"), st.integers(1, 8)),
    st.tuples(st.just("d"), st.integers(1, 6)),
    st.tuples(st.just("dprime"), st.integers(1, 4)),
    st.tuples(st.just("ddprime"), st.integers(1, 3)),
    st.tuples(st.just("dirac"), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3)])),
    st.tuples(st.just("dirac"), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3)]),
              _spec_fractions | st.floats(-2, 2)),
)
circle_specs = st.recursive(_spec_leaves, lambda tree: st.one_of(
    st.tuples(st.just("scale"), _spec_fractions | st.floats(-2, 2), tree),
    st.tuples(st.just("alpha_j"), st.integers(1, 4), tree),
    st.tuples(st.just("alpha"), tree),
    st.builds(lambda first, rest: ("sum", first, *rest), tree, st.lists(tree, max_size=2)),
), max_leaves=6)


def _subtrees(spec):
    yield spec
    for arg in spec[1:]:
        if isinstance(arg, tuple):
            yield from _subtrees(arg)


@settings(max_examples=60, deadline=None)
@given(circle_specs)
def test_fourier_tables_match_the_nested_closures(spec):
    """The flat term table of every node equals the nested closures built
    from the same spec, exactly, and has no table where they have none."""
    for node in _subtrees(spec):
        assert (make_measure(node).fourier is None) == (closure_fourier(node) is None)
    mu, want = make_measure(spec), closure_fourier(spec)
    if want is None:
        assert moment_t_exact(mu, 3) is None
        return
    for r in range(-40, 41):
        (num,), den = mu.fourier.numerators(r, r)
        assert Fraction(num, den) == want(r)
    assert circle_series(mu, 40) == [want(r) for r in range(41)]
    for m in range(9):
        for shift in (0, 1):
            got = moment_t_exact(mu, m, shift)
            assert type(got) is Fraction and got == multinomial_moment(want, m, shift)


@settings(max_examples=60, deadline=None)
@given(circle_specs)
def test_lazy_atoms_match_the_eager_oracle(spec):
    """Atoms built on first read are the eagerly merged dict: the same keys
    in the same order, the same values and the same value types."""
    got, want = list(make_measure(spec).atoms.items()), list(eager_atoms(spec).items())
    assert got == want
    assert [type(w) for _, w in got] == [type(w) for _, w in want]
    assert repr(got) == repr(want)          # bit for bit, -0.0 included


@settings(max_examples=30, deadline=None)
@given(circle_specs, circle_specs)
def test_lazy_product_atoms_match_the_eager_oracle(left, right):
    spec = ("product", left, right)
    got, want = list(make_measure(spec).atoms.items()), list(eager_atoms(spec).items())
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("gid", _su2_catalogue())
def test_the_exact_routes_leave_the_atoms_unbuilt(gid):
    mu = canonical_measure(gid)
    circle_series(mu, 60)
    moment_t_exact(mu, 12)
    assert mu._atoms is None
    atoms = mu.atoms                        # built once, on this read
    assert mu.atoms is atoms and mu._build is None


@pytest.mark.parametrize("call, match", [
    (lambda: with_alpha(d_measure(3), 1.5), "alpha_j: j must be an integer, got 1.5"),
    (lambda: with_alpha(d_measure(3), True), "alpha_j: j must be an integer, got True"),
    (lambda: with_alpha(d_measure(3), 0), "alpha_j: j must be at least 1, got 0"),
    (lambda: make_measure(("alpha_j", -2, ("d", 3))), "alpha_j: j must be at least 1, got -2"),
    (lambda: scale("x", d_measure(3)),
     "a scale factor must be an int, a Fraction or a float, got 'x'"),
    (lambda: scale(None, d_measure(3)), "a scale factor must be .*, got None"),
    (lambda: scale(True, d_measure(3)), "a scale factor must be .*, got True"),
    (lambda: dirac(Fraction(1, 2), "x"), "a dirac weight must be .*, got 'x'"),
], ids=["alpha-float-j", "alpha-bool-j", "alpha-j-0", "alpha-j-negative", "scale-str",
        "scale-none", "scale-bool", "dirac-str-weight"])
def test_bad_densities_and_factors_raise_before_any_atom_is_built(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


def _sorted_atom_json(mu) -> dict:
    """to_json as formatted from sorted(mu.atoms.items())."""
    return {"dimension": 2, "provenance": mu.provenance, "atoms": [
        {"theta": [f"{t.numerator}/{t.denominator}" for t in key], "weight": float(w)}
        for key, w in sorted(mu.atoms.items())]}


@pytest.mark.parametrize("build", (
    [lambda l=l: canonical_measure(f"SU3-A({l})") for l in range(4, 13)]
    + [lambda n=n: canonical_measure(f"SU3-D({n})") for n in (6, 9, 12)]
    + [lambda l=l: dl_measure(l) for l in range(4, 13)]
), ids=([f"SU3-A({l})" for l in range(4, 13)] + [f"SU3-D({n})" for n in (6, 9, 12)]
        + [f"d^({l})" for l in range(4, 13)]))
def test_grid_json_is_the_sorted_atom_formatting(build):
    """A grid measure formats its JSON from the numerators, without building
    the atom dict, to the bytes the sorted atoms give."""
    mu = build()
    got = json.dumps(mu.to_json(), sort_keys=True)
    assert mu._atoms is None
    assert got == json.dumps(_sorted_atom_json(mu), sort_keys=True)


def test_dirac_and_signed_combinations():
    mu = dirac(Fraction(1, 2), Fraction(1, 2))
    assert moment_t_exact(mu, 1) == Fraction(-1)
    # intermediate signed combination: negative atoms allowed
    from nimspec.measures import combine

    signed = combine((Fraction(1, 2), d_measure(12)), (Fraction(-1, 2), d_measure(6)))
    assert any(w < 0 for w in signed.atoms.values())


@pytest.mark.parametrize("mu, want", [
    (dirac(Fraction(0), Fraction(1, 3)), lambda m: Fraction(2 ** m, 3)),
    (dirac(Fraction(1, 2)), lambda m: Fraction((-2) ** m)),
], ids=["weight-1/3-at-0", "at-1/2"])
def test_exact_moments_of_dirac_atoms_are_fractions(mu, want):
    for m in range(1, 7):
        got = moment_t_exact(mu, m)
        assert type(got) is Fraction and got == want(m)


def test_measure_json_export():
    mu = canonical_measure("E(7)")
    blob = mu.to_json()
    assert blob["dimension"] == 1
    thetas = {a["theta"] for a in blob["atoms"]}
    assert "1/4" in thetas and "3/4" in thetas   # the Dirac pair at +-i
    weights = {a["theta"]: a["weight"] for a in blob["atoms"]}
    assert weights["1/4"] == pytest.approx(1 / 6)
    mu2 = canonical_measure("SU3-A(4)")
    blob2 = mu2.to_json()
    assert blob2["atoms"][0]["theta"] == ["0/1", "0/1"]


@lru_cache(maxsize=None)
def _torus_measure(kind, gid):
    return canonical_measure(gid) if kind == "canonical" else exceptional_measure_atoms(gid)


TORUS_MEASURES = (
    [("canonical", f"SU3-A({l})") for l in range(4, 16)]
    + [("canonical", f"SU3-D({3 * k})") for k in range(2, 6)]
    + [("atoms", gid) for gid in ("SU3-E(8)", "SU3-E1(12)", "SU3-A(7)", "SU3-D(9)",
                                  "SU3-Astar(7)", "SU3-Astar(10)")]
)
moment_pairs = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                        min_size=1, max_size=12)


def _assert_matches_the_atom_loop(mu, pairs):
    got = moments_t2(mu, pairs)
    assert list(got) == list(dict.fromkeys(pairs))
    for m, n in pairs:
        want, size = atom_moment_t2(mu.atoms, m, n)
        assert abs(got[(m, n)] - want) <= 1e-12 * size
        assert moment_t2(mu, m, n) == got[(m, n)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TORUS_MEASURES), moment_pairs)
def test_batched_torus_moments_match_the_atom_loop(which, pairs):
    _assert_matches_the_atom_loop(_torus_measure(*which), pairs)


torus_atoms = st.dictionaries(
    st.tuples(*[st.builds(Fraction, st.integers(0, 23), st.just(24))] * 2),
    st.floats(-2, 2), min_size=1, max_size=20)


@settings(max_examples=40, deadline=None)
@given(torus_atoms, moment_pairs)
def test_batched_moments_of_an_asymmetric_measure_match_the_atom_loop(atoms, pairs):
    """Moments of a measure without the S3 and conjugation symmetries tell
    (m, n) from (n, m)."""
    _assert_matches_the_atom_loop(DiscreteMeasure(2, atoms, "random atoms"), pairs)


def test_batched_moments_of_no_pairs_are_empty():
    assert moments_t2(canonical_measure("SU3-A(4)"), []) == {}


@pytest.mark.parametrize("call", [
    lambda: moment_t(canonical_measure("A(3)"), -1),
    lambda: moment_t(canonical_measure("SU3-Astar(8)"), -2, shift=1),
    lambda: moment_t_exact(canonical_measure("A(3)"), -1),
    lambda: moment_t_exact(canonical_measure("SU3-Astar(8)"), -1, shift=1),
    lambda: moment_t2(canonical_measure("SU3-A(6)"), -1, 0),
    lambda: moment_t2(canonical_measure("SU3-A(6)"), 0, -1),
    lambda: moments_t2(canonical_measure("SU3-A(6)"), [(1, 1), (2, -1)]),
    lambda: moments_t(canonical_measure("A(3)"), [2, -1]),
    lambda: moments_t2(canonical_measure("SU3-A(6)"), [(2, -1)]),
    lambda: moments_t(canonical_measure("SU3-Astar(8)"), [-1], shift=1),
])
def test_negative_moment_orders_are_rejected(call):
    with pytest.raises(InvalidParameterError, match="a moment order must be non-negative, got -"):
        call()


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 40))
def test_grid_built_su3_a_measures_match_the_dict_oracle(l):
    """dl_measure and SU3-A(l) keep the oracle's D_l atoms, order and weights."""
    want = dl_atoms(l)
    grid = dl_measure(l)
    assert list(grid.atoms.items()) == list(want.items())
    got, want = canonical_measure(f"SU3-A({l})").atoms, j2_atoms(want)
    assert list(got) == list(want)
    assert all(math.isclose(got[k], w, rel_tol=1e-15, abs_tol=0) for k, w in want.items())


def test_phi_on_a_grid_is_bit_equal_to_phi_of_the_float_angles():
    """A grid measure's Phi, read from one table of roots of unity, has the
    bits of deltoid.phi_array at the float angles q / den."""
    grids = [(f"SU3-A({l})", deltoid.dl_numerators(l), 3 * l) for l in range(4, 81)]
    grids += [(f"SU3-D({n})", np.stack(divmod(np.arange(n * n), n), axis=1), n)
              for n in range(6, 31, 3)]
    for gid, q, den in grids:
        got, want = canonical_measure(gid).phi_array, deltoid.phi_array(q / den)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), gid


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.tuples(*[st.builds(Fraction, st.integers(0, 120), st.integers(1, 60))] * 2),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)) | st.floats(-2, 2),
    max_size=20))
def test_with_j2_of_a_dict_built_measure_matches_the_atom_loop(atoms):
    got, want = with_j2(DiscreteMeasure(2, atoms, "random atoms")).atoms, j2_atoms(atoms)
    assert list(got) == list(want)
    assert all(math.isclose(got[k], w, rel_tol=1e-15, abs_tol=0) for k, w in want.items())


def test_moments_of_an_integrated_measure_match_the_atom_loop():
    """Phi is evaluated once per measure: later moments, and the J^2
    measure made from an integrated grid, reuse it."""
    grid = dl_measure(9)
    moments_t2(grid, [(1, 0)])
    mu = with_j2(grid)
    assert mu.phi_array is grid.phi_array
    first = moments_t2(mu, [(2, 2), (3, 0)])
    pairs = [(3, 1), (1, 3), (2, 2), (0, 5)]
    got = moments_t2(mu, pairs)
    assert mu.phi_array is grid.phi_array and got[(2, 2)] == first[(2, 2)]
    for m, n in pairs:
        want, size = atom_moment_t2(mu.atoms, m, n)
        assert abs(got[(m, n)] - want) <= 1e-12 * size


@pytest.mark.parametrize("build", [
    lambda: d_measure(3), lambda: dl_measure(4),
    lambda: canonical_measure("SU3-A(5)"), lambda: canonical_measure("SU3-D(6)"),
], ids=["d_3", "d^(4)", "SU3-A(5)", "SU3-D(6)"])
def test_atoms_and_the_stacked_view_are_read_only(build):
    mu = build()
    with pytest.raises(TypeError):
        mu.atoms[Fraction(0)] = 1
    with pytest.raises(ValueError):
        mu.weight_array[0] = 1.0


@pytest.mark.parametrize("n", range(6, 31, 3))
def test_su3_d_grid_is_the_j2_product_of_two_uniform_measures(n):
    grid = canonical_measure(f"SU3-D({n})")
    product = with_j2(product_measure(uniform_roots(n), uniform_roots(n)))
    assert grid.atoms == product.atoms
    assert list(grid.atoms) == list(product.atoms)
    product.provenance = grid.provenance
    assert grid.to_json() == product.to_json()


# -- the torus kernels against the elementwise expressions they replace ---------

def _elementwise_phi_grid(q, den):
    roots = np.exp(2j * math.pi * (np.arange(den) / den))
    w1, w2 = roots[q[:, 0]], roots[q[:, 1]]
    return w1 + 1 / w2 + w2 / w1


def _elementwise_moment(mu, m, n):
    """w Phi^m conj(Phi^n) summed by np.sum, from a fresh list of powers."""
    z = mu.phi_array
    powers = [np.ones_like(z)]
    for _ in range(max(m, n)):
        powers.append(powers[-1] * z)
    return complex(np.sum(mu.weight_array * powers[m] * powers[n].conj()))


def _bits(x):
    return np.array(x, ndmin=1).view(np.int64)


_TORUS_GRIDS = ([(f"SU3-A({l})", lambda l=l: deltoid.dl_numerators(l), 3 * l)
                 for l in range(4, 81)]
                + [(f"SU3-D({n})", lambda n=n: np.stack(divmod(np.arange(n * n), n), axis=1), n)
                   for n in range(6, 31, 3)])
_ALL_PAIRS = [(m, n) for m in range(9) for n in range(9 - m)]


def _assert_moments_bit_equal(mu, calls):
    for pairs in calls:
        got = moments_t2(mu, pairs)
        for m, n in pairs:
            assert _bits(got[(m, n)]).tolist() == _bits(_elementwise_moment(mu, m, n)).tolist()
            assert _bits(moment_t2(mu, m, n)).tolist() == _bits(got[(m, n)]).tolist()


def test_torus_kernels_are_bit_equal_to_their_elementwise_expressions():
    """phi_grid and the moments from the cached stack of powers of Phi
    have the bits of the expressions they replace, whichever order the
    moments are asked in: each measure takes its pairs shuffled, in calls
    of 1 to 6 pairs, so its stack grows by different steps."""
    import random

    rng = random.Random(25)
    for gid, numerators, den in _TORUS_GRIDS:
        q = numerators()
        assert np.array_equal(_bits(deltoid.phi_grid(q, den)),
                              _bits(_elementwise_phi_grid(q, den))), gid
        pairs = rng.sample(_ALL_PAIRS, len(_ALL_PAIRS))
        cuts = sorted(rng.sample(range(1, len(pairs)), 8))
        calls = [pairs[a:b] for a, b in zip([0] + cuts, cuts + [len(pairs)])]
        _assert_moments_bit_equal(canonical_measure(gid), calls)


@settings(max_examples=30, deadline=None)
@given(torus_atoms | st.sampled_from(["SU3-A(5)", "SU3-A(12)", "SU3-D(9)"]),
       st.lists(moment_pairs, min_size=1, max_size=4))
def test_moments_of_any_call_order_are_bit_equal_to_the_elementwise_sums(which, calls):
    mu = (canonical_measure(which) if isinstance(which, str)
          else DiscreteMeasure(2, which, "random atoms"))
    _assert_moments_bit_equal(mu, calls)


def test_the_cached_powers_of_phi_are_read_only_and_grow_on_demand():
    mu = canonical_measure("SU3-A(9)")
    first = mu._phi_powers(2)
    assert len(first) == 3
    assert mu._phi_powers(1) is first
    grown = mu._phi_powers(5)
    assert len(grown) == 6 and all(a is b for a, b in zip(first, grown))
    for power in grown:
        with pytest.raises(ValueError):
            power[0] = 0
