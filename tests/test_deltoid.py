import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nimspec import deltoid
from nimspec.errors import InvalidParameterError
from nimspec.graphs import su3_exponent_angles, su3_psi_star
from nimspec.suites import run_suite

from oracles import filtered_dl_numerators, scalar_invert_phi, scalar_invert_phi_pairs


def _dl_points(l):
    """D_l as Fraction pairs, read off the library's integer numerators."""
    return [(Fraction(a, 3 * l), Fraction(b, 3 * l))
            for a, b in deltoid.dl_numerators(l).tolist()]


def _in_fundamental_domain(p):
    """Boundary-inclusive test for the fundamental domain C of T^2 / S3."""
    t1, t2 = p
    return 2 * t2 - t1 >= 0 and 2 * t1 - t2 >= 0 and t1 + t2 <= 1


def test_phi_values():
    assert deltoid.phi((Fraction(0), Fraction(0))) == pytest.approx(3 + 0j)
    w = cmath.exp(2j * math.pi / 3)
    assert deltoid.phi((Fraction(1, 3), Fraction(2, 3))) == pytest.approx(3 * w)
    assert abs(deltoid.phi((Fraction(0), Fraction(1, 3)))) < 1e-12


def test_s3_orbit():
    orbit = deltoid.s3_orbit((Fraction(1, 8), Fraction(1, 8)))
    assert len(orbit) == 6
    assert (Fraction(7, 8), Fraction(7, 8)) in orbit
    assert set(deltoid.s3_orbit((Fraction(0), Fraction(0)))) == {(0, 0)}
    generic = deltoid.s3_orbit((Fraction(1, 7), Fraction(3, 11)))
    assert len(set(generic)) == 6


def test_jacobian_forms_agree():
    rng = random.Random(7)
    for _ in range(1000):
        p = (rng.random(), rng.random())
        jt = deltoid.jacobian(p, "theta")
        js = deltoid.jacobian(p, "sine_product")
        jo = deltoid.jacobian(p, "omega")
        ja = deltoid.jacobian(p, "abs_z")
        assert abs(jt - js) < 1e-12 * max(1, abs(jt))
        assert abs(jt - jo) < 1e-10
        assert abs(jt * jt - ja * ja) < 1e-9 * max(1.0, jt * jt)


def test_jacobian_table_values():
    j = deltoid.jacobian((Fraction(1, 8), Fraction(1, 8)))
    assert j * j / (16 * math.pi ** 4) == pytest.approx(3 - 2 * math.sqrt(2))
    j = deltoid.jacobian((Fraction(5, 12), Fraction(6, 12)))
    assert j * j / (16 * math.pi ** 4) == pytest.approx(3 / 4)
    # vanishes along theta_1 = 2 theta_2
    assert deltoid.jacobian((Fraction(2, 7), Fraction(1, 7))) == 0.0


def test_jacobian_s3_invariance_of_square():
    rng = random.Random(3)
    for _ in range(200):
        p = (rng.random(), rng.random())
        j2 = deltoid.jacobian(p, "theta") ** 2
        for q in deltoid.s3_orbit(p):
            assert abs(deltoid.jacobian(q, "theta") ** 2 - j2) < 1e-12 * max(1.0, j2)


def test_jacobian_sign_constant_per_domain():
    # the sign of J is constant on each of the six fundamental domains
    # (which three are negative is a labelling convention, so only the
    # constancy is asserted)
    rng = random.Random(11)
    base_points = []
    while len(base_points) < 200:
        p = (rng.random(), rng.random())
        if _in_fundamental_domain(p) and abs(
            deltoid.jacobian(p, "theta")
        ) > 1e-6:
            base_points.append(p)
    for g_index in range(6):
        signs = {
            deltoid.jacobian(deltoid.s3_orbit(p)[g_index], "theta") > 0
            for p in base_points
        }
        assert len(signs) == 1
    # and exactly three domains carry each sign
    one_orbit = deltoid.s3_orbit(base_points[0])
    positives = sum(deltoid.jacobian(q, "theta") > 0 for q in one_orbit)
    assert positives == 3


def test_pf_eigenvector_is_jacobian():
    for l in (5, 7, 9):
        for lam, _ in [((0, 0), None), ((1, 0), None), ((l - 4, 1), None)]:
            t = su3_exponent_angles(l, lam)
            jv = deltoid.jacobian(t, "sine_product")
            assert abs(su3_psi_star(l, lam) + jv / (2 * math.sqrt(3) * math.pi ** 2 * l)) < 1e-12


def test_invert_phi_special_points():
    assert deltoid.invert_phi(3 + 0j) == [1 + 0j, 1 + 0j, 1 + 0j]
    roots = deltoid.invert_phi(0j)
    got = sorted(cmath.phase(w) % (2 * math.pi) for w in roots)
    expect = sorted(2 * math.pi * k / 3 for k in range(3))
    assert all(abs(a - b) < 1e-9 for a, b in zip(got, expect))


def test_invert_phi_recovers_boundary_orbit_member():
    z = deltoid.phi((Fraction(1, 7), Fraction(2, 7)))
    roots = deltoid.invert_phi(z)
    target = cmath.exp(2j * math.pi / 7)
    assert min(abs(w - target) for w in roots) < 1e-9


def test_the_dl_grid_written_directly_equals_the_filtered_pairs():
    for l in range(4, 121):
        q, want = deltoid.dl_numerators(l), filtered_dl_numerators(l)
        assert q.dtype == want.dtype and np.array_equal(q, want), l


def test_invert_phi_roundtrip_on_interior():
    rng = random.Random(5)
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
    assert (np.abs(np.abs(w1) - 1) < 1e-9).all()


def _well_separated_points():
    """Points whose three roots are well apart: torus images with
    discriminant >= 1e-4, and points of the curves r = 0.99 and 0.999 just
    inside the boundary (away from the cusps, as the roots there coalesce)."""
    rng = random.Random(17)
    pts = []
    while len(pts) < 500:
        z = deltoid.phi((rng.random(), rng.random()))
        if deltoid.discriminant(z).real >= 1e-4:
            pts.append(z)
    for r in (0.99, 0.999):
        pts += [deltoid.boundary_point(r, (k + 0.5) / 300) for k in range(300)
                if min((k + 0.5) / 300 % (1 / 3), 1 / 3 - (k + 0.5) / 300 % (1 / 3)) > 0.02]
    return pts


def test_the_array_inversion_agrees_with_the_scalar_route_where_the_roots_are_apart():
    """Root by root, in Cardano's order.  numpy's complex arithmetic rounds
    differently from Python's, and the roots' condition number grows as they
    approach each other, so 1e-12 holds where the roots are well apart."""
    pts = _well_separated_points()
    roots = deltoid.invert_phi(np.array(pts))
    pairs = deltoid.invert_phi_pairs(np.array(pts))
    assert roots.shape == (len(pts), 3) and pairs.shape == (len(pts), 3, 2)
    for z, row, pair_row in zip(pts[::9], roots[::9], pairs[::9]):
        assert deltoid.invert_phi(z) == row.tolist()
        assert deltoid.invert_phi_pairs(z) == [tuple(pair) for pair in pair_row.tolist()]
    for z, row, pair_row in zip(pts, roots, pairs):
        assert max(abs(a - b) for a, b in zip(row, scalar_invert_phi(z))) <= 1e-12
        # w1 is each root in turn, and w2 the conjugate of a root that makes
        # (w1, w2) a preimage of z; two of the three conjugates do, so the
        # scalar route's pick between them is set by rounding
        for (w1, w2), root, (_, want) in zip(pair_row, row, scalar_invert_phi_pairs(z)):
            assert w1 == root and w2 in row.conj()
            assert abs(w1 + 1 / w2 + w2 / w1 - z) <= 1e-12
            assert abs(w1 + 1 / want + want / w1 - z) <= 1e-12


def test_the_array_inversion_keeps_the_scalar_rules_at_the_boundary_and_the_cusps():
    """On the boundary curve and next to the cusps the roots coalesce, so
    each is fixed only up to the residual rule |p(w)| <= 1e-9: within
    sqrt(1e-9) of a double root and 1e-9 ** (1/3) of a triple one.  Both
    routes must meet the rule and give the same roots within that."""
    rng = random.Random(19)
    cusps = [3 * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    pts = [deltoid.boundary_point(1.0, rng.random()) for _ in range(400)]
    pts += [c * (1 - eps) for c in cusps for eps in (0, 1e-16, 1e-13, 1e-10, 1e-7)]
    roots = deltoid.invert_phi(np.array(pts))
    for z, row in zip(pts, roots.tolist()):
        want = scalar_invert_phi(z)
        assert all(abs(w ** 3 - z * w ** 2 + z.conjugate() * w - 1) <= 1e-9 for w in row)
        assert max(min(abs(w - v) for v in want) for w in row) <= 2e-3
    assert deltoid.invert_phi(np.array([3 + 0j, 0.5 + 0.25j]))[0].tolist() == [1 + 0j] * 3


def test_a_batch_with_one_point_outside_raises_naming_it():
    batch = np.array([0.5 + 0.25j, 0j, 3 + 3j, 2.9 + 0j])
    with pytest.raises(InvalidParameterError, match=r"^\(3\+3j\) lies outside the deltoid$"):
        deltoid.invert_phi(batch)
    with pytest.raises(InvalidParameterError, match=r"\(3\+3j\)"):
        deltoid.invert_phi_pairs(batch)


def test_invert_phi_rejects_outside():
    with pytest.raises(InvalidParameterError):
        deltoid.invert_phi(3 + 3j)


def test_dl_grid():
    assert len(deltoid.dl_numerators(4)) == 48
    with pytest.raises(InvalidParameterError):
        deltoid.dl_numerators(3)
    pts = _dl_points(6)
    assert len(pts) == 108
    assert len(pts) == 3 * 6 * 6
    pset = set(pts)
    for p in pts:
        for q in deltoid.s3_orbit(p):
            assert q in pset
    # interior-of-C members of D_6 correspond to the level-3 fusion triangle
    strict = [
        p for p in pts
        if 2 * p[1] - p[0] >= Fraction(1, 6) and 2 * p[0] - p[1] >= Fraction(1, 6)
        and p[0] + p[1] <= 1 - Fraction(1, 6)
    ]
    assert len(strict) == 10


def test_fundamental_domain():
    assert _in_fundamental_domain((Fraction(1, 3), Fraction(1, 3)))
    assert not _in_fundamental_domain((0.9, 0.1))
    rng = random.Random(2)
    for _ in range(300):
        p = (rng.random(), rng.random())
        orbit = deltoid.s3_orbit(p)
        hits = [q for q in orbit if _in_fundamental_domain(q)]
        assert len(hits) == 1


def test_boundary_parameterization():
    for k in range(200):
        z = deltoid.boundary_point(1.0, k / 200)
        d = deltoid.discriminant(z)
        assert abs(d) < 1e-9
        assert deltoid.in_deltoid(z)
    inside = deltoid.boundary_point(0.5, 0.1)
    assert deltoid.discriminant(inside).real > 0


def test_density_grid_masks_outside():
    rows = list(deltoid.density_grid(40))
    assert len(rows) == 1600
    outside = [r for r in rows if math.isnan(r[2])]
    inside = [r for r in rows if not math.isnan(r[2])]
    assert outside and inside
    assert all(r[3] > 0 for r in inside if not math.isnan(r[3]))
    # a point well outside the deltoid must be masked
    far = [r for r in rows if r[0] < -2.5 and abs(r[1]) > 2.5]
    assert all(math.isnan(r[2]) for r in far)


@pytest.mark.parametrize("n", [1, 0, -2])
def test_density_grid_needs_two_points_a_side(n):
    with pytest.raises(InvalidParameterError):
        list(deltoid.density_grid(n))


def test_the_dl_grid_size_case_reads_the_points(monkeypatch):
    """A grid with the right length but row 0 shifted by one fails the case:
    l points leave the sublattice and l join it, for each l = 4..12."""
    real = deltoid.dl_numerators

    def row_0_shifted(l):
        q = real(l).copy()
        q[q[:, 0] == 0, 1] += 1
        return q

    monkeypatch.setattr(deltoid, "dl_numerators", row_0_shifted)
    case, = [c for c in run_suite("deltoid-geometry").cases
             if c.case_id == "deltoid-geometry:Dl-grid-size"]
    assert case.status == "fail"
    assert case.measured == f"{2 * sum(range(4, 13))} points differ from the sublattice"


def test_array_forms_match_the_scalar_routes():
    rng = random.Random(11)
    pts = [(rng.random(), rng.random()) for _ in range(300)]
    pts += [(float(a), float(b)) for a, b in _dl_points(7)]
    theta = np.array(pts)
    for p, z, j in zip(pts, deltoid.phi_array(theta), deltoid.jacobian_array(theta)):
        assert abs(z - deltoid.phi(p)) <= 1e-14
        assert math.isclose(j, deltoid.jacobian(p, "sine_product"), rel_tol=1e-15, abs_tol=0)
