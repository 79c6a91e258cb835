"""Geometry of the map Phi: T^2 -> deltoid, the S3 action on the torus,
the Jacobian of the change of variables in its several equivalent forms,
deltoid membership, the cubic inversion of Phi, and the D_l grid.

Angles are taken in [0,1); a rational angle may be a Fraction, and then its
S3 orbit is exact.  Stacked measures use the array forms: Phi and the
sine-product Jacobian over an (N, 2) array of float angles, and D_l as
integer numerators over 3l (``dl_numerators``, written directly, not
filtered), the one form of the grid; Phi on numerators over one denominator
(``phi_grid``) reads each point's w1, w2 from one table of roots of unity.
The cubic inversion (``invert_phi``, ``invert_phi_pairs``) is one array
kernel, Cardano's formula and then a Newton polish of only the roots that
have not yet converged; a single complex point is its one-point form, with
list results.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Tuple, Union

import numpy as np

from .errors import FailedIdentityError, InvalidParameterError, require_int

Angle = Union[Fraction, float]
TorusPoint = Tuple[Angle, Angle]

TWO_PI = 2 * math.pi


def _wrap(x: Angle) -> Angle:
    return x % 1


def _to_float(x: Angle) -> float:
    return float(x)


def phi(p: TorusPoint) -> complex:
    """Phi(w1, w2) = w1 + w2^{-1} + w1^{-1} w2."""
    w1 = cmath.exp(2j * math.pi * _to_float(p[0]))
    w2 = cmath.exp(2j * math.pi * _to_float(p[1]))
    return w1 + 1 / w2 + w2 / w1


def _phi_of(w1: np.ndarray, w2: np.ndarray, inv_w2: np.ndarray) -> np.ndarray:
    return w1 + inv_w2 + w2 / w1


def phi_array(theta: np.ndarray) -> np.ndarray:
    """Phi at each row (theta1, theta2) of an (N, 2) float array; it agrees
    with phi to rounding (numpy divides complex numbers in another order)."""
    w2 = np.exp(2j * math.pi * theta[:, 1])
    return _phi_of(np.exp(2j * math.pi * theta[:, 0]), w2, 1 / w2)


def phi_grid(q: np.ndarray, den: int) -> np.ndarray:
    """Phi at each row (q1, q2) of an (N, 2) array of integer numerators in
    [0, den): bit for bit phi_array(q / den), with each w = e^{2 pi i k/den}
    read from one table of the den roots of unity, and each 1/w2 from the
    table of their inverses (the same division on the same operands)."""
    roots = np.exp(2j * math.pi * (np.arange(den) / den))
    return _phi_of(roots[q[:, 0]], roots[q[:, 1]], (1 / roots)[q[:, 1]])


# The S3 action on exponents, generated by T2 (order 2) and T3 (order 3).
_T2 = ((0, -1), (-1, 0))
_T3 = ((0, -1), (1, -1))


def _mat_apply(mat, p: TorusPoint) -> TorusPoint:
    return (
        _wrap(mat[0][0] * p[0] + mat[0][1] * p[1]),
        _wrap(mat[1][0] * p[0] + mat[1][1] * p[1]),
    )


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


_S3_MATRICES = []
for _g in (((1, 0), (0, 1)), _T3, _mat_mul(_T3, _T3)):
    _S3_MATRICES.append(_g)
    _S3_MATRICES.append(_mat_mul(_T2, _g))


def s3_orbit(p: TorusPoint) -> List[TorusPoint]:
    """The 6 images of p under <T2, T3> (with repeats on fixed loci)."""
    orbit = [_mat_apply(g, p) for g in _S3_MATRICES]
    z = phi(p)
    for q in orbit:
        if abs(phi(q) - z) > 1e-12:
            raise FailedIdentityError("Phi is not constant on the S3 orbit")
    return orbit


def discriminant(z: complex) -> complex:
    """27 - 18 z zbar + 4 z^3 + 4 zbar^3 - z^2 zbar^2 (real on C)."""
    zb = z.conjugate()
    return 27 - 18 * z * zb + 4 * z ** 3 + 4 * zb ** 3 - (z * zb) ** 2


def in_deltoid(z: Union[complex, np.ndarray], tol: float = 1e-9) -> Union[bool, np.ndarray]:
    """Whether z (a complex number, or each point of an array) lies in the
    closed deltoid: its discriminant is real and nonnegative within tol."""
    d = discriminant(z)
    return (abs(d.imag) < tol) & (d.real >= -tol)


def jacobian(p: TorusPoint, form: str = "theta") -> float:
    """Jacobian of Phi at p in one of four equivalent forms.

    theta and sine_product agree exactly; omega agrees up to rounding;
    abs_z returns |J| computed from the discriminant at z = Phi(p).
    """
    t1, t2 = _to_float(p[0]), _to_float(p[1])
    if form == "theta":
        return 4 * math.pi ** 2 * (
            math.sin(TWO_PI * (t1 + t2))
            - math.sin(TWO_PI * (2 * t1 - t2))
            - math.sin(TWO_PI * (2 * t2 - t1))
        )
    if form == "sine_product":
        return -16 * math.pi ** 2 * (
            math.sin((2 * t2 - t1) * math.pi)
            * math.sin((2 * t1 - t2) * math.pi)
            * math.sin((t1 + t2) * math.pi)
        )
    if form == "omega":
        w1 = cmath.exp(2j * math.pi * t1)
        w2 = cmath.exp(2j * math.pi * t2)
        val = -2 * math.pi ** 2 * 1j * (
            w1 * w2 - 1 / (w1 * w2) - w1 ** 2 / w2 + w2 / w1 ** 2
            - w2 ** 2 / w1 + w1 / w2 ** 2
        )
        if abs(val.imag) > 1e-9:
            raise FailedIdentityError("omega-form Jacobian should be real")
        return val.real
    if form == "abs_z":
        d = discriminant(phi(p))
        return 2 * math.pi ** 2 * math.sqrt(max(d.real, 0.0))
    raise InvalidParameterError(f"unknown Jacobian form {form!r}")


def jacobian_array(theta: np.ndarray) -> np.ndarray:
    """The sine_product form of the Jacobian at each row of an (N, 2) float
    array, by the arithmetic of jacobian applied elementwise."""
    t1, t2 = theta[:, 0], theta[:, 1]
    return -16 * math.pi ** 2 * (
        np.sin((2 * t2 - t1) * math.pi)
        * np.sin((2 * t1 - t2) * math.pi)
        * np.sin((t1 + t2) * math.pi)
    )


_THIRD_ROOTS = np.array([cmath.exp(2j * math.pi * k / 3) for k in range(3)])


def _cubic(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(w) = w^3 - z w^2 + zbar w - 1, elementwise."""
    return w ** 3 - z * w ** 2 + z.conj() * w - 1


def _polish(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton-polish each root w of p at the z beside it (equal-shaped 1-d
    arrays); returns the polished roots.

    Along the deltoid boundary the cubic has a double root; there the
    residual is quadratically flat, so where |p'(w)| < 1e-4 the root moves
    to a zero of p' (a full-precision quadratic), the + branch first, if
    that zero lies within 1e-4 and its residual is no worse.  Every other
    root takes up to 60 Newton steps, each root stopping once |p(w)| < 1e-15
    or |p'(w)| < 1e-8."""
    w = w.copy()
    newton = np.ones(len(w), bool)
    near = np.flatnonzero(np.abs(3 * w ** 2 - 2 * z * w + z.conj()) < 1e-4)
    if len(near):
        wn, zn = w[near], z[near]
        disc = np.sqrt(zn * zn - 3 * zn.conj())
        residual = np.abs(_cubic(wn, zn)) + 1e-14
        moved = np.zeros(len(near), bool)
        for cand in ((zn + disc) / 3, (zn - disc) / 3):
            take = ~moved & (np.abs(cand - wn) < 1e-4) & (np.abs(_cubic(cand, zn)) <= residual)
            wn[take] = cand[take]
            moved |= take
        w[near] = wn
        newton[near[moved]] = False
    at = np.flatnonzero(newton)
    for _ in range(60):
        wa, za = w[at], z[at]
        f, df = _cubic(wa, za), 3 * wa ** 2 - 2 * za * wa + za.conj()
        go = (np.abs(f) >= 1e-15) & (np.abs(df) >= 1e-8)
        if not go.any():
            break
        at = at[go]
        w[at] = wa[go] - f[go] / df[go]
    return w


def _roots(z: np.ndarray, tol: float) -> np.ndarray:
    """The (N, 3) array of the roots of p at each point of the 1-d array z,
    in Cardano's order; a point outside the deltoid raises, naming it."""
    outside = ~in_deltoid(z, tol=math.sqrt(tol))
    if outside.any():
        raise InvalidParameterError(f"{complex(z[outside.argmax()])} lies outside the deltoid")
    zb = z.conj()
    p3 = 27 - 9 * z * zb + 2 * z ** 3 + 3 * math.sqrt(3) * np.sqrt(discriminant(z))
    mag = np.abs(p3) ** (1 / 3)
    roots = np.repeat(z[:, None] / 3, 3, axis=1)        # the triple root at a cusp
    live = np.flatnonzero(mag >= 1e-7)
    ang = np.angle(p3[live]) / 3
    ang = np.where(ang < 0, ang + 2 * math.pi / 3, ang)
    ang = np.where(ang >= 2 * math.pi / 3, ang - 2 * math.pi / 3, ang)
    big_p = (mag[live] * np.exp(1j * ang))[:, None]
    zl = z[live, None]
    c = 2 ** (1 / 3)
    w = (zl + big_p * _THIRD_ROOTS / c
         + c * _THIRD_ROOTS.conj() * (zl * zl - 3 * zl.conj()) / big_p) / 3
    roots[live] = _polish(w.reshape(-1), np.repeat(z[live], 3)).reshape(-1, 3)
    residual = np.abs(_cubic(roots[live], zl))
    if (residual > tol).any():
        i, k = divmod(int(residual.argmax()), 3)
        raise FailedIdentityError(f"cubic root {complex(roots[live[i], k])} fails the "
                                  f"residual check at z={complex(z[live[i]])}")
    return roots


def invert_phi(z: Union[complex, np.ndarray],
               tol: float = 1e-9) -> Union[List[complex], np.ndarray]:
    """The three roots w of w^3 - z w^2 + zbar w - 1 = 0 (values of omega_1).

    The omega_2 roots are the conjugates of these; for z inside the deltoid
    all three roots are unimodular.  Cusps (where the cube root P
    degenerates) return the triple root z/3; boundary double roots are
    Newton-polished.  A complex z gives a list of three complex roots; an
    array of points gives an array with one more axis, of length 3, and a
    point outside the deltoid raises for the whole array.
    """
    zs = np.asarray(z, complex)
    roots = _roots(zs.reshape(-1), tol)
    return roots[0].tolist() if zs.ndim == 0 else roots.reshape(zs.shape + (3,))


def invert_phi_pairs(z: Union[complex, np.ndarray], tol: float = 1e-9
                     ) -> Union[List[Tuple[complex, complex]], np.ndarray]:
    """(omega_1, omega_2) preimage pairs of z: each omega_1 root is paired
    with the conjugated root that reproduces z under Phi most closely (the
    first on a tie).  A complex z gives a list of three pairs; an array of
    points gives an array with two more axes, of lengths 3 and 2."""
    zs = np.asarray(z, complex)
    flat = zs.reshape(-1)
    w1 = invert_phi(flat, tol)
    w2 = w1.conj()[:, None, :]
    miss = np.abs(w1[:, :, None] + 1 / w2 + w2 / w1[:, :, None] - flat[:, None, None])
    pairs = np.stack([w1, np.take_along_axis(w1.conj(), miss.argmin(axis=2), axis=1)], axis=-1)
    if zs.ndim == 0:
        return [tuple(pair) for pair in pairs[0].tolist()]
    return pairs.reshape(zs.shape + (3, 2))


def dl_numerators(l: int) -> np.ndarray:
    """D_l as integer numerators over 3l: the (3 l^2, 2) array of all
    (q1, q2) with q1 + q2 = 0 mod 3, q1 outer and q2 inner.  For each q1
    these are q2 = (-q1 mod 3) + 3j, j = 0 .. l - 1, written directly."""
    l = require_int("D_l grid: l", l, 4)
    q1 = np.arange(3 * l)
    q = np.empty((3 * l, l, 2), q1.dtype)
    q[:, :, 0] = q1[:, None]
    q[:, :, 1] = (-q1 % 3)[:, None] + 3 * np.arange(l)
    return q.reshape(-1, 2)


def boundary_point(r: float, t: float) -> complex:
    """Deltoid parameterization; r = 1 traces the boundary curve."""
    x = r * (2 * math.cos(TWO_PI * t) + math.cos(2 * TWO_PI * t))
    y = r * (2 * math.sin(TWO_PI * t) - math.sin(2 * TWO_PI * t))
    return complex(x, y)


def density_grid(n: int) -> np.ndarray:
    """Rows (x, y, |J|, 1/|J|) over the box [-3, 3]^2, x outer and y inner, as
    an (n^2, 4) float array; |J| and 1/|J| are NaN outside the deltoid, and
    1/|J| is NaN where |J| <= 1e-12.

    This is the plotting payload for the continuous deltoid measures: the
    1/|J| density integrates the torus-uniform spectral measure and |J| the
    group-invariant one.  The grid has n >= 2 points a side.

    One numpy pass marks the points whose discriminant could be >= 0, by its
    real form 27 - 18 r^2 + 8 (x^3 - 3 x y^2) - r^4 >= -1e-6.  On the box
    every term is below 10^3 in size, so this form and the complex
    ``discriminant`` both lie within 1e-11 of the exact value, and a point
    left unmarked has a complex discriminant with negative real part.  Only
    the marked points are recomputed with ``discriminant``, so each |J| has
    the bits of the scalar route.
    """
    n = require_int("density grid: n", n, 2)
    axis = [-3.0 + 6.0 * i / (n - 1) for i in range(n)]
    grid = np.full((n * n, 4), np.nan)
    grid[:, 0] = np.repeat(axis, n)
    grid[:, 1] = np.tile(axis, n)
    x, y = grid[:, 0], grid[:, 1]
    r2 = x * x + y * y
    marked = np.flatnonzero(27 - 18 * r2 + 8 * (x ** 3 - 3 * x * y * y) - r2 * r2 >= -1e-6)
    scale, abs_j = 2 * math.pi ** 2, []
    for k in marked.tolist():
        d = discriminant(complex(axis[k // n], axis[k % n]))
        inside = d.real >= 0 and abs(d.imag) <= 1e-9
        abs_j.append(scale * math.sqrt(d.real) if inside else math.nan)
    grid[marked, 2] = abs_j
    grid[marked, 3] = [1.0 / aj if aj > 1e-12 else math.nan for aj in abs_j]
    return grid
