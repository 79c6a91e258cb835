"""Discrete measures on the circle and the 2-torus: atoms at exact rational
angles, weighted by the densities that appear in the spectral measures of the
graph catalogue (alpha_j(u) = 2 Im(u^j)^2, the squared Jacobian on the torus).

A measure is built from a dict of atoms, from a zero-argument function that
returns that dict, or, for the D_l grids of the SU(3) measures, from integer
arrays: numerators over one denominator 3l, with one exact weight or an array
of float weights.  The circle primitives and their sums, scalings and alpha
densities (and the products of two circle measures) pass a function: the
Fraction-keyed atom dict of a measure, like a grid's, is built only when it is
read, once, by the same node-by-node merges as an eager build.  The exact
routes (``fourier``) never read it.  Every measure caches a stacked view
(float angles, float weights and, on the torus, the values of Phi), and the
float torus routes (with_j2, moments_t2) read only that view; a grid measure's
``to_json`` is formatted from its numerators, and its Phi values are read off
one table of the denominator's roots of unity (``deltoid.phi_grid``).

Moments are evaluated two independent ways wherever possible: a float route,
and an exact rational route through the Fourier coefficients of the measure
(uniform root-of-unity measures, Dirac atoms at 0 and 1/2 and the alpha_j
densities all have rational Fourier transforms).  A circle measure's
``fourier`` is then a ``FourierTable``, a flat table of terms (c, s, n), each
meaning c [r + s = 0 (mod n)]: sums concatenate the tables, rational scalings
rescale each c, and alpha_j appends the terms shifted by +-2j.  Every float
moment, on the circle or the torus, is one numpy power sum w z^m conj(z)^n
over the stacked view (``_power_terms``), with z = u + 1/u + shift, u or Phi,
from a stack of the powers of z, each the product of the one before it and
z (``_power_stack``).  A torus measure caches its stack of the powers of Phi
as read-only arrays and grows it on demand, so the moments of many calls on
one measure take each power once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import deltoid
from .errors import FailedIdentityError, InvalidParameterError, NoClosedFormError, require_int
from .graphs import _is_su3, eigendata, parse_id, su3_exponent_angles

Weight = Union[Fraction, float]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FourierTable:
    """The exact Fourier transform r -> integral of u^r of a circle measure,
    as a flat table of terms (c, s, n) with c a Fraction: the sum of c over
    the terms with r + s = 0 (mod n)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[Fraction, int, int]]):
        self.terms = tuple(terms)

    def numerators(self, lo: int, hi: int) -> Tuple[List[int], int]:
        """(C, L): the coefficients at r = lo..hi as integer numerators C
        over one denominator L, each term stepped through the range once."""
        den = math.lcm(*(c.denominator for c, _, _ in self.terms))
        acc = [0] * (hi - lo + 1)
        for c, s, n in self.terms:
            num = c.numerator * (den // c.denominator)
            for i in range((-s - lo) % n, hi - lo + 1, n):
                acc[i] += num
        return acc, den


def _grid_atoms(q: np.ndarray, den: int, exact: Optional[Weight], weights: np.ndarray) -> dict:
    """{(a/den, b/den): weight} over the rows (a, b) of q, in row order."""
    angle = [Fraction(k, den) for k in range(den)]
    keys = [(angle[a], angle[b]) for a, b in q.tolist()]
    values = repeat(exact) if exact is not None else weights.tolist()
    return dict(zip(keys, values))


class DiscreteMeasure:
    """A finite measure on the circle (dimension 1) or the torus (dimension 2).

    ``atoms`` maps each angle key (a Fraction, or a pair of Fractions) to its
    weight and is read-only.  When the measure is given a function in place
    of the dict, ``atoms`` calls it the first time it is read and keeps the
    result.  A measure made by ``on_grid`` keeps its angles as integer
    numerators over one denominator (distinct rows) and builds ``atoms`` the
    same way, in numerator-array order; its Phi values come from the
    numerators too.  The stacked view
    ``angle_array`` (N x dimension floats), ``weight_array`` (N floats) and,
    on the torus, ``phi_array`` (Phi at each atom) is computed once and
    cached, in atom order; its arrays are read-only too, so the view cannot go
    stale.
    """

    def __init__(self, dimension: int, atoms: Union[Mapping, Callable[[], dict]],
                 provenance: str, fourier: Optional[FourierTable] = None):
        self.dimension = dimension
        self.provenance = provenance
        self.fourier = fourier          # 1D only: r -> integral of u^r
        self._atoms: Optional[Mapping] = None
        self._build: Optional[Callable[[], dict]] = None
        if callable(atoms):
            self._build = atoms
        else:
            self._atoms = MappingProxyType(dict(atoms))
        self._grid = None               # (numerators, denominator, exact weight or None)
        self._phi_stack: tuple = ()     # (Phi^0, .., Phi^k), see _phi_powers

    @classmethod
    def on_grid(cls, numerators: np.ndarray, denominator: int, weights: np.ndarray,
                provenance: str, exact_weight: Optional[Weight] = None) -> "DiscreteMeasure":
        """The torus measure with atoms at numerators / denominator (an
        (N, 2) integer array, entries in [0, denominator)) and float weights;
        exact_weight, when given, is the weight every atom carries in
        ``atoms`` (weights then holds its float)."""
        q, w = _frozen(numerators), _frozen(weights)
        mu = cls(2, lambda: _grid_atoms(q, denominator, exact_weight, w), provenance)
        mu._grid = (q, denominator, exact_weight)
        mu.__dict__["weight_array"] = w
        return mu

    @property
    def atoms(self) -> Mapping:
        if self._atoms is None:
            self._atoms = MappingProxyType(self._build())
            self._build = None          # drop the closure and the measures it holds
        return self._atoms

    @cached_property
    def angle_array(self) -> np.ndarray:
        if self._grid is not None:
            q, den, _ = self._grid
            return _frozen(q / den)
        keys = self.atoms if self.dimension == 2 else ((t,) for t in self.atoms)
        flat = [float(t) for key in keys for t in key]
        return _frozen(np.array(flat, dtype=float).reshape(-1, self.dimension))

    @cached_property
    def weight_array(self) -> np.ndarray:
        return _frozen(np.array([float(w) for w in self.atoms.values()], dtype=float))

    @cached_property
    def phi_array(self) -> np.ndarray:
        if self.dimension != 2:
            raise InvalidParameterError("Phi is evaluated on torus measures")
        if self._grid is not None:
            q, den, _ = self._grid
            return _frozen(deltoid.phi_grid(q, den))
        return _frozen(deltoid.phi_array(self.angle_array))

    def _phi_powers(self, top: int) -> tuple:
        """(Phi^0, .., Phi^k) at each atom for some k >= top: one cached
        stack of read-only arrays, grown on demand, so that a call that needs
        a higher power takes only the products not yet taken."""
        if len(self._phi_stack) <= top:
            grown = _power_stack(self.phi_array, top, self._phi_stack)
            self._phi_stack = tuple(map(_frozen, grown))
        return self._phi_stack

    def _with_weights(self, weights: np.ndarray, provenance: str) -> "DiscreteMeasure":
        """The same atoms with new float weights (in atom order): a grid stays
        a grid, and the cached angles and Phi values carry over."""
        if self._grid is not None:
            q, den, _ = self._grid
            out = DiscreteMeasure.on_grid(q, den, weights, provenance)
        else:
            out = DiscreteMeasure(self.dimension, dict(zip(self.atoms, weights.tolist())),
                                  provenance)
        for name in ("angle_array", "phi_array"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    def total_mass(self) -> float:
        return float(sum(self.atoms.values()))

    def atoms_sorted(self) -> list:
        return sorted(self.atoms.items())

    def _grid_sorted(self) -> Tuple[list, list, int]:
        """A grid measure's numerator rows (a, b) sorted by (a, b), their
        float weights in the same order, and the denominator: the atoms in
        angle order, without the atom dict."""
        q, den, _ = self._grid
        order = np.lexsort((q[:, 1], q[:, 0]))
        return q[order].tolist(), self.weight_array[order].tolist(), den

    def float_rows(self) -> list:
        """(angle, weight) or (angle1, angle2, weight) float rows in angle
        order; a grid measure's are read off its numerators."""
        if self._grid is not None:
            rows, weights, den = self._grid_sorted()
            return [(a / den, b / den, w) for (a, b), w in zip(rows, weights)]
        if self.dimension == 1:
            return [(float(t), float(w)) for t, w in self.atoms_sorted()]
        return [(float(t[0]), float(t[1]), float(w)) for t, w in self.atoms_sorted()]

    def to_json(self) -> dict:
        """The atoms in angle order, each angle as reduced "p/q" strings.  A
        grid measure is formatted from its numerators, without the atom
        dict: rows sorted by (a, b), each a/den reduced by gcd."""
        if self._grid is not None:
            rows, weights, den = self._grid_sorted()
            label = [f"{k // math.gcd(k, den)}/{den // math.gcd(k, den)}" for k in range(den)]
            atoms = [{"theta": [label[a], label[b]], "weight": w}
                     for (a, b), w in zip(rows, weights)]
        else:
            def fmt(theta):
                if self.dimension == 1:
                    return f"{theta.numerator}/{theta.denominator}"
                return [f"{t.numerator}/{t.denominator}" for t in theta]

            atoms = [{"theta": fmt(t), "weight": float(w)} for t, w in self.atoms_sorted()]
        return {"dimension": self.dimension, "atoms": atoms, "provenance": self.provenance}


def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, w in b.items():
        out[k] = out.get(k, 0) + w
    return out


def _check_weight(what: str, c) -> None:
    """InvalidParameterError naming c unless it is an int, a Fraction or a
    float (not a bool): checked when a measure is made, before any atom is."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction, float)):
        raise InvalidParameterError(f"{what} must be an int, a Fraction or a float, got {c!r}")


def add(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    if mu.dimension != nu.dimension:
        raise InvalidParameterError("cannot add measures of different dimension")
    fr = None
    if mu.fourier is not None and nu.fourier is not None:
        fr = FourierTable(mu.fourier.terms + nu.fourier.terms)
    return DiscreteMeasure(
        mu.dimension,
        lambda: _merge(mu.atoms, nu.atoms),
        f"({mu.provenance} + {nu.provenance})",
        fr,
    )


def scale(c: Weight, mu: DiscreteMeasure) -> DiscreteMeasure:
    _check_weight("a scale factor", c)
    fr = None
    if mu.fourier is not None and isinstance(c, (Fraction, int)):
        cc = Fraction(c)
        fr = FourierTable((cc * ct, s, n) for ct, s, n in mu.fourier.terms)
    return DiscreteMeasure(
        mu.dimension,
        lambda: {k: c * w for k, w in mu.atoms.items()},
        f"{c}*{mu.provenance}",
        fr,
    )


def combine(*terms) -> DiscreteMeasure:
    """Linear combination [(c1, mu1), (c2, mu2), ...]."""
    acc = scale(terms[0][0], terms[0][1])
    for c, mu in terms[1:]:
        acc = add(acc, scale(c, mu))
    return acc


# -- 1D primitives -----------------------------------------------------------

def uniform_roots(n_roots: int) -> DiscreteMeasure:
    """Uniform measure on the n-th roots of unity."""
    n_roots = require_int("the number of roots", n_roots, 1)
    return DiscreteMeasure(
        1, lambda: {Fraction(j, n_roots): Fraction(1, n_roots) for j in range(n_roots)},
        f"u[{n_roots}]",
        fourier=FourierTable([(Fraction(1), 0, n_roots)]),
    )


def d_measure(n: int) -> DiscreteMeasure:
    """d_n: uniform on the 2n-th roots of unity."""
    n = require_int("d_n: n", n, 1)
    mu = uniform_roots(2 * n)
    mu.provenance = f"d_{n}"
    return mu


def dprime_measure(n: int) -> DiscreteMeasure:
    """d'_n = 2 d_{2n} - d_n: uniform on the 4n-th roots of odd order."""
    require_int("d'_n: n", n)
    mu = combine((Fraction(2), d_measure(2 * n)), (Fraction(-1), d_measure(n)))
    mu.provenance = f"d'_{n}"
    return mu


def ddprime_measure(n: int) -> DiscreteMeasure:
    """d''_n = (3 d'_{3n} - d'_n)/2: uniform on 12n-th roots of order 6k+-1."""
    require_int("d''_n: n", n)
    mu = combine(
        (Fraction(3, 2), dprime_measure(3 * n)), (Fraction(-1, 2), dprime_measure(n))
    )
    mu.provenance = f"d''_{n}"
    return mu


def dirac(theta: Fraction, weight: Weight = 1) -> DiscreteMeasure:
    _check_weight("a dirac weight", weight)
    try:
        theta = Fraction(theta) % 1
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"dirac angle must be rational, got {theta!r}") from None
    fr = None
    if theta.denominator in (1, 2) and isinstance(weight, (int, Fraction)):
        w = Fraction(weight)
        # u^r is 1 at theta = 0, and (-1)^r = 2 [r even] - 1 at theta = 1/2
        fr = FourierTable([(w, 0, 1)] if theta == 0 else [(2 * w, 0, 2), (-w, 0, 1)])
    return DiscreteMeasure(1, {theta: weight}, f"delta_{theta}", fr)


def alpha_value(theta: float, j: int = 1) -> float:
    """alpha_j(u) = 2 Im(u^j)^2 at u = e^{2 pi i theta}."""
    return 2 * math.sin(2 * math.pi * j * theta) ** 2


def with_alpha(mu: DiscreteMeasure, j: int = 1) -> DiscreteMeasure:
    """Multiply a 1D measure by the density alpha_j."""
    if mu.dimension != 1:
        raise InvalidParameterError("alpha densities act on circle measures")
    j = require_int("alpha_j: j", j, 1)
    fr = None
    if mu.fourier is not None:
        # alpha_j(u) = 1 - (u^{2j} + u^{-2j})/2 acts as a Fourier convolution:
        # c-hat(r) - (c-hat(r + 2j) + c-hat(r - 2j))/2
        terms = mu.fourier.terms
        fr = FourierTable(terms + tuple((-c / 2, s + d, n) for c, s, n in terms
                                        for d in (2 * j, -2 * j)))
    name = f"alpha_{j}" if j != 1 else "alpha"
    return DiscreteMeasure(
        1, lambda: {t: w * alpha_value(float(t), j) for t, w in mu.atoms.items()},
        f"{name}*{mu.provenance}", fr)


# -- 2D primitives -----------------------------------------------------------

def product_measure(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    if mu.dimension != 1 or nu.dimension != 1:
        raise InvalidParameterError("product needs two circle measures")
    return DiscreteMeasure(2, lambda: {
        (t1, t2): w1 * w2
        for t1, w1 in mu.atoms.items()
        for t2, w2 in nu.atoms.items()
    }, f"({mu.provenance} x {nu.provenance})")


def dl_measure(l: int) -> DiscreteMeasure:
    """d^(l): uniform measure on the 3 l^2 points of the grid D_l, held as
    integer numerators over 3l."""
    q = deltoid.dl_numerators(l)
    w = Fraction(1, len(q))
    return DiscreteMeasure.on_grid(q, 3 * l, np.full(len(q), float(w)), f"d^({l})",
                                   exact_weight=w)


def with_j2(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Multiply a torus measure by J(theta1, theta2)^2 / (24 pi^4); a grid
    stays a grid."""
    if mu.dimension != 2:
        raise InvalidParameterError("J^2 density acts on torus measures")
    jv = deltoid.jacobian_array(mu.angle_array)
    weights = mu.weight_array * jv * jv / (24 * math.pi ** 4)
    return mu._with_weights(weights, f"J^2/(24pi^4)*{mu.provenance}")


# -- composition-tree entry point ---------------------------------------------

# spec node -> (fewest, most arguments after its name, builder); most None:
# any number
_SPEC_NODES = {
    "d": (1, 1, d_measure),
    "dprime": (1, 1, dprime_measure),
    "ddprime": (1, 1, ddprime_measure),
    "roots": (1, 1, uniform_roots),
    "dirac": (1, 2, dirac),
    "dl": (1, 1, dl_measure),
    "alpha": (1, 1, lambda s: with_alpha(make_measure(s))),
    "alpha_j": (2, 2, lambda j, s: with_alpha(make_measure(s), j=j)),
    "j2": (1, 1, lambda s: with_j2(make_measure(s))),
    "product": (2, 2, lambda s, t: product_measure(make_measure(s), make_measure(t))),
    "scale": (2, 2, lambda c, s: scale(c, make_measure(s))),
    "sum": (1, None, lambda *ss: combine(*[(1, make_measure(s)) for s in ss])),
}


def make_measure(spec) -> DiscreteMeasure:
    """Build a measure from a composition tree, e.g.
    ("sum", ("scale", Fraction(1,2), ("d", 3)), ("alpha", ("d", 12)))."""
    if isinstance(spec, DiscreteMeasure):
        return spec
    if not isinstance(spec, (tuple, list)) or not spec or not isinstance(spec[0], str):
        raise InvalidParameterError(f"measure spec node {spec!r} is not a tuple (name, *args)")
    op, args = spec[0], spec[1:]
    if op not in _SPEC_NODES:
        raise InvalidParameterError(f"unknown measure spec node {op!r}")
    fewest, most, build = _SPEC_NODES[op]
    if len(args) < fewest or (most is not None and len(args) > most):
        raise InvalidParameterError(
            f"measure spec node {spec!r}: {op!r} takes {fewest} to {most or 'any'} "
            f"arguments, got {len(args)}")
    return build(*args)


# -- moment evaluation -------------------------------------------------------

def _power_stack(z: np.ndarray, top: int, lower: Sequence[np.ndarray] = ()) -> list:
    """[z^0 .. z^top], each power the product of the one before it and z.
    The powers in lower, the first ones already taken, are reused, not
    recomputed."""
    powers = list(lower) or [np.ones_like(z)]
    while len(powers) <= top:
        powers.append(powers[-1] * z)
    return powers


def _power_terms(powers: Sequence[np.ndarray], w: np.ndarray,
                 pairs: Sequence[Tuple[int, int]]) -> Iterator[np.ndarray]:
    """The terms w z^m conj(z)^n of each pair (m, n), in pair order: one
    array per pair, from a stack of the powers of z (`_power_stack`)."""
    return (w * powers[m] * powers[n].conj() for m, n in pairs)


def moments_t(mu: DiscreteMeasure, orders: Iterable[int],
              shift: int = 0) -> Dict[int, float]:
    """Integral of (u + u^{-1} + shift)^m for each order m, as power sums
    over the stacked view: one evaluation of u and one stack of powers per
    call.  Every order is checked first."""
    if mu.dimension != 1:
        raise InvalidParameterError("moment_t needs a circle measure")
    orders = [require_int("a moment order", m, 0) for m in orders]
    u = np.exp(2j * np.pi * mu.angle_array[:, 0])
    powers = _power_stack(u + 1 / u + shift, max(orders, default=0))
    terms = _power_terms(powers, mu.weight_array, [(m, 0) for m in orders])
    out = {}
    for m, t in zip(orders, terms):
        total = complex(t.sum())
        size = float(np.abs(t).sum())   # the scale of the rounding in total
        if abs(total.imag) > 1e-12 * max(1.0, size):
            raise FailedIdentityError(f"moment has imaginary residue {total.imag}")
        out[m] = total.real
    return out


def moment_t(mu: DiscreteMeasure, m: int, shift: int = 0) -> float:
    """Integral of (u + u^{-1} + shift)^m, as a power sum over the stacked
    view."""
    return moments_t(mu, [m], shift)[m]


def moment_t_exact(mu: DiscreteMeasure, m: int, shift: int = 0) -> Optional[Fraction]:
    """Exact rational moment via the Fourier transform, when available.

    (u + u^{-1} + shift)^m is a Laurent polynomial sum_r P_r u^r, |r| <= m,
    so the moment is sum_r P_r c-hat(r), with each c-hat(r) read once.
    """
    m = require_int("a moment order", m, 0)
    if mu.fourier is None:
        return None
    s = Fraction(shift)
    if s.denominator == 1:
        s = s.numerator
    poly = [1]                          # coefficients of u^-k .. u^k after k factors
    for _ in range(m):
        poly = [a + s * b + c for a, b, c in zip([0, 0] + poly, [0] + poly + [0], poly + [0, 0])]
    nums, den = mu.fourier.numerators(-m, m)
    return Fraction(sum(p * c for p, c in zip(poly, nums)), den)


def circle_series(mu: DiscreteMeasure, order: int) -> list:
    """Taylor coefficients of int (1 - q u)^{-1} d mu, i.e. the Fourier
    moments int u^m d mu for m = 0..order; exact when possible."""
    if mu.dimension != 1:
        raise InvalidParameterError("circle_series needs a circle measure")
    order = require_int("series order", order, 0)
    if mu.fourier is not None:
        nums, den = mu.fourier.numerators(0, order)
        return [Fraction(c, den) for c in nums]
    u = np.exp(2j * np.pi * mu.angle_array[:, 0])
    out = []
    for terms in _power_terms(_power_stack(u, order), mu.weight_array,
                              [(m, 0) for m in range(order + 1)]):
        val = complex(terms.sum())
        if abs(val.imag) > 1e-10:
            raise FailedIdentityError("circle series should be real for symmetric measures")
        out.append(val.real)
    return out


def moments_t2(mu: DiscreteMeasure,
               pairs: Iterable[Tuple[int, int]]) -> Dict[Tuple[int, int], complex]:
    """Integral of Phi^m conj(Phi)^n for each pair (m, n), for a torus measure.

    The powers of Phi come from the measure's cached stack
    (``DiscreteMeasure._phi_powers``), so each power is computed once per
    measure however many calls ask for it; each pair is then one weighted
    sum over Phi^m conj(Phi^n).  Every pair is checked first.
    """
    if mu.dimension != 2:
        raise InvalidParameterError("moment_t2 needs a torus measure")
    pairs = [(require_int("a moment order", m, 0), require_int("a moment order", n, 0))
             for m, n in pairs]
    top = max((max(p) for p in pairs), default=0)
    terms = _power_terms(mu._phi_powers(top), mu.weight_array, pairs)
    return {pair: complex(np.sum(t)) for pair, t in zip(pairs, terms)}


def moment_t2(mu: DiscreteMeasure, m: int, n: int) -> complex:
    """Integral of Phi^m conj(Phi)^n for a torus measure."""
    return moments_t2(mu, [(m, n)])[(m, n)]


# -- canonical measures ------------------------------------------------------

def _e_measure(n: int) -> DiscreteMeasure:
    if n == 6:
        return add(
            with_alpha(d_measure(12)),
            combine(
                (Fraction(1, 2), d_measure(12)),
                (Fraction(-1, 2), d_measure(6)),
                (Fraction(-1, 2), d_measure(4)),
                (Fraction(1, 2), d_measure(3)),
            ),
        )
    if n == 7:
        return combine(
            (Fraction(2, 3), with_alpha(ddprime_measure(3), j=2)),
            (Fraction(1, 3), dprime_measure(1)),
        )
    a13_d5 = add(
        with_alpha(ddprime_measure(5), j=1), with_alpha(ddprime_measure(5), j=3)
    )
    return combine((Fraction(2, 3), a13_d5), (Fraction(-1, 3), ddprime_measure(1)))


def _affine_e_measure(n: int) -> DiscreteMeasure:
    k = {6: 3, 7: 4, 8: 6}[n]
    j = {6: 2, 7: 3, 8: 5}[n]
    return combine(
        (Fraction(1), with_alpha(d_measure(k))),
        (Fraction(-1, 2), d_measure(k)),
        (Fraction(1, 2), d_measure(j)),
    )


def _su3_d_measure(n: int) -> DiscreteMeasure:
    """J^2-weighted uniform measure on the n x n grid Z_n x Z_n, in the key
    order and with the weights of the product of two uniform_roots(n)."""
    w = Fraction(1, n * n)
    q = np.stack(divmod(np.arange(n * n), n), axis=1)
    mu = with_j2(DiscreteMeasure.on_grid(q, n, np.full(n * n, float(w)), f"(u[{n}] x u[{n}])",
                                         exact_weight=w))
    mu.provenance = f"J^2/(24pi^4)*(d_{n}/2 x d_{n}/2)"
    return mu


# family -> the closed form at the family's argument; None: the family has
# no root-of-unity closed form
_CANONICAL: Dict[str, Optional[Callable[[int], DiscreteMeasure]]] = {
    "A": lambda n: with_alpha(d_measure(n + 1)),
    "D": lambda n: with_alpha(dprime_measure(n - 1)),
    "E": _e_measure,
    "Aff-A": lambda n: uniform_roots(n) if n % 2 else d_measure(n // 2),
    "Aff-D": lambda n: combine(
        (Fraction(1, 2), d_measure(n - 2)), (Fraction(1, 2), dprime_measure(1))
    ),
    "Aff-E": _affine_e_measure,
    "SU3-A": lambda l: with_j2(dl_measure(l)),
    "SU3-D": _su3_d_measure,
    "SU3-Astar": lambda l: with_alpha(uniform_roots(l)),
    "SU3-E": None,
    "SU3-E1": None,
}


def canonical_measure(graph_id: str) -> DiscreteMeasure:
    """The closed-form spectral measure of a catalogue graph (over T or T^2)."""
    name, n = parse_id(graph_id)
    if name not in _CANONICAL:
        raise InvalidParameterError(f"no canonical measure for {graph_id!r}")
    build = _CANONICAL[name]
    if build is None:
        raise NoClosedFormError(
            f"{graph_id} has no root-of-unity closed form; use eigendata atoms"
        )
    mu = build(n)
    mu.provenance = f"{graph_id}: {mu.provenance}"
    return mu


def exceptional_measure_atoms(graph_id: str) -> DiscreteMeasure:
    """S3-symmetrized torus atom list of an SU(3) graph, assembled from
    eigendata.  It exists for the exceptional graphs (their measures are not
    root-of-unity combinations; this is their atom-list representation)."""
    name, l = parse_id(graph_id)
    if not _is_su3(name):
        raise InvalidParameterError(f"{graph_id} has no SU(3) exponents")
    ed = eigendata(graph_id)
    atoms: dict = {}
    for e in ed.entries:
        t = su3_exponent_angles(l, e.exponent)
        w = e.weight * e.multiplicity
        for q in deltoid.s3_orbit(t):
            atoms[q] = atoms.get(q, 0.0) + w / 6.0
    return DiscreteMeasure(2, atoms, f"{graph_id}: S3-orbit atoms of eigendata")


# -- linear solver for measure decompositions --------------------------------

@dataclass
class FitResult:
    feasible: bool
    coefficients: Optional[list]
    residual: float                       # max |A c - b| at the least-squares fit
    certificate: list = field(default_factory=list)  # (row, residual) of inconsistent rows

    @property
    def max_certificate_residual(self) -> float:
        return max((abs(r) for _, r in self.certificate), default=0.0)


def fit_linear_system(rows: Sequence[Sequence[float]], rhs: Sequence[float],
                      tol: float = 1e-9) -> FitResult:
    """Solve rows * c = rhs; on inconsistency report which equations fail.

    Sequential elimination (in the given row order) produces the
    certificate: a row that reduces to 0 = r with |r| > tol is inconsistent.
    Rational inputs are eliminated exactly, and the elimination alone decides
    them: a consistent exact system has its exact solution and residual 0.
    Least squares gives a float system's coefficients, and the residual of
    every system found infeasible.
    """
    if not rows:
        raise InvalidParameterError("a linear system needs at least one equation")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise InvalidParameterError("the rows of a linear system must have equal length")
    if len(rhs) != len(rows):
        raise InvalidParameterError(
            f"the right-hand side has {len(rhs)} entries for {len(rows)} rows")
    exact = all(
        isinstance(x, (int, Fraction)) for row in rows for x in row
    ) and all(isinstance(x, (int, Fraction)) for x in rhs)
    work = [
        ([Fraction(x) for x in row] if exact else [float(x) for x in row])
        + [Fraction(b) if exact else float(b)]
        for row, b in zip(rows, rhs)
    ]
    pivots: List[Tuple[int, list]] = []
    certificate = []
    for ri, row in enumerate(work):
        row = list(row)
        for col, prow in pivots:
            f = row[col] / prow[col]
            if f:
                row = [a - f * b for a, b in zip(row, prow)]
        lead = None
        for c in range(ncols):
            if (row[c] != 0) if exact else (abs(row[c]) > 1e-12):
                lead = c
                break
        if lead is None:
            r = row[-1]
            if (r != 0) if exact else (abs(r) > tol):
                certificate.append((ri, float(r)))
        else:
            # Gauss-Jordan: clear the new pivot column from earlier pivots so
            # each pivot row meets only its own column among pivot columns
            for k, (col0, prow0) in enumerate(pivots):
                f = prow0[lead] / row[lead]
                if f:
                    pivots[k] = (col0, [a - f * b for a, b in zip(prow0, row)])
            pivots.append((lead, row))

    if exact and not certificate:
        # the elimination decides an exact system: back-substitute, with no float
        solution = [Fraction(0)] * ncols
        for col, prow in pivots:
            acc = prow[-1]
            for c in range(ncols):
                if c != col:
                    acc -= prow[c] * solution[c]
            solution[col] = acc / prow[col]
        return FitResult(True, solution, 0.0, certificate)
    a = np.array([[float(x) for x in row] for row in rows], dtype=float)
    b = np.array([float(x) for x in rhs], dtype=float)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(a @ coeffs - b)))
    feasible = not exact and residual < tol and not certificate
    sol = [float(c) for c in coeffs] if feasible else None
    return FitResult(feasible, sol, residual, certificate)


def cyclotomic_fit(target: DiscreteMeasure, basis: Sequence[DiscreteMeasure],
                   tol: float = 1e-9) -> FitResult:
    """Express target as a linear combination of the basis measures, by
    comparing weights atom-by-atom on the union of their supports."""
    if not basis:
        raise InvalidParameterError("empty basis")
    if any(mu.dimension != target.dimension for mu in basis):
        raise InvalidParameterError("target and basis measures differ in dimension")
    keys = sorted(set(target.atoms) | {k for mu in basis for k in mu.atoms})
    if not keys:
        raise InvalidParameterError("target and basis measures have no atoms")
    rows = [[mu.atoms.get(k, 0) for mu in basis] for k in keys]
    rhs = [target.atoms.get(k, 0) for k in keys]
    return fit_linear_system(rows, rhs, tol=tol)


def cyclotomic_basis(n_divides: int) -> List[DiscreteMeasure]:
    """The cyclotomic candidates {d_n, alpha d_n : n | N} (alpha d_1 = 0 is
    omitted, matching the definition of cyclotomic measures)."""
    divisors = [n for n in range(1, n_divides + 1) if n_divides % n == 0]
    out: List[DiscreteMeasure] = [d_measure(n) for n in divisors]
    out += [with_alpha(d_measure(n)) for n in divisors if n >= 2]
    return out


def exceptional_obstruction_system(graph_id: str):
    """The three-equation linear system showing the exceptional SU(3)
    spectral measures are not built from uniform / J^2-weighted grids.

    Rows are (1, J(theta)^2 / 16 pi^4) at three grid points that any
    candidate combination must weight together; the right side holds the
    actual measure weights at those points.
    """
    if graph_id == "SU3-E(8)":
        probes = [
            (Fraction(8, 24), Fraction(13, 24)),
            (Fraction(7, 24), Fraction(8, 24)),
            (Fraction(10, 24), Fraction(11, 24)),
        ]
        ed = {tuple(e.exponent): e.weight for e in eigendata(graph_id).entries}
        rhs = [ed[(5, 0)], ed[(2, 1)], ed[(2, 3)]]
    elif graph_id == "SU3-E1(12)":
        probes = [
            (Fraction(1, 12), Fraction(1, 12)),
            (Fraction(5, 12), Fraction(5, 12)),
            (Fraction(5, 12), Fraction(6, 12)),
        ]
        ed = {tuple(e.exponent): e.weight for e in eigendata(graph_id).entries}
        rhs = [ed[(0, 0)], ed[(4, 4)], 0.0]
    else:
        raise InvalidParameterError(f"no obstruction system for {graph_id!r}")
    rows = []
    for p in probes:
        jv = deltoid.jacobian(p, "sine_product")
        rows.append([1.0, jv * jv / (16 * math.pi ** 4)])
    return rows, rhs
