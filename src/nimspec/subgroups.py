"""Finite subgroups of SU(2): matrix enumeration from generators, conjugacy
class data checked against the shipped character tables, moments of the
fundamental character, and two generating series (the Molien series of the
symmetric algebra, and the class-sum series whose coefficients count
multiplicities of the trivial representation in restricted SU(2)
irreducibles).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    DataIntegrityError,
    FailedIdentityError,
    GeneratorTranscriptionError,
    InvalidParameterError,
    require_int,
)
from .series import TruncatedSeries


# One row per catalogue group: its n in words, whether it accepts n (None
# when no n is given), and its order at n
_GROUPS = {
    "Z2n": ("n >= 1", lambda n: n is not None and n >= 1, lambda n: 2 * n),
    "BD": ("n >= 3", lambda n: n is not None and n >= 3, lambda n: 4 * (n - 2)),
    "BT": ("no parameter", lambda n: n is None, lambda n: 24),
    "BO": ("no parameter", lambda n: n is None, lambda n: 48),
    "BI": ("no parameter", lambda n: n is None, lambda n: 120),
}


def _check_group(name: str, n: Optional[int]) -> int:
    """Check the group id (name, n) against its row of _GROUPS; return |G|."""
    if name not in _GROUPS:
        raise InvalidParameterError(f"unknown group {name!r}")
    domain, accepts, order = _GROUPS[name]
    if n is not None:
        n = require_int(f"{name}: n", n)
    if not accepts(n):
        got = "no parameter" if n is None else f"n = {n}"
        raise InvalidParameterError(f"{name} needs {domain}, got {got}")
    return order(n)


@dataclass(frozen=True)
class FiniteMatrixGroup:
    base: str                  # 'Z2n', 'BD', 'BT', 'BO' or 'BI'
    n: Optional[int]           # the parameter of Z2n and BD, else None
    elements: tuple            # tuple of 2x2 numpy arrays
    generators: tuple

    @property
    def name(self) -> str:
        return self.base if self.n is None else f"{self.base}({self.n})"

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ClassRow:
    label: str
    size: int
    chi_rho: float

    @property
    def theta(self) -> float:
        """Angle of Phi^{-1}(chi) = (chi + i sqrt(4 - chi^2))/2 on T."""
        u = (self.chi_rho + 1j * math.sqrt(max(4 - self.chi_rho ** 2, 0.0))) / 2
        return (cmath.phase(u) / (2 * math.pi)) % 1


@dataclass(frozen=True)
class ClassData:
    group_name: str
    rows: tuple

    @property
    def order(self) -> int:
        return sum(r.size for r in self.rows)

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "classes": [
                {"class_label": r.label, "size": r.size,
                 "chi_rho": r.chi_rho, "theta": r.theta}
                for r in self.rows
            ],
        }


def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=complex)


def _gen_matrices(name: str, n: Optional[int]) -> List[np.ndarray]:
    _check_group(name, n)
    if name == "Z2n":
        u = cmath.exp(1j * math.pi / n)
        return [_mat([[u, 0], [0, u.conjugate()]])]
    if name == "BD":
        xi = cmath.exp(1j * math.pi / (n - 2))
        return [
            _mat([[xi, 0], [0, xi.conjugate()]]),
            _mat([[0, 1], [-1, 0]]),
        ]
    eps8 = cmath.exp(2j * math.pi / 8)
    if name == "BT":
        return [
            _mat([[1j, 0], [0, -1j]]),
            _mat([[0, 1], [-1, 0]]),
            _mat([[eps8 ** 7, eps8 ** 7], [eps8 ** 5, eps8]]) / math.sqrt(2),
        ]
    if name == "BO":
        return _gen_matrices("BT", None) + [_mat([[eps8, 0], [0, eps8 ** 7]])]
    e = cmath.exp(2j * math.pi / 5)                         # BI
    return [
        _mat([[-e ** 3, 0], [0, -e ** 2]]),
        _mat([[e ** 4 - e, e ** 2 - e ** 3],
              [e ** 2 - e ** 3, e - e ** 4]]) / math.sqrt(5),
    ]


def _keys(stack: np.ndarray) -> List[bytes]:
    """One hashable key per matrix of a stack: the real and imaginary parts
    of every entry scaled by 1e7 and rounded to int64, one row per matrix."""
    parts = np.ascontiguousarray(stack).view(np.float64).reshape(len(stack), -1)
    return [row.tobytes() for row in np.rint(parts * 1e7).astype(np.int64)]


def generate_group(name: str, n: Optional[int] = None) -> FiniteMatrixGroup:
    """Enumerate the group by closure under multiplication.

    Each breadth-first step multiplies the whole frontier by every generator
    in one stacked product; new elements keep the order of the element-wise
    loop g @ h (g in the frontier, h in the generators).  Elements are equal
    when their integer keys are: every real and imaginary part scaled by 1e7
    and rounded.  The minimum gap between distinct elements of these groups
    is O(0.1), far above the rounding.
    """
    expected = _check_group(name, n)
    gens = _gen_matrices(name, n)
    gen_stack = np.array(gens)
    ident = np.eye(2, dtype=complex)
    elems: Dict[bytes, np.ndarray] = {_keys(ident[None])[0]: ident}
    frontier = ident[None]
    while len(frontier):
        prods = (frontier[:, None] @ gen_stack[None]).reshape(-1, 2, 2)
        new = []
        for k, prod in zip(_keys(prods), prods):
            if k not in elems:
                elems[k] = prod
                new.append(prod)
        if len(elems) > 10 * expected:
            raise GeneratorTranscriptionError(
                f"{name}: closure exceeded 10x the expected order {expected}"
            )
        frontier = np.array(new).reshape(-1, 2, 2)
    if len(elems) != expected:
        raise GeneratorTranscriptionError(
            f"{name}: enumerated order {len(elems)} != expected {expected}"
        )
    if np.any(np.abs(np.linalg.det(np.array(list(elems.values()))) - 1) > 1e-10):
        raise GeneratorTranscriptionError(f"{name}: non-unimodular element")
    return FiniteMatrixGroup(name, n, tuple(elems.values()), tuple(gens))


# -- character tables as printed (double-entry bookkeeping vs enumeration) ---

_SQRT2 = math.sqrt(2)
_MU_P = (1 + math.sqrt(5)) / 2
_MU_M = (1 - math.sqrt(5)) / 2

_BT_TABLE = [("1", 1, 2.0), ("-1", 1, -2.0), ("tau", 6, 0.0), ("mu", 4, 1.0),
             ("mu^2", 4, -1.0), ("mu^4", 4, -1.0), ("mu^5", 4, 1.0)]
_BO_TABLE = [("1", 1, 2.0), ("-1", 1, -2.0), ("mu", 8, 1.0), ("mu^2", 8, -1.0),
             ("tau", 6, 0.0), ("kappa", 6, _SQRT2), ("tau*kappa", 12, 0.0),
             ("kappa^3", 6, -_SQRT2)]
_BI_TABLE = [("1", 1, 2.0), ("-1", 1, -2.0), ("sigma", 12, _MU_P),
             ("sigma^2", 12, -_MU_M), ("sigma^3", 12, _MU_M),
             ("sigma^4", 12, -_MU_P), ("tau", 30, 0.0),
             ("sigma^2*tau", 20, -1.0), ("sigma^7*tau", 20, 1.0)]


def reference_table(name: str, n: Optional[int] = None) -> List[Tuple[str, int, float]]:
    """The character-table rows (label, class size, chi_rho) as printed."""
    _check_group(name, n)
    if name == "BT":
        return list(_BT_TABLE)
    if name == "BO":
        return list(_BO_TABLE)
    if name == "BI":
        return list(_BI_TABLE)
    if name == "Z2n":
        return [(f"g^{j}", 1, 2 * math.cos(math.pi * j / n)) for j in range(2 * n)]
    rows = [("1", 1, 2.0), ("(tau*sigma)^2", 1, -2.0)]          # BD
    rows += [
        (f"sigma^{j}", 2, 2 * math.cos(j * math.pi / (n - 2)))
        for j in range(1, n - 2)
    ]
    rows += [("tau", n - 2, 0.0), ("tau*sigma", n - 2, 0.0)]
    return rows


def conjugacy_classes(group: FiniteMatrixGroup) -> List[List[np.ndarray]]:
    """Orbits of the conjugation action, in order of their first element.

    For each representative g not yet in a class, all conjugates h g h^H
    come from one stacked product, and their keys index the element list.
    A conjugate missing from the list is a data-integrity error: the
    elements are not closed under conjugation.
    """
    elems = group.elements
    stack = np.array(elems)
    stack_h = stack.conj().transpose(0, 2, 1)
    index = {k: i for i, k in enumerate(_keys(stack))}
    seen = set()
    classes = []
    for i, g in enumerate(elems):
        if i in seen:
            continue
        try:
            orbit = {index[k] for k in _keys(stack @ g @ stack_h)}
        except KeyError:
            raise DataIntegrityError(
                f"{group.name}: a conjugate of element {i} is not in the "
                f"element list"
            ) from None
        seen |= orbit
        classes.append([elems[j] for j in sorted(orbit)])
    return classes


def class_data(group: FiniteMatrixGroup) -> ClassData:
    """Conjugacy classes by orbit partition, matched against the shipped
    table rows; any mismatch is a data-integrity error naming the class."""
    table = reference_table(group.base, group.n)
    classes = conjugacy_classes(group)
    computed = [(len(c), float(np.trace(c[0]).real)) for c in classes]
    for c in classes:
        tr = np.trace(c[0])
        if abs(tr.imag) > 1e-9:
            raise DataIntegrityError(f"{group.name}: complex trace in a class")
    rows: List[ClassRow] = []
    used = set()
    for label, size, chi in table:
        match = None
        for i, (s, x) in enumerate(computed):
            if i not in used and s == size and abs(x - chi) < 1e-9:
                match = i
                break
        if match is None:
            raise DataIntegrityError(
                f"{group.name}: no enumerated class matches table row "
                f"({label}, size {size}, chi {chi})"
            )
        used.add(match)
        rows.append(ClassRow(label, size, chi))
    if len(used) != len(classes):
        raise DataIntegrityError(f"{group.name}: enumeration has extra classes")
    return ClassData(group.name, tuple(rows))


# -- moments and series ------------------------------------------------------

def subgroup_moment(cd: ClassData, m: int) -> float:
    """m-th moment of the fundamental character in the vacuum state."""
    m = require_int("a moment order", m, 0)
    order = cd.order
    return sum(r.size / order * r.chi_rho ** m for r in cd.rows)


def molien_series_trivial(group: FiniteMatrixGroup, order: int) -> TruncatedSeries:
    """(1/|G|) sum_g 1 / det(1 - conj(rho(g)) t), expanded to `order`.

    For SU(2) the conjugate representation has the same determinant
    polynomial 1 - chi t + t^2, which is asserted per element.
    """
    total = TruncatedSeries.zero(order)
    for g in group.elements:
        gc = g.conj()
        c1 = np.trace(gc)
        c2 = np.linalg.det(gc)
        if abs(c1.imag) > 1e-10 or abs(c2 - 1) > 1e-10:
            raise FailedIdentityError("conjugate determinant polynomial is not 1 - chi t + t^2")
        total = total + TruncatedSeries.inverse_quadratic(c1.real, order)
    return total * (1.0 / group.order)


def kostant_trivial(cd: ClassData, order: int) -> TruncatedSeries:
    """sum_j (|G_j|/|G|) / (1 - t chi_j + t^2): multiplicity series of the
    trivial representation in restricted SU(2) irreducibles."""
    total = TruncatedSeries.zero(order)
    n = cd.order
    for r in cd.rows:
        total = total + TruncatedSeries.inverse_quadratic(r.chi_rho, order) * (r.size / n)
    return total
