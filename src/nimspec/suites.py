"""Named verification suites: each case re-derives one of the catalogue's
identities by at least two independent routes and compares at a stated
tolerance.  This is what the command-line `verify` entry point runs.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

# kernels are read through their modules, so a patch on the defining module
# reaches every case
from . import deltoid, graphs, measures, paths, series, subgroups
from .errors import InvalidParameterError


@dataclass
class CaseResult:
    case_id: str
    status: str                 # pass | fail | skipped
    measured: str = ""
    expected: str = ""
    tolerance: float = 0.0
    runtime_ms: float = 0.0


@dataclass
class SuiteReport:
    suite: str
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.cases if c.status == "pass")

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "summary": {"pass": self.n_pass, "fail": self.n_fail,
                        "skipped": sum(1 for c in self.cases if c.status == "skipped")},
            "cases": [
                {"id": c.case_id, "status": c.status, "measured": c.measured,
                 "expected": c.expected, "tolerance": c.tolerance,
                 "runtime_ms": round(c.runtime_ms, 3)}
                for c in self.cases
            ],
        }


Check = Tuple[str, Callable[[], Tuple[bool, str, str, float]]]


def _case_max_err(err: float, tol: float, expected: str = "agreement"):
    return (err <= tol, f"max|err| = {err:.3e}", expected, tol)


# ---------------------------------------------------------------------------
# su2-measures
# ---------------------------------------------------------------------------

def _su2_catalogue() -> List[str]:
    return (
        [f"A({n})" for n in range(1, 9)]
        + [f"D({n})" for n in range(4, 9)]
        + ["E(6)", "E(7)", "E(8)"]
        + [f"Aff-A({m})" for m in (2, 3, 4, 5, 6, 8)]
        + [f"Aff-D({n})" for n in range(4, 9)]
        + ["Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]
    )


def _suite_su2_measures(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []

    def binomial_catalan():
        pairs = [(m, 0) for m in range(25)]
        p2 = paths.moments(graphs.by_id("Trunc-Ainfinf(26)"), pairs)
        p1 = paths.moments(graphs.by_id("Trunc-Ainf(26)"), pairs)
        ok = True
        for k in range(13):
            ok &= p2[(2 * k, 0)] == paths.combinatorial_dimension("su2_torus", k)
            ok &= p1[(2 * k, 0)] == paths.combinatorial_dimension("su2_group", k)
            if k:
                ok &= p2[(2 * k - 1, 0)] == 0
                ok &= p1[(2 * k - 1, 0)] == 0
        return (ok, "exact", "binomial/Catalan identities, k <= 12", 0.0)

    checks.append(("binomial-catalan-dimensions", binomial_catalan))

    for gid in _su2_catalogue():
        def run(gid=gid):
            mu = measures.canonical_measure(gid)
            counts = paths.moments(graphs.by_id(gid), [(m, 0) for m in range(13)])
            got = measures.moments_t(mu, range(13))
            err = max(abs(got[m] - counts[(m, 0)]) for m in range(13))
            return _case_max_err(err, tol, "measure moments = path counts, m <= 12")

        checks.append((f"measure-vs-path:{gid}", run))

    for gid in _su2_catalogue():
        if graphs.FAMILIES[graphs.parse_id(gid)[0]].eigen is None:
            continue

        def run(gid=gid):
            ed = graphs.eigendata(gid)
            counts = paths.moments(graphs.by_id(gid), [(m, 0) for m in range(13)])
            err = max(abs(graphs.eigen_moment(ed, m) - counts[(m, 0)]) for m in range(13))
            return _case_max_err(err, tol, "eigendata moments = path counts, m <= 12")

        checks.append((f"eigendata-vs-path:{gid}", run))

    def alpha_p(which: str):
        data = {
            "E(7)": ([0.4076, 2.7057, -0.1133, 4.0],
                     [1, 5, 7, 9], lambda u: 2 * (u ** 2).imag ** 2, 9.0, (9, 27)),
            "E(8)": ([0.4038, 3.5135, 2.0511, 4.5316],
                     [1, 7, 11, 13],
                     lambda u: 2 * u.imag ** 2 + 2 * (u ** 3).imag ** 2, 15.0, ()),
        }
        table, reps, dens, ident_const, skip = data[which]
        h = graphs.by_id(which).coxeter_h
        ed = {e.exponent: e.weight for e in graphs.eigendata(which).entries}
        import cmath
        ut = cmath.exp(1j * math.pi / h)
        werr = 0.0
        for rep, tab in zip(reps, table):
            psi = ed[rep]
            ap = h * psi - 2 * (ut ** rep).imag ** 2
            werr = max(werr, abs(ap - tab))
        ident_err = 0.0
        for p in ed:
            if p in skip:
                continue
            ident_err = max(ident_err, abs(ident_const * ed[p] - dens(ut ** p)))
        ok = werr < 5e-4 and ident_err < 1e-12
        return (ok, f"alpha_p err {werr:.2e}; identity err {ident_err:.2e}",
                "paper table at 5e-4; exact identity at 1e-12", 5e-4)

    checks.append(("E7-alpha-p", lambda: alpha_p("E(7)")))
    checks.append(("E8-alpha-p", lambda: alpha_p("E(8)")))
    return checks


# ---------------------------------------------------------------------------
# su2-subgroups
# ---------------------------------------------------------------------------

_GROUP_GRAPHS = [
    ("Z2n", 2, "Aff-A(4)", 4), ("Z2n", 3, "Aff-A(6)", 6),
    ("BD", 4, "Aff-D(4)", 8), ("BD", 5, "Aff-D(5)", 12),
    ("BT", None, "Aff-E(6)", 24), ("BO", None, "Aff-E(7)", 48),
    ("BI", None, "Aff-E(8)", 120),
]


def _suite_su2_subgroups(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []
    for name, n, gid, expected_order in _GROUP_GRAPHS:
        def run(name=name, n=n, gid=gid, expected_order=expected_order):
            grp = subgroups.generate_group(name, n)
            cd = subgroups.class_data(grp)       # raises on table mismatch
            if grp.order != expected_order:
                return (False, f"order {grp.order}", f"order {expected_order}", 0.0)
            counts = paths.moments(graphs.by_id(gid), [(m, 0) for m in range(13)])
            err = max(
                abs(subgroups.subgroup_moment(cd, m) - counts[(m, 0)])
                for m in range(13)
            )
            return _case_max_err(err, tol, f"order {expected_order}; moments = {gid} path counts")

        checks.append((f"subgroup:{name}({n}) -> {gid}", run))
    return checks


# ---------------------------------------------------------------------------
# series-theorems
# ---------------------------------------------------------------------------

_T_IDS = ["A(2)", "A(5)", "D(4)", "D(6)", "E(6)", "E(7)", "E(8)",
          "Aff-A(4)", "Aff-A(6)", "Aff-D(4)", "Aff-D(6)",
          "Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]


def _suite_series_theorems(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []
    for gid in _T_IDS:
        def run(gid=gid):
            cf = series.t_series(gid, 30, "closed_form")
            ms = series.t_series(gid, 30, "measure")
            fc = series.t_series(gid, 30, "f_compose")
            err = max(cf.max_difference(ms), cf.max_difference(fc))
            return _case_max_err(err, 0.0 if err == 0 else tol,
                                 "three T-series routes agree to order 30")

        checks.append((f"T-series:{gid}", run))

    for gid in ["Aff-A(4)", "Aff-A(6)", "Aff-D(4)", "Aff-D(5)",
                "Aff-E(6)", "Aff-E(7)", "Aff-E(8)"]:
        def run(gid=gid):
            g = graphs.by_id(gid)
            hs = series.hilbert_su2(g, 24)
            gt = series.generalized_t(g, 24)
            ok = all(hs.mats[k] == gt.mats[k] for k in range(25))
            return (ok, "entrywise equal" if ok else "mismatch",
                    "Ttilde(t^2) = H(t), order 24", 0.0)

        checks.append((f"generalized-T:{gid}", run))

    for name, n, gid in [("BT", None, "Aff-E(6)"), ("BO", None, "Aff-E(7)"),
                         ("BI", None, "Aff-E(8)"), ("BD", 4, "Aff-D(4)"),
                         ("Z2n", 2, "Aff-A(4)")]:
        def run(name=name, n=n, gid=gid):
            grp = subgroups.generate_group(name, n)
            cd = subgroups.class_data(grp)
            order = 40
            kost = subgroups.kostant_trivial(cd, order)
            mol = subgroups.molien_series_trivial(grp, order)
            g = graphs.by_id(gid)
            star = g.distinguished
            hid = series.hilbert_su2(g, order, column=star).entry(star, star)
            t2 = series.t_series(gid, order // 2, "closed_form").substitute_q_squared(order)
            comp = series.g_composition_route(cd, order)
            err = max(kost.max_difference(mol), kost.max_difference(hid),
                      hid.max_difference(t2), comp.max_difference(hid))
            return _case_max_err(err, tol, "F_id = P_id = H_id,id = T(t^2), order 40")

        checks.append((f"theorem-chain:{name}({n})", run))

    for gid in ["E(6)", "E(7)", "E(8)", "A(3)", "A(4)", "A(5)", "D(4)", "D(6)"]:
        def run(gid=gid):
            zs = series.kostant_closed_form_check(gid)   # raises on failure
            a, b = series.kostant_parameters(gid)
            return (True, f"{len(zs)} polynomial numerators",
                    f"(a,b) = ({a},{b}); all z_gamma polynomial", 0.0)

        checks.append((f"kostant-numerators:{gid}", run))
    return checks


# ---------------------------------------------------------------------------
# su3-dimensions
# ---------------------------------------------------------------------------

def _suite_su3_dimensions(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []

    def formula_vs_paths(kind: str, gid: str, formula):
        counts = paths.moments(graphs.by_id(gid),
                               [(m, n) for m in range(10) for n in range(10 - m)])
        ok = True
        for (m, n), count in counts.items():
            ok &= count == (formula(m, n) if (m - n) % 3 == 0 else 0)
        return (ok, "exact", f"{kind} closed form = path counts, m+n <= 9", 0.0)

    checks.append(("moments:SU3_A6inf", lambda: formula_vs_paths(
        "SU3_A6inf", "Trunc-SU3A6inf(9)", paths.moment_formula_su3_A6inf)))
    checks.append(("moments:SU3_Ainf", lambda: formula_vs_paths(
        "SU3_Ainf", "Trunc-SU3Ainf(9)", paths.moment_formula_su3_Ainf)))

    def five_way(n: int):
        target = paths.moment_formula_su3_Ainf(n, n)
        tr = graphs.by_id(f"Trunc-SU3Ainf({max(2 * n, 1)})")
        ok = paths.moment_path_count(tr, n, n) == target
        sq = sum(
            paths.su3_path_count_formula(n, l1, l2) ** 2
            for l1 in range(n + 1)
            for l2 in range(n + 1 - l1)
        )
        ok &= sq == target
        for method in ("determinantal", "multinomial"):
            hk = sum(paths.hecke_dimension(n, p1, p2, method) ** 2
                     for p1, p2 in paths.hecke_shapes(n))
            ok &= hk == target
        l = n + 4
        mu = measures.canonical_measure(f"SU3-A({l})")
        grid = measures.moment_t2(mu, n, n)
        err = abs(grid - target)
        return (ok and err < tol, f"target {target}; grid err {err:.2e}",
                "five-way dimension identity", tol)

    for n in range(10):
        checks.append((f"five-way-identity:n={n}", lambda n=n: five_way(n)))

    def hecke_exhaustive():
        for n in range(13):
            for p1, p2 in paths.hecke_shapes(n):
                if paths.hecke_dimension(n, p1, p2, "determinantal") != paths.hecke_dimension(
                    n, p1, p2, "multinomial"
                ):
                    return (False, f"mismatch at ({n},{p1},{p2})", "equal", 0.0)
        return (True, "exact", "determinantal = multinomial, n <= 12", 0.0)

    checks.append(("hecke-two-routes", hecke_exhaustive))
    return checks


# ---------------------------------------------------------------------------
# su3-measures
# ---------------------------------------------------------------------------

def _suite_su3_measures(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []
    pairs = [(m, n) for m in range(9) for n in range(9 - m)]
    for l in range(4, 10):
        def run(l=l):
            gid = f"SU3-A({l})"
            grid = measures.moments_t2(measures.canonical_measure(gid), pairs)
            counts = paths.moments(graphs.by_id(gid), pairs)
            ed = graphs.eigendata(gid)
            err = 0.0
            for (m, n), mm in grid.items():
                err = max(err, abs(mm - counts[(m, n)]),
                          abs(mm - graphs.eigen_moment(ed, m, n)))
            return _case_max_err(err, tol, "grid measure = eigendata = path counts")

        checks.append((f"measure:SU3-A({l})", run))

    for k in (2, 3):
        def run(k=k):
            gid = f"SU3-D({3 * k})"
            grid = measures.moments_t2(measures.canonical_measure(gid), pairs)
            ed = graphs.eigendata(gid)
            err = max(abs(mm - graphs.eigen_moment(ed, m, n)) for (m, n), mm in grid.items())
            return _case_max_err(err, tol, "full-grid J^2 measure = eigendata, m+n <= 8")

        checks.append((f"measure:SU3-D({3 * k})", run))

    for l in range(4, 17):
        def run(l=l):
            mu = measures.canonical_measure(f"SU3-Astar({l})")
            loops = [(m, 0) for m in range(9)]
            counts = paths.moments(graphs.by_id(f"SU3-Astar({l})"), loops)
            shifted = l % 2 == 0 and l >= 6         # the shifted-A route: even l >= 6
            base = paths.moments(graphs.by_id(f"A({l // 2 - 1})"), loops) if shifted else None
            ok = True
            for mm in range(9):
                exact = measures.moment_t_exact(mu, mm, shift=1)
                ok &= exact == counts[(mm, 0)]
                if base is not None:
                    shift_sum = sum(
                        math.comb(mm, j) * base[(j, 0)] for j in range(mm + 1)
                    )
                    ok &= exact == shift_sum
            expected = ("alpha d_{l/2} = shifted A_{l/2-1} moments" if l % 2 == 0
                        else "measure moments = path counts, m <= 8")
            return (ok, "exact", expected, 0.0)

        checks.append((f"measure:SU3-Astar({l})", run))

    def semicircle_limit():
        mu = measures.canonical_measure("SU3-Astar(120)")
        worst = 0.0
        for mm in range(7):
            target = sum(
                math.comb(mm, 2 * k) * paths.combinatorial_dimension("su2_group", k)
                for k in range(mm // 2 + 1)
            )
            got = measures.moment_t_exact(mu, mm, shift=1)
            worst = max(worst, abs(float(got - target)) / max(target, 1))
        return (worst < 1e-2, f"rel err {worst:.2e}",
                "semicircle (mean 1) moments at l = 120", 1e-2)

    checks.append(("measure:SU3-Astar-semicircle", semicircle_limit))
    return checks


# ---------------------------------------------------------------------------
# su3-obstructions
# ---------------------------------------------------------------------------

def _e_atoms(which: str) -> measures.DiscreteMeasure:
    """The circle atoms of an E-type graph with Coxeter number h, from its eigendata:
    weight psi^2/2 at p/2h for each p < 2h with p or 2h-p an exponent, in ascending p."""
    h = graphs.by_id(which).coxeter_h
    ed = {e.exponent: e.weight for e in graphs.eigendata(which).entries}
    atoms = {Fraction(p, 2 * h): ed[min(p, 2 * h - p)] / 2
             for p in range(1, 2 * h) if p in ed or 2 * h - p in ed}
    return measures.DiscreteMeasure(1, atoms, f"{which} atoms from eigendata")


def _suite_su3_obstructions(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []

    def e6_fit():
        target = _e_atoms("E(6)")
        h = graphs.by_id("E(6)").coxeter_h
        basis = [measures.with_alpha(measures.d_measure(h)),
                 *(measures.d_measure(h // k) for k in (1, 2, 3, 4))]
        fit = measures.cyclotomic_fit(target, basis, tol=1e-9)
        want = [Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)]
        got = [Fraction(c).limit_denominator(10 ** 6) for c in fit.coefficients or []]
        ok = fit.feasible and got == want and fit.residual < 1e-12
        return (ok, f"coeffs {got}, residual {fit.residual:.1e}",
                "(1, 1/2, -1/2, -1/2, 1/2) exactly", 1e-12)

    checks.append(("E6-cyclotomic-decomposition", e6_fit))

    def infeasible(which: str):
        basis = measures.cyclotomic_basis(graphs.by_id(which).coxeter_h)
        fit = measures.cyclotomic_fit(_e_atoms(which), basis, tol=1e-9)
        ok = (not fit.feasible) and fit.residual > 1e-2
        return (ok, f"least-squares residual {fit.residual:.3e}",
                "infeasible with residual > 1e-2", 1e-2)

    checks.append(("E7-not-cyclotomic", lambda: infeasible("E(7)")))
    checks.append(("E8-not-cyclotomic", lambda: infeasible("E(8)")))

    def exceptional(graph_id: str, expected_res: float):
        rows, rhs = measures.exceptional_obstruction_system(graph_id)
        fit = measures.fit_linear_system(rows, rhs)
        res = fit.max_certificate_residual
        ok = (not fit.feasible) and abs(res - expected_res) < 1e-12
        return (ok, f"residual {res:.12f}", f"exactly {expected_res:.12f}", 1e-12)

    checks.append(("E(8)-infeasible",
                   lambda: exceptional("SU3-E(8)", abs(1 / 16 - 1 / 12))))
    checks.append(("E1(12)-infeasible", lambda: exceptional("SU3-E1(12)", 1 / 36)))

    def atoms_vs_eigendata(graph_id: str):
        # the atoms sit at Phi of the table's exponent column; eigen_moment
        # reads its eigenvalue column
        pairs = [(m, n) for m in range(9) for n in range(9 - m)]
        atoms = measures.moments_t2(measures.exceptional_measure_atoms(graph_id), pairs)
        ed = graphs.eigendata(graph_id)
        err = max(abs(mm - graphs.eigen_moment(ed, m, n)) for (m, n), mm in atoms.items())
        return _case_max_err(err, tol, "S3-orbit atoms = eigendata moments, m+n <= 8")

    for gid in ("SU3-E(8)", "SU3-E1(12)"):
        checks.append((f"atoms-vs-eigendata:{gid}", lambda gid=gid: atoms_vs_eigendata(gid)))
    return checks


# ---------------------------------------------------------------------------
# deltoid-geometry
# ---------------------------------------------------------------------------

def _suite_deltoid(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []

    def jacobian_forms():
        worst_exact = worst_sq = 0.0
        for _ in range(1000):
            p = (rng.random(), rng.random())
            jt = deltoid.jacobian(p, "theta")
            js = deltoid.jacobian(p, "sine_product")
            jo = deltoid.jacobian(p, "omega")
            ja = deltoid.jacobian(p, "abs_z")
            worst_exact = max(worst_exact, abs(jt - js), abs(abs(jt) - abs(jo)))
            worst_sq = max(worst_sq, abs(jt * jt - ja * ja) / max(jt * jt, 1.0))
        ok = worst_exact < 1e-10 and worst_sq < tol
        return (ok, f"exact forms {worst_exact:.1e}; squares rel {worst_sq:.1e}",
                "four Jacobian forms agree on 10^3 points", tol)

    checks.append(("jacobian-four-forms", jacobian_forms))

    def dl_sizes():
        # the index-3 sublattice of Z_3l^2 from its basis (1, 2), (0, 3): 3l * l
        # points, read against the grid's points, not its length
        differ = 0
        for l in range(4, 13):
            lattice = {(a, (2 * a + 3 * k) % (3 * l)) for a in range(3 * l) for k in range(l)}
            grid = list(map(tuple, deltoid.dl_numerators(l).tolist()))
            differ += len(lattice ^ set(grid)) + len(grid) - len(set(grid))
        measured = "3 l^2" if differ == 0 else f"{differ} points differ from the sublattice"
        return (differ == 0, measured, "|D_l| = 3 l^2 for l = 4..12", 0.0)

    checks.append(("Dl-grid-size", dl_sizes))

    def roundtrip():
        # points are drawn in rounds of the number still needed, so the rng
        # stream is the one a point-by-point loop would draw; then 10^3 points
        # on the ring r = 1 - 1e-5 just inside the boundary, where two roots
        # nearly coincide and only the Newton polish meets the residual check
        zs = np.empty(0, complex)
        while len(zs) < 1000:
            z = deltoid.phi_array(np.array([(rng.random(), rng.random())
                                            for _ in range(1000 - len(zs))]))
            zs = np.concatenate([zs, z[deltoid.discriminant(z).real >= 1e-8]])
        ring = np.array([deltoid.boundary_point(1 - 1e-5, k / 1000) for k in range(1000)])
        worst = 0.0
        for points in (zs, ring):       # one at a time, so the kernel's arrays stay small
            pairs = deltoid.invert_phi_pairs(points)
            w1, w2 = pairs[..., 0], pairs[..., 1]
            worst = max(worst, float(np.abs(w1 + 1 / w2 + w2 / w1 - points[:, None]).max()))
        return _case_max_err(worst, tol, "Phi(invert_phi(z)) = z on 10^3 interior points "
                             "and 10^3 points near the boundary")

    checks.append(("invert-phi-roundtrip", roundtrip))

    def boundary():
        worst = 0.0
        for k in range(1000):
            z = deltoid.boundary_point(1.0, k / 1000)
            worst = max(worst, abs(deltoid.discriminant(z)))
        return _case_max_err(worst, tol, "discriminant (J^2 scale) vanishes on r = 1 curve")

    checks.append(("boundary-curve", boundary))

    def s3_invariance():
        worst = 0.0
        for _ in range(300):
            p = (rng.random(), rng.random())
            j2 = deltoid.jacobian(p, "theta") ** 2
            for q in deltoid.s3_orbit(p):
                worst = max(worst, abs(deltoid.jacobian(q, "theta") ** 2 - j2) / max(j2, 1.0))
        return _case_max_err(worst, 1e-12, "J^2 is S3-invariant")

    checks.append(("jacobian-s3-invariance", s3_invariance))
    return checks


# ---------------------------------------------------------------------------
# hilbert
# ---------------------------------------------------------------------------

_PREPROJECTIVE_TOTALS = {"A(2)": 4, "A(3)": 10, "D(4)": 28}   # brute-force oracle values


def _preprojective_dimension(g) -> Fraction:
    """h(h+1)n/6, the dimension of the pre-projective algebra of an ADE
    Dynkin graph with n vertices and Coxeter number h (Malkin-Ostrik-
    Vybornov, Duke Math. J. 126, 2005): the H(1) of its Hilbert series."""
    h = g.coxeter_h
    return Fraction(h * (h + 1) * g.n_vertices, 6)


def _suite_hilbert(tol: float, rng: random.Random) -> List[Check]:
    checks: List[Check] = []
    ids = [f"A({n})" for n in range(2, 7)] + [f"D({n})" for n in (4, 5, 6)] + \
          ["E(6)", "E(7)", "E(8)"]
    for gid in ids:
        def run(gid=gid):
            g = graphs.by_id(gid)
            hs = series.hilbert_su2(g, 2 * g.coxeter_h)
            num = series.su2_numerator(hs, g)
            p = series.su2_involution(g)
            ok = num[0] == series.mat_identity(g.n_vertices)
            for k in range(1, len(num)):
                expect = p if k == g.coxeter_h else series.mat_zero(g.n_vertices)
                ok &= num[k] == expect
            msg = "1 + P t^h"
            total = hs.total_at_one()
            ok &= total == _preprojective_dimension(g)
            if gid in _PREPROJECTIVE_TOTALS:
                ok &= total == _PREPROJECTIVE_TOTALS[gid]
                msg += f"; H(1) = {total} (oracle {_PREPROJECTIVE_TOTALS[gid]})"
            return (ok, msg, "(1 - Dt + t^2) H = 1 + P t^h exactly, H(1) = h(h+1)n/6", 0.0)

        checks.append((f"preprojective:{gid}", run))

    # P is the triangle rotation on A^(l) and the identity on A^(l)*
    for gid in [f"SU3-A({l})" for l in (4, 5, 6, 7)] + [f"SU3-Astar({l})" for l in (5, 6, 7, 8)]:
        def run(gid=gid):
            g = graphs.by_id(gid)
            l = g.coxeter_h
            hs = series.hilbert_su3(g, order=3 * l)
            num = series.su3_numerator(hs, g)
            p = (graphs.su3_rotation(g) if g.family == "SU3-A"
                 else series.mat_identity(g.n_vertices))
            ok = num[0] == series.mat_identity(g.n_vertices)
            for k in range(1, 3 * l + 1):
                expect = series.mat_scale(-1, p) if k == l else series.mat_zero(g.n_vertices)
                ok &= num[k] == expect
            if gid == "SU3-A(4)":
                ok &= hs.mats[1] == g.adjacency and all(
                    hs.mats[k] == series.mat_zero(3) for k in range(2, hs.order + 1)
                )
            return (ok, "1 - P t^l", f"(1 - Dt + D^T t^2 - t^3) H = 1 - P t^{l}", 0.0)

        checks.append((f"cy3-q:{gid}", run))

    def cy3_molien():
        for m in range(2, 8):
            for a in range(m):
                for b in range(m):
                    g = series.abelian_mckay(m, (a, b, (-a - b) % m))
                    h = series.cy3_hilbert(g, 12, column=0)
                    for j in range(m):
                        mol = series.molien_abelian(m, (a, b, (-a - b) % m), j, 12)
                        if h.entry(j, 0).coeffs != mol.coeffs:
                            return (False, f"mismatch at m={m} ({a},{b}) rep {j}",
                                    "equal", 0.0)
        return (True, "exact rationals", "CY3 Hilbert column = Molien, m <= 7", 0.0)

    checks.append(("cy3-molien-vs-hilbert", cy3_molien))
    return checks


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_SUITE_BUILDERS = {
    "su2-measures": _suite_su2_measures,
    "su2-subgroups": _suite_su2_subgroups,
    "series-theorems": _suite_series_theorems,
    "su3-dimensions": _suite_su3_dimensions,
    "su3-measures": _suite_su3_measures,
    "su3-obstructions": _suite_su3_obstructions,
    "deltoid-geometry": _suite_deltoid,
    "hilbert": _suite_hilbert,
}
SUITE_NAMES = tuple(_SUITE_BUILDERS)


def run_suite(name: str, tol: float = 1e-9, seed: int = 0,
              jobs: int = 1) -> SuiteReport:
    """Run one named suite (or 'all'); failures never raise, they report."""
    if name == "all":
        report = SuiteReport("all")
        for sub in SUITE_NAMES:
            report.cases.extend(run_suite(sub, tol=tol, seed=seed, jobs=jobs).cases)
        return report
    if name not in _SUITE_BUILDERS:
        raise InvalidParameterError(f"unknown suite {name!r}; choose one of "
                                    f"{', '.join(SUITE_NAMES)} or 'all'")
    rng = random.Random(seed)
    checks = _SUITE_BUILDERS[name](tol, rng)
    report = SuiteReport(name)

    def execute(item: Check) -> CaseResult:
        case_id, fn = item
        t0 = time.perf_counter()
        try:
            ok, measured, expected, tolerance = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:            # a raising case is a failing case
            ok, measured, expected, tolerance = False, f"raised {exc!r}", "", 0.0
            status = "fail"
        ms = (time.perf_counter() - t0) * 1000
        return CaseResult(f"{name}:{case_id}", status, measured, expected,
                          tolerance, ms)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            report.cases = list(pool.map(execute, checks))
    else:
        report.cases = [execute(c) for c in checks]
    return report
