"""The benchmark workloads: seeded inputs, the timed calls, and the checks
that accept each call's output by an independent route.

A workload is built once per worker process (that is its set-up) and then
runs one pass.  The library sees only the generated inputs; the seed never
reaches it, except as the `seed` argument `nimspec verify all` itself takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

NAMES = ("verify-all", "scale-exact", "export-mix")

class CheckFailed(Exception):
    """An output disagreed with its independent route."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(a, b, rel: float) -> bool:
    return abs(complex(a) - complex(b)) <= rel * max(1.0, abs(complex(b)))


@dataclass
class Op:
    label: str
    call: Callable[[], object]                # timed
    check: Callable[[object], Optional[str]]  # untimed; returns exact digest text or None
    key: tuple                                # equal keys mean a repeated input


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _set_op(tracer, i: int) -> None:
    if tracer is not None:
        tracer.op = i


class Workload:
    """Base: a list of ops run in order, each timed alone."""

    check_after_all = False     # keep outputs and check once the loop is done

    def __init__(self, ops: List[Op]):
        self.ops = ops

    @property
    def repeat_share(self) -> float:
        seen, repeats = set(), 0
        for op in self.ops:
            repeats += op.key in seen
            seen.add(op.key)
        return repeats / len(self.ops)

    def run(self, tracer=None) -> dict:
        clock = time.perf_counter
        lat, ok, failures, pending = [], [], [], []
        digest = hashlib.sha256()

        def verify(i, op, out):
            try:
                with _paused(tracer):
                    text = op.check(out)
                if text is not None:
                    digest.update(f"{op.label}\n{text}\n".encode())
                return True
            except Exception as exc:        # a failed check fails the op, not the run
                failures.append(f"{op.label}: check {exc!r}"[:300])
                return False

        for i, op in enumerate(self.ops):
            _set_op(tracer, i)
            out, raised = None, None
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:        # a raising op fails, the run goes on
                raised = exc
            lat.append((clock() - t0) * 1000.0)
            if raised is not None:
                failures.append(f"{op.label}: raised {raised!r}"[:300])
                ok.append(False)
            elif self.check_after_all:
                ok.append(True)
                pending.append((i, op, out))
            else:
                ok.append(verify(i, op, out))
            self.after_op(tracer, out)
        for i, op, out in pending:
            ok[i] = verify(i, op, out)
        return {"lat_ms": lat, "ok": ok, "wall_s": sum(lat) / 1000.0,
                "digest": digest.hexdigest(), "failures": failures[:5]}

    def after_op(self, tracer, out) -> None:
        pass


# ---------------------------------------------------------------------------
# verify-all: the paper's headline, `nimspec verify all`
# ---------------------------------------------------------------------------

class VerifyAll:
    """suites.run_suite('all') once at the CLI's default --jobs; each case is
    one op, its latency the runner's per-case time."""

    repeat_share = None         # measured by the traced run (graphs.by_id.repeat_share)

    def __init__(self, seed: int, size: str):
        from nimspec import cli, suites

        self.suites = suites
        self.seed = seed
        self.suite = "all" if size == "full" else "su3-obstructions"
        self.jobs = cli.build_parser().parse_args(["verify", "all"]).jobs

    def run(self, tracer=None) -> dict:
        _set_op(tracer, 0)
        t0 = time.perf_counter()
        try:
            report = self.suites.run_suite(self.suite, seed=self.seed, jobs=self.jobs)
        except Exception as exc:
            return {"lat_ms": [], "ok": [False], "wall_s": time.perf_counter() - t0,
                    "digest": "", "failures": [f"run_suite raised {exc!r}"[:300]]}
        wall = time.perf_counter() - t0
        digest = hashlib.sha256()
        for c in report.cases:
            exact = c.measured if c.tolerance == 0.0 else ""
            digest.update(f"{c.case_id}|{c.status}|{exact}\n".encode())
        failures = [f"{c.case_id}: {c.status} {c.measured}"[:300]
                    for c in report.cases if c.status != "pass"]
        return {"lat_ms": [c.runtime_ms for c in report.cases],
                "ok": [c.status == "pass" for c in report.cases],
                "wall_s": wall, "digest": digest.hexdigest(), "failures": failures[:5]}


# ---------------------------------------------------------------------------
# scale-exact: exact kernels at sizes the suites never reach
# ---------------------------------------------------------------------------

def _numerator(mats, adj, su3: bool):
    """(1 - Dt + t^2) H, or (1 - Dt + D^T t^2 - t^3) H when su3, as an
    int64 array of shape (order + 1, n, n): numpy's matmul, not the
    library's, so the check is an independent route."""
    import numpy as np

    big = max(abs(x) for m in mats for row in m for x in row)
    _expect(big < 2 ** 31, f"coefficient {big} too large for the int64 check")
    h = np.array(mats, dtype=np.int64)
    a = np.array(adj, dtype=np.int64)
    num = h.copy()
    num[1:] -= a @ h[:-1]
    num[2:] += (a.T @ h[:-2]) if su3 else h[:-2]
    if su3:
        num[3:] -= h[:-3]
    return num


def _expect_numerator(num, at: int, p) -> None:
    """num[0] = 1, num[at] = p, and every other coefficient vanishes."""
    import numpy as np

    want = np.zeros_like(num)
    want[0] = np.eye(num.shape[1], dtype=np.int64)
    if 0 < at < len(num):
        want[at] = np.array(p, dtype=np.int64)
    bad = np.flatnonzero((num != want).any(axis=(1, 2)))
    _expect(bad.size == 0, f"numerator identity fails at degree {bad[:1].tolist()}")


def _op_hilbert_su3(l: int, order: int) -> Op:
    from nimspec import graphs, series

    gid = f"SU3-A({l})"

    def call():
        g = graphs.by_id(gid)
        return g, series.hilbert_su3(g, order=order)

    def check(out):
        g, hs = out
        _expect(hs.order == order, f"order {hs.order} != {order}")
        minus_p = [[-x for x in row] for row in graphs.su3_rotation(g)]
        _expect_numerator(_numerator(hs.mats, g.adjacency, su3=True), l, minus_p)
        return repr(hs.mats)

    return Op(f"hilbert_su3:{gid}:order={order}", call, check, ("hilbert_su3", l, order))


def _op_cy3(m: int, weights, order: int) -> Op:
    from nimspec import series

    def call():
        g = series.abelian_mckay(m, weights)
        return series.cy3_hilbert(g, order)

    def check(h):
        for j in range(m):
            mol = series.molien_abelian(m, weights, j, order)
            _expect(h.entry(j, 0).coeffs == [int(x) for x in mol.coeffs],
                    f"CY3 Hilbert column != Molien series at rep {j}")
        return repr(h.mats)

    return Op(f"cy3_hilbert:Z{m}{weights}:order={order}", call, check,
              ("cy3_hilbert", m, weights, order))


def _op_hilbert_su2(gid: str, order: int) -> Op:
    from nimspec import graphs, series

    adet = gid.split("(")[0] in ("A", "D", "E")

    def call():
        g = graphs.by_id(gid)
        return g, series.hilbert_su2(g, order)

    def check(out):
        g, hs = out
        _expect(hs.order == order, f"order {hs.order} != {order}")
        at, p = (g.coxeter_h, series.su2_involution(g)) if adet else (-1, None)
        _expect_numerator(_numerator(hs.mats, g.adjacency, su3=False), at, p)
        return repr(hs.mats)

    return Op(f"hilbert_su2:{gid}:order={order}", call, check, ("hilbert_su2", gid, order))


def _op_moment_table(kind: str, d: int, max_m: int, max_n: int, formulas: dict) -> Op:
    from nimspec import graphs, paths

    gid = f"{kind}({d})"
    formula = (paths.moment_formula_su3_Ainf if kind == "Trunc-SU3Ainf"
               else paths.moment_formula_su3_A6inf)

    def call():
        return paths.moment_table(graphs.by_id(gid), max_m, max_n)

    def check(table):
        _expect(len(table) == (max_m + 1) * (max_n + 1), "table has the wrong shape")
        for (m, n), value in sorted(table.items()):
            key = (kind, m, n)
            if key not in formulas:
                formulas[key] = formula(m, n)
            _expect(value == formulas[key], f"moment ({m},{n}) {value} != closed form")
        return repr(sorted(table.items()))

    return Op(f"moment_table:{gid}:{max_m}x{max_n}", call, check,
              ("moment_table", kind, d, max_m, max_n))


def _op_moment_t2(l: int, pairs) -> Op:
    from nimspec import graphs, measures

    gid = f"SU3-A({l})"

    def call():
        mu = measures.canonical_measure(gid)
        return [measures.moment_t2(mu, m, n) for m, n in pairs]

    def check(values):
        ed = graphs.eigendata(gid)
        counts = []
        for (m, n), v in zip(pairs, values):
            ref = graphs.eigen_moment(ed, m, n)
            _expect(_close(v, ref, 1e-8), f"moment_t2({m},{n}) {v} != eigendata {ref}")
            _expect(abs(v.imag) < 1e-6 and abs(v.real - round(v.real)) < 1e-6,
                    f"moment_t2({m},{n}) {v} is not a path count")
            counts.append(round(v.real))
        return repr(counts)

    return Op(f"moment_t2:{gid}:{list(pairs)}", call, check, ("moment_t2", l, tuple(pairs)))


def _scale_exact_ops(seed: int, size: str) -> List[Op]:
    rng = random.Random(f"scale-exact:{seed}")
    formulas: dict = {}
    ops: List[Op] = []
    full = size == "full"

    # The sizes and orders below are fixed, so that a pass costs the same
    # under every seed; the seed draws weights, moment orders, order offsets
    # and the order of the ops.

    # hilbert_su3: one op per l, order l + 2; cost ~ order * n^3
    for l in (range(6, 13) if full else (4, 5)):
        ops.append(_op_hilbert_su3(l, l + 2))

    # cy3_hilbert on abelian McKay graphs Z_m, m <= 12, distinct weights
    n_cy3 = 36 if full else 1
    used = set()
    for i in range(n_cy3):
        m, order = (8 + i % 5, 24 + i % 7) if full else (3, 8)
        while True:
            a, b = rng.randrange(m), rng.randrange(m)
            w = (a, b, (-a - b) % m)
            if (m, w, order) not in used:
                used.add((m, w, order))
                break
        ops.append(_op_cy3(m, w, order))

    # hilbert_su2 at order 80-160: graph sizes cycle through 8..12 vertices
    # and families, orders climb through the range.
    n_su2 = 30 if full else 1
    for i in range(n_su2):
        n = 8 + i % 5
        fams = [f"A({n})", f"D({n})", f"Aff-D({n - 1})"]
        gid = fams[(i // 5) % 3] if full else "E(6)"
        order = 80 + (i * 80) // n_su2 + rng.randrange(2) if full else 20
        ops.append(_op_hilbert_su2(gid, order))

    # moment_table on truncated SU(3) lattices: m <= d/2, n <= d - d/2, so
    # that m + n stays within the truncation's exact depth d
    tables = ([("Trunc-SU3Ainf", d) for d in (10, 12, 14, 16)]
              + [("Trunc-SU3A6inf", d) for d in (6, 7, 8, 9, 10)]) if full \
        else [("Trunc-SU3Ainf", 4), ("Trunc-SU3A6inf", 3)]
    for kind, d in tables:
        ops.append(_op_moment_table(kind, d, d // 2, d - d // 2, formulas))

    # moment_t2 on SU3-A(l), l = 20..40, four seeded (m, n) with m + n <= 8
    moments = [(m, n) for m in range(9) for n in range(9 - m)]
    for l in (range(20, 41) if full else (8,)):
        ops.append(_op_moment_t2(l, sorted(rng.sample(moments, 4))))

    rng.shuffle(ops)
    return ops


class ScaleExact(Workload):
    def __init__(self, seed: int, size: str):
        super().__init__(_scale_exact_ops(seed, size))


# ---------------------------------------------------------------------------
# export-mix: `nimspec export` requests, one client in a closed loop
# ---------------------------------------------------------------------------

_SU2 = ([f"A({n})" for n in range(2, 11)] + [f"D({n})" for n in range(4, 11)]
        + ["E(6)", "E(7)", "E(8)"])
_AFF = ([f"Aff-A({m})" for m in (4, 6, 8, 10, 12)] + [f"Aff-D({n})" for n in range(4, 11)]
        + ["Aff-E(6)", "Aff-E(7)", "Aff-E(8)"])
_SU3A = [f"SU3-A({l})" for l in range(4, 10)]
_ASTAR = [f"SU3-Astar({l})" for l in (4, 6, 8, 10, 12)]


def _export_pools(rng: random.Random):
    """kind -> (fixed requests, pool, draws from the pool, fixed repeats,
    repeats drawn among the pool draws).

    Every request that costs more than a few milliseconds is fixed, and so
    are its repeats: the slowest tenth of the mix, which sets op_ms.p90, is
    then the same under every seed.  The seed draws the cheap requests.
    """
    def arg(flag, lo, hi):
        return [flag, str(rng.randrange(lo, hi + 1))]

    small = [g for g in _SU2 + _AFF if _vertices(g) <= 8]
    hilbert_su3 = [["series:hilbert:SU3-A(6)", "--order", "18"],
                   ["series:hilbert:SU3-A(5)", "--order", "15"],
                   ["series:hilbert:SU3-A(4)", "--order", "12"]]
    su3_moments = [[f"moments:SU3-A({l})", "--depth", "10"] for l in (6, 5, 4)]
    groups = [[f"classdata:{g}"] for g in
              ("BI", "BO", "BT", "BD(8)", "BD(6)", "BD(5)", "Z2n(6)", "Z2n(4)")]
    grids = [["deltoid-density", "--grid", str(n)] for n in (48, 40, 32, 24, 36, 28)]
    return {
        "graph": ([], [[f"graph:{g}"] for g in _SU2 + _AFF + _SU3A + _ASTAR
                       + [f"Trunc-Ainf({d})" for d in range(6, 13)]
                       + [f"Trunc-SU3Ainf({d})" for d in range(4, 10)]], 24, [], 10),
        "eigendata": ([[f"eigendata:{g}"] for g in ("SU3-E(8)", "SU3-E1(12)", "SU3-D(12)")],
                      [[f"eigendata:{g}"] for g in _SU2 + _SU3A + _ASTAR
                       + ["SU3-D(6)", "SU3-D(9)"]], 19, [], 10),
        "measure": ([[f"measure:{g}"] for g in ("SU3-A(9)", "SU3-A(8)", "E(8)")],
                    [[f"measure:{g}"] for g in _SU2 + _AFF + _SU3A[:4] + _ASTAR
                     + ["SU3-D(6)", "SU3-D(9)"] if g != "E(8)"], 12, [], 6),
        "measure-csv": ([], [[f"measure:{g}", "--format", "csv"] for g in _SU2 + _AFF
                             if g != "E(8)"], 10, [], 4),
        "moments": (su3_moments, [[f"moments:{g}", *arg("--depth", 6, 10)]
                                  for g in _SU2 + _AFF], 12, su3_moments, 3),
        "series-T": ([], [[f"series:T:{g}", *arg("--order", 20, 40)] for g in _SU2 + _AFF],
                     15, [], 6),
        "series-Theta": ([["series:Theta:E(8)", "--order", "20"]],
                         [[f"series:Theta:{g}", *arg("--order", 12, 24)]
                          for g in _SU2 + _AFF if g != "E(8)"], 9, [], 4),
        "series-hilbert": (hilbert_su3, [[f"series:hilbert:{g}", *arg("--order", 10, 30)]
                                         for g in small], 12, hilbert_su3[:1], 5),
        "classdata": (groups, [], 0, groups[:4], 0),
        "deltoid-density": (grids, [], 0, grids[:4], 0),
    }


def _vertices(gid: str) -> int:
    fam, n = gid[:-1].split("(")
    return int(n) + 1 if fam.startswith("Aff-") and fam != "Aff-A" else int(n)


def _export_requests(seed: int, size: str) -> List[tuple]:
    rng = random.Random(f"export-mix:{seed}")
    fresh, repeats = [], []
    for kind, (fixed, pool, n_pool, rep_fixed, n_rep) in _export_pools(rng).items():
        drawn = rng.sample(pool, n_pool)
        reps = rep_fixed + rng.sample(drawn, n_rep)
        if size != "full":
            drawn, reps = (fixed + drawn)[:1], (fixed + drawn)[:1 if kind == "classdata" else 0]
            fixed = []
        fresh += [(kind, ("export", *argv)) for argv in fixed + drawn]
        repeats += [(kind, ("export", *argv)) for argv in reps]
    rng.shuffle(fresh)
    seq = list(fresh)
    for req in repeats:                 # each repeat lands after its first occurrence
        seq.insert(rng.randint(seq.index(req) + 1, len(seq)), req)
    return seq


def _norm(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def _num(text: str):
    if "/" in text:
        p, q = text.split("/")
        return Fraction(int(p), int(q))
    return float(text)


def _csv_rows(text: str):
    """The rows of a CSV payload, without its header."""
    return [line.split(",") for line in text.strip("\n").split("\n")[1:]]


def _flag(argv, name, default):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _check_export(kind: str, argv: tuple, text: str) -> Optional[str]:
    """Parse one export payload back and compare it with the library route;
    returns the text itself for the digest when the payload is exact."""
    from nimspec import deltoid, graphs, measures, series, subgroups

    spec = argv[1]
    if kind == "graph":
        _expect(json.loads(text) == _norm(graphs.by_id(spec[6:]).to_json()), "graph differs")
        return text
    if kind == "eigendata":
        data = json.loads(text)
        _expect(data == _norm(graphs.eigendata(spec[10:]).to_json()), "eigendata differs")
        mass = sum(e["weight"] * e["multiplicity"] for e in data["entries"])
        _expect(abs(mass - 1.0) < 1e-9, f"eigendata mass {mass}")
        return None
    if kind == "measure":
        data = json.loads(text)
        _expect(data == _norm(measures.canonical_measure(spec[8:]).to_json()), "measure differs")
        mass = sum(a["weight"] for a in data["atoms"])
        _expect(abs(mass - 1.0) < 1e-9, f"measure mass {mass}")
        return None
    if kind == "measure-csv":
        mu = measures.canonical_measure(spec[8:])
        rows = _csv_rows(text)
        atoms = mu.atoms_sorted()
        _expect(len(rows) == len(atoms), "atom count differs")
        for row, (t, w) in zip(rows, atoms):
            _expect(float(row[0]) == float(t) and float(row[-1]) == float(w), "atom differs")
        _expect(abs(sum(float(r[-1]) for r in rows) - 1.0) < 1e-9, "csv mass != 1")
        return None
    if kind == "moments":
        gid = spec[8:]
        depth = _flag(argv, "--depth", 10)
        rows = _csv_rows(text)
        table = {(int(m), int(n)): int(v) for m, n, v in rows}
        if gid.startswith("SU3-"):
            ed = graphs.eigendata(gid)
            want = {(m, n) for m in range(2 * depth + 1) for n in range(2 * depth + 1 - m)}
            route = lambda m, n: graphs.eigen_moment(ed, m, n)
        else:
            atoms = [(2 * math.cos(2 * math.pi * float(t)), float(w))
                     for t, w in measures.canonical_measure(gid).atoms.items()]
            want = {(m, 0) for m in range(2 * depth + 1)}
            route = lambda m, n: sum(w * x ** (m + n) for x, w in atoms)
        _expect(set(table) == want, "moment table has the wrong entries")
        for (m, n), v in table.items():
            _expect(_close(v, route(m, n), 1e-7), f"moment ({m},{n}) {v} != spectral route")
        return text
    if kind in ("series-T", "series-Theta"):
        gid = spec.split(":", 2)[2]
        order = _flag(argv, "--order", 40)
        coeffs = [_num(c) for c in json.loads(text)["coeffs"]]
        ref = (series.t_series(gid, order, "measure") if kind == "series-T"
               else series.theta_series(gid, order, "f"))
        _expect(len(coeffs) == order + 1 == len(ref.coeffs), "series has the wrong order")
        for k, (a, b) in enumerate(zip(coeffs, ref.coeffs)):
            _expect(_close(a, b, 1e-9), f"coefficient {k}: {a} != {b} by the second route")
        return text if kind == "series-T" else None
    if kind == "series-hilbert":
        gid = spec.split(":", 2)[2]
        g = graphs.by_id(gid)
        n = g.n_vertices
        mats = [tuple(tuple(r) for r in m) for m in json.loads(text)["coefficient_matrices"]]
        hs = series.MatrixSeries(gid, mats)
        zero = series.mat_zero(n)
        if g.symmetric:
            num = series.su2_numerator(hs, g)
            adet = gid.split("(")[0] in ("A", "D", "E")
            p, at = (series.su2_involution(g), g.coxeter_h) if adet else (None, -1)
        else:
            num = series.su3_numerator(hs, g)
            p, at = series.mat_scale(-1, graphs.su3_rotation(g)), g.coxeter_h
        _expect(num[0] == series.mat_identity(n), "numerator[0] != 1")
        for k in range(1, len(num)):
            _expect(num[k] == (p if k == at else zero), f"numerator differs at degree {k}")
        return text
    if kind == "classdata":
        name = spec[10:]
        base, n = (name.split("(")[0], int(name.split("(")[1].rstrip(")"))) \
            if "(" in name else (name, None)
        rows = json.loads(text)["classes"]
        table = subgroups.reference_table(base, n)
        _expect(len(rows) == len(table), "class count differs from the printed table")
        for row, (label, size, chi) in zip(rows, table):
            _expect(row["class_label"] == label and row["size"] == size
                    and abs(row["chi_rho"] - chi) < 1e-12, f"class {label} differs")
        order = {"BT": 24, "BO": 48, "BI": 120, "BD": 4 * ((n or 0) - 2), "Z2n": 2 * (n or 0)}
        _expect(sum(r["size"] for r in rows) == order[base], "class sizes miss the group order")
        return None
    if kind == "deltoid-density":
        grid = _flag(argv, "--grid", 100)
        rows = _csv_rows(text)
        _expect(len(rows) == grid * grid, "grid has the wrong size")
        inside = [tuple(map(float, r)) for r in rows if not math.isnan(float(r[2]))]
        _expect(inside, "grid misses the deltoid")
        for x, y, aj, ij in inside[:: max(1, len(inside) // 8)]:
            if aj < 1.0:
                continue                   # near the boundary the inversion is ill-posed
            _expect(abs(aj * ij - 1.0) < 1e-12, "1/|J| column is not the reciprocal")
            w1, w2 = deltoid.invert_phi_pairs(complex(x, y))[0]
            t = (math.atan2(w1.imag, w1.real) / (2 * math.pi),
                 math.atan2(w2.imag, w2.real) / (2 * math.pi))
            j = abs(deltoid.jacobian(t, "theta"))
            _expect(abs(j - aj) <= 1e-7 * aj, f"|J| at {x},{y}: {aj} != torus route {j}")
        return None
    raise CheckFailed(f"no check for kind {kind!r}")


def _export_op(kind: str, argv: tuple) -> Op:
    from nimspec import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:          # argparse rejects bad argv this way
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def check(result):
        rc, text, err = result
        _expect(rc == 0, f"exit {rc}: {err.strip()[:200]}")
        return _check_export(kind, argv, text)

    return Op(" ".join(argv), call, check, argv)


class ExportMix(Workload):
    check_after_all = True      # checks call the library; keep them from warming it

    def __init__(self, seed: int, size: str):
        super().__init__([_export_op(k, a) for k, a in _export_requests(seed, size)])

    def after_op(self, tracer, out) -> None:
        if tracer is not None and out is not None:
            tracer.work["cli.bytes_out"] += len(out[1].encode())


def build(name: str, seed: int, size: str = "full"):
    """Import the library and generate the workload's inputs (its set-up)."""
    if name == "verify-all":
        return VerifyAll(seed, size)
    if name == "scale-exact":
        return ScaleExact(seed, size)
    if name == "export-mix":
        return ExportMix(seed, size)
    raise ValueError(f"unknown workload {name!r}")
