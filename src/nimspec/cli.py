"""Command-line interface: run verification suites, export catalogue objects
(graphs, measures, eigendata, moment tables, series, deltoid density grids)
as JSON or CSV.

An export's JSON is written by ``_json_text``, which gives the same bytes as
``json.dumps(payload, indent=1, sort_keys=True)``.  With ``indent`` set,
CPython's json encodes in pure Python and yields one chunk per element;
``_json_text`` joins each list of plain ints or finite floats in one
``str.join`` over ``int.__repr__``/``float.__repr__``, and follows json's
own rules everywhere else (NaN and the infinities, bools, None, int and
float subclasses, non-str keys, ASCII-escaped strings).

``main`` builds its argument parser on its first call and reuses it for every
later call in the process, so an in-process caller pays for the argparse tree
once.  Each line ``key = value`` of a ``--config`` file is the flag
``--key=value``, parsed by that same parser before the command line's own
flags, so a flag on the command line wins.  Every parser's ``error`` raises
``InvalidParameterError``: a rejected argv is one ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import deltoid, measures, series, subgroups, suites
from .errors import InvalidParameterError, NimspecError, require_int
from .graphs import _is_su3, by_id, eigendata, parse_id
from .paths import moment_table_csv, moments


def _open(path: str, mode: str):
    """open(path, mode), with a path that no file can have (one holding a
    NUL byte) rejected as a usage error rather than a ValueError."""
    try:
        return open(path, mode)
    except ValueError as exc:
        raise InvalidParameterError(f"{path!r}: {exc}") from None


def _load_config(path: str) -> list:
    """The config file's lines `key = value` as the flags `--key=value`;
    '#' starts a comment, and the keys config and help are skipped."""
    flags = []
    with _open(path, "r") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line or "=" not in line:
                continue
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in ("config", "help"):
                flags.append(f"--{key}={val}")
    return flags


def _usage_error(message: str):
    """argparse's error hook: the rejection leaves main as one error line
    (argparse quotes no unrecognized argument, so a newline in one is escaped)."""
    raise InvalidParameterError(message.replace("\n", "\\n"))


def _human_report(report: suites.SuiteReport) -> str:
    lines = []
    width = max((len(c.case_id) for c in report.cases), default=20)
    for c in report.cases:
        lines.append(
            f"{c.status.upper():4}  {c.case_id:<{width}}  {c.measured}"
            + (f"  [{c.expected}]" if c.expected else "")
        )
    lines.append(
        f"suite {report.suite}: {report.n_pass} passed, {report.n_fail} failed, "
        f"{sum(1 for c in report.cases if c.status == 'skipped')} skipped"
    )
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    report = suites.run_suite(args.suite, tol=args.tol, seed=args.seed, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(_human_report(report))
    return 0 if report.ok else 1


def _export_payload(spec: str, args: argparse.Namespace):
    """Returns (payload, kind) where kind is 'json' or 'csv-text'."""
    if spec.startswith("graph:"):
        return by_id(spec[6:]).to_json(), "json"
    if spec.startswith("eigendata:"):
        return eigendata(spec[10:]).to_json(), "json"
    if spec.startswith("measure:"):
        mu = measures.canonical_measure(spec[8:])
        if args.format == "csv":
            rows = ["theta,weight"] if mu.dimension == 1 else ["theta1,theta2,weight"]
            rows += [",".join(map(repr, row)) for row in mu.float_rows()]
            return "\n".join(rows) + "\n", "csv-text"
        return mu.to_json(), "json"
    if spec.startswith("moments:"):
        g = by_id(spec[8:])
        depth = require_int("--depth", args.depth, 0)
        upper = depth if g.trunc_depth else 2 * depth
        table = moments(g, [(m, n) for m in range(upper + 1)
                            for n in range(1 if g.symmetric else upper - m + 1)])
        return moment_table_csv(table), "csv-text"
    if spec.startswith("series:"):
        kind, _, gid = spec[7:].partition(":")
        if kind == "T":
            return series.t_series(gid, args.order, "closed_form").to_json(), "json"
        if kind == "Theta":
            return series.theta_series(gid, args.order, "measure").to_json(), "json"
        if kind == "hilbert":
            g = by_id(gid)
            # by family, not by symmetric: A^(l)* is undirected but an SU(3) graph
            hs = series.hilbert_su3(g, order=args.order) if _is_su3(g.family) else \
                series.hilbert_su2(g, args.order)
            return hs.to_json(), "json"
        raise InvalidParameterError(f"unknown series kind {kind!r}")
    if spec.startswith("classdata:"):
        name = spec[10:]
        base, n = parse_id(name, check=False) if "(" in name else (name, None)
        return subgroups.class_data(subgroups.generate_group(base, n)).to_json(), "json"
    if spec == "deltoid-density":
        return _density_csv(args.grid), "csv-text"
    raise InvalidParameterError(f"unknown export object {spec!r}")


def _density_csv(n: int) -> str:
    """deltoid.density_grid(n) as CSV lines "x,y,|J|,1/|J|" of reprs.  Each
    axis value is repr'd once; a point outside the deltoid shares its
    "y,nan,nan" tail with every row."""
    grid = deltoid.density_grid(n)
    axis = [repr(v) for v in grid[:n, 1].tolist()]
    tails = [f"{y},nan,nan" for y in axis] * n
    inside = np.flatnonzero(~np.isnan(grid[:, 2]))
    for k, aj, ij in zip(inside.tolist(), *grid[inside, 2:].T.tolist()):
        tails[k] = f"{axis[k % n]},{aj!r},{ij!r}"
    lines = (x + "," + ("\n" + x + ",").join(tails[i * n:(i + 1) * n])
             for i, x in enumerate(axis))
    return "x,y,abs_J,inv_abs_J\n" + "\n".join(lines) + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(o, nl: str = "\n") -> str:
    """json.dumps(o, indent=1, sort_keys=True), built by str.join; nl is the
    newline and indent that precede o's closing bracket."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    inner = nl + " "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        types = set(map(type, o))
        if types == {int}:
            items = map(int.__repr__, o)
        elif types == {float} and all(map(math.isfinite, o)):
            items = map(float.__repr__, o)
        else:
            items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            _json_key(k) + ": " + _json_text(v, inner) for k, v in sorted(o.items())
        ) + nl + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_key(k) -> str:
    """A dict key as json writes it: a str as itself, None, a bool, an int or
    a float as its JSON text, in quotes."""
    if not isinstance(k, str):
        if k is not None and not isinstance(k, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {k.__class__.__name__}")
        k = _json_text(k)
    return encode_basestring_ascii(k)


def cmd_export(args: argparse.Namespace) -> int:
    payload, kind = _export_payload(args.object, args)
    if kind == "json":
        if args.format == "csv":
            raise InvalidParameterError(f"{args.object} only exports as JSON")
        text = _json_text(payload) + "\n"
    else:
        text = payload
    if args.out:
        with _open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nimspec",
        description="verification suites and exports for the nimrep graph catalogue",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    va = sub.add_parser("verify", help="run a named verification suite")
    va.add_argument("suite", choices=list(suites.SUITE_NAMES) + ["all"])
    va.add_argument("--tol", type=float, default=1e-9)
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--jobs", type=int, default=1)
    va.add_argument("--format", choices=["human", "json"], default="human")
    va.add_argument("--config", default=None)
    va.set_defaults(func=cmd_verify)

    ex = sub.add_parser("export", help="export a catalogue object")
    ex.add_argument("object",
                    help="graph:<id> | measure:<id> | eigendata:<id> | moments:<id> | "
                         "series:T:<id> | series:Theta:<id> | series:hilbert:<id> | "
                         "classdata:<group> | deltoid-density")
    ex.add_argument("--format", choices=["json", "csv"], default="json")
    ex.add_argument("--out", default=None)
    ex.add_argument("--order", type=int, default=40)
    ex.add_argument("--depth", type=int, default=10)
    ex.add_argument("--grid", type=int, default=100)
    ex.add_argument("--config", default=None)
    ex.set_defaults(func=cmd_export)
    ap.error = va.error = ex.error = _usage_error
    return ap


_PARSER: Optional[argparse.ArgumentParser] = None     # main's parser, built on its first call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config:
            # argparse keeps the last value it sees: the file's flags go first
            args = _PARSER.parse_known_args(
                argv[:1] + _load_config(args.config) + argv[1:])[0]
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (NimspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
