import argparse
import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimspec import cli
from nimspec.cli import main
from nimspec.errors import InvalidParameterError, NimspecError
from nimspec.graphs import FAMILIES, by_id
from nimspec.measures import canonical_measure
from nimspec.series import hilbert_su2, hilbert_su3, t_series
from nimspec.suites import SUITE_NAMES, run_suite
from oracles import loop_density_csv


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(["verify", "su3-obstructions"], capsys)
    assert code == 0
    assert "E(8)-infeasible" in out
    assert "FAIL" not in out


def test_verify_all_passes_every_case():
    # the whole headline, not only the suites the CLI tests run
    report = run_suite("all")
    assert [(c.case_id, c.measured) for c in report.cases if c.status != "pass"] == []
    assert len(report.cases) == 157
    assert {c.case_id.split(":")[0] for c in report.cases} == set(SUITE_NAMES)


def test_verify_json_report(capsys):
    code, out, _ = run_cli(["verify", "deltoid-geometry", "--format", "json",
                            "--seed", "1"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["summary"]["fail"] == 0
    assert all(c["status"] == "pass" for c in blob["cases"])


def test_verify_deterministic_under_seed(capsys):
    _, out1, _ = run_cli(["verify", "deltoid-geometry", "--format", "json",
                          "--seed", "42"], capsys)
    _, out2, _ = run_cli(["verify", "deltoid-geometry", "--format", "json",
                          "--seed", "42"], capsys)
    c1 = [c["measured"] for c in json.loads(out1)["cases"]]
    c2 = [c["measured"] for c in json.loads(out2)["cases"]]
    assert c1 == c2


def test_verify_parallel_jobs(capsys):
    code, out, _ = run_cli(["verify", "su2-subgroups", "--jobs", "4",
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


def test_unknown_suite_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "nimspec.cli", "verify", "no-such-suite"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_run_suite_rejects_an_unknown_name_with_a_typed_error():
    with pytest.raises(InvalidParameterError, match="unknown suite 'nope'"):
        run_suite("nope")
    assert SUITE_NAMES[0] == "su2-measures" and SUITE_NAMES[-1] == "hilbert"


def test_export_graph_roundtrip(capsys):
    code, out, _ = run_cli(["export", "graph:SU3-A(5)"], capsys)
    assert code == 0
    blob = json.loads(out)
    g = by_id("SU3-A(5)")
    assert blob["adjacency"] == [list(r) for r in g.adjacency]


def test_export_measure_e7(capsys):
    code, out, _ = run_cli(["export", "measure:E(7)"], capsys)
    blob = json.loads(out)
    mu = canonical_measure("E(7)")
    assert blob["provenance"] == mu.provenance
    weights = {a["theta"]: a["weight"] for a in blob["atoms"]}
    assert weights["1/4"] == pytest.approx(1 / 6)    # Dirac at i
    # the rest of the support: 36th roots of order 6k +- 1
    support = {a["theta"] for a in blob["atoms"] if a["weight"] > 1e-15}
    for theta in support:
        p, q = (int(x) for x in theta.split("/"))
        j = p * (36 // q)
        assert j % 2 == 1 and j % 3 != 0 or theta in ("1/4", "3/4")


def test_export_series_T_E8(capsys):
    code, out, _ = run_cli(["export", "series:T:E(8)", "--order", "30"], capsys)
    blob = json.loads(out)
    expect = t_series("E(8)", 30, "closed_form")
    assert blob["coeffs"] == expect.to_json()["coeffs"]


def test_export_is_bit_stable(capsys):
    _, out1, _ = run_cli(["export", "eigendata:SU3-E(8)"], capsys)
    _, out2, _ = run_cli(["export", "eigendata:SU3-E(8)"], capsys)
    assert out1 == out2


def test_export_deltoid_density_masks_outside(capsys, tmp_path):
    target = tmp_path / "grid.csv"
    code, _, _ = run_cli(["export", "deltoid-density", "--grid", "50",
                          "--out", str(target)], capsys)
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "x,y,abs_J,inv_abs_J"
    assert len(lines) == 1 + 50 * 50
    assert any("nan" in line for line in lines[1:])


def test_export_deltoid_density_equals_the_point_loop(capsys):
    # every side from 2 to 64 moves the grid lines across the cusps and the
    # boundary; 99, 100 and 200 are the default and larger grids
    for n in [*range(2, 65), 99, 100, 200]:
        code, out, _ = run_cli(["export", "deltoid-density", "--grid", str(n)], capsys)
        assert code == 0
        assert out == loop_density_csv(n), n


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_export_deltoid_density_rejects_a_grid_below_2(capsys, grid):
    code, out, err = run_cli(["export", "deltoid-density", "--grid", grid], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["series:T:A(3)", "series:Theta:A(3)",
                                  "series:hilbert:A(3)"])
def test_export_series_rejects_a_negative_order(capsys, spec):
    code, out, err = run_cli(["export", spec, "--order", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_export_moment_table_csv(capsys):
    code, out, _ = run_cli(["export", "moments:SU3-A(6)", "--depth", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "m,n,value"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2]
            for line in out.splitlines()[1:]}
    assert rows[("3", "3")] == "6"


def test_export_classdata(capsys):
    code, out, _ = run_cli(["export", "classdata:BT"], capsys)
    blob = json.loads(out)
    assert [c["size"] for c in blob["classes"]] == [1, 1, 6, 4, 4, 4, 4]


def test_export_measure_csv(capsys):
    code, out, _ = run_cli(["export", "measure:A(3)", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,weight"
    assert len(lines) == 1 + len(canonical_measure("A(3)").atoms)


@pytest.mark.parametrize("gid", [f"SU3-A({l})" for l in range(4, 13)]
                         + [f"SU3-D({n})" for n in (6, 9, 12)])
def test_grid_measure_csv_equals_the_rows_of_its_sorted_atoms(gid, capsys):
    """The grid CSV is read off the numerators; the atom dict, built and
    sorted here, must give the same bytes."""
    code, out, _ = run_cli(["export", f"measure:{gid}", "--format", "csv"], capsys)
    assert code == 0
    mu = canonical_measure(gid)
    want = ["theta1,theta2,weight"] + [f"{float(t[0])!r},{float(t[1])!r},{float(w)!r}"
                                       for t, w in mu.atoms_sorted()]
    assert out == "\n".join(want) + "\n"


def test_failing_tolerance_exits_1(capsys):
    # float comparisons cannot clear an impossible tolerance: exit code 1
    code, out, _ = run_cli(["verify", "su2-measures", "--tol", "1e-30"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_export_theta_and_hilbert_series(capsys):
    code, out, _ = run_cli(["export", "series:Theta:E(6)", "--order", "12"], capsys)
    assert code == 0
    assert json.loads(out)["coeffs"][0] == "1/1"
    code, out, _ = run_cli(["export", "series:hilbert:SU3-A(4)", "--order", "8"], capsys)
    blob = json.loads(out)
    assert blob["coefficient_matrices"][0] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("gid", ["SU3-Astar(7)", "SU3-Astar(8)"])
def test_export_su3_astar_hilbert_is_the_su3_series(capsys, gid):
    """A^(l)* is undirected, yet its series is the SU(3) one: its t^2 block
    is Delta^2 - Delta^T, not the SU(2) series' Delta^2 - 1."""
    code, out, _ = run_cli(["export", f"series:hilbert:{gid}", "--order", "9"], capsys)
    assert code == 0
    assert json.loads(out) == hilbert_su3(by_id(gid), order=9).to_json()


@pytest.mark.parametrize("gid", ["A(4)", "D(5)", "E(6)", "Tad(3)", "Aff-A(4)", "Aff-A(5)",
                                 "Aff-D(5)"])
def test_export_su2_hilbert_is_the_su2_series(capsys, gid):
    code, out, _ = run_cli(["export", f"series:hilbert:{gid}", "--order", "9"], capsys)
    assert code == 0
    assert out == cli._json_text(hilbert_su2(by_id(gid), 9).to_json()) + "\n"


@pytest.mark.parametrize("name", sorted(n for n in FAMILIES if n.startswith("Trunc-")))
def test_a_truncated_graph_has_no_hilbert_series(capsys, name):
    code, out, err = run_cli(["export", f"series:hilbert:{name}(6)", "--order", "9"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name}(6) is truncated at depth 6")
    assert err.count("\n") == 1


def test_export_odd_cycle(capsys):
    """Aff-A(5) exports by every route its family has (its Hilbert series is
    checked above); T's measure route, and so Theta, needs the odd Fourier
    moments to vanish, and they do not."""
    for spec in ("graph:", "measure:", "moments:", "series:T:"):
        code, _, err = run_cli(["export", f"{spec}Aff-A(5)", "--order", "6"], capsys)
        assert (code, err) == (0, "")
    code, out, _ = run_cli(["export", "series:T:Aff-A(5)", "--order", "6"], capsys)
    assert json.loads(out)["coeffs"] == ["1/1"] * 5 + ["3/1"] * 2
    code, _, err = run_cli(["export", "series:Theta:Aff-A(5)", "--order", "6"], capsys)
    assert code == 2 and err == "error: odd coefficient at degree 5 is nonzero\n"


def test_export_odd_su3_astar_graph_and_moments(capsys):
    code, out, _ = run_cli(["export", "graph:SU3-Astar(9)"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["adjacency"] == [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 0]]
    assert blob["coxeter_h"] == 9
    code, out, _ = run_cli(["export", "moments:SU3-Astar(9)", "--depth", "3"], capsys)
    assert code == 0
    rows = [tuple(int(x) for x in line.split(",")) for line in out.splitlines()[1:]]
    assert rows == [(0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 0, 4), (4, 0, 9), (5, 0, 21),
                    (6, 0, 51)]


def _dumps(obj):
    return json.dumps(obj, indent=1, sort_keys=True)


def _json_payloads():
    """Every JSON export payload of the catalogue at small sizes."""
    args = argparse.Namespace(format="json", order=12, depth=4, grid=10)
    specs = [f"classdata:{g}" for g in ("BT", "BO", "BI", "BD(3)", "BD(8)", "Z2n(1)",
                                        "Z2n(6)")]
    for name, family in FAMILIES.items():
        for n in range(1, 9):
            if family.accepts(n):
                specs += [f"{kind}{name}({n})" for kind in
                          ("graph:", "eigendata:", "measure:", "series:T:",
                           "series:Theta:", "series:hilbert:")]
    for spec in specs:
        try:
            payload, kind = cli._export_payload(spec, args)
        except NimspecError:
            continue
        if kind == "json":
            yield spec, payload


def test_the_json_writer_equals_json_dumps_on_every_export_payload():
    seen = set()
    for spec, payload in _json_payloads():
        assert cli._json_text(payload) == _dumps(payload), spec
        seen.add(spec.rsplit(":", 1)[0] if spec.startswith("series:") else spec.split(":")[0])
    assert seen == {"graph", "eigendata", "measure", "series:T", "series:Theta",
                    "series:hilbert", "classdata"}


def _outcome(write, tree):
    try:
        return write(tree)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.5, float("nan"),
                float("inf"), float("-inf")]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 130, 2 ** 130),
    st.floats(), st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64), st.floats().map(np.float64),
    st.text(), st.text(st.characters(max_codepoint=0x2f)),
)
_FLAT_LISTS = st.one_of(
    st.lists(st.integers()), st.lists(st.floats()), st.lists(st.sampled_from(_EDGE_FLOATS)),
    st.lists(st.one_of(st.integers(-2, 2), st.booleans())),
    st.lists(st.one_of(st.floats(), st.floats().map(np.float64))),
)
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_TREES = st.recursive(
    st.one_of(_SCALARS, _FLAT_LISTS),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.text(), kids, max_size=4),
                           st.dictionaries(st.integers(), kids, max_size=3),
                           st.dictionaries(_KEYS, kids, max_size=2)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_the_json_writer_equals_json_dumps_on_any_tree(tree):
    assert _outcome(cli._json_text, tree) == _outcome(_dumps, tree)


@pytest.mark.parametrize("bad", [1j, {1, 2}, np.int64(3), [np.bool_(True)], {(1, 2): 3},
                                 {"a": [object()]}, {"a": 1, 2: "b"}])
def test_the_json_writer_rejects_what_json_dumps_rejects(bad):
    assert _outcome(cli._json_text, bad) == _outcome(_dumps, bad)
    assert isinstance(_outcome(_dumps, bad), tuple)


def test_export_unknown_object(capsys):
    code, _, err = run_cli(["export", "nonsense:thing"], capsys)
    assert code == 2


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "nimspec.cfg"
    cfg.write_text("order = 6\n# comment line\n")
    code, out, _ = run_cli(["export", "series:T:A(2)", "--config", str(cfg)], capsys)
    blob = json.loads(out)
    assert blob["order"] == 6
    # explicit flags win over the config file
    code, out, _ = run_cli(["export", "series:T:A(2)", "--config", str(cfg),
                            "--order", "4"], capsys)
    assert json.loads(out)["order"] == 4


def test_explicit_flag_at_its_default_beats_the_config_file(capsys, tmp_path):
    cfg = tmp_path / "nimspec.cfg"
    cfg.write_text("order = 6\n")
    code, out, _ = run_cli(["export", "series:T:A(2)", "--config", str(cfg),
                            "--order", "40"], capsys)
    assert code == 0 and json.loads(out)["order"] == 40
    code, out, _ = run_cli(["export", "series:T:A(2)", "--config", str(cfg),
                            "--order=40"], capsys)
    assert code == 0 and json.loads(out)["order"] == 40


@pytest.mark.parametrize("line", ["order = abc", "grid = 1.5", "format = xml"])
def test_bad_config_value_exits_2_with_one_line(capsys, tmp_path, line):
    cfg = tmp_path / "nimspec.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(["export", "series:T:A(2)", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["graph:A(0)", "graph:D(3)", "measure:D(2)",
                                  "eigendata:E(9)", "series:T:SU3-A(5)",
                                  "measure:SU3-E(8)", "classdata:BD(x)",
                                  "eigendata:SU3-E(24)", "series:T", "graph:"])
def test_bad_id_exits_2_with_one_line(capsys, spec):
    code, out, err = run_cli(["export", spec], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not err.startswith("error: '")       # the reason, not a KeyError repr


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(["export", "graph:A(2)", "--config",
                            str(tmp_path / "absent.cfg")], capsys)
    assert code == 2 and err.startswith("error: ")


def test_export_moments_at_the_truncation_depth(capsys):
    code, out, _ = run_cli(["export", "moments:Trunc-SU3Ainf(6)", "--depth", "6"], capsys)
    assert code == 0
    rows = [tuple(int(x) for x in line.split(",")) for line in out.splitlines()[1:]]
    assert {(m, n) for m, n, _ in rows} == {(m, n) for m in range(7) for n in range(7 - m)}
    assert dict(((m, n), v) for m, n, v in rows)[(3, 3)] == 6


def test_export_classdata_with_parameter(capsys):
    code, out, _ = run_cli(["export", "classdata:BD(6)"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["group"] == "BD(6)"
    assert sum(c["size"] for c in blob["classes"]) == 16


def test_broken_pipe_exits_0(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["export", "graph:A(2)"]) == 0


def test_verify_has_no_order_or_depth_flag(capsys):
    code, out, err = run_cli(["verify", "hilbert", "--order", "5"], capsys)
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --order 5\n")


def test_export_moments_rejects_a_negative_depth(capsys):
    code, out, err = run_cli(["export", "moments:A(3)", "--depth", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --depth must be non-negative, got -1\n"


@pytest.fixture
def counted_parser(monkeypatch):
    """cli.build_parser wrapped in a call counter, with no parser built yet."""
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    return calls


_REQUESTS = [["export", "graph:A(3)"], ["export", "measure:E(6)"],
             ["export", "series:T:A(4)", "--order", "8"], ["export", "classdata:BT"],
             ["export", "moments:A(3)", "--depth", "2"]]


def test_main_builds_its_parser_once_per_process(capsys, counted_parser, tmp_path):
    for i in range(20):
        assert main(_REQUESTS[i % len(_REQUESTS)]) == 0
    assert len(counted_parser) == 1
    cfg = tmp_path / "nimspec.cfg"
    cfg.write_text("order = 7\n")
    assert main(["export", "series:T:A(2)", "--config", str(cfg)]) == 0
    assert len(counted_parser) == 1         # the file's lines are flags for the same parser
    capsys.readouterr()


def test_a_config_file_does_not_leak_into_later_calls(capsys, counted_parser, tmp_path):
    cfg = tmp_path / "nimspec.cfg"
    cfg.write_text("order = 7\n")
    for argv, order in [(["export", "series:T:A(2)"], 40),
                        (["export", "series:T:A(2)", "--config", str(cfg)], 7),
                        (["export", "series:T:A(2)"], 40),
                        (["export", "series:T:A(2)", "--config", str(cfg), "--order", "5"], 5),
                        (["export", "series:T:A(2)"], 40)]:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and json.loads(out)["order"] == order
    code, out, _ = run_cli(["export", "moments:A(3)"], capsys)
    assert code == 0 and out.splitlines()[-1].split(",")[:2] == ["20", "0"]   # --depth 10


@pytest.mark.parametrize("argv", _REQUESTS + [
    ["export", "series:Theta:E(8)", "--order", "12"], ["export", "measure:SU3-A(5)"],
    ["export", "measure:A(4)", "--format", "csv"], ["verify", "su2-subgroups"]])
def test_the_same_argv_gives_the_same_bytes(capsys, argv):
    first = run_cli(argv, capsys)
    assert first[0] == 0
    assert run_cli(argv, capsys) == first


def _run_main(argv):
    """main(argv) as (exit code, stdout, stderr), captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _rejected(result) -> bool:
    code, out, err = result
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1 \
        and err.endswith("\n")


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["verify"], ["verify", "no-such-suite"], ["export"],
    ["export", "graph:A(2)", "--order", "abc"], ["export", "graph:A(2)", "--order"],
    ["export", "graph:A(2)", "--bogus"], ["export", "graph:A(2)", "--o", "3"],
    ["export", "graph:A(2)", "--format", "csv"], ["export", "graph:A(2)", "a\nb"],
    ["verify", "hilbert", "--tol", "x"], ["export", "graph:A(2)", "--out", "a\x00b"],
    ["verify", "all", "--config", "a\x00b"]])
def test_every_rejected_argv_is_one_error_line(argv):
    assert _rejected(_run_main(argv))


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nimspec export")


def test_a_config_key_abbreviates_an_option_as_its_flag_does(capsys, tmp_path):
    cfg = tmp_path / "nimspec.cfg"
    cfg.write_text("ord = 5\n")
    code, out, _ = run_cli(["export", "series:T:A(2)", "--config", str(cfg)], capsys)
    assert code == 0 and json.loads(out)["order"] == 5
    cfg.write_text("o = 5\n")                  # --order or --out
    code, out, err = run_cli(["export", "series:T:A(2)", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err == "error: ambiguous option: --o=5 could match --out, --order\n"


_EXPORT_OPTIONS = ("format", "order", "depth", "grid")
_CHEAP_OBJECTS = ("series:T:A(2)", "graph:A(2)", "moments:A(3)", "measure:A(3)")


def _small(text: str) -> bool:
    """False for an int above 12 in size, which would make an export slow."""
    try:
        return abs(int(text)) <= 12
    except ValueError:
        return True


# option values: the valid ones and junk, and no int that asks for a big export
_VALUES = st.one_of(st.sampled_from(["json", "csv", "0", "-1", "3", "12", "1.5", "abc", ""]),
                    st.integers(-3, 12).map(str), st.text(max_size=8).filter(_small))


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(_EXPORT_OPTIONS).flatmap(
           lambda o: st.integers(1, len(o)).map(lambda k: o[:k])),
       value=_VALUES.filter(lambda v: v == v.strip() and not set(v) & set("#\n\r")),
       spec=st.sampled_from(_CHEAP_OBJECTS))
def test_a_config_line_acts_as_its_flag(tmp_path_factory, key, value, spec):
    cfg = tmp_path_factory.mktemp("cfg") / "nimspec.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert _run_main(["export", spec, "--config", str(cfg)]) == \
        _run_main(["export", spec, f"--{key}={value}"])


_SUBCOMMAND_OPTIONS = ("--format", "--order", "--depth", "--grid", "--tol", "--seed", "--jobs")


def _harmless(token: str) -> bool:
    """False for a token argparse would read as -h, --out or --config (which
    print help, write a file or read one), and for a suite name."""
    head = token.split("=", 1)[0]
    return not (token.startswith("-h") or token in SUITE_NAMES or token == "all"
                or head.startswith("--") and any(o.startswith(head)
                                                 for o in ("--help", "--out", "--config")))


_OPTIONS = st.one_of(
    st.sampled_from(_SUBCOMMAND_OPTIONS),
    st.sampled_from(_SUBCOMMAND_OPTIONS).flatmap(
        lambda o: st.integers(3, len(o)).map(lambda k: o[:k])),
    st.text(min_size=1, max_size=6).map(lambda t: "--" + t),
).filter(_harmless)
# a subcommand or junk, a catalogue object or junk (or neither, or both), then
# options, real, abbreviated or unknown, each with a value
_ARGVS = st.builds(
    lambda command, words, pairs: [command, *words, *(w for pair in pairs for w in pair)],
    st.sampled_from(["export"] * 5 + ["verify", "expo"]),
    st.lists(st.sampled_from(_CHEAP_OBJECTS) | _VALUES.filter(_harmless),
             min_size=1, max_size=2) | st.just([]),
    st.lists(st.tuples(_OPTIONS, _VALUES.filter(_harmless)), max_size=2))


@settings(max_examples=100, deadline=None)
@given(_ARGVS)
def test_any_argv_returns_an_exit_code_and_a_2_is_one_error_line(argv):
    result = _run_main(argv)
    assert result[0] in (0, 1, 2)
    if result[0] == 2:
        assert _rejected(result), result
