import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pscore_reference
import table_files
from freehop import cli, oracles, pscore, tables


def run(args):
    return cli.main(args)


def test_hurwitz_table_output(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert run(["hurwitz", "--d", "2", "--kind", "strict", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["d"] == 2 and obj["kind"] == "strict"
    entry = [e for e in obj["entries"] if e["lambda"] == [2] and e["nu"] == [1, 1]]
    assert entry and entry[0]["r"] == 1 and entry[0]["value"] == "1/2"


def test_hurwitz_d1_weak(tmp_path):
    out = tmp_path / "h.json"
    assert run(["hurwitz", "--d", "1", "--kind", "weak", "--hbar", "4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["entries"] == [{"lambda": [1], "nu": [1], "r": 0, "value": "1"}]


def test_hurwitz_bound_exit_2(capsys):
    assert run(["hurwitz", "--d", "11", "--kind", "strict"]) == 2


def test_moebius_output(tmp_path):
    out = tmp_path / "m.json"
    assert run(["moebius", "--d", "2", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    vals = {
        (json.dumps(e["partition"]), tuple(e["perm"])): e["value"]
        for e in obj["entries"]
    }
    assert vals[("[[1, 2]]", (2, 1))] == "-1"
    assert vals[("[[1, 2]]", (1, 2))] == "1"


def test_moebius_bound_exit_2(capsys):
    assert run(["moebius", "--d", "7"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: d=7 exceeds the enumeration bound 6\n")


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("hbar", [None, 0, 1, 4])
def test_moebius_small_d_output(capsys, d, hbar):
    # PS(0) is {((), ())} and PS(1) is {((0,), (0,))}: mu = mu_hbar = 1 on
    # the one element, at every --hbar
    args = ["moebius", "--d", str(d)] + ([] if hbar is None else ["--hbar", str(hbar)])
    assert run(args) == 0
    head = '"kind": "moebius"' if hbar is None else '"kind": "moebius-hbar",\n"hbar": %d' % hbar
    point = '"partition": [], "perm": []' if d == 0 else '"partition": [[1]], "perm": [1]'
    value = '"1"' if hbar is None else '{"0": "1"}'
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == '{\n"d": %d,\n%s,\n"entries": [\n{%s, "value": %s}\n]\n}\n' % (d, head, point, value)


def test_moebius_hbar_output(tmp_path):
    # every entry equals the HbarSeries-valued Moebius function
    out = tmp_path / "mh.json"
    assert run(["moebius", "--d", "3", "--hbar", "5", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert (obj["d"], obj["kind"], obj["hbar"]) == (3, "moebius-hbar", 5)
    want = {
        (json.dumps(pscore.setpartition_to_json(part)), perm): {str(e): str(c) for e, c in sorted(v.c.items())}
        for (part, perm), v in pscore_reference.moebius_hbar(3, 5).items()
    }
    got = {(json.dumps(e["partition"]), tuple(x - 1 for x in e["perm"])): e["value"] for e in obj["entries"]}
    assert len(got) == len(obj["entries"]) and got == want


def test_transform_roundtrip(tmp_path):
    cum = tmp_path / "cum.json"
    mom = tmp_path / "mom.json"
    back = tmp_path / "back.json"
    table_files.save(str(cum), tables.gue_table())
    assert run([
        "transform", "c2m", "--route", "hurwitz", "--in", str(cum),
        "--out", str(mom), "--deg", "8", "--genus", "2",
    ]) == 0
    obj = json.loads(mom.read_text())
    t = tables.from_json(obj)
    assert t[(0, (8,))] == 14  # Catalan(4)
    assert t[(2, (4,))] == 1
    assert obj["route"] == "hurwitz"
    # invert at desk scale (the weakly monotone series grows quickly in
    # the hbar order, so the inverse leg runs at d <= 4)
    mom4 = tmp_path / "mom4.json"
    table_files.save(str(mom4), tables.restrict_table(t, deg=4, g2=2))
    assert run([
        "transform", "m2c", "--route", "hurwitz", "--in", str(mom4),
        "--out", str(back), "--deg", "4", "--genus", "2",
    ]) == 0
    t2 = table_files.load(str(back))
    assert t2 == tables.gue_table()


MASTER_ROUTES = ("hurwitz", "convolution", "schur")


def _transform(tmp, direction, route, table, deg, g2):
    """One ``transform`` run through cli.main, table in and table out."""
    src = os.path.join(tmp, "in.json")
    dst = os.path.join(tmp, "out-%s-%s.json" % (direction, route))
    table_files.save(src, table)
    assert run([
        "transform", direction, "--route", route, "--in", src,
        "--out", dst, "--deg", str(deg), "--genus", str(g2),
    ]) == 0
    return table_files.load(dst)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10 ** 6), deg=st.integers(1, 4), g2=st.integers(0, 2))
def test_transform_routes_agree(seed, deg, g2):
    """On a random table, c2m gives one moment table on every master route,
    and each route's m2c output goes back to the input through c2m."""
    t = tables.random_table(seed=seed, nmax=deg, degmax=deg, g2max=2)
    want = tables.restrict_table(t, deg=deg, g2=g2)
    with tempfile.TemporaryDirectory() as tmp:
        moments = [_transform(tmp, "c2m", route, t, deg, g2) for route in MASTER_ROUTES]
        assert moments[0] == moments[1] == moments[2]
        for route in MASTER_ROUTES:
            cum = _transform(tmp, "m2c", route, t, deg, g2)
            assert _transform(tmp, "c2m", route, cum, deg, g2) == want


@pytest.mark.parametrize("seed,deg,g2", [(0, 4, 0), (1, 3, 1), (2, 4, 2), (3, 2, 2), (4, 4, 1)])
def test_formula_route_agrees_with_hurwitz(seed, deg, g2):
    """The formula route on fixed random tables: c2m gives the hurwitz
    route's moment table, and its m2c output goes back to the input
    through c2m."""
    t = tables.random_table(seed=seed, nmax=deg, degmax=deg, g2max=2)
    want = tables.restrict_table(t, deg=deg, g2=g2)
    with tempfile.TemporaryDirectory() as tmp:
        moments = _transform(tmp, "c2m", "formula", t, deg, g2)
        assert moments == _transform(tmp, "c2m", "hurwitz", t, deg, g2)
        cum = _transform(tmp, "m2c", "formula", t, deg, g2)
        assert _transform(tmp, "c2m", "formula", cum, deg, g2) == want


def test_transform_formula_route(tmp_path):
    """The formula route takes n up to deg, not up to the input's largest
    n: on the one-point GUE table at degree 6 it returns the hurwitz
    route's 15 rows, n = 4 included."""
    cum = tmp_path / "cum.json"
    table_files.save(str(cum), tables.gue_table())
    outs = {}
    for route in ("formula", "hurwitz"):
        out = tmp_path / ("mom-%s.json" % route)
        assert run([
            "transform", "c2m", "--route", route, "--in", str(cum),
            "--out", str(out), "--deg", "6",
        ]) == 0
        outs[route] = table_files.load(str(out))
    t = outs["formula"]
    assert t[(0, (6,))] == 5
    assert len(t) == 15 and t == outs["hurwitz"]
    assert max(len(ks) for _, ks in t) == 4


def test_transform_formula_genus_is_a_cutoff(tmp_path):
    """--genus G on the formula route gives every g2 <= G, odd g2 included,
    and every n <= deg, as on the other routes, and m2c gives the input
    back.  At degree 4 the (g2 = 2, n = 3) dual reads F_{0; 1,1,1,1} on its
    four-point hyperedge, a row of the moment table only."""
    t = tables.random_table(seed=12, nmax=3, degmax=4, g2max=2)
    cum = tmp_path / "cum.json"
    table_files.save(str(cum), tables.restrict_table(t, deg=4))
    outs = {}
    for route in ("formula", "hurwitz"):
        outs[route] = tmp_path / ("mom-%s.json" % route)
        assert run([
            "transform", "c2m", "--route", route, "--in", str(cum),
            "--out", str(outs[route]), "--deg", "4", "--genus", "2",
        ]) == 0
    formula = table_files.load(str(outs["formula"]))
    assert {g2 for g2, _ in formula} == {0, 1, 2}
    assert (0, (1, 1, 1, 1)) in formula
    assert formula == table_files.load(str(outs["hurwitz"]))
    back = tmp_path / "back.json"
    assert run([
        "transform", "m2c", "--route", "formula", "--in", str(outs["formula"]),
        "--out", str(back), "--deg", "4", "--genus", "2",
    ]) == 0
    assert table_files.load(str(back)) == tables.restrict_table(t, deg=4)


@pytest.mark.parametrize("genus, deg", [
    (0, cli.FORMULA_D_BOUND[0] + 1),
    (1, cli.FORMULA_D_BOUND[1] + 1),
    (max(cli.FORMULA_D_BOUND), cli.FORMULA_D_BOUND[max(cli.FORMULA_D_BOUND)] + 1),
    (max(cli.FORMULA_D_BOUND) + 1, 2),
])
def test_transform_formula_bound_exit_2(tmp_path, capsys, genus, deg):
    """Past its per-genus degree bound the formula route exits 2 at once,
    with one error line."""
    inp = tmp_path / "in.json"
    table_files.save(str(inp), tables.gue_table())
    t0 = time.perf_counter()
    assert run(["transform", "c2m", "--route", "formula", "--in", str(inp),
                "--deg", str(deg), "--genus", str(genus)]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: --route formula") and err.count("\n") == 1


@pytest.mark.parametrize("route", ["hurwitz", "convolution", "schur", "formula"])
@pytest.mark.parametrize("direction", ["c2m", "m2c"])
def test_transform_degree_zero_and_negative(tmp_path, capsys, route, direction):
    """At degree 0 every route returns the empty table; a negative degree
    exits 2 with one error line on every route."""
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps({"entries": []}))
    args = ["transform", direction, "--route", route, "--in", str(inp), "--out", str(out)]
    assert run(args + ["--deg", "0"]) == 0
    obj = json.loads(out.read_text())
    assert obj["entries"] == [] and obj["deg"] == 0
    capsys.readouterr()
    assert run(args + ["--deg", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --deg must be nonnegative\n"


def test_verify_equivalence_degree_zero_exit_2(capsys):
    """At d = 0 every table is empty, so the equivalence suite would compare
    no value: it exits 2 with one error line, not with a traceback."""
    assert run(["verify", "--suite", "equivalence", "--d", "0"]) == 2
    assert capsys.readouterr().err == "error: verify --d must be at least 1, not 0\n"


@pytest.mark.parametrize("suite, least", [("all-genus", 3), ("infinitesimal", 2), ("dual-roundtrip", 1)])
def test_verify_degree_with_an_empty_case_exit_2(suite, least, tmp_path, capsys):
    """Below its least degree some case of the suite would compare two
    empty tables and pass without checking a value: it exits 2 with one
    error line instead.  At the least degree the suite runs and passes."""
    assert run(["verify", "--suite", suite, "--deg", str(least - 1)]) == 2
    assert capsys.readouterr().err == "error: verify --deg must be at least %d, not %d\n" % (least, least - 1)
    assert run(["verify", "--suite", suite, "--deg", str(least), "--out", str(tmp_path / "rep.json")]) == 0


def test_transform_bad_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["transform", "c2m", "--route", "hurwitz", "--in", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["transform", "c2m", "--route", "hurwitz", "--in", str(missing)]) == 2


def test_transform_degree_mismatch_exit_2(tmp_path):
    cum = tmp_path / "cum.json"
    table_files.save(str(cum), {(0, (5,)): Fraction(1)})
    assert run([
        "transform", "c2m", "--route", "hurwitz", "--in", str(cum), "--deg", "3",
    ]) == 2


@pytest.mark.parametrize("direction, route, deg", [
    ("c2m", "convolution", 9),
    ("m2c", "convolution", 9),
    ("m2c", "hurwitz", 6),
])
def test_transform_degree_bound_exit_2(tmp_path, direction, route, deg):
    """Past its bound a route exits 2; m2c on hurwitz has none, and at
    degree 6 it agrees with schur."""
    inp = tmp_path / "in.json"
    table_files.save(str(inp), tables.random_table(seed=9, nmax=6, degmax=6, g2max=1))
    args = ["transform", direction, "--in", str(inp), "--deg", str(deg), "--genus", "1"]
    if (route, direction) in cli.TRANSFORM_D_BOUND:
        assert run(args + ["--route", route]) == 2
        return
    outs = {}
    for r in (route, "schur"):
        out = tmp_path / ("out-%s.json" % r)
        assert run(args + ["--route", r, "--out", str(out)]) == 0
        outs[r] = table_files.load(str(out))
    assert outs[route] == outs["schur"]


def test_transform_low_hbar_exit_3(tmp_path):
    cum = tmp_path / "cum.json"
    table_files.save(str(cum), tables.random_table(seed=8, nmax=4, degmax=4, g2max=2))
    outs = {}
    for hbar in (None, 8):
        out = tmp_path / ("out-%s.json" % hbar)
        args = ["transform", "c2m", "--route", "convolution", "--in", str(cum),
                "--out", str(out), "--deg", "4", "--genus", "2"]
        assert run(args + (["--hbar", str(hbar)] if hbar else [])) == 0
        outs[hbar] = table_files.load(str(out))
    # hbar^8 holds the highest entry, F_{g2=2; 1,1,1,1}
    assert outs[8] == outs[None] and (2, (1, 1, 1, 1)) in outs[8]
    for route in ("hurwitz", "convolution", "schur"):
        assert run([
            "transform", "c2m", "--route", route, "--in", str(cum),
            "--deg", "4", "--genus", "2", "--hbar", "7",
        ]) == 3


def test_negative_hbar_exit_2(tmp_path):
    inp = tmp_path / "in.json"
    table_files.save(str(inp), tables.gue_table())
    assert run(["hurwitz", "--d", "2", "--kind", "strict", "--hbar", "-1"]) == 2
    assert run(["moebius", "--d", "2", "--hbar", "-1"]) == 2
    for route in ("hurwitz", "formula"):
        assert run(["transform", "c2m", "--route", route, "--in", str(inp), "--hbar", "-1"]) == 2


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("argv", [["gue", "--genus", "0", "--deg", "2"], ["verify", "--suite", "gue"]],
                         ids=["gue", "verify"])
def test_unwritable_out_exit_2(tmp_path, capsys, where, argv):
    # a verification that passed must not read as failed (exit 1)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_verify_equivalence_hbar(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify", "--suite", "equivalence", "--hbar", "2", "--out", str(out)]) == 3
    assert run(["verify", "--suite", "equivalence", "--d", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"]


def test_verify_equivalence_degree_bound_exit_2():
    t0 = time.perf_counter()
    assert run(["verify", "--suite", "equivalence", "--d", "9"]) == 2
    assert time.perf_counter() - t0 < 1


def test_verify_explicit_zero(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify", "--suite", "orthogonality", "--d", "2", "--hbar", "0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["hbar"] == 0 and rep["d"] == 2 and rep["pass"]
    assert run(["verify", "--suite", "orthogonality", "--d", "-1"]) == 2
    # n = 0 has no moments to check, and degree 0 no monomials
    assert run(["verify", "--suite", "genus0-trees", "--n", "0"]) == 2
    assert run(["verify", "--suite", "genus0-trees", "--deg", "0"]) == 2


def test_transform_formula_rejects_hbar(tmp_path, capsys):
    inp = tmp_path / "in.json"
    table_files.save(str(inp), tables.gue_table())
    args = ["transform", "c2m", "--route", "formula", "--in", str(inp), "--deg", "4"]
    assert run(args + ["--hbar", "6"]) == 2
    assert "--hbar" in capsys.readouterr().err
    assert run(args + ["--out", str(tmp_path / "out.json")]) == 0


_GOOD_ENTRIES = [{"g2": 0, "k": [2], "value": "1"}, {"g2": 1, "k": [2, 1], "value": "0"}]


@pytest.mark.parametrize("entry", [
    {"g2": 0, "k": [0], "value": "1"},
    {"g2": 0, "k": [2, -1], "value": "1"},
    {"g2": 0, "k": [], "value": "1"},
    {"g2": -2, "k": [0, -1], "value": "1"},
    {"g2": -2, "k": [2], "value": "1"},
    {"g2": 0, "k": [1.5], "value": "1"},
    {"g2": 0, "k": ["2"], "value": "1"},
    {"g2": 0, "k": [True], "value": "1"},
    {"g2": 0.5, "k": [1], "value": "1"},
    {"g2": 0, "k": 2, "value": "1"},
    {"g2": 0, "k": [2], "value": "3"},
    {"g2": 1, "k": [1, 2], "value": "1"},
    {"g2": 0, "k": [3], "value": 0.1},
    {"g2": 0, "k": [3], "value": True},
    {"g2": 0, "k": [3], "value": float("inf")},
    {"g2": 0, "k": [3], "value": "1/0"},
], ids=[
    "zero-part", "negative-part", "empty-k", "negative-g2-bad-k", "negative-g2",
    "float-part", "string-part", "bool-part", "float-g2", "k-not-a-list",
    "duplicate", "duplicate-of-zero-entry-unsorted",
    "float-value", "bool-value", "inf-value", "zero-denominator-value",
])
def test_transform_bad_table_exit_2(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": _GOOD_ENTRIES + [entry]}))
    with pytest.raises(ValueError):
        table_files.load(str(path))
    assert run(["transform", "c2m", "--route", "schur", "--in", str(path), "--deg", "3"]) == 2
    path.write_text(json.dumps({"entries": _GOOD_ENTRIES}))
    assert run(["transform", "c2m", "--route", "schur", "--in", str(path), "--deg", "3",
                "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("route", ["hurwitz", "convolution", "schur", "formula"])
def test_transform_negative_genus_exit_2(tmp_path, route):
    inp = tmp_path / "in.json"
    table_files.save(str(inp), tables.gue_table())
    assert run(["transform", "c2m", "--route", route, "--in", str(inp), "--deg", "4", "--genus", "-1"]) == 2


def test_negative_sizes_exit_2():
    assert run(["moebius", "--d", "-1"]) == 2
    assert run(["gue", "--genus", "-1", "--deg", "4"]) == 2
    assert run(["gue", "--genus", "0", "--deg", "-2"]) == 2


def test_transform_csv(tmp_path):
    cum = tmp_path / "cum.json"
    out = tmp_path / "mom.csv"
    table_files.save(str(cum), tables.gue_table())
    assert run([
        "transform", "c2m", "--route", "hurwitz", "--in", str(cum),
        "--out", str(out), "--deg", "4", "--csv",
    ]) == 0
    text = out.read_text()
    assert text.startswith("g2,k,value")
    assert "0,4,2" in text


def test_gue_fixture(tmp_path):
    out = tmp_path / "gue.json"
    assert run(["gue", "--genus", "4", "--deg", "8", "--out", str(out)]) == 0
    t = table_files.load(str(out))
    assert t[(2, (8,))] == 70 and t[(4, (8,))] == 21


def test_gue_matches_gluing_walk(tmp_path):
    # gue emits the Harer-Zagier counts; they equal the polygon gluings
    # walked one by one, filtered to g2 <= --genus, at every degree to 12
    walked = oracles.gue_moments_by_gluing(6)
    out = tmp_path / "gue.json"
    for deg in range(13):
        for g2 in range(9):
            assert run(["gue", "--genus", str(g2), "--deg", str(deg), "--out", str(out)]) == 0
            want = {key: v for key, v in walked.items() if key[0] <= g2 and key[1][0] <= deg}
            assert table_files.load(str(out)) == want, (g2, deg)


def test_verify_suite_pass(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify", "--suite", "orthogonality", "--d", "3", "--hbar", "6", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] and rep["suite"] == "orthogonality"
    assert all("pass" in c for c in rep["cases"])


def test_verify_small_suites(tmp_path):
    assert run(["verify", "--suite", "gue", "--out", str(tmp_path / "g.json")]) == 0
    assert run([
        "verify", "--suite", "genus0-trees", "--n", "2", "--deg", "4",
        "--out", str(tmp_path / "t.json"),
    ]) == 0


_VERIFY_READS = {"orthogonality": "d hbar", "equivalence": "d hbar", "genus0-trees": "n deg",
                 "all-genus": "deg", "infinitesimal": "deg", "gue": "", "dual-roundtrip": "deg",
                 "closed-forms": "deg"}


@pytest.mark.parametrize("flag", ["d", "n", "deg", "hbar"])
@pytest.mark.parametrize("suite", sorted(_VERIFY_READS))
def test_verify_flags_each_suite_reads(suite, flag, capsys):
    """A flag its suite does not read exits 2 with one error line, even at
    a valid value; a flag it reads reaches its own check, which rejects -1."""
    assert set(cli.SUITES) == set(_VERIFY_READS)
    reads = flag in _VERIFY_READS[suite].split()
    assert run(["verify", "--suite", suite, "--" + flag, "-1" if reads else "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--%s must be" % flag in err) == reads
    assert (err == "error: --suite %s does not read --%s\n" % (suite, flag)) != reads


def test_freehop_cache_is_ignored(tmp_path):
    # the oracle's counts are memoised per process only: in a fresh
    # process, a FREEHOP_CACHE that names a regular file changes neither
    # the exit code, nor the report, nor the file
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    env = {k: v for k, v in os.environ.items() if k != "FREEHOP_CACHE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    script = "import sys; from freehop.cli import main; sys.exit(main(sys.argv[1:]))"
    reports = []
    for extra in ({}, {"FREEHOP_CACHE": str(blocker)}):
        out = tmp_path / ("report-%d.json" % len(reports))
        argv = ["verify", "--suite", "genus0-trees", "--n", "1", "--deg", "2", "--out", str(out)]
        done = subprocess.run([sys.executable, "-c", script, *argv], env=dict(env, **extra),
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), extra
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert blocker.read_text() == "not a directory"


def test_exit_codes_stable():
    assert cli.EXIT_OK == 0
    assert cli.EXIT_VERIFY_FAIL == 1
    assert cli.EXIT_INPUT == 2
    assert cli.EXIT_TRUNCATION == 3


def test_main_in_sequence_equals_each_call_alone(tmp_path, capsys):
    """main keeps one parser per process: a sequence of calls in one
    process, with an argparse rejection and an input error among them,
    gives each call the exit code and output it has in a fresh process."""
    src = str(tmp_path / "in.json")
    table_files.save(src, tables.random_table(seed=8, nmax=3, degmax=3, g2max=1))
    transform = ["transform", "c2m", "--route", "convolution", "--in", src]
    calls = [
        transform + ["--deg", "3", "--genus", "1", "--csv"],
        ["moebius", "--d", "2"],
        ["transform", "c2m", "--route", "nope", "--in", src],  # argparse exits 2
        transform,  # no --csv, --deg or --genus: the defaults again
        ["transform", "m2c", "--route", "hurwitz", "--in", src, "--hbar", "1"],  # exit 3
        ["hurwitz", "--d", "11", "--kind", "strict"],  # exit 2
        ["gue", "--genus", "2", "--deg", "4"],
        ["verify", "--suite", "orthogonality", "--d", "2"],
        transform + ["--deg", "3", "--genus", "1", "--csv"],
    ]
    together = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        together.append((code, out, err))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    script = "import sys; from freehop.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, got in zip(calls, together):
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    assert [code for code, _, _ in together] == [0, 0, 2, 0, 3, 2, 0, 0, 0]


# ---------------------------------------------------------------------------
# the output writer: every output goes through cli._write_output


def _written(tmp_path, monkeypatch, argv):
    """The object one call passes to _write_output, and the file's text."""
    seen, write = [], cli._write_output

    def spy(obj, path, csv=None):
        seen.append(obj)
        write(obj, path, csv)

    monkeypatch.setattr(cli, "_write_output", spy)
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert len(seen) == 1
    return seen[0], out.read_text()


def _writer_calls(src):
    calls = [["transform", d, "--route", r, "--in", src, "--deg", "4", "--genus", "1"]
             for d in ("c2m", "m2c") for r in ("hurwitz", "convolution", "schur", "formula")]
    calls += [["gue", "--genus", "2", "--deg", "6"], ["gue", "--genus", "0", "--deg", "0"]]
    calls += [["hurwitz", "--d", "3", "--kind", k] for k in ("strict", "weak")]
    calls += [["moebius", "--d", "3"], ["moebius", "--d", "3", "--hbar", "3"], ["moebius", "--d", "0"]]
    small = {"orthogonality": ["--d", "3"], "equivalence": ["--d", "2"],
             "genus0-trees": ["--n", "2", "--deg", "3"], "all-genus": ["--deg", "3"],
             "infinitesimal": ["--deg", "3"], "dual-roundtrip": ["--deg", "4"],
             "closed-forms": ["--deg", "4"]}
    calls += [["verify", "--suite", s] + small.get(s, []) for s in cli.SUITES]
    return calls


def test_every_output_reads_back_as_written(tmp_path, monkeypatch):
    """json.loads of each output file equals the object written; each
    top-level key starts a line, and each item of a top-level list is one
    line of its own."""
    src = str(tmp_path / "in.json")
    table_files.save(src, tables.random_table(seed=9, nmax=4, degmax=4, g2max=1))
    for argv in _writer_calls(src):
        obj, text = _written(tmp_path, monkeypatch, argv)
        assert json.loads(text) == obj, argv
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}", argv
        bare = [line.rstrip(",") for line in lines]
        for key, value in obj.items():
            if isinstance(value, list) and value:
                at = lines.index(json.dumps(key) + ": [")
                items = bare[at + 1:at + 1 + len(value)]
                assert [json.loads(line) for line in items] == value, argv
                assert bare[at + 1 + len(value)] == "]", argv
            else:
                assert json.dumps(key) + ": " + json.dumps(value) in bare, argv


def test_writer_layout():
    obj = {"entries": [{"k": [2, 1], "value": "1/2"}, {"k": [1], "value": "-3"}], "empty": [],
           "route": "hurwitz", "deg": 4, "pass": True}
    assert cli._dumps(obj) == "\n".join([
        "{",
        '"entries": [',
        '{"k": [2, 1], "value": "1/2"},',
        '{"k": [1], "value": "-3"}',
        "],",
        '"empty": [],',
        '"route": "hurwitz",',
        '"deg": 4,',
        '"pass": true',
        "}",
    ])


# ---------------------------------------------------------------------------
# the parser: a call of one subcommand builds only that subcommand's parser

_PARSE_SAMPLES = {
    "hurwitz": [["--d", "3", "--kind", "weak"], ["--d", "3", "--kind", "weak", "--hbar", "2", "--out", "x"],
                ["--d", "x", "--kind", "weak"], ["--d", "3"], ["--d", "3", "--kind", "nope"]],
    "moebius": [["--d", "3"], ["--d", "3", "--hbar", "1"], [], ["--d"]],
    "transform": [["c2m", "--route", "schur", "--in", "f"],
                  ["m2c", "--route", "formula", "--in", "f", "--deg", "4", "--genus", "2", "--csv"],
                  ["c2m", "--in", "f"], ["x2y", "--route", "schur", "--in", "f"], ["c2m", "--route", "schur"]],
    "verify": [["--suite", "gue"], ["--suite", "all-genus", "--deg", "3"], ["--suite", "nope"], []],
    "gue": [["--genus", "2", "--deg", "4", "--csv"], ["--genus", "2"], ["--genus", "a", "--deg", "4"]],
}
_PARSE_COMMON = [["-h"], ["--bogus"], ["--out"], ["extra"]]


def _parse(parser, argv):
    """The namespace or exit code of one parse, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parser.parse_args(argv))
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_command_parser_reads_as_the_full_one(command):
    assert set(_PARSE_SAMPLES) == set(cli.COMMANDS)
    one, full = cli.build_parser(command), cli.build_parser()
    assert one is cli.build_parser(command) and one is not full
    assert one.format_usage() == full.format_usage()
    codes = set()
    for tail in _PARSE_SAMPLES[command] + _PARSE_COMMON:
        got = _parse(one, [command] + tail)
        assert got == _parse(full, [command] + tail), tail
        codes.add(got[0] if isinstance(got[0], int) else "parsed")
    assert codes == {0, 2, "parsed"}


def test_main_builds_the_full_parser_without_a_command(capsys, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    for argv in (["-h"], ["--help"], ["trasform", "c2m"], []):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert cli.main(["moebius", "--d", "1"]) == 0
    assert built == [None] * 4 + ["moebius"]
    assert "invalid choice: 'trasform'" in capsys.readouterr().err
