"""Command-line front end.

Subcommands: hurwitz, moebius, transform, verify, gue.  All emitted
rationals are exact "p/q" strings; exit codes are 0 success, 1
verification failure, 2 input error, 3 truncation insufficiency.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import hurwitz, oracles, pscore, symcore, tables, transforms
from .hbar import _decode
from .series import TruncationError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_TRUNCATION = 3

# largest d of the hurwitz subcommand: the table has p(d)^2 entries; a whole
# hurwitz --d 10 --kind weak call takes 0.16-0.26 s and writes 514 KB of
# JSON at the default hbar^9, and 0.22-0.35 s and 1.4 MB at hbar^20 (fresh
# processes on 2 vCPUs whose speed varies, Python 3.11)
HURWITZ_D_BOUND = 10
# largest d of the moebius subcommand, whose Neumann series walks PS(d)
# times S(d): at d = 6 (4051 elements) pscore.moebius takes 11-15 s and
# moebius_hbar(6, 10) 29-36 s in process, where the triangular solve and
# the separate hbar series before them took 70-82 s and 112-118 s
# (three alternated runs each, 2 vCPUs, Python 3.11)
MOEBIUS_D_BOUND = 6
# largest --deg per (route, direction) of transform: the convolution routes
# walk one permutation per centralizer orbit of S_d for their factorization
# counts; a fresh process at degree 8 takes 2.4-2.9 s, most of it in that
# walk over S_8, and convolution_forward at degree 9 took 37 s in a fresh
# process (2 vCPUs, Python 3.11)
TRANSFORM_D_BOUND = {
    ("convolution", "c2m"): 8,
    ("convolution", "m2c"): 8,
}
# largest --deg of transform --route formula per --genus, the doubled genus
# cutoff: the route runs the tree and graph relations at every n <= deg, and
# their cost grows with n, genus and degree; the longest run these allow
# takes about 4 s (deg 4, genus 4), and one step past them takes 8 s or more,
# for example 9.5 s for the (n, g2) = (5, 1) graph sum at deg 5 alone and
# 16 s for the genus-0 trees at n = deg = 7 (2 vCPUs, Python 3.11)
FORMULA_D_BOUND = {0: 6, 1: 4, 2: 4, 3: 4, 4: 4, 5: 3, 6: 3, 7: 3, 8: 3}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


# json's C encoder with json.dumps's defaults, made once: json.dumps makes
# one per call, which costs as much as encoding a table entry, and with an
# indent it takes the pure-Python encoder instead
_DEFAULTS = json.JSONEncoder()
_c_encoder = c_make_encoder(None, _DEFAULTS.default, encode_basestring_ascii, None,
                            _DEFAULTS.key_separator, _DEFAULTS.item_separator,
                            _DEFAULTS.sort_keys, _DEFAULTS.skipkeys, _DEFAULTS.allow_nan)


def _encode(obj) -> str:
    return "".join(_c_encoder(obj, 0))


def _dumps(obj: dict) -> str:
    """obj as JSON, each top-level key on its own line and each item of a
    top-level list on its own line, every piece through json's C encoder;
    json.loads reads back what json.dumps(obj) would give."""
    lines = []
    for key, value in obj.items():
        if isinstance(value, list) and value:
            text = "[\n" + ",\n".join(map(_encode, value)) + "\n]"
        else:
            text = _encode(value)
        lines.append(_encode(key) + ": " + text)
    return "{\n" + ",\n".join(lines) + "\n}"


def _write_output(obj: dict, path: str | None, csv: str | None = None):
    text = csv if csv is not None else _dumps(obj)
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise CliError("cannot write %s: %s" % (path, exc))
    else:
        print(text)


def _check_hbar(hbar: int | None):
    if hbar is not None and hbar < 0:
        raise CliError("--hbar must be nonnegative")


def _check_truncation(hbar: int | None, deg: int, g2: int):
    """Exit 3 when --hbar is too low to hold every entry with |lam| <= deg
    and g2 <= genus.  The routes stop at that order, so a higher --hbar
    changes nothing."""
    need = transforms.required_K(deg, g2)
    if hbar is not None and hbar < need:
        raise CliError(
            "--hbar %d drops entries: degree %d and genus2 %d need hbar^%d"
            % (hbar, deg, g2, need),
            EXIT_TRUNCATION,
        )


def cmd_hurwitz(args) -> int:
    if args.d > HURWITZ_D_BOUND:
        raise CliError("d=%d exceeds the table bound %d" % (args.d, HURWITZ_D_BOUND))
    if args.d < 0:
        raise CliError("d must be nonnegative")
    _check_hbar(args.hbar)
    K = args.hbar if args.hbar is not None else max(args.d - 1, 0)
    table = hurwitz.hurwitz_table(args.d, args.kind, K)
    obj = hurwitz.table_to_json(args.d, args.kind, table, K)
    _write_output(obj, args.out)
    return EXIT_OK


def cmd_moebius(args) -> int:
    if args.d > MOEBIUS_D_BOUND:
        raise CliError("d=%d exceeds the enumeration bound %d" % (args.d, MOEBIUS_D_BOUND))
    if args.d < 0:
        raise CliError("d must be nonnegative")
    _check_hbar(args.hbar)
    if args.hbar is None:
        obj = {"d": args.d, "kind": "moebius"}
        values = {x: str(v) for x, v in pscore.moebius(args.d).items() if v}
    else:
        obj = {"d": args.d, "kind": "moebius-hbar", "hbar": args.hbar}
        values = {x: {str(e): str(c) for e, c in _decode(row, 1).items()}
                  for x, row in pscore.moebius_hbar(args.d, args.hbar).items()}
    obj["entries"] = [
        {
            "partition": pscore.setpartition_to_json(part),
            "perm": symcore.perm_to_json(perm),
            "value": v,
        }
        for (part, perm), v in sorted(values.items())
    ]
    _write_output(obj, args.out)
    return EXIT_OK


def _load_table(path: str, deg: int | None) -> tables.CoefficientTable:
    try:
        with open(path) as fh:
            obj = json.load(fh)
        table = tables.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError("cannot read table %s: %s" % (path, exc))
    if deg is not None:
        for (g2, ks) in table:
            if sum(ks) > deg:
                raise CliError(
                    "table entry %r exceeds the requested degree %d" % (list(ks), deg)
                )
    return table


def cmd_transform(args) -> int:
    _check_hbar(args.hbar)
    if args.genus < 0:
        raise CliError("--genus must be nonnegative")
    deg = args.deg
    if deg is not None and deg < 0:
        raise CliError("--deg must be nonnegative")
    table = _load_table(args.infile, deg)
    if deg is None:
        deg = max((sum(ks) for (_, ks) in table), default=0)
    bound = TRANSFORM_D_BOUND.get((args.route, args.direction))
    if bound is not None and deg > bound:
        raise CliError(
            "%s --route %s runs to degree %d, not %d" % (args.direction, args.route, bound, deg)
        )
    g2 = args.genus
    if args.route == "formula":
        if args.hbar is not None:
            raise CliError("--route formula takes no --hbar: it truncates by degree, not by hbar order")
        if g2 not in FORMULA_D_BOUND:
            raise CliError("--route formula runs to --genus %d, not %d" % (max(FORMULA_D_BOUND), g2))
        if deg > FORMULA_D_BOUND[g2]:
            raise CliError("--route formula at --genus %d runs to degree %d, not %d"
                           % (g2, FORMULA_D_BOUND[g2], deg))
    else:
        _check_truncation(args.hbar, deg, g2)
    forward = args.direction == "c2m"
    try:
        if args.route in ("hurwitz", "schur"):
            fn = transforms.master_forward if forward else transforms.master_inverse
            out = fn(table, deg, g2)
        elif args.route == "convolution":
            fn = transforms.convolution_forward if forward else transforms.moebius_inverse_route
            out = fn(table, deg, g2)
        elif args.route == "formula":
            sign = 1 if forward else -1
            out = {}
            # every k_i >= 1, so the entries of degree <= deg have n <= deg
            for n in range(1, deg + 1):
                out.update(transforms.genus0_moments(table, n, deg, sign))
                for target_g2 in range(1, g2 + 1):
                    out.update(transforms.allgenus_moments(table, n, target_g2, deg, sign))
        else:  # pragma: no cover - argparse restricts choices
            raise CliError("unknown route %r" % args.route)
    except TruncationError as exc:
        raise CliError(str(exc), EXIT_TRUNCATION)
    meta = {"direction": args.direction, "route": args.route, "deg": deg, "genus2": g2}
    csv = tables.to_csv(out) if args.csv else None
    _write_output(tables.to_json(out, meta), args.out, csv)
    return EXIT_OK


def cmd_gue(args) -> int:
    if args.genus < 0 or args.deg < 0:
        raise CliError("--genus and --deg must be nonnegative")
    moments = oracles.harer_zagier(args.deg // 2, args.genus // 2)
    obj = tables.to_json(moments, {"fixture": "gue", "genus2": args.genus, "deg": args.deg})
    csv = tables.to_csv(moments) if args.csv else None
    _write_output(obj, args.out, csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _report(suite: str, cases: list[dict]) -> dict:
    return {"suite": suite, "pass": all(c["pass"] for c in cases), "cases": cases}


def _case(name, expected, got) -> dict:
    return {
        "input": name,
        "expected": str(expected),
        "got": str(got),
        "pass": expected == got,
    }


EQUIVALENCE_G2 = 3


def suite_equivalence(d: int) -> dict:
    cases = []
    g2 = EQUIVALENCE_G2
    for seed in range(5):
        t = tables.random_table(seed=100 + seed, nmax=d, degmax=d, g2max=g2)
        m_h = transforms.master_forward(t, d, g2)
        m_c = transforms.convolution_forward(t, d, g2)
        back_w = transforms.master_inverse(m_h, d, g2)
        back_m = transforms.moebius_inverse_route(m_h, d, g2)
        want = tables.restrict_table(t, deg=d, g2=g2)
        cases.append(_case("seed %d: (i)==(ii)" % seed, True, tables.table_equal(m_h, m_c, deg=d, g2=g2)))
        cases.append(_case("seed %d: (iii) inverts" % seed, True, tables.table_equal(back_w, want, deg=d, g2=g2)))
        cases.append(_case("seed %d: (iv) inverts" % seed, True, tables.table_equal(back_m, want, deg=d, g2=g2)))
    return _report("equivalence", cases)


def suite_genus0_trees(n: int, deg: int) -> dict:
    cases = []
    for seed in range(3):
        t = tables.random_table(seed=200 + seed, nmax=n, degmax=deg)
        got = transforms.genus0_moments(t, n, deg)
        for ks in _monomials(n, deg):
            want = oracles.genus0_moment_by_convolution(t, ks)
            cases.append(
                _case("seed %d F_0;%s" % (seed, list(ks)), want, got.get((0, ks), Fraction(0)))
            )
    return _report("genus0-trees", cases)


def _monomials(n: int, deg: int):
    from .tables import _index_tuples

    return [ks for ks in _index_tuples(n, deg) if len(ks) == n]


def suite_all_genus(deg: int = 4) -> dict:
    cases = []
    targets = [(0, 2), (2, 1), (1, 1), (1, 2), (2, 2), (0, 3)]
    for g2, n in targets:
        g2max = g2 if g2 % 2 == 0 else g2 + 1
        t = tables.random_table(seed=300 + g2 + n, nmax=n, degmax=deg, g2max=g2max)
        if g2 % 2 == 0:
            t = {k: v for k, v in t.items() if k[0] % 2 == 0}
        got = transforms.allgenus_moments(t, n, g2, deg)
        orc = oracles.hbar_moment_table(t, deg, g2, nmax=n)
        want = {k: v for k, v in orc.items() if k[0] == g2 and len(k[1]) == n}
        cases.append(
            _case(
                "(g2=%d, n=%d) graph == oracle" % (g2, n),
                True,
                tables.table_equal(got, want, n=n, deg=deg, g2=g2),
            )
        )
    return _report("all-genus", cases)


def suite_infinitesimal(deg: int = 4) -> dict:
    cases = []
    t = tables.random_table(seed=400, nmax=2, degmax=deg, g2max=1)
    for n in (1, 2):
        got = transforms.half_genus_moments_special_trees(t, n, deg)
        orc = oracles.hbar_moment_table(t, deg, 1, nmax=n)
        want = {k: v for k, v in orc.items() if k[0] == 1 and len(k[1]) == n}
        cases.append(
            _case(
                "special trees n=%d == hbar-graded oracle" % n,
                True,
                tables.table_equal(got, want, n=n, deg=deg, g2=1),
            )
        )
    # n = 1 to degree 10: the graph sum against the special trees
    t1 = tables.random_table(seed=401, nmax=1, degmax=10, g2max=1)
    got = transforms.allgenus_moments(t1, 1, 1, 10)
    trees = transforms.half_genus_moments_special_trees(t1, 1, 10)
    cases.append(_case("dln relation degree 10", True, tables.table_equal(got, trees, deg=10)))
    return _report("infinitesimal", cases)


def suite_gue() -> dict:
    cases = []
    mt = transforms.master_forward(tables.gue_table(), 8, 4)
    want = oracles.gue_moments_by_gluing(4)
    for (g2, ks), v in sorted(want.items()):
        cases.append(_case("F_{%d/2;%d}" % (g2, ks[0]), v, mt.get((g2, ks), Fraction(0))))
    catalan = [1, 2, 5, 14, 42]
    m0 = transforms.genus0_moments(tables.gue_table(), 1, 10)
    for i, k in enumerate(range(1, 6)):
        cases.append(_case("Catalan(%d)" % k, Fraction(catalan[i]), m0.get((0, (2 * k,)), Fraction(0))))
    return _report("gue", cases)


def suite_dual_roundtrip(deg: int = 6) -> dict:
    cases = []
    for seed in range(3):
        t = tables.random_table(seed=500 + seed, nmax=3, degmax=deg)
        mom = {}
        back = {}
        for n in (1, 2, 3):
            mom.update(transforms.genus0_moments(t, n, deg))
        for n in (1, 2, 3):
            back.update(transforms.genus0_moments(mom, n, deg, sign=-1))
        want = tables.restrict_table(t, n=3, deg=deg)
        cases.append(_case("seed %d c2m o m2c == id" % seed, True, tables.table_equal(back, want, n=3, deg=deg)))
    cat = transforms.genus0_moments(tables.gue_table(), 1, 8)
    gb = transforms.genus0_moments(cat, 1, 8, sign=-1)
    cases.append(_case("GUE pair", True, gb == {(0, (2,)): Fraction(1)}))
    return _report("dual-roundtrip", cases)


CLOSED_FORM_G2 = 4


def suite_closed_forms(deg: int = 12) -> dict:
    """The master routes against closed forms, far past the brute-force
    oracles: every one-point entry of master_forward on GUE to doubled
    genus CLOSED_FORM_G2 against the Harer-Zagier recursion, and the
    genus-0 one-point entries of both directions against the free
    moment-cumulant relation on random tables (master_inverse of a table
    taken as moments gives cumulants whose free moments are that table's)."""
    cases = []
    g2max = CLOSED_FORM_G2
    got = transforms.master_forward(tables.gue_table(), deg, g2max)
    want = oracles.harer_zagier(deg // 2, g2max // 2)
    for g2 in range(g2max + 1):
        for k in range(1, deg + 1):
            key = (g2, (k,))
            cases.append(_case("GUE F_{%d/2;%d}" % (g2, k), want.get(key, Fraction(0)), got.get(key, Fraction(0))))
    for seed in range(2):
        t = tables.random_table(seed=600 + seed, nmax=3, degmax=deg)
        one_point = {key: v for key, v in t.items() if len(key[1]) == 1}
        m = transforms.master_forward(t, deg, 0)
        m = {key: v for key, v in m.items() if len(key[1]) == 1}
        c = transforms.master_inverse(t, deg, 0)
        cases.append(_case("seed %d: master_forward == free moments" % seed,
                           oracles.free_moments_genus0(t, deg), m))
        cases.append(_case("seed %d: free moments of master_inverse == input" % seed,
                           one_point, oracles.free_moments_genus0(c, deg)))
    return _report("closed-forms", cases)


# the suites, each with the flags it reads; any other flag exits 2
SUITES = {"orthogonality": ("d", "hbar"), "equivalence": ("d", "hbar"), "genus0-trees": ("n", "deg"),
          "all-genus": ("deg",), "infinitesimal": ("deg",), "gue": (), "dual-roundtrip": ("deg",),
          "closed-forms": ("deg",)}


def _given(flag: str, value: int | None, default: int, least: int = 0) -> int:
    """An explicit value, 0 included, or the default; exit 2 below least."""
    if value is None:
        return default
    if value < least:
        raise CliError("verify --%s must be at least %d, not %d" % (flag, least, value))
    return value


def cmd_verify(args) -> int:
    for flag in ("d", "n", "deg", "hbar"):
        if getattr(args, flag) is not None and flag not in SUITES[args.suite]:
            raise CliError("--suite %s does not read --%s" % (args.suite, flag))
    _check_hbar(args.hbar)
    if args.suite == "orthogonality":
        report = hurwitz.verify_orthogonality(_given("d", args.d, 4), _given("hbar", args.hbar, 8))
    elif args.suite == "equivalence":
        # at d = 0 every table is empty, so no case would compare a value
        d = _given("d", args.d, 4, least=1)
        bound = TRANSFORM_D_BOUND[("convolution", "c2m")]
        if d > bound:
            raise CliError("--suite equivalence runs the convolution routes, to d = %d, not %d" % (bound, d))
        _check_truncation(args.hbar, d, EQUIVALENCE_G2)
        report = suite_equivalence(d)
    elif args.suite == "genus0-trees":
        report = suite_genus0_trees(_given("n", args.n, 3, least=1), _given("deg", args.deg, 6))
    elif args.suite == "all-genus":
        # below degree 3 the n = 3 case has no entry, and below 1 none has
        report = suite_all_genus(_given("deg", args.deg, 4, least=3))
    elif args.suite == "infinitesimal":
        # the n = 2 case has no entry below degree 2
        report = suite_infinitesimal(_given("deg", args.deg, 4, least=2))
    elif args.suite == "gue":
        report = suite_gue()
    elif args.suite == "dual-roundtrip":
        # the seeded round trips compare empty tables at degree 0
        report = suite_dual_roundtrip(_given("deg", args.deg, 6, least=1))
    elif args.suite == "closed-forms":
        report = suite_closed_forms(_given("deg", args.deg, 12, least=1))
    else:  # pragma: no cover
        raise CliError("unknown suite %r" % args.suite)
    if not report["cases"]:
        raise CliError("--suite %s has no case to check at these arguments" % args.suite)
    _write_output(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------


COMMANDS = ("hurwitz", "moebius", "transform", "verify", "gue")


@lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, built on the first call per command and kept for the
    process: building it takes over a millisecond, parsing a fraction of
    one.  Given a subcommand name it holds only that subcommand, which is
    all a call of that subcommand parses, and its usage, help and errors
    read as under the full parser; given None it holds all five."""
    p = argparse.ArgumentParser(
        prog="freehop",
        description="exact partitioned-permutation convolutions, monotone "
        "Hurwitz numbers, and higher-order moment/cumulant transforms",
    )
    # a one-command parser's usage still names all five
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    names = COMMANDS if command is None else (command,)

    if "hurwitz" in names:
        ph = sub.add_parser("hurwitz", help="emit a monotone Hurwitz table")
        ph.add_argument("--d", type=int, required=True)
        ph.add_argument("--kind", choices=hurwitz.KINDS, required=True)
        ph.add_argument("--hbar", type=int, default=None)
        ph.add_argument("--out", default=None)

    if "moebius" in names:
        pm = sub.add_parser("moebius", help="emit the Moebius function on PS(d)")
        pm.add_argument("--d", type=int, required=True)
        pm.add_argument("--hbar", type=int, default=None)
        pm.add_argument("--out", default=None)

    if "transform" in names:
        pt = sub.add_parser("transform", help="run a moment/cumulant transform")
        pt.add_argument("direction", choices=["m2c", "c2m"])
        pt.add_argument("--route", choices=["hurwitz", "convolution", "schur", "formula"],
                        required=True,
                        help="schur is an alias of hurwitz: both run the one master kernel")
        pt.add_argument("--in", dest="infile", required=True)
        pt.add_argument("--out", default=None)
        pt.add_argument("--deg", type=int, default=None)
        pt.add_argument("--hbar", type=int, default=None)
        pt.add_argument("--genus", type=int, default=0, help="doubled genus cutoff")
        pt.add_argument("--csv", action="store_true")

    if "verify" in names:
        pv = sub.add_parser("verify", help="run a verification suite")
        pv.add_argument("--suite", choices=SUITES, required=True)
        pv.add_argument("--d", type=int, default=None)
        pv.add_argument("--n", type=int, default=None)
        pv.add_argument("--deg", type=int, default=None)
        pv.add_argument("--hbar", type=int, default=None)
        pv.add_argument("--out", default=None)

    if "gue" in names:
        pg = sub.add_parser("gue", help="emit the Gaussian gluing fixture")
        pg.add_argument("--genus", type=int, required=True, help="doubled genus cutoff")
        pg.add_argument("--deg", type=int, required=True)
        pg.add_argument("--out", default=None)
        pg.add_argument("--csv", action="store_true")

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # -h, a typo or no argument at all gets the full parser
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    # looked up per call, so the kept parser holds no command function
    fn = {"hurwitz": cmd_hurwitz, "moebius": cmd_moebius, "transform": cmd_transform,
          "verify": cmd_verify, "gue": cmd_gue}[args.command]
    try:
        return fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except TruncationError as exc:
        print("truncation insufficiency: %s" % exc, file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
