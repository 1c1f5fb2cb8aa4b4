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

from . import hurwitz, pscore, symcore, tables, transforms
from .series import TruncationError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_TRUNCATION = 3

# largest d of the hurwitz subcommand: the table has p(d)^2 entries, and
# printing a weak one at d = 10, hbar^20 (2.4 MB of JSON) takes about a second
HURWITZ_D_BOUND = 10
# largest d of the moebius subcommand, which enumerates PS(d)
MOEBIUS_D_BOUND = 6
# largest --deg per (route, direction) of transform: the convolution routes
# enumerate S_d for their factorization counts
TRANSFORM_D_BOUND = {
    ("convolution", "c2m"): 6,
    ("convolution", "m2c"): 6,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _write_output(obj, path: str | None, csv: str | None = None):
    text = csv if csv is not None else json.dumps(obj, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _check_hbar(hbar: int | None):
    if hbar is not None and hbar < 0:
        raise CliError("--hbar must be nonnegative")


def _working_K(hbar: int | None, deg: int, g2: int) -> int:
    """--hbar, or the default truncation; exit 3 when --hbar is too low to
    hold every entry with |lam| <= deg and g2 <= genus."""
    if hbar is None:
        return transforms.default_K(deg, g2)
    need = transforms.required_K(deg, g2)
    if hbar < need:
        raise CliError(
            "--hbar %d drops entries: degree %d and genus2 %d need hbar^%d"
            % (hbar, deg, g2, need),
            EXIT_TRUNCATION,
        )
    return hbar


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
        mu = pscore.moebius(args.d)
        entries = [
            {
                "partition": pscore.setpartition_to_json(part),
                "perm": symcore.perm_to_json(perm),
                "value": str(v),
            }
            for (part, perm), v in sorted(mu.items())
            if v
        ]
        obj = {"d": args.d, "kind": "moebius", "entries": entries}
    else:
        mu = pscore.moebius_hbar(args.d, args.hbar)
        entries = [
            {
                "partition": pscore.setpartition_to_json(part),
                "perm": symcore.perm_to_json(perm),
                "value": {str(e): str(c) for e, c in sorted(v.c.items())},
            }
            for (part, perm), v in sorted(mu.items())
        ]
        obj = {"d": args.d, "kind": "moebius-hbar", "hbar": args.hbar, "entries": entries}
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
        K = None
    else:
        K = _working_K(args.hbar, deg, g2)
    forward = args.direction == "c2m"
    try:
        if args.route in ("hurwitz", "schur"):
            fn = transforms.master_forward if forward else transforms.master_inverse
            out = fn(table, deg, g2, K)
        elif args.route == "convolution":
            fn = transforms.convolution_forward if forward else transforms.moebius_inverse_route
            out = fn(table, deg, g2, K)
        elif args.route == "formula":
            sign = 1 if forward else -1
            out = {}
            nmax = max((len(ks) for (_, ks) in table), default=1)
            for n in range(1, nmax + 1):
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
    from .oracles import gue_moments_by_gluing

    if args.genus < 0 or args.deg < 0:
        raise CliError("--genus and --deg must be nonnegative")
    kmax = args.deg // 2
    moments = {
        k: v for k, v in gue_moments_by_gluing(kmax).items() if k[0] <= args.genus
    }
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


def suite_equivalence(d: int, K: int, count: int = 5, g2: int = EQUIVALENCE_G2) -> dict:
    cases = []
    for seed in range(count):
        t = tables.random_table(seed=100 + seed, nmax=d, degmax=d, g2max=g2)
        m_h = transforms.master_forward(t, d, g2, K)
        m_c = transforms.convolution_forward(t, d, g2, K)
        back_w = transforms.master_inverse(m_h, d, g2, K)
        back_m = transforms.moebius_inverse_route(m_h, d, g2, K)
        want = tables.restrict_table(t, deg=d, g2=g2)
        cases.append(_case("seed %d: (i)==(ii)" % seed, True, tables.table_equal(m_h, m_c, deg=d, g2=g2)))
        cases.append(_case("seed %d: (iii) inverts" % seed, True, tables.table_equal(back_w, want, deg=d, g2=g2)))
        cases.append(_case("seed %d: (iv) inverts" % seed, True, tables.table_equal(back_m, want, deg=d, g2=g2)))
    return _report("equivalence", cases)


def suite_genus0_trees(n: int, deg: int, count: int = 3) -> dict:
    from .oracles import genus0_moment_by_convolution

    cases = []
    for seed in range(count):
        t = tables.random_table(seed=200 + seed, nmax=n, degmax=deg)
        got = transforms.genus0_moments(t, n, deg)
        for ks in _monomials(n, deg):
            want = genus0_moment_by_convolution(t, ks)
            cases.append(
                _case("seed %d F_0;%s" % (seed, list(ks)), want, got.get((0, ks), Fraction(0)))
            )
    return _report("genus0-trees", cases)


def _monomials(n: int, deg: int):
    from .tables import _index_tuples

    return [ks for ks in _index_tuples(n, deg) if len(ks) == n]


def suite_all_genus(deg: int = 4) -> dict:
    from .oracles import hbar_moment_table

    cases = []
    targets = [(0, 2), (2, 1), (1, 1), (1, 2), (2, 2), (0, 3)]
    for g2, n in targets:
        g2max = g2 if g2 % 2 == 0 else g2 + 1
        t = tables.random_table(seed=300 + g2 + n, nmax=n, degmax=deg, g2max=g2max)
        if g2 % 2 == 0:
            t = {k: v for k, v in t.items() if k[0] % 2 == 0}
        got = transforms.allgenus_moments(t, n, g2, deg)
        orc = hbar_moment_table(t, deg, g2, nmax=n)
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
    from .oracles import hbar_moment_table

    cases = []
    t = tables.random_table(seed=400, nmax=2, degmax=deg, g2max=1)
    for n in (1, 2):
        got = transforms.half_genus_moments_special_trees(t, n, deg)
        orc = hbar_moment_table(t, deg, 1, nmax=n)
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
    from .oracles import gue_moments_by_gluing

    cases = []
    mt = transforms.master_forward(tables.gue_table(), 8, 4)
    want = gue_moments_by_gluing(4)
    for (g2, ks), v in sorted(want.items()):
        cases.append(_case("F_{%d/2;%d}" % (g2, ks[0]), v, mt.get((g2, ks), Fraction(0))))
    catalan = [1, 2, 5, 14, 42]
    m0 = transforms.genus0_moments(tables.gue_table(), 1, 10)
    for i, k in enumerate(range(1, 6)):
        cases.append(_case("Catalan(%d)" % k, Fraction(catalan[i]), m0.get((0, (2 * k,)), Fraction(0))))
    return _report("gue", cases)


def suite_dual_roundtrip(deg: int = 6, count: int = 3) -> dict:
    cases = []
    for seed in range(count):
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


SUITES = [
    "orthogonality",
    "equivalence",
    "genus0-trees",
    "all-genus",
    "infinitesimal",
    "gue",
    "dual-roundtrip",
]


def _given(flag: str, value: int | None, default: int, least: int = 0) -> int:
    """An explicit value, 0 included, or the default; exit 2 below least."""
    if value is None:
        return default
    if value < least:
        raise CliError("verify --%s must be at least %d, not %d" % (flag, least, value))
    return value


def cmd_verify(args) -> int:
    _check_hbar(args.hbar)
    if args.suite == "orthogonality":
        report = hurwitz.verify_orthogonality(_given("d", args.d, 4), _given("hbar", args.hbar, 8))
    elif args.suite == "equivalence":
        d = _given("d", args.d, 4)
        bound = TRANSFORM_D_BOUND[("convolution", "c2m")]
        if d > bound:
            raise CliError("--suite equivalence runs the convolution routes, to d = %d, not %d" % (bound, d))
        report = suite_equivalence(d, _working_K(args.hbar, d, EQUIVALENCE_G2))
    elif args.suite == "genus0-trees":
        report = suite_genus0_trees(_given("n", args.n, 3, least=1), _given("deg", args.deg, 6))
    elif args.suite == "all-genus":
        report = suite_all_genus(_given("deg", args.deg, 4))
    elif args.suite == "infinitesimal":
        report = suite_infinitesimal(_given("deg", args.deg, 4))
    elif args.suite == "gue":
        report = suite_gue()
    elif args.suite == "dual-roundtrip":
        report = suite_dual_roundtrip(_given("deg", args.deg, 6))
    else:  # pragma: no cover
        raise CliError("unknown suite %r" % args.suite)
    if not report["cases"]:
        raise CliError("--suite %s has no case to check at these arguments" % args.suite)
    _write_output(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="freehop",
        description="exact partitioned-permutation convolutions, monotone "
        "Hurwitz numbers, and higher-order moment/cumulant transforms",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("hurwitz", help="emit a monotone Hurwitz table")
    ph.add_argument("--d", type=int, required=True)
    ph.add_argument("--kind", choices=hurwitz.KINDS, required=True)
    ph.add_argument("--hbar", type=int, default=None)
    ph.add_argument("--out", default=None)
    ph.set_defaults(fn=cmd_hurwitz)

    pm = sub.add_parser("moebius", help="emit the Moebius function on PS(d)")
    pm.add_argument("--d", type=int, required=True)
    pm.add_argument("--hbar", type=int, default=None)
    pm.add_argument("--out", default=None)
    pm.set_defaults(fn=cmd_moebius)

    pt = sub.add_parser("transform", help="run a moment/cumulant transform")
    pt.add_argument("direction", choices=["m2c", "c2m"])
    pt.add_argument("--route", choices=["hurwitz", "convolution", "schur", "formula"],
                    required=True)
    pt.add_argument("--in", dest="infile", required=True)
    pt.add_argument("--out", default=None)
    pt.add_argument("--deg", type=int, default=None)
    pt.add_argument("--hbar", type=int, default=None)
    pt.add_argument("--genus", type=int, default=0, help="doubled genus cutoff")
    pt.add_argument("--csv", action="store_true")
    pt.set_defaults(fn=cmd_transform)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=SUITES, required=True)
    pv.add_argument("--d", type=int, default=None)
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--deg", type=int, default=None)
    pv.add_argument("--hbar", type=int, default=None)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_verify)

    pg = sub.add_parser("gue", help="emit the Gaussian gluing fixture")
    pg.add_argument("--genus", type=int, required=True, help="doubled genus cutoff")
    pg.add_argument("--deg", type=int, required=True)
    pg.add_argument("--out", default=None)
    pg.add_argument("--csv", action="store_true")
    pg.set_defaults(fn=cmd_gue)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except TruncationError as exc:
        print("truncation insufficiency: %s" % exc, file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
