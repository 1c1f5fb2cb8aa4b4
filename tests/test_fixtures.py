"""Multi-point fixtures: the moment tables of the GUE and of the LUE
counted by loops over permutations of their own, and every route checked
against them.

GUE: the only cumulant is F_{0; 2} = 1, and F_{g2; lam} counts the
fixed-point-free involutions eps of {0, ..., d-1} with <pi_lam, eps>
transitive and 2 - g2 = V - d/2 + len(lam), V the number of cycles of
pi_lam eps: the gluings of the polygons of lam into a surface of genus
g2/2.

LUE: the table {F_{0; k} = c}, whose moments are F_{g2; lam} = the sum of
c^#cyc(sigma) over the sigma in S_d with <pi_lam, sigma> transitive and
g2 = d + 2 - len(lam) - #cyc(sigma) - #cyc(pi_lam sigma^-1)."""

import os
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest

import table_files
from freehop import cli, tables, transforms


def _partitions(d, top=None):
    """The partitions of d, parts in decreasing order."""
    if d == 0:
        yield ()
        return
    for p in range(min(d, top or d), 0, -1):
        for rest in _partitions(d - p, p):
            yield (p,) + rest


def _perm(lam):
    """pi_lam: the cycles (0 .. lam_1 - 1), (lam_1 .. lam_1 + lam_2 - 1), ...
    as the list of images."""
    out = []
    for part in lam:
        start = len(out)
        out += [start + (j + 1) % part for j in range(part)]
    return out


def _cycles(p):
    seen, count = set(), 0
    for x in range(len(p)):
        if x not in seen:
            count += 1
            while x not in seen:
                seen.add(x)
                x = p[x]
    return count


def _transitive(p, q):
    seen, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for y in (p[x], q[x]):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(p)


def _pairings(points):
    """The fixed-point-free involutions of points, as {point: partner}."""
    if not points:
        yield {}
        return
    a = points[0]
    for i in range(1, len(points)):
        for rest in _pairings(points[1:i] + points[i + 1:]):
            yield {**rest, a: points[i], points[i]: a}


def gue_moments(dmax):
    out = {}
    for d in range(2, dmax + 1, 2):
        for lam in _partitions(d):
            pi = _perm(lam)
            for pairing in _pairings(list(range(d))):
                eps = [pairing[x] for x in range(d)]
                if _transitive(pi, eps):
                    g2 = 2 - _cycles([pi[e] for e in eps]) + d // 2 - len(lam)
                    out[g2, lam] = out.get((g2, lam), 0) + 1
    return {key: Fraction(v) for key, v in out.items()}


@lru_cache(maxsize=None)
def _lue_counts():
    """{(g2, lam): {#cyc(sigma): number of sigma}} over the transitive
    sigma, |lam| <= 6."""
    out = {}
    for d in range(1, 7):
        for lam in _partitions(d):
            pi = _perm(lam)
            for sigma in permutations(range(d)):
                if _transitive(pi, sigma):
                    inv = [0] * d
                    for x, y in enumerate(sigma):
                        inv[y] = x
                    c = _cycles(sigma)
                    g2 = d + 2 - len(lam) - c - _cycles([pi[y] for y in inv])
                    by_c = out.setdefault((g2, lam), {})
                    by_c[c] = by_c.get(c, 0) + 1
    return out


def lue_moments(c, dmax=6):
    out = {key: sum(n * c ** j for j, n in by_c.items()) for key, by_c in _lue_counts().items()
           if sum(key[1]) <= dmax}
    return {key: v for key, v in out.items() if v}


def lue_table(c, dmax=6):
    return {(0, (k,)): c for k in range(1, dmax + 1)}


C_VALUES = pytest.mark.parametrize("c", [Fraction(2), Fraction(1, 3)], ids=["2", "1/3"])


def test_gue_fixture_counts():
    # the one-point genus-0 moments are the Catalan numbers, and the
    # pairings of 1 + 1 are one cylinder
    m = gue_moments(8)
    assert [m[0, (2 * k,)] for k in range(1, 5)] == [1, 2, 5, 14]
    assert m[0, (1, 1)] == 1 and m[4, (8,)] == 21


def test_gue_master_forward():
    want = gue_moments(8)
    assert len(want) == 49
    assert transforms.master_forward(tables.gue_table(), 8, 4) == want


@C_VALUES
def test_lue_forward_routes(c):
    want = lue_moments(c)
    assert len(want) == 52 and max(g2 for g2, _ in want) == 4
    assert transforms.master_forward(lue_table(c), 6, 4) == want
    assert transforms.convolution_forward(lue_table(c), 6, 4) == want


@C_VALUES
def test_lue_inverse_routes(c):
    assert transforms.master_inverse(lue_moments(c), 6, 4) == lue_table(c)
    assert transforms.moebius_inverse_route(lue_moments(c), 6, 4) == lue_table(c)


def _formula(tmp, direction, table, deg, genus):
    src, dst = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
    table_files.save(src, table)
    assert cli.main(["transform", direction, "--route", "formula", "--in", src, "--out", dst,
                     "--deg", str(deg), "--genus", str(genus)]) == 0
    return table_files.load(dst)


@pytest.mark.parametrize("deg,genus", [(6, 0), (4, 2)])
@pytest.mark.parametrize("fixture", ["gue", "lue"])
def test_formula_route_on_fixtures(tmp_path, fixture, deg, genus):
    if fixture == "gue":
        cum, mom = tables.gue_table(), gue_moments(deg)
    else:
        cum, mom = lue_table(Fraction(2), deg), lue_moments(Fraction(2), deg)
    cum = tables.restrict_table(cum, deg=deg, g2=genus)
    mom = tables.restrict_table(mom, deg=deg, g2=genus)
    assert _formula(str(tmp_path), "c2m", cum, deg, genus) == mom
    assert _formula(str(tmp_path), "m2c", mom, deg, genus) == cum
