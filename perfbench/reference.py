"""Reference values computed apart from freehop, and the table helpers the
checks use.  Tables are dicts {(g2, k): Fraction} with k a non-increasing
tuple, the same shape freehop's JSON tables describe; nothing here imports
freehop."""

from __future__ import annotations

import json
import random
from fractions import Fraction


def catalan(k: int) -> int:
    """The k-th Catalan number."""
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def harer_zagier(g: int, k: int) -> int:
    """eps_g(k): gluings of a 2k-gon into a genus-g surface, by the
    Harer-Zagier recursion
    (k+1) eps_g(k) = 2(2k-1) eps_g(k-1) + (k-1)(2k-1)(2k-3) eps_{g-1}(k-2)."""
    table = {(0, 0): 1}

    def eps(gg: int, kk: int) -> int:
        if gg < 0 or kk < 0:
            return 0
        if (gg, kk) not in table:
            num = 2 * (2 * kk - 1) * eps(gg, kk - 1)
            num += (kk - 1) * (2 * kk - 1) * (2 * kk - 3) * eps(gg - 1, kk - 2)
            table[(gg, kk)] = num // (kk + 1)
        return table[(gg, kk)]

    return eps(g, k)


def gue_one_point(deg: int, g2max: int) -> dict:
    """One-point GUE moments F_{g; 2k} with 2k <= deg and 2g <= g2max."""
    return {
        (2 * g, (2 * k,)): Fraction(harer_zagier(g, k))
        for k in range(1, deg // 2 + 1)
        for g in range(0, g2max // 2 + 1)
        if harer_zagier(g, k)
    }


def _compositions_sum(values: dict[int, Fraction], parts: int, total: int) -> Fraction:
    """Sum over (i_1..i_parts) >= 0 with sum total of prod values[i_j]."""
    row = {0: Fraction(1)}
    for _ in range(parts):
        nxt: dict[int, Fraction] = {}
        for s, v in row.items():
            for i in range(0, total - s + 1):
                nxt[s + i] = nxt.get(s + i, Fraction(0)) + v * values[i]
        row = nxt
    return row.get(total, Fraction(0))


def free_moments(kappa: dict[int, Fraction], deg: int) -> dict[int, Fraction]:
    """Free moment-cumulant relation over non-crossing partitions, by the
    first-block recursion m_n = sum_s kappa_s sum_{i_1+..+i_s = n-s}
    m_{i_1}..m_{i_s} (m_0 = 1)."""
    m = {0: Fraction(1)}
    for n in range(1, deg + 1):
        m[n] = sum(
            (kappa.get(s, Fraction(0)) * _compositions_sum(m, s, n - s) for s in range(1, n + 1)),
            Fraction(0),
        )
    return m


def free_cumulants(moments: dict[int, Fraction], deg: int) -> dict[int, Fraction]:
    """Inverse of free_moments: solve the same recursion for kappa_n."""
    m = {0: Fraction(1), **moments}
    kappa: dict[int, Fraction] = {}
    for n in range(1, deg + 1):
        rest = sum(
            (kappa[s] * _compositions_sum(m, s, n - s) for s in range(1, n)),
            Fraction(0),
        )
        kappa[n] = m.get(n, Fraction(0)) - rest
    return kappa


def genus0_one_point(table: dict, deg: int, inverse: bool = False) -> dict:
    """Genus-0 one-point rows of the transform of ``table`` predicted by the
    free moment-cumulant relation (``inverse`` for moments to cumulants)."""
    given = {ks[0]: v for (g2, ks), v in table.items() if g2 == 0 and len(ks) == 1}
    rel = free_cumulants if inverse else free_moments
    vals = rel(given, deg)
    return {(0, (k,)): v for k, v in vals.items() if k >= 1 and v}


# ---------------------------------------------------------------------------
# tables


def index_tuples(nmax: int, deg: int):
    """Non-increasing tuples of at most nmax positive integers, sum <= deg."""
    out = []

    def rec(prefix, maxpart, rem):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == nmax:
            return
        for p in range(min(maxpart, rem), 0, -1):
            rec(prefix + [p], p, rem - p)

    rec([], deg, deg)
    return out


def random_table(rng: random.Random, nmax: int, deg: int, g2max: int) -> dict:
    """Every admissible entry filled with a small nonzero rational."""
    out = {}
    for g2 in range(g2max + 1):
        for ks in index_tuples(nmax, deg):
            out[(g2, ks)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    return out


def restrict(T: dict, n=None, deg=None, g2=None, exact_n=None, exact_g2=None) -> dict:
    """Nonzero entries inside the window (bounds inclusive)."""
    return {
        (tg2, ks): v
        for (tg2, ks), v in T.items()
        if v
        and (n is None or len(ks) <= n)
        and (deg is None or sum(ks) <= deg)
        and (g2 is None or tg2 <= g2)
        and (exact_n is None or len(ks) == exact_n)
        and (exact_g2 is None or tg2 == exact_g2)
    }


def to_json(T: dict) -> dict:
    return {
        "entries": [
            {"g2": g2, "k": list(ks), "value": str(v)} for (g2, ks), v in sorted(T.items())
        ]
    }


def from_json(obj) -> dict:
    out = {}
    for e in obj["entries"]:
        key = (int(e["g2"]), tuple(sorted((int(x) for x in e["k"]), reverse=True)))
        if key in out:
            raise ValueError("duplicate entry %r" % (key,))
        out[key] = Fraction(e["value"])
    return out


def write_table(path: str, T: dict) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(T), fh)


def read_table(path: str) -> dict:
    with open(path) as fh:
        return from_json(json.load(fh))


def describe_diff(want: dict, got: dict, limit: int = 3) -> str:
    keys = sorted(k for k in set(want) | set(got) if want.get(k, 0) != got.get(k, 0))
    shown = ", ".join(
        "%r: want %s got %s" % (k, want.get(k, 0), got.get(k, 0)) for k in keys[:limit]
    )
    return "%d entries differ (%s)" % (len(keys), shown)
