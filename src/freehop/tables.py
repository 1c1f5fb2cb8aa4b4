"""Coefficient tables: the F_{g; k_1..k_n} grading of a topological
partition function, keyed by (doubled genus, sorted index tuple).

The table never stores the conventional constants (the 1 of the one-point
genus-0 series, or the hbar^(-1) of the full one-point function).
Rationals serialize as exact "p/q" strings.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from .symcore import sort_to_partition

CoefficientTable = dict[tuple[int, tuple[int, ...]], Fraction]


def table_get(T: CoefficientTable, g2: int, ks) -> Fraction:
    return T.get((g2, sort_to_partition(ks)), Fraction(0))


def checked_items(T: CoefficientTable):
    """The items of T, raising ValueError at a key whose k is not in
    sort_to_partition order: the routes look entries up by that order, so
    such an entry would be missed, or read besides its sorted twin."""
    for key, v in T.items():
        if key[1] != sort_to_partition(key[1]):
            raise ValueError("table key %r: k is not weakly decreasing" % (key,))
        yield key, v


def normalize(T: CoefficientTable) -> CoefficientTable:
    """T with its zero entries dropped and every value a Fraction; a value
    that is one already is kept as it is."""
    out: CoefficientTable = {}
    for key, v in checked_items(T):
        if key[0] < 0:
            raise ValueError("negative genus")
        if type(v) is not Fraction:
            v = Fraction(v)
        if v:
            out[key] = v
    return out


def restrict_table(T: CoefficientTable, n=None, deg=None, g2=None) -> CoefficientTable:
    out = {}
    for (tg2, ks), v in T.items():
        if n is not None and len(ks) > n:
            continue
        if deg is not None and sum(ks) > deg:
            continue
        if g2 is not None and tg2 > g2:
            continue
        out[(tg2, ks)] = v
    return out


def table_equal(A: CoefficientTable, B: CoefficientTable, n=None, deg=None, g2=None) -> bool:
    a = restrict_table(normalize(A), n, deg, g2)
    b = restrict_table(normalize(B), n, deg, g2)
    return a == b


def random_table(seed: int, nmax: int, degmax: int, g2max: int = 0) -> CoefficientTable:
    """Deterministic pseudo-random table with all admissible entries filled;
    coefficients are small rationals."""
    rng = random.Random(seed)
    out: CoefficientTable = {}
    for g2 in range(g2max + 1):
        for ks in _index_tuples(nmax, degmax):
            num = rng.randint(-3, 3)
            den = rng.choice((1, 2, 3))
            if num:
                out[(g2, ks)] = Fraction(num, den)
    return out


def _index_tuples(nmax: int, degmax: int):
    def rec(n, maxpart, total):
        if n == 0:
            yield ()
            return
        for p in range(min(maxpart, total - (n - 1)), 0, -1):
            for rest in rec(n - 1, p, total - p):
                yield (p,) + rest

    for n in range(1, nmax + 1):
        yield from rec(n, degmax, degmax)


def gue_table() -> CoefficientTable:
    """The Gaussian fixture: the only nonzero free cumulant is the
    genus-0 pair cumulant."""
    return {(0, (2,)): Fraction(1)}


# ---------------------------------------------------------------------------
# JSON schema: {"entries": [{"g2": 0, "k": [2], "value": "1"}]}


def to_json(T: CoefficientTable, meta: dict | None = None) -> dict:
    entries = [
        {"g2": g2, "k": list(ks), "value": str(v)}
        for (g2, ks), v in sorted(T.items())
    ]
    obj = {"entries": entries}
    if meta:
        obj.update(meta)
    return obj


def from_json(obj) -> CoefficientTable:
    """Read a table, rejecting every entry that names no coefficient or
    names one twice.

    >>> from_json({"entries": [{"g2": 0, "k": [1, 2], "value": "1/2"}]})
    {(0, (2, 1)): Fraction(1, 2)}
    >>> from_json({"entries": [{"g2": 0, "k": [2], "value": "1"},
    ...                        {"g2": 0, "k": [2], "value": "3"}]})
    Traceback (most recent call last):
    ...
    ValueError: two entries for g2 = 0, k = [2]
    """
    out: CoefficientTable = {}
    seen = set()  # keys of zero entries too, which out does not store
    for e in obj["entries"]:
        g2, ks = e["g2"], e["k"]
        if not _is_int(g2) or g2 < 0:
            raise ValueError("g2 = %r is not a nonnegative integer" % (g2,))
        if not _positive_ints(ks):
            raise ValueError("k = %r is not a nonempty list of positive integers" % (ks,))
        key = (g2, sort_to_partition(ks))
        if key in seen:
            raise ValueError("two entries for g2 = %d, k = %r" % (g2, list(key[1])))
        seen.add(key)
        v = _exact_value(e["value"])
        if v:
            out[key] = v
    return out


# the strings written by to_json, read without Fraction's general parser
_INTEGER_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def _exact_value(v) -> Fraction:
    """An entry's value: an integer or a string such as "p/q"; a JSON
    float or boolean is not an exact rational and is rejected.  Strings
    of the form -?[0-9]+(/[0-9]+)? are read with int(), every other one
    by Fraction(str), with the same values and the same errors.

    >>> _exact_value("-6/4")
    Fraction(-3, 2)
    >>> _exact_value(0.1)
    Traceback (most recent call last):
    ...
    ValueError: value = 0.1 is not an integer or a "p/q" string
    """
    if isinstance(v, str):
        m = _INTEGER_RATIO(v)
        if m is not None:
            num, den = m.groups()
            if den is None:
                return Fraction(int(num))
            den = int(den)
            if den:
                return Fraction(int(num), den)
    elif not _is_int(v):
        raise ValueError('value = %r is not an integer or a "p/q" string' % (v,))
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError("value = %r has a zero denominator" % (v,)) from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _positive_ints(ks) -> bool:
    """ks is a nonempty list of positive integers, booleans excluded."""
    if not isinstance(ks, list) or not ks:
        return False
    for k in ks:
        # type(k) is int first: JSON's integers, without a call
        if not (type(k) is int or _is_int(k)) or k <= 0:
            return False
    return True


def to_csv(T: CoefficientTable) -> str:
    lines = ["g2,k,value"]
    for (g2, ks), v in sorted(T.items()):
        lines.append("%d,%s,%s" % (g2, " ".join(map(str, ks)), v))
    return "\n".join(lines) + "\n"
