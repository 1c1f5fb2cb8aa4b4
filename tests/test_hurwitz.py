import json
from fractions import Fraction
from functools import lru_cache

import pytest

import hurwitz_reference
from freehop.hbar import _decode
from freehop.hurwitz import hurwitz_table, table_to_json, verify_orthogonality
from freehop.symcore import partitions, z_factor
from hbar_reference import HbarSeries, from_numerators
from hurwitz_reference import (
    free_single_count,
    hurwitz_series,
    jucys_murphy_oracle,
    strict_monotone_count,
    weakly_monotone_count,
)


def test_r_zero_is_delta_over_z():
    for d in (2, 3):
        for lam in partitions(d):
            for nu in partitions(d):
                want = Fraction(1) / z_factor(lam) if lam == nu else 0
                assert strict_monotone_count(lam, nu, 0) == want
                assert weakly_monotone_count(lam, nu, 0) == want


def test_small_counts():
    assert strict_monotone_count((2,), (1, 1), 1) == Fraction(1, 2)
    assert weakly_monotone_count((2,), (1, 1), 1) == Fraction(1, 2)
    assert weakly_monotone_count((1, 1), (1, 1), 2) == Fraction(1, 2)
    # anchors derived by hand from the transposition analysis in S(3), S(4)
    assert strict_monotone_count((3,), (2, 1), 1) == 1
    assert strict_monotone_count((3,), (1, 1, 1), 2) == Fraction(1, 3)
    assert strict_monotone_count((4,), (2, 2), 1) == Fraction(1, 2)
    assert strict_monotone_count((4,), (2, 2), 3) == Fraction(1, 4)


def test_strict_vanishes_at_r_geq_d():
    for lam in partitions(3):
        for nu in partitions(3):
            for r in (3, 4):
                assert strict_monotone_count(lam, nu, r) == 0


def test_weak_no_vanishing():
    assert weakly_monotone_count((2,), (2,), 2) != 0


def test_symmetry_in_lambda_nu():
    for d in (2, 3, 4):
        for lam in partitions(d):
            for nu in partitions(d):
                for r in range(5):
                    assert strict_monotone_count(lam, nu, r) == strict_monotone_count(nu, lam, r)
                    assert weakly_monotone_count(lam, nu, r) == weakly_monotone_count(nu, lam, r)


def test_strict_leq_weak():
    for d in (2, 3, 4):
        for lam in partitions(d):
            for nu in partitions(d):
                for r in range(5):
                    assert strict_monotone_count(lam, nu, r) <= weakly_monotone_count(lam, nu, r)


def test_harnad_orlov():
    for d in (1, 2, 3, 4):
        for lam in partitions(d):
            for nu in partitions(d):
                for r in range(4):
                    assert free_single_count(lam, nu, r) == strict_monotone_count(lam, nu, r)
    # the tables: central characters of the class sums against e_r(contents)
    for d in range(9):
        strict, free = hurwitz_table(d, "strict", d), hurwitz_table(d, "free-single", d)
        assert strict == free


_COUNTS = {
    "strict": strict_monotone_count,
    "weak": weakly_monotone_count,
    "free-single": free_single_count,
}


@pytest.mark.parametrize("d, kind, K", (
    [(d, "strict", d) for d in range(6)]
    + [(d, "weak", 7) for d in range(5)]
    + [(5, "weak", 4)]
    + [(d, "free-single", d) for d in range(5)]
))
def test_table_matches_enumeration(d, kind, K, monkeypatch):
    """The character-table kernel against the enumeration oracles, entry by
    entry, truncation order included."""
    # one search per (lambda, r) serves every nu
    monkeypatch.setattr(hurwitz_reference, "_monotone_counts",
                        lru_cache(maxsize=None)(hurwitz_reference._monotone_counts))
    sign = -1 if kind == "weak" else 1
    got = hurwitz_table(d, kind, K)
    assert set(got) == {(lam, nu) for lam in partitions(d) for nu in partitions(d)}
    for (lam, nu), (row, den) in got.items():
        assert len(row) == K + 1 and den == z_factor(lam) * z_factor(nu)
        want = HbarSeries({r: sign ** r * _COUNTS[kind](lam, nu, r) for r in range(K + 1)}, K)
        series = from_numerators(row, den, K)
        assert (series.c, series.K) == (want.c, want.K)


def test_jucys_murphy_matches_enumeration():
    for d in (2, 3, 4):
        for lam in partitions(d):
            for nu in partitions(d):
                for r in range(4):
                    assert jucys_murphy_oracle(lam, nu, "strict", r) == strict_monotone_count(lam, nu, r)
                    assert jucys_murphy_oracle(lam, nu, "weak", r) == weakly_monotone_count(lam, nu, r)
    for lam in partitions(3):
        for nu in partitions(3):
            assert jucys_murphy_oracle(lam, nu, "weak", 4) == weakly_monotone_count(lam, nu, 4)


def test_jucys_murphy_free_single():
    for lam in partitions(3):
        for nu in partitions(3):
            for r in range(3):
                assert jucys_murphy_oracle(lam, nu, "free-single", r) == free_single_count(lam, nu, r)


def test_elementary_vanishes_beyond_degree():
    # e_r in d-1 variables vanishes for r > d-1
    assert jucys_murphy_oracle((3,), (3,), "strict", 3) == 0
    assert jucys_murphy_oracle((2, 1), (2, 1), "strict", 4) == 0


def test_oracle_bound():
    with pytest.raises(ValueError):
        jucys_murphy_oracle((7,), (7,), "strict", 1)


def test_series_forms():
    # {r: nonzero coefficient}, r <= K
    assert hurwitz_series((1,), (1,), "strict", 5) == {0: 1}
    s2 = hurwitz_series((2,), (1, 1), "strict", 5)
    assert s2[1] == Fraction(1, 2) and 0 not in s2
    w = hurwitz_series((2,), (2,), "weak", 3)
    assert w[0] == Fraction(1, 2) and max(w) <= 3
    assert 1 not in w  # parity: odd r cannot return to the same class
    # the sign convention: coefficient of hbar^r is (-1)^r H_r
    assert w[2] == weakly_monotone_count((2,), (2,), 2)


def test_weak_series_sign():
    w = hurwitz_series((2, 1), (3,), "weak", 4)
    for r in range(5):
        assert w.get(r, 0) == (-1) ** r * weakly_monotone_count((2, 1), (3,), r)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_orthogonality_small(d):
    rep = verify_orthogonality(d, 6)
    assert rep["pass"]
    assert all(c["pass"] for c in rep["cases"])


def test_table_json_roundtrip():
    t = hurwitz_table(3, "strict", 4)
    obj = json.loads(json.dumps(table_to_json(3, "strict", t, 4)))
    assert (obj["d"], obj["kind"], obj["hbar"]) == (3, "strict", 4)
    seen = set()
    for e in obj["entries"]:
        # entries carry exact rational strings
        assert isinstance(e["value"], str)
        key = (tuple(e["lambda"]), tuple(e["nu"]))
        assert Fraction(e["value"]) == _decode(*t[key])[e["r"]] != 0
        seen.add((key, e["r"]))
    assert seen == {(key, r) for key, series in t.items() for r in _decode(*series)}
