import json
from fractions import Fraction

import pytest

import table_files
from freehop import tables


def test_table_get_symmetric():
    t = {(0, (3, 1)): Fraction(5)}
    assert tables.table_get(t, 0, (1, 3)) == 5
    assert tables.table_get(t, 0, (3, 1)) == 5
    assert tables.table_get(t, 2, (3, 1)) == 0


def test_json_roundtrip(tmp_path):
    t = {(0, (2,)): Fraction(1, 3), (2, (2, 1)): Fraction(-7, 2)}
    obj = tables.to_json(t, {"kind": "cumulants"})
    text = json.dumps(obj)
    back = tables.from_json(json.loads(text))
    assert back == t
    # rationals serialized as exact strings
    assert {e["value"] for e in obj["entries"]} == {"1/3", "-7/2"}
    path = tmp_path / "t.json"
    table_files.save(str(path), t)
    loaded = table_files.load(str(path))
    assert loaded == t


def test_random_table_deterministic():
    a = tables.random_table(seed=4, nmax=2, degmax=4, g2max=1)
    b = tables.random_table(seed=4, nmax=2, degmax=4, g2max=1)
    assert a == b
    c = tables.random_table(seed=5, nmax=2, degmax=4, g2max=1)
    assert a != c
    assert all(len(ks) <= 2 and sum(ks) <= 4 and g2 <= 1 for g2, ks in a)


def test_restrict_and_equal():
    t = {(0, (2,)): Fraction(1), (2, (1,)): Fraction(2), (0, (3, 2)): Fraction(3)}
    r = tables.restrict_table(t, n=1, deg=2, g2=0)
    assert r == {(0, (2,)): Fraction(1)}
    assert tables.table_equal(t, dict(t))
    assert not tables.table_equal(t, r)
    assert tables.table_equal(t, r, n=1, deg=2, g2=0)


def test_normalize_rejects_negative_genus():
    with pytest.raises(ValueError):
        tables.normalize({(-1, (2,)): Fraction(1)})


def test_csv():
    t = {(0, (2, 1)): Fraction(1, 2)}
    assert tables.to_csv(t) == "g2,k,value\n0,2 1,1/2\n"


def test_index_tuples():
    ts = list(tables._index_tuples(2, 3))
    assert (3,) in ts and (2, 1) in ts and (1, 1) in ts
    assert all(sum(k) <= 3 for k in ts)
