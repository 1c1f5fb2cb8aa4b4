import json
from enum import IntEnum
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


# _exact_value reads "-?[0-9]+(/[0-9]+)?" with int() and every other string
# with Fraction(str); the values and errors must be those of Fraction alone
_FAST = ["3", "-3", "3/4", "-0", "007/010"]
# past int()'s 4300-digit limit: the same error on both paths
_LONG = ["1" * 4301, "-1/" + "2" * 4301]
_FALLBACK = [" 1/2 ", "+1", "1.5", "1e3", "1_0", "٣"]
_REJECTED = ["²", "1/0", "1/-2", "--1", "abc", "", "3 /4", 0.1, True, None, [1]]


def _fraction_alone(v):
    """_exact_value without its int() path: Fraction(v) behind the same
    type check and zero-denominator message."""
    if not (isinstance(v, (int, str)) and not isinstance(v, bool)):
        raise ValueError('value = %r is not an integer or a "p/q" string' % (v,))
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError("value = %r has a zero denominator" % (v,)) from None


def _outcome(fn, v):
    try:
        out = fn(v)
        return ("value", type(out), out)
    except ValueError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("v", _FAST + _LONG + _FALLBACK + _REJECTED + [0, -5, 10 ** 40],
                         ids=lambda v: repr(v)[:16])
def test_exact_value_agrees_with_fraction(v):
    assert _outcome(tables._exact_value, v) == _outcome(_fraction_alone, v)


def test_exact_value_paths():
    # the first list takes the int() path, the other strings do not; the
    # second list is accepted and the third rejected
    rejected = [v for v in _REJECTED if isinstance(v, str) and v != "1/0"]
    assert all(tables._INTEGER_RATIO(v) for v in _FAST + _LONG + ["1/0"])
    assert not any(tables._INTEGER_RATIO(v) for v in _FALLBACK + rejected)
    assert {_outcome(tables._exact_value, v)[0] for v in _FAST + _FALLBACK} == {"value"}
    assert {_outcome(tables._exact_value, v)[0] for v in _LONG + _REJECTED} == {"error"}


def test_from_json_errors_unchanged():
    # one error per entry, in the order the entry is checked
    def error(entries):
        with pytest.raises(ValueError) as info:
            tables.from_json({"entries": entries})
        return str(info.value)

    ok = {"g2": 0, "k": [2], "value": "1"}
    assert error([dict(ok, g2=-1, value="1/0")]) == "g2 = -1 is not a nonnegative integer"
    assert error([dict(ok, k=[0], value="1/0")]) == "k = [0] is not a nonempty list of positive integers"
    assert error([ok, dict(ok, value="1/0")]) == "two entries for g2 = 0, k = [2]"
    assert error([dict(ok, value="1/0")]) == "value = '1/0' has a zero denominator"
    assert error([dict(ok, value="--1")]) == "Invalid literal for Fraction: '--1'"
    with pytest.raises(KeyError):
        tables.from_json({"entries": [{"g2": 0, "k": [2]}]})
    for ks in ([True], [1.0], [], "21", (2,), [2, 0], [2, -1], [2, None], None):
        assert error([dict(ok, k=ks)]) == "k = %r is not a nonempty list of positive integers" % (ks,)
    for g2 in (True, 1.0, -1, None):
        assert error([dict(ok, g2=g2)]) == "g2 = %r is not a nonnegative integer" % (g2,)
    # an int subclass other than bool is an integer
    two = IntEnum("K", {"TWO": 2}).TWO
    assert tables.from_json({"entries": [dict(ok, g2=two, k=[1, two])]}) == {(2, (2, 1)): 1}


def test_from_json_keeps_zero_keys_and_sorts_once():
    # a zero entry is not stored, yet a second entry for its key is rejected
    zero = {"g2": 1, "k": [1, 3], "value": "-0"}
    assert tables.from_json({"entries": [zero, {"g2": 0, "k": [1, 2], "value": "007/010"}]}) == {
        (0, (2, 1)): Fraction(7, 10)}
    with pytest.raises(ValueError, match=r"two entries for g2 = 1, k = \[3, 1\]"):
        tables.from_json({"entries": [zero, dict(zero, k=[3, 1], value="2")]})


def test_normalize_keeps_fractions_and_converts_the_rest():
    v = Fraction(3, 4)
    out = tables.normalize({(0, (2,)): v, (1, (2, 1)): 2, (0, (1,)): Fraction(0), (2, (1,)): 0})
    assert out == {(0, (2,)): v, (1, (2, 1)): Fraction(2)}
    assert out[(0, (2,))] is v and type(out[(1, (2, 1))]) is Fraction
    with pytest.raises(ValueError, match="not weakly decreasing"):
        tables.normalize({(0, (1, 2)): v})
