"""HbarSeries against a test-local reference: {exponent: Fraction} dicts
with the truncation rules written out term by term."""

import random
from fractions import Fraction

import pytest

from hbar_reference import HbarSeries, divide, from_numerators, inverse, numerators


# ---------------------------------------------------------------------------
# reference: (dict of nonzero terms, K)


def ref(c, K):
    return {e: Fraction(v) for e, v in c.items() if v and e <= K}, K


def ref_floor(a):
    return min(a[0]) if a[0] else 0


def ref_add(a, b):
    K = min(a[1], b[1])
    out = {}
    for c in (a[0], b[0]):
        for e, v in c.items():
            out[e] = out.get(e, 0) + v
    return ref(out, K)


def ref_neg(a):
    return {e: -v for e, v in a[0].items()}, a[1]


def ref_scale(a, s):
    return ref({e: v * s for e, v in a[0].items()}, a[1])


def ref_mul(a, b):
    K = min(a[1] + ref_floor(b), b[1] + ref_floor(a))
    out = {}
    for ea, va in a[0].items():
        for eb, vb in b[0].items():
            out[ea + eb] = out.get(ea + eb, 0) + va * vb
    return ref(out, K)


def ref_inverse(a):
    """Solve a * x = 1 order by order after factoring out hbar^f a_f."""
    f = ref_floor(a)
    lead = a[0][f]
    N = a[1] - f
    x = [Fraction(1)]
    for n in range(1, N + 1):
        x.append(-sum(a[0].get(f + k, 0) / lead * x[n - k] for k in range(1, n + 1)))
    return ref({n - f: v / lead for n, v in enumerate(x)}, N - f)


def ref_eq(a, b):
    K = min(a[1], b[1])
    return ref(a[0], K)[0] == ref(b[0], K)[0]


def build(a):
    return HbarSeries(dict(a[0]), a[1])


def check(s, a):
    assert (dict(s.c), s.K) == a
    assert s.is_zero() == (not a[0])
    for e in range(ref_floor(a) - 2, s.K + 1):
        assert s.coeff(e) == a[0].get(e, 0)
    with pytest.raises(ValueError):
        s.coeff(s.K + 1)


def random_ref(rng):
    K = rng.randint(-3, 9)
    c = {}
    for _ in range(rng.randint(0, 6)):
        c[rng.randint(-4, 10)] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 9]))
    return ref(c, K)


@pytest.mark.parametrize("seed", range(4))
def test_against_fraction_reference(seed):
    rng = random.Random(seed)
    for _ in range(50):
        a, b = random_ref(rng), random_ref(rng)
        s, t = build(a), build(b)
        check(s, a)
        check(s + t, ref_add(a, b))
        check(s - t, ref_add(a, ref_neg(b)))
        check(-s, ref_neg(a))
        check(s * t, ref_mul(a, b))
        for v in (0, 3, -2, Fraction(5, 6), Fraction(-4, 9)):
            check(s * v, ref_scale(a, Fraction(v)))
            check(v * s, ref_scale(a, Fraction(v)))
            check(s + v, ref_add(a, ref({0: v}, a[1])))
            check(v - s, ref_add(ref_neg(a), ref({0: v}, a[1])))
            if v:
                check(divide(s, v), ref_scale(a, 1 / Fraction(v)))
        k = rng.randint(-4, 10)
        check(s.truncate(k), ref(a[0], min(a[1], k)))
        assert (s == t) == ref_eq(a, b)
        assert s == s.truncate(k)
        if a[0]:
            check(inverse(s), ref_inverse(a))
            check(divide(t, s), ref_mul(b, ref_inverse(a)))
        else:
            with pytest.raises(ZeroDivisionError):
                inverse(s)


def test_inverse_with_negative_floor():
    s = HbarSeries({-2: Fraction(-3, 2), -1: 1, 1: Fraction(2, 7)}, 6)
    inv = inverse(s)
    assert min(inv.c) == 2 and inv.K == 10
    assert s * inv == HbarSeries.one(4)
    check(inv, ref_inverse(ref(s.c, s.K)))


def test_equality_at_the_smaller_truncation():
    short = HbarSeries({0: 1}, 3)
    long = HbarSeries({0: 1, 5: 2}, 5)
    assert short == long and long == short
    assert short != HbarSeries({0: 1, 2: 2}, 5)
    # a common factor that only the kept part loses
    assert HbarSeries({0: Fraction(1, 2), 2: Fraction(1, 3)}, 2) == HbarSeries({0: Fraction(1, 2)}, 1)


def test_not_hashable():
    # __eq__ compares at the smaller K, so no hash of the terms agrees with it
    with pytest.raises(TypeError):
        hash(HbarSeries({0: 1}, 3))


def test_coefficient_view_is_read_only():
    s = HbarSeries({-1: 2, 1: Fraction(1, 3)}, 4)
    assert s.c == {-1: 2, 1: Fraction(1, 3)}
    with pytest.raises(TypeError):
        s.c[0] = 1
    with pytest.raises(AttributeError):
        s.c = {}
    assert s.c == {-1: 2, 1: Fraction(1, 3)}


def test_constructors():
    assert HbarSeries.zero(2).c == {} and HbarSeries.zero(2).K == 2
    assert HbarSeries.one(2).c == {0: 1}
    assert HbarSeries.const(Fraction(3, 4), 1).c == {0: Fraction(3, 4)}
    assert HbarSeries.monomial(5, -1, 1).c == {-1: 5}
    assert HbarSeries.monomial(5, 3, 1).is_zero()
    assert HbarSeries({0: 0, 1: Fraction(0), 2: 1.5}, 4).c == {2: Fraction(3, 2)}


def test_integer_numerators_round_trip():
    # common factors and terms past K are dropped on the way in
    s = from_numerators([0, 4, -6, 0, 2], 8, 3)
    assert s.c == {1: Fraction(1, 2), 2: Fraction(-3, 4)} and s.K == 3
    assert numerators(s, 3) == ([0, 2, -3, 0], 4)
    assert numerators(s, 1) == ([0, 2], 4)
    assert from_numerators(*numerators(s, 3), 3) == s
    assert numerators(HbarSeries.zero(2), 2) == ([0, 0, 0], 1)
    with pytest.raises(ValueError):
        numerators(s, 4)  # hbar^4 is not known
    with pytest.raises(ValueError):
        numerators(HbarSeries({-1: 1}, 3), 3)  # no row holds hbar^-1
