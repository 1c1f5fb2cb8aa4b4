import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freehop.series import TruncationError, inverse_coeffs, lagrange_coeffs, sigma_coefficients
from series_reference import INF, SectorError, Series, kernel_series, layout, poly1, univariate_coeffs


def F(a, b=1):
    return Fraction(a, b)


def test_add_mul_basic():
    s = poly1("w", {0: F(1), 1: F(1)})
    t = poly1("w", {0: F(1), 1: F(-1)})
    assert sorted((s * t).data.items()) == [((0,), F(1)), ((2,), F(-1))]
    assert (s + t).data == {(0,): F(2)}
    assert (s - s).is_zero()


def test_mul_alignment():
    a = poly1("x", {1: F(2)})
    b = poly1("y", {1: F(3)})
    p = a * b
    assert p.vars == ("x", "y")
    assert p.data == {(1, 1): F(6)}


def test_truncation_tracking():
    a = poly1("w", {0: F(1), 1: F(1)}, hi=3)
    b = poly1("w", {1: F(1)}, hi=10)
    p = a * b
    # unknown w^4 tail of a times the w^1 valuation of b bounds at w^4
    assert p.hi[0] == 4
    with pytest.raises(TruncationError):
        p.coeff("w", 5)


def test_wdw_and_shift():
    s = poly1("w", {2: F(5), 0: F(3)})
    assert s.wdw("w").data == {(2,): F(10)}
    assert s.shift("w", -1).data == {(1,): F(5), (-1,): F(3)}


def test_coeff_extraction():
    s = poly1("w", {0: F(1), 3: F(7)})
    t = s * poly1("u", {1: F(1)})
    c = t.coeff("u", 1)
    assert c.vars == ("w",)
    assert c.data == {(0,): F(1), (3,): F(7)}


def test_cap_filters_totals():
    cap = (frozenset({"x", "y"}), 2)
    a = Series(("x", "y"), (0, 0), (INF, INF), {(1, 0): F(1), (2, 1): F(1)}, cap)
    assert (2, 1) not in a.data
    b = a * a
    assert all(sum(e) <= 2 for e in b.data)


def test_inverse_unit():
    c = poly1("w", {0: F(1), 2: F(1)}, hi=10)
    ci = c.inverse()
    want = {0: F(1), 2: F(-1), 4: F(1), 6: F(-1), 8: F(1), 10: F(-1)}
    assert univariate_coeffs(ci, "w") == want
    assert (c * ci).data == {(0,): F(1)}


def test_sigma_coefficients():
    sig = sigma_coefficients(8)
    assert sig[0] == 1
    assert sig[2] == F(1, 24)
    assert sig[4] == F(1, 1920)
    assert all(e % 2 == 0 for e in sig)
    # evenness through order 12
    assert set(sigma_coefficients(12)) == {0, 2, 4, 6, 8, 10, 12}


def test_kernel_series():
    k = kernel_series("w1", "w2", ("w1", "w2"), 4)
    assert k.data[(1, -1)] == 1
    assert k.data[(3, -3)] == 3
    with pytest.raises(SectorError):
        kernel_series("w2", "w1", ("w1", "w2"), 4)


def test_kernel_polynomial_identity():
    # (w1 - w2)^2 * sum k w1^k w2^(-k) == w1 w2 within the window
    depth = 12
    k = kernel_series("w1", "w2", ("w1", "w2"), depth)
    sq = poly1("w1", {1: F(1)}) - poly1("w2", {1: F(1)})
    prod = sq * sq * k
    # terms beyond the truncation depth wrap around; check the stable window
    good = {e: v for e, v in prod.data.items() if abs(e[0]) < depth - 1 and abs(e[1]) < depth - 1}
    assert good == {(1, 1): F(1)}


def _lagrange_w(x_coeffs, D):
    """w(X) to X^D, the inverse of X(w) = w(1 + O(w)) given as {exponent:
    coefficient}: w = X phi(w) with phi = w/X(w), by lagrange_coeffs."""
    phi = inverse_coeffs({e - 1: c for e, c in x_coeffs.items() if e <= D}, D - 1)
    return poly1("w", lagrange_coeffs(phi, D), hi=D)


def test_lagrange_catalan():
    c = poly1("w", {0: F(1), 2: F(1)}, hi=14)
    x = (poly1("w", {1: F(1)}, hi=14) * c.inverse()).restrict("w", 0, 13)
    w = _lagrange_w(univariate_coeffs(x, "w"), 13)
    cs = univariate_coeffs(w, "w")
    assert [cs.get(k, 0) for k in (1, 3, 5, 7, 9)] == [1, 1, 2, 5, 14]
    # back-substitution
    back = x.substitute("w", w)
    assert back.data == {(1,): F(1)}


def test_lagrange_identity_series():
    w = _lagrange_w({1: F(1)}, 6)
    assert univariate_coeffs(w, "w") == {1: F(1)}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=0, max_size=5))
def test_lagrange_roundtrip_property(coeffs):
    D = 12
    data = {1: F(1)}
    for i, c in enumerate(coeffs, start=2):
        if c:
            data[i] = Fraction(c)
    x = poly1("w", data, hi=D)
    w = _lagrange_w(data, D)
    back = x.substitute("w", w)
    assert back.data == {(1,): F(1)}
    assert back.hi[0] >= D


def test_substitute_unit_series():
    # t -> 1/(1+w): polynomial in t composed with a unit series
    s = poly1("t", {0: F(1), 2: F(3)})
    u = poly1("w", {0: F(1), 1: F(1)}, hi=6).inverse()
    r = s.substitute("t", u)
    # 1 + 3/(1+w)^2 = 4 - 6w + 9w^2 - ...
    cs = univariate_coeffs(r, "w")
    assert cs[0] == 4 and cs[1] == -6 and cs[2] == 9


def test_substitute_truncation_clamp():
    # substituting a valuation-1 series into a truncated series clamps the
    # output claim at the input truncation
    s = poly1("w", {1: F(1)}, hi=3)
    g = poly1("w", {1: F(1), 2: F(1)}, hi=10)
    r = s.substitute("w", g)
    assert r.hi[0] == 3
    with pytest.raises(TruncationError):
        r.coeff("w", 7)


def test_pow():
    s = poly1("w", {0: F(1), 1: F(1)}, hi=10)
    assert univariate_coeffs(s ** 3, "w")[2] == 3
    assert (s ** 0).data == {(0,): F(1)}


def test_mul_budget_pruning_consistency():
    rng = random.Random(7)
    cap = (frozenset({"x", "y"}), 5)
    for _ in range(20):
        a = Series(
            ("x", "y"), (0, 0), (INF, INF),
            {(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)},
            cap,
        )
        b = Series(
            ("x", "y"), (0, 0), (INF, INF),
            {(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)},
            cap,
        )
        prod = a * b
        # reference: plain dict convolution with the cap filter
        want = {}
        for ea, va in a.data.items():
            for eb, vb in b.data.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                if sum(e) <= 5:
                    want[e] = want.get(e, F(0)) + va * vb
        want = {e: v for e, v in want.items() if v}
        assert prod.data == want


@pytest.mark.parametrize("same_vars", [False, True])
def test_merged_cap_applies_to_both_operands(same_vars):
    # x^3 carries no cap; (1 + 2y) carries the cap x + y <= 2, which the
    # product (either order) applies to x^3 as well, so nothing survives
    cap = (frozenset({"x", "y"}), 2)
    if same_vars:
        x3 = Series(("x", "y"), (0, 0), (INF, INF), {(3, 0): F(1)})
        p = Series(("x", "y"), (0, 0), (INF, INF), {(0, 0): F(1), (0, 1): F(2)}, cap)
    else:
        x3 = poly1("x", {3: F(1)})
        p = poly1("y", {0: F(1), 1: F(2)}, cap=cap)
    for prod in (x3 * p, p * x3):
        assert prod.data == {} and prod.cap == cap
    assert (x3 + p).data == {(0, 0): F(1), (0, 1): F(2)}


def _random_series(rng, vars, cap, finite):
    lo = tuple(rng.randint(-3, 1) for _ in vars)
    hi = tuple(l + rng.randint(1, 4) if v in finite else INF for v, l in zip(vars, lo))
    data = {}
    for _ in range(rng.randint(0, 7)):
        e = tuple(rng.randint(l, min(h, l + 5)) for l, h in zip(lo, hi))
        data[e] = F(rng.randint(-4, 4), rng.randint(1, 3))
    # half of the series start on 2-bit fields, so that the constructor,
    # products and sums have to widen them
    narrow = layout(("z", "y", "x"), (2, 2, 2)) if rng.random() < 0.5 else None
    return Series(vars, lo, hi, data, cap, narrow)


def _lifted(s, vars):
    """lo, hi and data of s over a superset of its variables (the others
    exact at exponent 0)."""
    pos = [vars.index(v) for v in s.vars]
    lo, hi = [0] * len(vars), [INF] * len(vars)
    for j, p in enumerate(pos):
        lo[p], hi[p] = s.lo[j], s.hi[j]
    data = {}
    for e, v in s.data.items():
        ee = [0] * len(vars)
        for j, p in enumerate(pos):
            ee[p] = e[j]
        data[tuple(ee)] = v
    return lo, hi, data


def _inside(e, lo, hi, vars, cap):
    if any(x < l or x > h for x, l, h in zip(e, lo, hi)):
        return False
    return cap is None or sum(x for x, v in zip(e, vars) if v in cap[0]) <= cap[1]


@pytest.mark.parametrize("seed", range(4))
def test_packed_windows_against_tuple_reference(seed):
    # Laurent terms (lo < 0), finite hi on two or more variables, operands
    # over different variable tuples, with and without a cap: products,
    # sums, restrict and coeff against plain tuple-dict arithmetic
    rng = random.Random(100 + seed)
    cap = (frozenset({"x", "y"}), 3)
    for _ in range(60):
        tuples = [("x", "y", "z"), ("x", "y"), ("z", "x"), ("y",)]
        va, vb = rng.choice(tuples), rng.choice(tuples)
        finite = set(rng.sample(["x", "y", "z"], rng.randint(0, 3)))
        capped = rng.random() < 0.5
        a = _random_series(rng, va, cap if capped and rng.random() < 0.7 else None, finite)
        b = _random_series(rng, vb, cap if capped and rng.random() < 0.7 else None, finite)
        vars = list(va) + [v for v in vb if v not in va]
        c = a.cap or b.cap
        alo, ahi, ad = _lifted(a, vars)
        blo, bhi, bd = _lifted(b, vars)
        ad = {e: v for e, v in ad.items() if _inside(e, alo, ahi, vars, c)}
        bd = {e: v for e, v in bd.items() if _inside(e, blo, bhi, vars, c)}

        lo = [x + y for x, y in zip(alo, blo)]
        hi = [min(ha + lb, hb + la, INF) for la, ha, lb, hb in zip(alo, ahi, blo, bhi)]
        want = {}
        for ea, x in ad.items():
            for eb, y in bd.items():
                e = tuple(p + q for p, q in zip(ea, eb))
                if _inside(e, lo, hi, vars, c):
                    want[e] = want.get(e, 0) + x * y
        prod = a * b
        assert prod.vars == tuple(vars) and prod.cap == c
        assert prod.lo == tuple(lo) and prod.hi == tuple(hi)
        assert prod.data == {e: v for e, v in want.items() if v}

        lo = [min(x, y) for x, y in zip(alo, blo)]
        hi = [min(x, y) for x, y in zip(ahi, bhi)]
        want = {}
        for d in (ad, bd):
            for e, v in d.items():
                if _inside(e, lo, hi, vars, c):
                    want[e] = want.get(e, 0) + v
        total = a + b
        assert total.lo == tuple(lo) and total.hi == tuple(hi)
        assert total.data == {e: v for e, v in want.items() if v}

        i = rng.randrange(len(vars))
        var, l = vars[i], rng.randint(-3, 2)
        h = l + rng.randint(-1, 3)
        r = prod.restrict(var, l, h)
        assert r.lo[i] == max(prod.lo[i], l) and r.hi[i] == min(prod.hi[i], h)
        assert r.data == {e: v for e, v in prod.data.items() if l <= e[i] <= h}

        k = rng.randint(-2, 4)
        if k > prod.hi[i]:
            with pytest.raises(TruncationError):
                prod.coeff(var, k)
            continue
        co = prod.coeff(var, k)
        assert co.vars == tuple(v for v in vars if v != var)
        assert co.lo == tuple(x for j, x in enumerate(prod.lo) if j != i)
        assert co.data == {
            e[:i] + e[i + 1:]: v for e, v in prod.data.items() if e[i] == k
        }


@pytest.mark.parametrize("seed", range(3))
def test_renamed_round_trip_and_commutes(seed):
    # renaming moves the bit fields of the packed keys: renaming back gives
    # the original, the windows and the cap stay, and it commutes with
    # products and sums; onto a name the layout lacks, a swap, and an
    # uncapped variable
    from series_reference import series_sum

    rng = random.Random(300 + seed)
    cap = (frozenset({"x", "y", "w"}), 4)
    renamings = [{"x": "w"}, {"x": "y", "y": "x"}, {"z": "v"}]
    for _ in range(40):
        tuples = [("x", "y", "z"), ("x", "y"), ("z", "x"), ("y",)]
        capped = cap if rng.random() < 0.5 else None
        a = _random_series(rng, rng.choice(tuples), capped, {"x", "z"})
        b = _random_series(rng, rng.choice(tuples), capped, {"y"})
        names = rng.choice(renamings)
        back = {w: v for v, w in names.items()}
        r = a.renamed(names)
        assert r.vars == tuple(names.get(v, v) for v in a.vars)
        assert (r.lo, r.hi, r.cap, r.data) == (a.lo, a.hi, a.cap, a.data)
        again = r.renamed(back)
        assert (again.vars, again.lo, again.hi, again.cap, again.data) == (
            a.vars, a.lo, a.hi, a.cap, a.data)
        for whole, parts in ((a * b, a.renamed(names) * b.renamed(names)),
                             (series_sum([a, b]), series_sum([a.renamed(names), b.renamed(names)]))):
            moved = whole.renamed(names)
            assert (moved.vars, moved.lo, moved.hi, moved.cap, moved.data) == (
                parts.vars, parts.lo, parts.hi, parts.cap, parts.data)


def test_renamed_widens_the_receiving_field():
    # x's field is widened by its data past the 2 bits of w's field, which
    # must widen in turn to receive it
    narrow = layout(("x", "y", "w"), (2, 2, 2))
    s = Series(("x", "y"), (-1, 0), (INF, 3), {(40, 1): F(2), (-1, 3): F(-1, 3)}, layout=narrow)
    r = s.renamed({"x": "w"})
    assert r.vars == ("w", "y") and (r.lo, r.hi, r.data) == (s.lo, s.hi, s.data)
    t = Series(("w",), (0,), (INF,), {(1,): F(1), (3,): F(5)}, layout=narrow)
    assert (r * t).renamed({"w": "x"}) == s * t.renamed({"w": "x"})
    assert r.renamed({"w": "x"}).data == s.data


def test_renamed_rejects_merges_and_cap_crossings():
    cap = (frozenset({"x", "y"}), 3)
    s = Series(("x", "y", "z"), (0, 0, 0), (INF,) * 3, {(1, 1, 1): F(1)}, cap)
    with pytest.raises(ValueError):
        s.renamed({"x": "y"})
    with pytest.raises(ValueError):
        s.renamed({"x": "v"})
    assert s.renamed({"q": "x"}) is s
