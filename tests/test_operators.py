from fractions import Fraction

import pytest

import graph_sum_reference
from freehop.operators import Evaluator, _distinct_permutations
from freehop.tables import gue_table, random_table
from graph_sum_reference import (P_series, cap, edge_weight, invC_series, layout, pwd, uvars, w_atom,
                                 wvars)
from series_reference import INF, Series, series_sum, univariate_coeffs


def F(a, b=1):
    return Fraction(a, b)


def _x_of_w(C, sign, depth):
    """X(w) = w/C(w) (sign +1) or w C(w) (sign -1) to w^depth, in plain
    Fraction loops."""
    if sign > 0:
        inv = {0: Fraction(1)}
        for m in range(1, depth):
            inv[m] = -sum(C.get(e, 0) * inv[m - e] for e in range(1, m + 1))
        factor = inv
    else:
        factor = C
    return {e + 1: c for e, c in factor.items() if e + 1 <= depth and c}


def test_substitution_gue():
    ev = Evaluator(gue_table(), 1, 8, K=2)
    x = _x_of_w(ev.C_coeffs(), ev.sign, ev.D)
    # X = w/(1+w^2) = w - w^3 + w^5 - ...
    assert x[1] == 1 and x[3] == -1 and x[5] == 1
    P = univariate_coeffs(P_series(ev, 0), "w0")
    # P = (1+w^2)/(1-w^2) = 1 + 2w^2 + 2w^4 + ...
    assert P[0] == 1 and P[2] == 2 and P[4] == 2


def test_substitution_trivial():
    ev = Evaluator({}, 1, 6, K=2)
    assert _x_of_w(ev.C_coeffs(), ev.sign, ev.D) == {1: F(1)}
    assert univariate_coeffs(P_series(ev, 0), "w0") == {0: F(1)}


def test_p_is_dlog_inverse():
    # d ln X / d ln w * P == 1 to degree 12
    t = random_table(seed=1, nmax=1, degmax=13)
    ev = Evaluator(t, 1, 13, K=2)
    x = w_atom(ev, 0, _x_of_w(ev.C_coeffs(), ev.sign, ev.D))
    dlogX = x.wdw("w0").shift("w0", -1) * x.shift("w0", -1).inverse()
    prod = dlogX * P_series(ev, 0)
    assert prod.data[(0,)] == 1
    assert all(v == 0 for e, v in prod.data.items() if 0 < e[0] <= 12)


def test_edge_weight_leading_order():
    # c(u_I, w_I) = hbar^{2#I-2} (prod u_i) Gt_{0,#I} + higher, for
    # off-diagonal I; spot the coefficient of the table part
    t = {(0, (1, 1)): F(5)}
    ev = Evaluator(t, 2, 4, K=4)
    c = edge_weight(ev, (0, 1))
    ih = c.idx("h")
    iu0, iu1 = c.idx("u0"), c.idx("u1")
    iw0, iw1 = c.idx("w0"), c.idx("w1")
    val = {
        (e[iw0], e[iw1]): v
        for e, v in c.data.items()
        if e[ih] == 2 and e[iu0] == 1 and e[iu1] == 1 and e[iw0] > 0 and e[iw1] > 0
    }
    assert val == {(1, 1): F(5)}
    # kernel part sits at the same leading hbar order
    ker = {
        (e[iw0], e[iw1]): v
        for e, v in c.data.items()
        if e[ih] == 2 and e[iu0] == 1 and e[iu1] == 1 and e[iw1] < 0
    }
    assert ker[(1, -1)] == 1 and ker[(3, -3)] == 3


def test_edge_weight_kernel_only():
    ev = Evaluator({}, 2, 3, K=3)
    c = edge_weight(ev, (0, 1))
    assert not c.is_zero()
    iw1 = c.idx("w1")
    assert all(e[iw1] < 0 for e in c.data)


def test_edge_weight_diagonal():
    # I = {j,j} with F_{0;1,1} = 1: lowest order hbar^2 u^2 w^2 with
    # per-slot sigma factors
    t = {(0, (1, 1)): F(1)}
    ev = Evaluator(t, 1, 4, K=4)
    c = edge_weight(ev, (0, 0))
    ih, iu, iw = c.idx("h"), c.idx("u0"), c.idx("w0")
    low = {e: v for e, v in c.data.items() if e[ih] == 2}
    assert low == {tuple(2 if i in (ih, iu, iw) else 0 for i in range(len(c.vars))): F(1)}


def test_vertex_operator_full_genus0_reduction():
    # the hbar^0-order of the full vertex weight applied to a u-monomial
    # reproduces the genus-0 operator piece O_r at r = degree - 1
    t = random_table(seed=9, nmax=1, degmax=4)
    ev = Evaluator(t, 1, 4, K=4)
    b = Series.const(("v", "t"), 1, layout=layout(ev))  # (d_y + v/y)^r . 1, t = 1/y
    for r in (0, 1, 2):
        probe = Series(("h", "u0"), (2, r + 1), (ev.K, INF), {(2, r + 1): F(1)})
        got = graph_sum_reference.reduce_vertex(ev, probe, 0).coeff("h", 1)
        if r:
            b = graph_sum_reference.apply_dy_plus_v_over_y(ev, b)
        want = None
        vparts = b.substitute("t", invC_series(ev, 0)).coeff_dict("v")
        for m, part in vparts.items():
            term = pwd(ev, P_series(ev, 0) * part, 0, m)
            want = term if want is None else want + term
        diff = got - want
        assert all(v == 0 for v in diff.data.values())


def _edge_weight_term_by_term(ev, I):
    """The hyperedge weight built term by term: for each table entry and
    kernel term, one Series for hbar^hexp, one for the w-monomial and one
    product per slot factor hbar u sigma(hbar u k)."""
    m = len(I)
    entries = []
    for (g2, ks), val in ev.table.items():
        if len(ks) == m and sum(ks) <= ev.D:
            for comp in _distinct_permutations(ks):
                entries.append((g2, comp, val))
    if m == 2 and I[0] != I[1]:
        for k in range(1, ev.kernel_depth + 1):
            entries.append((0, (k, -k), Fraction(k)))
    terms = []
    for g2, comp, val in entries:
        hexp = g2 - 2 + m
        if hexp > ev.K:
            continue
        term = Series(("h",), (hexp,), (ev.K,), {(hexp,): val})
        wexp = {}
        for slot, k in zip(I, comp):
            wexp[wvars(ev)[slot]] = wexp.get(wvars(ev)[slot], 0) + k
        ws = tuple(sorted(wexp))
        term = term * Series(ws, tuple(min(wexp[v], 0) for v in ws), (INF,) * len(ws),
                             {tuple(wexp[v] for v in ws): 1}, cap(ev))
        for slot, k in zip(I, comp):
            data = {(e2 + 1, e2 + 1): c * k ** e2 for e2, c in ev.sig.items() if e2 + 1 <= ev.K}
            term = term * Series(("h", uvars(ev)[slot]), (0, 0), (ev.K, INF), data)
        terms.append(term)
    if not terms:
        return Series.zero(("h",), hi=(ev.K,))
    return series_sum(terms)


def _windows(s):
    return dict(zip(s.vars, zip(s.lo, s.hi)))


@pytest.mark.parametrize("K", [2, 5])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("I", [(0, 1), (0, 0), (0, 1, 2), (0, 0, 1)])
def test_edge_weight_one_pass_equals_term_by_term(I, sign, K):
    t = random_table(seed=31, nmax=3, degmax=4, g2max=2)
    ev = Evaluator(t, 3, 4, K=K, sign=sign)
    got = edge_weight(ev, I)
    want = _edge_weight_term_by_term(ev, I)
    assert got == want
    # at K = 2 a three-slot weight starts past hbar^K: empty, windows kept
    assert got.is_zero() == (K == 2 and len(I) == 3)
    assert _windows(got) == _windows(want)


def _compose(x, w, depth):
    """x(w(X)) to X^depth, both given as {exponent: coefficient}."""
    out = {}
    power = {0: Fraction(1)}
    for j in range(1, depth + 1):
        nxt = {}
        for a, ca in power.items():
            for b, cb in w.items():
                if a + b <= depth:
                    nxt[a + b] = nxt.get(a + b, 0) + ca * cb
        power = nxt
        for e, c in power.items():
            out[e] = out.get(e, 0) + x.get(j, 0) * c
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("table", ["random", "gue"])
def test_w_of_x_inverts_the_change_of_variables(table, sign):
    t = random_table(seed=17, nmax=1, degmax=7) if table == "random" else gue_table()
    D, depth = 7, 15
    ev = Evaluator(t, 1, D, K=2, sign=sign)
    C = {0: Fraction(1)}
    for (g2, ks), v in t.items():
        if g2 == 0 and len(ks) == 1 and ks[0] <= D:
            C[ks[0]] = Fraction(v)
    w = ev.w_of_x_coeffs(depth)
    assert w[1] == 1 and all(1 <= e <= depth for e in w)
    assert _compose(_x_of_w(C, sign, depth), w, depth) == {1: Fraction(1)}
