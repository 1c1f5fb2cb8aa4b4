"""The all-genus graph relation of operators.Evaluator as chains of Series
objects: the u-layer weight and the B_r built by Series exp, products and
substitutions, each vertex operator as products and slices of whole
series, each graph's edge product as Series products under the hbar and w
budgets, the n = 1 correction, and w_i = w(X_i) as a Series substitution.
These are the references the integer-row chain of operators is tested
against.  Every function takes the Evaluator first and memoises on it
under keys of its own."""

from fractions import Fraction
from math import factorial

from freehop.operators import shape_of
from freehop.series import INF, Series, series_sum
from freehop.tables import table_get


# -- one-point layers -----------------------------------------------------------


def hu_sigma_each(ev, s, i):
    """Multiply each monomial by hbar u_i sigma(hbar u_i k) with k its
    w_i-exponent: the sum over e2 of sig_e2 (hbar u_i)^(e2+1)
    (w_i d/dw_i)^e2 s, with the hbar window of s capped at K."""
    wv, uv = ev.wvars[i], ev.uvars[i]
    h_lo = s.lo[s.idx("h")] if "h" in s.vars else 0
    h_hi = min(s.hi[s.idx("h")] if "h" in s.vars else INF, ev.K)
    parts = []
    wdw = s
    for e2, c in sorted(ev.sig.items()):
        if e2:
            wdw = wdw.wdw(wv).wdw(wv)
        hu = Series(("h", uv), (e2 + 1, e2 + 1), (INF, INF), {(e2 + 1, e2 + 1): c},
                    layout=ev.layout)
        parts.append(wdw * hu)
    return series_sum(parts).restrict("h", h_lo + 1, h_hi)


def series_exp(ev, S):
    """exp of a series with positive hbar valuation; the powers past
    hbar^(K + 4) fall outside the window of the sum."""
    assert S.lo[S.idx("h")] >= 1 or S.is_zero() or S.min_exp("h") >= 1
    parts = [Series.const(S.vars, 1, S.cap, ev.layout), S]
    term = S
    j = 1
    while True:
        j += 1
        term = term * S * Fraction(1, j)
        if term.is_zero() or j > ev.K + 4:
            break
        parts.append(term)
    return series_sum(parts)


def one_point_tail(ev):
    """G_1 - hbar^(-1) as a series over (h, w_0)."""

    def build():
        data = {}
        for k in range(1, ev.D + 1):
            v = ev.C_coeffs().get(k)
            if v:
                data[(-1, k)] = v
            for g2 in range(1, ev.K + 2):
                vv = table_get(ev.table, g2, (k,))
                if vv and g2 - 1 <= ev.K:
                    data[(g2 - 1, k)] = vv
        return Series(("h", ev.wvars[0]), (-1, 1), (ev.K, INF), data, ev.cap, ev.layout)

    return ev._memo(("ref-g1tail",), build)


def a_series(ev, i):
    """The u-layer weight at the i-th white vertex,

    exp( hbar u sigma(hbar u w d/dw)(G_1 - hbar^(-1)) - u (C - 1) )
    / ( hbar u sigma(hbar u) )."""

    def build():
        wv, uv = ev.wvars[0], ev.uvars[0]
        d1 = hu_sigma_each(ev, one_point_tail(ev), 0)
        cminus1 = ev.C(0) - Series.const((wv,), 1, ev.cap, ev.layout)
        u = Series.variable((uv,), uv, layout=ev.layout)
        expE = series_exp(ev, d1 - u * cminus1)
        inv_data = {(e2 - 1, e2 - 1): c for e2, c in ev.sig_inv.items() if e2 - 1 <= ev.K}
        inv = Series(("h", uv), (-1, -1), (ev.K, INF), inv_data, layout=ev.layout)
        return expE * inv

    return ev._relabelled(("ref-A",), (i,), build)


def b_exponent_raw(ev):
    """E_B over (h, v, t) with t = 1/y."""
    data = {}
    for j in range(2, ev.K + 1, 2):
        for a2 in range(0, j + 1, 2):
            b2 = j - a2
            if a2 in ev.sig and b2 in ev.sig_inv:
                coeff = -ev.sign * ev.sig[a2] * ev.sig_inv[b2] * factorial(j - 1)
                e = (j, 1 + a2, j)
                data[e] = data.get(e, Fraction(0)) + coeff
    return Series(("h", "v", "t"), (2, 1, 2), (ev.K, INF, INF), data, layout=ev.layout)


def apply_dy_plus_v_over_y(ev, s):
    """One application of (d_y + sign * v / y) in the t = 1/y picture:
    t^a -> (sign*v - a) t^(a+1); s carries no cap."""
    it = s.idx("t")
    vt = Series(("v", "t"), (1, 1), (INF, INF), {(1, 1): ev.sign}, layout=ev.layout)
    t = Series(("t",), (1,), (INF,), {(1,): -1}, layout=ev.layout)
    return (s * vt + s.wdw("t") * t).restrict("t", s.lo[it] + 1, s.hi[it])


def b_raw(ev, r):
    """(d_y + sign v/y)^r exp(E_B), in the (h, v, t) picture."""

    def build():
        if r == 0:
            return series_exp(ev, b_exponent_raw(ev))
        return apply_dy_plus_v_over_y(ev, b_raw(ev, r - 1))

    return ev._memo(("ref-Braw", r), build)


def at_y(ev, s):
    """s, a series in t = 1/y, at y = C(w_0)."""
    return s.substitute("t", ev.invC(0), powers=ev._cache.setdefault(("ref-invCpow",), {}))


def b_series(ev, i, r, hmax=None):
    """B_r at the i-th vertex, known to hbar^hmax (to hbar^K when None)."""
    hmax = ev.K if hmax is None else min(hmax, ev.K)

    def build():
        b = b_raw(ev, r)
        if hmax < ev.K:
            b = b.restrict("h", -INF, hmax)
        return at_y(ev, b)

    return ev._relabelled(("ref-B", r, hmax), (i,), build)


def pb_series(ev, i, r, hmax=None):
    """P(w_i) B_r at the i-th vertex, known to hbar^hmax as in b_series."""
    hmax = ev.K if hmax is None else min(hmax, ev.K)
    return ev._relabelled(("ref-PB", r, hmax), (i,), lambda: ev.P(0) * b_series(ev, 0, r, hmax))


def pwd_sum(ev, parts, i):
    """sum_m (P(w_i) w_i d/dw_i)^m parts[m] over m >= 0, by Horner's rule."""
    P = ev.P(i)
    acc = parts[max(parts)]
    for m in range(max(parts) - 1, -1, -1):
        acc = P * acc.wdw(ev.wvars[i])
        if m in parts:
            acc = acc + parts[m]
    return acc


def delta_series(ev, g2):
    """Delta_g(X) in the w-picture: [hbar^(2g)] sum_m (P w d/dw)^m
    ( [v^(m+1)] exp(E_B)|_{y=C} * P w d/dw C )."""
    core = at_y(ev, b_raw(ev, 0)) * (ev.P(0) * ev.C(0).wdw(ev.wvars[0]))
    vparts = core.coeff_dict("v") if "v" in core.vars else {0: core}
    parts = {mp1 - 1: part for mp1, part in vparts.items() if mp1 >= 1}
    if not parts:
        return Series.zero((ev.wvars[0],), cap=ev.cap, layout=ev.layout)
    return pwd_sum(ev, parts, 0).coeff("h", g2)


# -- the vertex chain -------------------------------------------------------------


def reduce_vertex(ev, S, i, hmax=None):
    """Apply the full operator weight at vertex i to the series S (which
    may depend on h, u_i, w_* and other u's), with P B_r known to
    hbar^hmax (to hbar^K when None)."""
    uv = ev.uvars[i]
    S = S * a_series(ev, i)
    parts = S.coeff_dict(uv) if uv in S.vars else {0: S}
    # only r >= 0 enters; the hbar^(-1) u^(-1) unit is accounted for by
    # the n = 1 delta correction
    terms = [pb_series(ev, i, r, hmax) * part for r, part in parts.items() if r >= 0]
    if not terms:
        return Series.zero(("h",), hi=(ev.K,), layout=ev.layout)
    T = series_sum(terms)
    vparts = T.coeff_dict("v") if "v" in T.vars else {0: T}
    return pwd_sum(ev, vparts, i)


def graph_term(ev, g):
    """One graph's term through the whole vertex chain, to hbar^K: no
    budget, so every hbar order of the working window is kept."""
    S = Series(("h",), (0,), (ev.K,), {(0,): 1}, layout=ev.layout)
    for I in g.edges:
        S = S * ev.edge_weight(I)
    S = ev.prune_w(S)
    for i in range(ev.n):
        S = ev.prune_w(reduce_vertex(ev, S, i))
    return S * Fraction(1, g.aut_order())


def tight_edge(ev, I):
    """edge_weight(I) with every declared lo raised to its lowest exponent."""
    shape, slots = shape_of(I)

    def build():
        e = ev.edge_weight(shape)
        return e.restrict_vars({v: (e.min_exp(v), INF) for v in e.vars})

    return ev._relabelled(("ref-tight", shape), slots, build)


def graph_sum(ev, graph_list, T):
    """The budgeted graph sum on Series objects: along each graph's edge
    product the hbar orders above T - sum_j v_j - (the remaining edges'
    lowest hbar exponents) and the w_i exponents above D - (the remaining
    edges' negative w_i reach) are dropped after each factor, and before
    vertex i the hbar orders above T - sum_{j >= i} v_j, with v_j the
    declared hbar lo of a_series plus that of P B_r.  At vertex i, P B_r
    is read to the hbar width of S plus its own lo."""
    a, b = a_series(ev, 0), b_raw(ev, 0)
    floor = a.lo[a.idx("h")] + b.lo[b.idx("h")]
    after = [(ev.n - i) * floor for i in range(ev.n + 1)]
    one = Series(("h",), (0,), (ev.K,), {(0,): 1}, layout=ev.layout)
    products = []
    for g in graph_list:
        edges = [tight_edge(ev, I) for I in g.edges]
        cuts = []
        cut = dict.fromkeys(ev.wvars, ev.D)
        cut["h"] = T - after[0]
        for e in reversed(edges):
            cuts.append(dict(cut))
            lows = dict(zip(e.vars, e.lo))
            cut["h"] -= lows["h"]
            for wv in ev.wvars:
                cut[wv] -= min(0, lows.get(wv, 0))
        S = one
        for e, cut in zip(edges, reversed(cuts)):
            S = S * e
            S = S.restrict_vars({v: (-INF, cut[v]) for v in S.vars if v in cut})
        products.append(ev.prune_w(S) * Fraction(1, g.aut_order()))
    S = series_sum(products)
    for i in range(ev.n):
        S = S.restrict("h", -INF, T - after[i])
        h = S.idx("h")
        hmax = S.hi[h] - S.lo[h] + b.lo[b.idx("h")]
        S = ev.prune_w(reduce_vertex(ev, S, i, hmax))
    return S


# -- re-expansion ------------------------------------------------------------------


def reexpand(ev, S):
    """Substitute w_i = w(X_i) for every variable by Series substitution,
    re-applying the total-degree cap and prune_w after each variable."""
    depth = (ev.n + 1) * ev.D + 2
    wc = ev.w_of_x_coeffs(depth)
    S = ev.prune_w(S)
    for wv in ev.wvars:
        if wv not in S.vars:
            continue
        g = Series((wv,), (1,), (depth,), {(e,): v for e, v in wc.items()}, layout=ev.layout)
        cache = ev._cache.setdefault(("ref-gpow", wv), {})
        S = ev.prune_w(S.substitute(wv, g, powers=cache).with_cap(ev.cap))
    return S
