"""The all-genus graph relation of operators.Evaluator as chains of Series
objects: the u-layer weight and the B_r built by Series exp, products and
substitutions, each vertex operator as products and slices of whole
series, each graph's edge product as Series products under the hbar and w
budgets, the n = 1 correction, and w_i = w(X_i) as a Series substitution.
These are the references the integer-row chain of operators is tested
against.  Every function takes the Evaluator first and memoises on it
under keys of its own.

The evaluator's Series face (the cap and layout of its series, C, 1/C, P,
P w d/dw, the hyperedge weights and prune_w) comes first, and the closed
(0,3) and (1,1) forms built from it last."""

from fractions import Fraction
from math import factorial

from freehop.operators import Evaluator, _distinct_permutations, shape_of
from freehop.series import inverse_coeffs
from freehop.tables import table_get
from freehop.transforms import _edge_terms
from series_reference import INF, Series, layout as packed_layout, series_sum


# -- the evaluator's Series face ------------------------------------------------


def wvars(ev):
    """The names of the w variables of ev's series, w0, ..., w(n-1)."""
    return tuple("w%d" % i for i in range(ev.n))


def uvars(ev):
    """The names of the u variables, u0, ..., u(n-1)."""
    return tuple("u%d" % i for i in range(ev.n))


def cap(ev):
    """The total-degree cap D over the w variables, on every series of ev."""
    return (frozenset(wvars(ev)), ev.D)


def layout(ev):
    """One packed-key layout for every series built for ev; the widths hold
    the offsets of the hbar/u/v/t exponents (a few times K) and of the w
    exponents (kernels reach down n * kernel_depth)."""

    def build():
        n = ev.n
        small = (4 * (ev.K + n + 2)).bit_length()
        wide = (4 * (ev.D + n * ev.kernel_depth)).bit_length()
        names = ("h",) + uvars(ev) + ("v", "t") + wvars(ev)
        return packed_layout(names, (small,) * (len(names) - n) + (wide,) * n)

    return ev._memo(("ref-layout",), build)


def relabelled(ev, key, slots, build) -> Series:
    """build(), a series over the vertices 0, 1, ..., memoised under
    key, renamed to the increasing vertices slots (w_j -> w_slots[j],
    u_j -> u_slots[j]) and memoised under key + (slots,).  An
    increasing map keeps the sector order of every kernel."""
    base = ev._memo(key, build)
    if all(j == s for j, s in enumerate(slots)):
        return base
    names = {}
    for j, s in enumerate(slots):
        names[wvars(ev)[j]] = wvars(ev)[s]
        names[uvars(ev)[j]] = uvars(ev)[s]
    return ev._memo(key + (tuple(slots),), lambda: base.renamed(names))


def w_atom(ev, i: int, coeffs: dict[int, Fraction]) -> Series:
    v = wvars(ev)[i]
    lo = min((e for e, c in coeffs.items() if c), default=0)
    return Series((v,), (lo,), (INF,), {(e,): c for e, c in coeffs.items()}, cap(ev),
                  layout(ev))


def C_series(ev, i: int) -> Series:
    return relabelled(ev, ("C",), (i,), lambda: w_atom(ev, 0, ev.C_coeffs()))


def invC_series(ev, i: int) -> Series:
    return relabelled(ev, ("invC",), (i,),
                      lambda: w_atom(ev, 0, inverse_coeffs(ev.C_coeffs(), ev.D)))


def P_series(ev, i: int) -> Series:
    """P (ev.P_coeffs), built once, at vertex 0, and renamed to the others."""
    return relabelled(ev, ("P",), (i,), lambda: w_atom(ev, 0, ev.P_coeffs()))


def pwd(ev, s: Series, i: int, m: int = 1) -> Series:
    """(P(w_i) w_i d/dw_i)^m applied to s."""
    P = P_series(ev, i)
    for _ in range(m):
        s = P * s.wdw(wvars(ev)[i])
    return s


def edge_weight(ev, I: tuple[int, ...]) -> Series:
    """c(u_I, w_I) for the hyperedge (multiset) I, ev._edge_data as a
    Series over wvars and uvars, built once per shape of I (shape_of) and
    renamed to I.  Its windows, read off the table entries and kernel
    terms _edge_data sums, are those of the term-by-term product: hbar
    from the lowest g2 - 2 + #I to K plus that lowest order when it is
    negative, each w from its most negative exponent, u from 0."""
    shape, slots = shape_of(I)

    def build():
        nums, den = ev._edge_data(shape)
        m, width = len(shape), max(shape) + 1
        entries = [(g2 - 2 + m, comp) for (g2, ks) in ev.table
                   if len(ks) == m and sum(ks) <= ev.D and g2 - 2 + m <= ev.K
                   for comp in _distinct_permutations(ks)]
        if m == 2 and shape[0] != shape[1]:
            entries += [(0, (k, -k)) for k in range(1, ev.kernel_depth + 1)]
        # the positions of _edge_data: hbar, the w and then the u of each slot
        vars = ("h",) + wvars(ev)[:width] + uvars(ev)[:width] if entries else ("h",)
        lo = [min((h for h, _ in entries), default=0)] + [0] * (len(vars) - 1)
        for _, comp in entries:
            base = [0] * len(vars)
            for s, k in zip(shape, comp):
                base[vars.index(wvars(ev)[s])] += k
            lo[1:] = map(min, lo[1:], base[1:])
        hi = (ev.K + min(0, lo[0]),) + tuple(INF + x for x in lo[1:])
        return Series(vars, tuple(lo), hi, {e: Fraction(v, den) for e, v in nums.items()}, cap(ev),
                      layout(ev))

    return relabelled(ev, ("edge", shape), slots, build)


def prune_w(ev, S: Series) -> Series:
    """Drop monomials with any w-exponent above D (once every factor
    with negative w-exponents, i.e. every kernel, has been multiplied
    in, later factors only raise w-exponents, so such monomials can
    never re-enter the extractable range), and below the kernel
    budget."""
    window = (-ev.kernel_depth, ev.D)
    return S.restrict_vars({wv: window for wv in wvars(ev) if wv in S.vars})


def terms(ev, S: Series) -> dict[tuple, Fraction]:
    """The terms of S, a series in the w variables, as {exponent tuple
    over wvars(ev): Fraction}: the rows of operators in Fraction form."""
    nums, den = S.numerators(wvars(ev))
    return {e: Fraction(v, den) for e, v in nums.items()}


# -- one-point layers -----------------------------------------------------------


def hu_sigma_each(ev, s, i):
    """Multiply each monomial by hbar u_i sigma(hbar u_i k) with k its
    w_i-exponent: the sum over e2 of sig_e2 (hbar u_i)^(e2+1)
    (w_i d/dw_i)^e2 s, with the hbar window of s capped at K."""
    wv, uv = wvars(ev)[i], uvars(ev)[i]
    h_lo = s.lo[s.idx("h")] if "h" in s.vars else 0
    h_hi = min(s.hi[s.idx("h")] if "h" in s.vars else INF, ev.K)
    parts = []
    wdw = s
    for e2, c in sorted(ev.sig.items()):
        if e2:
            wdw = wdw.wdw(wv).wdw(wv)
        hu = Series(("h", uv), (e2 + 1, e2 + 1), (INF, INF), {(e2 + 1, e2 + 1): c},
                    layout=layout(ev))
        parts.append(wdw * hu)
    return series_sum(parts).restrict("h", h_lo + 1, h_hi)


def series_exp(ev, S):
    """exp of a series with positive hbar valuation; the powers past
    hbar^(K + 4) fall outside the window of the sum."""
    assert S.lo[S.idx("h")] >= 1 or S.is_zero() or S.min_exp("h") >= 1
    parts = [Series.const(S.vars, 1, S.cap, layout(ev)), S]
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
        return Series(("h", wvars(ev)[0]), (-1, 1), (ev.K, INF), data, cap(ev), layout(ev))

    return ev._memo(("ref-g1tail",), build)


def a_series(ev, i):
    """The u-layer weight at the i-th white vertex,

    exp( hbar u sigma(hbar u w d/dw)(G_1 - hbar^(-1)) - u (C - 1) )
    / ( hbar u sigma(hbar u) )."""

    def build():
        wv, uv = wvars(ev)[0], uvars(ev)[0]
        d1 = hu_sigma_each(ev, one_point_tail(ev), 0)
        cminus1 = C_series(ev, 0) - Series.const((wv,), 1, cap(ev), layout(ev))
        u = Series.variable((uv,), uv, layout=layout(ev))
        expE = series_exp(ev, d1 - u * cminus1)
        inv_data = {(e2 - 1, e2 - 1): c for e2, c in ev.sig_inv.items() if e2 - 1 <= ev.K}
        inv = Series(("h", uv), (-1, -1), (ev.K, INF), inv_data, layout=layout(ev))
        return expE * inv

    return relabelled(ev, ("ref-A",), (i,), build)


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
    return Series(("h", "v", "t"), (2, 1, 2), (ev.K, INF, INF), data, layout=layout(ev))


def apply_dy_plus_v_over_y(ev, s):
    """One application of (d_y + sign * v / y) in the t = 1/y picture:
    t^a -> (sign*v - a) t^(a+1); s carries no cap."""
    it = s.idx("t")
    vt = Series(("v", "t"), (1, 1), (INF, INF), {(1, 1): ev.sign}, layout=layout(ev))
    t = Series(("t",), (1,), (INF,), {(1,): -1}, layout=layout(ev))
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
    return s.substitute("t", invC_series(ev, 0), powers=ev._cache.setdefault(("ref-invCpow",), {}))


def b_series(ev, i, r, hmax=None):
    """B_r at the i-th vertex, known to hbar^hmax (to hbar^K when None)."""
    hmax = ev.K if hmax is None else min(hmax, ev.K)

    def build():
        b = b_raw(ev, r)
        if hmax < ev.K:
            b = b.restrict("h", -INF, hmax)
        return at_y(ev, b)

    return relabelled(ev, ("ref-B", r, hmax), (i,), build)


def pb_series(ev, i, r, hmax=None):
    """P(w_i) B_r at the i-th vertex, known to hbar^hmax as in b_series."""
    hmax = ev.K if hmax is None else min(hmax, ev.K)
    return relabelled(ev, ("ref-PB", r, hmax), (i,), lambda: P_series(ev, 0) * b_series(ev, 0, r, hmax))


def pwd_sum(ev, parts, i):
    """sum_m (P(w_i) w_i d/dw_i)^m parts[m] over m >= 0, by Horner's rule."""
    P = P_series(ev, i)
    acc = parts[max(parts)]
    for m in range(max(parts) - 1, -1, -1):
        acc = P * acc.wdw(wvars(ev)[i])
        if m in parts:
            acc = acc + parts[m]
    return acc


def delta_series(ev, g2):
    """Delta_g(X) in the w-picture: [hbar^(2g)] sum_m (P w d/dw)^m
    ( [v^(m+1)] exp(E_B)|_{y=C} * P w d/dw C )."""
    core = at_y(ev, b_raw(ev, 0)) * (P_series(ev, 0) * C_series(ev, 0).wdw(wvars(ev)[0]))
    vparts = core.coeff_dict("v") if "v" in core.vars else {0: core}
    parts = {mp1 - 1: part for mp1, part in vparts.items() if mp1 >= 1}
    if not parts:
        return Series.zero((wvars(ev)[0],), cap=cap(ev), layout=layout(ev))
    return pwd_sum(ev, parts, 0).coeff("h", g2)


# -- the vertex chain -------------------------------------------------------------


def reduce_vertex(ev, S, i, hmax=None):
    """Apply the full operator weight at vertex i to the series S (which
    may depend on h, u_i, w_* and other u's), with P B_r known to
    hbar^hmax (to hbar^K when None)."""
    uv = uvars(ev)[i]
    S = S * a_series(ev, i)
    parts = S.coeff_dict(uv) if uv in S.vars else {0: S}
    # only r >= 0 enters; the hbar^(-1) u^(-1) unit is accounted for by
    # the n = 1 delta correction
    terms = [pb_series(ev, i, r, hmax) * part for r, part in parts.items() if r >= 0]
    if not terms:
        return Series.zero(("h",), hi=(ev.K,), layout=layout(ev))
    T = series_sum(terms)
    vparts = T.coeff_dict("v") if "v" in T.vars else {0: T}
    return pwd_sum(ev, vparts, i)


def graph_term(ev, g):
    """One graph's term through the whole vertex chain, to hbar^K: no
    budget, so every hbar order of the working window is kept."""
    S = Series(("h",), (0,), (ev.K,), {(0,): 1}, layout=layout(ev))
    for I in g.edges:
        S = S * edge_weight(ev, I)
    S = prune_w(ev, S)
    for i in range(ev.n):
        S = prune_w(ev, reduce_vertex(ev, S, i))
    return S * Fraction(1, g.aut_order())


def tight_edge(ev, I):
    """edge_weight(I) with every declared lo raised to its lowest exponent."""
    shape, slots = shape_of(I)

    def build():
        e = edge_weight(ev, shape)
        return e.restrict_vars({v: (e.min_exp(v), INF) for v in e.vars})

    return relabelled(ev, ("ref-tight", shape), slots, build)


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
    one = Series(("h",), (0,), (ev.K,), {(0,): 1}, layout=layout(ev))
    products = []
    for g in graph_list:
        edges = [tight_edge(ev, I) for I in g.edges]
        cuts = []
        cut = dict.fromkeys(wvars(ev), ev.D)
        cut["h"] = T - after[0]
        for e in reversed(edges):
            cuts.append(dict(cut))
            lows = dict(zip(e.vars, e.lo))
            cut["h"] -= lows["h"]
            for wv in wvars(ev):
                cut[wv] -= min(0, lows.get(wv, 0))
        S = one
        for e, cut in zip(edges, reversed(cuts)):
            S = S * e
            S = S.restrict_vars({v: (-INF, cut[v]) for v in S.vars if v in cut})
        products.append(prune_w(ev, S) * Fraction(1, g.aut_order()))
    S = series_sum(products)
    for i in range(ev.n):
        S = S.restrict("h", -INF, T - after[i])
        h = S.idx("h")
        hmax = S.hi[h] - S.lo[h] + b.lo[b.idx("h")]
        S = prune_w(ev, reduce_vertex(ev, S, i, hmax))
    return S


# -- re-expansion ------------------------------------------------------------------


def reexpand(ev, S):
    """Substitute w_i = w(X_i) for every variable by Series substitution,
    re-applying the total-degree cap and prune_w after each variable."""
    depth = (ev.n + 1) * ev.D + 2
    wc = ev.w_of_x_coeffs(depth)
    S = prune_w(ev, S)
    for wv in wvars(ev):
        if wv not in S.vars:
            continue
        g = Series((wv,), (1,), (depth,), {(e,): v for e, v in wc.items()}, layout=layout(ev))
        cache = ev._cache.setdefault(("ref-gpow", wv), {})
        if -1 not in cache:
            # g^-1 = X^-1 (g/X)^-1, for the kernels: g is no unit to invert
            unit = Series((wv,), (0,), (depth - 1,), {(e - 1,): v for e, v in wc.items()}, layout=layout(ev))
            cache[-1] = Series((wv,), (-1,), (INF,), {(-1,): 1}, layout=layout(ev)) * unit.inverse()
        S = prune_w(ev, S.substitute(wv, g, powers=cache).with_cap(cap(ev)))
    return S


# -- closed forms ------------------------------------------------------------------


def edge_genus0(ev, I: tuple[int, ...], g2: int = 0, depth: int | None = None) -> Series:
    """transforms._edge_terms as a Series over the edge's variables."""
    groups, den, pos, _ = _edge_terms(ev, I, g2, depth)
    names = tuple(wvars(ev)[i] for i in pos)
    if not groups:
        return Series.zero(names[:1], cap=cap(ev), layout=layout(ev))
    data = {tuple(e[i] for i in pos): Fraction(v, den)
            for *_, entries in groups for e, v in entries}
    lo = tuple(min(0, *(e[j] for e in data)) for j in range(len(pos)))
    return Series(names, lo, (INF,) * len(pos), data, cap(ev), layout(ev))


def specialized_03(table, D: int):
    """Closed form of the three-point genus-0 relation (the four-tree sum
    written out): star term plus, for each centre i,

        prod_{j != i} P(w_j) * (P w_i d/dw_i)[ (P/C)(w_i)
                                  prod_{j != i} Gt_{0,2}(w_i, w_j) ]."""
    ev = Evaluator(table, 3, D, K=2)
    P = [P_series(ev, i) for i in range(3)]
    total = prune_w(ev, P[0] * P[1] * P[2] * edge_genus0(ev, (0, 1, 2)))
    for i in range(3):
        others = [j for j in range(3) if j != i]
        prod = None
        for j in others:
            pair = tuple(sorted((i, j)))
            e = edge_genus0(ev, pair)
            prod = e if prod is None else prod * e
        inner = P_series(ev, i) * invC_series(ev, i) * prune_w(ev, prod)
        term = pwd(ev, inner, i, 1)
        for j in others:
            term = term * P[j]
        total = total + prune_w(ev, term)
    return ev.extract_table(*ev.reexpand(*total.numerators(wvars(ev))), 0)


def specialized_11(table, D: int):
    """Closed five-term form of the (1,1) relation."""
    ev = Evaluator(table, 1, D, K=4)
    w = wvars(ev)[0]
    C = C_series(ev, 0)
    P = P_series(ev, 0)
    invC = invC_series(ev, 0)
    one24 = Fraction(1, 24)
    # G_{1,1} cumulant series
    g11 = w_atom(ev, 0, {k: table_get(ev.table, 2, (k,)) for k in range(1, D + 1)})
    # G_{0,2}(w, w): diagonal restriction
    diag = {}
    for (g2, ks), val in ev.table.items():
        if g2 == 0 and len(ks) == 2 and sum(ks) <= D:
            for comp in _distinct_permutations(ks):
                e = comp[0] + comp[1]
                diag[e] = diag.get(e, Fraction(0)) + val
    g02diag = w_atom(ev, 0, diag)

    t1 = P * g11
    t2 = pwd(ev, P * invC, 0, 1) * (-one24)
    inner3 = P * invC * invC * C.wdw(w).wdw(w)
    t3 = (pwd(ev, pwd(ev, inner3, 0, 1) - inner3, 0, 1)) * one24
    t4 = pwd(ev, P * invC * g02diag, 0, 1) * Fraction(1, 2)
    inner5 = P * C.wdw(w) * invC * invC
    t5 = (pwd(ev, inner5, 0, 2) - inner5) * (-one24)
    S = t1 + t2 + t3 + t4 + t5
    return ev.extract_table(*ev.reexpand(*S.numerators(wvars(ev))), 2)
