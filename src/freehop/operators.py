"""Vertex operator weights, hyperedge weights, and the graph-sum evaluator
for the functional relations between moment and cumulant n-point series.

Grading conventions (pinned by the (0,1), (0,2) targets of the genus-0
tree relation and the test suite): the n-point series carried by a
hyperedge is the full graded one,

    G_m = hbar^(-1) delta_{m,1} + sum_g hbar^(2g-2+m) G_{g,m},

with the double-pole kernel (at genus 0) added for off-diagonal pairs; a
hyperedge weight multiplies in one factor hbar*u_i*sigma(hbar u_i k) per
slot.  The vertex weight consumes the u-dependence, introduces and consumes
an auxiliary v, and applies powers of P w d/dw.

Truncation scheme: all variables w_i live under a shared total-degree cap D
(every factor in the pipeline has monomials of nonnegative total degree, so
monomials above the cap can never re-enter the extractable range); the
one-point data is built to degree D, kernels to depth n*D (a kernel's
negative exponent in a later variable can be compensated by earlier
kernels, at most (n-1) deep, plus degree D of table data).  The hbar and
u/v variables carry honest per-variable truncation windows; the series
built once per evaluator (vertex weights, edge weights) are known to the
working order hbar^K.

The fixed inputs of an evaluation are built directly and memoised on its
Evaluator, never at module level: each edge weight in one pass over the
table entries and kernel terms (edge_weight), 1/C(w_i) and the
coefficients of the change of variables w(X) by coefficient recursions
(series.inverse_coeffs, and the integer Lagrange recursion
series.lagrange_coeffs), and the powers of 1/C(w_i) once per vertex,
shared by every B_r and by the one-point correction (at_y).

The graph sum (graph_sum) reads one order, hbar^T, and only at
w-exponents <= D, so it carries budgets instead of the full windows.  Each
vertex operator adds at least v_i = vertex_h_floor(i) to the hbar
exponent (-1, from the hbar^(-1) u^(-1) of a_series), each edge weight at
least its lowest hbar exponent, and no factor but a kernel lowers a
w-exponent.  So along a graph's edge product the hbar orders above
T - sum_j v_j - (the remaining edges' lowest hbar exponents), and the w_i
exponents above D - (the remaining edges' negative w_i reach), are dropped
after each factor, and before vertex i the hbar orders above
T - sum_{j >= i} v_j.  At vertex i, P B_r meets the u-slices of
S * a_series(i), whose hbar window is no wider than hi - lo of S's, so
P B_r is built only to that width plus its own declared lo, the order
vertex i can still reach (never above T - sum_{j >= i} v_j while S's
declared hbar lo is nonnegative); the orders above it would fall outside
the product's window.  Only upper ends are cut: the lower w windows, and
with them extract_table's checks for surviving negative or vanishing
exponents, are those of the unbudgeted graph_term.  A product's window is
min(hi_a + lo_b, hi_b + lo_a) over the declared lo, so the edge cuts are
taken from the declared lo as well: a cut from a true minimum above the
declared lo would lie above the product's window, and the terms between
would be lost.  Each edge factor's lo is raised to its lowest exponent
first, which makes both the cuts and the windows as tight as the data.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .graphs import Graph
from .series import (
    INF,
    Series,
    inverse_coeffs,
    kernel_series,
    lagrange_coeffs,
    layout,
    series_sum,
    sigma_coefficients,
)
from .symcore import sort_to_partition
from .tables import CoefficientTable, normalize, table_get


def _distinct_permutations(ks):
    """Distinct orderings of a multiset tuple."""
    out = set()

    def rec(rem, prefix):
        if not rem:
            out.add(prefix)
            return
        seen = set()
        for i, x in enumerate(rem):
            if x in seen:
                continue
            seen.add(x)
            rec(rem[:i] + rem[i + 1 :], prefix + (x,))

    rec(tuple(ks), ())
    return sorted(out)


class Evaluator:
    """Shared state for one functional-relation evaluation.

    sign=+1 computes moments from cumulants (the table is the cumulant
    side); sign=-1 is the dual direction (the table is the moment side).
    """

    def __init__(self, table: CoefficientTable, n: int, D: int, K: int, sign: int = 1):
        self.table = normalize(table)
        self.n = n
        self.D = D
        self.K = K  # hbar working truncation
        self.sign = sign
        self.wvars = tuple("w%d" % i for i in range(n))
        self.uvars = tuple("u%d" % i for i in range(n))
        self.cap = (frozenset(self.wvars), D)
        self.kernel_depth = n * D
        # one packed-key layout for every series built here; the widths
        # hold the offsets of the hbar/u/v/t exponents (a few times K) and
        # of the w exponents (kernels reach down n * kernel_depth)
        small = (4 * (K + n + 2)).bit_length()
        wide = (4 * (D + n * self.kernel_depth)).bit_length()
        names = ("h",) + self.uvars + ("v", "t") + self.wvars
        self.layout = layout(names, (small,) * (len(names) - n) + (wide,) * n)
        self.sig = sigma_coefficients(K + 2)
        self.sig_inv = inverse_coeffs(self.sig, K + 2)
        self._cache: dict = {}

    # -- small helpers -------------------------------------------------------
    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _w_atom(self, i: int, coeffs: dict[int, Fraction]) -> Series:
        v = self.wvars[i]
        lo = min((e for e, c in coeffs.items() if c), default=0)
        return Series((v,), (lo,), (INF,), {(e,): c for e, c in coeffs.items()}, self.cap,
                      self.layout)

    # -- one-point data -------------------------------------------------------
    def C_coeffs(self) -> dict[int, Fraction]:
        def build():
            out = {0: Fraction(1)}
            for k in range(1, self.D + 1):
                v = table_get(self.table, 0, (k,))
                if v:
                    out[k] = v
            return out

        return self._memo(("Ccoef",), build)

    def C(self, i: int) -> Series:
        return self._memo(("C", i), lambda: self._w_atom(i, self.C_coeffs()))

    def invC(self, i: int) -> Series:
        return self._memo(("invC", i),
                          lambda: self._w_atom(i, inverse_coeffs(self.C_coeffs(), self.D)))

    def P(self, i: int) -> Series:
        """The logarithmic-derivative factor d ln(input var) / d ln(output
        var) for the change of variables between the two sides:

            forward (sign +1): X = w / C(w),  P = C / (C - w C'),
            dual    (sign -1): w = X * M(X),  P = M / (M + X M').

        Its coefficients to degree D are formed once, for every vertex.
        """

        def coeffs():
            cs = self.C_coeffs()
            inv = inverse_coeffs({k: c * (1 - self.sign * k) for k, c in cs.items()}, self.D)
            out: dict[int, Fraction] = {}
            for a, ca in cs.items():
                for b, cb in inv.items():
                    if a + b <= self.D:
                        out[a + b] = out.get(a + b, 0) + ca * cb
            return out

        return self._memo(("P", i), lambda: self._w_atom(i, self._memo(("Pcoef",), coeffs)))

    def x_of_w_coeffs(self) -> dict[int, Fraction]:
        """Coefficients of the output variable as a series in the input
        one, to degree D: w/C(w) forward, X*M(X) dual."""
        cs = self.C_coeffs()
        factor = inverse_coeffs(cs, self.D - 1) if self.sign > 0 else cs
        return {e + 1: c for e, c in factor.items() if e < self.D}

    def w_of_x_coeffs(self, depth: int) -> dict[int, Fraction]:
        """Coefficients to X^depth of the inverse of the change of
        variables, for re-expansion: w = X phi(w) with phi = C forward
        (X = w/C(w)) and phi = 1/C dual (X = w C(w)), by the integer
        Lagrange recursion of series.lagrange_coeffs.  On GUE, C = 1 + w^2,
        the forward coefficients are the Catalan numbers:

        >>> from freehop.tables import gue_table
        >>> wc = Evaluator(gue_table(), 1, 8, K=2).w_of_x_coeffs(7)
        >>> [wc[k] for k in (1, 3, 5, 7)]
        [Fraction(1, 1), Fraction(1, 1), Fraction(2, 1), Fraction(5, 1)]
        """

        def build():
            cs = self.C_coeffs()
            phi = cs if self.sign > 0 else inverse_coeffs(cs, depth - 1)
            return lagrange_coeffs(phi, depth)

        return self._memo(("wofx", depth), build)

    # -- sigma operators -------------------------------------------------------
    def _hu_sigma_each(self, s: Series, i: int) -> Series:
        """Multiply each monomial by hbar u_i sigma(hbar u_i k) with k its
        w_i-exponent (the diagonal action of the hyperbolic-sine kernel):
        the sum over e2 of sig_e2 (hbar u_i)^(e2+1) (w_i d/dw_i)^e2 s,
        with the hbar window of s capped at K."""
        wv, uv = self.wvars[i], self.uvars[i]
        h_lo = s.lo[s.idx("h")] if "h" in s.vars else 0
        h_hi = min(s.hi[s.idx("h")] if "h" in s.vars else INF, self.K)
        parts = []
        wdw = s
        for e2, c in sorted(self.sig.items()):
            if e2:
                wdw = wdw.wdw(wv).wdw(wv)
            hu = Series(("h", uv), (e2 + 1, e2 + 1), (INF, INF), {(e2 + 1, e2 + 1): c},
                        layout=self.layout)
            parts.append(wdw * hu)
        return series_sum(parts).restrict("h", h_lo + 1, h_hi)

    def _series_exp(self, S: Series) -> Series:
        """exp of a series with positive hbar valuation."""
        assert S.lo[S.idx("h")] >= 1 or S.is_zero() or S.min_exp("h") >= 1
        parts = [Series.const(S.vars, 1, S.cap, self.layout), S]
        term = S
        j = 1
        while True:
            j += 1
            term = term * S * Fraction(1, j)
            if term.is_zero():
                break
            parts.append(term)
            if j > self.K + 4:  # pragma: no cover - safety stop
                break
        return series_sum(parts)

    # -- vertex weight layers ---------------------------------------------------
    def one_point_tail(self, i: int) -> Series:
        """G_1 - hbar^(-1) as a series over (h, w_i): the genus-0 part
        hbar^(-1)(C-1) plus hbar^(g2-1) one-point entries for g2 >= 1."""

        def build():
            wv = self.wvars[i]
            vars = ("h", wv)
            data = {}
            for k in range(1, self.D + 1):
                v = self.C_coeffs().get(k)
                if v:
                    data[(-1, k)] = v
                for g2 in range(1, self.K + 2):
                    vv = table_get(self.table, g2, (k,))
                    if vv and g2 - 1 <= self.K:
                        data[(g2 - 1, k)] = vv
            return Series(vars, (-1, 1), (self.K, INF), data, self.cap, self.layout)

        return self._memo(("g1tail", i), build)

    def a_series(self, i: int) -> Series:
        """The u-layer weight at the i-th white vertex:

        exp( hbar u sigma(hbar u w d/dw)(G_1 - hbar^(-1)) - u (C - 1) )
        / ( hbar u sigma(hbar u) ).
        """

        def build():
            wv, uv = self.wvars[i], self.uvars[i]
            d1 = self._hu_sigma_each(self.one_point_tail(i), i)
            cminus1 = self.C(i) - Series.const((wv,), 1, self.cap, self.layout)
            u = Series.variable((uv,), uv, layout=self.layout)
            E = d1 - u * cminus1
            expE = self._series_exp(E)
            # 1/(hbar u sigma(hbar u))
            inv_data = {}
            for e2, c in self.sig_inv.items():
                if e2 - 1 <= self.K:
                    inv_data[(e2 - 1, e2 - 1)] = c
            inv = Series(("h", uv), (-1, -1), (self.K, INF), inv_data, layout=self.layout)
            return expE * inv

        return self._memo(("A", i), build)

    def _b_exponent_raw(self) -> Series:
        """E_B over (h, v, t) with t = 1/y:

        sign * v * [sigma(hbar v d_y)/sigma(hbar d_y) - 1] ln y
            = -sign * v * sum_{j >= 2 even} q_j (j-1)! t^j,
        where q_j collects hbar^j sigma/inverse-sigma data.
        """

        def build():
            data: dict[tuple, Fraction] = {}
            for j in range(2, self.K + 1, 2):
                # q_j = hbar^j sum_{2a+2b=j} sig_{2a} v^{2a} siginv_{2b}
                for a2 in range(0, j + 1, 2):
                    b2 = j - a2
                    if a2 in self.sig and b2 in self.sig_inv:
                        coeff = -self.sign * self.sig[a2] * self.sig_inv[b2] * factorial(j - 1)
                        e = (j, 1 + a2, j)  # (h, v, t)
                        data[e] = data.get(e, Fraction(0)) + coeff
            return Series(("h", "v", "t"), (2, 1, 2), (self.K, INF, INF), data,
                          layout=self.layout)

        return self._memo(("EB",), build)

    def _apply_dy_plus_v_over_y(self, s: Series) -> Series:
        """One application of (d_y + sign * v / y) in the t = 1/y picture:
        t^a -> (sign*v - a) t^(a+1); s carries no cap."""
        it = s.idx("t")
        vt = Series(("v", "t"), (1, 1), (INF, INF), {(1, 1): self.sign}, layout=self.layout)
        t = Series(("t",), (1,), (INF,), {(1,): -1}, layout=self.layout)
        return (s * vt + s.wdw("t") * t).restrict("t", s.lo[it] + 1, s.hi[it])

    def b_raw(self, r: int) -> Series:
        """(d_y + sign v/y)^r exp(E_B), in the (h, v, t) picture."""
        if ("Braw", r) in self._cache:
            return self._cache[("Braw", r)]
        if r == 0:
            out = self._series_exp(self._b_exponent_raw())
        else:
            out = self._apply_dy_plus_v_over_y(self.b_raw(r - 1))
        self._cache[("Braw", r)] = out
        return out

    def at_y(self, s: Series, i: int) -> Series:
        """s, a series in t = 1/y, at y = C(w_i).  The powers of 1/C(w_i)
        are formed once per vertex and shared by every call."""
        return s.substitute("t", self.invC(i), powers=self._cache.setdefault(("invCpow", i), {}))

    def b_series(self, i: int, r: int, hmax: int | None = None) -> Series:
        """B_r at the i-th vertex: b_raw(r), known to hbar^hmax (hmax = K
        when None, and never above K), specialised at y = C(w_i).  The cut
        comes before the substitution, so the hbar orders above hmax and
        the powers of 1/C(w_i) only they reach are never formed."""
        hmax = self.K if hmax is None else min(hmax, self.K)

        def build():
            b = self.b_raw(r)
            if hmax < self.K:
                b = b.restrict("h", -INF, hmax)
            return self.at_y(b, i)

        return self._memo(("B", i, r, hmax), build)

    def pb_series(self, i: int, r: int, hmax: int | None = None) -> Series:
        """P(w_i) B_r at the i-th vertex, known to hbar^hmax as in b_series."""
        hmax = self.K if hmax is None else min(hmax, self.K)
        return self._memo(("PB", i, r, hmax), lambda: self.P(i) * self.b_series(i, r, hmax))

    def pwd(self, s: Series, i: int, m: int = 1) -> Series:
        """(P(w_i) w_i d/dw_i)^m applied to s."""
        P = self.P(i)
        for _ in range(m):
            s = P * s.wdw(self.wvars[i])
        return s

    def pwd_sum(self, parts: dict[int, Series], i: int) -> Series:
        """sum_m (P(w_i) w_i d/dw_i)^m parts[m] over m >= 0, by Horner's
        rule parts[0] + P w d/dw (parts[1] + P w d/dw (...))."""
        if min(parts) < 0:
            raise ValueError("negative power of P w d/dw")
        P = self.P(i)
        acc = parts[max(parts)]
        for m in range(max(parts) - 1, -1, -1):
            acc = P * acc.wdw(self.wvars[i])
            if m in parts:
                acc = acc + parts[m]
        return acc

    # -- hyperedge weights --------------------------------------------------------
    def edge_weight(self, I: tuple[int, ...]) -> Series:
        """c(u_I, w_I) for the hyperedge (multiset) I: the sum over the table
        entries F_{g2; k} with #k = #I (each ordering k of the slots) and,
        for an off-diagonal pair, the genus-0 kernel terms k w_a^k w_b^-k, of

            F_{g2; k} hbar^(g2 - 2 + #I) prod_s w_s^k_s hbar u_s sigma(hbar u_s k_s),

        that is, the per-slot diagonal sigma operators applied before
        repeated variables are identified.  Built in one pass: each term's
        slot factors are expanded into one coefficient dict, from which one
        Series is made.  Its windows are those of the term-by-term product:
        hbar from the lowest g2 - 2 + #I to K plus that lowest order when it
        is negative, each w from its most negative exponent, u from 0."""

        def build():
            m = len(I)
            entries = []
            for (g2, ks), val in self.table.items():
                if len(ks) == m and sum(ks) <= self.D and g2 - 2 + m <= self.K:
                    for comp in _distinct_permutations(ks):
                        entries.append((g2 - 2 + m, comp, val))
            if m == 2 and I[0] != I[1]:
                for k in range(1, self.kernel_depth + 1):
                    entries.append((m - 2, (k, -k), Fraction(k)))
            if not entries:
                return Series.zero(("h",), hi=(self.K,), layout=self.layout)
            wvars = tuple(sorted({self.wvars[s] for s in I}))
            uvars = tuple(dict.fromkeys(self.uvars[s] for s in I))
            vars = ("h",) + wvars + uvars
            wpos = [vars.index(self.wvars[s]) for s in I]
            upos = [vars.index(self.uvars[s]) for s in I]
            hlo = min(e[0] for e in entries)
            hhi = self.K + min(0, hlo)
            wlo = [0] * len(vars)
            sig = sorted(self.sig.items())
            factors: dict[int, list] = {}  # by k: [(d, sig_(d-1) k^(d-1))]
            data: dict[tuple, Fraction] = {}
            for hexp, comp, val in entries:
                base = [0] * len(vars)
                base[0] = hexp
                for p, k in zip(wpos, comp):
                    base[p] += k
                for p in wpos:
                    wlo[p] = min(wlo[p], base[p])
                # the slot factors hbar u sigma(hbar u k), one at a time
                terms = {tuple(base): val}
                for p, k in zip(upos, comp):
                    factor = factors.get(k)
                    if factor is None:
                        factor = factors[k] = [(e2 + 1, c * k ** e2) for e2, c in sig]
                    nxt: dict[tuple, Fraction] = {}
                    for e, c in terms.items():
                        for d, f in factor:
                            if e[0] + d > hhi:
                                break
                            e1 = list(e)
                            e1[0] += d
                            e1[p] += d
                            e1 = tuple(e1)
                            nxt[e1] = nxt.get(e1, 0) + c * f
                    terms = nxt
                for e, c in terms.items():
                    data[e] = data.get(e, 0) + c
            lo = (hlo,) + tuple(wlo[1:])
            hi = (hhi,) + tuple(INF + x for x in wlo[1:])
            return Series(vars, lo, hi, data, self.cap, self.layout)

        return self._memo(("edge", tuple(I)), build)

    # -- full vertex reduction -------------------------------------------------------
    def reduce_vertex(self, S: Series, i: int, hmax: int | None = None) -> Series:
        """Apply the full operator weight at vertex i to the series S
        (which may depend on h, u_i, w_* and other u's), with P B_r known
        to hbar^hmax (to hbar^K when None)."""
        uv = self.uvars[i]
        S = S * self.a_series(i)
        # u-extraction and B-sum
        if uv in S.vars:
            parts = S.coeff_dict(uv)
        else:
            parts = {0: S}
        # only r >= 0 enters; the hbar^(-1) u^(-1) unit is accounted for
        # by the n = 1 delta correction
        terms = [self.pb_series(i, r, hmax) * part for r, part in parts.items() if r >= 0]
        if not terms:
            return Series.zero(("h",), hi=(self.K,), layout=self.layout)
        T = series_sum(terms)
        # v-extraction and the (P w d/dw)^m sum, P already multiplied in
        if "v" in T.vars:
            vparts = T.coeff_dict("v")
        else:
            vparts = {0: T}
        return self.pwd_sum(vparts, i)

    def graph_term(self, g: Graph) -> Series:
        """One graph's term through the whole vertex chain, to hbar^K: no
        budget, so every hbar order of the working window is kept."""
        S = Series(("h",), (0,), (self.K,), {(0,): 1}, layout=self.layout)
        for I in g.edges:
            S = S * self.edge_weight(I)
        S = self.prune_w(S)
        for i in range(self.n):
            S = self.prune_w(self.reduce_vertex(S, i))
        return S * Fraction(1, g.aut_order())

    def pb_h_floor(self) -> int:
        """The declared hbar lo of every P B_r: that of b_raw(0), since
        (d_y + sign v/y), the substitution t = 1/C(w_i) and P keep the
        hbar window."""
        b = self.b_raw(0)
        return b.lo[b.idx("h")]

    def vertex_h_floor(self, i: int) -> int:
        """A floor on the hbar exponent the operator at vertex i adds: the
        declared lo of a_series plus that of P B_r, which reduce_vertex's
        product windows are built from."""
        a = self.a_series(i)
        return a.lo[a.idx("h")] + self.pb_h_floor()

    def _tight_edge(self, I: tuple[int, ...]) -> Series:
        """edge_weight(I) with every declared lo raised to its lowest
        exponent, the tightest lo for graph_sum's cuts."""

        def build():
            e = self.edge_weight(I)
            return e.restrict_vars({v: (e.min_exp(v), INF) for v in e.vars})

        return self._memo(("tight", tuple(I)), build)

    def graph_sum(self, graph_list, T: int) -> Series:
        """sum over graphs of graph_term(g), exact at hbar^T and at every
        w-exponent up to D, under the budgets of the module docstring.  The
        vertex operators, prune_w and the cuts are linear, so the vertex
        chain runs once, on the 1/|Aut|-weighted sum of the budgeted edge
        products."""
        floors = [self.vertex_h_floor(i) for i in range(self.n)]
        after = [sum(floors[i:]) for i in range(self.n + 1)]
        one = Series(("h",), (0,), (self.K,), {(0,): 1}, layout=self.layout)
        products = []
        for g in graph_list:
            edges = [self._tight_edge(I) for I in g.edges]
            # the highest exponents worth keeping after each factor, from
            # the last edge back: every edge still to come adds at least its
            # lo (now its lowest exponent)
            cuts = []
            cut = dict.fromkeys(self.wvars, self.D)
            cut["h"] = T - after[0]
            for e in reversed(edges):
                cuts.append(dict(cut))
                lows = dict(zip(e.vars, e.lo))
                cut["h"] -= lows["h"]
                for wv in self.wvars:
                    cut[wv] -= min(0, lows.get(wv, 0))
            S = one
            for e, cut in zip(edges, reversed(cuts)):
                S = S * e
                S = S.restrict_vars({v: (-INF, cut[v]) for v in S.vars if v in cut})
            products.append(self.prune_w(S) * Fraction(1, g.aut_order()))
        S = series_sum(products)
        for i in range(self.n):
            S = S.restrict("h", -INF, T - after[i])
            # P B_r meets the u-slices of S * a_series(i), whose hbar window
            # is no wider than S's: its orders above that width plus its
            # own lo fall outside the products' windows
            h = S.idx("h")
            hmax = S.hi[h] - S.lo[h] + self.pb_h_floor()
            S = self.prune_w(self.reduce_vertex(S, i, hmax))
        return S

    # -- n = 1 correction -------------------------------------------------------------
    def delta_series(self, g2: int) -> Series:
        """Delta_g(X) in the w-picture: [hbar^(2g)] sum_m (P w d/dw)^m
        ( [v^(m+1)] exp(E_B)|_{y=C} * P w d/dw C )."""
        bexp = self.at_y(self.b_raw(0), 0)
        core = bexp * (self.P(0) * self.C(0).wdw(self.wvars[0]))
        vparts = core.coeff_dict("v") if "v" in core.vars else {0: core}
        parts = {mp1 - 1: part for mp1, part in vparts.items() if mp1 >= 1}
        if not parts:
            return Series.zero((self.wvars[0],), cap=self.cap, layout=self.layout)
        return self.pwd_sum(parts, 0).coeff("h", g2)

    def prune_w(self, S: Series) -> Series:
        """Drop monomials with any w-exponent above D (once every factor
        with negative w-exponents, i.e. every kernel, has been multiplied
        in, later factors only raise w-exponents, so such monomials can
        never re-enter the extractable range), and below the kernel
        budget."""
        window = (-self.kernel_depth, self.D)
        return S.restrict_vars({wv: window for wv in self.wvars if wv in S.vars})

    # -- re-expansion ------------------------------------------------------------------
    def reexpand(self, S: Series) -> Series:
        """Substitute w_i = w(X_i) for every variable, expressing a
        w-series as an X-series with the same variable names.

        The inverse series is built uncapped (negative powers of a capped
        series would be wrong); the total-degree cap is re-applied after
        each variable, which is valid because a valuation-1 substitution
        never lowers a monomial's total degree.
        """
        depth = (self.n + 1) * self.D + 2
        wc = self.w_of_x_coeffs(depth)
        S = self.prune_w(S)
        for i in range(self.n):
            wv = self.wvars[i]
            if wv not in S.vars:
                continue
            g = Series((wv,), (1,), (depth,), {(e,): v for e, v in wc.items()},
                       layout=self.layout)
            cache = self._cache.setdefault(("gpow", wv), {})
            S = S.substitute(wv, g, powers=cache).with_cap(self.cap)
            S = self.prune_w(S)
        return S

    def x_kernel(self, i: int, j: int, depth: int | None = None) -> Series:
        return kernel_series(
            self.wvars[i], self.wvars[j], (self.wvars[i], self.wvars[j]),
            self.kernel_depth if depth is None else depth, self.cap, self.layout,
        )

    # -- table extraction -----------------------------------------------------------------
    def extract_table(self, S: Series, g2: int, check_symmetric: bool = True) -> CoefficientTable:
        """Read F_{g; k_1..k_n} off an X-series.

        Entries with any exponent above D are beyond the reliable depth
        (kernel truncation) and skipped; within that range, surviving
        negative or vanishing exponents indicate a bug and raise.
        """
        out: CoefficientTable = {}
        seen: dict[tuple, dict] = {}
        for e, val in S.data.items():
            exps = []
            for v in self.wvars:
                x = e[S.idx(v)] if v in S.vars else 0
                exps.append(x)
            if any(x > self.D for x in exps):
                continue
            if any(x < 0 for x in exps):
                raise AssertionError("negative exponent survived: %r -> %s" % (e, val))
            if any(x == 0 for x in exps):
                raise AssertionError("vanishing exponent survived: %r -> %s" % (e, val))
            if sum(exps) > self.D:
                continue
            key = sort_to_partition(exps)
            seen.setdefault(key, {})[tuple(exps)] = val
        for key, by_order in seen.items():
            vals = set(by_order.values())
            if check_symmetric and len(vals) != 1:
                raise AssertionError("asymmetric coefficients at %r: %r" % (key, by_order))
            out[(g2, key)] = next(iter(vals))
        return out
