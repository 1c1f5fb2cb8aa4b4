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
kernels, at most (n-1) deep, plus degree D of table data).

The fixed inputs of an evaluation are built directly and memoised on its
Evaluator, never at module level.  The hyperedge weights read the table
in one place, _slot_entries: per number of slots and g2, every entry with
|k| <= D in each distinct order of its slots, and for an off-diagonal
pair at genus 0 the kernel terms ((k, -k), k) to the depth the caller
gives.  The graph sum's edge weights (_edge_data: every g2 with
g2 - 2 + #I <= K, kernels to kernel_depth) and the tree routes'
(transforms._edge_terms: one g2, the kernel depths of
transforms._tree_kernel_depths) are each built once per order-preserving
shape of their hyperedge (shape_of).  An _edge_data weight is integer
numerators keyed by exponent tuples over positions (hbar, the w of each
distinct slot, the u of each), which _edge_factor moves onto the key
fields of the hyperedge's vertices.  1/C(w), P and the coefficients of
the change of variables w(X) come from the one-variable recursions of
series (inverse_coeffs, the integer Lagrange recursion lagrange_coeffs
and the one series product _w_product); the u-layer weight and exp(E_B)
from the exponential recursion on integer numerators (_exp_rows).

The relation runs on integer numerators over one denominator from the
edge products to the terms extract_table reads, which are rows {exponent
tuple over (w_0, ..., w_(n-1)): numerator}.  A term of an edge product is
one int key (_Keys): the exponents of hbar, of every u_i and w_i, and of
the total w-degree, each in its own bit field, so a product term is one
add and every bound is tested with one add and one mask.  The vertex
operator at vertex i is linear and reads only hbar, u_i and w_i, so it is
a map from the local monomials hbar^a u_i^r w_i^m to integer rows over
(hbar, w_i) (_vertex_row), built once per evaluator from the rows of the
u-layer weight, of P B_r and of (P w d/dw)^k w^j, and each pass applies it
to every term at once.

graph_sum reads one order, hbar^T, and only at w-exponents <= D, so it
carries budgets instead of the full windows.  Each vertex operator adds at
least v = (the lowest hbar order of the u-layer weight, -1, from its
hbar^(-1) u^(-1)) + (that of P B_r, 0) to the hbar exponent, each edge
weight at least its lowest hbar exponent, and no factor but a kernel
lowers a w-exponent.  So along a graph's edge product the hbar orders
above T - n v - (the remaining edges' lowest hbar exponents), the w_i
exponents above D - (the remaining edges' negative w_i reach) and the
total degrees above D are dropped after each factor; after the product
the w_i exponents below -kernel_depth; and vertex i keeps the orders up
to T - (n - 1 - i) v, the last vertex hbar^T alone.  The vertex rows are
read to one order H for every vertex, T - (n - 1) v less the lowest order
of the summed edge products, which every vertex's input reaches at most
that far below its cut.  Every cut but the one below -kernel_depth drops
only terms that cannot reach the hbar^T, w <= D part, and that one is
taken where the chain of Series objects in tests/graph_sum_reference.py
takes it, so extract_table sees that chain's terms one for one, with the
same unreliable terms for its negative- and vanishing-exponent
assertions.  The re-expansion (reexpand) maps each w_i^e to the row of
w(X_i)^e in the same way, one variable at a time.

The tree routes of transforms (genus 0 and genus 1/2) cut harder, by
reach: they run no vertex operator, and a term a of a tree's edge product
reaches a target only if sum_i max(1, a_i) <= D, so after each edge factor
they drop every term with sum_i max(1, a_i - r_i) > D, r_i the negative
w_i reach of the edges still to come (transforms._cut_product).  graph_sum
keeps the per-variable upper cuts only: the same cut there would change
which unreliable terms reach extract_table's negative- and
vanishing-exponent assertions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, lshift

from .series import (TruncationError, _reduced, _w_product, inverse_coeffs, lagrange_coeffs,
                     sigma_coefficients)
from .symcore import sort_to_partition
from .tables import CoefficientTable, normalize, table_get


def shape_of(I: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """The order-preserving shape of a hyperedge, its vertices renumbered
    0, 1, ... in increasing order, and its distinct vertices in that order.

    >>> shape_of((1, 1, 3))
    ((0, 0, 1), [1, 3])
    """
    slots = sorted(set(I))
    return tuple(map(slots.index, I)), slots


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


def _int_rows(coeffs: dict) -> tuple[dict, int]:
    """{key: Fraction} as ({key: integer numerator}, common denominator),
    zeros dropped."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}, den


def _exp_rows(E: dict, width: int, top: int, keep=None) -> tuple[dict, int]:
    """exp(E) to hbar^top, for E {exponent tuple, hbar first: Fraction} of
    width entries with no term below hbar^1, as ({exponent tuple:
    numerator}, den); a product term failing keep (when given) is dropped.
    With E = E'/d over the integers, the hbar^j part is F'_j / (j! d^j),
    where j F_j = sum_k k E_k F_(j-k) reads

        F'_j = sum_k k (j-1)!/(j-k)! d^(k-1) E'_k F'_(j-k)."""
    E, d = _int_rows(E)
    by_h: dict[int, list] = {}
    for e, c in E.items():
        by_h.setdefault(e[0], []).append((e, c))
    F = [{(0,) * width: 1}]
    for j in range(1, top + 1):
        acc: dict[tuple, int] = {}
        for k, terms in by_h.items():
            if k <= j:
                s = k * factorial(j - 1) // factorial(j - k) * d ** (k - 1)
                for ea, ca in terms:
                    for eb, cb in F[j - k].items():
                        e = tuple(map(add, ea, eb))
                        if keep is None or keep(e):
                            acc[e] = acc.get(e, 0) + s * ca * cb
        F.append(acc)
    out: dict[tuple, int] = {}
    for j, Fj in enumerate(F):
        s = factorial(top) // factorial(j) * d ** (top - j)
        for e, c in Fj.items():
            out[e] = out.get(e, 0) + c * s
    return _reduced({e: c for e, c in out.items() if c}, factorial(top) * d ** top)


_H = 0  # the hbar field of _Keys


class _Keys:
    """Exponent vectors over the fields h, u_0..u_(n-1), w_0..w_(n-1) and
    tw, the total w-degree, packed into one int: field f holds its exponent
    plus bias in the width bits from offs[f], below one guard bit that keys
    keep clear.  A signed vector d packs to the delta sum_f d_f 2^offs[f],
    and key + delta is the key of the sum while every field stays in
    [0, 2^width).  The bounds of a set of fields are tested with one add
    and one mask."""

    def __init__(self, n: int, bias: int, width: int):
        self.n, self.bias, self.width = n, bias, width
        self.mask = (1 << width) - 1
        self.offs = [f * (width + 1) for f in range(2 * n + 2)]
        self.tw = 2 * n + 1
        self.zero = sum(bias << o for o in self.offs)

    def u(self, i: int) -> int:
        return 1 + i

    def w(self, i: int) -> int:
        return 1 + self.n + i

    def delta(self, pairs) -> int:
        return sum(d << self.offs[f] for f, d in pairs)

    def field(self, key: int, f: int) -> int:
        return ((key >> self.offs[f]) & self.mask) - self.bias

    def upper(self, bounds: dict) -> tuple[int, int]:
        """(M, G): (key + M) & G is zero exactly when every field f of
        bounds is at most bounds[f]."""
        M = G = 0
        for f, b in bounds.items():
            x = max(b + self.bias, -1)
            if x < self.mask:
                M += (self.mask - x) << self.offs[f]
                G |= 1 << (self.offs[f] + self.width)
        return M, G

    def lower(self, bounds: dict) -> tuple[int, int]:
        """(L, G): (key + L) & G == G exactly when every field f of bounds
        is at least bounds[f]."""
        L = G = 0
        for f, b in bounds.items():
            x = min(b + self.bias, self.mask + 1)
            if x > 0:
                L += ((1 << self.width) - x) << self.offs[f]
                G |= 1 << (self.offs[f] + self.width)
        return L, G


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
        self.kernel_depth = n * D
        self.sig = sigma_coefficients(K + 2)
        self.sig_inv = inverse_coeffs(self.sig, K + 2)
        self._cache: dict = {}

    # -- small helpers -------------------------------------------------------
    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

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

    def P_coeffs(self) -> dict[int, Fraction]:
        """The coefficients to w^D of the logarithmic-derivative factor
        d ln(input var) / d ln(output var) for the change of variables
        between the two sides:

            forward (sign +1): X = w / C(w),  P = C / (C - w C'),
            dual    (sign -1): w = X * M(X),  P = M / (M + X M')."""

        def build():
            cs = self.C_coeffs()
            inv = inverse_coeffs({k: c * (1 - self.sign * k) for k, c in cs.items()}, self.D)
            return _w_product(cs, inv, self.D)

        return self._memo(("Pcoef",), build)

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

    def _slot_entries(self, shape: tuple[int, ...], g2: int, depth: int = 0) -> list:
        """The table entries F_{g2; k} with #k = #shape and |k| <= D, each
        in every distinct order of its slots, as (k, F_{g2; k}), followed,
        when the shape is an off-diagonal pair and g2 = 0, by the
        double-pole kernel terms ((k, -k), k), k = 1..depth.  The hyperedge
        weights of the tree and graph relations read the table through
        this list alone; memoised per (#shape, g2, kernel depth)."""
        m = len(shape)
        depth = depth if g2 == 0 and m == 2 and shape[0] != shape[1] else 0

        def build():
            if depth:
                return self._slot_entries(shape, 0) + [((k, -k), Fraction(k)) for k in range(1, depth + 1)]
            return [(comp, v) for (tg2, ks), v in self.table.items()
                    if tg2 == g2 and len(ks) == m and sum(ks) <= self.D
                    for comp in _distinct_permutations(ks)]

        return self._memo(("entries", m, g2, depth), build)

    def _edge_data(self, shape: tuple[int, ...]):
        """The weight c(u_I, w_I) of a hyperedge I of the given shape: the
        sum over the _slot_entries of every g2 with g2 - 2 + #I <= K (an
        off-diagonal pair's kernel terms to kernel_depth) of

            F_{g2; k} hbar^(g2 - 2 + #I) prod_s w_s^k_s hbar u_s sigma(hbar u_s k_s),

        that is, the per-slot diagonal sigma operators applied before
        repeated variables are identified.  Built in one pass, each term's
        slot factors expanded into one coefficient dict, and memoised per
        shape, as ({exponent tuple: integer numerator}, den), to hbar^(K
        plus the lowest g2 - 2 + #I when it is negative).  The positions of
        an exponent tuple are hbar, the w of each distinct slot 0, 1, ...
        of the shape, then the u of each.  A term of m slots is over
        Q S^m, Q the lcm of the entries' denominators and S that of the
        sigma coefficients."""

        def build():
            m, s = len(shape), max(shape) + 1
            entries = [(g2 - 2 + m, comp, val) for g2 in range(self.K + 3 - m)
                       for comp, val in self._slot_entries(shape, g2, self.kernel_depth)]
            if not entries:
                return {}, 1
            hhi = self.K + min(0, *(e[0] for e in entries))
            sig, S = _int_rows(self.sig)
            sig = sorted(sig.items())
            Q = lcm(*(val.denominator for _, _, val in entries))
            factors: dict[int, list] = {}  # by k: [(d, S sig_(d-1) k^(d-1))]
            data: dict[tuple, int] = {}
            for hexp, comp, val in entries:
                base = [hexp] + [0] * (2 * s)
                for j, k in zip(shape, comp):
                    base[1 + j] += k
                # the slot factors hbar u sigma(hbar u k), one at a time
                terms = {tuple(base): val.numerator * (Q // val.denominator)}
                for j, k in zip(shape, comp):
                    p = 1 + s + j
                    factor = factors.get(k)
                    if factor is None:
                        factor = factors[k] = [(e2 + 1, c * k ** e2) for e2, c in sig]
                    nxt: dict[tuple, int] = {}
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
            return _reduced({e: c for e, c in data.items() if c}, Q * S ** m)

        return self._memo(("edgedata", shape), build)

    # -- the graph sum on integer rows -------------------------------------------------
    def _a_rows(self) -> tuple[dict[tuple, list], int]:
        """The u-layer weight at a white vertex,

            exp( hbar u sigma(hbar u w d/dw)(G_1 - hbar^(-1)) - u (C - 1) )
            / ( hbar u sigma(hbar u) ),

        to hbar^(K-1) and w^D, grouped by the (u, w) exponents, as ({(u,
        w): [(hbar, numerator)] by increasing hbar}, den).  G_1 - hbar^(-1)
        is hbar^(-1)(C - 1) plus the one-point entries hbar^(g2-1) F_{g2;k}
        w^k, g2 >= 1; the sigma operator takes its term hbar^h w^k to
        sum_e2 sig_e2 k^e2 (hbar u)^(e2+1) hbar^h w^k, read to hbar^K, and
        the hbar^0 part of that (e2 = 0 on hbar^(-1)(C - 1)) cancels
        u (C - 1)."""

        def build():
            K, D = self.K, self.D
            tail = [(-1, k, c) for k, c in self.C_coeffs().items() if k]
            tail += [(g2 - 1, k, v) for g2 in range(1, K + 2) for (k,), v in self._slot_entries((0,), g2)]
            E: dict[tuple, Fraction] = {}
            for h0, k, c in tail:
                for e2, s in self.sig.items():
                    h = h0 + e2 + 1
                    if h > K:
                        break
                    if h:
                        E[h, e2 + 1, k] = E.get((h, e2 + 1, k), 0) + s * k ** e2 * c
            F, fden = _exp_rows(E, 3, K, lambda e: e[2] <= D)
            inv, iden = _int_rows({e2 - 1: c for e2, c in self.sig_inv.items() if e2 - 1 <= K})
            out: dict[tuple, int] = {}
            for (h, u, w), c in F.items():
                for d, x in inv.items():
                    if h + d <= K - 1:
                        out[h + d, u + d, w] = out.get((h + d, u + d, w), 0) + c * x
            out, den = _reduced({e: c for e, c in out.items() if c}, fden * iden)
            groups: dict[tuple, list] = {}
            for (h, u, w), c in sorted(out.items()):
                groups.setdefault((u, w), []).append((h, c))
            return groups, den

        return self._memo(("Arows",), build)

    def _b_rows(self, r: int) -> tuple[dict[tuple, int], int]:
        """(d_y + sign v/y)^r exp(E_B) to hbar^K, in t = 1/y, over (hbar, v,
        t), as ({exponents: numerator}, den), with

            E_B = sign v [sigma(hbar v d_y)/sigma(hbar d_y) - 1] ln y
                = -sign sum_{j >= 2 even} sum_{a + b = j} sig_a siginv_b
                  (j-1)! hbar^j v^(1+a) t^j.

        The operator takes t^a to (sign v - a) t^(a+1), integer
        coefficients, so every r shares the denominator of r = 0."""

        def build():
            if r == 0:
                EB: dict[tuple, Fraction] = {}
                for j in range(2, self.K + 1, 2):
                    for a2 in range(0, j + 1, 2):
                        if a2 in self.sig and j - a2 in self.sig_inv:
                            EB[j, 1 + a2, j] = (-self.sign * self.sig[a2] * self.sig_inv[j - a2]
                                                * factorial(j - 1))
                return _exp_rows(EB, 3, self.K)
            prev, den = self._b_rows(r - 1)
            out: dict[tuple, int] = {}
            for (h, v, a), c in prev.items():
                out[h, v + 1, a + 1] = out.get((h, v + 1, a + 1), 0) + self.sign * c
                if a:
                    out[h, v, a + 1] = out.get((h, v, a + 1), 0) - a * c
            return {e: c for e, c in out.items() if c}, den

        return self._memo(("Brows", r), build)

    def _h_floors(self) -> tuple[int, int]:
        """The lowest hbar exponents of the u-layer weight (_a_rows) and of
        every P B_r: the one of _b_rows(0), since (d_y + sign v/y),
        t = 1/C(w) and P keep it."""
        return (min(hs[0][0] for hs in self._a_rows()[0].values()),
                min(h for h, _, _ in self._b_rows(0)[0]))

    def _P_rows(self) -> tuple[dict[int, int], int]:
        return self._memo(("Prows",), lambda: _int_rows(self.P_coeffs()))

    def _invC_power(self, a: int) -> tuple[dict[int, int], int]:
        """1/C(w)^a to w^D as ({exponent: numerator}, den), den the a-th
        power of that of 1/C."""

        def build():
            if a <= 1:
                return _int_rows(inverse_coeffs(self.C_coeffs(), self.D if a else 0))
            (p, dp), (q, dq) = self._invC_power(a - 1), self._invC_power(1)
            return _w_product(p, q, self.D), dp * dq

        return self._memo(("invCrow", a), build)

    def _by_rows(self, r: int, hmax: int) -> tuple[dict[tuple, int], int]:
        """B_r = _b_rows(r) at t = 1/C(w), to hbar^hmax and w^D, as
        ({(hbar, v, w exponents): numerator}, den)."""

        def build():
            b, den = self._b_rows(r)
            b = {e: c for e, c in b.items() if e[0] <= hmax}
            top = self._invC_power(max((a for _, _, a in b), default=0))[1]
            out: dict[tuple, int] = {}
            for (h, v, a), c in b.items():
                p, dp = self._invC_power(a)
                c *= top // dp
                for w, x in p.items():
                    out[h, v, w] = out.get((h, v, w), 0) + c * x
            return _reduced({e: c for e, c in out.items() if c}, den * top)

        return self._memo(("Byrows", r, hmax), build)

    def _pb_rows(self, r: int, hmax: int) -> tuple[dict[tuple, list], int]:
        """P B_r to hbar^hmax and w^D, as ({(v, w exponents): [(hbar
        exponent, numerator)]}, den): the one-point factors are known to w^D
        and have no negative w-exponent, so this is the product of their
        truncations, cut at w^D."""

        def build():
            b, den = self._by_rows(r, hmax)
            by_hv: dict[tuple, dict] = {}
            for (h, v, w), c in b.items():
                by_hv.setdefault((h, v), {})[w] = c
            P, pden = self._P_rows()
            pb, den = _reduced({(h, v, w): c for (h, v), row in by_hv.items()
                                for w, c in _w_product(row, P, self.D).items() if c}, den * pden)
            out: dict[tuple, list] = {}
            for (h, v, w), c in pb.items():
                out.setdefault((v, w), []).append((h, c))
            return out, den

        return self._memo(("PBrows", r, hmax), build)

    def _pwd_power(self, k: int, j: int) -> tuple[dict[int, int], int]:
        """(P w d/dw)^k w^j to w^D as ({exponent: numerator}, den), den the
        k-th power of that of P."""

        def build():
            if k == 0:
                return ({j: 1} if j <= self.D else {}), 1
            prev, den = self._pwd_power(k - 1, j)
            P, pden = self._P_rows()
            return _w_product({e: c * e for e, c in prev.items() if e}, P, self.D), den * pden

        return self._memo(("pwdpow", k, j), build)

    def _r_row(self, r: int, e: int, hmax: int) -> tuple[list[tuple[int, int, int]], int]:
        """sum_k (P w d/dw)^k (w^e [v^k] P B_r), to hbar^hmax and w^D, as
        ([(hbar, w exponents, numerator)] sorted, den)."""

        def build():
            pb, den = self._pb_rows(r, hmax)
            vmax = max((v for v, _ in pb), default=0)
            pden = self._P_rows()[1]
            out: dict[int, int] = {}  # by hbar * stride + w + kernel_depth
            get = out.get
            stride, kd = self.D + self.kernel_depth + 1, self.kernel_depth
            for (v, wb), hs in pb.items():
                s = pden ** (vmax - v)
                for w, x in self._pwd_power(v, e + wb)[0].items():
                    x *= s
                    w += kd
                    for h, c in hs:
                        k = h * stride + w
                        out[k] = get(k, 0) + c * x
            out, den = _reduced({k: c for k, c in out.items() if c}, den * pden ** vmax)
            return sorted((k // stride, k % stride - kd, c) for k, c in out.items()), den

        return self._memo(("Rrow", r, e, hmax), build)

    def _vertex_row(self, r0: int, m: int, H: int) -> tuple[list[tuple[int, int, int]], int]:
        """The vertex operator on the local monomial u^r0 w^m (at hbar^0):

            sum_{r >= 0} sum_k (P w d/dw)^k [v^k] P B_r [u^r] (u^r0 w^m a_series),

        to hbar^H and w^D, as ([(hbar, w exponents, numerator)] sorted,
        den).  Every factor has nonnegative w-exponents and is known to w^D;
        the cap on the total degree is left to the caller.  Each factor is
        read to the order that H minus the other's lowest order (_h_floors)
        reaches."""

        def build():
            ha_min, hb_min = self._h_floors()
            groups, aden = self._a_rows()
            parts = []
            for (ua, wa), hs in groups.items():
                r, e = r0 + ua, m + wa
                if r >= 0 and e <= self.D and hs[0][0] <= H - hb_min:
                    parts.append((hs, self._r_row(r, e, H - ha_min)))
            den = lcm(*(d for _, (_, d) in parts))
            out: dict[int, int] = {}  # by hbar * stride + w + kernel_depth
            get = out.get
            stride, kd = self.D + self.kernel_depth + 1, self.kernel_depth
            for hs, (row, d) in parts:
                s = den // d
                for ha, c in hs:
                    if ha > H - hb_min:
                        break
                    c *= s
                    for hb, w, x in row:
                        if ha + hb > H:
                            break
                        k = (ha + hb) * stride + w + kd
                        out[k] = get(k, 0) + c * x
            out, den = _reduced({k: c for k, c in out.items() if c}, aden * den)
            return sorted((k // stride, k % stride - kd, c) for k, c in out.items()), den

        return self._memo(("vrow", r0, m, H), build)

    def _edge_factor(self, I: tuple[int, ...], keys: _Keys):
        """_edge_data of I's shape on I's vertices, for the product of
        graph_sum: (groups, den, hlow, wlow).  The hbar position goes to
        the hbar field, and the w and u positions of the shape's slot j to
        the w and u fields of I's j-th distinct vertex.  The terms are
        integer numerators over den, grouped by their w-exponents; a group is
        (delta of the w- and total-degree fields, hbar exponents, [(delta
        of the hbar and u fields, numerator)]), sorted by the hbar
        exponent.  hlow is the lowest hbar exponent and wlow {vertex:
        lowest w-exponent} over I's vertices."""
        shape, slots = shape_of(I)

        def build():
            nums, den = self._edge_data(shape)
            s = len(slots)
            woffs = [keys.offs[keys.w(j)] for j in slots]
            huoffs = [keys.offs[_H]] + [keys.offs[keys.u(j)] for j in slots]
            by_w: dict[tuple, list] = {}
            for e, c in nums.items():
                by_w.setdefault(e[1:s + 1], []).append(
                    (e[0], sum(map(lshift, (e[0],) + e[s + 1:], huoffs)), c))
            groups = []
            for ew, terms in by_w.items():
                terms.sort()
                wd = sum(map(lshift, ew, woffs)) + (sum(ew) << keys.offs[keys.tw])
                groups.append((wd, [t[0] for t in terms], [t[1:] for t in terms]))
            wlow = {j: min(ew[p] for ew in by_w) for p, j in enumerate(slots)} if by_w else {}
            return groups, den, min((e[0] for e in nums), default=0), wlow

        return self._memo(("edgerows", tuple(I), keys.width, keys.bias), build)

    def graph_sum(self, graph_list, T: int) -> tuple[dict[tuple, int], int]:
        """sum over graphs g of the product of g's edge weights, divided by
        |Aut g|, through the operators of every vertex, at hbar^T and at
        every w-exponent up to D, under the budgets of the module
        docstring.  The vertex operators and the cuts are linear, so the
        vertex chain runs once, on the 1/|Aut|-weighted sum of the budgeted
        edge products.  Returns the hbar^T order alone, as ({(w_0, ...,
        w_(n-1) exponents): integer numerator}, den)."""
        graph_list = list(graph_list)
        n, D, kd = self.n, self.D, self.kernel_depth
        ha, hb = self._h_floors()
        floor = ha + hb
        E = max((len(g.edges) for g in graph_list), default=0)
        bias = kd * E + n + 1
        keys = _Keys(n, bias, (2 * bias + 2 * (self.K + D + kd) * (E + 1)).bit_length() + 1)
        # the edge products, cut after each factor, over one denominator
        factors = [[self._edge_factor(I, keys) for I in g.edges] for g in graph_list]
        dens = []
        for g, fs in zip(graph_list, factors):
            d = g.aut_order()
            for f in fs:
                d *= f[1]
            dens.append(d)
        den = lcm(*dens)
        L, G = keys.lower({keys.w(i): -kd for i in range(n)})  # the lower w cut
        total: dict[int, int] = {}
        for fs, d in zip(factors, dens):
            state = self._edge_product(fs, keys, T - n * floor)
            scale = den // d
            for k, v in state.items():
                if (k + L) & G == G:
                    total[k] = total.get(k, 0) + v * scale
        state = {k: v for k, v in total.items() if v}
        # every vertex operator is read to the same order H: vertex i meets
        # hbar^a with a >= hmin + i * floor and is read to
        # hbar^(T - (n - 1 - i) * floor - a)
        hmin = min((keys.field(k, _H) for k in state), default=0)
        H = T - (n - 1) * floor - hmin
        if H - hb > self.K - 1 or H - ha > self.K:
            raise TruncationError("the vertex operators are needed past hbar^K")
        for i in range(n):
            state, den = self._vertex_pass(state, den, i, keys, T - (n - 1 - i) * floor,
                                           i == n - 1, H)
        return {tuple(keys.field(k, keys.w(i)) for i in range(n)): v for k, v in state.items()}, den

    def _edge_product(self, factors, keys: _Keys, hcut: int) -> dict[int, int]:
        """One graph's edge product from the constant 1, as {key: integer
        numerator} over the product of the factors' denominators.  After
        each factor the hbar orders above hcut - (the remaining factors'
        lowest hbar exponents), the w_i exponents above D - (their negative
        w_i reach) and the total degrees above D are dropped."""
        n, D = self.n, self.D
        cuts = []
        cut_w = [D] * n
        for f in reversed(factors):
            cuts.append((hcut, list(cut_w)))
            hcut -= f[2]
            for i, x in f[3].items():
                cut_w[i] -= min(0, x)
        state = {keys.zero: 1}
        hoff, mask, bias = keys.offs[_H], keys.mask, keys.bias
        for (groups, _, _, wlow), (hc, cw) in zip(factors, reversed(cuts)):
            M, G = keys.upper({keys.w(i): cw[i] for i in wlow} | {keys.tw: D})
            nxt: dict[int, int] = {}
            get = nxt.get
            for ka, va in state.items():
                room = hc + bias - ((ka >> hoff) & mask)
                for wd, hs, terms in groups:
                    t = ka + wd
                    if (t + M) & G:
                        continue
                    for hud, vb in terms[:bisect_right(hs, room)]:
                        k = t + hud
                        nxt[k] = get(k, 0) + va * vb
            state = nxt
        return state

    def _vertex_pass(self, state: dict, den: int, i: int, keys: _Keys, hcut: int, last: bool,
                     H: int):
        """The vertex operator at vertex i on {key: numerator} over den:
        each term's local monomial hbar^a u_i^r w_i^m goes through
        _vertex_row, up to hbar^hcut (at hbar^hcut alone when last), and the
        terms with w_i or the total degree above D are dropped."""
        oh, ou, ow = keys.offs[_H], keys.offs[keys.u(i)], keys.offs[keys.w(i)]
        mask, bias = keys.mask, keys.bias
        groups: dict[tuple, list] = {}
        for k, v in state.items():
            loc = ((k >> oh) & mask, (k >> ou) & mask, (k >> ow) & mask)
            g = groups.get(loc)
            if g is None:
                g = groups[loc] = []
            g.append((k, v))
        rows = {}
        for fh, fu, fw in groups:
            a, r0, m = fh - bias, fu - bias, fw - bias
            row, d = self._vertex_row(r0, m, H)
            hs = [x[0] for x in row]
            top = hcut - a
            lo = bisect_left(hs, top) if last else 0
            rows[fh, fu, fw] = [(keys.delta([(_H, dh), (keys.u(i), -r0), (keys.w(i), w - m),
                                             (keys.tw, w - m)]), c)
                                for dh, w, c in row[lo:bisect_right(hs, top)]], d
        rden = lcm(*(d for _, d in rows.values()))
        M, G = keys.upper({keys.w(i): self.D, keys.tw: self.D})
        nxt: dict[int, int] = {}
        get = nxt.get
        for loc, items in groups.items():
            row, d = rows[loc]
            s = rden // d
            row = [(delta, c * s) for delta, c in row]
            for k, v in items:
                for delta, c in row:
                    t = k + delta
                    if (t + M) & G:
                        continue
                    nxt[t] = get(t, 0) + v * c
        nxt = {k: v for k, v in nxt.items() if v}
        g = gcd(den * rden, *nxt.values())
        return {k: v // g for k, v in nxt.items()}, den * rden // g

    # -- n = 1 correction -------------------------------------------------------------
    def delta_series(self, g2: int) -> tuple[dict[tuple, int], int]:
        """Delta_g(X) in the w-picture: [hbar^(2g)] sum_m (P w d/dw)^m
        ( [v^(m+1)] exp(E_B)|_{y=C} * P w d/dw C ), on integer rows, as
        ({(w_0 exponent,): numerator}, den)."""
        D = self.D
        B, bden = self._by_rows(0, g2)
        B = {e: c for e, c in B.items() if e[0] == g2 and e[1] >= 1}
        P, pden = self._P_rows()
        C, cden = _int_rows(self.C_coeffs())
        pc = _w_product(P, {k: k * c for k, c in C.items()}, D)
        vmax = max((v for _, v, _ in B), default=1)
        out: dict[int, int] = {}
        for (_, v, wb), c in B.items():
            c *= pden ** (vmax - v)
            for p, y in pc.items():
                for w, x in self._pwd_power(v - 1, wb + p)[0].items():
                    out[w] = out.get(w, 0) + c * y * x
        return {(w,): c for w, c in out.items() if c}, bden * pden * cden * pden ** (vmax - 1)

    # -- re-expansion ------------------------------------------------------------------
    def _w_of_x_row(self, e: int) -> list[tuple[int, Fraction]]:
        """w(X)^e to X^D, as (exponent, coefficient) pairs in ascending
        order, for -kernel_depth <= e <= D.  With w = X phi(X), phi(0) = 1,
        w^e = X^e phi^e, and phi^e comes from the power next to it toward 0
        (memoised), cut at X^(D + kernel_depth) for e < 0."""

        def power(e):
            def build():
                if e == 0:
                    return {0: Fraction(1)}
                if e > 0:
                    return _w_product(power(e - 1), power(1) if e > 1 else phi(), self.D)
                top = self.D + self.kernel_depth
                inv = power(-1) if e < -1 else inverse_coeffs(phi(), top)
                return _w_product(power(e + 1), inv, top) if e < -1 else inv

            return self._memo(("phipow", e), build)

        def phi():
            wc = self.w_of_x_coeffs(self.D + self.kernel_depth + 1)
            return {k - 1: c for k, c in wc.items()}

        return sorted((e + j, c) for j, c in power(e).items() if c and e + j <= self.D)

    def reexpand(self, rows: dict[tuple, int], den: int) -> tuple[dict[tuple, int], int]:
        """Substitute w_i = w(X_i) for every variable of the terms {(w_0,
        ..., w_(n-1) exponents): integer numerator} over den, and return
        the X-terms in the same form.  Terms with an exponent outside
        [-kernel_depth, D] are dropped first; then, one variable at a time,
        each term's w_i^e becomes the row of w(X_i)^e, on integer
        numerators over one denominator, and the terms above D in that
        variable or in total degree are dropped: a valuation-1 substitution
        never lowers an exponent."""
        D, kd = self.D, self.kernel_depth
        state = {e: v for e, v in rows.items() if all(-kd <= x <= D for x in e)}
        for i in range(self.n):
            powers = {x: self._w_of_x_row(x) for x in {e[i] for e in state}}
            rden = lcm(*(c.denominator for row in powers.values() for _, c in row))
            powers = {x: [(j, c.numerator * (rden // c.denominator)) for j, c in row]
                      for x, row in powers.items()}
            nxt: dict[tuple, int] = {}
            get = nxt.get
            for e, v in state.items():
                room = D - sum(e) + e[i]
                head, tail = e[:i], e[i + 1:]
                for j, c in powers[e[i]]:
                    if j > room:
                        break
                    k = head + (j,) + tail
                    nxt[k] = get(k, 0) + v * c
            state = {k: v for k, v in nxt.items() if v}
            den *= rden
        return state, den

    # -- table extraction -----------------------------------------------------------------
    def extract_table(self, rows: dict[tuple, int], den: int, g2: int) -> CoefficientTable:
        """Read F_{g; k_1..k_n} off the X-terms {(exponents of X_0, ...,
        X_(n-1)): integer numerator} over den.

        Entries with any exponent above D are beyond the reliable depth
        (kernel truncation) and skipped; within that range, surviving
        negative or vanishing exponents indicate a bug and raise, and so
        do unequal coefficients at the orderings of one partition.
        """
        out: CoefficientTable = {}
        seen: dict[tuple, dict] = {}
        for exps, v in rows.items():
            if any(x > self.D for x in exps):
                continue
            if any(x < 0 for x in exps):
                raise AssertionError("negative exponent survived: %r -> %s" % (exps, Fraction(v, den)))
            if any(x == 0 for x in exps):
                raise AssertionError("vanishing exponent survived: %r -> %s" % (exps, Fraction(v, den)))
            if sum(exps) > self.D:
                continue
            seen.setdefault(sort_to_partition(exps), {})[exps] = Fraction(v, den)
        for key, by_order in seen.items():
            vals = set(by_order.values())
            if len(vals) != 1:
                raise AssertionError("asymmetric coefficients at %r: %r" % (key, by_order))
            out[(g2, key)] = next(iter(vals))
        return out
