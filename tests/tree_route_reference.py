"""The genus-0 and genus-1/2 tree routes of transforms, one tree at a
time: each tree's edge product cut by a bisect over the exponent sums of a
factor's terms and a trial of the exact test per pair (cut_product), and
the leaf contraction run once per tree, with a k range bounded by the
contracted axes alone and one Fraction per tree and ordered k
(leaf_contraction).  These are the references the grouped cut and the
contraction per valency pattern are tested against.  The edge terms come
from transforms._edge_terms, whose content test_tree_product_cut_is_exact
pins against the plain Series product."""

from bisect import bisect_right
from fractions import Fraction
from math import factorial, lcm
from operator import add

from freehop import graphs
from freehop.operators import Evaluator
from freehop.symcore import sort_to_partition
from freehop.transforms import _binom_factor, _compositions, _edge_terms, _tree_kernel_depths


def flat_terms(factor):
    """An _edge_terms factor as (sums, terms, den, pos, reach): terms the
    (exponents, integer numerator, exponents at pos) triples in ascending
    order of their exponent sums, which are sums."""
    groups, den, pos, reach = factor
    terms = sorted(((e, v, [e[i] for i in pos]) for *_, entries in groups for e, v in entries),
                   key=lambda t: sum(t[0]))
    return [sum(e) for e, _, _ in terms], terms, den, pos, reach


def cut_product(ev, factors, start=None):
    """The product of start and the factors as ({exponents: numerator},
    denominator): after each factor a term a is kept when
    sum_i max(1, a_i - r_i) <= D, r the negative reach still to come,
    trying every factor term whose exponent sum fits the budget."""
    D = ev.D
    factors = [flat_terms(f) for f in factors]
    state, den = start if start is not None else ({(0,) * ev.n: 1}, 1)
    reach = [0] * ev.n
    after = []
    for *_, f_reach in reversed(factors):
        after.append(reach)
        reach = [r + x for r, x in zip(reach, f_reach)]
    for (sums, terms, fden, pos, _), r in zip(factors, reversed(after)):
        others = [i for i in range(ev.n) if i not in pos]
        nxt = {}
        for a, va in state.items():
            c = [a[i] - r[i] for i in pos]
            room = D - sum(max(1, a[i] - r[i]) for i in others)
            for b, vb, bp in terms[:bisect_right(sums, room - sum(c))]:
                if sum(max(1, x + y) for x, y in zip(c, bp)) <= room:
                    t = tuple(map(add, a, b))
                    nxt[t] = nxt.get(t, 0) + va * vb
        state, den = nxt, den * fden
    return state, den


def tree_product(ev, edges):
    depths = _tree_kernel_depths(edges, ev.D)
    return cut_product(ev, [_edge_terms(ev, I, depth=depths.get(I)) for I in edges])


def special_tree_product(ev, tree):
    rest = tree.edges[1:]
    others = ev._memo(("reference tree", rest), lambda: tree_product(ev, rest))
    return cut_product(ev, [_edge_terms(ev, tree.edges[0], g2=1)], others)


def leaf_contraction(ev, products, g2):
    """The coefficient-wise relation, one base tree at a time: each tree's
    product is contracted axis by axis with the leaf weights W(v_i, k_i,
    a_i), k_i up to D - sum(head) - (n - 1 - i), and added to the ordered-k
    totals as one Fraction per tree and k."""
    n, D, sign = ev.n, ev.D, ev.sign
    cs = {e: c for e, c in ev.C_coeffs().items() if e}
    den_c = lcm(*(c.denominator for c in cs.values()))
    base = [(e, c.numerator * (den_c // c.denominator)) for e, c in sorted(cs.items())]
    top = (n + 1) * D
    pows = [[1] + [0] * top]
    for _ in range(D):
        cur = [0] * (top + 1)
        for e1, v1 in enumerate(pows[-1]):
            if v1:
                for e2, v2 in base:
                    if e1 + e2 > top:
                        break
                    cur[e1 + e2] += v1 * v2
        pows.append(cur)
    wden = factorial(D) * den_c ** D
    scale = [factorial(D) // factorial(l) * den_c ** (D - l) for l in range(D + 1)]
    rows = {}

    def row(v, a):
        if (v, a) not in rows:
            rows[v, a] = [
                sum(_binom_factor(k, v + l - 1, sign) * pows[l][k - a] * scale[l]
                    for l in range(max(0, 1 - v), D + 1) if pows[l][k - a])
                if k >= max(1, a) else 0
                for k in range(D + 1)
            ]
        return rows[v, a]

    low = -ev.kernel_depth
    acc_by_k = {}
    for baseval, (state, den) in products:
        state = {key: val for key, val in state.items()
                 if sum(max(1, a) for a in key) <= D and min(key) >= low}
        for i in range(n):
            den *= wden
            nxt = {}
            for key, val in state.items():
                head, tail = key[:i], key[i + 1:]
                wrow = row(baseval[i], key[i])
                kmax = D - sum(head) - (n - 1 - i)
                for k in range(max(1, key[i]), kmax + 1):
                    if wrow[k]:
                        nk = head + (k,) + tail
                        nxt[nk] = nxt.get(nk, 0) + wrow[k] * val
            state = nxt
        for ks, v in state.items():
            acc_by_k[ks] = acc_by_k.get(ks, 0) + Fraction(v, den)
    for ks in _compositions(n, D):
        acc_by_k.setdefault(ks, Fraction(0))
    out, grouped = {}, {}
    for ks, v in acc_by_k.items():
        grouped.setdefault(sort_to_partition(ks), set()).add(v)
    for key, vals in grouped.items():
        if len(vals) != 1:
            raise AssertionError("asymmetric coefficient route at %r" % (key,))
        v = next(iter(vals))
        if v:
            out[(g2, key)] = v
    return out


def genus0_moments(table, n, D, sign=1):
    if n > D:
        return {}
    ev = Evaluator(table, n, D, K=2, sign=sign)
    products = ((tree.valencies(), tree_product(ev, tree.edges))
                for tree in graphs.enumerate_graphs(n, 0))
    return leaf_contraction(ev, products, 0)


def half_genus_moments_special_trees(table, n, D):
    if n > D:
        return {}
    ev = Evaluator(table, n, D, K=2)
    products = ((tree.valencies(), special_tree_product(ev, tree))
                for tree in graphs.enumerate_special_trees(n))
    return leaf_contraction(ev, products, 1)
