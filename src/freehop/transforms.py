"""The master moment/cumulant transform in its equivalent forms, and the
tree/graph functional-relation routes.

Routes between a cumulant table and a moment table:

- hurwitz:     Z(lam) = z(lam) sum_nu H^<(lam, nu) Z_dual(nu), inverted
               with the weakly monotone series; computed without tables
               as a chi-transform, the content multiplier and back;
- convolution: Phi = zeta_hbar (*) Phi_dual on PS(d) (and the Moebius
               inverse Phi_dual = mu_hbar (*) Phi), evaluated only at the
               one-block targets (1_d, pi_lam) from the factorization
               counts of pscore.target_factorizations; the inverse is a
               triangular solve, degree by degree, so neither direction
               builds tables over PS(d);
- schur:       the same kernel, under its Schur-basis name;
- formula:     the tree (genus 0), graph (all genus) and special-tree
               (genus 1/2) functional relations and their duals; the
               genus-0 and genus-1/2 tree sums are one leaf contraction
               (_leaf_contraction), over the trees or the special trees.

Z-tables attach hbar^(d + ell(lam)) * z(lam) times the monomial coefficient
of p_lam; equivalently Z(lam) = sum over partitions A of the cycle set of
pi_lam of products of block values

    B(mu) = hbar^(|mu| + ell(mu) - 2 + g2) F_{g2; mu},

which pins all gradings against the classical moment-cumulant relations.
The Z-assembly never lists those set partitions.  It recurses on the block
that holds the first cycle: with nu = (a, rho),

    Z(nu) = sum over sub-multisets T of rho of c_T B(a u T) Z(rho - T),
    Z(()) = 1,

where c_T = prod_k C(m_k(rho), t_k) counts the sets of cycles of rho whose
lengths form T.  Its inverse peels the T = rho term off the same sum.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm

from . import graphs, pscore, symcore
from .hbar import HbarSeries
from .operators import Evaluator, _distinct_permutations
from .series import INF, Series, series_sum
from .symcore import Partition, sort_to_partition
from .tables import CoefficientTable, table_get


# ---------------------------------------------------------------------------
# partition-function tables


def blockvalue_series(table: CoefficientTable, mu: Partition, K: int) -> HbarSeries:
    """Value of the multiplicative function on a one-block partitioned
    permutation of cycle type mu, as an hbar-series."""
    base = sum(mu) + len(mu) - 2
    coeffs = {}
    for g2 in range(0, K - base + 1):
        v = table_get(table, g2, mu)
        if v:
            coeffs[base + g2] = v
    return HbarSeries(coeffs, K)


def _splits(rho: Partition):
    """The sub-multisets T of the partition rho, each with the rest rho - T
    and the count c_T = prod_k C(m_k(rho), t_k) of sets of rho's parts, as
    distinct cycles, whose lengths form T.

    >>> for T, rest, c in _splits((2, 1, 1)):
    ...     print(T, rest, c)
    () (2, 1, 1) 1
    (1,) (2, 1) 2
    (1, 1) (2,) 1
    (2,) (1, 1) 1
    (2, 1) (1,) 2
    (2, 1, 1) () 1
    """
    mult = Counter(rho)  # distinct parts in descending order
    for ts in product(*(range(m + 1) for m in mult.values())):
        T, rest, c = (), (), 1
        for (k, m), t in zip(mult.items(), ts):
            T += (k,) * t
            rest += (k,) * (m - t)
            c *= comb(m, t)
        yield T, rest, c


def _z_assembly(table: CoefficientTable, K: int):
    """Z as a function of a partition, memoised on the sub-multisets it
    recurses through and on the block values it reads."""
    block: dict[Partition, HbarSeries] = {}
    z: dict[Partition, HbarSeries] = {(): HbarSeries.one(K)}

    def Z(nu: Partition) -> HbarSeries:
        if nu not in z:
            acc = HbarSeries.zero(K)
            for T, rest, c in _splits(nu[1:]):
                mu = nu[:1] + T
                if mu not in block:
                    block[mu] = blockvalue_series(table, mu, K)
                if not block[mu].is_zero():
                    term = block[mu] * Z(rest)
                    acc = acc + (term * c if c > 1 else term)
            z[nu] = acc
        return z[nu]

    return Z


def z_value(table: CoefficientTable, nu: Partition, K: int) -> HbarSeries:
    """Z(nu): the sum over set partitions of the cycle set of pi_nu of block
    value products, computed by the first-block recursion

        Z(nu) = sum_{T sub-multiset of rho} c_T B(nu_1 u T) Z(rho - T),

    rho = nu minus its largest part nu_1, c_T = prod_k C(m_k(rho), t_k)."""
    return _z_assembly(table, K)(sort_to_partition(nu))


def z_table(table: CoefficientTable, d: int, K: int) -> dict[Partition, HbarSeries]:
    """Z(nu) for every nu |- d, sharing one memo of the recursion."""
    Z = _z_assembly(table, K)
    return {nu: Z(nu) for nu in symcore.partitions(d)}


def table_from_z(ztabs: dict[Partition, HbarSeries], dmax: int, K: int, g2max: int) -> CoefficientTable:
    """Invert the Z-assembly, degree by degree: with nu = (a, rho),

        B(nu) = Z(nu) - sum_{T != rho} c_T B(a u T) Z(rho - T),

    where each B(a u T) is of lower degree and each Z(rho - T) is an input
    value; then read the F-table off the hbar gradings of the B(nu)."""
    block: dict[Partition, HbarSeries] = {}
    out: CoefficientTable = {}
    for d in range(1, dmax + 1):
        for nu in symcore.partitions(d):
            acc = ztabs[nu]
            for T, rest, c in _splits(nu[1:]):
                if rest and not block[nu[:1] + T].is_zero():
                    term = block[nu[:1] + T] * ztabs[rest]
                    acc = acc - (term * c if c > 1 else term)
            block[nu] = acc
            _store(out, nu, acc, g2max, K)
    return out


def _store(out: CoefficientTable, lam: Partition, val: HbarSeries, g2max: int, K: int):
    """Read the entries F_{g2; lam}, g2 <= g2max, off the hbar gradings of
    a block value known to hbar^K."""
    base = sum(lam) + len(lam) - 2
    for g2 in range(0, min(g2max, K - base) + 1):
        v = val.coeff(base + g2)
        if v:
            out[(g2, lam)] = v


def required_K(dmax: int, g2max: int) -> int:
    """The highest hbar order the master routes read off: F_{g2; lam} sits
    at hbar^(|lam| + len(lam) - 2 + g2), which over |lam| <= dmax and
    g2 <= g2max is largest at lam = (1^dmax), g2 = g2max.  A working
    truncation below it drops entries."""
    return 2 * dmax - 2 + g2max


def default_K(dmax: int, g2max: int) -> int:
    return required_K(dmax, g2max) + 1


# ---------------------------------------------------------------------------
# routes: hurwitz and schur, one content-multiplier kernel


def _content_transform(table: CoefficientTable, dmax: int, g2max: int, K: int | None,
                       inverse: bool) -> CoefficientTable:
    """z(lam) sum_nu H(lam, nu) Z(nu), H the strictly (weakly) monotone
    Hurwitz series, as a chi-transform.  A central element acts on the
    irreducible rho |- d by a scalar, so with b_nu = Z(nu) / z(nu)

        Z'(lam) = sum_rho chi^rho(lam) m_rho sum_nu chi^rho(nu) b_nu,

    m_rho = prod over the cells of rho of (1 + hbar c), c the content, or
    its inverse when ``inverse`` is set."""
    K = default_K(dmax, g2max) if K is None else K
    mult = symcore.content_polynomial_inverse if inverse else symcore.content_polynomial
    Z = _z_assembly(table, K)
    zero = HbarSeries.zero(K)
    ztabs: dict[Partition, HbarSeries] = {(): HbarSeries.one(K)}
    for d in range(1, dmax + 1):
        parts = symcore.partitions(d)
        chars = symcore.character_table(d)  # row rho, column nu
        b = [Z(nu) / symcore.z_factor(nu) for nu in parts]
        c = [sum((v * x for x, v in zip(row, b) if x), zero) * mult(rho, K) for rho, row in zip(parts, chars)]
        for lam, col in zip(parts, zip(*chars)):
            ztabs[lam] = sum((v * x for x, v in zip(col, c) if x), zero)
    return table_from_z(ztabs, dmax, K, g2max)


def master_forward(cum_table: CoefficientTable, dmax: int, g2max: int, K: int | None = None) -> CoefficientTable:
    """Moments from cumulants via strictly monotone Hurwitz numbers."""
    return _content_transform(cum_table, dmax, g2max, K, inverse=False)


def master_inverse(mom_table: CoefficientTable, dmax: int, g2max: int, K: int | None = None) -> CoefficientTable:
    """Cumulants from moments via weakly monotone Hurwitz numbers."""
    return _content_transform(mom_table, dmax, g2max, K, inverse=True)


def schur_d_oracle(cum_table: CoefficientTable, dmax: int, g2max: int, K: int | None = None,
                   inverse: bool = False) -> CoefficientTable:
    """The master relation in the Schur basis: s_lam is multiplied by
    prod_{(i,j) in lam} (1 + hbar (j - i)), or by its inverse."""
    return _content_transform(cum_table, dmax, g2max, K, inverse)


# ---------------------------------------------------------------------------
# route: convolution on PS(d), evaluated at the one-block targets


def _block_values(table: CoefficientTable, dmax: int, K: int) -> dict[Partition, HbarSeries]:
    return {
        mu: blockvalue_series(table, mu, K)
        for d in range(1, dmax + 1)
        for mu in symcore.partitions(d)
    }


def _term(n: int, col_a: int, types, block: dict[Partition, HbarSeries], K: int) -> HbarSeries:
    """n hbar^|alpha| times the block values of the given cycle types."""
    term = HbarSeries.monomial(n, col_a, K)
    for mu in types:
        term = term * block[mu]
    return term


def convolution_forward(cum_table: CoefficientTable, dmax: int, g2max: int, K: int | None = None) -> CoefficientTable:
    """Moments from cumulants by the extended convolution with zeta_hbar,

        phi(1_d, pi_lam) = sum over alpha beta = pi_lam, B >= 0_beta,
                           0_alpha v B = 1_d of hbar^|alpha| prod_B phi_dual,

    evaluated only at the one-block targets through the factorization
    counts of ``pscore.target_factorizations``."""
    K = default_K(dmax, g2max) if K is None else K
    block = _block_values(cum_table, dmax, K)
    out: CoefficientTable = {}
    for d in range(1, dmax + 1):
        for lam in symcore.partitions(d):
            val = HbarSeries.zero(K)
            for (col_a, types), n in pscore.target_factorizations(lam):
                if col_a <= K:
                    val = val + _term(n, col_a, types, block, K)
            _store(out, lam, val, g2max, K)
    return out


def moebius_inverse_route(mom_table: CoefficientTable, dmax: int, g2max: int, K: int | None = None) -> CoefficientTable:
    """Cumulants from moments: the (*)-inverse of convolution_forward,

        phi_dual = mu_hbar (*) phi,

    solved degree by degree at the one-block targets.  In the expansion of
    phi(1_d, pi_lam) the only term with |alpha| = 0 is phi_dual(1_d, pi_lam)
    itself; the other terms are products of blocks of size < d, known from
    lower degrees, or one block of size d times hbar^(>= 1).  So a
    fixed-point iteration over the p(d) unknowns gains one hbar order per
    pass."""
    K = default_K(dmax, g2max) if K is None else K
    moments = _block_values(mom_table, dmax, K)
    cum: dict[Partition, HbarSeries] = {}
    out: CoefficientTable = {}
    for d in range(1, dmax + 1):
        parts = symcore.partitions(d)
        rest: dict[Partition, HbarSeries] = {}
        same_degree: dict[Partition, list] = {}
        for lam in parts:
            val = moments[lam]
            same_degree[lam] = []
            for (col_a, types), n in pscore.target_factorizations(lam):
                if col_a == 0 or col_a > K:
                    continue
                if len(types) == 1:
                    same_degree[lam].append((n, col_a, types))
                else:
                    val = val - _term(n, col_a, types, cum, K)
            rest[lam] = val
        cur = rest
        for _ in range(K + 1):
            nxt = {}
            for lam in parts:
                val = rest[lam]
                for n, col_a, types in same_degree[lam]:
                    val = val - _term(n, col_a, types, cur, K)
                nxt[lam] = val
            if nxt == cur:
                break
            cur = nxt
        cum.update(cur)
        for lam in parts:
            _store(out, lam, cur[lam], g2max, K)
    return out


# ---------------------------------------------------------------------------
# functional-relation routes (trees, graphs, coefficients)


def _edge_genus0(ev: Evaluator, I: tuple[int, ...], g2: int = 0, shifted: bool = True,
                 depth: int | None = None) -> Series:
    """Genus-fixed hyperedge series: G_{g, #I}(w_I) with the double-pole
    kernel (to the given depth) added for shifted off-diagonal pairs at
    genus 0.  Memoised on the evaluator."""
    m = len(I)
    kernel = shifted and g2 == 0 and m == 2 and I[0] != I[1]

    def build():
        wvars = tuple(sorted({ev.wvars[slot] for slot in I}))
        data: dict[tuple, Fraction] = {}
        for (tg2, ks), val in ev.table.items():
            if tg2 != g2 or len(ks) != m or sum(ks) > ev.D:
                continue
            for comp in _distinct_permutations(ks):
                wexp = dict.fromkeys(wvars, 0)
                for slot, k in zip(I, comp):
                    wexp[ev.wvars[slot]] += k
                e = tuple(wexp.values())
                data[e] = data.get(e, 0) + val
        parts = []
        if data:
            parts.append(Series(wvars, (0,) * len(wvars), (INF,) * len(wvars), data, ev.cap,
                                ev.layout))
        if kernel:
            parts.append(ev.x_kernel(I[0], I[1], depth))
        if not parts:
            return Series.zero((ev.wvars[I[0]],), cap=ev.cap, layout=ev.layout)
        return series_sum(parts)

    return ev._memo(("edge0", tuple(I), g2, kernel, depth if kernel else None), build)


def _tree_product(ev: Evaluator, edges) -> Series | None:
    """The product of the genus-0 hyperedge series of a tree's edges (or of
    the kernel-carrying edges of a special tree), with the kernel depths of
    _tree_kernel_depths; None for no edges."""
    depths = _tree_kernel_depths(edges, ev.D)
    term = None
    for I in edges:
        e = _edge_genus0(ev, I, depth=depths.get(I))
        term = e if term is None else term * e
    return term


def _tree_kernel_depths(edges, D: int) -> dict[tuple[int, ...], int]:
    """Minimal safe kernel depths per tree edge: a kernel's positive side
    must return below degree D through the negative reach of its earlier
    variable, which is fed only by this tree's other kernels."""
    depths: dict[tuple[int, ...], int] = {}
    pairs = [I for I in edges if len(I) == 2 and I[0] != I[1]]

    def depth(I):
        if I not in depths:
            i = I[0]
            depths[I] = D + sum(depth(J) for J in pairs if J[1] == i and J != I)
        return depths[I]

    for I in pairs:
        depth(I)
    return depths


def _binom_factor(k: int, r: int, sign: int) -> Fraction:
    """k!/(k-r)! forward (zero past r = k), (-1)^r (r+k-1)!/(k-1)! dual."""
    if sign > 0:
        if r > k:
            return Fraction(0)
        return Fraction(factorial(k), factorial(k - r))
    return Fraction((-1) ** r * factorial(r + k - 1), factorial(k - 1))


def genus0_moments(table: CoefficientTable, n: int, D: int, sign: int = 1) -> CoefficientTable:
    """All F_{0; k_1..k_n} with total degree <= D by the genus-0 tree
    relation, coefficient-wise over trees with univalent leaves:

        F_{0;k} = [prod w^k] sum_r prod_i binom-factor(k_i, r_i)
                  sum_{T in T_n(r+1)} prod'' G_{0,#I} / prod_i leaves_i!,

    with factor k!/(k-r)! forward and (-1)^r (r+k-1)!/(k-1)! dual; each
    leaf carries one factor (G_{0,1} - 1) of valuation >= 1, so leaves
    beyond total degree D never contribute.  The leaves are summed by
    _leaf_contraction over the trees of enumerate_graphs(n, 0).  sign=-1
    runs the dual direction (cumulants from moments).  On GUE the
    one-point moments are the Catalan numbers:

    >>> from freehop.tables import gue_table
    >>> m = genus0_moments(gue_table(), 1, 6)
    >>> [m[(0, (k,))] for k in (2, 4, 6)]
    [Fraction(1, 1), Fraction(2, 1), Fraction(5, 1)]
    >>> genus0_moments(gue_table(), 2, 2)
    {(0, (1, 1)): Fraction(1, 1)}
    """
    ev = Evaluator(table, n, D, K=2, sign=sign)
    bare = Series.const(ev.wvars, 1, ev.cap, ev.layout)  # the product of no edges
    products = ((tree.valencies(), _tree_product(ev, tree.edges) or bare)
                for tree in graphs.enumerate_graphs(n, 0))
    return _leaf_contraction(ev, products, 0)


# the relations workload of perfbench/run.py calls the genus-0 route by
# this name too
genus0_coefficient_table = genus0_moments


def _leaf_contraction(ev: Evaluator, products, g2: int) -> CoefficientTable:
    """The table at doubled genus g2 of the coefficient-wise relation over
    base trees with univalent leaves, from the (white valencies, edge
    product) pair of each base tree.  The sum over the leaves is contracted
    into one weight per (valency, k_i, exponent) applied to the base tree's
    product; the binomial factors (which depend on the target exponents)
    enter that contraction.
    """
    n, D, sign = ev.n, ev.D, ev.sign
    # leaf-weight matrices: W[v][k][a] = sum_l factor(k, v+l-1)/l! *
    # [w^(k-a)] (C-1)^l, contracting the whole leaf sum at white valency v
    one_pows: list[dict[int, Fraction]] = [{0: Fraction(1)}]
    one = ev.C(0) - Series.const((ev.wvars[0],), 1, ev.cap, ev.layout)
    onec = {e[0]: v for e, v in one.data.items()}
    maxdeg = (n + 1) * D
    for l in range(1, D + 1):
        prev = one_pows[-1]
        cur: dict[int, Fraction] = {}
        for e1, v1 in prev.items():
            for e2, v2 in onec.items():
                e = e1 + e2
                if e <= maxdeg:
                    cur[e] = cur.get(e, Fraction(0)) + v1 * v2
        one_pows.append(cur)

    def weight(v: int, k: int, a: int) -> Fraction:
        total = Fraction(0)
        for l in range(0, D + 1):
            r = v + l - 1
            f = _binom_factor(k, r, sign) if r >= 0 else Fraction(0)
            if f:
                c = one_pows[l].get(k - a)
                if c:
                    total += f * c / factorial(l)
        return total

    wcache: dict[tuple[int, int, int], Fraction] = {}

    def W(v: int, k: int, a: int) -> Fraction:
        key = (v, k, a)
        if key not in wcache:
            wcache[key] = weight(v, k, a)
        return wcache[key]

    def integer_weights(v: int, avals) -> tuple[dict[int, list[int]], int]:
        """W(v, k, a) for k in 1..D and a in avals as integers over one
        denominator: {a: [numerator by k]}, denominator."""
        rows = {a: [W(v, k, a) if k >= 1 else Fraction(0) for k in range(D + 1)] for a in avals}
        den = lcm(*(w.denominator for row in rows.values() for w in row))
        return {a: [int(w * den) for w in row] for a, row in rows.items()}, den

    acc_by_k: dict[tuple[int, ...], Fraction] = {}
    for baseval, term in products:
        # sequential tensor contraction over integer numerators: replace
        # one a_i axis by the k_i axis at a time, weighting with
        # W(v_i, k_i, a_i) over one denominator per axis.  A term reaches
        # only targets with k_i >= max(1, a_i), so one whose exponents
        # need more than degree D is dropped first.
        state, den = ev.prune_w(term).numerators(ev.wvars)
        state = {key: val for key, val in state.items()
                 if sum(max(1, a) for a in key) <= D}
        for i in range(n):
            wrows, wden = integer_weights(baseval[i], {key[i] for key in state})
            den *= wden
            nxt: dict[tuple, int] = {}
            get = nxt.get
            for key, val in state.items():
                head, tail = key[:i], key[i + 1:]
                row = wrows[key[i]]
                kmax = D - sum(head) - (n - 1 - i)
                for k in range(max(1, key[i]), kmax + 1):
                    wgt = row[k]
                    if wgt:
                        nk = head + (k,) + tail
                        nxt[nk] = get(nk, 0) + wgt * val
            state = nxt
        for ks, v in state.items():
            acc_by_k[ks] = acc_by_k.get(ks, 0) + Fraction(v, den)
    for ks in _compositions(n, D):
        acc_by_k.setdefault(ks, Fraction(0))
    out: CoefficientTable = {}
    grouped: dict[tuple, set] = {}
    for ks, v in acc_by_k.items():
        grouped.setdefault(sort_to_partition(ks), set()).add(v)
    for key, vals in grouped.items():
        if len(vals) != 1:
            raise AssertionError("asymmetric coefficient route at %r" % (key,))
        v = next(iter(vals))
        if v:
            out[(g2, key)] = v
    return out


def _compositions(n: int, D: int):
    """Ordered tuples of n positive integers with total <= D."""

    def rec(i, rem):
        if i == n:
            yield ()
            return
        for k in range(1, rem - (n - 1 - i) + 1):
            for rest in rec(i + 1, rem - k):
                yield (k,) + rest

    return list(rec(0, D))


def allgenus_moments(table: CoefficientTable, n: int, g2: int, D: int, sign: int = 1) -> CoefficientTable:
    """The all-genus graph relation for one (g, n) target; g2 is the
    doubled genus.  Covers half-integer genus via odd hbar gradings."""
    if (g2, n) == (0, 1):
        return genus0_moments(table, 1, D, sign)
    T_target = g2 - 2 + n
    if T_target < 0:
        raise ValueError("no hbar^%d sector" % T_target)
    K = T_target + n + 2
    ev = Evaluator(table, n, D, K=K, sign=sign)
    total = ev.graph_sum(graphs.enumerate_graphs(n, g2 // 2), T_target)
    S = total.coeff("h", T_target)
    if n == 1:
        S = S + ev.delta_series(g2)
    S = ev.reexpand(S)
    if (g2, n) == (0, 2):
        S = S - ev.x_kernel(0, 1)
    return ev.extract_table(S, g2)


def _special_tree_product(ev: Evaluator, tree: graphs.Graph) -> Series:
    """The edge product of a special tree: the genus-1/2 series of the
    special hyperedge edges[0] (no kernel) times the genus-0 product of the
    other edges.  That product is memoised on the evaluator by the other
    edges, so the n univalent marks of one tree share their tree's."""
    rest = tree.edges[1:]
    others = ev._memo(("tree", rest), lambda: _tree_product(ev, rest))
    special = _edge_genus0(ev, tree.edges[0], g2=1, shifted=False)
    return special if others is None else special * others


def half_genus_moments_special_trees(table: CoefficientTable, n: int, D: int) -> CoefficientTable:
    """All F_{1/2; k_1..k_n} with total degree <= D by the genus-1/2
    relation over trees with one special black vertex (which may be
    univalent): the special hyperedge carries the genus-1/2 cumulant
    series, all others the genus-0 ones.  The leaves are summed by the
    leaf contraction of genus0_moments, over enumerate_special_trees(n)."""
    ev = Evaluator(table, n, D, K=2)
    products = ((tree.valencies(), _special_tree_product(ev, tree))
                for tree in graphs.enumerate_special_trees(n))
    return _leaf_contraction(ev, products, 1)


# ---------------------------------------------------------------------------
# specialized closed-form cross-checks


def specialized_03(table: CoefficientTable, D: int) -> CoefficientTable:
    """Closed form of the three-point genus-0 relation (the four-tree sum
    written out): star term plus, for each centre i,

        prod_{j != i} P(w_j) * (P w_i d/dw_i)[ (P/C)(w_i)
                                  prod_{j != i} Gt_{0,2}(w_i, w_j) ]."""
    ev = Evaluator(table, 3, D, K=2)
    P = [ev.P(i) for i in range(3)]
    total = ev.prune_w(P[0] * P[1] * P[2] * _edge_genus0(ev, (0, 1, 2)))
    for i in range(3):
        others = [j for j in range(3) if j != i]
        prod = None
        for j in others:
            pair = tuple(sorted((i, j)))
            e = _edge_genus0(ev, pair)
            prod = e if prod is None else prod * e
        inner = ev.P(i) * ev.invC(i) * ev.prune_w(prod)
        term = ev.pwd(inner, i, 1)
        for j in others:
            term = term * P[j]
        total = total + ev.prune_w(term)
    S = ev.reexpand(total)
    return ev.extract_table(S, 0)


def specialized_11(table: CoefficientTable, D: int) -> CoefficientTable:
    """Closed five-term form of the (1,1) relation."""
    ev = Evaluator(table, 1, D, K=4)
    w = ev.wvars[0]
    C = ev.C(0)
    P = ev.P(0)
    invC = ev.invC(0)
    one24 = Fraction(1, 24)
    # G_{1,1} cumulant series
    g11 = ev._w_atom(0, {k: table_get(ev.table, 2, (k,)) for k in range(1, D + 1)})
    # G_{0,2}(w, w): diagonal restriction
    diag = {}
    for (g2, ks), val in ev.table.items():
        if g2 == 0 and len(ks) == 2 and sum(ks) <= D:
            for comp in _distinct_permutations(ks):
                e = comp[0] + comp[1]
                diag[e] = diag.get(e, Fraction(0)) + val
    g02diag = ev._w_atom(0, diag)

    t1 = P * g11
    t2 = ev.pwd(P * invC, 0, 1) * (-one24)
    inner3 = P * invC * invC * C.wdw(w).wdw(w)
    t3 = (ev.pwd(ev.pwd(inner3, 0, 1) - inner3, 0, 1)) * one24
    t4 = ev.pwd(P * invC * g02diag, 0, 1) * Fraction(1, 2)
    inner5 = P * C.wdw(w) * invC * invC
    t5 = (ev.pwd(inner5, 0, 2) - inner5) * (-one24)
    S = ev.reexpand(t1 + t2 + t3 + t4 + t5)
    return ev.extract_table(S, 2)
