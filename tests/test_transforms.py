from fractions import Fraction
from math import lcm

import pytest

import graph_sum_reference
import hbar_reference
import pscore_reference
import tree_route_reference
from freehop import graphs, oracles, pscore, symcore, tables
from freehop.hurwitz import hurwitz_table
from freehop.operators import Evaluator
from freehop.tables import gue_table, random_table, restrict_table, table_equal, table_get
from freehop.hbar import Bounds, Packed
from freehop.transforms import (
    _allgenus_rows,
    _block_rows,
    _peel,
    _special_tree_product,
    _tree_kernel_depths,
    _tree_product,
    _z_rows,
    allgenus_moments,
    convolution_forward,
    genus0_moments,
    half_genus_moments_special_trees,
    master_forward,
    master_inverse,
    moebius_inverse_route,
    required_K,
    schur_d_oracle,
)
from graph_sum_reference import edge_genus0, specialized_03, specialized_11
from hbar_reference import HbarSeries
from series_reference import Series


def F(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# partition-function plumbing, and its HbarSeries-facing references


def blockvalue_series(table, mu, K):
    """Value of the multiplicative function on a one-block partitioned
    permutation of cycle type mu, as an hbar-series."""
    base = sum(mu) + len(mu) - 2
    return HbarSeries({base + g2: table_get(table, g2, mu) for g2 in range(0, K - base + 1)}, K)


def z_table(table, d, K):
    """Z(nu) as an hbar-series for every nu |- d, from one run of the
    first-block recursion of _z_rows on packed rows, at the slot width
    that a run on Bounds gives for them."""
    block, qpow = _block_rows(table, d, K)
    bounds = Bounds(K)
    zb, _ = _z_rows(block, qpow, d, bounds)
    ring = Packed(K, max(zb.values()).bit_length() + 1)
    z, den = _z_rows(block, qpow, d, ring)
    return {nu: hbar_reference.from_numerators(ring.read(z[nu], 0, K + 1), den(nu), K)
            for nu in symcore.partitions(d)}


def z_value(table, nu, K):
    return z_table(table, sum(nu), K)[symcore.sort_to_partition(nu)]


def table_from_z(ztabs, dmax, K, g2max):
    """The F-table, g2 <= g2max, of Z-values known to hbar^K, read off by
    _peel from their numerators over one denominator per degree, packed at
    the slot width that a run of _peel on Bounds gives."""
    z, dens = {}, [1]
    for d in range(1, dmax + 1):
        rows = {nu: hbar_reference.numerators(ztabs[nu], K) for nu in symcore.partitions(d)}
        q = lcm(*(rden for _, rden in rows.values()))
        dens.append(q)
        for nu, (row, rden) in rows.items():
            z[nu] = [v * (q // rden) for v in row]
    bounds = Bounds(K)
    _peel({nu: bounds.row(row) for nu, row in z.items()}, dens, dmax, g2max, bounds)
    ring = Packed(K, bounds.width())
    return _peel({nu: ring.row(row) for nu, row in z.items()}, dens, dmax, g2max, ring)


def test_z_empty_is_one():
    assert z_value(gue_table(), (), 6) == HbarSeries.one(6)


def test_blockvalue_grading():
    t = {(0, (1,)): F(3)}
    bv = blockvalue_series(t, (1,), 6)
    # |(1_1, id)| = 0
    assert bv.coeff(0) == 3
    t2 = {(2, (2,)): F(5)}
    bv2 = blockvalue_series(t2, (2,), 6)
    # base 2 + 1 - 2 = 1, plus doubled genus 2
    assert bv2.coeff(3) == 5


def test_z_table_roundtrip_random():
    for seed in (1, 2, 3):
        t = random_table(seed=seed, nmax=4, degmax=4, g2max=2)
        K = 12
        ztabs = {(): HbarSeries.one(K)}
        for d in range(1, 5):
            ztabs.update(z_table(t, d, K))
        back = table_from_z(ztabs, 4, K, 2)
        assert back == restrict_table(t, deg=4, g2=2)


def _z_by_set_partitions(table, nu, K):
    """Z(nu) by its definition: the sum over all set partitions of the
    cycles of pi_nu of products of block values."""
    out, values = HbarSeries.zero(K), {}
    for grouping in pscore_reference.set_partitions_of(len(nu)):
        term = HbarSeries.one(K)
        for blk in grouping:
            mu = symcore.sort_to_partition(nu[i] for i in blk)
            if mu not in values:
                values[mu] = blockvalue_series(table, mu, K)
            term = term * values[mu]
        out = out + term
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_z_assembly_matches_set_partition_sum(seed):
    t = random_table(seed=70 + seed, nmax=6, degmax=6, g2max=2)
    for K in (3, required_K(6, 2), required_K(6, 2) + 1):
        ztabs = {(): HbarSeries.one(K)}
        for d in range(1, 7):
            zt = z_table(t, d, K)
            for nu in symcore.partitions(d):
                want = _z_by_set_partitions(t, nu, K)
                for got in (zt[nu], z_value(t, nu, K)):
                    assert (got.c, got.K) == (want.c, want.K)
                ztabs[nu] = want
        # the inverse reads back every entry whose hbar order is within K
        want = {
            (g2, ks): v for (g2, ks), v in restrict_table(t, deg=6, g2=2).items()
            if sum(ks) + len(ks) - 2 + g2 <= K
        }
        assert table_from_z(ztabs, 6, K, 2) == want


def test_master_schur_roundtrip_degree_8():
    t = random_table(seed=73, nmax=8, degmax=8, g2max=2)
    m = master_forward(t, 8, 2)
    assert schur_d_oracle(m, 8, 2, inverse=True) == restrict_table(t, deg=8, g2=2)


# ---------------------------------------------------------------------------
# classical anchors


def test_first_order_moment_cumulant_anchor():
    # m1 = k1; m2 = k2 + k1^2; m3 = k3 + 3 k1 k2 + k1^3
    t = {(0, (1,)): F(1, 2), (0, (2,)): F(3), (0, (3,)): F(5)}
    m = master_forward(t, 3, 0)
    k1, k2, k3 = F(1, 2), F(3), F(5)
    assert m[(0, (1,))] == k1
    assert m[(0, (2,))] == k2 + k1 ** 2
    assert m[(0, (3,))] == k3 + 3 * k1 * k2 + k1 ** 3


def test_gue_master_matches_gluing_oracle():
    mt = master_forward(gue_table(), 8, 4)
    want = oracles.gue_moments_by_gluing(4)
    for key, v in want.items():
        assert mt.get(key, F(0)) == v
    # catalan and Harer-Zagier rows explicitly
    assert [mt[(0, (2 * k,))] for k in (1, 2, 3, 4)] == [1, 2, 5, 14]
    assert [mt[(2, (2 * k,))] for k in (2, 3, 4)] == [1, 10, 70]
    assert mt[(4, (8,))] == 21


def test_master_forward_d1_identity():
    t = {(0, (1,)): F(7)}
    m = master_forward(t, 1, 0)
    assert m == t


@pytest.mark.parametrize("dmax", [0, -1])
def test_routes_below_degree_one_are_empty(dmax):
    # every entry has degree >= 1: all four routes agree on the empty table
    for route in (master_forward, master_inverse, convolution_forward, moebius_inverse_route):
        assert route({}, dmax, 0) == {}
        assert route(gue_table(), dmax, 2) == {}


@pytest.mark.parametrize("route", [
    master_forward, master_inverse, convolution_forward, moebius_inverse_route,
    lambda t, d, g2: schur_d_oracle(t, d, g2, inverse=True),
    lambda t, d, g2: genus0_moments(t, 2, d), lambda t, d, g2: genus0_moments(t, 2, d, sign=-1),
    lambda t, d, g2: allgenus_moments(t, 2, 1, d), lambda t, d, g2: allgenus_moments(t, 2, 1, d, sign=-1),
    lambda t, d, g2: half_genus_moments_special_trees(t, 2, d),
], ids=["master-c2m", "master-m2c", "convolution-c2m", "moebius-m2c", "schur-m2c", "genus0-c2m",
        "genus0-m2c", "allgenus-c2m", "allgenus-m2c", "half-genus-c2m"])
def test_routes_reject_keys_out_of_partition_order(route):
    # an entry under (1, 2) would be missed by a lookup of (2, 1), or read
    # besides it
    assert route({(0, (2, 1)): F(1), (0, (1, 1)): F(1), (1, (1,)): F(2)}, 3, 1)
    for bad in ({(0, (1, 2)): F(1)}, {(0, (1, 2)): F(1), (0, (2, 1)): F(1)}):
        with pytest.raises(ValueError, match="not weakly decreasing"):
            route(bad, 3, 1)


# ---------------------------------------------------------------------------
# route equivalences


@pytest.mark.parametrize("seed", [0, 1])
def test_four_route_equivalence(seed):
    t = random_table(seed=40 + seed, nmax=4, degmax=4, g2max=3)
    g2 = 3
    m_h = master_forward(t, 4, g2)
    m_c = convolution_forward(t, 4, g2)
    m_s = schur_d_oracle(t, 4, g2)
    assert table_equal(m_h, m_c, deg=4, g2=g2)
    assert table_equal(m_h, m_s, deg=4, g2=g2)
    want = restrict_table(t, deg=4, g2=g2)
    assert table_equal(master_inverse(m_h, 4, g2), want, deg=4, g2=g2)
    assert table_equal(moebius_inverse_route(m_h, 4, g2), want, deg=4, g2=g2)


def _hurwitz_number_sum(table, dmax, g2max, kind):
    """The master relation in its Hurwitz-number form,
    Z'(lam) = z(lam) sum_nu H(lam, nu) Z(nu), with H the strictly (weakly)
    monotone series of hurwitz_table, read back to an F-table."""
    K = required_K(dmax, g2max)
    ztabs = {(): HbarSeries.one(K)}
    for d in range(1, dmax + 1):
        H = {k: hbar_reference.from_numerators(*v, K) for k, v in hurwitz_table(d, kind, K).items()}
        Z = z_table(table, d, K)
        for lam in symcore.partitions(d):
            acc = HbarSeries.zero(K)
            for nu in symcore.partitions(d):
                acc = acc + H[(lam, nu)] * Z[nu]
            ztabs[lam] = acc * symcore.z_factor(lam)
    return table_from_z(ztabs, dmax, K, g2max)


@pytest.mark.parametrize("seed", [0, 1, "gue"])
@pytest.mark.parametrize("dmax, g2max", [(6, 3), (4, 0)])
def test_master_routes_equal_hurwitz_number_sum(seed, dmax, g2max):
    t = gue_table() if seed == "gue" else random_table(seed=90 + seed, nmax=6, degmax=6, g2max=3)
    m = master_forward(t, dmax, g2max)
    assert _hurwitz_number_sum(t, dmax, g2max, "strict") == m
    assert _hurwitz_number_sum(m, dmax, g2max, "weak") == master_inverse(m, dmax, g2max)


def _object_content_transform(table, dmax, g2max, inverse):
    """The master routes' chi-transform on HbarSeries objects, as they ran
    before the integer-row kernel: Z by its set-partition definition, the
    content multipliers as products of series, the loop over characters
    on series, and the peel over set partitions with two or more blocks."""
    K = required_K(dmax, g2max)
    zero, one = HbarSeries.zero(K), HbarSeries.one(K)

    def mult(rho):
        m = one
        for c in symcore.contents(rho):
            m = m * HbarSeries({0: 1, 1: c}, K)
        return hbar_reference.inverse(m) if inverse else m

    ztabs = {(): one}
    for d in range(1, dmax + 1):
        parts = symcore.partitions(d)
        chars = symcore.character_table(d)  # row rho, column nu
        b = [hbar_reference.divide(_z_by_set_partitions(table, nu, K), symcore.z_factor(nu)) for nu in parts]
        c = [sum((v * x for x, v in zip(row, b) if x), zero) * mult(rho) for rho, row in zip(parts, chars)]
        for lam, col in zip(parts, zip(*chars)):
            ztabs[lam] = sum((v * x for x, v in zip(col, c) if x), zero)
    block, out = {}, {}
    for d in range(1, dmax + 1):
        for nu in symcore.partitions(d):
            acc = ztabs[nu]
            for grouping in pscore_reference.set_partitions_of(len(nu)):
                if len(grouping) > 1:
                    term = one
                    for blk in grouping:
                        term = term * block[symcore.sort_to_partition(nu[i] for i in blk)]
                    acc = acc - term
            block[nu] = acc
            _read_off(out, nu, acc, g2max, K)
    return out


@pytest.mark.parametrize("case", ["random-4-3", "random-6-2", "random-7-3", "gue-7-3", "empty-5-2"])
def test_master_kernel_matches_object_reference(case):
    kind, dmax, g2max = case.split("-")
    dmax, g2max = int(dmax), int(g2max)
    t = {
        "random": lambda: random_table(seed=170 + dmax, nmax=dmax, degmax=dmax, g2max=g2max),
        "gue": gue_table,  # every Z row of odd degree is zero
        "empty": dict,
    }[kind]()
    want = _object_content_transform(t, dmax, g2max, inverse=False)
    assert master_forward(t, dmax, g2max) == want
    assert master_inverse(t, dmax, g2max) == _object_content_transform(t, dmax, g2max, inverse=True)
    if kind == "random":
        assert master_inverse(want, dmax, g2max) == restrict_table(t, deg=dmax, g2=g2max)


def _full_table_convolution(table, dmax, g2max, inverse):
    """The convolution routes on total tables over PS(d), read at the
    one-block targets: the reference for the one-block routes."""
    K = required_K(dmax, g2max)
    out = {}
    for d in range(1, dmax + 1):
        phi = pscore_reference.multiplicative_function(d, lambda mu: blockvalue_series(table, mu, K))
        kernel = (pscore_reference.moebius_hbar if inverse else pscore_reference.zeta_hbar)(d, K)
        conv = pscore_reference.convolve(kernel, phi, kind="extended")
        for lam in symcore.partitions(d):
            target = (pscore_reference.coarsest(d), symcore.canonical_permutation(lam))
            _read_off(out, lam, conv.get(target, HbarSeries.zero(K)), g2max, K)
    return out


@pytest.mark.parametrize("seed, g2", [(0, 3), (1, 1), (2, 0), (3, 2)])
def test_one_block_routes_equal_full_tables(seed, g2):
    t = random_table(seed=60 + seed, nmax=4, degmax=4, g2max=g2)
    assert convolution_forward(t, 4, g2) == _full_table_convolution(t, 4, g2, False)
    # any table is the moment table of some multiplicative function
    assert moebius_inverse_route(t, 4, g2) == _full_table_convolution(t, 4, g2, True)


def test_convolution_routes_at_degree_6():
    t = random_table(seed=66, nmax=6, degmax=6)
    m = convolution_forward(t, 6, 0)
    assert m == master_forward(t, 6, 0)
    assert moebius_inverse_route(m, 6, 0) == restrict_table(t, deg=6, g2=0)


def _term(n, col_a, types, block, K):
    """n hbar^|alpha| times the block values of the given cycle types."""
    term = HbarSeries.monomial(n, col_a, K)
    for mu in types:
        term = term * block[mu]
    return term


def _read_off(out, lam, val, g2max, K):
    base = sum(lam) + len(lam) - 2
    for g2 in range(0, min(g2max, K - base) + 1):
        if val.coeff(base + g2):
            out[(g2, lam)] = val.coeff(base + g2)


def _object_convolution_forward(cum_table, dmax, g2max):
    """convolution_forward on HbarSeries objects, one series product per
    factorization key, as it ran before the integer rows."""
    K = required_K(dmax, g2max)
    block = {mu: blockvalue_series(cum_table, mu, K)
             for d in range(1, dmax + 1) for mu in symcore.partitions(d)}
    out = {}
    for d in range(1, dmax + 1):
        for lam in symcore.partitions(d):
            val = HbarSeries.zero(K)
            for (col_a, types), n in pscore.target_factorizations(lam):
                if col_a <= K:
                    val = val + _term(n, col_a, types, block, K)
            _read_off(out, lam, val, g2max, K)
    return out


def _object_moebius_inverse_route(mom_table, dmax, g2max):
    """moebius_inverse_route on HbarSeries objects, as it ran before the
    integer rows: the same-degree unknowns by a fixed-point iteration that
    gains one hbar order per pass."""
    K = required_K(dmax, g2max)
    moments = {mu: blockvalue_series(mom_table, mu, K)
               for d in range(1, dmax + 1) for mu in symcore.partitions(d)}
    cum, out = {}, {}
    for d in range(1, dmax + 1):
        parts = symcore.partitions(d)
        rest, same_degree = {}, {}
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
            _read_off(out, lam, cur[lam], g2max, K)
    return out


@pytest.mark.parametrize("case", [
    *("random-%d-%d-%d" % (seed, dmax, g2max) for seed in (5, 6, 7) for dmax, g2max in ((3, 1), (4, 2), (5, 3))),
    "random-5-6-2", "random-6-6-3", "gue-0-6-3", "empty-0-5-2",
])
def test_convolution_routes_match_object_reference(case):
    kind, seed, dmax, g2max = case.split("-")
    seed, dmax, g2max = int(seed), int(dmax), int(g2max)
    t = {
        "random": lambda: random_table(seed=seed, nmax=dmax, degmax=dmax, g2max=g2max),
        "gue": gue_table,
        "empty": dict,
    }[kind]()
    assert convolution_forward(t, dmax, g2max) == _object_convolution_forward(t, dmax, g2max)
    # any table is the moment table of some multiplicative function
    assert moebius_inverse_route(t, dmax, g2max) == _object_moebius_inverse_route(t, dmax, g2max)


def test_schur_inverse_roundtrip():
    t = random_table(seed=42, nmax=3, degmax=3, g2max=2)
    m = schur_d_oracle(t, 3, 2)
    back = schur_d_oracle(m, 3, 2, inverse=True)
    assert table_equal(back, restrict_table(t, deg=3, g2=2), deg=3, g2=2)


def test_genus0_part_of_master_route():
    # the genus-0 truncation of the master route equals the strict
    # zeta-convolution
    t = random_table(seed=43, nmax=3, degmax=5)
    m = master_forward(t, 5, 0)
    for (g2, ks), v in m.items():
        assert v == oracles.genus0_moment_by_convolution(t, ks)


# ---------------------------------------------------------------------------
# genus-0 functional relations


def test_genus0_n1_catalan():
    m = genus0_moments(gue_table(), 1, 10)
    assert [m.get((0, (2 * k,)), F(0)) for k in (1, 2, 3, 4, 5)] == [1, 2, 5, 14, 42]
    assert all(m.get((0, (2 * k + 1,)), F(0)) == 0 for k in range(5))


def test_cxm_functional_equation():
    # C(X M(X)) = M(X): verified through series composition
    t = random_table(seed=44, nmax=1, degmax=6)
    from series_reference import poly1, univariate_coeffs

    m = genus0_moments(t, 1, 6)
    D = 6
    Mc = {0: F(1)}
    Mc.update({k: m.get((0, (k,)), F(0)) for k in range(1, D + 1)})
    Cc = {0: F(1)}
    Cc.update({k: tables.table_get(t, 0, (k,)) for k in range(1, D + 1)})
    M = poly1("X", Mc, hi=D)
    XM = (poly1("X", {1: F(1)}) * M).restrict("X", 0, D)
    C_of = poly1("w", Cc, hi=D).substitute("w", XM)
    assert univariate_coeffs(C_of, "X") == {k: v for k, v in Mc.items() if v}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_genus0_routes_vs_convolution_oracle(n):
    t = random_table(seed=50 + n, nmax=n, degmax=5)
    got = genus0_moments(t, n, 5)
    for ks in tables._index_tuples(n, 5):
        if len(ks) != n:
            continue
        want = oracles.genus0_moment_by_convolution(t, ks)
        assert got.get((0, ks), F(0)) == want


def test_genus0_two_point_formula_anchor():
    # second equation of the pair formulas on the GUE: F_{0;1,1} = 1,
    # F_{0;2,2} = 2, F_{0;3,1} = 3, F_{0;4,2} = ...
    m = genus0_moments(gue_table(), 2, 6)
    assert m.get((0, (1, 1))) == 1
    assert m.get((0, (2, 2))) == 2
    assert m.get((0, (3, 1))) == 3
    for ks, v in m.items():
        assert v == oracles.genus0_moment_by_convolution(gue_table(), ks[1])


def test_tree_route_symmetric_output():
    # symmetry is asserted inside the leaf contraction; a run on an
    # asymmetric random table exercises it
    t = random_table(seed=55, nmax=3, degmax=6)
    genus0_moments(t, 3, 6)


def _reachable_reference(ev, factors):
    """The plain Series product of the factors, pruned by prune_w, then
    its terms with sum_i max(1, a_i) <= D, as {exponents: Fraction}."""
    prod = Series.const(graph_sum_reference.wvars(ev), 1, graph_sum_reference.cap(ev),
                        graph_sum_reference.layout(ev))
    for f in factors:
        prod = prod * f
    prod = graph_sum_reference.terms(ev, graph_sum_reference.prune_w(ev, prod))
    return {a: v for a, v in prod.items() if v and sum(max(1, x) for x in a) <= ev.D}


def _as_fractions(product):
    state, den = product
    return {a: F(v, den) for a, v in state.items() if v}


@pytest.mark.parametrize("sign", [1, -1])
def test_tree_product_cut_is_exact(sign):
    # the reach cut drops, after each factor, only terms whose descendants
    # all fail the leaf contraction's filter: against the full product
    t = random_table(seed=57, nmax=4, degmax=6, g2max=1)
    ev = Evaluator(t, 4, 6, K=2, sign=sign)
    for tree in graphs.enumerate_graphs(4, 0):
        depths = _tree_kernel_depths(tree.edges, ev.D)
        ref = _reachable_reference(ev, [edge_genus0(ev, I, depth=depths.get(I)) for I in tree.edges])
        assert _as_fractions(_tree_product(ev, tree.edges)) == ref
    ev = Evaluator(t, 3, 6, K=2, sign=sign)
    for tree in graphs.enumerate_special_trees(3):
        rest = tree.edges[1:]
        depths = _tree_kernel_depths(rest, ev.D)
        factors = [edge_genus0(ev, tree.edges[0], g2=1)]
        factors += [edge_genus0(ev, I, depth=depths.get(I)) for I in rest]
        assert _as_fractions(_special_tree_product(ev, tree)) == _reachable_reference(ev, factors)


def test_genus0_tree_route_five_points():
    # n = 5 against the convolution oracle, and back by the dual route
    t = random_table(seed=205, nmax=5, degmax=6)
    got = genus0_moments(t, 5, 6)
    for ks in [(2, 1, 1, 1, 1), (1, 1, 1, 1, 1)]:
        assert got.get((0, ks), F(0)) == oracles.genus0_moment_by_convolution(t, ks)
    mom = {}
    for n in range(1, 6):
        mom.update(genus0_moments(t, n, 6))
    back = genus0_moments(mom, 5, 6, sign=-1)
    for ks in [(2, 1, 1, 1, 1), (1, 1, 1, 1, 1)]:
        assert back.get((0, ks), F(0)) == tables.table_get(t, 0, ks)


_REFERENCE_TABLES = {
    "random": lambda: random_table(seed=58, nmax=5, degmax=7, g2max=1),
    "gue": gue_table,
    "empty": dict,
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(_REFERENCE_TABLES))
def test_genus0_tree_route_matches_per_tree_reference(name, sign):
    # one contraction per valency pattern over the grouped cut, against
    # the per-tree contraction over the sum-bisect cut, at every n <= D
    t = _REFERENCE_TABLES[name]()
    for D in range(1, 8):
        for n in range(1, min(D, 5) + 1):
            assert genus0_moments(t, n, D, sign) == tree_route_reference.genus0_moments(t, n, D, sign)


@pytest.mark.parametrize("name", sorted(_REFERENCE_TABLES))
def test_half_genus_tree_route_matches_per_tree_reference(name):
    t = _REFERENCE_TABLES[name]()
    for D in range(1, 8):
        for n in range(1, min(D, 3) + 1):
            got = half_genus_moments_special_trees(t, n, D)
            assert got == tree_route_reference.half_genus_moments_special_trees(t, n, D)


# ---------------------------------------------------------------------------
# all-genus graph relation


def test_allgenus_gue_11():
    m = allgenus_moments(gue_table(), 1, 2, 8)
    assert [m.get((2, (2 * k,)), F(0)) for k in (2, 3, 4)] == [1, 10, 70]


def test_allgenus_02_equals_closed_form():
    t = random_table(seed=60, nmax=2, degmax=4)
    assert table_equal(allgenus_moments(t, 2, 0, 4), genus0_moments(t, 2, 4))


def test_allgenus_01_special_case():
    t = random_table(seed=61, nmax=1, degmax=5)
    got = allgenus_moments(t, 1, 0, 5)
    for k in range(1, 6):
        assert got.get((0, (k,)), F(0)) == oracles.genus0_moment_by_convolution(t, (k,))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_genus0_tree_route_equals_graph_sum(n, sign):
    # the leaf contraction over the trees against the full vertex
    # operators over the graphs of excess 0, in both directions
    t = random_table(seed=62, nmax=4, degmax=5)
    assert genus0_moments(t, n, 5, sign) == allgenus_moments(t, n, 0, 5, sign)


@pytest.mark.parametrize(
    "g2,n,seed",
    [(2, 1, 70), (1, 1, 71), (1, 2, 72), (2, 2, 73), (0, 3, 74), (1, 3, 76), (2, 3, 77)],
)
def test_allgenus_vs_hbar_oracle(g2, n, seed):
    deg = 4
    t = random_table(seed=seed, nmax=max(n, 2), degmax=deg, g2max=g2)
    if g2 % 2 == 0:
        t = {k: v for k, v in t.items() if k[0] % 2 == 0}
    got = allgenus_moments(t, n, g2, deg)
    orc = oracles.hbar_moment_table(t, deg, g2, nmax=n)
    want = {k: v for k, v in orc.items() if k[0] == g2 and len(k[1]) == n}
    assert table_equal(got, want, n=n, deg=deg, g2=g2)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("g2,n,D", [(1, 2, 4), (2, 2, 4), (1, 3, 3), (2, 3, 3)])
def test_graph_sum_equals_unbudgeted_graph_terms(g2, n, D, sign):
    """The hbar and w budgets and the single vertex chain of graph_sum
    change nothing at the hbar^T coefficient it is read at."""
    from freehop import graphs as G
    from series_reference import series_sum

    t = random_table(seed=78 + g2 + n, nmax=n, degmax=D, g2max=g2)
    T = g2 - 2 + n
    ev = Evaluator(t, n, D, K=T + n + 2, sign=sign)
    gs = G.enumerate_graphs(n, g2 // 2)
    want = series_sum([graph_sum_reference.graph_term(ev, g) for g in gs]).coeff("h", T)
    want = graph_sum_reference.terms(ev, want)
    got, den = ev.graph_sum(gs, T)
    assert want and {e: F(v, den) for e, v in got.items()} == want


def test_allgenus_n4_matches_master_forward():
    t = random_table(seed=79, nmax=4, degmax=4, g2max=1)
    want = {k: v for k, v in master_forward(t, 4, 1).items() if k[0] == 1 and len(k[1]) == 4}
    assert want and allgenus_moments(t, 4, 1, 4) == want


def _reference_rows(ev, g2):
    """The terms allgenus_moments hands to extract_table, by the chain of
    Series objects, as {exponent tuple: Fraction}; at (g2, n) = (0, 2)
    less the double-pole kernel sum_k k X_0^k X_1^-k, k <= D."""
    T = g2 - 2 + ev.n
    S = graph_sum_reference.graph_sum(ev, graphs.enumerate_graphs(ev.n, g2 // 2), T).coeff("h", T)
    if ev.n == 1:
        S = S + graph_sum_reference.delta_series(ev, g2)
    rows = graph_sum_reference.terms(ev, graph_sum_reference.reexpand(ev, S))
    if (g2, ev.n) == (0, 2):
        for k in range(1, ev.D + 1):
            rows[k, -k] = rows.get((k, -k), 0) - k
    return {e: v for e, v in rows.items() if v}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "g2,n,D",
    [(1, 1, 10), (2, 1, 6), (0, 2, 5), (1, 2, 5), (2, 2, 4), (0, 3, 4), (1, 3, 3), (2, 3, 3), (1, 4, 3)],
)
def test_row_chain_matches_object_reference(g2, n, D, sign):
    """The graph sum, the n = 1 correction and the re-expansion on integer
    rows hand extract_table the same terms, one for one, as the chain of
    Series objects they replace, whose truncations the rows reproduce:
    the terms extract_table skips or asserts on too."""
    t = random_table(seed=300 + 10 * g2 + n, nmax=n, degmax=D, g2max=g2)
    K = g2 + 2 * n
    rows, den = _allgenus_rows(Evaluator(t, n, D, K=K, sign=sign), g2)
    want = _reference_rows(Evaluator(t, n, D, K=K, sign=sign), g2)
    assert {e: F(v, den) for e, v in rows.items()} == want
    assert (n > D) == (not want)


@pytest.mark.parametrize("sign", [1, -1])
def test_delta_series_matches_object_reference(sign):
    for g2, D in [(1, 10), (2, 6), (4, 5)]:
        t = random_table(seed=310 + g2, nmax=1, degmax=D, g2max=g2)
        rows, den = Evaluator(t, 1, D, K=g2 + 2, sign=sign).delta_series(g2)
        ref = Evaluator(t, 1, D, K=g2 + 2, sign=sign)
        assert {e: F(v, den) for e, v in rows.items()} == graph_sum_reference.terms(
            ref, graph_sum_reference.delta_series(ref, g2))


def test_relations_stop_past_n_equal_D(monkeypatch):
    """Every entry has k_i >= 1, so at n > D the relations return {} before
    enumerating a graph or a tree."""

    def refuse(*args):
        raise AssertionError("enumerated graphs for n > D")

    monkeypatch.setattr(graphs, "enumerate_graphs", refuse)
    monkeypatch.setattr(graphs, "enumerate_special_trees", refuse)
    t = random_table(seed=401, nmax=5, degmax=6, g2max=2)
    assert allgenus_moments(t, 5, 2, 4) == {}
    assert allgenus_moments(t, 5, 1, 4, sign=-1) == {}
    assert genus0_moments(t, 5, 4) == {}
    assert half_genus_moments_special_trees(t, 5, 4) == {}
    # the missing hbar sector is still an error, even past n = D
    with pytest.raises(ValueError):
        allgenus_moments(t, 0, 1, -1)


def test_graph_grading_bound_extra_layer():
    # graphs beyond the excess bound contribute nothing at the extracted
    # order: force one extra layer and compare
    from freehop import graphs as G

    t = random_table(seed=75, nmax=2, degmax=3, g2max=2)
    t = {k: v for k, v in t.items() if k[0] % 2 == 0}
    g2, n, D = 2, 1, 3
    T_target = g2 - 2 + n
    ev = Evaluator(t, n, D, K=T_target + n + 2)
    base = [g.edges for g in G.enumerate_graphs(n, g2 // 2)]
    extra = [g for g in G.enumerate_graphs(n, g2 // 2 + 1) if g.edges not in base]
    for g in extra:
        term = graph_sum_reference.graph_term(ev, g)
        assert term.coeff("h", T_target).is_zero()


# ---------------------------------------------------------------------------
# specialized formulas


def test_specialized_03():
    for seed in (80, 81):
        t = random_table(seed=seed, nmax=3, degmax=5)
        assert table_equal(specialized_03(t, 5), genus0_moments(t, 3, 5))
    gue3 = specialized_03(gue_table(), 5)
    want = {
        (0, ks): oracles.genus0_moment_by_convolution(gue_table(), ks)
        for ks in tables._index_tuples(3, 5)
        if len(ks) == 3
    }
    want = {k: v for k, v in want.items() if v}
    assert table_equal(gue3, want, n=3, deg=5)


def test_specialized_11():
    for seed in (82, 83):
        t = random_table(seed=seed, nmax=2, degmax=4, g2max=2)
        t = {k: v for k, v in t.items() if k[0] % 2 == 0}
        assert table_equal(specialized_11(t, 4), allgenus_moments(t, 1, 2, 4))
    assert table_equal(specialized_11(gue_table(), 8), allgenus_moments(gue_table(), 1, 2, 8))


# ---------------------------------------------------------------------------
# genus 1/2


def test_half_genus_n1_closed_form():
    t = random_table(seed=90, nmax=1, degmax=6, g2max=1)
    got = half_genus_moments_special_trees(t, 1, 6)
    # closed form: G_{1/2,1}(X) = P(w) G^dual_{1/2,1}(w)
    graph = allgenus_moments(t, 1, 1, 6)
    assert table_equal(got, graph, deg=6, g2=1)


def test_half_genus_zero_input():
    t = {(0, (2,)): F(1)}
    got = half_genus_moments_special_trees(t, 1, 4)
    assert not got


def test_half_genus_coefficient_route():
    t = random_table(seed=91, nmax=2, degmax=4, g2max=1)
    # the special-tree leaf contraction against the graph sum at g2 = 1
    assert half_genus_moments_special_trees(t, 2, 4) == allgenus_moments(t, 2, 1, 4)


def test_half_genus_three_points_match_oracle():
    t = random_table(seed=401, nmax=3, degmax=5, g2max=1)
    got = half_genus_moments_special_trees(t, 3, 5)
    orc = oracles.hbar_moment_table(t, 5, 1, nmax=3)
    want = {k: v for k, v in orc.items() if k[0] == 1 and len(k[1]) == 3}
    assert want
    assert table_equal(got, want, n=3, deg=5, g2=1)


# ---------------------------------------------------------------------------
# duals


def test_dual_gue_pair():
    cat = genus0_moments(gue_table(), 1, 8)
    back = genus0_moments(cat, 1, 8, sign=-1)
    assert back == {(0, (2,)): F(1)}


def test_dual_roundtrip_random():
    t = random_table(seed=92, nmax=3, degmax=5)
    mom = {}
    for n in (1, 2, 3):
        mom.update(genus0_moments(t, n, 5))
    back = {}
    for n in (1, 2, 3):
        back.update(genus0_moments(mom, n, 5, sign=-1))
    assert table_equal(back, restrict_table(t, n=3, deg=5), n=3, deg=5)


def test_dual_coefficient_route():
    t = random_table(seed=93, nmax=2, degmax=5)
    mom = {}
    for n in (1, 2):
        mom.update(genus0_moments(t, n, 5))
    coeff = {n: genus0_moments(mom, n, 5, sign=-1) for n in (1, 2)}
    for ks in [(1,), (3,), (5,), (1, 1), (2, 2), (3, 2), (4, 1)]:
        assert coeff[len(ks)].get((0, ks), F(0)) == tables.table_get(t, 0, ks)


def test_binomial_factor_identity():
    # k!/(k-r)! = r! C(k, r) and (-1)^r (r+k-1)!/(k-1)! = r! C(-k, r)
    from math import comb, factorial

    from freehop.transforms import _binom_factor

    for k in range(1, 7):
        for r in range(0, 7):
            fwd = _binom_factor(k, r, 1)
            assert fwd == factorial(r) * comb(k, r) if r <= k else fwd == 0
            dual = _binom_factor(k, r, -1)
            # generalized binomial C(-k, r) = (-1)^r C(k+r-1, r)
            assert dual == factorial(r) * (-1) ** r * comb(k + r - 1, r)
