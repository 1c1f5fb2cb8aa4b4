from fractions import Fraction

import pytest

from freehop import oracles, pscore, symcore, tables
from freehop.hbar import HbarSeries
from freehop.hurwitz import hurwitz_table
from freehop.tables import gue_table, random_table, restrict_table, table_equal
from freehop.transforms import (
    allgenus_moments,
    blockvalue_series,
    convolution_forward,
    default_K,
    genus0_moments,
    half_genus_moments_special_trees,
    master_forward,
    master_inverse,
    moebius_inverse_route,
    required_K,
    schur_d_oracle,
    specialized_03,
    specialized_11,
    table_from_z,
    z_table,
    z_value,
)


def F(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# partition-function plumbing


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
    out = HbarSeries.zero(K)
    for grouping in pscore.set_partitions_of(len(nu)):
        term = HbarSeries.one(K)
        for blk in grouping:
            term = term * blockvalue_series(table, symcore.sort_to_partition(nu[i] for i in blk), K)
        out = out + term
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_z_assembly_matches_set_partition_sum(seed):
    t = random_table(seed=70 + seed, nmax=6, degmax=6, g2max=2)
    for K in (3, required_K(6, 2), default_K(6, 2)):
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
    K = default_K(dmax, g2max)
    ztabs = {(): HbarSeries.one(K)}
    for d in range(1, dmax + 1):
        H = hurwitz_table(d, kind, K)
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


def _full_table_convolution(table, dmax, g2max, K, inverse):
    """The convolution routes on total tables over PS(d), read at the
    one-block targets: the reference for the one-block routes."""
    K = default_K(dmax, g2max) if K is None else K
    out = {}
    for d in range(1, dmax + 1):
        phi = pscore.multiplicative_function(d, lambda mu: blockvalue_series(table, mu, K))
        kernel = pscore.moebius_hbar(d, K) if inverse else pscore.zeta_hbar(d, K)
        conv = pscore.convolve(kernel, phi, kind="extended")
        for lam in symcore.partitions(d):
            target = (pscore.coarsest(d), symcore.canonical_permutation(lam))
            val = conv.get(target, HbarSeries.zero(K))
            base = d + len(lam) - 2
            for g2 in range(g2max + 1):
                if base + g2 <= K:
                    v = val.coeff(base + g2)
                    if v:
                        out[(g2, lam)] = v
    return out


@pytest.mark.parametrize("seed, g2, K", [(0, 3, None), (1, 1, 6), (2, 0, 4), (3, 2, 11)])
def test_one_block_routes_equal_full_tables(seed, g2, K):
    t = random_table(seed=60 + seed, nmax=4, degmax=4, g2max=g2)
    assert convolution_forward(t, 4, g2, K) == _full_table_convolution(t, 4, g2, K, False)
    # any table is the moment table of some multiplicative function
    assert moebius_inverse_route(t, 4, g2, K) == _full_table_convolution(t, 4, g2, K, True)


def test_convolution_routes_at_degree_6():
    t = random_table(seed=66, nmax=6, degmax=6)
    m = convolution_forward(t, 6, 0)
    assert m == master_forward(t, 6, 0)
    assert moebius_inverse_route(m, 6, 0) == restrict_table(t, deg=6, g2=0)


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
    from freehop.operators import Evaluator
    from freehop.series import poly1, univariate_coeffs

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
    from freehop.operators import Evaluator
    from freehop.series import series_sum

    t = random_table(seed=78 + g2 + n, nmax=n, degmax=D, g2max=g2)
    T = g2 - 2 + n
    ev = Evaluator(t, n, D, K=T + n + 2, sign=sign)
    gs = G.enumerate_graphs(n, g2 // 2)
    want = series_sum([ev.graph_term(g) for g in gs]).coeff("h", T)
    got = ev.graph_sum(gs, T).coeff("h", T)
    assert not want.is_zero() and got == want


def test_allgenus_n4_matches_master_forward():
    t = random_table(seed=79, nmax=4, degmax=4, g2max=1)
    want = {k: v for k, v in master_forward(t, 4, 1).items() if k[0] == 1 and len(k[1]) == 4}
    assert want and allgenus_moments(t, 4, 1, 4) == want


def test_graph_grading_bound_extra_layer():
    # graphs beyond the excess bound contribute nothing at the extracted
    # order: force one extra layer and compare
    from freehop import graphs as G
    from freehop.operators import Evaluator

    t = random_table(seed=75, nmax=2, degmax=3, g2max=2)
    t = {k: v for k, v in t.items() if k[0] % 2 == 0}
    g2, n, D = 2, 1, 3
    T_target = g2 - 2 + n
    ev = Evaluator(t, n, D, K=T_target + n + 2)
    base = [g.edges for g in G.enumerate_graphs(n, g2 // 2)]
    extra = [g for g in G.enumerate_graphs(n, g2 // 2 + 1) if g.edges not in base]
    for g in extra:
        term = ev.graph_term(g)
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
