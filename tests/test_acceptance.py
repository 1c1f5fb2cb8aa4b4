"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  All comparisons are exact (rational arithmetic, zero tolerance).

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the full suite is also reachable through ``freehop verify``.
"""

import sys
from fractions import Fraction


import pscore_reference
from freehop import oracles, pscore, symcore, tables, transforms
from freehop.hurwitz import verify_orthogonality
from freehop.symcore import partitions
from freehop.tables import gue_table, random_table, restrict_table, table_equal
from graph_sum_reference import P_series, specialized_03, specialized_11, w_atom, wvars
from hbar_reference import HbarSeries, from_numerators
from hurwitz_reference import free_single_count, strict_monotone_count


def _report(num: int, name: str, ok: bool):
    print("criterion %2d [%s] %s" % (num, "PASS" if ok else "FAIL", name), file=sys.stderr)
    assert ok, "criterion %d failed: %s" % (num, name)


def test_criterion_01_hurwitz_orthogonality():
    """Both strict/weak inverse-pair identities exactly as hbar-series to
    order hbar^8 for all lambda, nu |- d, d <= 5."""
    ok = True
    for d in range(1, 6):
        rep = verify_orthogonality(d, 8)
        ok = ok and rep["pass"]
    _report(1, "Hurwitz orthogonality d<=5 at hbar^8", ok)


def test_criterion_02_harnad_orlov():
    """Strict monotone equals free single for all lambda, nu |- d <= 4,
    r <= 3."""
    ok = True
    for d in range(1, 5):
        for lam in partitions(d):
            for nu in partitions(d):
                for r in range(4):
                    ok = ok and free_single_count(lam, nu, r) == strict_monotone_count(lam, nu, r)
    _report(2, "Harnad-Orlov strict == free-single, d<=4, r<=3", ok)


def test_criterion_03_four_route_equivalence():
    """Hurwitz (i), convolution (ii), weak inverse (iii), Moebius (iv) and
    the Schur content-multiplier oracle agree on 20 random topological
    partition functions, d <= 4, hbar <= 6."""
    K = 6
    ok = True
    for seed in range(20):
        t = random_table(seed=1000 + seed, nmax=4, degmax=4, g2max=3)

        def within(tab):
            return {
                k: v
                for k, v in tab.items()
                if sum(k[1]) + len(k[1]) - 2 + k[0] <= K and sum(k[1]) <= 4
            }

        m_h = transforms.master_forward(t, 4, 3)
        m_c = transforms.convolution_forward(t, 4, 3)
        m_s = transforms.schur_d_oracle(t, 4, 3)
        ok = ok and within(m_h) == within(m_c) == within(m_s)
        back_w = transforms.master_inverse(m_h, 4, 3)
        back_m = transforms.moebius_inverse_route(m_h, 4, 3)
        want = within(restrict_table(t, deg=4, g2=3))
        ok = ok and within(back_w) == want == within(back_m)
        if not ok:
            break
    _report(3, "four-route equivalence + Schur oracle, 20 tables, d<=4, hbar<=6", ok)


def test_criterion_04_genus0_functional_relations():
    """The genus-0 tree route equals the brute-force zeta-star
    convolution for n in {1,2,3,4}, all monomials of total degree <= 8, on
    10 random cumulant tables; n = 1 reproduces C(X M(X)) = M(X) and n = 2
    the graph sum at excess 0."""
    D = 8
    ok = True
    for seed in range(10):
        t = random_table(seed=2000 + seed, nmax=4, degmax=D)
        for n in (1, 2, 3, 4):
            tree = transforms.genus0_moments(t, n, D)
            for ks in transforms._compositions(n, D):
                key = (0, symcore.sort_to_partition(ks))
                want = oracles.genus0_moment_by_convolution(t, ks)
                ok = ok and tree.get(key, Fraction(0)) == want
            if not ok:
                break
        if not ok:
            break
    # n = 1 reproduces C(X M(X)) = M(X)
    from series_reference import poly1, univariate_coeffs

    t = random_table(seed=2000, nmax=1, degmax=D)
    m = transforms.genus0_moments(t, 1, D)
    Mc = {0: Fraction(1)}
    Mc.update({k: m.get((0, (k,)), Fraction(0)) for k in range(1, D + 1)})
    Cc = {0: Fraction(1)}
    Cc.update({k: tables.table_get(t, 0, (k,)) for k in range(1, D + 1)})
    M = poly1("X", Mc, hi=D)
    XM = (poly1("X", {1: Fraction(1)}) * M).restrict("X", 0, D)
    comp = poly1("w", Cc, hi=D).substitute("w", XM)
    ok = ok and univariate_coeffs(comp, "X") == {k: v for k, v in Mc.items() if v}
    # n = 2: the tree route against the graph sum at excess 0, whose (0,2)
    # target subtracts the double-pole kernel, on a fresh table
    t2 = random_table(seed=2991, nmax=2, degmax=6)
    ok = ok and table_equal(
        transforms.genus0_moments(t2, 2, 6),
        transforms.allgenus_moments(t2, 2, 0, 6),
    )
    _report(4, "genus-0 tree route == zeta-star oracle, n<=4, deg<=8", ok)


def test_criterion_05_all_genus_graph_relation():
    """Graph-sum output for (g,n) in {(0,2),(1,1),(1/2,1),(1/2,2),(1,2),
    (0,3)} equals the hbar-graded brute force, d <= 5 coefficients; (0,2)
    matches the genus-0 tree route and (0,1) the genus-0 convolution
    oracle."""
    D = 5
    ok = True
    for g2, n in [(0, 2), (2, 1), (1, 1), (1, 2), (2, 2), (0, 3)]:
        t = random_table(seed=3000 + 10 * g2 + n, nmax=max(n, 2), degmax=D, g2max=g2)
        if g2 % 2 == 0:
            t = {k: v for k, v in t.items() if k[0] % 2 == 0}
        got = transforms.allgenus_moments(t, n, g2, D)
        orc = oracles.hbar_moment_table(t, D, g2, nmax=n)
        want = {k: v for k, v in orc.items() if k[0] == g2 and len(k[1]) == n}
        ok = ok and table_equal(got, want, n=n, deg=D, g2=g2)
    # (0,2) graph route against the genus-0 tree route
    t = random_table(seed=3100, nmax=2, degmax=4)
    ok = ok and table_equal(
        transforms.allgenus_moments(t, 2, 0, 4), transforms.genus0_moments(t, 2, 4)
    )
    # (0,1): the extended-sum convention reduces to the one-point relation
    t = random_table(seed=3101, nmax=1, degmax=5)
    got = transforms.allgenus_moments(t, 1, 0, 5)
    for k in range(1, 6):
        want = oracles.genus0_moment_by_convolution(t, (k,))
        ok = ok and got.get((0, (k,)), Fraction(0)) == want
    _report(5, "all-genus graph relation == hbar brute force, six (g,n) targets", ok)


def test_criterion_06_specialized_formulas():
    """The closed three-point and (1,1) expressions equal the general
    routes on the Gaussian fixture and on 5 random inputs."""
    ok = True
    ok = ok and table_equal(
        specialized_03(gue_table(), 6), transforms.genus0_moments(gue_table(), 3, 6)
    )
    ok = ok and table_equal(
        specialized_11(gue_table(), 8),
        transforms.allgenus_moments(gue_table(), 1, 2, 8),
    )
    for seed in range(5):
        t3 = random_table(seed=4000 + seed, nmax=3, degmax=5)
        ok = ok and table_equal(
            specialized_03(t3, 5), transforms.genus0_moments(t3, 3, 5)
        )
        t1 = random_table(seed=4100 + seed, nmax=2, degmax=4, g2max=2)
        t1 = {k: v for k, v in t1.items() if k[0] % 2 == 0}
        ok = ok and table_equal(
            specialized_11(t1, 4), transforms.allgenus_moments(t1, 1, 2, 4)
        )
    _report(6, "specialized (0,3) and (1,1) formulas == general routes", ok)


def test_criterion_07_dual_roundtrip():
    """c2m then m2c is the identity on random genus-0 tables (n <= 3,
    degree <= 8) and on the Gaussian pair."""
    D = 8
    ok = True
    for seed in range(3):
        t = random_table(seed=5000 + seed, nmax=3, degmax=D)
        mom = {}
        for n in (1, 2, 3):
            mom.update(transforms.genus0_moments(t, n, D))
        back = {}
        for n in (1, 2, 3):
            back.update(transforms.genus0_moments(mom, n, D, sign=-1))
        ok = ok and table_equal(back, restrict_table(t, n=3, deg=D), n=3, deg=D)
    cat = transforms.genus0_moments(gue_table(), 1, 8)
    ok = ok and [cat.get((0, (2 * k,))) for k in (1, 2, 3, 4)] == [1, 2, 5, 14]
    back = transforms.genus0_moments(cat, 1, 8, sign=-1)
    ok = ok and back == {(0, (2,)): Fraction(1)}
    _report(7, "dual round-trip on random genus-0 tables and the GUE pair", ok)


def test_criterion_08_gue_fixture():
    """kappa_{0;2} = 1 yields Catalan genus-0 moments (1,2,5,14,42) and
    genus-1 moments equal to the independent pairing-by-genus counts."""
    ok = True
    m0 = transforms.genus0_moments(gue_table(), 1, 10)
    ok = ok and [m0.get((0, (2 * k,))) for k in (1, 2, 3, 4, 5)] == [1, 2, 5, 14, 42]
    mt = transforms.master_forward(gue_table(), 8, 2)
    gluing = oracles.gue_moments_by_gluing(4)
    for k in (2, 3, 4):
        ok = ok and mt.get((2, (2 * k,))) == gluing[(2, (2 * k,))]
    for k in (1, 2, 3, 4):
        ok = ok and mt.get((0, (2 * k,))) == gluing[(0, (2 * k,))]
    _report(8, "GUE fixture: Catalan and pairing-by-genus moments", ok)


def test_criterion_09_infinitesimal():
    """The genus-1/2 one-point output satisfies the dln relation
    coefficient-wise to degree 10, and the special-tree route agrees with
    the hbar-graded brute-force oracle for n <= 2, d <= 5."""
    ok = True
    # n = 1, degree 10: closed form P(w) G_{1/2,1}(w) against the graph
    # route, i.e. the dln identity between the two one-point series
    t1 = random_table(seed=6000, nmax=1, degmax=10, g2max=1)
    closed = transforms.half_genus_moments_special_trees(t1, 1, 10)
    graph = transforms.allgenus_moments(t1, 1, 1, 10)
    ok = ok and table_equal(closed, graph, deg=10, g2=1)
    # and explicitly: G_{1/2,1}(X) dX/X = G^dual_{1/2,1}(w) dw/w as the
    # coefficient identity G_{1/2,1}(X(w)) = P(w) G^dual_{1/2,1}(w)
    from freehop.operators import Evaluator

    ev = Evaluator(t1, 1, 10, K=3)
    ghalf = w_atom(ev, 0, {k: tables.table_get(t1, 1, (k,)) for k in range(1, 11)})
    lhs = P_series(ev, 0) * ghalf
    got = ev.extract_table(*ev.reexpand(*lhs.numerators(wvars(ev))), 1)
    ok = ok and table_equal(got, closed, deg=10, g2=1)
    # special-tree route vs hbar-graded oracle, n <= 2, d <= 5
    for n in (1, 2):
        t = random_table(seed=6001 + n, nmax=2, degmax=5, g2max=1)
        got = transforms.half_genus_moments_special_trees(t, n, 5)
        orc = oracles.hbar_moment_table(t, 5, 1, nmax=n)
        want = {k: v for k, v in orc.items() if k[0] == 1 and len(k[1]) == n}
        ok = ok and table_equal(got, want, n=n, deg=5, g2=1)
    _report(9, "infinitesimal (genus 1/2) relations and hbar-graded oracle", ok)


def test_criterion_10_moebius_inversions():
    """mu * zeta = delta exactly on PS(d), d <= 4; mu_hbar (*) zeta_hbar =
    delta + O(hbar^7) on PS(3)."""
    ok = True
    for d in range(1, 5):
        mu = pscore.moebius(d)
        z = pscore_reference.zeta_function(d)
        conv = {k: v for k, v in pscore_reference.convolve(mu, z, "strict").items() if v}
        ok = ok and conv == pscore_reference.delta_function(d)
    K = 6
    mh = {x: from_numerators(row, 1, K) for x, row in pscore.moebius_hbar(3, K).items()}
    zh = pscore_reference.zeta_hbar(3, K)
    conv = pscore_reference.convolve(mh, zh, "extended")
    for x, v in conv.items():
        want = HbarSeries.one(K) if x == pscore.unit_pp(3) else HbarSeries.zero(K)
        ok = ok and v == want
    _report(10, "Moebius inversions: exact on PS(<=4), hbar-extended on PS(3)", ok)
