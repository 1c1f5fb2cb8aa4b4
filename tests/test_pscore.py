import itertools
import math
import random
from fractions import Fraction

import pytest

import pscore_reference as ref
from freehop import oracles, pscore, symcore
from freehop.pscore import (
    blocks_of,
    finest,
    join,
    moebius,
    orbit_partition,
    pp_colength,
    unit_pp,
)
from hbar_reference import HbarSeries, from_numerators
from pscore_reference import (coarsest, convolve, delta_function, enumerate_ps, from_blocks, leq, multiplicative_function,
                              product_extended, product_strict, set_partitions_of, zeta_function, zeta_hbar)


def test_join_basics():
    d = 4
    a = from_blocks(d, [[0, 1], [2], [3]])
    assert join(finest(d), a) == a
    assert join(a, coarsest(d)) == coarsest(d)
    b = from_blocks(d, [[1, 2], [0], [3]])
    assert join(a, b) == from_blocks(d, [[0, 1, 2], [3]])


def test_orbit_partition_example():
    s = (1, 5, 4, 3, 2, 0)  # (0 1 5)(2 4)(3)
    assert blocks_of(orbit_partition(s)) == [(0, 1, 5), (2, 4), (3,)]


def test_leq():
    d = 3
    a = from_blocks(d, [[0, 1], [2]])
    assert leq(finest(d), a)
    assert leq(a, coarsest(d))
    assert not leq(a, from_blocks(d, [[0, 2], [1]]))


def test_product_strict_d2():
    d = 2
    swap = (1, 0)
    x = (coarsest(d), swap)
    # ({12},(12)) . ({12},(12)) = ({12}, id), colengths 1 + 1 = 2
    z = product_strict(x, x)
    assert z == (coarsest(d), (0, 1))
    assert pp_colength(z) == 2
    # ({12}, id) . ({12},(12)) -> zero (2 + 1 != 1)
    assert product_strict((coarsest(d), (0, 1)), x) is None
    # unit law
    assert product_strict(unit_pp(d), x) == x


def test_product_extended_unit_and_subadditivity():
    for x in enumerate_ps(3):
        assert product_extended(unit_pp(3), x) == x
    for x in enumerate_ps(3):
        for y in enumerate_ps(3):
            z = product_extended(x, y)
            defect = pp_colength(x) + pp_colength(y) - pp_colength(z)
            assert defect >= 0
            assert defect % 2 == 0


def test_colength_block_additivity():
    # |(A, a)| = sum over blocks of the restricted colengths
    for part, perm in enumerate_ps(4):
        total = 0
        for blk in blocks_of(part):
            pts = set(blk)
            ncyc = sum(1 for c in symcore.cycles(perm) if c[0] in pts)
            total += 2 * (len(pts) - 1) - (len(pts) - ncyc)
        assert total == pp_colength((part, perm))


def test_enumerate_ps_sizes():
    assert [len(enumerate_ps(d)) for d in range(5)] == [1, 1, 3, 13, 73]
    d2 = set(enumerate_ps(2))
    assert d2 == {
        (finest(2), (0, 1)),
        (coarsest(2), (0, 1)),
        (coarsest(2), (1, 0)),
    }
    with pytest.raises(ValueError):
        enumerate_ps(7)


def test_zeta_values():
    z = zeta_function(2)
    assert z[(orbit_partition((1, 0)), (1, 0))] == 1
    assert (coarsest(3), (1, 0, 2)) not in zeta_function(3)


def test_convolution_unit():
    for d in (2, 3):
        delta = delta_function(d)
        f = {x: Fraction(i + 1, 3) for i, x in enumerate(enumerate_ps(d))}
        assert convolve(f, delta, "strict") == {k: v for k, v in f.items()}
        assert convolve(delta, f, "extended") == {k: v for k, v in f.items()}


def test_zeta_star_zeta_value():
    # Three factorizations of ({12}, id) have additive colength, but only
    # ({12},(12)) . ({12},(12)) has both factors supported on zeta
    z = zeta_function(2)
    conv = convolve(z, z, "strict")
    assert conv[(coarsest(2), (0, 1))] == 1
    # exhaustive cross-check of the factorization count itself
    count = 0
    for x in enumerate_ps(2):
        for y in enumerate_ps(2):
            if product_strict(x, y) == (coarsest(2), (0, 1)):
                count += 1
    assert count == 3


def test_multiplicative_commutativity():
    rng = random.Random(11)

    def rand_rule():
        vals = {}

        def rule(mu):
            if mu not in vals:
                vals[mu] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return vals[mu]

        return rule

    for d in (3, 4):
        f1 = multiplicative_function(d, rand_rule())
        f2 = multiplicative_function(d, rand_rule())
        assert convolve(f1, f2, "strict") == convolve(f2, f1, "strict")
        assert convolve(f1, f2, "extended") == convolve(f2, f1, "extended")


def test_convolution_associativity():
    rng = random.Random(12)
    elems = enumerate_ps(3)

    def rand_fn():
        return {x: Fraction(rng.randint(-3, 3)) for x in elems}

    for kind in ("strict", "extended"):
        f, g, h = rand_fn(), rand_fn(), rand_fn()
        left = convolve(convolve(f, g, kind), h, kind)
        right = convolve(f, convolve(g, h, kind), kind)
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right


def test_multiplicative_reconstruction():
    vals = {}
    rng = random.Random(13)

    def rule(mu):
        if mu not in vals:
            vals[mu] = Fraction(rng.randint(1, 5))
        return vals[mu]

    f = multiplicative_function(4, rule)
    for (part, perm), v in f.items():
        prod = Fraction(1)
        for blk in blocks_of(part):
            mu = symcore.sort_to_partition(
                len(c) for c in symcore.cycles(perm) if c[0] in set(blk)
            )
            prod *= rule(mu)
        assert v == prod


@pytest.mark.parametrize("d", [2, 3, 4])
def test_moebius_inverts_zeta(d):
    mu = moebius(d)
    z = zeta_function(d)
    conv = {k: v for k, v in convolve(mu, z, "strict").items() if v}
    assert conv == delta_function(d)
    conv2 = {k: v for k, v in convolve(z, mu, "strict").items() if v}
    assert conv2 == delta_function(d)


def test_moebius_values_d2():
    mu = moebius(2)
    assert mu[unit_pp(2)] == 1
    assert mu[(coarsest(2), (1, 0))] == -1
    assert mu[(coarsest(2), (0, 1))] == 1


@pytest.mark.parametrize("d", range(6))
def test_moebius_equals_triangular_solve(d):
    # the additive Neumann walk against the reference solve, on every
    # element of PS(d), zero values included
    assert moebius(d) == ref.moebius(d)


@pytest.mark.parametrize("d", range(6))
def test_moebius_is_leading_order_of_moebius_hbar(d):
    # mu(x) is the hbar^|x| coefficient of mu_hbar(x), and mu_hbar(x) has
    # no term below it
    K = max(2 * d - 2, 0)
    mu, rows = moebius(d), pscore.moebius_hbar(d, K)
    assert rows.keys() <= mu.keys()
    for x, v in mu.items():
        row = rows.get(x, [0] * (K + 1))
        assert not any(row[:pp_colength(x)]) and row[pp_colength(x)] == v
    # with the additive steps alone, the walk is the plain product: every
    # row is mu(x) hbar^|x|
    for x, row in pscore._neumann(d, K, True).items():
        assert row == [mu[x] if e == pp_colength(x) else 0 for e in range(K + 1)]


def test_moebius_hbar_roundtrip():
    d, K = 3, 6
    mh = ref.moebius_hbar(d, K)
    zh = zeta_hbar(d, K)
    conv = convolve(mh, zh, "extended")
    for x, v in conv.items():
        want = HbarSeries.one(K) if x == unit_pp(d) else HbarSeries.zero(K)
        assert v == want
    # leading order is delta, first order on PS(2)
    mh2 = ref.moebius_hbar(2, 6)
    assert mh2[unit_pp(2)].coeff(0) == 1
    assert mh2[(orbit_partition((1, 0)), (1, 0))].coeff(1) == -1
    # pscore's integer-row Neumann series, entry by entry
    for d, K in [(2, 6), (3, 6), (3, 2), (4, 5), (4, 0)]:
        rows = pscore.moebius_hbar(d, K)
        assert {x: from_numerators(row, 1, K) for x, row in rows.items()} == ref.moebius_hbar(d, K)


def test_leading_order_extraction():
    d, K = 3, 6
    zh = zeta_hbar(d, K)
    lead = ref.leading_order(zh)
    z = zeta_function(d)
    for x in enumerate_ps(d):
        assert lead.get(x, 0) == z.get(x, 0)
    bad = {unit_pp(2): HbarSeries.monomial(1, -1, 4)}
    with pytest.raises(ValueError):
        ref.leading_order(bad)


def _hbar_multiplicative(d, K, rule):
    """hbar-graded multiplicative function with block values
    hbar^{colength} * (genus series)."""

    def blockvalue(mu):
        base = sum(mu) + len(mu) - 2
        return HbarSeries({base + g2: rule(mu, g2) for g2 in range(0, 3)}, K)

    return multiplicative_function(d, blockvalue)


def test_leading_order_of_extended_convolution():
    # zeta_hbar (*) Phi at leading order equals zeta * (leading Phi)
    rng = random.Random(14)
    vals = {}

    def rule(mu, g2):
        key = (mu, g2)
        if key not in vals:
            vals[key] = Fraction(rng.randint(-3, 3))
        return vals[key]

    d, K = 3, 8
    phi = _hbar_multiplicative(d, K, rule)
    zh = zeta_hbar(d, K)
    conv = convolve(zh, phi, "extended")
    lead_conv = ref.leading_order(conv)
    lead_phi = ref.leading_order(phi)
    plain = convolve(zeta_function(d), lead_phi, "strict")
    for x in enumerate_ps(d):
        assert lead_conv.get(x, Fraction(0)) == plain.get(x, Fraction(0))


def test_infinitesimal_agreement_of_extended_convolution():
    # with half-integer genus allowed, the subleading order agrees with the
    # strict convolution of the dual-number reduction
    rng = random.Random(15)
    vals = {}

    def rule(mu, g2):
        key = (mu, g2)
        if key not in vals:
            vals[key] = Fraction(rng.randint(-3, 3))
        return vals[key]

    d, K = 3, 9
    phi = _hbar_multiplicative(d, K, rule)
    zh = zeta_hbar(d, K)
    conv = convolve(zh, phi, "extended")
    lead_c, sub_c = ref.infinitesimal_order(conv)
    lead_p, sub_p = ref.infinitesimal_order(phi)
    # dual-number strict convolution: (a + eps b)(c + eps d) = ac + eps(ad + bc)
    z = zeta_function(d)
    plain_lead = convolve(z, lead_p, "strict")
    plain_sub = convolve(z, sub_p, "strict")
    for x in enumerate_ps(d):
        assert lead_c.get(x, Fraction(0)) == plain_lead.get(x, Fraction(0))
        assert sub_c.get(x, Fraction(0)) == plain_sub.get(x, Fraction(0))


def test_convolve_truncation_mismatch():
    with pytest.raises(ValueError, match="truncation mismatch"):
        convolve(zeta_hbar(2, 4), zeta_hbar(2, 6), "extended")


def test_setpartition_json():
    part = from_blocks(4, [[0, 2], [1], [3]])
    js = pscore.setpartition_to_json(part)
    assert js == [[1, 3], [2], [4]]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_target_factorizations_genus0_slice(d):
    # the colength-additive factorizations are the strict-product ones
    # the genus-0 oracle counts; |alpha| = 0 only for the target itself
    for lam in symcore.partitions(d):
        target_col = d + len(lam) - 2
        strict = {}
        for (col_a, types), n in pscore.target_factorizations(lam):
            assert col_a > 0 or (types, n) == ((lam,), 1)
            ncyc = sum(len(mu) for mu in types)
            if col_a + 2 * (d - len(types)) - (d - ncyc) == target_col:
                strict[types] = n
        assert strict == oracles.star_factorization_counts(lam)


def _bell_filter(pattern, connected=True):
    """The partitions B of the cycles of a pattern (its classes laid out
    one after another), counted by block types, by listing all Bell(m)
    of them and keeping those whose join with the classes is one block."""
    lens = [p for mu in pattern for p in mu]
    linked = tuple(i for i, mu in enumerate(pattern) for _ in mu)
    m = len(lens)
    found = {}
    for grouping in set_partitions_of(m):
        if connected and join(linked, from_blocks(m, grouping)) != coarsest(m):
            continue
        types = tuple(sorted(symcore.sort_to_partition(lens[i] for i in grp) for grp in grouping))
        found[types] = found.get(types, 0) + 1
    return found


def _plain_target_factorizations(lam):
    """target_factorizations by a walk over every beta in S_d, listing the
    partitions of beta's cycles once per linkage pattern within the call."""
    d = sum(lam)
    pi = symcore.canonical_permutation(lam)
    counts = {}
    by_pattern = {}
    for beta in itertools.permutations(range(d)):
        alpha = symcore.compose(pi, symcore.inverse(beta))
        col_a = symcore.colength(alpha)
        cycs = symcore.cycles(beta)
        # the cycles of beta joined by the cycles of alpha, as a partition
        # of range(#cycles); B must join it to one block
        linked = join(orbit_partition(alpha), orbit_partition(beta))
        linked = pscore.canonical_ids(linked[c[0]] for c in cycs)
        pattern = tuple(sorted(
            symcore.sort_to_partition(len(c) for c, b in zip(cycs, linked) if b == cls)
            for cls in range(pscore.num_blocks(linked))
        ))
        found = by_pattern.get(pattern)
        if found is None:
            found = by_pattern[pattern] = _bell_filter(pattern)
        for types, c in found.items():
            key = (col_a, types)
            counts[key] = counts.get(key, 0) + c
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("lams", [pytest.param(symcore.partitions(d), id=str(d)) for d in range(1, 7)]
                         + [pytest.param([lam], id="lam" + "".join(map(str, lam))) for lam in [(7,), (4, 3), (3, 2, 1, 1)]])
def test_target_factorizations_match_plain_walk(lams):
    # one beta per centralizer orbit, weighted by its size, counts what
    # the walk over all of S_d counts
    for lam in lams:
        assert pscore.target_factorizations(lam) == _plain_target_factorizations(lam)


@pytest.mark.parametrize("d", range(1, 8))
def test_connected_groupings_match_bell_filter(d):
    # the first-block recursions of both walks (pscore's and the oracle's)
    # against the Bell enumeration, on every linkage pattern of every
    # lam |- d; the linkage by union-find on pi_lam's cycles is the one
    # join on set partitions of [d] gives
    patterns = set()
    for lam in symcore.partitions(d):
        zero_pi = orbit_partition(symcore.canonical_permutation(lam))
        for beta, _ in pscore._orbit_reps(lam):
            cycs = symcore.cycles(beta)
            linked = join(zero_pi, orbit_partition(beta))
            classes = {}
            for c in cycs:
                classes.setdefault(linked[c[0]], []).append(len(c))
            pattern = tuple(sorted(symcore.sort_to_partition(c) for c in classes.values()))
            assert pscore._linkage(lam, cycs) == pattern
            patterns.add(pattern)
    for pattern in sorted(patterns):
        want = _bell_filter(pattern)
        assert pscore._linked_groupings(pattern) == want
        assert oracles._connected_groupings(pattern) == want
        lens = symcore.sort_to_partition(p for mu in pattern for p in mu)
        assert pscore._all_groupings(lens) == oracles._every_grouping(lens) == _bell_filter(pattern, connected=False)


@pytest.mark.parametrize("d", range(1, 8))
def test_pscore_orbit_reduction(d):
    # the generators generate the centralizer: z_lam elements, each
    # commuting with pi_lam
    for lam in symcore.partitions(d):
        pi = symcore.canonical_permutation(lam)
        gens = pscore._centralizer_generators(lam)
        group, todo = {symcore.identity(d)}, [symcore.identity(d)]
        while todo:
            x = todo.pop()
            for g in gens:
                y = symcore.compose(g, x)
                if y not in group:
                    group.add(y)
                    todo.append(y)
        assert len(group) == symcore.z_factor(lam)
        assert all(symcore.compose(c, pi) == symcore.compose(pi, c) for c in group)
        assert sum(size for _, size in pscore._orbit_reps(lam)) == math.factorial(d)
