from fractions import Fraction
from math import factorial

import pytest

import symcore_reference
from freehop.symcore import (
    canonical_permutation,
    character_table,
    colength,
    compose,
    conjugacy_class,
    content_rows,
    cycle_type,
    inverse,
    partitions,
    z_factor,
)


def character(lam, mu):
    """chi^lam(mu), read off the character table."""
    parts = partitions(sum(lam))
    return character_table(sum(lam))[parts.index(lam)][parts.index(mu)]


def test_partitions_small():
    assert partitions(0) == [()]
    assert partitions(1) == [(1,)]
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]


def test_partition_count_recurrence():
    # p(n) by Euler's pentagonal recurrence, independent of the enumerator
    p = [1]
    for n in range(1, 11):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    for n in range(11):
        assert len(partitions(n)) == p[n]


def test_z_factor_examples():
    assert z_factor((1, 1)) == 2
    assert z_factor((2, 1)) == 2
    assert z_factor((3, 3, 1)) == 18


def test_z_factor_class_size():
    # z(lambda) = d!/#C_lambda, checked by enumerating the class
    for lam in [(3, 3, 1)[:2], (2, 1, 1), (3, 1), (2, 2)]:
        d = sum(lam)
        count = sum(1 for _ in conjugacy_class(lam))
        assert z_factor(lam) == Fraction(factorial(d), count)


def test_classes_partition_group():
    for d in range(7):
        assert sum(sum(1 for _ in conjugacy_class(lam)) for lam in partitions(d)) == factorial(d)


def test_canonical_permutation():
    assert canonical_permutation((2, 1)) == (1, 0, 2)
    assert canonical_permutation((1, 1, 1)) == (0, 1, 2)
    assert canonical_permutation((3,)) == (1, 2, 0)


@pytest.mark.parametrize("d", range(1, 9))
def test_canonical_cycle_type_roundtrip(d):
    for lam in partitions(d):
        assert cycle_type(canonical_permutation(lam)) == lam


def test_compose_and_inverse():
    s = (1, 0, 2)
    assert compose(s, s) == (0, 1, 2)
    t = (1, 2, 0)
    assert compose(t, inverse(t)) == (0, 1, 2)
    # composition order: t acts first
    assert compose((1, 0, 2), (0, 2, 1))[1] == 2


def test_cycle_type_example():
    # (1 2 6)(3 5)(4) in 1-indexed cycle notation
    s = (1, 5, 4, 3, 2, 0)
    assert cycle_type(s) == (3, 2, 1)
    assert colength(s) == 3


def test_colength():
    assert colength((1, 2, 0)) == 2
    assert colength((0, 1, 2)) == 0
    s = (1, 0, 3, 2)
    t = (2, 3, 0, 1)
    st = compose(s, t)
    assert colength(st) <= colength(s) + colength(t)
    assert (colength(st) - colength(s) - colength(t)) % 2 == 0


def test_colength_conjugation_invariant_and_parity():
    import random

    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 6)
        s = tuple(rng.sample(range(d), d))
        t = tuple(rng.sample(range(d), d))
        assert colength(s) == colength(inverse(s))
        assert cycle_type(compose(compose(t, s), inverse(t))) == cycle_type(s)
        st = compose(s, t)
        assert colength(st) <= colength(s) + colength(t)
        assert (colength(st) + colength(s) + colength(t)) % 2 == 0


def test_conjugacy_class_counts():
    assert list(conjugacy_class((2,))) == [(1, 0)]
    assert sum(1 for _ in conjugacy_class((2, 1))) == 3
    assert sum(1 for _ in conjugacy_class((3, 1))) == 8


def test_conjugacy_class_restartable():
    stream = conjugacy_class((2, 1))
    first = list(stream)
    assert list(conjugacy_class((2, 1))) == first


def test_character_trivial_and_sign():
    for d in range(1, 6):
        for mu in partitions(d):
            assert character((d,), mu) == 1
            sign = (-1) ** (d - len(mu))
            assert character((1,) * d, mu) == sign
    assert character((1, 1), (2,)) == -1


@pytest.mark.parametrize("d", range(1, 7))
def test_character_orthogonality(d):
    parts = partitions(d)
    # column orthogonality: sum_lam chi(mu) chi(nu) = z(mu) delta
    for mu in parts:
        for nu in parts:
            total = sum(character(lam, mu) * character(lam, nu) for lam in parts)
            assert total == (z_factor(mu) if mu == nu else 0)
    # row orthogonality with 1/z weights
    for lam in parts:
        for rho in parts:
            total = sum(
                Fraction(character(lam, mu) * character(rho, mu)) / z_factor(mu)
                for mu in parts
            )
            assert total == (1 if lam == rho else 0)


def hook_dimension(lam) -> int:
    """Dimension of the irreducible indexed by lam (hook length formula)."""
    if not lam:
        return 1
    conj = [0] * lam[0]
    for p in lam:
        for j in range(p):
            conj[j] += 1
    n = factorial(sum(lam))
    for i, p in enumerate(lam):
        for j in range(p):
            n //= (p - j) + (conj[j] - i) - 1
    return n


def test_character_dimension_hook():
    for d in range(1, 7):
        for lam in partitions(d):
            assert character(lam, (1,) * d) == hook_dimension(lam)


@pytest.mark.parametrize("d", range(15))
def test_character_table_matches_per_entry_recursion(d):
    parts = partitions(d)
    want = tuple(tuple(symcore_reference.character(rho, mu) for mu in parts) for rho in parts)
    assert character_table(d) == want


def test_character_table_degree_20():
    # at d = 20 (p(20) = 627): the column of 1^d is the hook-length
    # dimension, the squared dimensions sum to d!, and every column has
    # norm z(mu)
    d = 20
    parts = partitions(d)
    table = character_table(d)
    dims = [row[-1] for row in table]
    assert parts[-1] == (1,) * d
    assert dims == [hook_dimension(lam) for lam in parts]
    assert sum(x * x for x in dims) == factorial(d)
    for mu, col in zip(parts, zip(*table)):
        assert sum(x * x for x in col) == z_factor(mu)


def test_content_polynomial():
    (one,) = content_rows(1, 6)
    assert one == (1, 0, 0, 0, 0, 0, 0)
    two = content_rows(2, 6)[0]  # rho = (2,)
    assert two[:2] == (1, 1) and not any(two[2:])
    hook = content_rows(3, 6)[1]  # rho = (2, 1)
    assert hook[:3] == (1, 0, -1) and not any(hook[3:])
    # the inverse rows invert the products, to hbar^K
    for d in range(1, 6):
        for fwd, inv in zip(content_rows(d, 6), content_rows(d, 6, inverse=True)):
            prod = [sum(fwd[i] * inv[k - i] for i in range(k + 1)) for k in range(7)]
            assert prod == [1, 0, 0, 0, 0, 0, 0]


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        compose((0, 1), (0,))
    with pytest.raises(ValueError):
        symcore_reference.character((2,), (1, 1, 1))
