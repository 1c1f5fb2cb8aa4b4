import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from freehop import oracles, pscore, symcore, tables
from freehop.oracles import (
    genus0_moment_by_convolution,
    hbar_moment_series,
    hbar_moment_table,
    polygon_gluings_by_genus,
    star_factorization_counts,
)


def F(a, b=1):
    return Fraction(a, b)


def test_polygon_gluings_harer_zagier():
    assert polygon_gluings_by_genus(1) == {0: 1}
    assert polygon_gluings_by_genus(2) == {0: 2, 1: 1}
    assert polygon_gluings_by_genus(3) == {0: 5, 1: 10}
    assert polygon_gluings_by_genus(4) == {0: 14, 1: 70, 2: 21}
    # total count is (2k-1)!!
    assert sum(polygon_gluings_by_genus(4).values()) == 105


def test_star_counts_classical_moments():
    # the free moment-cumulant formula on one-part targets
    counts3 = star_factorization_counts((3,))
    # m3 = k3 + 3 k2 k1 + k1^3
    assert counts3[((3,),)] == 1
    assert counts3[((1,), (2,))] == 3
    assert counts3[((1,), (1,), (1,))] == 1
    counts4 = star_factorization_counts((4,))
    # m4 = k4 + 4 k3 k1 + 2 k2^2 + 6 k2 k1^2 + k1^4 (noncrossing partitions)
    assert counts4[((4,),)] == 1
    assert counts4[((1,), (3,))] == 4
    assert counts4[((2,), (2,))] == 2
    assert counts4[((1,), (1,), (2,))] == 6
    assert counts4[((1,), (1,), (1,), (1,))] == 1


def test_star_counts_two_point_anchor():
    # F_{0;(2,1)} = k_{2,1} + 2 k_{1,1} k_1 + 2 k_3 + 2 k_2 k_1 (hand
    # enumeration of the strict factorizations of (1_3, (12)(3)))
    counts = star_factorization_counts((2, 1))
    assert counts[((2, 1),)] == 1
    assert counts[((1,), (1, 1))] == 2
    assert counts[((3,),)] == 2
    assert counts[((1,), (2,))] == 2


def test_genus0_oracle_on_gue():
    gue = tables.gue_table()
    for k, cat in [(1, 1), (2, 2), (3, 5), (4, 14)]:
        assert genus0_moment_by_convolution(gue, (2 * k,)) == cat
    assert genus0_moment_by_convolution(gue, (3,)) == 0
    assert genus0_moment_by_convolution(gue, (2, 2)) == 2
    assert genus0_moment_by_convolution(gue, (1, 1)) == 1


def test_hbar_oracle_matches_genus0():
    rt = tables.random_table(seed=31, nmax=2, degmax=4)
    full = hbar_moment_table(rt, 4, 0)
    for (g2, ks), v in full.items():
        assert g2 == 0
        assert v == genus0_moment_by_convolution(rt, ks)


def test_hbar_oracle_gue_genus1():
    series = hbar_moment_series(tables.gue_table(), (4,), 5)
    # phi(1_4, pi_(4)) = hbar^3 F_{0;4} + hbar^5 F_{1;4} (base d+l-2 = 3)
    assert series.get(3, 0) == 2
    assert series.get(5, 0) == 1
    assert series.get(4, 0) == 0


def test_hbar_oracle_half_genus_grading():
    t = {(0, (1,)): F(1), (1, (1,)): F(1, 2)}
    series = hbar_moment_series(t, (1,), 3)
    # d = 1: base grading l + d - 2 = 0
    assert series.get(0, 0) == 1
    assert series.get(1, 0) == F(1, 2)


def _freehop_imports(source: str):
    """The freehop modules a module's source imports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0 and not mod.startswith("freehop"):
                continue
            mod = mod.removeprefix("freehop").lstrip(".")
            if mod:
                yield mod.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("freehop."):
                    yield alias.name.split(".")[1]


def test_oracles_import_no_route_code():
    # an oracle that imports the code it checks is not an oracle: oracles
    # may use only the partition helpers and the table schema
    used = set(_freehop_imports(Path(oracles.__file__).read_text()))
    assert used <= {"symcore", "tables"}, used


def _partitions_into_blocks(m: int, nb: int):
    """Set partitions of range(m) with exactly nb blocks, by restricted
    growth strings (codes[i] <= 1 + max of earlier codes, capped at nb)."""
    if nb < 1 or nb > m:
        return
    codes = [0] * m

    def rec(i: int, used: int):
        if used + (m - i) < nb:
            return
        if i == m:
            if used == nb:
                blocks: list[list[int]] = [[] for _ in range(nb)]
                for x, c in enumerate(codes):
                    blocks[c].append(x)
                yield [tuple(b) for b in blocks]
            return
        for c in range(min(used + 1, nb)):
            codes[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def _joins_to_full(m: int, groups_a, groups_b) -> bool:
    """Whether the groups of range(m) in groups_a and groups_b together
    connect all of range(m)."""
    return len(set(oracles._roots(m, groups_a, groups_b))) == 1


def _unmemoised_factorization_counts(lam, K):
    """The walk of oracles._factorization_counts with no memo: every beta
    lists the partitions of its own cycles."""
    d = sum(lam)
    pi = symcore.canonical_permutation(lam)
    out = {}
    for beta in itertools.permutations(range(d)):
        alpha = symcore.compose(pi, symcore.inverse(beta))
        cycs_a, cycs_b = symcore.cycles(alpha), symcore.cycles(beta)
        m = len(cycs_b)
        col_a = d - len(cycs_a)
        span = col_a + d + m
        owner = {x: i for i, cyc in enumerate(cycs_b) for x in cyc}
        links = [tuple({owner[x] for x in cyc}) for cyc in cycs_a]
        for nb in range(max(1, (span - K + 1) // 2), min(m, (span - d - len(lam) + 2) // 2) + 1):
            for grouping in _partitions_into_blocks(m, nb):
                if _joins_to_full(m, links, grouping):
                    key = (col_a, tuple(sorted(
                        symcore.sort_to_partition(len(cycs_b[i]) for i in grp) for grp in grouping
                    )))
                    out[key] = out.get(key, 0) + 1
    return out


def _walk_orders():
    """(lam, extra) for every lam |- <= 6 at every order K = d + ell - 2 +
    extra up to 3d - 3, past which no factorization is new, and for every
    lam |- 7 at the genus-0 order."""
    for d in range(1, 8):
        for lam in symcore.partitions(d):
            top = 0 if d == 7 else 3 * d - 3 - (d + len(lam) - 2)
            for extra in range(top + 1):
                yield lam, extra


@pytest.mark.parametrize("lam, extra", list(_walk_orders()),
                         ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else str(x))
def test_factorization_walk_memo_is_exact(lam, extra):
    # the walk takes one beta per centralizer orbit and counts B once per
    # linkage pattern for the process; it counts what the plain walk, which
    # lists every B of every beta, counts
    K = sum(lam) + len(lam) - 2 + extra
    assert oracles._factorization_counts(lam, K) == _unmemoised_factorization_counts(lam, K)


@pytest.mark.parametrize("d", range(1, 8))
def test_oracle_orbit_reduction(d):
    for lam in symcore.partitions(d):
        pi = symcore.canonical_permutation(lam)
        cent = oracles._centralizer(lam)
        assert len(set(cent)) == len(cent) == symcore.z_factor(lam)
        assert all(symcore.compose(c, pi) == symcore.compose(pi, c) for c in cent)
        assert sum(size for _, size in oracles._orbit_reps(lam)) == math.factorial(d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_graded_counts_match_target_factorizations(d):
    # two independently written walks over the same factorizations; every
    # order is at most |alpha| + d + #cyc(beta) - 2 <= 3d - 3
    for lam in symcore.partitions(d):
        assert oracles._factorization_counts(lam, 3 * d) == dict(pscore.target_factorizations(lam))
