"""Independent brute-force oracles for the transform routes.

These stay deliberately elementary: one direct walk over the
factorizations (0_alpha, alpha) (.) (B, beta) = (1_d, pi_lam), counted by
hbar order and block cycle types and evaluated in plain Fractions, and
surface-gluing counts by Euler characteristic.  The walk takes one beta
per orbit of S_d under conjugation by the centralizer of pi_lam, weighted
by the orbit's size, and counts the partitions B of beta's cycles once
per linkage pattern (the cycle lengths in each class of cycles that alpha
links) for the process, since the B that count depend on beta only
through it: every B by the block of the first cycle and the rest, less
those that leave the classes in more than one piece, by the piece of the
first class and the rest.  They share no series or operator machinery
with the routes they check.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import permutations as _all_perms, product
from math import comb

from . import symcore
from .symcore import Partition, Perm
from .tables import CoefficientTable, table_get


def _roots(m: int, *groupings) -> list[int]:
    """The union-find root of each point of range(m) once the points of
    every group in the groupings are joined."""
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for groups in groupings:
        for grp in groups:
            for x in grp[1:]:
                union(grp[0], x)
    return [find(x) for x in range(m)]


def _centralizer(lam: Partition) -> list[Perm]:
    """Every c in S_d with c pi_lam = pi_lam c, pi_lam =
    canonical_permutation(lam): c sends the cycles of pi_lam of one length
    onto each other in any order, point k of a cycle to point k + shift of
    its image, with any shift per cycle; z_lam elements in all."""
    d = sum(lam)
    starts = [sum(lam[:i]) for i in range(len(lam))]
    by_len: dict[int, list[int]] = {}
    for i, p in enumerate(lam):
        by_len.setdefault(p, []).append(i)
    choices = [
        [(p, idx, onto, shifts) for onto in _all_perms(idx) for shifts in product(range(p), repeat=len(idx))]
        for p, idx in by_len.items()
    ]
    out = []
    for combo in product(*choices):
        img = [0] * d
        for p, idx, onto, shifts in combo:
            for i, j, s in zip(idx, onto, shifts):
                for k in range(p):
                    img[starts[i] + k] = starts[j] + (k + s) % p
        out.append(tuple(img))
    return out


def _orbit_reps(lam: Partition):
    """One beta per orbit of S_d under conjugation by the centralizer of
    pi_lam, with the size of its orbit.  The walk over S_d takes a beta it
    has not met as an image of an earlier one, and skips its other images
    as it reaches them."""
    conj = [(c, symcore.inverse(c)) for c in _centralizer(lam)]
    pending: set[Perm] = set()
    for beta in _all_perms(range(sum(lam))):
        if beta in pending:
            pending.discard(beta)
            continue
        # c beta c^-1 sends c(x) to c(beta(x))
        orbit = {tuple([c[beta[x]] for x in c_inv]) for c, c_inv in conj}
        yield beta, len(orbit)
        pending |= orbit - {beta}


def _first_with(parts: tuple):
    """Each way to put the first of parts (a sorted tuple) with a
    sub-multiset T of the others: (the first and T, the others left,
    the number of sets of the others, as distinct objects, whose values
    form T).  Both tuples stay sorted.

    >>> list(_first_with((1, 2, 2)))
    [((1,), (2, 2), 1), ((1, 2), (2,), 2), ((1, 2, 2), (), 1)]
    """
    counts: dict = {}
    for x in parts[1:]:
        counts[x] = counts.get(x, 0) + 1
    for take in product(*(range(n + 1) for n in counts.values())):
        ways, block, left = 1, parts[:1], ()
        for (x, n), t in zip(counts.items(), take):
            ways *= comb(n, t)
            block += (x,) * t
            left += (x,) * (n - t)
        yield block, left, ways


def _concat(a: dict, b: dict) -> dict:
    """Groupings of two disjoint sets of cycles, counted by block types,
    put side by side: the types concatenated and sorted, the counts
    multiplied."""
    out: dict = {}
    for ta, na in a.items():
        for tb, nb in b.items():
            key = tuple(sorted(ta + tb))
            out[key] = out.get(key, 0) + na * nb
    return out


_every: dict[Partition, dict[tuple[Partition, ...], int]] = {}


def _every_grouping(lens: Partition) -> dict[tuple[Partition, ...], int]:
    """Every partition of a set of cycles with lengths lens into blocks,
    counted by the sorted cycle types on the blocks: the block of the
    first cycle, then every partition of the cycles left.  Each lens is
    counted once per process.

    >>> _every_grouping((1, 1, 1))
    {((1,), (1,), (1,)): 1, ((1,), (1, 1)): 3, ((1, 1, 1),): 1}
    """
    if not lens:
        return {(): 1}
    if lens not in _every:
        found: dict[tuple[Partition, ...], int] = {}
        for block, left, ways in _first_with(lens):
            for types, c in _concat({(block,): ways}, _every_grouping(left)).items():
                found[types] = found.get(types, 0) + c
        _every[lens] = found
    return _every[lens]


_groupings: dict[tuple[Partition, ...], dict[tuple[Partition, ...], int]] = {}


def _connected_groupings(classes: tuple[Partition, ...]) -> dict[tuple[Partition, ...], int]:
    """The partitions B of a permutation's cycles that join its linked
    classes into one, counted by the cycle types on the blocks, where
    classes is the sorted tuple of the cycle lengths of each class.  The
    classes that B joins to the first form a sub-tuple S, on whose
    cycles B joins S into one, and B is any partition of the other
    cycles; so the B that join all are every B less, over each S != all
    with the first class, those that join S and not more.  They depend on
    nothing else, so each is counted once per process.

    >>> _connected_groupings(((1,), (1,)))
    {((1, 1),): 1}
    """
    if classes not in _groupings:
        found = dict(_every_grouping(_lengths(classes)))
        for part, left, ways in _first_with(classes):
            if left:
                for types, c in _concat(_connected_groupings(part), _every_grouping(_lengths(left))).items():
                    found[types] -= ways * c
        _groupings[classes] = {types: c for types, c in found.items() if c}
    return _groupings[classes]


def _lengths(classes: tuple[Partition, ...]) -> Partition:
    return symcore.sort_to_partition(p for cls in classes for p in cls)


def _factorization_counts(lam: Partition, K: int) -> dict[tuple[int, tuple[Partition, ...]], int]:
    """Counts of the factorizations

        (0_alpha, alpha) (.) (B, beta) = (1_d, pi_lam),  0_alpha v B = 1_d,

    keyed by (|alpha|, sorted cycle types of beta on the blocks of B), for
    those whose lowest hbar order |alpha| + d + #cyc(beta) - 2 #blocks(B)
    is at most K.  That order is |alpha| + |(B, beta)|, which is at least
    |(1_d, pi_lam)| = d + ell(lam) - 2 with an even difference, so each
    beta fixes a range of block counts; beta is skipped when the range is
    empty.

    The B that count, and their block types, depend on beta only through
    |alpha| and its linkage pattern: the cycle lengths in each class of
    beta's cycles that alpha links, and, since <alpha, beta> = <pi_lam,
    beta>, that the cycles of pi_lam link.  Conjugating beta by c in the
    centralizer of pi_lam conjugates alpha by c too, which keeps both.  So
    the walk takes one beta per orbit, weighted by the orbit's size, sums
    the weights per (|alpha|, pattern), and counts the B once per pattern
    (_connected_groupings), keeping those with a block count in range.
    """
    d = sum(lam)
    pi = symcore.canonical_permutation(lam)
    block = [i for i, p in enumerate(lam) for _ in range(p)]  # pi's cycle through each point
    target_col = d + len(lam) - 2

    def block_counts(col_a: int, m: int) -> range:
        span = col_a + d + m  # the order is span - 2 #blocks(B)
        return range(max(1, (span - K + 1) // 2), min(m, (span - target_col) // 2) + 1)

    weights: dict[tuple[int, tuple[Partition, ...]], int] = {}
    for beta, size in _orbit_reps(lam):
        cycs = symcore.cycles(beta)
        col_a = symcore.colength(symcore.compose(pi, symcore.inverse(beta)))
        if not block_counts(col_a, len(cycs)):
            continue
        roots = _roots(len(lam), [tuple({block[x] for x in cyc}) for cyc in cycs])
        classes: dict[int, list[int]] = {}
        for cyc in cycs:
            classes.setdefault(roots[block[cyc[0]]], []).append(len(cyc))
        key = (col_a, tuple(sorted(symcore.sort_to_partition(c) for c in classes.values())))
        weights[key] = weights.get(key, 0) + size
    out: dict[tuple[int, tuple[Partition, ...]], int] = {}
    for (col_a, classes), size in weights.items():
        nbs = block_counts(col_a, sum(map(len, classes)))
        for types, c in _connected_groupings(classes).items():
            if len(types) in nbs:
                key = (col_a, types)
                out[key] = out.get(key, 0) + size * c
    return out


@functools.lru_cache(maxsize=None)
def star_factorization_counts(lam: Partition) -> dict[tuple[Partition, ...], int]:
    """Counts of strict-product factorizations

        (0_alpha, alpha) . (B, beta) = (1_d, pi_lam)

    grouped by the multiset of cycle types of beta restricted to the blocks
    of B.  This is the entire combinatorial content of the genus-0
    zeta-convolution against a multiplicative function; evaluating a table
    is then a weighted sum over this dictionary.  These are the
    factorizations of the lowest hbar order d + ell(lam) - 2, where
    colength is additive.  Each lam is counted once per process, so
    callers must not change the dict returned.
    """
    d = sum(lam)
    if d == 0:
        return {(): 1}
    out: dict[tuple[Partition, ...], int] = {}
    for (_, types), c in _factorization_counts(lam, d + len(lam) - 2).items():
        out[types] = out.get(types, 0) + c
    return out


def genus0_moment_by_convolution(cum_table: CoefficientTable, ks) -> Fraction:
    """F_{0; k_1..k_n} as the zeta-star-convolution of the genus-0
    multiplicative cumulant function, evaluated at (1_d, pi_lam)."""
    lam = symcore.sort_to_partition(ks)
    counts = star_factorization_counts(lam)
    total = Fraction(0)
    for key, c in counts.items():
        prod = Fraction(c)
        for mu in key:
            prod *= table_get(cum_table, 0, mu)
            if not prod:
                break
        total += prod
    return total


# ---------------------------------------------------------------------------
# full hbar-graded oracle (all genus, including half-integer)


def hbar_moment_series(table: CoefficientTable, lam: Partition, K: int) -> dict[int, Fraction]:
    """phi_hbar(1_d, pi_lam) = (zeta_hbar (*) Phi_dual)(1_d, pi_lam) to
    hbar^K, as {order: nonzero coefficient}, by direct summation over
    factorizations with the join condition:

        sum over alpha beta = pi_lam, B >= 0_beta, 0_alpha v B = 1_d
        of hbar^|alpha| prod over blocks of the graded block value,

    where a block of cycle type mu has value sum_g2 hbar^(|mu| + ell(mu) -
    2 + g2) F_{g2; mu}.
    """
    if sum(lam) == 0:
        return {0: Fraction(1)}
    blocks: dict[Partition, dict[int, Fraction]] = {}

    def blockvalue(mu: Partition) -> dict[int, Fraction]:
        if mu not in blocks:
            base = sum(mu) + len(mu) - 2
            vals = {base + g2: table_get(table, g2, mu) for g2 in range(0, K - base + 1)}
            blocks[mu] = {e: v for e, v in vals.items() if v}
        return blocks[mu]

    acc: dict[int, Fraction] = {}
    for (col_a, types), count in _factorization_counts(lam, K).items():
        term = {col_a: Fraction(count)}
        for mu in types:
            nxt: dict[int, Fraction] = {}
            for e1, v1 in term.items():
                for e2, v2 in blockvalue(mu).items():
                    if e1 + e2 <= K:
                        nxt[e1 + e2] = nxt.get(e1 + e2, 0) + v1 * v2
            term = nxt
            if not term:
                break
        for e, v in term.items():
            acc[e] = acc.get(e, 0) + v
    return {e: v for e, v in acc.items() if v}


def hbar_moment_table(table: CoefficientTable, dmax: int, g2max: int, nmax: int | None = None) -> CoefficientTable:
    """Moment table from the hbar-graded convolution oracle."""
    out: CoefficientTable = {}
    for d in range(1, dmax + 1):
        for lam in symcore.partitions(d):
            if nmax is not None and len(lam) > nmax:
                continue
            base = d + len(lam) - 2
            K = base + g2max
            series = hbar_moment_series(table, lam, K)
            for g2 in range(0, g2max + 1):
                v = series.get(base + g2)
                if v:
                    out[(g2, lam)] = v
    return out


# ---------------------------------------------------------------------------
# Gaussian fixture: gluings of a 2k-gon counted by genus


def polygon_gluings_by_genus(k: int) -> dict[int, int]:
    """Pairings of the 2k edges of a polygon, counted by the genus of the
    glued surface: V - E + F = 2 - 2g with E = k, F = 1 and V the number
    of vertex orbits.

    >>> polygon_gluings_by_genus(1)
    {0: 1}
    >>> polygon_gluings_by_genus(2)
    {0: 2, 1: 1}
    """
    n = 2 * k
    rho = tuple((i + 1) % n for i in range(n))  # boundary rotation
    out: dict[int, int] = {}

    def matchings(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        a = points[0]
        for idx in range(1, len(points)):
            b = points[idx]
            rest = points[1:idx] + points[idx + 1 :]
            for m in matchings(rest):
                yield ((a, b),) + m

    for m in matchings(tuple(range(n))):
        eps = [0] * n
        for a, b in m:
            eps[a], eps[b] = b, a
        # vertices of the glued surface: orbits of eps o rho
        sigma = tuple(eps[rho[i]] for i in range(n))
        v = len(symcore.cycles(sigma))
        chi = v - k + 1
        g2 = 2 - chi
        assert g2 % 2 == 0 and g2 >= 0
        out[g2 // 2] = out.get(g2 // 2, 0) + 1
    return out


def gue_moments_by_gluing(kmax: int) -> CoefficientTable:
    """GUE one-point moments F_{g; 2k} for k <= kmax via polygon gluings."""
    out: CoefficientTable = {}
    for k in range(1, kmax + 1):
        for g, c in polygon_gluings_by_genus(k).items():
            out[(2 * g, (2 * k,))] = Fraction(c)
    return out


# ---------------------------------------------------------------------------
# closed forms from the literature, which reach far past the walks above


def harer_zagier(kmax: int, gmax: int) -> CoefficientTable:
    """GUE one-point moments F_{2g; (2k)} = eps_g(k), the number of
    gluings of a 2k-gon into a genus-g surface, for k <= kmax and
    g <= gmax, by the Harer-Zagier recursion (Invent. Math. 85, 1986)

        (k + 1) eps_g(k) = (4k - 2) eps_g(k - 1)
                           + (k - 1)(2k - 1)(2k - 3) eps_(g-1)(k - 2),

    eps_0(0) = 1.  Only the nonzero entries are listed.

    >>> sorted(harer_zagier(3, 1).items())
    [((0, (2,)), Fraction(1, 1)), ((0, (4,)), Fraction(2, 1)), ((0, (6,)), Fraction(5, 1)), ((2, (4,)), Fraction(1, 1)), ((2, (6,)), Fraction(10, 1))]
    """
    eps = [[1] + [0] * kmax]  # eps[g][k]
    for g in range(1, gmax + 1):
        eps.append([0] * (kmax + 1))
    for k in range(1, kmax + 1):
        for g in range(gmax + 1):
            v = (4 * k - 2) * eps[g][k - 1]
            if g and k >= 2:
                v += (k - 1) * (2 * k - 1) * (2 * k - 3) * eps[g - 1][k - 2]
            eps[g][k] = v // (k + 1)
    return {(2 * g, (2 * k,)): Fraction(eps[g][k])
            for g in range(gmax + 1) for k in range(1, kmax + 1) if eps[g][k]}


def free_moments_genus0(table: CoefficientTable, deg: int) -> CoefficientTable:
    """The genus-0 one-point moments m_n, n <= deg, of the free cumulants
    kappa_s = F_{0; (s)} of a table, by the free moment-cumulant relation
    (Nica-Speicher, Lectures on the Combinatorics of Free Probability,
    2006)

        m_n = sum_(s = 1..n) kappa_s [x^(n - s)] M(x)^s,  M = sum_i m_i x^i,

    with m_0 = 1, as {(0, (n,)): m_n} over the nonzero m_n.  It builds no
    inverse series: each m_n needs only the m_i of lower degree.

    >>> free_moments_genus0({(0, (2,)): Fraction(1)}, 6)
    {(0, (2,)): Fraction(1, 1), (0, (4,)): Fraction(2, 1), (0, (6,)): Fraction(5, 1)}
    """
    kappa = [table_get(table, 0, (s,)) for s in range(deg + 1)]
    m = [Fraction(1)]
    for n in range(1, deg + 1):
        # power = M^s to x^(n - s), for s = 1, 2, ...
        power = m[:n]
        total = Fraction(0)
        for s in range(1, n + 1):
            if kappa[s]:
                total += kappa[s] * power[n - s]
            nxt = [Fraction(0)] * (n - s)
            for i, a in enumerate(power[:n - s]):
                if a:
                    for j in range(n - s - i):
                        nxt[i + j] += a * m[j]
            power = nxt
        m.append(total)
    return {(0, (n,)): v for n, v in enumerate(m) if n and v}
