"""Set partitions, partitioned permutations, the Moebius function on them,
plain and hbar-extended, both by one Neumann series of the hbar zeta
function on the integer rows of freehop.hbar (the plain one keeps only
the colength-additive products), and the factorization counts of a
one-block target (1_d, pi_lam) that the convolution routes evaluate:
a walk over one permutation per orbit of S_d under conjugation by the
centralizer of pi_lam, weighted by the orbit's size, whose linkage
pattern is found by union-find on pi_lam's cycles, and which counts the
partitions of a permutation's cycles that join the pattern into one
block once per pattern for the process, by an inclusion-exclusion over
the classes on first-block recursions, never listing the Bell(m) set
partitions (target_factorizations).

A set partition of [d] is stored canonically as a tuple ``ids`` of length d
mapping each point to its block id, blocks numbered 0, 1, ... in order of
their least element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _all_perms
from operator import add, sub

from . import symcore
from .symcore import Perm

SetPartition = tuple[int, ...]


def canonical_ids(ids) -> SetPartition:
    relabel: dict[int, int] = {}
    out = []
    for b in ids:
        if b not in relabel:
            relabel[b] = len(relabel)
        out.append(relabel[b])
    return tuple(out)


def blocks_of(part: SetPartition) -> list[tuple[int, ...]]:
    nb = num_blocks(part)
    out: list[list[int]] = [[] for _ in range(nb)]
    for x, b in enumerate(part):
        out[b].append(x)
    return [tuple(b) for b in out]


def num_blocks(part: SetPartition) -> int:
    return max(part) + 1 if part else 0


def part_colength(part: SetPartition) -> int:
    return len(part) - num_blocks(part)


def finest(d: int) -> SetPartition:
    return tuple(range(d))


def orbit_partition(s: Perm) -> SetPartition:
    """0_sigma: the partition of [d] into supports of cycles.

    >>> orbit_partition((1, 5, 4, 3, 2, 0))
    (0, 0, 1, 2, 1, 0)
    """
    ids = [0] * len(s)
    for i, cyc in enumerate(symcore.cycles(s)):
        for x in cyc:
            ids[x] = i
    return canonical_ids(tuple(ids))


def join(a: SetPartition, b: SetPartition) -> SetPartition:
    """Smallest common coarsening (the lattice join), by union-find."""
    if len(a) != len(b):
        raise ValueError("size mismatch")
    d = len(a)
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    first_a: dict[int, int] = {}
    first_b: dict[int, int] = {}
    for x in range(d):
        if a[x] in first_a:
            union(first_a[a[x]], x)
        else:
            first_a[a[x]] = x
        if b[x] in first_b:
            union(first_b[b[x]], x)
        else:
            first_b[b[x]] = x
    return canonical_ids(tuple(find(x) for x in range(d)))


# ---------------------------------------------------------------------------
# partitioned permutations

PartPerm = tuple[SetPartition, Perm]


def pp_colength(x: PartPerm) -> int:
    return 2 * part_colength(x[0]) - symcore.colength(x[1])


def unit_pp(d: int) -> PartPerm:
    return (finest(d), symcore.identity(d))


# ---------------------------------------------------------------------------
# the Moebius function on PS(d), plain or hbar-extended, as the integer rows
# of freehop.hbar


def _neumann(d: int, K: int, additive: bool) -> dict[PartPerm, list]:
    """sum_j (-N)^(*j) to hbar^K, as integer rows over the denominator 1,
    with N(0_s, s) = hbar^|s| for s != id: zeta_hbar is the unit delta plus
    N, so this is its (*)-inverse.  Each power is one walk over the steps
    x -> x (.) (0_s, s), and a step shifts x's row by |s|, so (-N)^(*j)
    starts at hbar^j.  With additive, only the steps with
    |x (.) (0_s, s)| = |x| + |s| are kept: the product of the plain
    convolution *.  A step left out adds only above hbar^|x (.) (0_s, s)|,
    since |x (.) y| <= |x| + |y|, so the coefficient at hbar^|x| is the
    same either way; the additive walk is the smaller one.  Every entry
    met is kept, its row zero or not."""
    col = {s: symcore.colength(s) for s in _all_perms(range(d))}
    by_zero: dict[SetPartition, list[Perm]] = {}
    for s, c in col.items():
        if c:
            by_zero.setdefault(orbit_partition(s), []).append(s)
    # 0_s fixes |s|: the steps grouped by 0_s, in ascending |s|
    steps = sorted((col[ss[0]], zero_s, ss) for zero_s, ss in by_zero.items())
    unit = unit_pp(d)
    out = {unit: [1] + [0] * K}
    power = dict(out)
    joins: dict[tuple[SetPartition, SetPartition], tuple[SetPartition, int]] = {}  # at most Bell(d)^2
    for j in range(K):
        nxt: dict[PartPerm, list] = {}
        for (A, a), p in power.items():
            x_col = 2 * part_colength(A) - col[a]
            a_of = a.__getitem__
            for c, B, ss in steps:
                if j + c > K:
                    break
                pair = (A, B)
                found = joins.get(pair)
                if found is None:
                    part = join(A, B)
                    found = joins[pair] = (part, 2 * part_colength(part))
                part, twice = found
                # an additive step needs |a o s| = need
                need = twice - x_col - c
                if additive and not 0 <= need < d:
                    continue
                for s in ss:
                    ab = tuple(map(a_of, s))  # a o s
                    if additive and col[ab] != need:
                        continue
                    xy = (part, ab)
                    acc = nxt.get(xy)
                    if acc is None:
                        acc = nxt[xy] = [0] * (K + 1)
                    acc[c:] = map(sub, acc[c:], p)
        power = {x: row for x, row in nxt.items() if any(row)}
        if not power:
            break
        for x, row in power.items():
            out[x] = list(map(add, out[x], row)) if x in out else row
    return out


def moebius(d: int) -> dict[PartPerm, Fraction]:
    """The *-inverse of zeta on PS(d): the Neumann series with the
    additive steps only, whose row at x is mu(x) hbar^|x|.  It has every
    element of PS(d), zero or not: (0_a, a) is unit (.) (0_a, a), and any
    other (A, a) is (A, a t) (.) (0_t, t), additively, for a transposition
    t of two cycles of a in one block of A.

    >>> sorted(moebius(2).items())
    [(((0, 0), (0, 1)), Fraction(1, 1)), (((0, 0), (1, 0)), Fraction(-1, 1)), (((0, 1), (0, 1)), Fraction(1, 1))]
    """
    return {x: Fraction(row[pp_colength(x)]) for x, row in _neumann(d, max(2 * d - 2, 0), True).items()}


def moebius_hbar(d: int, K: int) -> dict[PartPerm, list]:
    """(*)-inverse of zeta_hbar up to hbar^K, zeta_hbar(0_s, s) = hbar^|s|,
    as integer rows over the denominator 1, on the entries whose row is
    not zero: the Neumann series with every step."""
    return {x: row for x, row in _neumann(d, K, False).items() if any(row)}


def _centralizer_generators(lam: symcore.Partition) -> list[Perm]:
    """Generators of the centralizer of pi_lam = canonical_permutation(lam)
    in S_d: per part length p, the rotation of the first cycle of length p
    and, for m >= 2 such cycles, the swap of the first two and the shift of
    all m onto the next (point k onto point k)."""
    starts = [sum(lam[:i]) for i in range(len(lam))]
    by_len: dict[int, list[int]] = {}
    for i, p in enumerate(lam):
        by_len.setdefault(p, []).append(i)
    gens = []
    for p, idx in by_len.items():
        moves = [({idx[0]: idx[0]}, 1)] if p > 1 else []
        if len(idx) >= 2:
            moves.append(({idx[0]: idx[1], idx[1]: idx[0]}, 0))
        if len(idx) >= 3:
            moves.append((dict(zip(idx, idx[1:] + idx[:1])), 0))
        for move, shift in moves:
            img = list(range(sum(lam)))
            for src, dst in move.items():
                for k in range(p):
                    img[starts[src] + k] = starts[dst] + (k + shift) % p
            gens.append(tuple(img))
    return gens


def _orbit_reps(lam: symcore.Partition):
    """One beta per orbit of S_d under conjugation by the centralizer of
    pi_lam, with the orbit's size.  A beta that is no image of an earlier
    one starts an orbit, closed under conjugation by the generators; the
    walk skips its other members as it meets them."""
    gens = [(g, symcore.inverse(g)) for g in _centralizer_generators(lam)]
    met: set[Perm] = set()
    for beta in _all_perms(range(sum(lam))):
        if beta in met:
            met.discard(beta)
            continue
        orbit, todo = {beta}, [beta]
        while todo:
            x = todo.pop()
            for g, g_inv in gens:
                y = tuple([g[x[i]] for i in g_inv])  # g x g^-1
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        yield beta, len(orbit)
        met |= orbit - {beta}


def _flat(pattern: tuple[symcore.Partition, ...]) -> symcore.Partition:
    return symcore.sort_to_partition(p for mu in pattern for p in mu)


def _times(a: dict, b: dict) -> dict:
    """The product of two counts by block types: a grouping of one set of
    cycles with a grouping of another, the types concatenated and sorted."""
    out: dict = {}
    for ta, na in a.items():
        for tb, nb in b.items():
            key = tuple(sorted(ta + tb))
            out[key] = out.get(key, 0) + na * nb
    return out


@lru_cache(maxsize=None)
def _all_groupings(nu: symcore.Partition) -> dict[tuple[symcore.Partition, ...], int]:
    """Every partition B of a set of cycles with lengths nu, counted by the
    sorted cycle types on the blocks of B: the block of the first cycle
    takes the cycles of a sub-multiset T of the others, in c_T ways
    (symcore._splits), and the rest are grouped alike.  Memoised per nu for
    the process; the dicts are read only.

    >>> _all_groupings((2, 1, 1))
    {((1,), (1,), (2,)): 1, ((1, 1), (2,)): 1, ((1,), (2, 1)): 2, ((2, 1, 1),): 1}
    """
    if not nu:
        return {(): 1}
    out: dict = {}
    for mu, rest, c in symcore._splits(nu):
        for types, n in _times({(mu,): c}, _all_groupings(rest)).items():
            out[types] = out.get(types, 0) + n
    return out


@lru_cache(maxsize=None)
def _linked_groupings(pattern: tuple[symcore.Partition, ...]) -> dict[tuple[symcore.Partition, ...], int]:
    """The partitions B of the cycles of a permutation whose linked classes
    have the cycle lengths in pattern (a sorted tuple of partitions), with
    B v (the classes) one block, counted by the cycle types on the blocks
    of B.  In any B, the classes that B v (the classes) joins to the first
    form a sub-pattern S, on whose cycles B is connected, and B is any
    partition of the rest, so by inclusion-exclusion

        Conn(P) = All(P) - sum over S with the first class, S != P,
                           of c_S Conn(S) All(P - S),

    with S taken c_S ways (symcore._splits over the classes).  Memoised per
    pattern for the process; the dicts are read only.

    >>> _linked_groupings(((1,), (1, 1)))
    {((1,), (1, 1)): 2, ((1, 1, 1),): 1}
    """
    found = dict(_all_groupings(_flat(pattern)))
    for sub, rest, c in symcore._splits(pattern):
        if rest:
            for types, n in _times(_linked_groupings(sub), _all_groupings(_flat(rest))).items():
                found[types] -= c * n
    return {types: n for types, n in found.items() if n}


def _linkage(lam: symcore.Partition, cycs) -> tuple[symcore.Partition, ...]:
    """The linkage pattern of the cycles cycs of a beta: the cycle lengths
    in each class of cycles that the cycles of pi_lam they meet join, as
    a sorted tuple of partitions, by union-find on pi_lam's cycle
    indices."""
    owner = [i for i, p in enumerate(lam) for _ in range(p)]  # pi_lam's cycle through each point
    parent = list(range(len(lam)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cyc in cycs:
        r = find(owner[cyc[0]])
        for x in cyc[1:]:
            s = find(owner[x])
            if s != r:
                parent[s] = r
    classes: dict[int, list[int]] = {}
    for cyc in cycs:
        classes.setdefault(find(owner[cyc[0]]), []).append(len(cyc))
    return tuple(sorted(symcore.sort_to_partition(c) for c in classes.values()))


_target_counts_cache: dict = {}


def target_factorizations(lam: symcore.Partition) -> tuple:
    """Factorizations (0_alpha, alpha) (.) (B, beta) = (1_d, pi_lam) of a
    one-block target, counted by their contribution to zeta_hbar (*) phi
    for a multiplicative phi.

    For each beta with alpha = pi_lam beta^-1 and each partition B of the
    cycles of beta with 0_alpha v B = 1_d, the key is (|alpha|, sorted
    cycle types of beta on the blocks of B).  Returns the sorted
    ((|alpha|, types), count) pairs; the only key with |alpha| = 0 is
    (0, (lam,)) with count 1.

    The B and their types depend on beta only through the cycle lengths in
    each class of beta's cycles that alpha links (_linkage), and
    <alpha, beta> = <pi_lam, beta>.  Conjugating beta by an element of the
    centralizer of pi_lam keeps that pattern and |alpha|, so one beta per
    orbit is walked, weighted by the orbit's size, and the B are counted
    once per pattern (_linked_groupings).

    >>> target_factorizations((2,))
    (((0, ((2,),)), 1), ((1, ((1,), (1,))), 1), ((1, ((1, 1),)), 1))
    """
    if lam in _target_counts_cache:
        return _target_counts_cache[lam]
    pi = symcore.canonical_permutation(lam)
    sizes: dict[tuple[int, tuple[symcore.Partition, ...]], int] = {}
    for beta, size in _orbit_reps(lam):
        key = (symcore.colength(symcore.compose(pi, symcore.inverse(beta))), _linkage(lam, symcore.cycles(beta)))
        sizes[key] = sizes.get(key, 0) + size
    counts: dict[tuple[int, tuple[symcore.Partition, ...]], int] = {}
    for (col_a, pattern), size in sizes.items():
        for types, c in _linked_groupings(pattern).items():
            key = (col_a, types)
            counts[key] = counts.get(key, 0) + size * c
    out = tuple(sorted(counts.items()))
    _target_counts_cache[lam] = out
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def setpartition_to_json(part: SetPartition) -> list[list[int]]:
    return [sorted(x + 1 for x in blk) for blk in blocks_of(part)]

