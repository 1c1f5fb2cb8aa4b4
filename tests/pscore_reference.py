"""The object-valued functions on PS(d) that only the tests use, with
their values Fractions or hbar_reference.HbarSeries: a set partition
from its blocks, the coarsest one and the list of all set partitions of
range(n) (the Bell enumeration the library's first-block recursions are
checked against), the refinement order, the coarsenings of a set
partition and the enumeration of PS(d), the plain Moebius function by a
triangular solve in colength (the reference pscore.moebius's Neumann
series is compared with), the strict and extended products of partitioned permutations, the plain zeta and
delta functions, the strict and extended convolutions of total tables,
multiplicative functions built from a block rule, the hbar zeta and
Moebius functions as HbarSeries (the reference pscore's integer rows are
compared with by ``==``), and the leading and subleading orders of an
hbar-graded function.

A function is a plain dict {(part, perm): value}.  Multiplicative
functions are given by a block rule (cycle type -> value) and expanded to
total tables when convolving.
"""

from fractions import Fraction
from itertools import permutations as _all_perms

from freehop import symcore
from freehop.pscore import PartPerm, SetPartition, blocks_of, canonical_ids, join, orbit_partition, pp_colength, unit_pp
from hbar_reference import HbarSeries


def from_blocks(d: int, blocks) -> SetPartition:
    ids = [-1] * d
    for i, blk in enumerate(blocks):
        for x in blk:
            if not 0 <= x < d or ids[x] != -1:
                raise ValueError("blocks must partition range(d)")
            ids[x] = i
    if any(b == -1 for b in ids):
        raise ValueError("blocks must cover range(d)")
    return canonical_ids(ids)


def coarsest(d: int) -> SetPartition:
    return (0,) * d


def set_partitions_of(n: int):
    """All set partitions of range(n) as lists of tuples (restricted growth)."""
    if n == 0:
        yield []
        return
    codes = [0] * n

    def rec(i: int, maxid: int):
        if i == n:
            nb = maxid + 1
            blocks: list[list[int]] = [[] for _ in range(nb)]
            for x, c in enumerate(codes):
                blocks[c].append(x)
            yield [tuple(b) for b in blocks]
            return
        for c in range(maxid + 2):
            codes[i] = c
            yield from rec(i + 1, max(maxid, c))

    yield from rec(1, 0)


def leq(a: SetPartition, b: SetPartition) -> bool:
    """Refinement order: every block of a inside a block of b."""
    if len(a) != len(b):
        raise ValueError("size mismatch")
    img: dict[int, int] = {}
    for x in range(len(a)):
        if a[x] in img:
            if img[a[x]] != b[x]:
                return False
        else:
            img[a[x]] = b[x]
    return True


def coarsenings(part: SetPartition):
    """All set partitions >= part (partitions of the block set)."""
    blks = blocks_of(part)
    for grouping in set_partitions_of(len(blks)):
        ids = [0] * len(part)
        for gid, group in enumerate(grouping):
            for bi in group:
                for x in blks[bi]:
                    ids[x] = gid
        yield canonical_ids(tuple(ids))


def enumerate_ps(d: int, bound: int = 6) -> list[PartPerm]:
    """All of PS(d): pairs (A, a) with 0_a <= A."""
    if d > bound:
        raise ValueError("enumeration bound exceeded: d=%d > %d" % (d, bound))
    out = []
    for s in _all_perms(range(d)):
        for part in coarsenings(orbit_partition(s)):
            out.append((part, s))
    return out


def moebius(d: int) -> dict[PartPerm, Fraction]:
    """The *-inverse of zeta on PS(d), by triangular solve in colength."""
    elements = enumerate_ps(d, bound=max(6, d))
    elements.sort(key=pp_colength)
    mu: dict[PartPerm, Fraction] = {}
    for target in elements:
        val = Fraction(1) if target == unit_pp(d) else Fraction(0)
        tgt_col = pp_colength(target)
        part_t, perm_t = target
        # factorizations (A, a) . (0_b, b) = target with b != id
        for b in _all_perms(range(d)):
            col_b = symcore.colength(b)
            if col_b == 0 or col_b > tgt_col:
                continue
            a = symcore.compose(perm_t, symcore.inverse(b))
            zero_b = orbit_partition(b)
            if not leq(zero_b, part_t):
                continue
            # candidates A: 0_a <= A <= target partition, colength additive,
            # A v 0_b = target partition
            for cand in coarsenings(orbit_partition(a)):
                if not leq(cand, part_t):
                    continue
                x = (cand, a)
                if pp_colength(x) + col_b != tgt_col:
                    continue
                if join(cand, zero_b) != part_t:
                    continue
                val -= mu[x]
        mu[target] = val
    return mu


def product_extended(x: PartPerm, y: PartPerm) -> PartPerm:
    """(A, a) (.) (B, b) = (A v B, a o b); always defined."""
    if len(x[1]) != len(y[1]):
        raise ValueError("size mismatch")
    return (join(x[0], y[0]), symcore.compose(x[1], y[1]))


def product_strict(x: PartPerm, y: PartPerm) -> PartPerm | None:
    """The multiplication keeping only colength-additive products; None is
    the absorbing zero."""
    z = product_extended(x, y)
    if pp_colength(x) + pp_colength(y) == pp_colength(z):
        return z
    return None


def zeta_function(d: int) -> dict[PartPerm, Fraction]:
    return {
        (orbit_partition(s), s): Fraction(1) for s in _all_perms(range(d))
    }


def delta_function(d: int) -> dict[PartPerm, Fraction]:
    return {unit_pp(d): Fraction(1)}


def zeta_hbar(d: int, K: int) -> dict[PartPerm, HbarSeries]:
    return {
        (orbit_partition(s), s): HbarSeries.monomial(1, symcore.colength(s), K)
        for s in _all_perms(range(d))
    }


def convolve(f, g, kind: str = "strict"):
    """Convolution (f * g) or extended convolution (f (*) g) of total tables.

    Sums f(x) g(y) over factorizations x . y = target (strict) or
    x (.) y = target (extended).
    """
    if kind not in ("strict", "extended"):
        raise ValueError("kind must be strict or extended")
    # functions built at different working truncations must not be mixed;
    # guarantees above the working truncation (from positive valuations)
    # are fine
    mins = [
        min(v.K for v in fn.values() if isinstance(v, HbarSeries))
        for fn in (f, g)
        if any(isinstance(v, HbarSeries) for v in fn.values())
    ]
    if len(mins) == 2 and mins[0] != mins[1]:
        raise ValueError("truncation mismatch: %s vs %s" % tuple(mins))
    out: dict[PartPerm, object] = {}
    for x, fx in f.items():
        if _is_zero(fx):
            continue
        for y, gy in g.items():
            if _is_zero(gy):
                continue
            if kind == "strict":
                z = product_strict(x, y)
                if z is None:
                    continue
            else:
                z = product_extended(x, y)
            term = fx * gy
            if z in out:
                out[z] = out[z] + term
            else:
                out[z] = term
    return out


def _is_zero(v) -> bool:
    if isinstance(v, HbarSeries):
        return v.is_zero()
    return v == 0


def multiplicative_function(d: int, blockvalue) -> dict[PartPerm, object]:
    """Total table of the multiplicative function with the given block rule.

    ``blockvalue(mu)`` is the value on a one-block partitioned permutation
    whose permutation has cycle type ``mu``.
    """
    out = {}
    for part, s in enumerate_ps(d):
        v = None
        for blk in blocks_of(part):
            mu = symcore.sort_to_partition(
                len(c) for c in symcore.cycles(s) if c[0] in blk
            )
            bv = blockvalue(mu)
            v = bv if v is None else v * bv
        out[(part, s)] = v
    return out


_moebius_hbar_cache: dict = {}


def moebius_hbar(d: int, K: int) -> dict[PartPerm, HbarSeries]:
    """(*)-inverse of zeta_hbar up to hbar^K, by the Neumann series
    (zeta_hbar differs from the unit delta at order hbar)."""
    if (d, K) in _moebius_hbar_cache:
        return _moebius_hbar_cache[(d, K)]
    zh = zeta_hbar(d, K)
    n = dict(zh)
    unit = unit_pp(d)
    if unit in n:
        n[unit] = n[unit] - HbarSeries.one(K)
        if n[unit].is_zero():
            del n[unit]
    out = {unit: HbarSeries.one(K)}
    power = dict(out)
    for j in range(1, K + 1):
        power = convolve(power, n, kind="extended")
        power = {x: v.truncate(K) for x, v in power.items() if not v.is_zero()}
        if not power:
            break
        sign = -1 if j % 2 else 1
        for x, v in power.items():
            term = v * sign
            out[x] = out.get(x, HbarSeries.zero(K)) + term
    out = {x: v for x, v in out.items() if not v.is_zero()}
    _moebius_hbar_cache[(d, K)] = out
    return out


def leading_order(phi_h: dict[PartPerm, HbarSeries]) -> dict[PartPerm, Fraction]:
    """Extract the coefficient of hbar^|(A, a)| from an hbar-graded function.

    Raises if any value has terms below its colength order.
    """
    out = {}
    for x, v in phi_h.items():
        col = pp_colength(x)
        if any(e < col for e in v.c):
            raise ValueError("value at %r below hbar^%d" % (x, col))
        out[x] = v.coeff(col)
    return out


def infinitesimal_order(phi_h: dict[PartPerm, HbarSeries]):
    """Extract (leading, subleading) coefficients hbar^|x|, hbar^(|x|+1)."""
    lead = leading_order(phi_h)
    sub = {x: v.coeff(pp_colength(x) + 1) for x, v in phi_h.items()}
    return lead, sub
