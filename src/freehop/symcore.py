"""Integer partitions, permutations of [d], conjugacy classes and characters.

Conventions used throughout the package:

- A partition is a tuple of weakly decreasing positive ints; ``()`` is the
  only partition of 0.
- A permutation of [d] is a tuple of length d in one-line notation over the
  points ``0..d-1`` (0-indexed internally; JSON serialization is 1-indexed).
- Composition is function composition: ``compose(s, t)(x) == s[t[x]]``,
  i.e. ``t`` acts first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _all_perms
from math import factorial
from typing import Iterator

Partition = tuple[int, ...]
Perm = tuple[int, ...]


def is_partition(parts) -> bool:
    t = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in t) and all(
        t[i] >= t[i + 1] for i in range(len(t) - 1)
    )


def partitions(d: int) -> list[Partition]:
    """All partitions of d, in reverse-lexicographic order.

    >>> partitions(0)
    [()]
    >>> partitions(3)
    [(3,), (2, 1), (1, 1, 1)]
    >>> len(partitions(6))
    11
    """
    return list(_partitions(d))


@lru_cache(maxsize=None)
def _partitions(d: int) -> tuple[Partition, ...]:
    if d < 0:
        raise ValueError("d must be nonnegative")
    out: list[Partition] = []

    def rec(rest: int, maxpart: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + (p,))

    rec(d, d if d else 1, ())
    return tuple(out)


def multiplicities(lam: Partition) -> dict[int, int]:
    m: dict[int, int] = {}
    for p in lam:
        m[p] = m.get(p, 0) + 1
    return m


def z_factor(lam: Partition) -> Fraction:
    """Order of the centralizer of a permutation of cycle type ``lam``.

    Equals ``d!/#C_lam`` and ``prod(lam_i) * prod_j m_j(lam)!``.

    >>> z_factor((1, 1))
    Fraction(2, 1)
    >>> z_factor((2, 1))
    Fraction(2, 1)
    >>> z_factor((3, 3, 1))
    Fraction(18, 1)
    """
    z = 1
    for p in lam:
        z *= p
    for mult in multiplicities(lam).values():
        z *= factorial(mult)
    return Fraction(z)


def class_size(lam: Partition) -> int:
    d = sum(lam)
    return factorial(d) // int(z_factor(lam))


def sort_to_partition(ks) -> Partition:
    """Weakly decreasing reordering of a sequence of positive ints."""
    return tuple(sorted(ks, reverse=True))


# ---------------------------------------------------------------------------
# permutations


def identity(d: int) -> Perm:
    return tuple(range(d))


def compose(s: Perm, t: Perm) -> Perm:
    """s after t: (compose(s, t))(x) = s(t(x)).

    >>> compose((1, 0), (1, 0))
    (0, 1)
    """
    if len(s) != len(t):
        raise ValueError("size mismatch")
    return tuple(s[t[x]] for x in range(len(t)))


def inverse(s: Perm) -> Perm:
    inv = [0] * len(s)
    for x, y in enumerate(s):
        inv[y] = x
    return tuple(inv)


def cycles(s: Perm) -> list[tuple[int, ...]]:
    """Cycles of s, each starting at its least point, sorted by that point."""
    seen = [False] * len(s)
    out = []
    for x in range(len(s)):
        if seen[x]:
            continue
        cyc = [x]
        seen[x] = True
        y = s[x]
        while y != x:
            cyc.append(y)
            seen[y] = True
            y = s[y]
        out.append(tuple(cyc))
    return out


def cycle_type(s: Perm) -> Partition:
    """
    >>> cycle_type((1, 5, 4, 3, 2, 0))   # (1 2 6)(3 5)(4) in 1-indexed cycles
    (3, 2, 1)
    """
    return sort_to_partition(len(c) for c in cycles(s))


def colength(s: Perm) -> int:
    """d minus the number of cycles; minimal transposition count.

    >>> colength((1, 2, 0))
    2
    """
    return len(s) - len(cycles(s))


def canonical_permutation(lam: Partition) -> Perm:
    """The permutation with consecutive-block cycles (1..lam_1)(lam_1+1..)...

    >>> canonical_permutation((2, 1))
    (1, 0, 2)
    >>> canonical_permutation((3,))
    (1, 2, 0)
    """
    img = []
    start = 0
    for p in lam:
        img.extend(list(range(start + 1, start + p)) + [start])
        start += p
    return tuple(img)


def conjugacy_class(lam: Partition) -> Iterator[Perm]:
    """Stream the conjugacy class C_lam inside S(d), each element once.

    Restartable: each call returns a fresh iterator.
    """
    d = sum(lam)
    for s in _all_perms(range(d)):
        if cycle_type(s) == lam:
            yield s


def all_permutations(d: int) -> Iterator[Perm]:
    return _all_perms(range(d))


# ---------------------------------------------------------------------------
# characters (Murnaghan-Nakayama) and contents


def _strip_removals(lam: Partition, length: int):
    """Yield (height, rest) for each removal of a border strip of given
    length from lam, where rest is the remaining partition."""
    ell = len(lam)
    # border strip removals correspond to beta-set moves
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    for i in range(ell):
        b = beta[i] - length
        if b < 0 or b in bset:
            continue
        nb = sorted(bset - {beta[i]} | {b}, reverse=True)
        rest = tuple(nb[j] - (ell - 1 - j) for j in range(ell))
        rest = tuple(p for p in rest if p > 0)
        if not is_partition(rest):  # pragma: no cover - beta moves keep order
            continue
        # height = number of rows the strip spans minus 1
        height = sum(1 for x in bset if b < x < beta[i])
        yield height, rest


@lru_cache(maxsize=None)
def character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric-group character chi^lam(mu), by the
    Murnaghan-Nakayama recursion.

    >>> character((3,), (1, 1, 1))
    1
    >>> character((1, 1), (2,))
    -1
    """
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if not lam:
        return 1
    k = mu[0]
    rest_mu = mu[1:]
    total = 0
    for height, rest_lam in _strip_removals(lam, k):
        total += (-1) ** height * character(rest_lam, rest_mu)
    return total


@lru_cache(maxsize=None)
def character_table(d: int) -> tuple[tuple[int, ...], ...]:
    """The p(d) x p(d) character table: row i, column j holds
    chi^rho(mu) for rho = partitions(d)[i] and mu = partitions(d)[j].

    >>> character_table(3)
    ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
    """
    parts = partitions(d)
    return tuple(tuple(character(rho, mu) for mu in parts) for rho in parts)


def contents(lam: Partition) -> list[int]:
    """Contents j - i over the cells (i, j) of lam (both 1-indexed)."""
    return [j - i for i, p in enumerate(lam, start=1) for j in range(1, p + 1)]


@lru_cache(maxsize=None)
def content_rows(d: int, K: int, inverse: bool = False) -> tuple[tuple[int, ...], ...]:
    """The hbar^0..hbar^K coefficients of prod over the cells of rho of
    (1 + hbar c), c = j - i the content, which are e_r of the contents, or
    of its inverse, (-1)^r h_r of the contents: one row per rho in
    partitions(d).  Each factor has constant term 1, so both are integers.
    Memoised per (d, K, inverse).

    >>> content_rows(2, 3)
    ((1, 1, 0, 0), (1, -1, 0, 0))
    >>> content_rows(2, 3, inverse=True)
    ((1, -1, 1, -1), (1, 1, 1, 1))
    """
    rows = []
    for rho in partitions(d):
        row = [1] + [0] * K
        for c in contents(rho):
            if not c:
                continue
            if inverse:  # divide by 1 + hbar c
                for k in range(1, K + 1):
                    row[k] -= c * row[k - 1]
            else:
                for k in range(K, 0, -1):
                    row[k] += c * row[k - 1]
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# JSON helpers (permutations serialized 1-indexed, partitions as int arrays)


def perm_to_json(s: Perm) -> list[int]:
    return [x + 1 for x in s]

