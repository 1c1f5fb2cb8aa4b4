"""Integer partitions and the first-block splits of a multiset, permutations
of [d], conjugacy classes and characters.

Conventions used throughout the package:

- A partition is a tuple of weakly decreasing positive ints; ``()`` is the
  only partition of 0.
- A permutation of [d] is a tuple of length d in one-line notation over the
  points ``0..d-1`` (0-indexed internally; JSON serialization is 1-indexed).
- Composition is function composition: ``compose(s, t)(x) == s[t[x]]``,
  i.e. ``t`` acts first.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations as _all_perms, product
from math import comb, factorial
from operator import add, sub
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


def z_factor(lam: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type ``lam``.

    Equals ``d!/#C_lam`` and ``prod(lam_i) * prod_j m_j(lam)!``.

    >>> z_factor((1, 1))
    2
    >>> z_factor((2, 1))
    2
    >>> z_factor((3, 3, 1))
    18
    """
    z = 1
    for p in lam:
        z *= p
    for mult in multiplicities(lam).values():
        z *= factorial(mult)
    return z


def class_size(lam: Partition) -> int:
    d = sum(lam)
    return factorial(d) // z_factor(lam)


def sort_to_partition(ks) -> Partition:
    """Weakly decreasing reordering of a sequence of positive ints."""
    return tuple(sorted(ks, reverse=True))


@lru_cache(maxsize=None)
def _splits(nu: tuple) -> tuple:
    """The first-block splits of nu = (a, rho), a sorted tuple of parts
    (the lengths of a partition, or the classes of a linkage pattern): for
    each sub-multiset T of rho, the block a u T, the rest rho - T and the
    count c_T = prod_k C(m_k(rho), t_k) of sets of rho's parts, as
    distinct objects, whose values form T.  The block and the rest keep
    nu's order.  Memoised per nu.

    >>> for mu, rest, c in _splits((3, 2, 1, 1)):
    ...     print(mu, rest, c)
    (3,) (2, 1, 1) 1
    (3, 1) (2, 1) 2
    (3, 1, 1) (2,) 1
    (3, 2) (1, 1) 1
    (3, 2, 1) (1,) 2
    (3, 2, 1, 1) () 1
    """
    out = []
    mult = Counter(nu[1:])  # distinct parts in nu's order
    for ts in product(*(range(m + 1) for m in mult.values())):
        mu, rest, c = nu[:1], (), 1
        for (k, m), t in zip(mult.items(), ts):
            mu += (k,) * t
            rest += (k,) * (m - t)
            c *= comb(m, t)
        out.append((mu, rest, c))
    return tuple(out)


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


@lru_cache(maxsize=None)
def character_table(d: int) -> tuple[tuple[int, ...], ...]:
    """The p(d) x p(d) character table: row i, column j holds
    chi^rho(mu) for rho = partitions(d)[i] and mu = partitions(d)[j].

    Built from the tables of lower degree by the Murnaghan-Nakayama rule

        chi^rho(mu) = sum over the border strips xi of rho of length mu_1
                      of (-1)^ht(xi) chi^(rho - xi)(mu_2, mu_3, ...),

    column block by column block (James-Kerber 2.7).  The columns with
    mu_1 = k are consecutive, and their (mu_2, ...) are the partitions of
    d - k with parts <= k, the last columns of character_table(d - k); so
    each strip adds a tail of one row of that table.  A strip of length k
    moves a bead of the beta-set b_i = rho_i + len(rho) - 1 - i down by k
    onto a free place, past ht(xi) beads.

    >>> character_table(3)
    ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
    """
    if not d:
        return ((1,),)
    parts = _partitions(d)
    rows: list[list[int]] = [[] for _ in parts]
    for k in range(d, 0, -1):
        lower = character_table(d - k)
        index = {lam: i for i, lam in enumerate(_partitions(d - k))}
        start = sum(1 for lam in index if lam and lam[0] > k)
        for row, rho in zip(rows, parts):
            ell = len(rho)
            beta = [p + ell - 1 - i for i, p in enumerate(rho)]
            seg = [0] * (len(index) - start)
            for i in range(ell):
                b = beta[i] - k
                j = i + 1
                while j < ell and beta[j] > b:
                    j += 1
                if b < 0 or j < ell and beta[j] == b:
                    continue
                # the beads i+1..j-1 move up one place, and b takes place j-1
                rest = rho[:i] + tuple(p - 1 for p in rho[i + 1:j]) + (b + j - ell,) + rho[j:]
                tail = lower[index[tuple(p for p in rest if p)]][start:]
                seg = list(map(add if (j - i) % 2 else sub, seg, tail))
            row += seg
    return tuple(map(tuple, rows))


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

