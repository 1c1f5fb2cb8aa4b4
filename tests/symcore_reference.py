"""The per-entry Murnaghan-Nakayama recursion that symcore.character_table
is compared with: one character chi^lam(mu) per call, each strip removal
on a sorted beta-set, memoised per (lam, mu)."""

from functools import lru_cache

from freehop.symcore import Partition, is_partition


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
