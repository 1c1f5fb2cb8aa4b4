"""The oracles freehop.hurwitz.hurwitz_table is checked with, by other
means than its character-table kernel: ``_monotone_counts`` enumerates the
monotone sequences by depth-first search (with alpha fixed to pi_lambda and
a division by z(lambda) in place of enumerating C_lambda), behind
``strict_monotone_count``, ``weakly_monotone_count`` and
``hurwitz_series``; ``free_single_count`` enumerates S(d); and
``jucys_murphy_oracle`` multiplies in the group algebra, to d <=
``ORACLE_BOUND``."""

from fractions import Fraction
from math import factorial

from freehop import symcore
from freehop.hurwitz import KINDS
from freehop.symcore import Partition, Perm

ORACLE_BOUND = 6


def _monotone_counts(lam: Partition, rmax: int, strict: bool) -> dict[Partition, list[Fraction]]:
    """For fixed alpha = pi_lambda, count monotone sequences by (type of
    beta, r); returns {nu: [counts by r]} already divided by z(lambda).

    beta is forced: beta = (alpha tau_1 ... tau_r)^{-1}.
    """
    d = sum(lam)
    zl = symcore.z_factor(lam)
    out: dict[Partition, list[Fraction]] = {}

    def record(prod: Perm, r: int):
        nu = symcore.cycle_type(symcore.inverse(prod))
        if nu not in out:
            out[nu] = [Fraction(0)] * (rmax + 1)
        out[nu][r] += Fraction(1) / zl

    def dfs(prod: Perm, r: int, last_b: int):
        record(prod, r)
        if r == rmax:
            return
        start = last_b + 1 if strict else last_b
        for b in range(max(start, 1), d):
            for a in range(b):
                nxt = list(prod)
                nxt[a], nxt[b] = prod[b], prod[a]
                dfs(tuple(nxt), r + 1, b)

    # 0-indexed larger entries b range over 1..d-1; the initial last_b makes
    # the first step start at b = 1 for both monotonicity flavours
    dfs(symcore.canonical_permutation(lam), 0, 0 if strict else 1)
    return out


def strict_monotone_count(lam: Partition, nu: Partition, r: int) -> Fraction:
    """H^<_r(lambda, nu)."""
    if sum(lam) != sum(nu):
        raise ValueError("size mismatch")
    d = sum(lam)
    if r >= d and d > 0:
        return Fraction(0)
    table = _monotone_counts(lam, r, strict=True)
    return table.get(nu, [Fraction(0)] * (r + 1))[r]


def weakly_monotone_count(lam: Partition, nu: Partition, r: int) -> Fraction:
    """H^<=_r(lambda, nu)."""
    if sum(lam) != sum(nu):
        raise ValueError("size mismatch")
    table = _monotone_counts(lam, r, strict=False)
    return table.get(nu, [Fraction(0)] * (r + 1))[r]


def free_single_count(lam: Partition, nu: Partition, r: int) -> Fraction:
    """H^|_r(lambda, nu): triples (alpha, psi, beta), |psi| = r,
    alpha o psi o beta = id; alpha fixed to pi_lambda, scaled by 1/z."""
    if sum(lam) != sum(nu):
        raise ValueError("size mismatch")
    d = sum(lam)
    alpha = symcore.canonical_permutation(lam)
    count = 0
    for psi in symcore.all_permutations(d):
        if symcore.colength(psi) != r:
            continue
        if symcore.cycle_type(symcore.inverse(symcore.compose(alpha, psi))) == nu:
            count += 1
    return Fraction(count) / symcore.z_factor(lam)


def hurwitz_series(lam: Partition, nu: Partition, kind: str, K: int) -> dict[int, Fraction]:
    """Generating series, as {r: nonzero coefficient} for r <= K: strict
    sums hbar^r H^<_r (a polynomial of degree <= d-1), weak sums
    (-hbar)^r H^<=_r truncated at hbar^K."""
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % kind)
    d = sum(lam)
    rmax = K if kind == "weak" else min(K, max(d - 1, 0))
    if kind == "free-single":
        row = [free_single_count(lam, nu, r) for r in range(rmax + 1)]
    else:
        row = _monotone_counts(lam, rmax, strict=kind == "strict").get(nu, [])
    sign = -1 if kind == "weak" else 1
    return {r: sign ** r * v for r, v in enumerate(row) if v}


# ---------------------------------------------------------------------------
# Jucys-Murphy oracle: elements of the group algebra QS(d) as dense maps


def _ga_mul(A: dict[Perm, Fraction], B: dict[Perm, Fraction]) -> dict[Perm, Fraction]:
    out: dict[Perm, Fraction] = {}
    for s, vs in A.items():
        for t, vt in B.items():
            st = symcore.compose(s, t)
            w = out.get(st, Fraction(0)) + vs * vt
            if w:
                out[st] = w
            else:
                out.pop(st, None)
    return out


def _ga_mul_jm(A: dict[Perm, Fraction], d: int, k: int) -> dict[Perm, Fraction]:
    """Multiply A by the Jucys-Murphy element J_k = sum_{i<k} (i k)."""
    out: dict[Perm, Fraction] = {}
    for s, vs in A.items():
        for i in range(k):
            t = list(s)
            # right multiplication: s o (i k)
            t[i], t[k] = s[k], s[i]
            t = tuple(t)
            w = out.get(t, Fraction(0)) + vs
            if w:
                out[t] = w
            else:
                out.pop(t, None)
    return out


def _jm_symmetric(d: int, rmax: int, kind: str) -> list[dict[Perm, Fraction]]:
    """e_r(J_2..J_d) (kind strict) or h_r(J_2..J_d) (kind weak) for
    r = 0..rmax, in the group algebra of S(d).

    JM indices here are 0-based points: J_k = sum_{i<k} (i k) for k = 1..d-1.
    """
    ident = {symcore.identity(d): Fraction(1)}
    levels: list[dict[Perm, Fraction]] = [ident] + [dict() for _ in range(rmax)]
    if kind == "strict":
        for k in range(1, d):
            for r in range(min(rmax, k), 0, -1):
                add = _ga_mul_jm(levels[r - 1], d, k)
                for s, v in add.items():
                    w = levels[r].get(s, Fraction(0)) + v
                    if w:
                        levels[r][s] = w
                    else:
                        levels[r].pop(s, None)
        return levels
    for k in range(1, d):
        # h-recursion: with variable J_k added, h'_r = sum_j h_{r-j} J_k^j
        new_levels = [dict(levels[0])]
        for r in range(1, rmax + 1):
            acc = dict(levels[r])
            prev = new_levels[r - 1]
            add = _ga_mul_jm(prev, d, k)
            for s, v in add.items():
                w = acc.get(s, Fraction(0)) + v
                if w:
                    acc[s] = w
                else:
                    acc.pop(s, None)
            new_levels.append(acc)
        levels = new_levels
    return levels


def jucys_murphy_oracle(lam: Partition, nu: Partition, kind: str, r: int) -> Fraction:
    """[id]-coefficient route: H_r(lambda, nu) = (1/d!) [id] C_lam C_nu e_r(J)
    (strict) or with h_r (weak); free-single uses the colength-r class sum.
    """
    d = sum(lam)
    if d != sum(nu):
        raise ValueError("size mismatch")
    if d > ORACLE_BOUND:
        raise ValueError("oracle bound exceeded: d=%d > %d" % (d, ORACLE_BOUND))
    if kind == "free-single":
        B = {
            s: Fraction(1)
            for s in symcore.all_permutations(d)
            if symcore.colength(s) == r
        }
    else:
        B = _jm_symmetric(d, r, kind)[r]
    C_nu = {s: Fraction(1) for s in symcore.conjugacy_class(nu)}
    P = _ga_mul(C_nu, B)
    total = Fraction(0)
    for s in symcore.conjugacy_class(lam):
        total += P.get(symcore.inverse(s), Fraction(0))
    return total / factorial(d)
