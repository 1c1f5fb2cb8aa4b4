"""Strictly/weakly monotone and free single Hurwitz numbers, with the
Jucys-Murphy group-algebra oracle and the inverse-pair identity.

A sequence of transpositions tau_i = (a_i b_i) with a_i < b_i is strictly
(weakly) monotone when the b_i are strictly (weakly) increasing.  The count
H_r(lambda, nu) is 1/d! times the number of tuples (alpha, tau_1..tau_r,
beta) with alpha in C_lambda, beta in C_nu and
alpha o tau_1 o ... o tau_r o beta = id.

``hurwitz_table``, behind the ``hurwitz`` subcommand and ``verify --suite
orthogonality``, is a content-multiplier kernel.  A central element acts
on the irreducible rho |- d by a scalar, and the Jucys-Murphy elements act
by the contents of rho, so

    H_r(lambda, nu) = sum_rho chi^rho(lambda) chi^rho(nu) m_rho(r) / (z_lambda z_nu)

with m_rho(r) the hbar^r coefficient of prod over the cells of rho of
(1 + hbar c), e_r(contents) (strict), or of its inverse, (-1)^r
h_r(contents) (weak), both the integer rows of ``symcore.content_rows``,
or the central character of the colength-r class sum (free single).  The
characters come from ``symcore.character_table``.  The master routes in
``transforms`` multiply by the same ``content_rows`` inside their
chi-transform, without building a table.

The oracles check it by other means: ``_monotone_counts`` enumerates the
monotone sequences by depth-first search (with alpha fixed to pi_lambda and
a division by z(lambda) in place of enumerating C_lambda), behind
``strict_monotone_count``, ``weakly_monotone_count`` and
``hurwitz_series``; ``free_single_count`` enumerates S(d); and
``jucys_murphy_oracle`` multiplies in the group algebra.  No route calls
them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul

from . import symcore
from .hbar import Packed, _decode
from .symcore import Partition, Perm

KINDS = ("strict", "weak", "free-single")
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
    """H^<_r(lambda, nu).

    >>> strict_monotone_count((2,), (1, 1), 1)
    Fraction(1, 2)
    """
    if sum(lam) != sum(nu):
        raise ValueError("size mismatch")
    d = sum(lam)
    if r >= d and d > 0:
        return Fraction(0)
    table = _monotone_counts(lam, r, strict=True)
    return table.get(nu, [Fraction(0)] * (r + 1))[r]


def weakly_monotone_count(lam: Partition, nu: Partition, r: int) -> Fraction:
    """H^<=_r(lambda, nu).

    >>> weakly_monotone_count((1, 1), (1, 1), 2)
    Fraction(1, 2)
    """
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


def _content_multipliers(d: int, kind: str, rmax: int):
    """m_rho(r) for r = 0..rmax, one row per rho in partitions(d)."""
    if kind == "free-single":
        parts = symcore.partitions(d)
        chars = symcore.character_table(d)
        sizes = [symcore.class_size(mu) for mu in parts]
        colen = [d - len(mu) for mu in parts]
        rows = []
        for chi in chars:
            dim = chi[-1]  # chi^rho(1^d); partitions(d) ends with 1^d
            row = [0] * (rmax + 1)
            for size, c, r in zip(sizes, chi, colen):
                if r <= rmax:
                    row[r] += size * c
            # a central character is a rational algebraic integer, so dim
            # divides these sums exactly
            rows.append([v // dim for v in row])
        return rows
    # e_r of the contents (strict), (-1)^r h_r (weak)
    return symcore.content_rows(d, rmax, inverse=kind == "weak")


def hurwitz_table(d: int, kind: str, K: int) -> dict[tuple[Partition, Partition], tuple[list, int]]:
    """All (lambda, nu) series for given d, to hbar^K: strict and
    free-single sum hbar^r H_r (polynomials of degree <= d-1), weak sums
    (-hbar)^r H^<=_r.  Built from the character table and the content
    multipliers (see the module docstring), as (row, z_lambda z_nu): the
    integer row of hbar^0..hbar^K (freehop.hbar) and its denominator.  The
    table is symmetric in (lambda, nu)."""
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % kind)
    parts = symcore.partitions(d)
    rmax = K if kind == "weak" else min(K, max(d - 1, 0))
    chars = symcore.character_table(d)
    mult = _content_multipliers(d, kind, rmax)
    # each entry is a packed sum of the multiplier rows, read back at once:
    # |sum_rho chi^rho(lam) chi^rho(nu) m_rho(r)| <= max |m| sqrt(z_lam z_nu)
    # by Cauchy-Schwarz and column orthogonality, and z_lam <= d!
    ring = Packed(rmax, (max(abs(v) for m in mult for v in m) * factorial(d)).bit_length() + 1)
    mult = [ring.row(m) for m in mult]
    pad = [0] * (K - rmax)
    z = [symcore.z_factor(lam) for lam in parts]
    out = {}
    for i, lam in enumerate(parts):
        for j in range(i, len(parts)):
            row = ring.reduce(sum(map(mul, [chi[i] * chi[j] for chi in chars], mult)))
            out[(lam, parts[j])] = out[(parts[j], lam)] = (ring.read(row, 0, rmax + 1) + pad, z[i] * z[j])
    return out


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


def verify_orthogonality(d: int, K: int) -> dict:
    """Check both identities of the strict/weak inverse pair exactly as
    hbar-series up to hbar^K; returns a report with per-pair residuals.
    The sum over rho of first z_lam z_rho second is a row over L z_nu."""
    parts = symcore.partitions(d)
    strict = hurwitz_table(d, "strict", K)
    weak = hurwitz_table(d, "weak", K)
    z = [symcore.z_factor(lam) for lam in parts]
    L = lcm(*z)  # first[(lam, rho)] is over z_lam z_rho, second[(rho, nu)] over z_rho z_nu
    # a residual slot is at most L (max |strict row| max |weak row| + d!),
    # in sums of |coefficients|, since sum_rho 1 / z_rho = 1 and z_nu <= d!
    top = [max(sum(map(abs, row)) for row, _ in t.values()) for t in (strict, weak)]
    ring = Packed(K, (L * (top[0] * top[1] + factorial(d))).bit_length() + 1)
    strict, weak = ({key: ring.row(row) for key, (row, _) in t.items()} for t in (strict, weak))
    cases = []
    ok = True
    for order in ("strict-weak", "weak-strict"):
        first, second = (strict, weak) if order == "strict-weak" else (weak, strict)
        for lam in parts:
            for j, nu in enumerate(parts):
                resid = sum(L // zr * first[(lam, rho)] * second[(rho, nu)] for zr, rho in zip(z, parts))
                if lam == nu:
                    resid -= L * z[j]
                resid = ring.reduce(resid)
                good = resid == 0
                ok = ok and good
                cases.append(
                    {
                        "input": {"order": order, "lambda": list(lam), "nu": list(nu)},
                        "expected": "delta",
                        "got": "delta" if good else str(_decode(ring.read(resid, 0, K + 1), L * z[j])),
                        "pass": good,
                    }
                )
    return {"suite": "orthogonality", "d": d, "hbar": K, "pass": ok, "cases": cases}


# ---------------------------------------------------------------------------
# JSON table format


def table_to_json(d: int, kind: str, table, K: int) -> dict:
    entries = []
    for (lam, nu), (row, den) in sorted(table.items()):
        for r, v in _decode(row, den).items():
            entries.append(
                {
                    "lambda": list(lam),
                    "nu": list(nu),
                    "r": r,
                    "value": str(v),
                }
            )
    return {"d": d, "kind": kind, "hbar": K, "entries": entries}
