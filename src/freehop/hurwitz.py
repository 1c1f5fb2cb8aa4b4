"""Strictly/weakly monotone and free single Hurwitz numbers from the
character table, and the inverse-pair identity.

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
or the central character of the colength-r class sum (free single), which
by Jucys' theorem is e_r(contents) again: that class sum is e_r of the
Jucys-Murphy elements.  The characters come from ``symcore.character_table``.
The master routes in ``transforms`` multiply by the same ``content_rows``
inside their chi-transform, without building a table.  The enumeration
and group-algebra oracles it is checked with live in
``tests/hurwitz_reference.py``.
"""

from __future__ import annotations

from math import factorial, lcm
from operator import mul

from . import symcore
from .hbar import Packed, _decode
from .symcore import Partition

KINDS = ("strict", "weak", "free-single")


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
