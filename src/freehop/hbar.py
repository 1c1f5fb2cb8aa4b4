"""Exact truncated series in the single grading variable hbar, as integer
rows: the library's one hbar-series representation.

A series known to hbar^K is a list of K + 1 integer numerators, those of
hbar^0..hbar^K, over one positive denominator kept beside it; terms past K
are never stored.  The master routes, the Hurwitz tables and the Moebius
function on PS(d), plain and hbar-extended, all compute on these rows.  A
product is one truncated convolution of integer lists (_mul_add), or a
shift of a row where one factor is a monomial hbar^c, as in the Moebius
function's Neumann series; a Fraction is built only where a coefficient
is read off (_decode).

>>> acc = [0, 0, 0, 0]
>>> _mul_add(acc, 1, [2, 1, 0, 0], [1, 0, 3, 0], 3)  # (2 + h)(1 + 3 h^2)
>>> acc
[2, 1, 6, 3]
>>> _decode(acc, 4)
{0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(3, 2), 3: Fraction(3, 4)}
"""

from __future__ import annotations

from fractions import Fraction
from operator import add


def _mul_add(acc: list, c: int, a, b, K: int) -> None:
    """acc += c * a * b, for integer rows indexed by the hbar exponent
    0..K, truncated at hbar^K; every row has length K + 1."""
    lb = next((j for j, y in enumerate(b) if y), K + 1)
    b = b[lb:]
    for i, x in enumerate(a[:K + 1 - lb]):
        if x:
            x *= c
            i += lb
            acc[i:] = map(add, acc[i:], map(x.__mul__, b))


def _decode(row, den: int) -> dict[int, Fraction]:
    """The nonzero coefficients {exponent: Fraction} of the row over den,
    in ascending order of the exponent."""
    return {e: Fraction(v, den) for e, v in enumerate(row) if v}
