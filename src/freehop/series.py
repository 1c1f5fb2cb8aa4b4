"""One-variable coefficient recursions over the rationals: the Taylor
coefficients of sinh(t/2)/(t/2), the reciprocal of a series 1 + O(w), and
the coefficients of w(X) by Lagrange inversion, with zeros not stored; and
the library's one product of one-variable series {exponent: coefficient}
cut at a top exponent (_w_product), on Fractions or integer numerators:
the Lagrange powers phi^k, P, the powers of 1/C and of phi, the vertex
rows and the leaf weights of the tree routes are multiplied by it.
TruncationError is raised where a result would need a coefficient past
the working truncation."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class TruncationError(ValueError):
    pass


def _reduced(terms: dict, den: int) -> tuple[dict, int]:
    """Divide numerators and denominator by their common factor."""
    if not terms:
        return terms, 1
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return {k: v // g for k, v in terms.items()}, den // g
    return terms, den


def _w_product(a: dict, b: dict, top: int) -> dict:
    """The product of two series in one variable, given as {exponent:
    coefficient}, cut above the exponent top.

    >>> _w_product({0: 1, 1: 1}, {0: 1, 1: 1}, 1)
    {0: 1, 1: 2}
    """
    out: dict = {}
    for x, cx in a.items():
        for y, cy in b.items():
            if x + y <= top:
                out[x + y] = out.get(x + y, 0) + cx * cy
    return out


def sigma_coefficients(K: int) -> dict[int, Fraction]:
    """Taylor coefficients of sinh(t/2)/(t/2) = sum t^(2j)/(4^j (2j+1)!),
    through degree K.

    >>> sigma_coefficients(4)[2]
    Fraction(1, 24)
    >>> sigma_coefficients(4)[4]
    Fraction(1, 1920)
    """
    from math import factorial

    out = {}
    j = 0
    while 2 * j <= K:
        out[2 * j] = Fraction(1, 4**j * factorial(2 * j + 1))
        j += 1
    return out


def inverse_coeffs(coeffs: dict[int, Fraction], top: int) -> dict[int, Fraction]:
    """Coefficients through degree top of 1/f, for f = 1 + O(w) given as
    {exponent: coefficient} with nonnegative exponents; zeros are not
    stored.

    >>> inverse_coeffs({0: 1, 2: 1}, 6)
    {0: Fraction(1, 1), 2: Fraction(-1, 1), 4: Fraction(1, 1), 6: Fraction(-1, 1)}
    """
    if coeffs.get(0) != 1 or any(e < 0 for e in coeffs):
        raise ValueError("expected a series 1 + O(w)")
    tail = sorted((e, Fraction(c)) for e, c in coeffs.items() if e > 0 and c)
    inv = {0: Fraction(1)}
    for m in range(1, top + 1):
        s = 0
        for e, c in tail:
            if e > m:
                break
            q = inv.get(m - e)
            if q is not None:
                s += c * q
        if s:
            inv[m] = -s
    return inv


def lagrange_coeffs(phi: dict[int, Fraction], D: int) -> dict[int, Fraction]:
    """[X^k] w(X) for k = 1..D, where w = X phi(w) and phi is given as
    {exponent: coefficient}: by Lagrange inversion [X^k] w = [w^(k-1)]
    phi^k / k.  The powers phi^k are integer numerators over one
    denominator, multiplied by _w_product and cut at w^(D-1), the highest
    coefficient read.

    >>> sorted(lagrange_coeffs({0: 1, 2: 1}, 7).items())
    [(1, Fraction(1, 1)), (3, Fraction(1, 1)), (5, Fraction(2, 1)), (7, Fraction(5, 1))]
    """
    if any(e < 0 for e in phi):
        raise ValueError("phi must be a power series")
    top = D - 1
    kept = {e: Fraction(c) for e, c in phi.items() if e <= top and c}
    den = lcm(*(c.denominator for c in kept.values())) if kept else 1
    base = {e: c.numerator * (den // c.denominator) for e, c in kept.items()}
    out = {}
    power, pden = {0: 1}, 1  # phi^0
    for k in range(1, D + 1):
        power, pden = _reduced(_w_product(power, base, top), pden * den)
        if power.get(k - 1):
            out[k] = Fraction(power[k - 1], pden * k)
    return out
