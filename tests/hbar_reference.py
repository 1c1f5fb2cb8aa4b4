"""The hbar-series as an object: HbarSeries, exact truncated Laurent
series in the single grading variable hbar, the reference the library's
integer rows (freehop.hbar) are compared with by ``==``, and the
arithmetic only the tests use: the series from and to integer numerators
over one denominator, the inverse, and division.

A series is known to hbar^K: coefficients with exponent > K are unknown
and never stored.  Negative exponents are allowed (the one-point function
carries an hbar^(-1) constant).  Arithmetic tracks the tightest truncation
guaranteed by the inputs.  The terms are integer numerators by exponent
over one positive denominator, in lowest terms, and ``.c`` is a read-only
decoded view {exponent: Fraction} over the nonzero terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType

from freehop.series import _reduced


def _new(num: dict[int, int], den: int, K: int) -> "HbarSeries":
    """The series sum_e num[e] hbar^e / den known to hbar^K, with the
    terms past K and the zeros dropped and the common factor divided out,
    a form in which equal series at equal K are equal field by field."""
    s = object.__new__(HbarSeries)
    s._num, s._den = _reduced({e: v for e, v in num.items() if v and e <= K}, den)
    s.K = K
    return s


class HbarSeries:
    __slots__ = ("_num", "_den", "K")

    def __init__(self, coeffs: dict[int, Fraction], K: int):
        kept = {e: Fraction(v) for e, v in coeffs.items() if v and e <= K}
        den = lcm(*(v.denominator for v in kept.values()))
        self._num, self._den = _reduced({e: v.numerator * (den // v.denominator) for e, v in kept.items()}, den)
        self.K = K

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, K: int) -> "HbarSeries":
        return _new({}, 1, K)

    @classmethod
    def one(cls, K: int) -> "HbarSeries":
        return _new({0: 1}, 1, K)

    @classmethod
    def const(cls, v, K: int) -> "HbarSeries":
        return cls.monomial(v, 0, K)

    @classmethod
    def monomial(cls, v, e: int, K: int) -> "HbarSeries":
        v = Fraction(v)
        return _new({e: v.numerator}, v.denominator, K)

    # -- basics --------------------------------------------------------------
    @property
    def c(self):
        """Read-only view {exponent: Fraction} of the nonzero terms."""
        return MappingProxyType({e: Fraction(v, self._den) for e, v in sorted(self._num.items())})

    def low(self) -> int:
        """The lowest exponent of a nonzero term, 0 for the zero series."""
        return min(self._num, default=0)

    def coeff(self, e: int) -> Fraction:
        if e > self.K:
            raise ValueError("coefficient hbar^%d beyond truncation %d" % (e, self.K))
        return Fraction(self._num.get(e, 0), self._den)

    def truncate(self, K: int) -> "HbarSeries":
        return self if K >= self.K else _new(self._num, self._den, K)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if not isinstance(other, HbarSeries):
            return NotImplemented
        a, b = self.truncate(other.K), other.truncate(self.K)
        return (a._num, a._den) == (b._num, b._den)

    # equality compares at the smaller K, which no hash of the stored
    # terms can respect
    __hash__ = None

    def __repr__(self) -> str:
        terms = ["%s*h^%d" % (v, e) if e else str(v) for e, v in self.c.items()]
        return " + ".join(terms + ["O(h^%d)" % (self.K + 1)])

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "HbarSeries":
        if not isinstance(other, HbarSeries):
            other = HbarSeries.const(other, self.K)
        den = lcm(self._den, other._den)
        out = {e: v * (den // self._den) for e, v in self._num.items()}
        for e, v in other._num.items():
            out[e] = out.get(e, 0) + v * (den // other._den)
        return _new(out, den, min(self.K, other.K))

    __radd__ = __add__

    def __neg__(self) -> "HbarSeries":
        return self * -1

    def __sub__(self, other) -> "HbarSeries":
        return self + -other

    def __rsub__(self, other) -> "HbarSeries":
        return (-self) + other

    def __mul__(self, other) -> "HbarSeries":
        if not isinstance(other, HbarSeries):
            v = Fraction(other)
            return _new({e: x * v.numerator for e, x in self._num.items()}, self._den * v.denominator, self.K)
        # truncation: unknown tail of one factor times the lowest known
        # exponent of the other bounds the reliable window
        K = min(self.K + other.low(), other.K + self.low())
        out: dict[int, int] = {}
        for ea, va in self._num.items():
            for eb, vb in other._num.items():
                if ea + eb <= K:
                    out[ea + eb] = out.get(ea + eb, 0) + va * vb
        return _new(out, self._den * other._den, K)

    __rmul__ = __mul__


def from_numerators(num: list, den: int, K: int) -> HbarSeries:
    """(sum_e num[e] hbar^e) / den, from integer numerators for hbar^0,
    hbar^1, ... and a positive denominator."""
    return HbarSeries({e: Fraction(v, den) for e, v in enumerate(num)}, K)


def numerators(s: HbarSeries, K: int) -> tuple[list, int]:
    """The integer numerators of hbar^0..hbar^K, as one list, and the
    lowest denominator they share; the inverse of from_numerators."""
    if K > s.K or s.low() < 0:
        raise ValueError("no hbar^0..hbar^%d numerators of %r" % (K, s))
    return [s._num.get(e, 0) for e in range(K + 1)], s._den


def inverse(s: HbarSeries) -> HbarSeries:
    """Multiplicative inverse of a series with nonzero lowest term: with
    s = hbar^f a_f (1 + sum_k hbar^k a_(f+k) / a_f), solve s x = 1 order
    by order."""
    if s.is_zero():
        raise ZeroDivisionError("inverting zero series")
    c, f = s.c, s.low()
    lead, N = c[f], s.K - f
    x = [Fraction(1)]
    for n in range(1, N + 1):
        x.append(-sum(c.get(f + k, 0) / lead * x[n - k] for k in range(1, n + 1)))
    return HbarSeries({n - f: v / lead for n, v in enumerate(x)}, N - f)


def divide(s: HbarSeries, other) -> HbarSeries:
    """s / other, for a series or a nonzero scalar other."""
    if isinstance(other, HbarSeries):
        return s * inverse(other)
    return s * (Fraction(1) / Fraction(other))
