"""Exact truncated Laurent series in the single grading variable hbar.

A series is known to hbar^K: coefficients with exponent > K are unknown
and never stored.  Negative exponents are allowed (the one-point function
carries an hbar^(-1) constant).  Arithmetic tracks the tightest truncation
guaranteed by the inputs.

Representation.  The coefficients are dense: a lowest exponent ``lo``, a
list of integer numerators for the exponents lo, lo + 1, ... and one
positive integer denominator.  The form is canonical: the list has nonzero
ends and stops at or below K, the numerators and the denominator are
coprime as a whole, and the zero series is ``lo = 0, [], 1``.  So equal
series at equal K are equal field by field, products are convolutions of
integer lists and sums rescale to the lcm of two denominators.  ``.c`` is
a read-only decoded view, ``{exponent: Fraction}`` over the nonzero terms.

>>> h = HbarSeries({-1: 1, 0: Fraction(1, 2)}, 3)
>>> h * h
1*h^-2 + 1*h^-1 + 1/4 + O(h^3)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from types import MappingProxyType


def _new(lo: int, num: list, den: int, K: int) -> "HbarSeries":
    """The canonical series (sum_i num[i] hbar^(lo + i)) / den known to
    hbar^K: terms past K and zero ends dropped, common factor divided out."""
    if len(num) > K - lo + 1:
        num = num[:max(K - lo + 1, 0)]
    if num and not (num[0] and num[-1]):
        i, j = 0, len(num)
        while j and not num[j - 1]:
            j -= 1
        while i < j and not num[i]:
            i += 1
        num = num[i:j]
        lo += i
    if not num:
        lo, den = 0, 1
    elif den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
    s = object.__new__(HbarSeries)
    s._lo, s._num, s._den, s.K, s._c = lo, num, den, K, None
    return s


class HbarSeries:
    __slots__ = ("_lo", "_num", "_den", "K", "_c")

    def __init__(self, coeffs: dict[int, Fraction], K: int):
        kept = {}
        for e, v in coeffs.items():
            if e <= K:
                v = v if isinstance(v, (int, Fraction)) else Fraction(v)
                if v:
                    kept[e] = v
        self.K, self._c = K, None
        if not kept:
            self._lo, self._num, self._den = 0, [], 1
            return
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(v.denominator for v in kept.values()))
        lo = min(kept)
        num = [0] * (max(kept) - lo + 1)
        for e, v in kept.items():
            num[e - lo] = v.numerator * (den // v.denominator)
        self._lo, self._num, self._den = lo, num, den

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, K: int) -> "HbarSeries":
        return _new(0, [], 1, K)

    @classmethod
    def one(cls, K: int) -> "HbarSeries":
        return _new(0, [1], 1, K)

    @classmethod
    def const(cls, v, K: int) -> "HbarSeries":
        return cls.monomial(v, 0, K)

    @classmethod
    def monomial(cls, v, e: int, K: int) -> "HbarSeries":
        v = Fraction(v)
        return _new(e, [v.numerator], v.denominator, K)

    # -- basics --------------------------------------------------------------
    @property
    def c(self):
        """Read-only view {exponent: Fraction} of the nonzero terms."""
        if self._c is None:
            lo, den = self._lo, self._den
            self._c = MappingProxyType(
                {lo + i: Fraction(v, den) for i, v in enumerate(self._num) if v}
            )
        return self._c

    def coeff(self, e: int) -> Fraction:
        if e > self.K:
            raise ValueError("coefficient hbar^%d beyond truncation %d" % (e, self.K))
        i = e - self._lo
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def truncate(self, K: int) -> "HbarSeries":
        if K >= self.K:
            return self
        return _new(self._lo, self._num, self._den, K)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if not isinstance(other, HbarSeries):
            return NotImplemented
        a, b = self, other
        if a.K != b.K:
            K = min(a.K, b.K)
            a, b = a.truncate(K), b.truncate(K)
        return a._lo == b._lo and a._den == b._den and a._num == b._num

    # equality compares at the smaller K, which no hash of the stored
    # terms can respect
    __hash__ = None

    def __repr__(self) -> str:
        if not self._num:
            return "O(h^%d)" % (self.K + 1)
        terms = " + ".join(
            "%s*h^%d" % (v, e) if e else str(v) for e, v in sorted(self.c.items())
        )
        return "%s + O(h^%d)" % (terms, self.K + 1)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "HbarSeries":
        if not isinstance(other, HbarSeries):
            other = HbarSeries.const(other, self.K)
        K = min(self.K, other.K)
        if not other._num:
            return self.truncate(K)
        if not self._num:
            return other.truncate(K)
        la, a, da = self._lo, self._num, self._den
        lb, b, db = other._lo, other._num, other._den
        den = lcm(da, db)
        if da != den:
            a = list(map((den // da).__mul__, a))
        if db != den:
            b = list(map((den // db).__mul__, b))
        if la > lb:
            la, a, lb, b = lb, b, la, a
        # a starts first; b adds in at offset lb - la
        off = lb - la
        out = a + [0] * (off + len(b) - len(a))
        out[off:off + len(b)] = map(add, out[off:off + len(b)], b)
        return _new(la, out, den, K)

    __radd__ = __add__

    def __neg__(self) -> "HbarSeries":
        return _new(self._lo, [-v for v in self._num], self._den, self.K)

    def __sub__(self, other) -> "HbarSeries":
        return self + (-other if isinstance(other, HbarSeries) else HbarSeries.const(-Fraction(other), self.K))

    def __rsub__(self, other) -> "HbarSeries":
        return (-self) + other

    def __mul__(self, other) -> "HbarSeries":
        if not isinstance(other, HbarSeries):
            v = other if isinstance(other, (int, Fraction)) else Fraction(other)
            return _new(self._lo, list(map(v.numerator.__mul__, self._num)), self._den * v.denominator, self.K)
        # truncation: unknown tail of one factor times the lowest known
        # exponent of the other bounds the reliable window
        K = min(self.K + other._lo, other.K + self._lo)
        lo = self._lo + other._lo
        a, b = self._num, other._num
        la, lb = len(a), len(b)
        rb = b[::-1]
        # out[k] = sum_i a[i] b[k - i], one dot product over the reversed b
        out = []
        for k in range(min(la + lb - 1, K - lo + 1)):
            i0 = k - lb + 1 if k >= lb else 0
            i1 = k + 1 if k < la else la
            out.append(sum(map(mul, a[i0:i1], rb[lb - 1 - k + i0:lb - 1 - k + i1])))
        return _new(lo, out, self._den * other._den, K)

    __rmul__ = __mul__
