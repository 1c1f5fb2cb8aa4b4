"""HbarSeries arithmetic that only the tests use: the series from and to
integer numerators over one denominator, the inverse, and division."""

from fractions import Fraction

from freehop.hbar import HbarSeries, _new


def from_numerators(num: list, den: int, K: int) -> HbarSeries:
    """(sum_e num[e] hbar^e) / den, from integer numerators for hbar^0,
    hbar^1, ... and a positive denominator."""
    return _new(0, list(num), den, K)


def numerators(s: HbarSeries, K: int) -> tuple[list, int]:
    """The integer numerators of hbar^0..hbar^K, as one list, and the
    denominator they share; the inverse of from_numerators."""
    if K > s.K or s._lo < 0:
        raise ValueError("no hbar^0..hbar^%d numerators of %r" % (K, s))
    return ([0] * s._lo + s._num + [0] * (K + 1))[:K + 1], s._den


def inverse(s: HbarSeries) -> HbarSeries:
    """Multiplicative inverse of a series with nonzero lowest term."""
    if not s._num:
        raise ZeroDivisionError("inverting zero series")
    # s = hbar^f A(hbar) / den with A integral; 1/A = sum_n hbar^n
    # b_n / a0^(n+1), where b_0 = 1, b_n = -sum_k a_k a0^(k-1) b_(n-k)
    f, a, den = s._lo, s._num, s._den
    N = s.K - f
    a0 = a[0]
    tail = [(k, v * a0 ** (k - 1)) for k, v in enumerate(a[1:N + 1], 1) if v]
    b = [1]
    for n in range(1, N + 1):
        b.append(-sum(v * b[n - k] for k, v in tail if k <= n))
    # over the one denominator a0^(N+1)
    num = [0] * (N + 1)
    p = den
    for n in range(N, -1, -1):
        num[n] = b[n] * p
        p *= a0
    p //= den
    if p < 0:
        num, p = [-v for v in num], -p
    return _new(-f, num, p, N - f)


def divide(s: HbarSeries, other) -> HbarSeries:
    """s / other, for a series or a nonzero scalar other."""
    if isinstance(other, HbarSeries):
        return s * inverse(other)
    return s * (Fraction(1) / Fraction(other))
