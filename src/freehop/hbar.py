"""Exact truncated series in the single grading variable hbar, packed into
one Python integer each: the kernels' one hbar-series form.

A series known to hbar^K is K + 1 integer numerators v_0..v_K, those of
hbar^0..hbar^K, over one positive denominator kept beside it; terms past K
are never stored.  A kernel row packs them into one integer with a slot of
B bits per order,

    P = v_0 + v_1 2^B + ... + v_K 2^(KB)  mod  M = 2^((K+1) B).

Evaluating at hbar = 2^B modulo M is a ring homomorphism from
Z[hbar]/(hbar^(K+1)) onto the integers mod M, so sums, differences,
products and integer scalings of rows are one big-integer operation each,
and the truncation at hbar^K is the mask M - 1; all of it stays exact
modulo M however large the slots of an intermediate row grow
(Kronecker substitution: Schoenhage 1982; Harvey, J. Symb. Comput. 44,
2009).  A slot is decoded only where an entry is read off, as a signed
integer with the borrow from the slots below it; that is exact when every
slot up to it has |v_j| < 2^(B-1), and only there is B needed.

So B comes from a bound, not a guess: a kernel is written once against the
operations of ``Packed`` and runs first on ``Bounds``, the same operations
on one scalar per row that bounds the sum of the row's |v_j| (an L1 bound:
a sum of bounds, a product of bounds, and for a difference the sum).  The
largest bound of a row the kernel decodes gives B = bound.bit_length() + 1.

>>> ring = Packed(3, 4)                 # K = 3, 4-bit slots
>>> a, b = ring.row([2, 1, 0, 0]), ring.row([1, 0, -3, 0])
>>> ring.read(ring.reduce(a * b), 0, 4)  # (2 + h)(1 - 3 h^2), h^4 dropped
[2, 1, -6, -3]
>>> ring.read(ring.sub(b, a), 0, 4)     # borrows into every slot above 0
[-1, -1, -3, 0]
>>> bounds = Bounds(3)
>>> bounds.read(bounds.row([2, 1, 0, 0]) * bounds.row([1, 0, -3, 0]), 0, 4)
[]
>>> bounds.top, bounds.width()          # |v_j| <= 12 < 2^4
(12, 5)

Packing pads every slot to the widest, and CPython multiplies wide
packed rows no faster than it convolves lists of their slots.  So the list
form, the numerators of hbar^0..hbar^K in a list, stays where rows are
wide or are read one order at a time: ``Lists`` gives lists the same
operations (the master kernel's Z-assembly and peel on tables whose
common denominator is large, the order-by-order Moebius solve), and the
Hurwitz tables and the Moebius function on PS(d) hand out lists.  A
Fraction is built only where a coefficient is read off (_decode):

>>> _decode([2, 1, -6, -3], 4)
{0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(-3, 2), 3: Fraction(-3, 4)}
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub


class Packed:
    """Rows of Z[hbar]/(hbar^(K+1)) as integers mod 2^((K+1) B).  A kept
    row is reduced, 0 <= P < M, so its zero test is ``P == 0``; plain +, -
    and * by an integer or a row give a representative that ``reduce``
    brings back."""

    __slots__ = ("K", "B", "mask", "half")

    def __init__(self, K: int, B: int):
        self.K, self.B = K, B
        # below K = 0 the ring is the zero ring: a kernel with no order
        # to read off keeps no row
        self.mask = (1 << max(K + 1, 0) * B) - 1
        # 2^(B-1) in every slot: adding it makes every slot of a row that
        # fits nonnegative, so no slot borrows from the ones below
        self.half = self.mask // ((1 << B) - 1) << B - 1

    one = 1
    nonzero = staticmethod(bool)

    @staticmethod
    def zero() -> int:
        return 0

    def row(self, coeffs) -> int:
        """The packed row of the numerators coeffs[0..K]."""
        B = self.B
        return sum(v << j * B for j, v in enumerate(coeffs) if v) & self.mask

    def reduce(self, value: int) -> int:
        return value & self.mask

    def sub(self, a: int, b: int) -> int:
        return (a - b) & self.mask

    def scale(self, c: int, a: int) -> int:
        return c * a & self.mask

    def mul(self, a: int, va: int, b: int, vb: int) -> int:
        """The product of the rows a and b, unreduced, given that their
        slots below va and vb are zero: only the K + 1 - va - vb slots of
        each that reach hbar^K are multiplied."""
        n = self.K + 1 - va - vb
        if n <= 0:
            return 0
        B = self.B
        m = (1 << n * B) - 1
        return ((a >> va * B) & m) * ((b >> vb * B) & m) << (va + vb) * B

    def mul_add(self, acc: int, c: int, a: int, va: int, b: int, vb: int) -> int:
        """acc + c a b, unreduced, with mul's a, va, b, vb."""
        return acc + c * self.mul(a, va, b, vb)

    def multiplier(self, coeffs, sign: int) -> int:
        """The packed row of a multiplier (see Bounds.multiplier)."""
        return self.row(coeffs)

    def packed(self, fn, rows: dict) -> dict:
        """fn(rows, ring), a map of rows written for Packed and Bounds."""
        return fn(rows, self)

    def read(self, row: int, lo: int, hi: int) -> list[int]:
        """The slots lo..hi-1 of a reduced row as signed integers, those
        past K left out; exact when every slot below hi has
        |v_j| < 2^(B-1)."""
        hi = min(hi, self.K + 1)
        B = self.B
        ones = (1 << B) - 1
        half = ones + 1 >> 1
        y = (row + self.half & self.mask) >> lo * B
        return [(y >> j * B & ones) - half for j in range(max(hi - lo, 0))]


class Bounds:
    """The operations of Packed on scalar bounds: a row is one integer at
    least the sum of the |v_j| of the row it stands for, so a sum or a
    product of rows is bounded by the sum or product of their bounds, and
    a difference by the sum.  ``read`` keeps the largest bound of a row a
    kernel decodes; ``width`` turns it into a slot width."""

    __slots__ = ("K", "top")

    one = 1
    nonzero = staticmethod(bool)

    def __init__(self, K: int):
        self.K, self.top = K, 0

    @staticmethod
    def zero() -> int:
        return 0

    @staticmethod
    def row(coeffs) -> int:
        return sum(map(abs, coeffs))

    @staticmethod
    def reduce(value: int) -> int:
        return value

    @staticmethod
    def sub(a: int, b: int) -> int:
        return a + b

    @staticmethod
    def scale(c: int, a: int) -> int:
        return abs(c) * a

    def mul(self, a: int, va: int, b: int, vb: int) -> int:
        return a * b if va + vb <= self.K else 0

    def mul_add(self, acc: int, c: int, a: int, va: int, b: int, vb: int) -> int:
        return acc + abs(c) * self.mul(a, va, b, vb)

    packed = Packed.packed

    @staticmethod
    def multiplier(coeffs, sign: int) -> int:
        """A multiplier row as its value at hbar = sign.  Used for the
        content rows m_rho of a chi-transform, whose kernel
        A(lam, nu) = sum_rho chi^rho(lam) chi^rho(nu) m_rho has
        sign^r A_r >= 0: then sum_rho chi^rho(lam) chi^rho(nu) m_rho(sign)
        is exactly the sum of |A_r|, so the chi-transform of bounds, with
        the characters' signs kept, bounds the transformed rows."""
        return sum(v if sign > 0 or j % 2 == 0 else -v for j, v in enumerate(coeffs))

    def read(self, row: int, lo: int, hi: int) -> list[int]:
        if row < 0:
            raise AssertionError("a row bound is negative: %d" % row)
        self.top = max(self.top, row)
        return []

    def width(self) -> int:
        """The slot width B that decodes every slot of a row read so far
        exactly: |v_j| <= top < 2^(B-1)."""
        return self.top.bit_length() + 1


class Lists:
    """The row operations of Packed and Bounds on rows kept as lists of the
    K + 1 numerators, where a product is a truncated convolution that
    skips zero coefficients.  Packing pads every slot to the width of the
    largest one, and CPython multiplies wide packed rows more slowly than
    it convolves their lists; so a kernel whose rows are wide runs its
    products on lists (transforms.PACKED_MAX_BITS).  ``packed`` still runs
    a map of rows, such as a chi-transform, on packed rows, at the width a
    bound of its own outputs gives."""

    __slots__ = ("K",)

    def __init__(self, K: int):
        self.K = K

    @property
    def one(self) -> list:
        return [1] + [0] * self.K

    nonzero = staticmethod(any)

    def zero(self) -> list:
        return [0] * (self.K + 1)

    @staticmethod
    def row(coeffs) -> list:
        return coeffs

    @staticmethod
    def reduce(value: list) -> list:
        return value

    @staticmethod
    def scale(c: int, a: list) -> list:
        return [c * v for v in a]

    @staticmethod
    def sub(a: list, b: list) -> list:
        return list(map(sub, a, b))

    def mul_add(self, acc: list, c: int, a: list, va: int, b: list, vb: int) -> list:
        """acc += c a b in place, truncated at hbar^K; a and b are zero
        below va and vb, and the zeros of b past vb are skipped too."""
        K = self.K
        vb = next((j for j in range(vb, K + 1) if b[j]), K + 1)
        b = b[vb:]
        for i in range(va, K + 1 - vb):
            x = a[i]
            if x:
                x *= c
                i += vb
                acc[i:] = map(add, acc[i:], map(x.__mul__, b))
        return acc

    @staticmethod
    def read(row: list, lo: int, hi: int) -> list:
        return row[lo:hi]

    def packed(self, fn, rows: dict) -> dict:
        """fn(rows, ring), a map of rows written for Packed and Bounds, run
        on Bounds and then on the packed rows that bound makes exact."""
        bounds = Bounds(self.K)
        top = max(fn({k: bounds.row(r) for k, r in rows.items()}, bounds).values(), default=0)
        ring = Packed(self.K, top.bit_length() + 1)
        out = fn({k: ring.row(r) for k, r in rows.items()}, ring)
        return {k: ring.read(r, 0, self.K + 1) for k, r in out.items()}


def _decode(row, den: int) -> dict[int, Fraction]:
    """The nonzero coefficients {exponent: Fraction} of the list row over
    den, in ascending order of the exponent."""
    return {e: Fraction(v, den) for e, v in enumerate(row) if v}
