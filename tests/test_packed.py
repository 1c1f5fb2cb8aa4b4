"""Packed hbar rows (freehop.hbar): exact at the slot width a Bounds run
gives, and wrong one bit below it, on planted rows that attain the bound;
the master kernel reads the same table on packed rows and on lists."""

import random
from fractions import Fraction

import pytest

from freehop import transforms
from freehop.hbar import Bounds, Lists, Packed
from freehop.tables import random_table


def planted(ring, K, s, top, sign, rng):
    """2 a1 b1 + a2 b2 on single-entry rows whose products land in slot s,
    a1 = sign (2^(bits-1) - 1), a2 = sign and b1 = b2 = 1, so that the
    sum is sign * top at slot s, top = 2^bits - 1: every bound of the
    Bounds run is attained, in that one slot."""
    acc = ring.zero()
    for c, va in ((2, sign * (top >> 1)), (1, sign)):
        i = rng.randint(0, s)
        a = ring.row([va if e == i else 0 for e in range(K + 1)])
        b = ring.row([1 if e == s - i else 0 for e in range(K + 1)])
        acc = ring.mul_add(acc, c, a, i, b, s - i)
    return ring.reduce(acc)


@pytest.mark.parametrize("K", [0, 1, 3, 8])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", [2, 7, 64, 200])
def test_planted_rows_decode_exactly_at_the_bound_and_not_below(K, sign, bits):
    top = (1 << bits) - 1
    s = K // 2
    want = [sign * top if e == s else 0 for e in range(K + 1)]
    bounds = Bounds(K)
    bound = planted(bounds, K, s, top, sign, random.Random(bits))
    assert bound == top
    bounds.read(bound, 0, K + 1)
    B = bounds.width()
    assert B == bits + 1
    assert planted(Lists(K), K, s, top, sign, random.Random(bits)) == want
    ring = Packed(K, B)
    assert ring.read(planted(ring, K, s, top, sign, random.Random(bits)), 0, K + 1) == want
    # no bit to spare: at B - 1 the slots hold -2^(bits-1)..2^(bits-1) - 1,
    # which leaves out +-top
    narrow = Packed(K, B - 1)
    assert narrow.read(planted(narrow, K, s, top, sign, random.Random(bits)), 0, K + 1) != want


def test_borrow_across_slots():
    ring = Packed(4, 6)
    row = [-31, 0, -1, 31, -32]
    assert ring.read(ring.row(row), 0, 5) == row
    assert ring.read(ring.row(row), 2, 5) == row[2:]
    assert ring.read(ring.row(row), 3, 9) == row[3:]  # slots past K are left out
    assert ring.reduce(ring.row(row) + ring.row([-v for v in row])) == 0


def _read_width(table, dmax, g2max, inverse):
    """The slot width the kernel's decoded rows need, and the one its
    Bounds run gives."""
    K = transforms.required_K(dmax, g2max)
    block, qpow = transforms._block_rows(table, dmax, K)
    bounds = Bounds(K)
    transforms._content_kernel(block, qpow, dmax, g2max, inverse, bounds)
    rows = []
    wide = Packed(K, 4 * bounds.width())

    class Spy(Packed):
        __slots__ = ()

        def read(self, row, lo, hi):
            rows.append(Packed.read(self, row, 0, hi))
            return Packed.read(self, row, lo, hi)

    spy = Spy(K, wide.B)
    transforms._content_kernel(block, qpow, dmax, g2max, inverse, spy)
    need = max((abs(v) for row in rows for v in row), default=0).bit_length() + 1
    return K, block, qpow, need, bounds.width()


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_is_exact_from_the_needed_width_on(seed, inverse):
    """The bound is at least the width the decoded rows need; the kernel is
    exact at that width and wrong one bit below it."""
    t = random_table(seed=40 + seed, nmax=6, degmax=6, g2max=2)
    want = transforms._content_transform(t, 6, 2, inverse)
    K, block, qpow, need, B = _read_width(t, 6, 2, inverse)
    assert B >= need
    for width in (need, B):
        assert transforms._content_kernel(block, qpow, 6, 2, inverse, Packed(K, width)) == want
    assert transforms._content_kernel(block, qpow, 6, 2, inverse, Packed(K, need - 1)) != want


@pytest.mark.parametrize("inverse", [False, True])
def test_kernel_on_lists_equals_packed(inverse):
    t = random_table(seed=47, nmax=6, degmax=6, g2max=2)
    K = transforms.required_K(6, 2)
    block, qpow = transforms._block_rows(t, 6, K)
    packed = transforms._content_transform(t, 6, 2, inverse)
    assert transforms._content_kernel(block, qpow, 6, 2, inverse, Lists(K)) == packed


@pytest.mark.parametrize("t, path", [
    # small denominators and entries: packed rows
    ({(0, (1,)): Fraction(1, 3), (0, (2,)): Fraction(2, 7), (1, (1, 1)): Fraction(-5, 11)},
     [Bounds, Packed]),
    # Q^dmax alone wider than PACKED_MAX_BITS: lists, with no bound pass
    ({(0, (1,)): Fraction(1, 3 ** 100), (0, (2,)): Fraction(2, 7), (1, (1, 1)): Fraction(-5, 11)},
     [Lists]),
    # a small Q but wide entries: the bound asks for wide slots, so lists
    ({(0, (1,)): Fraction(10 ** 120, 3), (0, (2,)): Fraction(2, 7), (1, (1, 1)): Fraction(-5, 11)},
     [Bounds, Lists]),
])
def test_the_slot_width_picks_the_row_form(monkeypatch, t, path):
    """Past PACKED_MAX_BITS the Z-assembly and the peel run on lists; the
    table is the same either way."""
    seen = []
    kernel = transforms._content_kernel

    def spy(*args):
        seen.append(type(args[-1]))
        return kernel(*args)

    monkeypatch.setattr(transforms, "_content_kernel", spy)
    forward = transforms.master_forward(t, 4, 1)
    assert seen == path
    monkeypatch.setattr(transforms, "PACKED_MAX_BITS", 10 ** 6)
    seen.clear()
    assert transforms.master_forward(t, 4, 1) == forward
    assert seen == [Bounds, Packed]
    assert transforms.master_inverse(forward, 4, 1) == t
