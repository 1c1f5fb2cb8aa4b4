"""Exact truncated multivariate Laurent series.

A Series is a sparse polynomial over an ordered tuple of named variables,
together with per-variable guarantees:

- ``lo[v]``: guaranteed valuation bound (no stored or true exponent below),
- ``hi[v]``: guaranteed truncation (coefficients above are unknown and
  never stored; INF means exact).

Arithmetic narrows the guarantees to what the inputs support; extracting a
coefficient beyond a guarantee raises TruncationError instead of returning
silent garbage.  An optional total-degree cap over a subset of variables
(the "geometric" w-variables, all of whose series have nonnegative total
degree) keeps intermediate results small; it is part of the evaluation
convention, not of the mathematical truncation bookkeeping.

The sector convention is global: Laurent kernels are only ever expanded
with negative exponents in the later variable (|w_1| < ... < |w_n|).

Representation.  The terms are stored as ``{packed key: int numerator}``
over one positive integer denominator per series, with the numerators and
the denominator coprime as a whole.  A key packs an exponent vector into
one int (Kronecker substitution) by a layout: one bit field per variable
name, each field holding ``e - lo`` of its variable, followed by one guard
bit that stored keys keep clear.  Every ``lo`` is finite (a series cannot
be built with ``lo = -INF``), so the offsets are nonnegative and a
product's key is the sum of its factors' keys over ``lo_a + lo_b``.  A
layout may name more variables than the series declares in ``vars``; the
fields of the others hold 0.  Each series also keeps the bitwise OR of its
keys, a per-field bound on its offsets: when the two bounds of a product
could add up past a field's width the layout is widened first, and a field
is tested for its output window (one add and one ``&`` against the guard
bits) only when its window could be exceeded.  Every series built by one
``operators.Evaluator`` shares one layout, so products there re-lay an
operand out only when a field has to widen.  ``.data`` is a read-only
decoded view, ``{exponent tuple in the order of vars: Fraction}``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import itemgetter, or_
from types import MappingProxyType

INF = 10**9

# narrowest field of a layout built from data: room for the offsets of a
# few products before a widening is needed
_MIN_WIDTH = 8

_first = itemgetter(0)


class TruncationError(ValueError):
    pass


class SectorError(ValueError):
    pass


class _Layout:
    """Bit fields of the packed keys: names, value widths (each field is
    followed by one guard bit), offsets, value masks and the guard mask."""

    __slots__ = ("names", "widths", "index", "offs", "masks", "guard")

    def __init__(self, names: tuple, widths: tuple):
        self.names = names
        self.widths = widths
        self.index = {v: i for i, v in enumerate(names)}
        offs = []
        o = 0
        for w in widths:
            offs.append(o)
            o += w + 1
        self.offs = tuple(offs)
        self.masks = tuple((1 << w) - 1 for w in widths)
        self.guard = sum(1 << (o + w) for o, w in zip(offs, widths))

    def split(self, key: int) -> list[int]:
        return [(key >> o) & m for o, m in zip(self.offs, self.masks)]


# layouts are interned, so that two series share a layout exactly when
# their layouts are the same object
_LAYOUTS: dict[tuple, _Layout] = {}


def _layout(names: tuple, widths: tuple) -> _Layout:
    lay = _LAYOUTS.get((names, widths))
    if lay is None:
        lay = _LAYOUTS[(names, widths)] = _Layout(names, widths)
    return lay


def layout(names, widths):
    """The packed-key layout over ``names`` with the given field widths in
    bits, for the ``layout`` argument of the constructors.  A field of w
    bits holds exponent offsets ``e - lo`` below 2**w; wider data widens
    the layout when it arises."""
    return _layout(tuple(names), tuple(max(1, w) for w in widths))


def _widened(lay: _Layout, need) -> _Layout:
    """lay with each field wide enough for the offset bound in need."""
    return _layout(lay.names, tuple(
        w if x < (1 << w) else x.bit_length() + 1 for w, x in zip(lay.widths, need)
    ))


def _common_layout(la: _Layout, lb: _Layout) -> _Layout:
    if la is lb:
        return la
    widths = dict(zip(lb.names, lb.widths))
    for v, w in zip(la.names, la.widths):
        widths[v] = max(w, widths.get(v, 0))
    names = la.names + tuple(v for v in lb.names if v not in la.index)
    return _layout(names, tuple(widths[v] for v in names))


def _new(lay, vars, lo, hi, cap, terms, den, top=None) -> "Series":
    s = object.__new__(Series)
    s.vars = vars
    s.cap = cap
    s._lay = lay
    s._lo = lo
    s._hi = hi
    s._terms = terms
    s._den = den
    s._top = reduce(or_, terms, 0) if top is None else top
    s._view = None
    return s


def _reduced(terms: dict, den: int) -> tuple[dict, int]:
    """Divide numerators and denominator by their common factor."""
    if not terms:
        return terms, 1
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return {k: v // g for k, v in terms.items()}, den // g
    return terms, den


class Series:
    __slots__ = ("vars", "cap", "_lay", "_lo", "_hi", "_terms", "_den", "_top", "_view")

    def __init__(self, vars, lo, hi, data, cap=None, layout=None):
        vars = tuple(vars)
        lo = tuple(lo)
        hi = tuple(hi)
        if any(l <= -INF for l in lo):
            raise ValueError("valuation bounds must be finite")
        self.vars = vars
        self.cap = cap  # (frozenset of var names, max total degree) or None
        capidx = [j for j, v in enumerate(vars) if v in cap[0]] if cap else ()
        kept = []
        den = 1
        for e, v in data.items():
            if not v:
                continue
            if any(x < l or x > h for x, l, h in zip(e, lo, hi)):
                continue
            if cap is not None and sum(e[j] for j in capidx) > cap[1]:
                continue
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            den = lcm(den, v.denominator)
            kept.append((e, v))
        tops = [0] * len(vars)
        for e, _ in kept:
            for j, (x, l) in enumerate(zip(e, lo)):
                if x - l > tops[j]:
                    tops[j] = x - l
        lay = layout if layout is not None else _layout((), ())
        missing = tuple(v for v in vars if v not in lay.index)
        if missing:
            lay = _common_layout(lay, _layout(missing, (_MIN_WIDTH,) * len(missing)))
        need = [0] * len(lay.names)
        for v, t in zip(vars, tops):
            need[lay.index[v]] = t
        lay = _widened(lay, need)
        pos = [lay.index[v] for v in vars]
        flo = [0] * len(lay.names)
        fhi = [INF] * len(lay.names)
        for j, i in enumerate(pos):
            flo[i] = lo[j]
            fhi[i] = hi[j]
        offs = [lay.offs[i] for i in pos]
        terms = {}
        for e, v in kept:
            k = 0
            for x, l, o in zip(e, lo, offs):
                k += (x - l) << o
            terms[k] = v.numerator * (den // v.denominator)
        self._lay = lay
        self._lo = tuple(flo)
        self._hi = tuple(fhi)
        self._terms = terms
        self._den = den if terms else 1
        self._top = reduce(or_, terms, 0)
        self._view = None

    # -- windows ---------------------------------------------------------------
    @property
    def lo(self) -> tuple:
        idx = self._lay.index
        return tuple(self._lo[idx[v]] for v in self.vars)

    @property
    def hi(self) -> tuple:
        idx = self._lay.index
        return tuple(self._hi[idx[v]] for v in self.vars)

    @property
    def data(self):
        """Read-only view {exponent tuple (in the order of vars): Fraction}."""
        if self._view is None:
            den = self._den
            self._view = MappingProxyType(
                {e: Fraction(v, den) for e, v in self.numerators(self.vars)[0].items()}
            )
        return self._view

    def numerators(self, vars) -> tuple[dict[tuple, int], int]:
        """The terms as {exponent tuple in the order of vars: integer
        numerator}, and their common denominator.  vars must include every
        variable of the series; the others read as exponent 0."""
        for v in self.vars:
            if v not in vars:
                raise ValueError("missing variable %s" % v)
        lay = self._lay
        fields = []
        for v in vars:
            if v in self.vars:
                i = lay.index[v]
                fields.append((lay.offs[i], lay.masks[i], self._lo[i]))
            else:
                fields.append((0, 0, 0))
        return {
            tuple(((k >> o) & m) + l for o, m, l in fields): v for k, v in self._terms.items()
        }, self._den

    def idx(self, var: str) -> int:
        return self.vars.index(var)

    def _field(self, var: str) -> tuple[int, int, int, int]:
        """(layout index, offset, mask, lo) of a declared variable."""
        self.idx(var)  # raises ValueError on an undeclared variable
        lay = self._lay
        i = lay.index[var]
        return i, lay.offs[i], lay.masks[i], self._lo[i]

    def _capsums(self, cap) -> list[tuple[int, int, int]]:
        """(total degree over the cap's variables, key, numerator) per term;
        the degree is 0 without a cap."""
        if cap is None:
            return [(0, k, v) for k, v in self._terms.items()]
        lay = self._lay
        capped = [i for i, v in enumerate(lay.names) if v in cap[0]]
        base = sum(self._lo[i] for i in capped)
        tops = lay.split(self._top)
        live = [i for i in capped if tops[i]]
        if not live:
            return [(base, k, v) for k, v in self._terms.items()]
        i0, i1 = live[0], live[-1]
        w = lay.widths[i0]
        if (all(lay.widths[i] == w and lay.names[i] in cap[0] for i in range(i0, i1 + 1))
                and sum(tops[i0:i1 + 1]) >> (w + 1) == 0):
            # equally spaced fields (or one field): one multiplication adds
            # them all into the topmost one, and no partial sum carries
            # since each is at most the sum of the bounds, below 2**(w + 1)
            step, m = w + 1, i1 - i0 + 1
            o = lay.offs[i0]
            spread = sum(1 << (j * step) for j in range(m))
            window = (1 << (m * step)) - 1
            pos, mask = (m - 1) * step, (1 << step) - 1
            return [(base + ((((k >> o) & window) * spread) >> pos & mask), k, v)
                    for k, v in self._terms.items()]
        fields = [(lay.offs[i], lay.masks[i]) for i in live]
        out = []
        for k, v in self._terms.items():
            s = base
            for o, m in fields:
                s += (k >> o) & m
            out.append((s, k, v))
        return out

    def _capped(self, cap) -> "Series":
        """The series under the total-degree cap ``cap`` (terms above it
        dropped)."""
        if cap == self.cap:
            return self
        terms = self._terms
        if cap is not None:
            terms = {k: v for s, k, v in self._capsums(cap) if s <= cap[1]}
            if len(terms) != len(self._terms):
                terms, den = _reduced(terms, self._den)
                return _new(self._lay, self.vars, self._lo, self._hi, cap, terms, den)
        return _new(self._lay, self.vars, self._lo, self._hi, cap, terms, self._den, self._top)

    def _embed(self, lay: _Layout) -> "Series":
        """The same series on a layout whose names include this one's and
        whose fields are at least as wide."""
        src = self._lay
        if src is lay:
            return self
        lo = [0] * len(lay.names)
        hi = [INF] * len(lay.names)
        moves = []
        for i, v in enumerate(src.names):
            j = lay.index[v]
            lo[j] = self._lo[i]
            hi[j] = self._hi[i]
            if (self._top >> src.offs[i]) & src.masks[i]:
                moves.append((src.offs[i], src.masks[i], lay.offs[j]))
        terms = self._terms
        if any(so != do for so, _, do in moves):
            out = {}
            for k, v in terms.items():
                kk = 0
                for so, m, do in moves:
                    kk += ((k >> so) & m) << do
                out[kk] = v
            terms = out
        return _new(lay, self.vars, tuple(lo), tuple(hi), self.cap, terms, self._den)

    def _declared(self, vars: tuple) -> "Series":
        """The same terms declared over ``vars``, a superset of self.vars
        (the new variables exact, at exponent 0)."""
        if vars == self.vars:
            return self
        s = self
        missing = tuple(v for v in vars if v not in s._lay.index)
        if missing:
            s = s._embed(_common_layout(s._lay, _layout(missing, (_MIN_WIDTH,) * len(missing))))
        return _new(s._lay, vars, s._lo, s._hi, s.cap, s._terms, s._den, s._top)

    def _rewindowed(self, lo=None, hi=None) -> "Series":
        """The terms inside new per-field windows (full layout length),
        with the keys re-based to the new ``lo``."""
        lay = self._lay
        lo = self._lo if lo is None else lo
        hi = self._hi if hi is None else hi
        tops = lay.split(self._top)
        need = [min(t + l - nl, nh - nl) for t, l, nl, nh in zip(tops, self._lo, lo, hi)]
        if any(x >= (1 << w) for x, w in zip(need, lay.widths)):
            return self._embed(_widened(lay, need))._rewindowed(lo, hi)
        # a field's offset f must lie in [a, b]: adding 2**w - a sets its
        # guard bit exactly when f >= a, adding 2**w - 1 - b exactly when
        # f > b
        low = glow = high = ghigh = delta = 0
        for o, w, t, l, nl, nh in zip(lay.offs, lay.widths, tops, self._lo, lo, hi):
            a, b = nl - l, nh - l
            if a > t or b < max(a, 0):
                return _new(lay, self.vars, tuple(lo), tuple(hi), self.cap, {}, 1)
            if a > 0:
                low += ((1 << w) - a) << o
                glow |= 1 << (o + w)
            if b < t:
                high += ((1 << w) - 1 - b) << o
                ghigh |= 1 << (o + w)
            delta += (l - nl) << o
        terms = self._terms
        if glow and ghigh:
            terms = {k: v for k, v in terms.items()
                     if (k + low) & glow == glow and not (k + high) & ghigh}
        elif glow:
            terms = {k: v for k, v in terms.items() if (k + low) & glow == glow}
        elif ghigh:
            terms = {k: v for k, v in terms.items() if not (k + high) & ghigh}
        if delta:
            terms = {k + delta: v for k, v in terms.items()}
        if glow or ghigh:
            terms, den = _reduced(terms, self._den)
            return _new(lay, self.vars, tuple(lo), tuple(hi), self.cap, terms, den)
        return _new(lay, self.vars, tuple(lo), tuple(hi), self.cap, terms, self._den,
                    self._top + delta)

    def _exponents(self, var: str) -> list[int]:
        _, o, m, l = self._field(var)
        return [((k >> o) & m) + l for k in self._terms]

    def _slices(self, var: str) -> list[tuple[int, dict]]:
        """(exponent of var, {key with that field cleared: numerator}),
        by increasing exponent."""
        _, o, m, l = self._field(var)
        groups: dict[int, dict] = {}
        for k, v in self._terms.items():
            f = (k >> o) & m
            g = groups.get(f)
            if g is None:
                g = groups[f] = {}
            g[k - (f << o)] = v
        return [(f + l, groups[f]) for f in sorted(groups)]

    def _slice_series(self, var: str, terms: dict, cap) -> "Series":
        """A slice from _slices as a series over the other variables."""
        i = self._lay.index[var]
        lo = self._lo[:i] + (0,) + self._lo[i + 1:]
        hi = self._hi[:i] + (INF,) + self._hi[i + 1:]
        rest = tuple(v for v in self.vars if v != var)
        terms, den = _reduced(terms, self._den)
        return _new(self._lay, rest, lo, hi, cap, terms, den)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, vars, lo=None, hi=None, cap=None, layout=None) -> "Series":
        n = len(vars)
        return cls(vars, lo or (0,) * n, hi if hi is not None else (INF,) * n, {}, cap, layout)

    @classmethod
    def const(cls, vars, value, cap=None, layout=None) -> "Series":
        n = len(vars)
        return cls(vars, (0,) * n, (INF,) * n, {(0,) * n: value}, cap, layout)

    @classmethod
    def variable(cls, vars, var, power=1, coeff=1, cap=None, layout=None) -> "Series":
        n = len(vars)
        i = tuple(vars).index(var)
        e = tuple(power if j == i else 0 for j in range(n))
        lo = tuple(min(0, power) if j == i else 0 for j in range(n))
        return cls(vars, lo, (INF,) * n, {e: coeff}, cap, layout)

    # -- inspection ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        a, b = _align((self, other))
        return a.data == b.data

    def __repr__(self) -> str:
        items = sorted(self.data.items())[:8]
        terms = ", ".join("%s:%s" % (e, v) for e, v in items)
        more = "..." if len(self._terms) > 8 else ""
        return "Series(%s; %s%s)" % (",".join(self.vars), terms, more)

    # -- ring operations -------------------------------------------------------
    def __neg__(self) -> "Series":
        return _new(self._lay, self.vars, self._lo, self._hi, self.cap,
                    {k: -v for k, v in self._terms.items()}, self._den, self._top)

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            other = Series.const(self.vars, other, self.cap, self._lay)
        return series_sum((self, other))

    __radd__ = __add__

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series) else -Fraction(other))

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def _scaled(self, q: Fraction) -> "Series":
        if not q:
            return _new(self._lay, self.vars, self._lo, self._hi, self.cap, {}, 1)
        p = q.numerator
        terms = self._terms if p == 1 else {k: v * p for k, v in self._terms.items()}
        terms, den = _reduced(terms, self._den * q.denominator)
        return _new(self._lay, self.vars, self._lo, self._hi, self.cap, terms, den, self._top)

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return self._scaled(Fraction(other))
        a, b = _align((self, other))
        lay = a._lay
        lo = tuple(x + y for x, y in zip(a._lo, b._lo))
        hi = tuple(
            min(ha + lb, hb + la, INF)
            for la, ha, lb, hb in zip(a._lo, a._hi, b._lo, b._hi)
        )
        cap = a.cap
        if not a._terms or not b._terms or any(h < l for l, h in zip(lo, hi)):
            return _new(lay, a.vars, lo, hi, cap, {}, 1)
        if (a._top + b._top) & lay.guard:
            lay = _widened(lay, [x + y for x, y in zip(lay.split(a._top), lay.split(b._top))])
            a, b = a._embed(lay), b._embed(lay)
        # bias M puts a field's guard bit on exactly when the field exceeds
        # its output window; only fields whose window the offsets can
        # exceed are tested
        M = G = 0
        for o, w, l, h, x, y in zip(lay.offs, lay.widths, lo, hi,
                                    lay.split(a._top), lay.split(b._top)):
            if h - l < x + y:
                M += ((1 << w) - 1 - (h - l)) << o
                G |= 1 << (o + w)
        if len(a._terms) > len(b._terms):
            a, b = b, a
        # the total-degree cap: b sorted by its cap sum, so each term of a
        # stops at the first term of b past its remaining budget
        capmax = cap[1] if cap is not None else 0
        bsorted = sorted(b._capsums(cap), key=_first)
        acc: dict[int, int] = {}
        get = acc.get
        for sa, ka, va in a._capsums(cap):
            end = bisect_right(bsorted, capmax - sa, key=_first)
            if G:
                ka += M
                for _, kb, vb in bsorted[:end]:
                    t = ka + kb
                    if t & G:
                        continue
                    acc[t] = get(t, 0) + va * vb
            else:
                for _, kb, vb in bsorted[:end]:
                    t = ka + kb
                    acc[t] = get(t, 0) + va * vb
        if M:
            terms = {t - M: v for t, v in acc.items() if v}
        else:
            terms = {t: v for t, v in acc.items() if v}
        terms, den = _reduced(terms, a._den * b._den)
        return _new(lay, a.vars, lo, hi, cap, terms, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            return self.inverse() ** (-n)
        out = Series.const(self.vars, 1, self.cap, self._lay)
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return out

    def _zero_key(self):
        """Key of the all-zero exponent, or None when a window excludes it."""
        lay = self._lay
        k = 0
        for o, l, h in zip(lay.offs, self._lo, self._hi):
            if l > 0 or h < 0:
                return None
            k += -l << o
        return k

    def inverse(self) -> "Series":
        """Inverse of a series with invertible lowest term in its first
        nonconstant variable; only supports unit series (constant term
        nonzero, all lo >= 0) which is all the pipeline needs."""
        k0 = self._zero_key()
        if k0 not in self._terms or any(l < 0 for l in self._lo):
            raise ValueError("inverse requires a unit series")
        c0 = Fraction(self._terms[k0], self._den)
        # triangular by total degree: the geometric series
        # sum_j (-tail/c0)^j / c0, truncated by the windows
        tail = _new(self._lay, self.vars, self._lo, self._hi, self.cap,
                    {k: v for k, v in self._terms.items() if k != k0}, self._den)
        inv = Series.const(self.vars, 1 / c0, self.cap, self._lay)
        zlo = (0,) * len(self._lo)
        if tail.is_zero():
            return inv._rewindowed(zlo, self._hi)
        term = inv
        parts = [term]
        max_iters = self._inverse_order(tail)
        for _ in range(max_iters):
            term = term * tail * (-1 / c0)
            if term.is_zero():
                break
            parts.append(term)
        return series_sum(parts)._rewindowed(zlo, self._hi)

    def _inverse_order(self, tail: "Series") -> int:
        # tail valuation >= 1 somewhere; the loop stops at the first zero
        # term, so only an upper bound on surviving degree is needed
        bounds = [h for h in self.hi if h < INF]
        if self.cap is not None:
            bounds.append(self.cap[1])
        if not bounds:
            raise ValueError("inverse of non-polynomial exact series needs a window")
        return sum(b for b in bounds if b > 0) + 2

    # -- calculus and extraction ----------------------------------------------
    def wdw(self, var: str) -> "Series":
        """Euler operator w d/dw in the given variable."""
        _, o, m, l = self._field(var)
        terms = {}
        for k, v in self._terms.items():
            e = ((k >> o) & m) + l
            if e:
                terms[k] = v * e
        terms, den = _reduced(terms, self._den)
        return _new(self._lay, self.vars, self._lo, self._hi, self.cap, terms, den, self._top)

    def shift(self, var: str, k: int) -> "Series":
        """Multiply by var^k."""
        i, _, _, _ = self._field(var)
        lo = self._lo[:i] + (self._lo[i] + k,) + self._lo[i + 1:]
        hi = self._hi[:i] + (min(self._hi[i] + k, INF),) + self._hi[i + 1:]
        # a positive power of a capped variable may lift terms over the cap
        lifted = k > 0 and self.cap is not None and var in self.cap[0]
        s = _new(self._lay, self.vars, lo, hi, None if lifted else self.cap,
                 self._terms, self._den, self._top)
        return s._capped(self.cap) if lifted else s

    def coeff(self, var: str, k: int) -> "Series":
        """Coefficient of var^k, as a series in the remaining variables."""
        i, o, m, l = self._field(var)
        if k > self._hi[i]:
            raise TruncationError(
                "coefficient of %s^%d beyond truncation %d" % (var, k, self._hi[i])
            )
        cap = self.cap
        if cap is not None and var in cap[0]:
            cap = (cap[0] - {var}, cap[1] - k)
        f = k - l
        if f < 0 or f > m:
            terms = {}
        else:
            sub = f << o
            terms = {key - sub: v for key, v in self._terms.items() if (key >> o) & m == f}
        return self._slice_series(var, terms, cap)

    def coeff_dict(self, var: str) -> dict[int, "Series"]:
        """All coefficients by exponent of var (within the window)."""
        cap = self.cap
        out = {}
        for k, terms in self._slices(var):
            ck = cap
            if cap is not None and var in cap[0]:
                ck = (cap[0] - {var}, cap[1] - k)
            out[k] = self._slice_series(var, terms, ck)
        return out

    def min_exp(self, var: str) -> int:
        return min(self._exponents(var), default=0)

    def restrict(self, var: str, lo: int, hi: int) -> "Series":
        """Tighten the stored window of one variable (drops data outside)."""
        return self.restrict_vars({var: (lo, hi)})

    def restrict_vars(self, windows: dict[str, tuple[int, int]]) -> "Series":
        """Tighten the stored windows {var: (lo, hi)} of several variables
        in one pass (drops data outside)."""
        nlo, nhi = list(self._lo), list(self._hi)
        for var, (lo, hi) in windows.items():
            i = self._field(var)[0]
            nlo[i] = max(nlo[i], lo)
            nhi[i] = min(nhi[i], hi)
        return self._rewindowed(tuple(nlo), tuple(nhi))

    def with_cap(self, cap) -> "Series":
        """Attach (and apply) a total-degree cap."""
        return self._capped(cap)

    def scalar(self) -> Fraction:
        """Value of a series with no variable dependence."""
        k0 = self._zero_key()
        if any(k != k0 for k in self._terms):
            raise ValueError("not a scalar")
        return Fraction(self._terms[k0], self._den) if self._terms else Fraction(0)

    # -- substitution ----------------------------------------------------------
    def substitute(self, var: str, g: "Series", powers: dict | None = None) -> "Series":
        """Replace ``var`` by the series g (in any variables not including
        ``var``).  Powers g^k for the occurring exponents k are formed
        exactly, each by one product from the power next to it toward 0
        (g^k = g^(k-1) g, g^-k = g^(1-k) g^-1); negative k require g to
        have valuation 1 in exactly one variable (Laurent re-expansion) or
        be a unit.  A caller-owned ``powers`` cache avoids re-forming g^k
        across invocations.

        g must not carry a total-degree cap when negative powers occur:
        capping a series that is later inverted discards needed data.
        """
        i = self.idx(var)
        rest_vars = tuple(v for j, v in enumerate(self.vars) if j != i)
        out_vars = list(rest_vars)
        for v in g.vars:
            if v not in out_vars:
                out_vars.append(v)
        out_vars = tuple(out_vars)
        if powers is None:
            powers = {}

        def g_power(k: int) -> Series:
            p = powers.get(k)
            if p is None:
                if k > 1:
                    p = g_power(k - 1) * g
                elif k < -1:
                    p = g_power(k + 1) * g_power(-1)
                elif k >= 0:
                    p = g ** k
                else:
                    p = g.laurent_power(k)
                powers[k] = p
            return p

        cap = self._cap_without(var)
        # each rest * g^k is declared over rest_vars + the new vars of g,
        # which is out_vars
        terms = [self._slice_series(var, part, cap) * g_power(k)
                 for k, part in self._slices(var)]
        if terms:
            acc = series_sum(terms)
        else:
            acc = Series.zero(out_vars, cap=cap, layout=self._lay)
        # unknown self-coefficients beyond hi[var] enter g's variables at
        # exponent >= (hi[var]+1) * valuation(g); clamp the claim accordingly
        H = self.hi[i]
        if H < INF:
            nhi = list(acc._hi)
            for v in g.vars:
                val = max(g.min_exp(v), 0)
                if val > 0:
                    j = acc._lay.index[v]
                    nhi[j] = min(nhi[j], (H + 1) * val - 1)
            acc = acc._rewindowed(hi=tuple(nhi))
        return acc

    def _cap_without(self, var: str):
        if self.cap is None or var not in self.cap[0]:
            return self.cap
        # substitution target inherits the cap through the substituted
        # variable only when the caller re-applies it; drop here
        return None

    def laurent_power(self, k: int) -> "Series":
        """g^k for negative k when g = c1*t*(1 + O(t)) in a single variable."""
        assert k < 0
        sup = [v for v in self.vars if any(self._exponents(v))]
        if len(sup) != 1:
            raise ValueError("Laurent power needs a univariate series")
        t = sup[0]
        if self.min_exp(t) != 1:
            raise ValueError("Laurent power needs valuation exactly 1")
        unit = self.shift(t, -1)
        inv_unit = unit.inverse()
        return (inv_unit ** (-k)).shift(t, k)


def _align(parts) -> list[Series]:
    """The series on one layout, declared over one tuple of variables (the
    first one's, then each new one in order of appearance) and under the
    merged total-degree cap, which is applied to every one of them."""
    first = parts[0]
    lay = first._lay
    vars = first.vars
    cap = first.cap
    for s in parts[1:]:
        if s._lay is not lay:
            lay = _common_layout(lay, s._lay)
        if s.vars != vars:
            vars = vars + tuple(v for v in s.vars if v not in vars)
        if s.cap != cap:
            cap = _merge_caps(cap, s.cap)
    return [s._embed(lay)._declared(vars)._capped(cap) for s in parts]


def _merge_caps(ca, cb):
    if ca is None:
        return cb
    if cb is None or ca == cb:
        return ca
    raise ValueError("incompatible total-degree caps: %r vs %r" % (ca, cb))


def series_sum(parts) -> Series:
    """The sum of one or more series, built in one pass: the windows are the
    narrowest of the parts' and the cap is their merged cap."""
    parts = _align(parts)
    first = parts[0]
    if len(parts) == 1:
        return first
    lay = first._lay
    lo = tuple(map(min, *(p._lo for p in parts)))
    hi = tuple(map(min, *(p._hi for p in parts)))
    need = [0] * len(lo)
    for p in parts:
        for i, (t, l) in enumerate(zip(lay.split(p._top), p._lo)):
            x = min(t + l - lo[i], hi[i] - lo[i])
            if x > need[i]:
                need[i] = x
    wide = _widened(lay, need)
    if wide is not lay:
        parts = [p._embed(wide) for p in parts]
        lay = wide
    den = lcm(*(p._den for p in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for p in parts:
        p = p._rewindowed(lo, hi)
        scale = den // p._den
        if not acc:
            acc = dict(p._terms) if scale == 1 else {k: v * scale for k, v in p._terms.items()}
            get = acc.get
        elif scale == 1:
            for k, v in p._terms.items():
                acc[k] = get(k, 0) + v
        else:
            for k, v in p._terms.items():
                acc[k] = get(k, 0) + v * scale
    terms, den = _reduced({k: v for k, v in acc.items() if v}, den)
    return _new(lay, first.vars, lo, hi, first.cap, terms, den)


# ---------------------------------------------------------------------------
# univariate helpers


def poly1(var: str, coeffs: dict[int, Fraction], hi: int = INF, cap=None) -> Series:
    lo = min((e for e in coeffs if coeffs[e] != 0), default=0)
    return Series((var,), (lo,), (hi,), {(e,): v for e, v in coeffs.items()}, cap)


def univariate_coeffs(s: Series, var: str) -> dict[int, Fraction]:
    i = s.idx(var)
    out = {}
    for e, v in s.data.items():
        if any(x for j, x in enumerate(e) if j != i):
            raise ValueError("not univariate in %s" % var)
        out[e[i]] = v
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


def kernel_series(wi: str, wj: str, vars, depth: int, cap=None, layout=None) -> Series:
    """The sector expansion sum_{k>=1} k wi^k wj^(-k) of the double-pole
    kernel wi*wj/(wi-wj)^2, truncated at the given depth.

    Only valid with wi earlier than wj in the sector order; callers pass
    variables in increasing index order.  The depth is part of the
    evaluation convention (terms beyond it cannot reach monomials with all
    exponents in [1, D] when depth >= n*D), so the windows are declared
    complete; the honest negative valuation bound is kept.
    """
    vars = tuple(vars)
    i, j = vars.index(wi), vars.index(wj)
    if i >= j:
        raise SectorError("kernel requires sector order %s < %s" % (wi, wj))
    n = len(vars)
    data = {}
    for k in range(1, depth + 1):
        e = [0] * n
        e[i], e[j] = k, -k
        data[tuple(e)] = k
    lo = tuple(-depth if t == j else 0 for t in range(n))
    return Series(vars, lo, (INF,) * n, data, cap, layout)


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
    phi^k / k.  The powers phi^k are integer lists over one denominator,
    cut at w^(D-1), the highest coefficient read.

    >>> sorted(lagrange_coeffs({0: 1, 2: 1}, 7).items())
    [(1, Fraction(1, 1)), (3, Fraction(1, 1)), (5, Fraction(2, 1)), (7, Fraction(5, 1))]
    """
    if any(e < 0 for e in phi):
        raise ValueError("phi must be a power series")
    top = D - 1
    kept = {e: Fraction(c) for e, c in phi.items() if e <= top and c}
    den = lcm(*(c.denominator for c in kept.values())) if kept else 1
    base = [(e, c.numerator * (den // c.denominator)) for e, c in sorted(kept.items())]
    out = {}
    power, pden = [1] + [0] * top, 1  # phi^0
    for k in range(1, D + 1):
        nxt = [0] * (top + 1)
        for e, c in base:
            for j in range(top + 1 - e):
                if power[j]:
                    nxt[j + e] += c * power[j]
        pden *= den
        g = gcd(pden, *nxt)
        if g != 1:
            nxt = [v // g for v in nxt]
            pden //= g
        power = nxt
        if power[k - 1]:
            out[k] = Fraction(power[k - 1], pden * k)
    return out


def lagrange_invert(x_of_w: Series, var: str, D: int) -> Series:
    """Inverse series w(X) of X(w) = w*(1 + O(w)), to degree D, in the same
    variable name; X(w(X)) = X + O(X^(D+1)).

    >>> from fractions import Fraction
    >>> X = poly1("w", {1: Fraction(1), 3: Fraction(-1)}, hi=12)
    >>> w = lagrange_invert(X, "w", 5)
    >>> sorted(univariate_coeffs(w, "w").items())[:2]
    [(1, Fraction(1, 1)), (3, Fraction(1, 1))]
    """
    cs = univariate_coeffs(x_of_w, var)
    if cs.get(1) != 1 or any(e < 1 for e in cs):
        raise ValueError("expected a series w*(1 + O(w)) with unit linear term")
    if x_of_w.hi[x_of_w.idx(var)] < D:
        raise TruncationError("input known only to degree %d < %d" % (x_of_w.hi[0], D))
    # w = X phi(w) with phi = w / X(w), needed to degree D - 1
    phi = inverse_coeffs({e - 1: c for e, c in cs.items() if e <= D}, D - 1)
    return poly1(var, lagrange_coeffs(phi, D), hi=D)
