"""The master moment/cumulant transform in its equivalent forms, and the
tree/graph functional-relation routes.

Routes between a cumulant table and a moment table:

- hurwitz:     Z(lam) = z(lam) sum_nu H^<(lam, nu) Z_dual(nu), inverted
               with the weakly monotone series; computed without tables
               as a chi-transform, the content multiplier and back, on
               integer rows (below);
- convolution: Phi = zeta_hbar (*) Phi_dual on PS(d) (and the Moebius
               inverse Phi_dual = mu_hbar (*) Phi), evaluated only at the
               one-block targets (1_d, pi_lam) from the factorization
               counts of pscore.target_factorizations, grouped by block
               types into one hbar row each; the inverse is solved degree
               by degree, and within a degree in one pass up the hbar
               orders, so neither direction builds tables over PS(d);
- schur:       the same kernel, under its Schur-basis name;
- formula:     the tree (genus 0), graph (all genus) and special-tree
               (genus 1/2) functional relations and their duals; the
               genus-0 and genus-1/2 tree sums are edge products in
               integer numerators that drop, after each factor, exactly
               the terms that cannot reach a target (_cut_product), summed
               over the trees (or special trees) of one valency vector and
               then leaf-contracted once per valency pattern, axis by axis,
               each k_i only as far as the later axes leave degree for
               (_leaf_contraction).

Z-tables attach hbar^(d + ell(lam)) * z(lam) times the monomial coefficient
of p_lam; equivalently Z(lam) = sum over partitions A of the cycle set of
pi_lam of products of block values

    B(mu) = hbar^(|mu| + ell(mu) - 2 + g2) F_{g2; mu},

which pins all gradings against the classical moment-cumulant relations.
The Z-assembly never lists those set partitions.  It recurses on the block
that holds the first cycle: with nu = (a, rho),

    Z(nu) = sum over sub-multisets T of rho of c_T B(a u T) Z(rho - T),
    Z(()) = 1,

where c_T = prod_k C(m_k(rho), t_k) counts the sets of cycles of rho whose
lengths form T.  Its inverse peels the T = rho term off the same sum.

Representation.  Every master route keeps its hbar-series as the rows of
freehop.hbar, the numerators of hbar^0..hbar^K over a denominator fixed
by the partition, and the rows stop at K = required_K, the highest order
an entry is read off at; a term never feeds a lower order.  The block
values B(mu) of the input table sit over Q^ell(mu), Q the lcm of the
table's denominators (_block_rows), and so does Z(nu) over Q^ell(nu); the
Z(nu) / z(nu) of one degree d, and the chi-transform of them, over
Q^d d!; the Z and block values of the peel over one D_d per degree, with
D_a D_b dividing D_(a+b).  The hurwitz kernel packs a row into one integer
with a slot of B bits per order (hbar.Packed), so a product term is one
big-integer product, and a slot is decoded, and a Fraction built, only
where an entry is read off (_store).  B comes from a bound: the kernel
runs first on hbar.Bounds, the same recursion on one scalar bound of the
sum of |v_j| per row, and B is the bit length of the largest bound of a
row it reads off, plus one.  Where that width passes PACKED_MAX_BITS, the
kernel keeps its Z-assembly and peel on lists (hbar.Lists).

The convolution routes run on lists in both directions, with no bound
pass: every block row sits over Q^|mu| (_degree_rows), so a product of
degree d is over Q^d, one grouped sum (_grouped_sum) serves both, and the
inverse's solve reads its rows one order at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, mul

from . import graphs, pscore, symcore
from .hbar import Bounds, Lists, Packed, _decode
from .operators import Evaluator, shape_of
from .series import _w_product
from .symcore import Partition, _splits, sort_to_partition
from .tables import CoefficientTable, checked_items


# ---------------------------------------------------------------------------
# partition-function tables


def _first_block_sum(nu: Partition, block: dict, z: dict, den, ring) -> int:
    """The first-block sum sum_T c_T B(nu_1 u T) Z(rest) over den(nu), on
    the rows of ``ring`` (freehop.hbar): the row of a partition p in
    ``block`` or ``z`` is over den(p), and den(mu) den(rest) divides
    den(nu).  A block missing from ``block`` is a zero term.

    A block value B(mu) starts at hbar^(|mu| + len(mu) - 2), and so a
    Z(rest), as a sum of products of block values over set partitions of
    rest's cycles, starts at hbar^(|rest| - len(rest)) at the lowest (all
    blocks single cycles); so does each Z' of the chi-transform, since a
    Hurwitz series H(lam, nu) starts at hbar^|len(lam) - len(nu)|.  The
    products multiply only the slots above these orders."""
    acc = ring.zero()
    dn = den(nu)
    for mu, rest, c in _splits(nu):
        b = block.get(mu)
        if b is not None:
            acc = ring.mul_add(acc, c * dn // (den(mu) * den(rest)),
                               b, sum(mu) + len(mu) - 2, z[rest], sum(rest) - len(rest))
    return ring.reduce(acc)


def _block_rows(table: CoefficientTable, dmax: int, K: int):
    """The block values B(mu), |mu| <= dmax, of a table as integer rows
    truncated at hbar^K: returns (block, qpow), where block[mu] is the
    list of the numerators of B(mu) Q^len(mu) for every mu with a nonzero
    row, qpow[e] = Q^e for e <= dmax, and Q is the lcm of the denominators
    of the table entries of degree <= dmax.  Raises ValueError on a key
    whose k is not a partition (tables.checked_items)."""
    Q = lcm(*(v.denominator for (_, mu), v in checked_items(table) if sum(mu) <= dmax))
    qpow = [Q ** e for e in range(dmax + 1)]
    block = {}
    for d in range(1, dmax + 1):
        for mu in symcore.partitions(d):
            base = d + len(mu) - 2
            row = [0] * (K + 1)
            for g2 in range(K - base + 1):
                v = table.get((g2, mu), 0)
                row[base + g2] = v.numerator * (qpow[len(mu)] // v.denominator)
            if any(row):
                block[mu] = row
    return block, qpow


def _z_rows(block: dict, qpow: list, dmax: int, ring):
    """Z(nu) for every nu |- d <= dmax by the first-block recursion,

        Z(nu) = sum_{T sub-multiset of rho} c_T B(nu_1 u T) Z(rho - T),

    rho = nu minus its largest part nu_1, c_T = prod_k C(m_k(rho), t_k),
    from the block rows and Q-powers of _block_rows.  Returns (z, den):
    z[nu] is the row of Z(nu) den(nu) in ``ring``, with den(nu) =
    Q^len(nu).  A block value B(mu) sits over Q^len(mu) too, so each term
    of the recursion is a product of rows times an integer."""
    block = {mu: ring.row(row) for mu, row in block.items()}

    def den(p: Partition) -> int:
        return qpow[len(p)]

    z = {(): ring.one}
    for d in range(1, dmax + 1):
        for nu in symcore.partitions(d):
            z[nu] = _first_block_sum(nu, block, z, den, ring)
    return z, den


def _peel(z: dict, dens: list, dmax: int, g2max: int, ring) -> CoefficientTable:
    """Invert the Z-assembly, degree by degree: with nu = (a, rho),

        B(nu) = Z(nu) - sum_{T != rho} c_T B(a u T) Z(rho - T),

    where each B(a u T) is of lower degree and each Z(rho - T) is an input
    value; then read the F-table off the hbar gradings of the B(nu).
    z[nu] is a row of ``ring`` over dens[|nu|].  Z and B of degree d are
    put over one D_d, the lcm of dens[d] and every D_a D_(d-a), so each
    term is a product of rows times D_d / (D_a D_(d-a))."""
    D = [1]
    for d in range(1, dmax + 1):
        D.append(lcm(dens[d], *(D[a] * D[d - a] for a in range(1, d))))

    def den(p: Partition) -> int:
        return D[sum(p)]

    block, zD, out = {}, {}, {}
    for d in range(1, dmax + 1):
        s = D[d] // dens[d]
        for nu in symcore.partitions(d):
            zD[nu] = row = z[nu] if s == 1 else ring.scale(s, z[nu])
            # block lacks nu itself, so the sum leaves out T = rho
            row = ring.sub(row, _first_block_sum(nu, block, zD, den, ring))
            if ring.nonzero(row):
                block[nu] = row
            _store(out, nu, row, D[d], g2max, ring)
    return out


def _store(out: CoefficientTable, lam: Partition, row: int, den: int, g2max: int, ring):
    """Read the entries F_{g2; lam}, g2 <= g2max, off the hbar gradings of
    a block value known to hbar^K, given as a row of ``ring`` over den."""
    base = sum(lam) + len(lam) - 2
    for g2, v in _decode(ring.read(row, base, base + g2max + 1), den).items():
        out[(g2, lam)] = v


def required_K(dmax: int, g2max: int) -> int:
    """The highest hbar order the master routes read off: F_{g2; lam} sits
    at hbar^(|lam| + len(lam) - 2 + g2), which over |lam| <= dmax and
    g2 <= g2max is largest at lam = (1^dmax), g2 = g2max.  A working
    truncation below it drops entries."""
    return 2 * dmax - 2 + g2max


# ---------------------------------------------------------------------------
# routes: hurwitz and schur, one content-multiplier kernel


# The widest slot, in bits, at which the master kernel multiplies packed
# rows.  Packing pads every slot to the widest, and CPython multiplies wide
# packed rows more slowly than it convolves their lists; measured on
# CPython 3.11 at (deg, g2) = (12, 4), (16, 4) and (20, 2), in both
# directions, packed rows were faster at slot widths of 185 to 234 bits,
# as fast at 360 and slower from 374 on.
PACKED_MAX_BITS = 320


def _content_transform(table: CoefficientTable, dmax: int, g2max: int, inverse: bool) -> CoefficientTable:
    """z(lam) sum_nu H(lam, nu) Z(nu), H the strictly (weakly) monotone
    Hurwitz series, as a chi-transform.  A central element acts on the
    irreducible rho |- d by a scalar, so with b_nu = Z(nu) / z(nu)

        Z'(lam) = sum_rho chi^rho(lam) m_rho sum_nu chi^rho(nu) b_nu,

    m_rho = prod over the cells of rho of (1 + hbar c), c the content, or
    its inverse when ``inverse`` is set.  Per degree the b_nu are rows over
    the denominator Q^d d! (Z(nu) is over Q^len(nu) and d! / z(nu) is the
    class size), so the transform is two sums of rows times characters
    and a row product by the rows of symcore.content_rows in between;
    _peel reads the F-table off the Z'.  Every entry has degree >= 1, so
    below dmax = 1 the table is empty, as on the convolution routes.

    The kernel runs first on Bounds, and then on rows packed at the slot
    width that bound gives when it is at most PACKED_MAX_BITS; past it,
    the Z-assembly and the peel run on lists and only the chi-transform
    packs (hbar.Lists.packed).  The rows read off at degree dmax sit over
    a multiple of Q^dmax, so where Q^dmax alone has more bits than that,
    the kernel goes to lists without the bound pass."""
    if dmax < 1:
        return {}
    K = required_K(dmax, g2max)
    block, qpow = _block_rows(table, dmax, K)
    ring = Lists(K)
    if qpow[dmax].bit_length() <= PACKED_MAX_BITS:
        bounds = Bounds(K)
        _content_kernel(block, qpow, dmax, g2max, inverse, bounds)
        if bounds.width() <= PACKED_MAX_BITS:
            ring = Packed(K, bounds.width())
    return _content_kernel(block, qpow, dmax, g2max, inverse, ring)


def _content_kernel(block: dict, qpow: list, dmax: int, g2max: int, inverse: bool, ring) -> CoefficientTable:
    """_content_transform on the rows of ``ring``, from the block rows and
    Q-powers of _block_rows."""
    z, _ = _z_rows(block, qpow, dmax, ring)
    zout = {}
    for d in range(1, dmax + 1):
        rows = {nu: z[nu] for nu in symcore.partitions(d)}
        zout.update(ring.packed(lambda rows, r: _chi_transform(rows, r, qpow, d, inverse), rows))
    dens = [1] + [qpow[d] * factorial(d) for d in range(1, dmax + 1)]
    return _peel(zout, dens, dmax, g2max, ring)


def _chi_transform(z: dict, ring, qpow: list, d: int, inverse: bool) -> dict:
    """The Z'(lam), lam |- d, of _content_transform from the Z(nu), nu |- d,
    over Q^len(nu), as rows of ``ring``, Packed or Bounds, each over
    Q^d d!.

    In the bound pass the characters keep their signs and m_rho is its
    value at hbar = 1 (at hbar = -1 inverse, Bounds.multiplier):
    sum_rho chi^rho(lam) chi^rho(nu) m_rho is z(lam) z(nu) H(lam, nu),
    whose coefficients are the monotone Hurwitz numbers, all >= 0
    (alternating in sign inverse), so that value is the exact sum of their
    absolute values to hbar^K."""
    parts = symcore.partitions(d)
    chars = symcore.character_table(d)  # row rho, column nu
    xs = [ring.scale(qpow[d - len(nu)] * symcore.class_size(nu), z[nu]) for nu in parts]
    cs = [ring.reduce(ring.multiplier(m, -1 if inverse else 1) * sum(map(mul, chi, xs)))
          for chi, m in zip(chars, symcore.content_rows(d, ring.K, inverse))]
    return {lam: ring.reduce(sum(map(mul, chi, cs))) for lam, chi in zip(parts, zip(*chars))}


def master_forward(cum_table: CoefficientTable, dmax: int, g2max: int) -> CoefficientTable:
    """Moments from cumulants via strictly monotone Hurwitz numbers."""
    return _content_transform(cum_table, dmax, g2max, inverse=False)


def master_inverse(mom_table: CoefficientTable, dmax: int, g2max: int) -> CoefficientTable:
    """Cumulants from moments via weakly monotone Hurwitz numbers."""
    return _content_transform(mom_table, dmax, g2max, inverse=True)


def schur_d_oracle(cum_table: CoefficientTable, dmax: int, g2max: int, inverse: bool = False) -> CoefficientTable:
    """The master relation in the Schur basis: s_lam is multiplied by
    prod_{(i,j) in lam} (1 + hbar (j - i)), or by its inverse."""
    return _content_transform(cum_table, dmax, g2max, inverse)


# ---------------------------------------------------------------------------
# route: convolution on PS(d), evaluated at the one-block targets


@lru_cache(maxsize=None)
def _grouped_factorizations(lam: Partition, K: int) -> dict:
    """pscore.target_factorizations(lam) grouped by the block types: for
    each types, the integer row of sum n hbar^|alpha| over its keys with
    |alpha| <= K.  Memoised per (lam, K); the rows are read only."""
    rows: dict = {}
    for (col_a, types), n in pscore.target_factorizations(lam):
        if col_a <= K:
            rows.setdefault(types, [0] * (K + 1))[col_a] += n
    return rows


def _product_row(types: tuple, rows: dict, memo: dict, ring: Lists):
    """The product of rows[mu] over the sorted cycle types mu of ``types``,
    or None when a type has no row (a zero value); a single type is its
    row, and memo holds the product of every longer prefix asked for."""
    if len(types) == 1:
        return rows.get(types[0])
    if types not in memo:
        head, last = _product_row(types[:-1], rows, memo, ring), rows.get(types[-1])
        memo[types] = None if head is None or last is None else ring.mul_add(
            ring.zero(), 1, head, 0, last, 0)
    return memo[types]


def _degree_rows(table: CoefficientTable, dmax: int, K: int):
    """(rows, qpow) of _block_rows with each row over Q^|mu|, not
    Q^len(mu), so that a product of rows of total degree d is over Q^d."""
    block, qpow = _block_rows(table, dmax, K)
    return {mu: [qpow[sum(mu) - len(mu)] * v for v in row] for mu, row in block.items()}, qpow


def _grouped_sum(lam: Partition, rows: dict, memo: dict, ring: Lists) -> list:
    """The sum over the factorization types of (1_d, pi_lam), lam |- d, of
    each type's hbar row times the product of its blocks' rows (over Q^d
    when every row is over Q^|mu|); a type with a block missing from
    ``rows`` is a zero term.  ``memo`` is that of _product_row."""
    acc = ring.zero()
    for types, h in _grouped_factorizations(lam, ring.K).items():
        p = _product_row(types, rows, memo, ring)
        if p is not None:
            ring.mul_add(acc, 1, h, 0, p, 0)
    return acc


def convolution_forward(cum_table: CoefficientTable, dmax: int, g2max: int) -> CoefficientTable:
    """Moments from cumulants by the extended convolution with zeta_hbar,

        phi(1_d, pi_lam) = sum over alpha beta = pi_lam, B >= 0_beta,
                           0_alpha v B = 1_d of hbar^|alpha| prod_B phi_dual,

    evaluated only at the one-block targets through the factorization
    counts of ``pscore.target_factorizations``, grouped by block types
    (_grouped_sum); the moments of degree d sit over Q^d."""
    ring = Lists(required_K(dmax, g2max))
    block, qpow = _degree_rows(cum_table, dmax, ring.K)
    memo: dict = {}
    out: CoefficientTable = {}
    for d in range(1, dmax + 1):
        for lam in symcore.partitions(d):
            _store(out, lam, _grouped_sum(lam, block, memo, ring), qpow[d], g2max, ring)
    return out


def moebius_inverse_route(mom_table: CoefficientTable, dmax: int, g2max: int) -> CoefficientTable:
    """Cumulants from moments: the (*)-inverse of convolution_forward,

        phi_dual = mu_hbar (*) phi,

    solved degree by degree at the one-block targets.  In the expansion of
    phi(1_d, pi_lam) the only term with |alpha| = 0 is phi_dual(1_d, pi_lam)
    itself; the other terms are products of blocks of size < d, known from
    lower degrees, or one block mu |- d times n hbar^|alpha|, |alpha| >= 1.
    The cumulants of degree d sit over Q^d, as the moments do.  With r_lam
    the moment minus the products (_grouped_sum), the p(d) unknowns are
    solved in one pass up the hbar orders,

        x_lam[j] = r_lam[j] - sum n x_mu[j - |alpha|],

    each x_mu[j - |alpha|] being of a lower order, already solved."""
    K = required_K(dmax, g2max)
    ring = Lists(K)
    moments, qpow = _degree_rows(mom_table, dmax, K)
    cum: dict[Partition, list] = {}
    memo: dict = {}
    out: CoefficientTable = {}
    for d in range(1, dmax + 1):
        parts = symcore.partitions(d)
        # cum holds no row of degree d yet, so each grouped sum is the
        # products of lower-degree blocks alone
        x = {lam: ring.sub(moments.get(lam, ring.zero()), _grouped_sum(lam, cum, memo, ring))
             for lam in parts}
        links = {lam: [(types[0], a, n) for types, h in _grouped_factorizations(lam, K).items()
                       if len(types) == 1 for a, n in enumerate(h) if a and n]
                 for lam in parts}
        # x[lam] holds r_lam and is solved in place, order by order
        for j in range(K + 1):
            for lam in parts:
                x[lam][j] -= sum(n * x[mu][j - a] for mu, a, n in links[lam] if a <= j)
        for lam in parts:
            _store(out, lam, x[lam], qpow[d], g2max, ring)
        cum.update((lam, row) for lam, row in x.items() if any(row))
    return out


# ---------------------------------------------------------------------------
# functional-relation routes (trees, graphs, coefficients)


def _edge_terms(ev: Evaluator, I: tuple[int, ...], g2: int = 0, depth: int | None = None):
    """The genus-fixed hyperedge series G_{g, #I}(w_I), with the
    double-pole kernel sum_k k w_a^k w_b^-k (k to the given depth, to
    ev.kernel_depth when None) added for an off-diagonal pair at genus 0,
    as terms over the exponents of w_0, ..., w_(n-1), summed from the
    entries of ev._slot_entries and memoised on the evaluator: (groups,
    den, pos, reach), with pos the positions of the edge's variables, den
    the denominator and reach the negative reach -min(0, lowest exponent)
    per variable.  The terms are grouped by their exponents h on every
    position of pos but the last: one (sum(h), h, lasts, entries) per
    group, in ascending order of sum(h), where entries are the (exponents,
    integer numerator) pairs of the group in ascending order of their
    last-position exponents, which are lasts.  They are built once per
    shape of I (operators.shape_of) and moved to I's positions."""
    shape, pos = shape_of(I)

    def build():
        data: dict[tuple, Fraction] = {}
        for comp, val in ev._slot_entries(shape, g2, ev.kernel_depth if depth is None else depth):
            e = [0] * ev.n
            for slot, k in zip(shape, comp):
                e[slot] += k
            e = tuple(e)
            data[e] = data.get(e, 0) + val
        data = {e: v for e, v in data.items() if v}
        den = lcm(*(v.denominator for v in data.values()))
        last = len(pos) - 1
        by_head: dict[tuple, list] = {}
        for e, v in data.items():
            by_head.setdefault(e[:last], []).append((e[last], e, v.numerator * (den // v.denominator)))
        groups = []
        for h in sorted(by_head, key=lambda h: (sum(h), h)):
            terms = sorted(by_head[h])
            groups.append((sum(h), list(h), [t[0] for t in terms], [t[1:] for t in terms]))
        reach = [-min([0, *(e[i] for e in data)]) for i in range(ev.n)]
        return groups, den, list(range(len(pos))), reach

    key = ("terms", g2, depth)
    groups, den, base_pos, reach = ev._memo(key + (shape,), build)
    if pos == base_pos:
        return groups, den, pos, reach

    def move(e):
        out = [0] * ev.n
        for i, x in zip(pos, e):
            out[i] = x
        return out

    return ev._memo(key + (tuple(I),), lambda: (
        [(hs, h, lasts, [(tuple(move(e)), v) for e, v in entries])
         for hs, h, lasts, entries in groups], den, pos, move(reach)))


def _cut_product(ev: Evaluator, factors, start=None) -> tuple[dict[tuple, int], int]:
    """The product of start (the constant 1 when None) and the _edge_terms
    factors, as ({exponent tuple over w_0, ..., w_(n-1): integer numerator},
    denominator), keeping only the terms that can reach a target.

    Every term that reaches the leaf contraction has sum_i max(1, a_i) <= D.
    With r_i the negative w_i reach of the factors still to come, no
    descendant of a term a has a w_i-exponent below a_i - r_i, and
    max(1, .) is monotone; so after each factor a term is dropped unless
    sum_i max(1, a_i - r_i) <= D.  That test is applied exactly and
    without a trial per pair: with c = a - r on the factor's positions and
    room what the other positions leave of D, a group of the factor's
    terms, with head exponents h, needs sum max(1, c + h) on the head, and
    what that leaves bounds the last exponent, which one bisect over the
    group's sorted last exponents applies.  A head needs at least
    sum(c) + sum(h), so the loop over the groups, in ascending order of
    sum(h), stops at the first whose head leaves no room for the last
    position; for a pair edge that is the first group over budget."""
    D = ev.D
    state, den = start if start is not None else ({(0,) * ev.n: 1}, 1)
    reach = [0] * ev.n
    after = []
    for *_, f_reach in reversed(factors):
        after.append(reach)
        reach = [r + x for r, x in zip(reach, f_reach)]
    for (groups, fden, pos, _), r in zip(factors, reversed(after)):
        others = [i for i in range(ev.n) if i not in pos]
        *head, last = pos
        nxt: dict[tuple, int] = {}
        get = nxt.get
        for a, va in state.items():
            room = D - sum([max(1, a[i] - r[i]) for i in others])
            if room < len(pos):
                continue
            c = [a[i] - r[i] for i in head]
            cs, cl = sum(c), a[last] - r[last]
            for hs, h, lasts, entries in groups:
                if cs + hs >= room:
                    break
                left = room - sum([max(1, x + y) for x, y in zip(c, h)])
                if left >= 1:
                    for b, vb in entries[:bisect_right(lasts, left - cl)]:
                        t = tuple(map(add, a, b))
                        nxt[t] = get(t, 0) + va * vb
        state, den = nxt, den * fden
    return state, den


def _tree_product(ev: Evaluator, edges) -> tuple[dict[tuple, int], int]:
    """The cut product (_cut_product) of the genus-0 hyperedge series of a
    tree's edges (or of the kernel-carrying edges of a special tree), with
    the kernel depths of _tree_kernel_depths."""
    depths = _tree_kernel_depths(edges, ev.D)
    return _cut_product(ev, [_edge_terms(ev, I, depth=depths.get(I)) for I in edges])


def _tree_kernel_depths(edges, D: int) -> dict[tuple[int, ...], int]:
    """Minimal safe kernel depths per tree edge: a kernel's positive side
    must return below degree D through the negative reach of its earlier
    variable, which is fed only by this tree's other kernels."""
    depths: dict[tuple[int, ...], int] = {}
    pairs = [I for I in edges if len(I) == 2 and I[0] != I[1]]

    def depth(I):
        if I not in depths:
            i = I[0]
            depths[I] = D + sum(depth(J) for J in pairs if J[1] == i and J != I)
        return depths[I]

    for I in pairs:
        depth(I)
    return depths


def _binom_factor(k: int, r: int, sign: int) -> int:
    """k!/(k-r)! forward (zero past r = k), (-1)^r (r+k-1)!/(k-1)! dual."""
    if sign > 0:
        return factorial(k) // factorial(k - r) if r <= k else 0
    return (-1) ** r * factorial(r + k - 1) // factorial(k - 1)


def genus0_moments(table: CoefficientTable, n: int, D: int, sign: int = 1) -> CoefficientTable:
    """All F_{0; k_1..k_n} with total degree <= D by the genus-0 tree
    relation, coefficient-wise over trees with univalent leaves:

        F_{0;k} = [prod w^k] sum_r prod_i binom-factor(k_i, r_i)
                  sum_{T in T_n(r+1)} prod'' G_{0,#I} / prod_i leaves_i!,

    with factor k!/(k-r)! forward and (-1)^r (r+k-1)!/(k-1)! dual; each
    leaf carries one factor (G_{0,1} - 1) of valuation >= 1, so leaves
    beyond total degree D never contribute.  The leaves are summed by
    _leaf_contraction over the trees of enumerate_graphs(n, 0).  sign=-1
    runs the dual direction (cumulants from moments).  On GUE the
    one-point moments are the Catalan numbers:

    >>> from freehop.tables import gue_table
    >>> m = genus0_moments(gue_table(), 1, 6)
    >>> [m[(0, (k,))] for k in (2, 4, 6)]
    [Fraction(1, 1), Fraction(2, 1), Fraction(5, 1)]
    >>> genus0_moments(gue_table(), 2, 2)
    {(0, (1, 1)): Fraction(1, 1)}

    Every entry has k_i >= 1, so past n = D the table is empty:

    >>> genus0_moments(gue_table(), 3, 2)
    {}
    """
    if n > D:
        return {}
    ev = Evaluator(table, n, D, K=2, sign=sign)
    products = ((tree.valencies(), _tree_product(ev, tree.edges))
                for tree in graphs.enumerate_graphs(n, 0))
    return _leaf_contraction(ev, products, 0)


# the relations workload of perfbench/run.py calls the genus-0 route by
# this name too
genus0_coefficient_table = genus0_moments


def _leaf_contraction(ev: Evaluator, products, g2: int) -> CoefficientTable:
    """The table at doubled genus g2 of the coefficient-wise relation over
    base trees with univalent leaves, from the (white valencies, cut edge
    product of _cut_product) pair of each base tree.  The sum over the
    leaves is contracted into one weight W(v_i, k_i, a_i) per axis, which
    depends on the tree only through its valency v_i; the binomial factors
    (which depend on the target exponents) enter that weight.  So the
    products of the trees with one valency vector are summed first, over
    one denominator, and after axis i is contracted the sums whose
    valencies v_(i+1)..v_(n-1) agree are merged.  A term reaches only
    targets with k_i >= max(1, a_i): the terms that need more than degree
    D, or lie below the kernel depth, are dropped first, and each term is
    kept by the degree it needs, sum_(j<i) k_j + sum_(j>=i) max(1, a_j),
    so that k_i runs only as far as the axes after it leave room for.
    """
    n, D, sign = ev.n, ev.D, ev.sign
    # leaf weights W(v, k, a) = sum_l factor(k, v+l-1)/l! [w^(k-a)] (C-1)^l,
    # contracting the whole leaf sum at white valency v, as integers over
    # the one denominator D! den_C^D, from (C-1)^l as integer numerators
    # over den_C^l
    cs = {e: c for e, c in ev.C_coeffs().items() if e}
    den_c = lcm(*(c.denominator for c in cs.values()))
    base = {e: c.numerator * (den_c // c.denominator) for e, c in cs.items()}
    pows = [{0: 1}]
    for _ in range(D):
        pows.append(_w_product(pows[-1], base, (n + 1) * D))
    wden = factorial(D) * den_c ** D
    scale = [factorial(D) // factorial(l) * den_c ** (D - l) for l in range(D + 1)]
    rows: dict[tuple[int, int], list[int]] = {}

    def row(v: int, a: int) -> list[int]:
        """W(v, k, a) * wden for k in 0..D."""
        if (v, a) not in rows:
            rows[v, a] = [
                sum(_binom_factor(k, v + l - 1, sign) * pows[l][k - a] * scale[l]
                    for l in range(max(0, 1 - v), D + 1) if pows[l].get(k - a))
                if k >= max(1, a) else 0
                for k in range(D + 1)
            ]
        return rows[v, a]

    low = -ev.kernel_depth
    products = list(products)
    den = lcm(*(d for _, (_, d) in products))
    # groups[v_i..v_(n-1)][need] = {key: integer numerator over den}
    groups: dict[tuple, list[dict]] = {}
    for vals, (state, d) in products:
        s = den // d
        needs = groups.setdefault(vals, [{} for _ in range(D + 1)])
        for key, val in state.items():
            need = sum([a if a > 1 else 1 for a in key])
            if need <= D and min(key) >= low:
                acc = needs[need]
                acc[key] = acc.get(key, 0) + s * val
    for i in range(n):
        # replace the a_i axis by the k_i axis, weighting with
        # W(v_i, k_i, a_i) over one more factor wden of the denominator
        den *= wden
        merged: dict[tuple, list[dict]] = {}
        for vals, needs in groups.items():
            nxt = merged.setdefault(vals[1:], [{} for _ in range(D + 1)])
            for need, state in enumerate(needs):
                for key, val in state.items():
                    a = key[i]
                    lo = a if a > 1 else 1
                    rest = need - lo
                    head, tail = key[:i], key[i + 1:]
                    wrow = row(vals[0], a)
                    for k in range(lo, D - rest + 1):
                        wgt = wrow[k]
                        if wgt:
                            nk = head + (k,) + tail
                            acc = nxt[rest + k]
                            acc[nk] = acc.get(nk, 0) + wgt * val
        groups = merged
    acc_by_k = {ks: Fraction(v, den) for state in groups.get((), ()) for ks, v in state.items()}
    for ks in _compositions(n, D):
        acc_by_k.setdefault(ks, Fraction(0))
    out: CoefficientTable = {}
    grouped: dict[tuple, set] = {}
    for ks, v in acc_by_k.items():
        grouped.setdefault(sort_to_partition(ks), set()).add(v)
    for key, vals in grouped.items():
        if len(vals) != 1:
            raise AssertionError("asymmetric coefficient route at %r" % (key,))
        v = next(iter(vals))
        if v:
            out[(g2, key)] = v
    return out


def _compositions(n: int, D: int):
    """Ordered tuples of n positive integers with total <= D."""

    def rec(i, rem):
        if i == n:
            yield ()
            return
        for k in range(1, rem - (n - 1 - i) + 1):
            for rest in rec(i + 1, rem - k):
                yield (k,) + rest

    return list(rec(0, D))


def allgenus_moments(table: CoefficientTable, n: int, g2: int, D: int, sign: int = 1) -> CoefficientTable:
    """The all-genus graph relation for one (g, n) target; g2 is the
    doubled genus.  Covers half-integer genus via odd hbar gradings.  Every
    entry has k_i >= 1, so past n = D the table is empty."""
    if (g2, n) == (0, 1):
        return genus0_moments(table, 1, D, sign)
    T_target = g2 - 2 + n
    if T_target < 0:
        raise ValueError("no hbar^%d sector" % T_target)
    if n > D:
        return {}
    ev = Evaluator(table, n, D, K=T_target + n + 2, sign=sign)
    return ev.extract_table(*_allgenus_rows(ev, g2), g2)


def _allgenus_rows(ev: Evaluator, g2: int) -> tuple[dict[tuple, int], int]:
    """The X-terms allgenus_moments reads the (g2, n = ev.n) entries off,
    as ({exponent tuple: integer numerator}, den): the graph sum at
    hbar^(g2 - 2 + n), plus the n = 1 correction, re-expanded in X, less
    the double-pole kernel sum_k k X_0^k X_1^-k (to X_0^D) at (0, 2)."""
    n = ev.n
    rows, den = ev.graph_sum(graphs.enumerate_graphs(n, g2 // 2), g2 - 2 + n)
    if n == 1:
        delta, dden = ev.delta_series(g2)
        rows = {e: v * dden for e, v in rows.items()}
        for e, v in delta.items():
            rows[e] = rows.get(e, 0) + v * den
        den *= dden
    rows, den = ev.reexpand(rows, den)
    if (g2, n) == (0, 2):
        for k in range(1, ev.D + 1):
            rows[k, -k] = rows.get((k, -k), 0) - k * den
        rows = {e: v for e, v in rows.items() if v}
    return rows, den


def _special_tree_product(ev: Evaluator, tree: graphs.Graph) -> tuple[dict[tuple, int], int]:
    """The cut edge product of a special tree: the genus-0 product of the
    other edges times the genus-1/2 series of the special hyperedge
    edges[0], which goes last.  It has no kernel, so it adds no negative
    reach, and the other edges' cut product is the same as inside the whole
    product; it is memoised on the evaluator by the other edges, so the n
    univalent marks of one tree share their tree's."""
    rest = tree.edges[1:]
    others = ev._memo(("tree", rest), lambda: _tree_product(ev, rest))
    return _cut_product(ev, [_edge_terms(ev, tree.edges[0], g2=1)], others)


def half_genus_moments_special_trees(table: CoefficientTable, n: int, D: int) -> CoefficientTable:
    """All F_{1/2; k_1..k_n} with total degree <= D by the genus-1/2
    relation over trees with one special black vertex (which may be
    univalent): the special hyperedge carries the genus-1/2 cumulant
    series, all others the genus-0 ones.  The leaves are summed by the
    leaf contraction of genus0_moments, over enumerate_special_trees(n);
    past n = D the table is empty."""
    if n > D:
        return {}
    ev = Evaluator(table, n, D, K=2)
    products = ((tree.valencies(), _special_tree_product(ev, tree))
                for tree in graphs.enumerate_special_trees(n))
    return _leaf_contraction(ev, products, 1)
