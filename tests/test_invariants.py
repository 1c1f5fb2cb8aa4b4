"""Cross-module invariants from the design contracts."""

import graph_sum_reference
from freehop import oracles, tables, transforms
from freehop.operators import Evaluator
from freehop.tables import random_table
from series_reference import Series


def test_sigma_has_no_odd_terms_to_12():
    from freehop.series import sigma_coefficients

    assert all(e % 2 == 0 for e in sigma_coefficients(12))


def test_genus0_vertex_operator_v_degree_bound():
    # (d_y + v/y)^r . 1 has v-degree at most r
    ev = Evaluator(tables.gue_table(), 1, 4, K=2)
    b = Series.const(("v", "t"), 1, layout=graph_sum_reference.layout(ev))  # t = 1/y
    for r in range(6):
        if r:
            b = graph_sum_reference.apply_dy_plus_v_over_y(ev, b)
        iv = b.idx("v")
        assert max((e[iv] for e in b.data), default=0) <= r


def test_hbar_parity_even_input():
    # even cumulant input (integer genera) gives no odd-hbar moments
    t = random_table(seed=77, nmax=2, degmax=4, g2max=2)
    t = {k: v for k, v in t.items() if k[0] % 2 == 0}
    orc = oracles.hbar_moment_table(t, 4, 3)
    assert all(k[0] % 2 == 0 for k in orc)
    got = transforms.allgenus_moments(t, 1, 1, 4)
    assert not got


def test_star_oracle_symmetry_under_index_reordering():
    t = random_table(seed=79, nmax=3, degmax=5)
    a = oracles.genus0_moment_by_convolution(t, (3, 1, 1))
    b = oracles.genus0_moment_by_convolution(t, (1, 3, 1))
    assert a == b


def test_master_forward_is_linear_in_nothing_but_exact():
    # determinism: identical inputs give identical outputs
    t = random_table(seed=80, nmax=2, degmax=3, g2max=1)
    assert transforms.master_forward(t, 3, 1) == transforms.master_forward(t, 3, 1)


def test_gue_even_moments_only():
    mt = transforms.master_forward(tables.gue_table(), 6, 2)
    assert all(sum(ks) % 2 == 0 for _, ks in mt)


def test_half_genus_linearity_in_special_vertex():
    # the genus-1/2 output is linear in the genus-1/2 cumulants
    base = random_table(seed=81, nmax=2, degmax=4)
    half = {k: v for k, v in random_table(seed=82, nmax=2, degmax=4, g2max=1).items() if k[0] == 1}
    t1 = dict(base)
    t1.update(half)
    t2 = dict(base)
    t2.update({k: 2 * v for k, v in half.items()})
    out1 = transforms.half_genus_moments_special_trees(t1, 2, 4)
    out2 = transforms.half_genus_moments_special_trees(t2, 2, 4)
    assert out2 == {k: 2 * v for k, v in out1.items()}
