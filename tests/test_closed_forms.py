"""The master routes against closed forms from the literature, at degrees
the brute-force oracles do not reach: the Harer-Zagier recursion on GUE
and the free moment-cumulant relation at genus 0."""

import json

import pytest

from freehop import cli, oracles
from freehop.tables import gue_table, random_table, restrict_table
from freehop.transforms import master_forward, master_inverse


def one_point(table, g2max):
    return {key: v for key, v in table.items() if len(key[1]) == 1 and key[0] <= g2max}


def genus0_one_point(table):
    return one_point(table, 0)


def test_harer_zagier_equals_polygon_gluings():
    assert oracles.harer_zagier(5, 2) == oracles.gue_moments_by_gluing(5)


def test_free_moments_equal_the_convolution_oracle():
    t = random_table(seed=61, nmax=2, degmax=6, g2max=1)
    got = oracles.free_moments_genus0(t, 6)
    for n in range(1, 7):
        assert got.get((0, (n,)), 0) == oracles.genus0_moment_by_convolution(t, (n,))


@pytest.mark.parametrize("deg", [12, 20])
def test_master_forward_gue_equals_harer_zagier(deg):
    got = one_point(master_forward(gue_table(), deg, 4), 4)
    assert got == oracles.harer_zagier(deg // 2, 2)


def test_master_routes_degree_12_against_free_moments():
    """Both directions at (deg, g2) = (12, 2), on a table with small
    denominators (packed rows) and on its moments, whose common
    denominator is large (lists for the Z-assembly and the peel)."""
    t = random_table(seed=62, nmax=3, degmax=12, g2max=2)
    m = master_forward(t, 12, 2)
    assert genus0_one_point(m) == oracles.free_moments_genus0(t, 12)
    c = master_inverse(t, 12, 2)
    assert oracles.free_moments_genus0(c, 12) == genus0_one_point(t)
    assert master_inverse(m, 12, 2) == restrict_table(t, deg=12, g2=2)
    assert master_forward(c, 12, 2) == restrict_table(t, deg=12, g2=2)


def test_verify_closed_forms_suite(tmp_path):
    out = tmp_path / "cf.json"
    assert cli.main(["verify", "--suite", "closed-forms", "--deg", "8", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] and rep["suite"] == "closed-forms"
    assert len(rep["cases"]) == 5 * 8 + 4
