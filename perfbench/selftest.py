"""Self-test of the benchmark's references and checks; needs no freehop.

Run ``python3 perfbench/selftest.py``; it prints the problems it finds and
exits 1 if there are any.  run.py runs it before every measurement."""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference as R  # noqa: E402


def problems() -> list[str]:
    out = []
    if [R.catalan(k) for k in range(1, 6)] != [1, 2, 5, 14, 42]:
        out.append("Catalan numbers")
    if [R.harer_zagier(1, k) for k in (2, 3, 4)] != [1, 10, 70]:
        out.append("Harer-Zagier eps_1(2..4)")
    if [R.harer_zagier(0, k) for k in range(1, 6)] != [1, 2, 5, 14, 42]:
        out.append("Harer-Zagier genus 0")
    semicircle = R.free_moments({2: Fraction(1)}, 10)
    if [semicircle[2 * k] for k in range(1, 6)] != [1, 2, 5, 14, 42] or any(semicircle[k] for k in (1, 3, 5)):
        out.append("free moments of the semicircle")
    rng = random.Random(0)
    kappa = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for n in range(1, 8)}
    if R.free_cumulants(R.free_moments(kappa, 7), 7) != kappa:
        out.append("free cumulants do not invert free moments")

    # a GUE output that passes, then the same with one coefficient altered
    gue = dict(R.gue_one_point(8, 2))
    gue[(0, (2, 2))] = Fraction(1)
    tally = checks.Tally()
    ok = {"rc": 0, "error": None}
    tally.record("gue", ok, checks.harer_zagier(gue, 8, 2) + checks.free_relation({(0, (2,)): 1}, gue, 8))
    altered = dict(gue)
    altered[(2, (6,))] += 1
    tally.record("gue-altered", ok, checks.harer_zagier(altered, 8, 2))
    other = dict(gue)
    other[(0, (2, 2))] = Fraction(2)
    tally.record("route-altered", ok, checks.same("routes", gue, other))
    tally.record("exit-3", {"rc": 3, "error": None})
    if (tally.attempted, tally.failed, tally.correct) != (4, 3, False):
        out.append("altered tables not counted as failed: %r" % tally.problems)
    errored = checks.Tally()
    errored.record("exit-3", {"rc": 3, "error": None})
    if (errored.failed, errored.correct) != (1, True):
        out.append("an op that exits 3 must fail without making the run incorrect")
    return out


if __name__ == "__main__":
    found = problems()
    for p in found:
        print("selftest:", p)
    print("selftest: %s" % ("FAIL" if found else "ok"))
    sys.exit(1 if found else 0)
