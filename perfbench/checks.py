"""Output checks shared by the workloads, and the tally of operations.

Every check compares a freehop output with a value computed apart from it
(reference.py) or with another route's output; none compares with a stored
copy of an earlier output."""

from __future__ import annotations

import reference as R


def same(label: str, want: dict, got: dict) -> list[str]:
    want, got = R.restrict(want), R.restrict(got)
    return [] if want == got else ["%s: %s" % (label, R.describe_diff(want, got))]


def free_relation(table: dict, out: dict, deg: int, inverse: bool = False) -> list[str]:
    """Genus-0 one-point rows against the non-crossing recursion."""
    return same("free moment-cumulant recursion", R.genus0_one_point(table, deg, inverse),
                R.restrict(out, exact_n=1, exact_g2=0))


def harer_zagier(out: dict, deg: int, g2max: int) -> list[str]:
    """GUE one-point rows against the Harer-Zagier recursion."""
    return same("Harer-Zagier", R.gue_one_point(deg, g2max), R.restrict(out, exact_n=1))


class Tally:
    """Counts operations.  An operation fails when it raises, exits with a
    code other than 0, or its output fails a check; ``correct`` turns false
    only for the last kind, since it speaks of the operations that ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, op_id: str, result: dict | None, problems=()) -> None:
        self.attempted += 1
        if result is None or result["error"] or result["rc"] != 0:
            self.failed += 1
            detail = "worker ended" if result is None else result["error"] or "exit %s" % result["rc"]
            self.problems.append("%s: %s" % (op_id, detail))
        elif problems:
            self.failed += 1
            self.correct = False
            self.problems.extend("%s: %s" % (op_id, p) for p in problems)
