"""Benchmark worker: imports freehop from the checkout's ``src``, prints one
``{"ready": ...}`` line, then runs jobs read one JSON line at a time from
stdin and answers each with one JSON line on stdout.

Every freehop call is bracketed by two runs of ``calibrate``, a fixed loop
that does not touch freehop; run.py divides the call's time by theirs to
take out the host's speed.  The ready line carries one calibration too.

A job is ``{"trace": bool, "ops": [...]}``; an op is either
``{"id", "kind": "cli", "argv": [...]}`` (one ``freehop.cli.main`` call) or
``{"id", "kind": "call", "fn": <transforms function>, "input": <table
path>, "args": [...], "out": <table path>}``.  Only the freehop call is
timed; reading inputs and writing outputs are not.  An empty line or end
of input ends the worker.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import tracing  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (Fraction and dict work,
    like freehop's, but no freehop code)."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 3000):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def cli_main(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code


def run_op(op: dict, modules: dict) -> dict:
    res = {"id": op["id"], "rc": None, "seconds": None, "cal": None, "error": None}
    try:
        if op["kind"] == "cli":
            main = modules["cli"].main  # looked up per call, so a tracer's wrapper is used
            call = lambda: cli_main(main, op["argv"])  # noqa: E731
        else:
            table = reference.read_table(op["input"])
            fn = getattr(modules["transforms"], op["fn"])
            call = lambda: fn(table, *op["args"])  # noqa: E731
        before = calibrate()
        t0 = time.perf_counter()
        out = call()
        res["seconds"] = time.perf_counter() - t0
        res["cal"] = (before + calibrate()) / 2
        if op["kind"] == "cli":
            res["rc"] = out
        else:
            res["rc"] = 0
            reference.write_table(op["out"], out)
    except Exception:  # the op failed; report it and keep serving
        res["error"] = traceback.format_exc(limit=3)
    return res


def main() -> int:
    reply = sys.stdout
    sys.stdout = sys.stderr  # freehop output must not mix with replies
    import freehop.cli
    import freehop.oracles
    import freehop.transforms

    modules = {"cli": freehop.cli, "transforms": freehop.transforms}
    reply.write(json.dumps({"ready": True, "cal": calibrate()}) + "\n")
    reply.flush()
    for line in sys.stdin:
        if not line.strip():
            break
        job = json.loads(line)
        tracer = None
        if job.get("trace"):
            tracer = tracing.Tracer()
            tracer.install()
        try:
            results = [run_op(op, modules) for op in job["ops"]]
        finally:
            if tracer is not None:
                tracer.uninstall()
        out = {"results": results, "trace": tracer.record() if tracer else None}
        reply.write(json.dumps(out) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
