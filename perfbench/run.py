"""freehop benchmark: exact moment<->cumulant transforms, end to end and per
layer.  See README.md in this directory.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Prints a few progress lines, then one
JSON object as the last line of stdout.  All load comes from this process
and the worker processes it starts one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))  # the checks call freehop in process

import checks  # noqa: E402
import reference as R  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
PROBES = 5  # worker start-ups timed in every run's set-up
HARD_STOP_S = 150.0  # no round starts after this much time in the run
# Times are reported at a reference host speed: each is divided by the time
# of the worker's calibration loop measured around it, then multiplied by
# that loop's fastest time on the reference machine (2 vCPUs, Python 3.11.7).
CAL_REF_S = 0.0075


class WorkerDied(Exception):
    pass


class Worker:
    """One worker process; its start-up (spawn to ready, which includes
    importing freehop) is appended to ``starts`` with its calibration."""

    def __init__(self, run: "Run", env_extra: dict | None = None):
        env = {k: v for k, v in os.environ.items() if k != "FREEHOP_CACHE"}
        env.update(env_extra or {})
        env["PYTHONHASHSEED"] = "0"  # the same iteration order, so the same work, in every run
        self.run = run
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        cal = self._read()["cal"]
        run.starts.append((time.perf_counter() - t0 - cal, cal))

    def _read(self) -> dict:
        remaining = self.run.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close(kill=True)
            raise WorkerDied()
        return json.loads(line)

    def job(self, ops: list[dict], trace: bool) -> tuple[dict, dict | None]:
        """Results by op id and the trace record; an op whose worker died
        has no result."""
        try:
            self.proc.stdin.write(json.dumps({"trace": trace, "ops": ops}) + "\n")
            self.proc.stdin.flush()
            reply = self._read()
        except (WorkerDied, BrokenPipeError):
            return {}, None
        return {r["id"]: r for r in reply["results"]}, reply["trace"]

    def close(self, kill: bool = False) -> None:
        if self.proc.poll() is None and not kill:
            try:
                self.proc.stdin.write("\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Run:
    """State of one benchmark run: timings, the tally and the trace."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.t_start = time.monotonic()
        self.deadline = self.t_start + 170.0
        self.name = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
        self.dir = os.path.join(OUT_DIR, self.name)
        self.work = os.path.join(self.dir, "work")
        os.makedirs(self.work, exist_ok=True)
        self.starts: list[tuple[float, float]] = []  # (seconds, calibration)
        self.input_times: list[float] = []  # each generation and writing of inputs
        # op id -> (seconds, calibration) of each repeat, untraced and traced
        self.samples: dict[bool, dict[str, list[tuple[float, float]]]] = {False: {}, True: {}}
        self.rounds: list[dict] = []
        self.tally = checks.Tally()

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def probe(self) -> None:
        for _ in range(PROBES):
            Worker(self).close()

    def round_traced(self, r: int) -> bool:
        # a traced run alternates untraced and traced rounds, so both
        # walls come from the same run
        return self.trace and r % 2 == 1

    def add_round(self, traced: bool, results: dict, records: list) -> None:
        secs = [res["seconds"] for res in results.values() if res and res["seconds"] is not None]
        for op_id, res in results.items():
            if res and res["seconds"] is not None:
                self.samples[traced].setdefault(op_id, []).append((res["seconds"], res["cal"]))
        stats: dict = {}
        edges: dict = {}
        for rec in records:
            if rec is not None:
                tracing.merge(stats, edges, rec)
        self.rounds.append({"traced": traced, "wall": sum(secs), "stats": stats, "edges": edges,
                            "spans": [rec["spans"] for rec in records if rec] if traced else []})

    def more_rounds(self, shortest: float) -> bool:
        """Whether another round fits; ``shortest`` is the quickest round
        so far, checks included."""
        now = time.monotonic()
        if now - self.t_start > HARD_STOP_S:
            return False
        if len(self.rounds) < (2 if self.trace else 1):
            return True
        return now - self.t_measure + shortest <= self.seconds

    def op_times(self, traced: bool) -> list[float]:
        """Each operation's median time over its repeats in the run, at the
        reference host speed."""
        return [at_reference(v) for v in self.samples[traced].values()]


# ---------------------------------------------------------------------------
# workloads


def cli_op(op_id: str, direction: str, route: str, inp: str, out: str, deg: int, g2: int) -> dict:
    return {"id": op_id, "kind": "cli", "out": out, "argv": [
        "transform", direction, "--route", route, "--in", inp, "--out", out,
        "--deg", str(deg), "--genus", str(g2)]}


def read_output(res: dict | None, path: str) -> dict | None:
    """The op's output table; None if the op failed, and empty if the op
    exited 0 without a readable table, which then fails its checks."""
    if res is None or res["error"] or res["rc"] != 0:
        return None
    try:
        return R.read_table(path)
    except (OSError, ValueError, KeyError):
        return {}


def freehop_transforms():
    import freehop.transforms

    return freehop.transforms


def roundtrip(out: dict, given: dict, route: str, deg: int, g2: int) -> list[str]:
    """Feed an m2c output back through c2m on another route."""
    T = freehop_transforms()
    try:
        if route == "hurwitz":
            back = T.master_forward(out, deg, g2)
        else:
            back = T.schur_d_oracle(out, deg, g2)
    except Exception as exc:  # a malformed output can make the transform raise
        return ["m2c then c2m on %s raised %r" % (route, exc)]
    return checks.same("m2c then c2m on %s" % route, R.restrict(given, deg=deg, g2=g2),
                       R.restrict(back, deg=deg, g2=g2))


class Verdicts:
    """Checks of a workload whose inputs repeat every round: an output equal
    to one already checked gets that output's verdict."""

    def __init__(self):
        self.seen: dict[str, tuple[object, list[str]]] = {}

    def get(self, op_id: str, key, check) -> list[str]:
        """``key`` holds the output and every other output its check reads."""
        if op_id in self.seen and self.seen[op_id][0] == key:
            return self.seen[op_id][1]
        found = check()
        self.seen[op_id] = (key, found)
        return found


class Workload:
    """Base of the workloads: ``setup`` once, ``round`` per round, then
    ``finish``."""

    def finish(self) -> None:
        pass


class MasterCold(Workload):
    """Each operation is a fresh process calling freehop.cli.main once,
    twice over, with an on-disk cache that is empty at the start of the
    round: the first call builds the tables, the second reads them."""

    # (route, direction, deg, doubled genus): each at its own truncation
    OPS = [
        ("hurwitz", "c2m", 5, 2),
        ("convolution", "c2m", 4, 2),
        ("schur", "c2m", 6, 1),
        ("hurwitz", "m2c", 4, 0),
        ("convolution", "m2c", 4, 1),
        ("schur", "m2c", 5, 3),
    ]
    COMMON = {"c2m": (4, 1), "m2c": (4, 0)}  # window every route of a direction covers
    BACK_ROUTE = {"hurwitz": "schur", "convolution": "hurwitz", "schur": "hurwitz"}

    def setup(self, run: Run) -> None:
        t0 = time.perf_counter()
        rng = random.Random(run.seed)
        self.given = {"c2m": R.random_table(rng, 6, 6, 2), "m2c": R.random_table(rng, 5, 5, 3)}
        for route, direction, deg, g2 in self.OPS:
            R.write_table(run.path("in-%s-%s.json" % (direction, route)),
                          R.restrict(self.given[direction], deg=deg, g2=g2))
        run.input_times.append(time.perf_counter() - t0)
        self.verdicts = Verdicts()

    def round(self, run: Run, r: int) -> None:
        traced = run.round_traced(r)
        cache = run.path("cache-%d" % r)
        os.makedirs(cache)
        results, records, outs = {}, [], {}
        for route, direction, deg, g2 in self.OPS:
            for call in "ab":
                op_id = "%s-%s-%s" % (direction, route, call)
                out = run.path("out-%d-%s.json" % (r, op_id))
                op = cli_op(op_id, direction, route, run.path("in-%s-%s.json" % (direction, route)),
                            out, deg, g2)
                worker = Worker(run, {"FREEHOP_CACHE": cache})
                res, rec = worker.job([op], traced)
                worker.close()
                results[op_id] = res.get(op_id)
                records.append(rec)
                outs[op_id] = read_output(results[op_id], out)
        shutil.rmtree(cache)
        run.add_round(traced, results, records)
        for route, direction, deg, g2 in self.OPS:
            op_a, op_b = ("%s-%s-%s" % (direction, route, call) for call in "ab")
            a, b = outs[op_a], outs[op_b]
            # the verdict depends on the route the others are compared with
            key = (a, outs["%s-hurwitz-a" % direction])
            found = []
            if a is not None:
                found = self.verdicts.get(op_a, key, lambda: self.check(route, direction, deg, g2, a, outs))
            run.tally.record(op_a, results[op_a], found)
            # the second call must repeat the first, verdict included
            if b is not None and a is not None:
                found = checks.same("second call", a, b) or found
            elif b is not None:
                found = self.check(route, direction, deg, g2, b, outs)
            run.tally.record(op_b, results[op_b], found)

    def check(self, route, direction, deg, g2, out, outs) -> list[str]:
        given = R.restrict(self.given[direction], deg=deg, g2=g2)
        found = checks.free_relation(given, out, deg, inverse=direction == "m2c")
        first = outs["%s-hurwitz-a" % direction]  # the route the others are compared with
        if first is not None and first is not out:
            cdeg, cg2 = self.COMMON[direction]
            found += checks.same("routes agree", R.restrict(first, deg=cdeg, g2=cg2),
                                 R.restrict(out, deg=cdeg, g2=cg2))
        if direction == "m2c":
            found += roundtrip(out, given, self.BACK_ROUTE[route], deg, g2)
        return found


class MasterWarm(Workload):
    """One worker runs every round in process at one fixed (deg, genus) on
    fresh random tables, after a warm-up that builds the Hurwitz, Moebius
    and character tables once."""

    DEG, G2, CONV_DEG = 6, 2, 4

    def setup(self, run: Run) -> None:
        self.rng = random.Random(run.seed)
        R.write_table(run.path("in-gue.json"), {(0, (2,)): 1})
        self.worker = Worker(run)
        self.round(run, -1)  # untimed: table construction is master-cold's part

    def inputs(self, run: Run, i: int) -> dict:
        """Generate and write round i's tables (round 0 is the warm-up)."""
        t0 = time.perf_counter()
        given = {}
        for name in ("c", "m"):
            given[name] = table = R.random_table(self.rng, self.DEG, self.DEG, self.G2)
            R.write_table(run.path("in-%d-%s.json" % (i, name)), table)
            R.write_table(run.path("in-%d-%s4.json" % (i, name)), R.restrict(table, deg=self.CONV_DEG))
        run.input_times.append(time.perf_counter() - t0)
        return given

    def ops(self, run: Run, r: int) -> list[dict]:
        i = r + 1
        d, g, d4 = self.DEG, self.G2, self.CONV_DEG
        p = run.path
        spec = [
            ("c2m-hurwitz", "c2m", "hurwitz", "in-%d-c.json" % i, d),
            ("c2m-schur", "c2m", "schur", "in-%d-c.json" % i, d),
            ("m2c-schur", "m2c", "schur", "in-%d-m.json" % i, d),
            ("c2m-convolution", "c2m", "convolution", "in-%d-c4.json" % i, d4),
            ("m2c-convolution", "m2c", "convolution", "in-%d-m4.json" % i, d4),
            ("gue-c2m-hurwitz", "c2m", "hurwitz", "in-gue.json", d),
            ("gue-c2m-schur", "c2m", "schur", "in-gue.json", d),
            ("gue-c2m-convolution", "c2m", "convolution", "in-gue.json", d4),
        ]
        return [cli_op(op_id, direction, route, p(inp), p("out-%d-%s.json" % (i, op_id)), deg, g)
                for op_id, direction, route, inp, deg in spec]

    def round(self, run: Run, r: int) -> None:
        warmup = r < 0
        traced = not warmup and run.round_traced(r)
        given = self.inputs(run, r + 1)
        ops = self.ops(run, r)
        results, rec = self.worker.job(ops, traced)
        if not warmup:
            run.add_round(traced, results, [rec])
        outs = {op["id"]: read_output(results.get(op["id"]), op["out"]) for op in ops}
        d, g, d4 = self.DEG, self.G2, self.CONV_DEG
        ref_c, ref_m, ref_gue = outs["c2m-hurwitz"], outs["m2c-schur"], outs["gue-c2m-hurwitz"]

        def versus(label, ref, out, deg):
            return checks.same(label, R.restrict(ref, deg=deg), out) if ref is not None else []

        plan = {
            "c2m-hurwitz": lambda o: checks.free_relation(given["c"], o, d),
            "c2m-schur": lambda o: checks.free_relation(given["c"], o, d) + versus("schur vs hurwitz", ref_c, o, d),
            "m2c-schur": lambda o: checks.free_relation(given["m"], o, d, inverse=True)
            + roundtrip(o, given["m"], "hurwitz", d, g),
            "c2m-convolution": lambda o: checks.free_relation(given["c"], o, d4)
            + versus("convolution vs hurwitz", ref_c, o, d4),
            "m2c-convolution": lambda o: checks.free_relation(given["m"], o, d4, inverse=True)
            + versus("convolution vs schur", ref_m, o, d4),
            "gue-c2m-hurwitz": lambda o: checks.harer_zagier(o, d, g),
            "gue-c2m-schur": lambda o: checks.harer_zagier(o, d, g) + versus("schur vs hurwitz", ref_gue, o, d),
            "gue-c2m-convolution": lambda o: checks.harer_zagier(o, d4, g)
            + versus("convolution vs hurwitz", ref_gue, o, d4),
        }
        for op in ops:
            out = outs[op["id"]]
            run.tally.record(op["id"], results.get(op["id"]), plan[op["id"]](out) if out is not None else [])

    def finish(self) -> None:
        self.worker.close()


class Relations(Workload):
    """The tree/graph functional relations called directly from
    freehop.transforms, one fresh worker per round on the same inputs."""

    D = 6
    # (id, function, input, args, reference, window of the reference)
    OPS = [
        ("g0-c2m-n1", "genus0_moments", "c", (1, 6, 1), "even", dict(exact_n=1, exact_g2=0)),
        ("g0-c2m-n2", "genus0_moments", "c", (2, 6, 1), "even", dict(exact_n=2, exact_g2=0)),
        ("g0-c2m-n3", "genus0_moments", "c", (3, 6, 1), "even", dict(exact_n=3, exact_g2=0)),
        ("g0-m2c-n1", "genus0_moments", "m", (1, 6, -1), "dual", dict(exact_n=1, exact_g2=0)),
        ("g0-m2c-n2", "genus0_moments", "m", (2, 6, -1), "dual", dict(exact_n=2, exact_g2=0)),
        ("g0-m2c-n3", "genus0_moments", "m", (3, 6, -1), "dual", dict(exact_n=3, exact_g2=0)),
        ("g0-coef-n4", "genus0_coefficient_table", "c", (4, 6), "even", dict(exact_n=4, exact_g2=0)),
        ("allgenus-g2-n1", "allgenus_moments", "ce", (1, 2, 6), "even", dict(exact_n=1, exact_g2=2)),
        ("allgenus-g1-n2", "allgenus_moments", "c", (2, 1, 5), "full", dict(exact_n=2, exact_g2=1, deg=5)),
        ("allgenus-g2-n2", "allgenus_moments", "ce", (2, 2, 4), "even", dict(exact_n=2, exact_g2=2, deg=4)),
        ("allgenus-g1-n3", "allgenus_moments", "c", (3, 1, 3), "full", dict(exact_n=3, exact_g2=1, deg=3)),
        ("half-n1", "half_genus_moments_special_trees", "c", (1, 6), "full", dict(exact_n=1, exact_g2=1)),
        ("half-n2", "half_genus_moments_special_trees", "c", (2, 6), "full", dict(exact_n=2, exact_g2=1)),
    ]

    def setup(self, run: Run) -> None:
        t0 = time.perf_counter()
        rng = random.Random(run.seed)
        c = R.random_table(rng, 4, self.D, 2)
        self.given = {"c": c, "ce": {k: v for k, v in c.items() if k[0] % 2 == 0},
                      "m": R.random_table(rng, 3, self.D, 0)}
        for name, table in self.given.items():
            R.write_table(run.path("in-%s.json" % name), table)
        run.input_times.append(time.perf_counter() - t0)
        self.verdicts = Verdicts()
        self.refs: dict | None = None

    def references(self) -> dict:
        """Master-route tables the relations must agree with, computed once."""
        if self.refs is None:
            T = freehop_transforms()
            self.refs = {
                "even": T.master_forward(self.given["ce"], self.D, 2),
                "full": T.master_forward(self.given["c"], self.D, 1),
                "dual": T.schur_d_oracle(self.given["m"], self.D, 0, inverse=True),
            }
        return self.refs

    def round(self, run: Run, r: int) -> None:
        traced = run.round_traced(r)
        ops = [{"id": op_id, "kind": "call", "fn": fn, "input": run.path("in-%s.json" % inp),
                "args": list(args), "out": run.path("out-%d-%s.json" % (r, op_id))}
               for op_id, fn, inp, args, _, _ in self.OPS]
        worker = Worker(run)
        results, rec = worker.job(ops, traced)
        worker.close()
        run.add_round(traced, results, [rec])
        for (op_id, fn, inp, args, ref, window), op in zip(self.OPS, ops):
            res = results.get(op_id)
            out = read_output(res, op["out"])
            found = []
            if out is not None:
                found = self.verdicts.get(op_id, out, lambda: self.check(op_id, inp, args, ref, window, out))
            run.tally.record(op_id, res, found)

    def check(self, op_id, inp, args, ref, window, out) -> list[str]:
        window = dict(window)
        window.setdefault("deg", self.D)
        found = checks.same("master route", R.restrict(self.references()[ref], **window), out)
        if window["exact_n"] == 1 and window["exact_g2"] == 0:
            found += checks.free_relation(self.given[inp], out, self.D, inverse=args[-1] < 0)
        return found


class Verify(Workload):
    """freehop verify suites run in process by one fresh worker per round,
    with FREEHOP_CACHE unset so that every round computes its oracles."""

    SUITES = [
        ("genus0-trees", ["--n", "3", "--deg", "6"]),
        ("all-genus", ["--deg", "3"]),
        ("infinitesimal", ["--deg", "5"]),
    ]

    def setup(self, run: Run) -> None:
        # the suites draw their tables from their own fixed seeds, so the
        # benchmark seed changes nothing here and there are no inputs
        run.input_times.append(0.0)

    @staticmethod
    def expected_cases(suite: str, args: list[str]) -> int:
        if suite == "genus0-trees":
            n, deg = int(args[1]), int(args[3])
            return 3 * sum(1 for ks in R.index_tuples(n, deg) if len(ks) == n)
        return {"all-genus": 6, "infinitesimal": 3}[suite]

    def round(self, run: Run, r: int) -> None:
        traced = run.round_traced(r)
        ops = []
        for suite, args in self.SUITES:
            out = run.path("out-%d-%s.json" % (r, suite))
            ops.append({"id": suite, "kind": "cli", "out": out,
                        "argv": ["verify", "--suite", suite, *args, "--out", out]})
        worker = Worker(run)
        results, rec = worker.job(ops, traced)
        worker.close()
        run.add_round(traced, results, [rec])
        for (suite, args), op in zip(self.SUITES, ops):
            res = results.get(suite)
            found = []
            if res is not None and res["rc"] == 0 and not res["error"]:
                found = self.check(suite, args, op["out"])
            run.tally.record(suite, res, found)

    def check(self, suite: str, args: list[str], path: str) -> list[str]:
        try:
            with open(path) as fh:
                report = json.load(fh)
            cases = report["cases"]
        except (OSError, ValueError, KeyError):
            return ["no readable report"]
        found = []
        if not report.get("pass") or not all(c.get("pass") for c in cases):
            found.append("report does not pass")
        want = self.expected_cases(suite, args)
        if len(cases) != want:
            found.append("%d cases, expected %d" % (len(cases), want))
        return found


WORKLOADS = {"master-cold": MasterCold, "master-warm": MasterWarm, "relations": Relations, "verify": Verify}


# ---------------------------------------------------------------------------


def at_reference(samples: list[tuple[float, float]]) -> float:
    """Median of (seconds, calibration) samples at the reference speed."""
    return CAL_REF_S * statistics.median(sec / cal for sec, cal in samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run) -> dict:
    times = run.op_times(False)
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": metric(statistics.median(run.input_times) + at_reference(run.starts), "s"),
        "wall_s": metric(sum(times), "s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "peak_rss_mib": metric(rss_kib / 1024.0, "MiB"),
    }


def per_layer(run: Run, units: dict) -> dict:
    per_round = [tracing.layer_metrics(rd["stats"], rd["edges"]) for rd in run.rounds if rd["traced"]]
    out = {name: metric(statistics.median(m[name] for m in per_round), units[name])
           for name in per_round[0]}
    out["trace.overhead_s"] = metric(sum(run.op_times(True)) - sum(run.op_times(False)),
                                     units["trace.overhead_s"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "freehop", "cli.py")):
        print("freehop sources not found under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    found = selftest.problems()
    if found:
        print("benchmark self-test failed: %s" % "; ".join(found), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    run = Run(args)
    workload = WORKLOADS[args.workload]()
    run.probe()
    workload.setup(run)
    run.t_measure = time.monotonic()
    r, shortest = 0, 0.0
    try:
        while run.more_rounds(shortest):
            t0 = time.monotonic()
            workload.round(run, r)
            took = time.monotonic() - t0
            shortest = took if r == 0 else min(shortest, took)
            print("round %d: %.3f s in ops, %.3f s in all%s" % (
                r, run.rounds[-1]["wall"], took, " traced" if run.rounds[-1]["traced"] else ""),
                file=sys.stderr)
            r += 1
    finally:
        workload.finish()

    metrics = per_layer(run, units) if run.trace else end_to_end(run)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "starts": run.starts, "input_times": run.input_times,
              "samples": run.samples[False], "traced_samples": run.samples[True],
              "rounds": [{"traced": rd["traced"], "wall": rd["wall"]} for rd in run.rounds],
              "problems": run.tally.problems, "metrics": metrics}
    with open(os.path.join(run.dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if run.trace:
        with open(os.path.join(run.dir, "trace.json"), "w") as fh:
            json.dump([{"wall": rd["wall"], "stats": rd["stats"],
                        "edges": [[p_, c, n] for (p_, c), n in rd["edges"].items()],
                        "spans": rd["spans"]} for rd in run.rounds if rd["traced"]], fh)
    shutil.rmtree(run.work)
    for line in run.tally.problems[:20]:
        print("problem:", line, file=sys.stderr)
    print(json.dumps({"correct": run.tally.correct, "attempted": run.tally.attempted,
                      "failed": run.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
