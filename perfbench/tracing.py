"""In-memory spans around the public functions of every freehop module,
installed from outside the package by swapping module and class attributes.

A span is (name, start, end, parent span).  Per name the tracer also keeps
calls, inclusive time of outermost calls (a recursive call inside a call of
the same name adds no time twice), self time (duration minus the time its
child spans cover) and items (length of a returned list, or number of
values a generator yielded).  Names imported into another module, such as
``transforms.cached_hurwitz_table``, are swapped too, so a call is traced
whichever module it goes through.

Time spent in code that is not wrapped (private helpers, generator bodies)
counts to the nearest wrapped caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MODULES = (
    "cli", "tables", "transforms", "hurwitz", "pscore", "hbar",
    "series", "operators", "graphs", "symcore", "oracles",
)

# arithmetic methods of the series classes, traced besides public methods
DUNDERS = ("__init__", "__mul__", "__rmul__", "__add__", "__sub__", "__rsub__",
           "__neg__", "__pow__", "__truediv__")
# constructors called per coefficient or per term; tracing them would
# measure the tracer
UNTRACED = {"series.Series.__init__", "hbar.HbarSeries.__init__"}

# names whose inclusive time and items are taken over the outermost call
# of any member, so nested members are not counted twice
GROUPS = {
    "transforms.z_assembly": ("transforms.z_value", "transforms.z_table", "transforms.table_from_z"),
    "graphs.enumerate": ("graphs.enumerate_graphs", "graphs.enumerate_trees",
                         "graphs.enumerate_leaf_trees", "graphs.enumerate_special_trees",
                         "graphs.enumerate_special_leaf_trees"),
}

MAX_SPANS = 20000

COUNT, INCL, SELF, ITEMS = range(4)  # fields of a stats entry


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, items]
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[list] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [name, child_time, span index, anchor]
        self._active: dict[str, int] = {}
        self._group_of = {m: g for g, members in GROUPS.items() for m in members}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _enter(self, name: str):
        stack = self._stack
        parent = stack[-1] if stack else None
        key = (parent[0] if parent else "", name)
        self.edges[key] = self.edges.get(key, 0) + 1
        anchor = parent[3] if parent else -1  # nearest recorded ancestor
        idx = -1
        if len(self.spans) < MAX_SPANS:
            idx = anchor = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[3] if parent else -1])
        else:
            self.spans_dropped += 1
        frame = [name, 0.0, idx, anchor]
        stack.append(frame)
        outer = []
        for tag in (name, self._group_of.get(name)):
            if tag is not None:
                depth = self._active.get(tag, 0)
                self._active[tag] = depth + 1
                if depth == 0:
                    outer.append(tag)
        return frame, outer

    def _exit(self, frame, outer, t0: float, t1: float, items: int):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][1] += dur
        name = frame[0]
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[COUNT] += 1
        st[SELF] += dur - frame[1]
        for tag in (name, self._group_of.get(name)):
            if tag is not None:
                self._active[tag] -= 1
        for tag in outer:
            gst = st if tag == name else self.stats.setdefault(tag, [0, 0.0, 0.0, 0])
            gst[INCL] += dur
            gst[ITEMS] += items
        if frame[2] >= 0:
            span = self.spans[frame[2]]
            span[1], span[2] = t0, t1

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # a suspended generator is not on the call stack: count calls
            # and yielded values, and leave its time to the consumer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                st[COUNT] += 1
                for x in fn(*args, **kwargs):
                    st[ITEMS] += 1
                    yield x

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, outer = self._enter(name)
            t0 = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._exit(frame, outer, t0, perf_counter(), len(out) if isinstance(out, list) else 0)

        return wrapper

    # -- installing ----------------------------------------------------------
    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and class method of the freehop
        modules, then point every module-level alias at the wrapper."""
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules["freehop." + short]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    self._install_class(short, obj, wrapped)
                elif callable(obj):
                    w = wrapped.setdefault(id(obj), self.wrap("%s.%s" % (short, attr), obj))
                    self._swap(mod, attr, w)
        for short in MODULES:
            mod = sys.modules["freehop." + short]
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and w is not obj:
                    self._swap(mod, attr, w)

    def _install_class(self, short: str, cls, wrapped: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if name in UNTRACED:
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                fn = obj.__func__
                w = wrapped.setdefault(id(fn), self.wrap(name, fn))
                self._swap(cls, attr, type(obj)(w))
            elif inspect.isfunction(obj):
                # __rmul__ = __mul__ shares one function and one name
                w = wrapped.get(id(obj))
                if w is None:
                    w = wrapped[id(obj)] = self.wrap(name, obj)
                self._swap(cls, attr, w)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    def record(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


# ---------------------------------------------------------------------------
# per-layer metrics from the summed stats and edges of one round

def _get(stats: dict, name: str, field: int):
    st = stats.get(name)
    return st[field] if st else 0


def layer_metrics(stats: dict, edges: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json."""
    out: dict[str, float] = {}
    for short in MODULES:
        out["%s.self_s" % short] = sum(
            st[SELF] for name, st in stats.items() if name.startswith(short + ".")
            and name not in GROUPS
        )
    misses = edges.get(("hurwitz.cached_hurwitz_table", "hurwitz.hurwitz_table"), 0)
    out.update({
        "hurwitz.table_builds": _get(stats, "hurwitz.hurwitz_table", COUNT),
        "hurwitz.table_build_s": _get(stats, "hurwitz.hurwitz_table", INCL),
        "hurwitz.cache_hits": _get(stats, "hurwitz.cached_hurwitz_table", COUNT) - misses,
        "hurwitz.cache_misses": misses,
        "hurwitz.disk_loads": _get(stats, "hurwitz.table_from_json_file", COUNT),
        "hurwitz.disk_load_s": _get(stats, "hurwitz.table_from_json_file", INCL),
        "pscore.convolve_calls": _get(stats, "pscore.convolve", COUNT),
        "pscore.convolve_s": _get(stats, "pscore.convolve", INCL),
        "pscore.moebius_hbar_s": _get(stats, "pscore.moebius_hbar", INCL),
        "pscore.ps_elements": _get(stats, "pscore.enumerate_ps", ITEMS),
        "pscore.set_partitions": _get(stats, "pscore.set_partitions_of", ITEMS),
        "transforms.z_assembly_s": _get(stats, "transforms.z_assembly", INCL),
        "transforms.z_value_calls": _get(stats, "transforms.z_value", COUNT),
        "hbar.mul_calls": _get(stats, "hbar.HbarSeries.__mul__", COUNT),
        "hbar.mul_s": _get(stats, "hbar.HbarSeries.__mul__", INCL),
        "symcore.character_calls": _get(stats, "symcore.character", COUNT),
        "series.mul_calls": _get(stats, "series.Series.__mul__", COUNT),
        "series.mul_s": _get(stats, "series.Series.__mul__", INCL),
        "series.with_vars_calls": _get(stats, "series.Series.with_vars", COUNT),
        "series.substitute_s": _get(stats, "series.Series.substitute", INCL),
        "series.inverse_calls": _get(stats, "series.Series.inverse", COUNT),
        "operators.evaluators": _get(stats, "operators.Evaluator.__init__", COUNT),
        "operators.reduce_vertex_s": _get(stats, "operators.Evaluator.reduce_vertex", INCL),
        "operators.graph_term_s": _get(stats, "operators.Evaluator.graph_term", INCL),
        "operators.reexpand_s": _get(stats, "operators.Evaluator.reexpand", INCL),
        "graphs.graphs": _get(stats, "graphs.enumerate", ITEMS),
        "oracles.star_counts_s": _get(stats, "oracles.star_factorization_counts", INCL),
        "oracles.hbar_moment_series_s": _get(stats, "oracles.hbar_moment_series", INCL),
        "cli.calls": _get(stats, "cli.main", COUNT),
        "tables.calls": sum(st[COUNT] for name, st in stats.items() if name.startswith("tables.")),
    })
    return out


def merge(into_stats: dict, into_edges: dict, record: dict) -> None:
    """Add one job's record to a round's running totals."""
    for name, st in record["stats"].items():
        acc = into_stats.setdefault(name, [0, 0.0, 0.0, 0])
        for i in range(4):
            acc[i] += st[i]
    for p, c, n in record["edges"]:
        into_edges[(p, c)] = into_edges.get((p, c), 0) + n
