"""Layer spans recorded from outside the program.

The benchmark does not edit ``src/``.  Instead, in a traced run it replaces
the functions at each module boundary with wrappers that record a span per
call, and a few wrappers also count what passed through them (children
produced, graphs ranked, claims checked).  Spans are aggregated in memory by
``(parent span, span)``: calls, total seconds and self seconds, where self
time is the span's duration minus the time its child spans cover.  A call
into a span from inside a span of the same name is part of the outer call
and is not counted again.

Pool workers.  The seed's pool forks its workers, so they inherit these
wrappers.  A worker records into its own tables and, whenever its outermost
span closes (one expansion batch), writes them to a file in the spill
directory; the parent merges those files after the call.  Worker spans are
reported under the parent name ``worker``; their self time is summed over
workers and can exceed wall time.  A pool that starts its workers with
``spawn`` would run them without the wrappers, so their spans would be left
out; ``enumeration.pool_wait_s`` (parent blocked in the pool, start-up
included) covers the pool either way.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

WORKER = "worker"


class Recorder:
    """Span and counter tables of one process."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.spans: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counts: collections.Counter = collections.Counter()
        self.in_worker = False
        self._spills = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()
        self.in_worker = True

    def enter(self, name: str) -> list:
        frame = [name, 0.0, perf_counter()]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        dur = perf_counter() - frame[2]
        stack = self.stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        key = (parent[0] if parent else None, frame[0])
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[1]
        return dur

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(counts, result, seconds)``
        runs after each recorded call.  ``functools.wraps`` keeps the
        original module and name, so a wrapped pool task still pickles by
        reference."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.exit(frame)
            if observe is not None:
                observe(self.counts, result, dur)
            if self.in_worker and not stack:
                self._spill()
            return result

        return traced

    def _spill(self) -> None:
        self._spills += 1
        path = os.path.join(self.spill_dir, f"worker-{os.getpid()}-{self._spills}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [[p, n, *agg] for (p, n), agg in self.spans.items()],
                       "counts": dict(self.counts)}, fh)
        self.spans.clear()
        self.counts.clear()

    def merge_spills(self) -> int:
        """Fold the workers' spill files into this process's tables."""
        names = sorted(f for f in os.listdir(self.spill_dir) if f.startswith("worker-"))
        for fname in names:
            with open(os.path.join(self.spill_dir, fname), encoding="utf-8") as fh:
                data = json.load(fh)
            for parent, name, calls, total, self_s in data["spans"]:
                agg = self.spans.setdefault((parent or WORKER, name), [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            self.counts.update(data["counts"])
        return len(names)

    def layer(self, name: str) -> tuple[int, float, float]:
        """Calls, total and self seconds of span ``name`` over all parents."""
        calls = total = self_s = 0
        for (_, n), agg in self.spans.items():
            if n == name:
                calls += agg[0]
                total += agg[1]
                self_s += agg[2]
        return calls, total, self_s


# -- hooks ----------------------------------------------------------------------


def _observe_level(counts, level, seconds):
    counts[f"level_s.{level.order}"] += seconds
    counts["distinct"] += level.count


def _observe_children(counts, produced, seconds):
    counts["children"] += len(produced)


def _observe_rank(counts, report, seconds):
    counts["ranked_graphs"] += len(report.ranking)
    counts["distinct_values"] += len(report.tie_sets)


def _observe_claims(counts, reports, seconds):
    for report in reports:
        for check in report.claim_checks:
            counts["claims_checked"] += 1
            counts["claims_failed"] += 0 if check.passed else 1


# (module, attribute, span, observer).  Every binding of the function in any
# somborlab module is replaced, so calls through ``from .x import f`` names
# are seen too.
HOOKS = [
    ("somborlab.graphs", "_canonical_columns", "graphs.canonize", None),
    ("somborlab.graphs", "canonical_key", "graphs.canonize", None),
    ("somborlab.graphs", "canonical_form", "graphs.canonize", None),
    ("somborlab.graphs", "is_two_tree", "graphs.recognize", None),
    ("somborlab.enumeration", "enumerate_two_trees", "enumeration.run", None),
    ("somborlab.enumeration", "_next_level", "enumeration.level", _observe_level),
    ("somborlab.enumeration", "_expand_batch", "enumeration.expand", _observe_children),
    ("somborlab.enumeration", "_expand_rows", "enumeration.expand", _observe_children),
    ("somborlab.indices", "sombor_index", "indices.evaluate", None),
    ("somborlab.indices", "sombor_coindex", "indices.evaluate", None),
    ("somborlab.indices", "total_pair_sum", "indices.evaluate", None),
    ("somborlab.radicals", "RadicalSum.compare", "radicals.compare", None),
    ("somborlab.extremal", "rank_by", "extremal.rank", _observe_rank),
    ("somborlab.extremal", "verify_theorems", "extremal.verify", _observe_claims),
    ("somborlab.extremal", "conjecture_report", "extremal.conjecture", None),
    ("somborlab.formulas", "conjectured_min_so", "formulas.bounds", None),
    ("somborlab.formulas", "conjectured_max_coindex", "formulas.bounds", None),
    ("somborlab.families", "from_recipe", "families.build", None),
    ("somborlab.families", "x_graph", "families.build", None),
    ("somborlab.families", "l_graph", "families.build", None),
    ("somborlab.families", "linear_two_tree", "families.build", None),
    ("somborlab.families", "attach", "families.build", None),
    ("somborlab.graph6", "to_graph6", "graph6.codec", None),
    ("somborlab.graph6", "from_graph6", "graph6.codec", None),
    ("somborlab.cli", "_cmd_enumerate", "cli.handler", None),
    ("somborlab.cli", "_cmd_verify", "cli.handler", None),
    ("somborlab.cli", "_cmd_conjecture", "cli.handler", None),
]


def rebind(original, replacement) -> int:
    """Point every module-level name bound to ``original`` in the package at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for modname, module in list(sys.modules.items()):
        if modname != "somborlab" and not modname.startswith("somborlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def install(rec: Recorder) -> list[str]:
    """Wrap every hook that exists; returns the hooks that were not found."""
    missing = []
    for modname, dotted, name, observe in HOOKS:
        module = sys.modules.get(modname)
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{modname}.{dotted}")
            continue
        wrapped = rec.wrap(name, fn, observe)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            rebind(fn, wrapped)

    enumeration = sys.modules.get("somborlab.enumeration")
    if getattr(enumeration, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
        enumeration.ProcessPoolExecutor = _timed_pool(rec)
    else:
        missing.append("somborlab.enumeration.ProcessPoolExecutor")
    return missing


def _timed_pool(rec: Recorder):
    class TimedPool(ProcessPoolExecutor):
        """Span ``enumeration.pool`` from creation to shutdown: the time the
        parent spends in the pool, worker start-up included."""

        def __init__(self, *args, **kwargs):
            self._span = rec.enter("enumeration.pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    rec.exit(self._span)
                    self._span = None

    return TimedPool


def observe_levels(sink: list) -> bool:
    """Record ``(order, count)`` of every level the enumerator yields.

    Used with tracing off as well: it is one generator step per order and
    feeds the level-count gate.  Returns False if there is nothing to hook.
    """
    enumeration = sys.modules.get("somborlab.enumeration")
    fn = getattr(enumeration, "enumerate_levels", None)
    if fn is None:
        return False

    @functools.wraps(fn)
    def levels(*args, **kwargs):
        for level in fn(*args, **kwargs):
            sink.append((level.order, level.count))
            yield level

    rebind(fn, levels)
    return True


LEVEL_ORDERS = range(3, 12)  # orders the exhaustive workloads build


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced call.  Each ratio comes with its base."""
    c = rec.counts

    def calls(name):
        return rec.layer(name)[0]

    def self_s(name):
        return rec.layer(name)[2]

    m = {
        "graphs.canonize.calls": calls("graphs.canonize"),
        "graphs.canonize.self_s": self_s("graphs.canonize"),
        "graphs.recognize.calls": calls("graphs.recognize"),
        "graphs.recognize.self_s": self_s("graphs.recognize"),
    }
    for n in LEVEL_ORDERS:
        m[f"enumeration.level_s.{n}"] = c[f"level_s.{n}"]
    m["enumeration.merge_s"] = self_s("enumeration.level")
    m["enumeration.expand.self_s"] = self_s("enumeration.expand")
    m["enumeration.children"] = c["children"]
    m["enumeration.distinct"] = c["distinct"]
    m["enumeration.yield"] = c["distinct"] / c["children"] if c["children"] else 0.0
    m["enumeration.pool_wait_s"] = rec.layer("enumeration.pool")[1]
    m["enumeration.pool.starts"] = calls("enumeration.pool")
    evaluations = calls("indices.evaluate")
    m["indices.evaluate.calls"] = evaluations
    m["indices.evaluate.self_s"] = self_s("indices.evaluate")
    compares = calls("radicals.compare")
    m["radicals.compare.calls"] = compares
    m["radicals.compare.self_s"] = self_s("radicals.compare")
    m["radicals.compare.per_graph"] = compares / evaluations if evaluations else 0.0
    m["extremal.rank.calls"] = calls("extremal.rank")
    m["extremal.rank.self_s"] = self_s("extremal.rank")
    m["extremal.rank.graphs"] = c["ranked_graphs"]
    m["extremal.distinct_ratio"] = (c["distinct_values"] / c["ranked_graphs"]
                                    if c["ranked_graphs"] else 0.0)
    m["extremal.claims.checked"] = c["claims_checked"]
    m["extremal.claims.failed"] = c["claims_failed"]
    m["formulas.bounds.calls"] = calls("formulas.bounds")
    m["formulas.bounds.self_s"] = self_s("formulas.bounds")
    m["families.build.calls"] = calls("families.build")
    m["families.build.self_s"] = self_s("families.build")
    m["graph6.codec.calls"] = calls("graph6.codec")
    m["graph6.codec.self_s"] = self_s("graph6.codec")
    m["cli.report_s"] = self_s("cli.handler")
    return m


def span_table(rec: Recorder) -> list[list]:
    """Rows ``[parent, span, calls, total_s, self_s]``, heaviest self time first."""
    rows = [[p or "-", n, *agg] for (p, n), agg in rec.spans.items()]
    return sorted(rows, key=lambda r: -r[4])
