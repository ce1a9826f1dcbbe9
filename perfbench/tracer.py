"""Span tracer that wraps latforge's public functions from outside.

The package imports functions by name (``from .lll import lll_reduce``), so
rebinding ``latforge.lll.lll_reduce`` alone would miss most calls.
``Tracer.install`` therefore replaces every binding of each traced function
object in every loaded ``latforge`` module with one shared wrapper.

Each wrapper records a span (id, parent id, name, start, end).  Span stacks
are per thread; tasks that ``parallel.pmap`` runs on pool threads take the
submitting ``pmap`` span as their parent, and their CPU time is measured
with ``time.thread_time`` so that GIL waits do not count as parallel work.
Spans stay in memory until ``dump`` writes them; ``aggregate`` turns them
into per-layer metrics in the parent process.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# Public functions whose calls are spanned, by module.  Every public function
# of ``serialize`` is traced as well; see ``Tracer.install``.
TRACED = {
    "lll": ("lll_reduce", "is_lll_reduced"),
    "core": ("metrics", "gram_det", "reduction_key", "hnf", "svp_oracle"),
    "parallel": ("pmap",),
    "perm": ("sample_at_radius", "sample_right", "apply"),
    "hillclimb": ("hc_fixed", "hc_variable", "hc_psl2"),
    "ldsf": ("ldsf_run", "sigma_candidates"),
    "pipeline": ("run_pipeline",),
    "latfile": ("load_lattice",),
    "cli": ("cli_main",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.hc_step_seconds: list[float] = []
        self.hc_improved: list[bool] = []
        self.stage_seconds: defaultdict[str, float] = defaultdict(float)
        self.bindings: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def _max(self, key: str, value: int) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                if name == "parallel.pmap":
                    result = fn(self._pool_task(sid, args[0]), *args[1:], **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _pool_task(self, pmap_sid: int, task):
        def run(item):
            stack = self._stack()
            # A pool thread starts with an empty stack: parent it to pmap.
            adopted = not stack
            if adopted:
                stack.append(pmap_sid)
            cpu = time.thread_time()
            try:
                return task(item)
            finally:
                self._add("parallel.pmap.task_cpu_s", time.thread_time() - cpu)
                if adopted:
                    stack.pop()

        return run

    # Counters recorded at the traced boundaries.

    def _before_lll_lll_reduce(self, b, *args, **kwargs):
        self._max("lll.lll_reduce.in_bits_max", b.max_abs_entry().bit_length())

    def _before_parallel_pmap(self, fn, items, *args, **kwargs):
        self._add("parallel.pmap.items", len(items))

    def _before_latfile_load_lattice(self, path, *args, **kwargs):
        self._add("latfile.input_bytes", os.path.getsize(path))

    def _after_core_svp_oracle(self, result, *args, **kwargs):
        self._add("core.svp_oracle.vectors_checked", result.count_checked)

    def _after_hc(self, trace, *args, **kwargs):
        self.hc_step_seconds.extend(s.seconds for s in trace.steps)
        self.hc_improved.extend(s.improved for s in trace.steps)

    _after_hillclimb_hc_fixed = _after_hc
    _after_hillclimb_hc_variable = _after_hc
    _after_hillclimb_hc_psl2 = _after_hc

    def _after_ldsf_ldsf_run(self, trace, *args, **kwargs):
        self._add("ldsf.rounds", len(trace.rounds))

    def _after_ldsf_sigma_candidates(self, candidates, *args, **kwargs):
        # sigma keeps one of the n runs it makes.
        self._add("ldsf.sigma.kept", 1)
        self._add("ldsf.sigma.candidates", len(candidates))

    def _after_pipeline_run_pipeline(self, report, *args, **kwargs):
        for stage in report.stage_reports:
            self.stage_seconds[stage.kind] += stage.seconds

    def _after_serialize_to_json(self, text, *args, **kwargs):
        self._add("serialize.report_bytes", len(text.encode("utf-8")))

    def install(self) -> None:
        """Rebind every traced function in every loaded latforge module."""
        targets = {}
        for short, names in TRACED.items():
            module = sys.modules["latforge." + short]
            for fname in names:
                if hasattr(module, fname):
                    targets[f"{short}.{fname}"] = getattr(module, fname)
        serialize = sys.modules["latforge.serialize"]
        for fname, fn in vars(serialize).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == serialize.__name__
                and not fname.startswith("_")
            ):
                targets[f"serialize.{fname}"] = fn
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        names = {id(fn): name for name, fn in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "latforge" and not modname.startswith("latforge."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(module, attr, wrappers[id(value)])
                    self.bindings.append(f"{modname}.{attr} -> {names[id(value)]}")

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "maxima": self.maxima,
            "hc_step_seconds": self.hc_step_seconds,
            "hc_improved": self.hc_improved,
            "stage_seconds": dict(self.stage_seconds),
            "bindings": self.bindings,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def aggregate(trace: dict) -> dict[str, float]:
    """Per-name calls, busy_s (union of a name's spans over all threads) and
    self_s (span time not covered by child spans), plus module-level busy_s
    for ``serialize`` and the counters recorded at the boundaries."""
    spans = trace["spans"]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sid, parent, name, start, end in spans:
        by_name[name].append((sid, start, end))
        children[parent].append((start, end))
    out: dict[str, float] = {}
    for name, items in by_name.items():
        out[name + ".calls"] = len(items)
        out[name + ".busy_s"] = _union((s, e) for _, s, e in items)
        out[name + ".self_s"] = sum(
            (e - s)
            - _union((max(cs, s), min(ce, e)) for cs, ce in children[sid] if ce > s and cs < e)
            for sid, s, e in items
        )
    out["serialize.busy_s"] = _union(
        (start, end) for _, _, name, start, end in spans if name.startswith("serialize.")
    )
    out.update(trace["counters"])
    out.update(trace["maxima"])
    steps = trace["hc_step_seconds"]
    out["hillclimb.steps"] = len(steps)
    out["hillclimb.step_s_p50"] = statistics.median(steps) if steps else 0.0
    out["hillclimb.improved_ratio"] = (
        sum(trace["hc_improved"]) / len(steps) if steps else 0.0
    )
    for kind, seconds in trace["stage_seconds"].items():
        out[f"pipeline.{kind}_stage_s"] = seconds
    return out
