"""Spans and counts recorded around the public calls of each layer.

The benchmark's traced pass installs :class:`Tracer` wrappers on the
program's public boundaries (see :data:`BOUNDARIES`) from outside the
program: nothing under ``src/`` knows it is being traced.  Two kinds of
wrapper exist:

* a **span** records ``(id, parent, name, pid, thread, start, end,
  cpu, attrs)`` for every call.  The parent is the innermost open span
  of the calling thread, so self time can be computed afterwards;
* a **leaf** aggregates calls and seconds per name instead of keeping
  one record per call.  Leaves are the kernel calls made tens of
  thousands of times per operation (``run_element``,
  ``advance_all``, ``resolve_backend``); their seconds are also
  charged to the enclosing span, so that span's self time excludes
  them.  A leaf never encloses another wrapped call.

Pool workers are forked by the campaign supervisor after the wrappers
are installed, so they inherit them.  A forked worker starts with an
empty record, keeps the open-span stack of the thread that forked it
(so its spans point at the parent's ``Supervisor.run`` span), and
appends its records to ``spans-<pid>.jsonl`` in the spill directory
each time its outermost span closes.  :meth:`Tracer.merged` folds
those files into the parent's records when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span tuple field positions.
SID, PARENT, NAME, PID, TID, START, END, CPU, ATTRS = range(9)

#: Spans whose nearest enclosing one of these names decides what an
#: ``IncrementalCoverage.append`` call is: a generator commit only
#: when the nearest is ``generate``.
_APPEND_CONTEXTS = (
    "core.generator.generate",
    "core.pruner.prune",
    "sim.campaign.run",
    "sim.coverage.qualify_outcomes",
)


def _store_get_attrs(args, kwargs, result):
    return {"hits": int(result is not None), "lookups": 1}


def _store_get_many_attrs(args, kwargs, result):
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    return {"hits": len(result), "lookups": len(set(keys))}


def _accepts_attrs(args, kwargs, result):
    return {"accepted": int(bool(result))}


def _qualify_attrs(args, kwargs, result):
    return {"contexts": int(result[1])}


def _supervisor_attrs(args, kwargs, result):
    supervisor = args[0]
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]
    return {"tasks": len(tasks), "workers": supervisor.workers,
            "events": len(supervisor.report.events)}


#: ``(module, class or None, attribute, metric name, kind, attrs)``.
#: ``kind`` is ``"span"``, ``"leaf"`` or one of the special wrappers
#: (``"append"``, ``"batch"``, ``"resolve"``).  Module-level functions
#: are replaced in every ``repro`` module that imported them by name.
BOUNDARIES: Tuple[Tuple, ...] = (
    ("repro.core.generator", "MarchGenerator", "generate",
     "core.generator.generate", "span", None),
    ("repro.sim.coverage", "IncrementalCoverage", "probe",
     "core.generator.probe", "span", None),
    ("repro.sim.coverage", "IncrementalCoverage", "append",
     None, "append", None),
    ("repro.core.pruner", None, "prune_march",
     "core.pruner.prune", "span", None),
    ("repro.core.pruner", "CoverageGuard", "accepts",
     "core.pruner.accepts", "span", _accepts_attrs),
    ("repro.sim.coverage", "CoverageOracle", "evaluate",
     "sim.coverage.evaluate", "span", None),
    ("repro.sim.coverage", None, "qualify_outcomes",
     "sim.coverage.qualify_outcomes", "span", _qualify_attrs),
    ("repro.sim.engine", None, "run_element",
     "sim.engine.run_element", "leaf", None),
    ("repro.sim.bitpar", "BitparBatch", "advance_all",
     "sim.bitpar.advance_all", "batch", None),
    ("repro.sim.backends", None, "resolve_backend",
     "sim.backends.resolve_backend", "resolve", None),
    ("repro.store.store", "QualificationStore", "get",
     "store.get", "span", _store_get_attrs),
    ("repro.store.store", "QualificationStore", "get_many",
     "store.get_many", "span", _store_get_many_attrs),
    ("repro.store.store", "QualificationStore", "put",
     "store.put", "span", None),
    ("repro.sim.campaign", "CoverageCampaign", "run",
     "sim.campaign.run", "span", None),
    ("repro.sim.supervisor", "Supervisor", "run",
     "sim.supervisor.run", "span", _supervisor_attrs),
    ("repro.diagnosis.dictionary", None, "build_dictionary",
     "diagnosis.dictionary.build", "span", None),
    ("repro.diagnosis.fleet", None, "diagnose_fleet",
     "diagnosis.fleet.diagnose", "span", None),
    ("repro.analysis.bist", None, "compile_march",
     "analysis.bist.compile", "span", None),
    ("repro.sim.bist", None, "verify_program",
     "sim.bist.verify", "span", None),
    ("repro.service.jobs", "JobRunner", "run",
     "service.run", "span", None),
    ("repro.service.client", "ServiceClient", "submit",
     "service.client.submit", "span", None),
    ("repro.service.client", "ServiceClient", "status",
     "service.client.status", "span", None),
    ("repro.service.client", "ServiceClient", "result_bytes",
     "service.client.result_bytes", "span", None),
    ("repro.service.client", "ServiceClient", "wait",
     "service.client.wait", "span", None),
)


class Tracer:
    """Record spans, leaf aggregates and counts for one traced pass.

    Args:
        spill_dir: directory where forked workers append their
            records (created on :meth:`install`).
    """

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: List[tuple] = []
        #: name -> [calls, seconds] of leaf calls.
        self.leaves: Dict[str, List[float]] = {}
        #: span id -> leaf seconds spent directly under that span.
        self.leaf_under: Dict[int, float] = {}
        self.counts: Counter = Counter()
        self.main_pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._installed = False
        self._fork_hook = False
        self._child = False
        self._base_depth = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def _record(self, sid, parent, name, start, end, cpu, attrs):
        self.spans.append((
            sid, parent, name, os.getpid(), threading.get_ident(),
            start, end, cpu, attrs))

    def span(self, name, fn: Callable, attrs: Optional[Callable] = None
             ) -> Callable:
        """Wrap *fn* so every call records a span called *name*.

        *name* may be a callable taking the open-span stack, for
        boundaries whose meaning depends on the caller.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else 0
            span_name = name(stack) if callable(name) else name
            sid = tracer._new_id()
            stack.append((sid, span_name))
            cpu0 = process_time()
            start = perf_counter()
            result = None
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                cpu = process_time() - cpu0
                stack.pop()
                extra = None
                if attrs is not None and returned:
                    extra = attrs(args, kwargs, result)
                tracer._record(
                    sid, parent, span_name, start, end, cpu, extra)
                tracer._maybe_spill(stack)

        return wrapper

    def leaf(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """Wrap *fn* so its calls are aggregated under *name*.

        *after* receives ``(args, kwargs, result)`` and may add counts.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats = tracer.leaves.get(name)
                if stats is None:
                    stats = tracer.leaves[name] = [0, 0.0]
                stats[0] += 1
                stats[1] += elapsed
                stack = tracer._stack()
                parent = stack[-1][0] if stack else 0
                tracer.leaf_under[parent] = (
                    tracer.leaf_under.get(parent, 0.0) + elapsed)
            if after is not None:
                after(args, kwargs, result)
            tracer._maybe_spill(tracer._stack())
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every boundary with its recording wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for module_name, owner, attr, name, kind, attrs in BOUNDARIES:
            module = importlib.import_module(module_name)
            target = module if owner is None else getattr(module, owner)
            original = getattr(target, attr)
            wrapper = self._wrapper(name, kind, attrs, original, module)
            if owner is None:
                self._replace_everywhere(original, wrapper)
            else:
                self._patch(target, attr, wrapper)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        self._installed = True

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        self._installed = False

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        # Modules that did ``from x import f`` hold their own binding;
        # a forked worker unpickles the task function by its qualified
        # name, which then resolves to the wrapper too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                    module_name == "repro"
                    or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrapper(self, name, kind, attrs, original, module):
        if kind == "span":
            return self.span(name, original, attrs)
        if kind == "leaf":
            return self.leaf(name, original)
        if kind == "append":
            return self.span(_append_name, original)
        if kind == "resolve":
            def count_resolved(args, kwargs, result):
                self.counts[f"sim.backends.resolved.{result}"] += 1
            return self.leaf(name, original, count_resolved)
        if kind == "batch":
            return self._batch_wrapper(name, original, module)
        raise ValueError(f"unknown boundary kind {kind!r}")

    def _batch_wrapper(self, name, original, module):
        """``advance_all`` plus a lane count per pack it builds.

        The batch builds one lane pack per group chunk and direction;
        a counting subclass of the module's pack type, active only
        inside ``advance_all``, counts packs and the lanes they fill.
        """
        tracer = self
        pack_type = module._LanePack

        class CountingPack(pack_type):
            def __init__(self, plan, background, lane_states, *rest):
                super().__init__(plan, background, lane_states, *rest)
                if getattr(tracer._local, "in_batch", False):
                    tracer.counts["sim.bitpar.packs"] += 1
                    tracer.counts["sim.bitpar.lanes"] += len(lane_states)

        self._patch(module, "_LanePack", CountingPack)
        leaf = self.leaf(name, original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer._local.in_batch = True
            try:
                return leaf(*args, **kwargs)
            finally:
                tracer._local.in_batch = False

        return wrapper

    # ------------------------------------------------------------------
    # Forked workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        if not self._installed:
            return
        self.spans = []
        self.leaves = {}
        self.leaf_under = {}
        self.counts = Counter()
        self._child = True
        self._base_depth = len(self._stack())

    def _maybe_spill(self, stack: list) -> None:
        if not self._child or len(stack) > self._base_depth:
            return
        record = {
            "spans": self.spans,
            "leaves": self.leaves,
            "leaf_under": list(self.leaf_under.items()),
            "counts": dict(self.counts),
        }
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.leaves = {}
        self.leaf_under = {}
        self.counts = Counter()

    def merged(self) -> "Trace":
        """This process's records plus every spilled worker record."""
        spans = list(self.spans)
        leaves = {name: list(stats) for name, stats in self.leaves.items()}
        leaf_under = dict(self.leaf_under)
        counts = Counter(self.counts)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                spans.extend(tuple(span) for span in record["spans"])
                for name, (calls, seconds) in record["leaves"].items():
                    stats = leaves.setdefault(name, [0, 0.0])
                    stats[0] += calls
                    stats[1] += seconds
                for sid, seconds in record["leaf_under"]:
                    leaf_under[sid] = leaf_under.get(sid, 0.0) + seconds
                counts.update(record["counts"])
        return Trace(spans, leaves, leaf_under, counts, self.main_pid)


def _append_name(stack: list) -> str:
    for _sid, name in reversed(stack):
        if name in _APPEND_CONTEXTS:
            if name == "core.generator.generate":
                return "core.generator.commit"
            break
    return "sim.coverage.append"


def covered_length(intervals: Iterable[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals
        if end > lo and start < hi)
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Trace:
    """Merged records of one traced pass, with self-time arithmetic."""

    def __init__(self, spans, leaves, leaf_under, counts, main_pid):
        self.spans = spans
        self.leaves = leaves
        self.leaf_under = leaf_under
        self.counts = counts
        self.main_pid = main_pid
        self.children: Dict[int, List[tuple]] = {}
        for span in spans:
            self.children.setdefault(span[PARENT], []).append(span)

    def named(self, name: str) -> List[tuple]:
        return [span for span in self.spans if span[NAME] == name]

    def calls(self, name: str) -> int:
        if name in self.leaves:
            return int(self.leaves[name][0])
        return len(self.named(name))

    def total(self, name: str) -> float:
        if name in self.leaves:
            return float(self.leaves[name][1])
        return sum(span[END] - span[START] for span in self.named(name))

    def self_time(self, span: tuple) -> float:
        """Duration minus the part its children and leaves cover.

        Children may overlap each other (pool workers run side by
        side), so the union of their intervals is subtracted, not the
        sum of their durations.
        """
        start, end = span[START], span[END]
        covered = covered_length(
            ((child[START], child[END])
             for child in self.children.get(span[SID], ())),
            start, end)
        leaf = self.leaf_under.get(span[SID], 0.0)
        return max(0.0, end - start - covered - leaf)

    def self_total(self, name: str) -> float:
        return sum(self.self_time(span) for span in self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum((span[ATTRS] or {}).get(key, 0)
                   for span in self.named(name))

    def roots_within(self, pid: int, tid: int, lo: float, hi: float
                     ) -> float:
        """Seconds of ``[lo, hi]`` covered by root spans of thread *tid*
        of process *pid*."""
        return covered_length(
            ((span[START], span[END]) for span in self.children.get(0, ())
             if span[PID] == pid and span[TID] == tid),
            lo, hi)
