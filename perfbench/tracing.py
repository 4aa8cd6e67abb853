"""Call-boundary tracing for the benchmark's traced runs.

:func:`install` wraps the public entry points of every layer, from
outside the program, and returns the :class:`Tracer` that accumulates
what the wrappers see. Nothing under ``src/`` changes, and untraced runs
load none of this.

Every wrapped call pushes a frame on its thread's stack, so a call's
*self time* is its duration minus the part of it that wrapped calls
nested inside it cover. Two kinds of wrappers exist:

* per-cycle and other high-frequency entry points (issue, frontend,
  memory, commit, store keys, energy evaluation, ``repro.obs``
  bookkeeping) only accumulate calls, total time and self time;
* coarse boundaries (an op, a pair's construction/prewarm/run, a store
  read or write, a figure, a pool batch, an HTTP request, a job) are also
  kept as span events with an id, a parent id and the op id, written as
  Chrome ``trace_event`` JSON at the end of the run.

Threads that drive ops mark their measured window with
:meth:`Tracer.timeline` and each op with :meth:`Tracer.op`, whose entry
(``op.<workload>``) belongs to no layer. Inside the window every second
is either self time of a wrapped entry point (summed per layer) or
*unattributed*: the op's own code that no entry point covers, plus the
benchmark's loop between ops.

Forked pool workers inherit the wrappers. Right before a worker takes
its per-job ``repro.obs`` registry delta, which ``parallel.simulate_matrix``
already merges into the parent, it moves its totals into the registry,
so worker-side time reaches the parent's summary without a side channel
and nothing a job did is left behind. The parent's merge of those series
is not counted as ``obs`` bookkeeping.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

_clock = time.perf_counter

#: Registry counters that carry a worker's totals back to the parent.
_PREFIX = "perfbench_"
_CALLS = "perfbench_calls_total"
_TOTAL_NS = "perfbench_total_ns"
_SELF_NS = "perfbench_self_ns"

#: Issue-scheme classes whose per-cycle methods are timed.
_SCHEMES = (
    ("repro.issue.conventional", "ConventionalIssueQueue"),
    ("repro.issue.issuefifo", "IssueFifoScheme"),
    ("repro.issue.latfifo", "LatFifoScheme"),
    ("repro.issue.mixbuff", "MixBuffScheme"),
)

#: (module, function, entry, kept as span events)
_FUNCTIONS = (
    ("repro.workloads.generator", "generate_trace", "workloads.trace_gen", True),
    ("repro.workloads.prewarm", "prewarm", "workloads.prewarm", True),
    ("repro.workloads.spill", "materialize_trace", "workloads.spill_write", True),
    ("repro.workloads.spill", "load_trace", "workloads.spill_load", True),
    ("repro.backends.kernel_cache", "load_kernel_module", "backends.kernel_build", True),
    ("repro.experiments.store", "result_key", "experiments.result_key", False),
    ("repro.experiments.campaign", "run_campaign", "experiments.figures", True),
    ("repro.experiments.campaign", "export_campaign", "experiments.export", True),
    ("repro.experiments.parallel", "simulate_matrix", "experiments.pool_batch", True),
    ("repro.obs.metrics", "counter", "obs.bookkeeping", False),
)

#: (module, class, method, entry, kept as span events)
_METHODS = (
    ("repro.core.processor", "Processor", "__init__", "core.init", True),
    ("repro.core.rob", "ReorderBuffer", "commit_ready", "core.commit", False),
    ("repro.frontend.fetch", "FetchEngine", "fetch_cycle", "frontend.fetch", False),
    ("repro.frontend.fetch", "FetchEngine", "pop_instructions", "frontend.decode", False),
    ("repro.frontend.fetch", "FetchEngine", "resolve_branch", "frontend.resolve", False),
    ("repro.memory.hierarchy", "MemoryHierarchy", "data_access_latency",
     "memory.data_access", False),
    ("repro.memory.hierarchy", "MemoryHierarchy", "instruction_fetch_latency",
     "memory.ifetch", False),
    ("repro.energy.model", "EnergyModel", "__init__", "energy.model_init", False),
    ("repro.energy.model", "EnergyModel", "energy_pj", "energy.eval", False),
    ("repro.energy.model", "EnergyModel", "energy_by_event", "energy.eval", False),
    ("repro.experiments.store", "ResultStore", "__init__", "experiments.store_init", True),
    ("repro.experiments.store", "ResultStore", "save", "experiments.store_save", True),
) + tuple(
    (module, cls, method, entry, False)
    for module, cls in _SCHEMES
    for method, entry in (
        ("select_and_issue", "issue.select"),
        ("try_dispatch", "issue.dispatch"),
        ("on_result_broadcast", "issue.broadcast"),
    )
)


class _ThreadState:
    """One thread's frame stack, totals and timeline bookkeeping."""

    __slots__ = ("tid", "stack", "totals", "op", "timeline_s")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: Open frames: ``[time covered by nested wrapped calls, span id]``.
        self.stack: List[list] = []
        #: entry -> ``[calls, total seconds, self seconds]``.
        self.totals: Dict[str, list] = {}
        self.op = 0
        self.timeline_s = 0.0


class Tracer:
    """Per-process accumulator behind every installed wrapper."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)
        #: Span events: (entry, start, duration, self, tid, id, parent, op).
        self.events: List[Tuple] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._registry_counter = None
        self._counter_inc = None
        os.register_at_fork(after_in_child=self._after_fork)

    # -- per-thread state ---------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
            return state

    def _after_fork(self) -> None:
        """A forked worker starts empty: its parent's frames never unwind here."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local.state = _ThreadState(threading.get_ident())
        self._states = [self._local.state]
        self.events = []

    def reset(self) -> None:
        """Forget everything recorded so far (call right before timing)."""
        with self._lock:
            for state in self._states:
                state.totals = {}
                state.timeline_s = 0.0
            self.events = []

    # -- frames ---------------------------------------------------------------

    def _close(self, state, entry, frame, start, calls, record, parent) -> None:
        duration = _clock() - start
        stack = state.stack
        stack.pop()
        own = duration - frame[0]
        acc = state.totals.get(entry)
        if acc is None:
            acc = state.totals[entry] = [0, 0.0, 0.0]
        acc[0] += calls
        acc[1] += duration
        acc[2] += own
        if stack:
            stack[-1][0] += duration
        if record:
            self.events.append(
                (entry, start, duration, own, state.tid, frame[1], parent, state.op)
            )

    def timed(self, entry: str, fn, record: bool = False, after=None):
        """``fn`` wrapped to time each call under ``entry``.

        ``after(result, args)`` runs once the call returned, for wrappers
        that also count something about the result.
        """
        state_of = self.state
        ids = self._ids
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids) if record else 0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(state, entry, frame, start, 1, record, parent)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    @contextmanager
    def span(self, entry: str, calls: int = 1, record: bool = True) -> Iterator[None]:
        """Time a block of the benchmark's own code under ``entry``."""
        state = self.state()
        stack = state.stack
        parent = stack[-1][1] if stack else 0
        frame = [0.0, next(self._ids) if record else 0]
        stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            self._close(state, entry, frame, start, calls, record, parent)

    @contextmanager
    def op(self, index: int, workload: str, calls: int = 1) -> Iterator[None]:
        """One op: a root span whose id tags every span nested inside it.

        Its entry, ``op.<workload>``, is in no layer, so the op's own
        code between wrapped calls counts as unattributed.
        """
        state = self.state()
        state.op = index
        try:
            with self.span(f"op.{workload}", calls=calls):
                yield
        finally:
            state.op = 0

    @contextmanager
    def timeline(self) -> Iterator[None]:
        """Mark the calling thread's measured window.

        Call :meth:`reset` before the window and :meth:`summary` right
        after it, so that only frames closed inside it are counted.
        """
        state = self.state()
        start = _clock()
        try:
            yield
        finally:
            state.timeline_s += _clock() - start

    def add(self, entry: str, calls: int = 1, seconds: float = 0.0) -> None:
        """Add to an entry measured outside the frame stack."""
        acc = self.state().totals.setdefault(entry, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += seconds

    # -- worker totals through the obs registry -------------------------------

    def push_worker_totals(self) -> None:
        """Move this process's totals into its ``repro.obs`` registry."""
        state = self.state()
        totals, state.totals = state.totals, {}
        for entry, (calls, total, own) in totals.items():
            for name, amount in (
                (_CALLS, calls),
                (_TOTAL_NS, int(total * 1e9)),
                (_SELF_NS, int(own * 1e9)),
            ):
                if amount > 0:
                    self._counter_inc(self._registry_counter(name, entry=entry), amount)

    def registry_totals(self) -> Dict[str, list]:
        """Worker totals merged into this process's registry, by entry."""
        from repro import obs

        merged: Dict[str, list] = {}
        slot = {_CALLS: 0, _TOTAL_NS: 1, _SELF_NS: 2}
        for key, value in obs.get_registry().snapshot()["counters"].items():
            name, labels = json.loads(key)
            if name in slot:
                acc = merged.setdefault(dict(labels)["entry"], [0, 0.0, 0.0])
                acc[slot[name]] += value if name == _CALLS else value / 1e9
        return merged

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Rebind every ``repro`` module attribute that holds ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def summary(self) -> Dict:
        """Totals of this process, plus the timeline identity's terms."""
        entries: Dict[str, list] = {}
        layer_self: Dict[str, float] = {}
        timeline_s = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for entry, (calls, total, own) in state.totals.items():
                acc = entries.setdefault(entry, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
                if state.timeline_s > 0:
                    layer = entry.split(".", 1)[0]
                    layer_self[layer] = layer_self.get(layer, 0.0) + own
            timeline_s += state.timeline_s
        return {"entries": entries, "layer_self": layer_self, "timeline_s": timeline_s}

    def chrome_events(self) -> List[Dict]:
        """The span events as Chrome ``trace_event`` complete events."""
        return [
            {
                "name": entry,
                "cat": entry.split(".", 1)[0],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": self.pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "op": op,
                         "self_us": round(own * 1e6, 3)},
            }
            for entry, start, duration, own, tid, sid, parent, op in self.events
        ]


def _wrap_span(tracer: Tracer, original):
    """``repro.obs.span`` whose own enter/exit work counts as bookkeeping."""

    class _TimedSpan:
        __slots__ = ("cm",)

        def __init__(self, cm) -> None:
            self.cm = cm

        def __enter__(self):
            with tracer.span("obs.bookkeeping", calls=0, record=False):
                return self.cm.__enter__()

        def __exit__(self, *exc_info):
            with tracer.span("obs.bookkeeping", calls=0, record=False):
                return self.cm.__exit__(*exc_info)

    @functools.wraps(original)
    def span(name, **args):
        with tracer.span("obs.bookkeeping", record=False):
            cm = original(name, **args)
        return _TimedSpan(cm)

    return span


def install() -> Tracer:
    """Wrap every layer's public entry points; returns the live tracer."""
    import importlib

    from repro.experiments import campaign, figures
    from repro.obs import metrics, runtime

    tracer = Tracer()
    tracer._registry_counter = metrics.counter
    tracer._counter_inc = metrics.Counter.inc
    for module_name, name, entry, record in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), name)
        tracer._patch_everywhere(original, tracer.timed(entry, original, record))
    for number in campaign.ALL_FIGURES:
        original = getattr(figures, f"figure{number}")
        tracer._patch_everywhere(
            original, tracer.timed("experiments.figures", original, record=True)
        )
    for module_name, cls_name, method, entry, record in _METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        if method in vars(cls):
            tracer._patch(cls, method, tracer.timed(entry, vars(cls)[method], record))

    from repro.core.processor import Processor
    from repro.experiments.store import ResultStore

    def count_cycles(__, args) -> None:
        telemetry = args[0].kernel_telemetry
        tracer.add("core.cycles_executed", telemetry.executed_cycles)
        tracer.add("core.cycles_skipped", telemetry.skipped_cycles)

    tracer._patch(
        Processor, "run",
        tracer.timed("core.run", Processor.run, record=True, after=count_cycles),
    )

    def count_hit(result, __) -> None:
        if result is not None:
            tracer.add("experiments.store_hits")

    tracer._patch(
        ResultStore, "load_with_extra",
        tracer.timed("experiments.store_load", ResultStore.load_with_extra,
                     record=True, after=count_hit),
    )
    tracer._patch_everywhere(runtime.span, _wrap_span(tracer, runtime.span))

    inc = metrics.Counter.inc
    timed_inc = tracer.timed("obs.bookkeeping", inc)

    @functools.wraps(inc)
    def counter_inc(self, amount=1):
        # The parent's merge of a worker's perfbench_* series is the
        # benchmark's own side channel, not the program's bookkeeping.
        if self.name.startswith(_PREFIX):
            return inc(self, amount)
        return timed_inc(self, amount)

    tracer._patch(metrics.Counter, "inc", counter_inc)

    delta_since = metrics.MetricsRegistry.delta_since
    parent_pid = tracer.pid

    @functools.wraps(delta_since)
    def push_then_delta(self, before):
        if os.getpid() != parent_pid:
            tracer.push_worker_totals()
        return delta_since(self, before)

    tracer._patch(metrics.MetricsRegistry, "delta_since", push_then_delta)
    return tracer


def write_chrome_trace(path: str, events: List[Dict], meta: Dict) -> None:
    """Write ``events`` as a Chrome ``trace_event`` JSON file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, fh)
