"""Request coalescing and batched execution for the campaign server.

:class:`CoalescingScheduler` is the single chokepoint every serve-side
simulation goes through. For each :class:`~repro.serve.units.WorkUnit`
it answers, in order of preference:

1. **warm store** — the unit's ``result_key`` is already on disk: answer
   immediately, zero simulations (the Nth user asking for a popular
   figure costs one cache read);
2. **coalesce** — an identical unit is in flight: subscribe to its
   future, zero *extra* simulations (N concurrent askers → one
   execution, N waiters);
3. **schedule** — enqueue the unit. As soon as one of the
   :data:`BATCH_SLOTS` batch slots is free, every compatible pending
   unit folds into one :meth:`ExperimentRunner.run_many` batch that runs
   in a worker thread, off the event loop (the batch itself fans out
   across a ``multiprocessing`` pool when the service was started with
   ``--workers N > 1``, even for one pair, so two batches never share
   the server's interpreter lock). Units that arrive while both slots
   are busy wait, and the next free slot takes all of them at once, so
   batches grow with load. Signatures launch in the order they began
   waiting, so none can be starved.

Everything downstream of the scheduler is the *existing* cached runner
stack, so serve-side results are bit-identical to CLI results by
construction — same code, same store, same keys.

:class:`ScheduledRunner` is the bridge for request kinds that cannot
pre-declare their unit set (exploration refinement rounds depend on
earlier scores): a drop-in :class:`ExperimentRunner` whose cache misses
are routed through the scheduler from a worker thread, so even adaptive
workloads coalesce with every other in-flight request.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.common.errors import SimulationError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore
from repro.serve.units import (
    PROVENANCE_COALESCED,
    PROVENANCE_SIMULATED,
    PROVENANCE_STORE,
    UnitOutcome,
    WorkUnit,
)

__all__ = [
    "CoalescingScheduler",
    "ScheduledRunner",
    "SchedulerShutdown",
    "ServeCounters",
]

#: Batches that run at once, one per thread of the batch executor.
BATCH_SLOTS = 2


class SchedulerShutdown(RuntimeError):
    """The scheduler is shutting down; queued work will not run."""


@dataclass
class ServeCounters:
    """Cumulative scheduler telemetry, exposed at ``GET /v1/stats``."""

    units: int = 0        #: work units submitted, all provenances
    hits: int = 0         #: answered straight from the warm store
    coalesced: int = 0    #: subscribed to an identical in-flight unit
    misses: int = 0       #: scheduled for execution (first asker)
    simulated: int = 0    #: actual simulations run by batch executors
    executor_disk_hits: int = 0  #: batch-side disk hits (external warmers)
    batches: int = 0      #: run_many batches launched

    def as_dict(self) -> Dict[str, int]:
        return {
            "units": self.units,
            "hits": self.hits,
            "coalesced": self.coalesced,
            "misses": self.misses,
            "simulated": self.simulated,
            "executor_disk_hits": self.executor_disk_hits,
            "batches": self.batches,
        }

    def count(self, field: str, amount: int = 1) -> None:
        """Increment one counter, mirrored into the obs registry."""
        setattr(self, field, getattr(self, field) + amount)
        obs.counter(f"repro_serve_{field}_total").inc(amount)


class CoalescingScheduler:
    """Key-addressed coalescing + batching over the cached runner stack.

    Single-loop discipline: every method except :meth:`resolve_sync` must
    be called on the event loop that :meth:`start` ran on. Batch
    execution happens in a dedicated thread pool of :data:`BATCH_SLOTS`
    threads so the loop stays responsive while simulations run.
    """

    def __init__(self, store: ResultStore, workers: int = 0) -> None:
        self.store = store
        self.workers = workers
        self.counters = ServeCounters()
        self._executor = ThreadPoolExecutor(
            max_workers=BATCH_SLOTS, thread_name_prefix="serve-batch"
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Units waiting for a free batch slot, grouped by batch
        #: signature, with their keys.
        self._pending: Dict[Tuple, List[Tuple[str, WorkUnit]]] = {}
        self._batch_tasks: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop, for :meth:`resolve_sync`."""
        self._loop = asyncio.get_running_loop()

    async def close(self) -> None:
        """Graceful shutdown: drain in-flight batches, fail queued units.

        Units already batched (their ``run_many`` is running in a worker
        thread) are *drained* — the batch completes and its waiters get
        real results. Units still pending get :class:`SchedulerShutdown`
        so their jobs fail with a clear status instead of hanging.
        """
        self._closed = True
        # Fail everything that never made it into a batch.
        for __, items in sorted(self._pending.items()):
            for key, __unit in items:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(
                        SchedulerShutdown("server shutting down")
                    )
        self._pending.clear()
        # Drain batches already running in worker threads.
        if self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)
        self._executor.shutdown(wait=True)

    @property
    def in_flight(self) -> int:
        """Units currently awaiting execution (batched or pending)."""
        return len(self._inflight)

    @property
    def pending(self) -> int:
        """Units waiting for a free batch slot."""
        return sum(len(items) for items in self._pending.values())

    @property
    def in_flight_batches(self) -> int:
        """``run_many`` batches currently executing in worker threads."""
        return len(self._batch_tasks)

    def stats_payload(self) -> Dict[str, int]:
        payload = self.counters.as_dict()
        payload["in_flight"] = self.in_flight
        payload["pending"] = self.pending
        payload["queue_depth"] = self.pending
        payload["in_flight_batches"] = self.in_flight_batches
        # Every request that parked on a future — first askers plus the
        # coalesced riders behind them.
        payload["waiters"] = self.counters.misses + self.counters.coalesced
        return payload

    def update_gauges(self) -> None:
        """Refresh the obs gauges from the live queue state."""
        obs.gauge("repro_serve_pending").set(self.pending)
        obs.gauge("repro_serve_in_flight").set(self.in_flight)
        obs.gauge("repro_serve_in_flight_batches").set(self.in_flight_batches)

    # ------------------------------------------------------------------
    # Resolution.
    # ------------------------------------------------------------------

    async def resolve(self, units: Sequence[WorkUnit]) -> List[UnitOutcome]:
        """Answer every unit; outcomes in input order, with provenance.

        Identical units — within this call, across concurrent calls, or
        against the in-flight set — share one execution. Warm keys never
        touch the queue at all.
        """
        if self._closed:
            raise SchedulerShutdown("server shutting down")
        loop = asyncio.get_running_loop()
        outcomes: List[Optional[UnitOutcome]] = [None] * len(units)
        waiters: List[Tuple[int, WorkUnit, str, asyncio.Future, str]] = []
        for index, unit in enumerate(units):
            key = unit.key()
            self.counters.count("units")
            future = self._inflight.get(key)
            if future is not None:
                self.counters.count("coalesced")
                waiters.append((index, unit, key, future, PROVENANCE_COALESCED))
                continue
            # The check-inflight -> check-store -> register-future sequence
            # must be atomic on the event loop: an await between the
            # in-flight probe and the future registration would let a
            # duplicate key slip past coalescing and simulate twice.  The
            # store read is one small JSON file; correctness of N-askers ->
            # 1-simulation depends on it staying inline.
            stats = self.store.load(key)  # repro: allow[serve-async-hygiene]
            if stats is not None:
                self.counters.count("hits")
                outcomes[index] = UnitOutcome(unit, key, PROVENANCE_STORE, stats)
                continue
            future = loop.create_future()
            self._inflight[key] = future
            self._pending.setdefault(unit.batch_signature(), []).append(
                (key, unit)
            )
            self.counters.count("misses")
            waiters.append((index, unit, key, future, PROVENANCE_SIMULATED))
        self._launch_batches()
        for index, unit, key, future, provenance in waiters:
            # shield(): the future is shared by every coalesced waiter —
            # one cancelled request must not tear down the execution the
            # others are still waiting on.
            stats = await asyncio.shield(future)
            outcomes[index] = UnitOutcome(unit, key, provenance, stats)
        return outcomes  # type: ignore[return-value]

    def resolve_sync(
        self, units: Sequence[WorkUnit], timeout: Optional[float] = None
    ) -> List[UnitOutcome]:
        """Thread-side bridge to :meth:`resolve`.

        For job bodies running in worker threads (exploration drivers,
        figure assembly). Never call this on the event-loop thread — it
        blocks until the loop has answered, which would deadlock.
        """
        if self._loop is None:
            raise SchedulerShutdown("scheduler not started")
        return asyncio.run_coroutine_threadsafe(
            self.resolve(list(units)), self._loop
        ).result(timeout)

    # ------------------------------------------------------------------
    # Batching.
    # ------------------------------------------------------------------

    def _launch_batches(self) -> None:
        """Start one batch per pending signature while a batch slot is
        free, the signature that has waited longest first."""
        while self._pending and len(self._batch_tasks) < BATCH_SLOTS:
            # Dict order is arrival order: a signature whose units
            # launched re-enters at the end, so none can be starved.
            signature = next(iter(self._pending))
            task = asyncio.ensure_future(
                self._run_batch(self._pending.pop(signature))
            )
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_done)

    def _batch_done(self, task: asyncio.Task) -> None:
        """Free the finished batch's slot for whatever accumulated."""
        self._batch_tasks.discard(task)
        if not self._closed:
            self._launch_batches()

    async def _run_batch(self, items: List[Tuple[str, WorkUnit]]) -> None:
        """Execute one compatible group via ``run_many``, off the loop.

        All units in ``items`` share a batch signature, so one
        :class:`ExperimentRunner` (same scale / kernel / sampling) covers
        the whole group; its ``run_many`` fans out across processes when
        the service has workers configured. Results reach waiters through
        their futures; the runner has already filed them in the store.
        """
        self.counters.count("batches")
        first = items[0][1]
        runner = ExperimentRunner(
            first.scale,
            store=self.store,
            workers=self.workers,
            kernel=first.kernel,
            sampling=first.sampling,
        )
        pairs = [(unit.benchmark, unit.scheme) for __, unit in items]
        loop = asyncio.get_running_loop()
        try:
            with obs.span("serve.batch", units=len(items)):
                results = await loop.run_in_executor(
                    self._executor, runner.run_many, pairs
                )
        except BaseException as exc:  # noqa: BLE001 — forwarded to waiters
            for key, __ in items:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(
                        SimulationError(f"batch execution failed: {exc}")
                    )
            return
        telemetry = runner.cache_stats()
        self.counters.count("simulated", telemetry["simulations"])
        self.counters.count("executor_disk_hits", telemetry["disk_hits"])
        for (key, __), stats in zip(items, results):
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(stats)


class ScheduledRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` whose misses go through the scheduler.

    Memory and disk layers behave exactly as in the base class; only the
    execution layer changes — instead of simulating locally, pending
    pairs are submitted to the shared :class:`CoalescingScheduler`, so
    an adaptive caller (the exploration driver) dedupes against every
    other in-flight request and the warm store. Once the scheduler
    answers, results are re-read through the normal disk-hit path, which
    also rebuilds sampled estimate records — so ``sampled_result`` and
    telemetry keep working unchanged.

    Thread discipline: use only from worker threads (the scheduler
    bridge blocks on the event loop).
    """

    def __init__(
        self,
        scheduler: CoalescingScheduler,
        *,
        scale,
        kernel: Optional[str] = None,
        sampling=None,
        on_outcome=None,
    ) -> None:
        super().__init__(
            scale,
            store=scheduler.store,
            workers=0,
            kernel=kernel,
            sampling=sampling,
        )
        self._scheduler = scheduler
        self._on_outcome = on_outcome

    def run_many(self, pairs, workers=None):
        misses = self.pending_pairs(pairs)
        if misses:
            outcomes = self._scheduler.resolve_sync(
                [
                    WorkUnit(
                        benchmark=benchmark,
                        scheme=scheme,
                        scale=self.scale,
                        kernel=self.kernel,
                        sampling=self.sampling,
                    )
                    for benchmark, scheme in misses
                ]
            )
            for (benchmark, scheme), outcome in zip(misses, outcomes):
                if self._on_outcome is not None:
                    self._on_outcome(outcome)
                if self._lookup(benchmark, scheme) is None:
                    # The scheduler's executor files every result in the
                    # shared store before resolving the future; a miss
                    # here means the store was yanked out from under us.
                    raise SimulationError(
                        f"scheduler resolved ({benchmark!r}, ...) but the "
                        f"result is not readable from {self.store!r}"
                    )
        return [self._result_cache[(b, s)] for b, s in pairs]

    def run(self, benchmark, scheme):
        if self._lookup(benchmark, scheme) is None:
            self.run_many([(benchmark, scheme)])
        return self._result_cache[(benchmark, scheme)]
