"""Fan a campaign's (benchmark, scheme) matrix across worker processes.

The simulator is pure Python and single-threaded, so a campaign's only
free speedup is process-level parallelism: each (benchmark, scheme) pair
is an independent simulation. :func:`simulate_matrix` maps the matrix
over a ``multiprocessing`` pool with ``chunksize=1`` (pairs have very
uneven cost — *mcf* at 2 MB working set vs *sixtrack* cache-resident)
and returns results **in input order**, so parallel and serial campaigns
produce identical result sequences.

Each batch forks a fresh pool, so a worker starts with what its parent
holds and hands back what it learns:

* Warm caches. A worker inherits the parent's memo of warmed cache
  states (:mod:`repro.workloads.prewarm`) and restores a benchmark's
  state instead of re-walking it. Each job's payload carries the states
  its worker computed during that job; the parent files them in its
  memo, so every later fork inherits them. The walks themselves stay in
  the workers, and a server's batch threads do no simulation work.
* Traces. When a spill directory is available (see
  :mod:`repro.workloads.spill`) the parent writes each missing trace's
  spill file once, and never reads an existing one; workers load the
  files through :func:`repro.experiments.runner.resolve_trace`, whose
  process memo keeps a loaded trace for the worker's later jobs. Traces
  are not handed back yet: the benchmark's ``cold_pool`` workload
  measures these spill loads, so handing traces back (and dropping the
  spill files) waits for the benchmark to stop requiring them (ROADMAP
  item 2).

Traces and warm states are deterministic, so every path yields the same
stream and the same caches.

Every job runs :func:`repro.experiments.runner.execute_pair`, the same
function the serial runner calls. Results cross the process boundary as
``SimulationStats.to_dict()`` payloads — the same representation the
disk store persists — so the parallel path exercises exactly the
serialization the cache relies on. Each payload also carries the job's
``repro.obs`` registry delta (kernel cycles included), which the parent
merges so campaign-level reporting sees the whole fleet.
"""

from __future__ import annotations

import multiprocessing
import signal
from typing import List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.common.config import IssueSchemeConfig, ProcessorConfig
from repro.common.stats import SimulationStats

#: Mirrors :data:`repro.experiments.runner.SchemeOrConfig` (kept local to
#: avoid importing the runner in the parent before workers fork/spawn).
_SchemeOrConfig = Union[IssueSchemeConfig, ProcessorConfig]

__all__ = ["simulate_matrix"]


def _init_worker() -> None:
    """Pool initializer: workers ignore SIGINT and die on SIGTERM.

    A terminal Ctrl-C delivers SIGINT to the whole process group; if the
    workers also raised ``KeyboardInterrupt`` the pool would die out from
    under the parent mid-drain. Shutdown is the parent's decision alone:
    it either lets the in-flight batch finish or terminates the pool
    explicitly (see :func:`simulate_matrix`).

    ``Pool.terminate`` stops workers with SIGTERM. A worker forked from a
    process whose asyncio loop handles SIGTERM (``repro.serve``) inherits
    that loop's no-op handler and its wakeup fd: the worker would survive
    the signal, the pool's join would wait on it forever, and the signal
    byte would reach the parent loop's handler. So both are reset here.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)


#: How often the parent wakes while waiting on a batch. Purely a
#: responsiveness knob for interrupt handling — ``AsyncResult.wait`` with
#: no timeout can block in an uninterruptible C-level wait.
_DRAIN_POLL_SECONDS = 0.25


def _drain_pool(pool, async_result, sweep_root: Optional[str]):
    """Wait for a batch, draining gracefully on interrupt.

    Normal path: poll until every job is done and return the payload
    list. On ``KeyboardInterrupt`` (SIGINT reached the parent) the pool
    is terminated — the workers ignored the signal and would otherwise
    keep simulating — joined, and any atomic-write temp files the killed
    workers orphaned under ``sweep_root`` (the trace spill directory)
    are swept immediately before the interrupt propagates, so an
    interrupted campaign leaves no debris behind.
    """
    try:
        while not async_result.ready():
            async_result.wait(_DRAIN_POLL_SECONDS)
        return async_result.get()
    except KeyboardInterrupt:
        pool.terminate()
        pool.join()
        from repro.experiments.store import sweep_stale_tmp

        if sweep_root is not None:
            sweep_stale_tmp(sweep_root, max_age=0.0)
        raise


def _run_job(job: tuple) -> dict:
    """Worker entry point: :func:`execute_pair` on one job, as a payload.

    Sampled jobs (a non-``None`` plan in the job tuple) additionally
    carry the estimate record — the same JSON representation the disk
    store persists.
    """
    # Imported here (not at module top) so the parent's import of this
    # module stays cheap and spawn-based workers re-import lazily.
    from repro.experiments.runner import execute_pair
    from repro.workloads.prewarm import warm_state_keys, warm_states_since

    benchmark, scheme, scale, kernel, trace_dir, sampling = job
    metrics_before = obs.get_registry().snapshot()
    warm_before = warm_state_keys()
    stats, sampled = execute_pair(
        benchmark,
        scheme,
        scale,
        kernel=kernel,
        sampling=sampling,
        trace_dir=trace_dir,
    )
    payload = {
        "stats": stats.to_dict(),
        # Registry growth during this job only: the parent merges it so
        # counters and histograms come out identical to a serial run.
        "metrics": obs.get_registry().delta_since(metrics_before),
        # Cache states this job warmed: the parent files them, so the
        # workers it forks later restore them instead of re-walking.
        "warm_states": warm_states_since(warm_before),
    }
    if sampled is not None:
        payload["sampled"] = sampled.to_dict()
    # Pool workers exit via os._exit (no atexit), so persist trace files
    # after every job; a no-op when tracing is off.
    obs.flush()
    return payload


def simulate_matrix(
    pairs: Sequence[Tuple[str, _SchemeOrConfig]],
    scale: "RunScale",
    workers: int,
    kernel: Optional[str] = None,
    trace_dir: Optional[str] = None,
    sampling=None,
) -> List:
    """Simulate every (benchmark, scheme) pair; results in input order.

    With ``workers <= 1`` everything runs in-process through the same
    worker function, so both paths are byte-identical by construction.
    Any larger count runs even a single pair in a worker process, so
    concurrent callers (the server's batch threads) never contend for
    this process's GIL.

    Workers inherit this process's warm-cache memo, and the states they
    warm come back in their payloads and join it, so later batches
    restore them instead of re-walking. With ``trace_dir`` set, each
    unique trace's spill file is written there up front unless it
    exists; this process reads none of them, and every batch's workers
    load their traces from them (traces are not handed back while the
    benchmark's ``cold_pool`` workload measures spill loads).

    ``sampling`` (a :class:`~repro.sampling.plan.SamplingPlan`) switches
    every job to the sampled execution mode; the return value is then a
    list of :class:`~repro.sampling.estimator.SampledStats` (estimate
    record plus synthesized stats) instead of plain
    :class:`SimulationStats`.
    """
    if trace_dir is not None:
        from repro.workloads.spill import materialize_trace, trace_spill_path
        from repro.workloads.suites import get_profile

        # Only missing files are written, and none is read: workers load
        # them through resolve_trace, and this process never simulates
        # the traces, so decoding one here would be wasted.
        for benchmark in dict.fromkeys(benchmark for benchmark, __ in pairs):
            profile = get_profile(benchmark)
            spill_args = (trace_dir, profile, scale.num_instructions, scale.seed)
            if not trace_spill_path(*spill_args).exists():
                materialize_trace(*spill_args)
    jobs = [
        (benchmark, scheme, scale, kernel, trace_dir, sampling)
        for benchmark, scheme in pairs
    ]
    if not jobs or workers <= 1:
        payloads = [_run_job(job) for job in jobs]
        # In-process execution already updated the metrics registry
        # (merging would double-count) and the warm-cache memo directly.
        for payload in payloads:
            payload.pop("metrics", None)
            payload.pop("warm_states", None)
    else:
        with multiprocessing.Pool(
            processes=min(workers, len(jobs)), initializer=_init_worker
        ) as pool:
            async_result = pool.map_async(_run_job, jobs, chunksize=1)
            pool.close()
            payloads = _drain_pool(pool, async_result, trace_dir)
        from repro.workloads.prewarm import adopt_warm_states

        for payload in payloads:
            # Fold each worker's registry delta into the parent: counter
            # and histogram *content* is deterministic (cycle counts,
            # cache events), so the merged totals match a serial run.
            obs.get_registry().merge_delta(payload.pop("metrics", None))
            adopt_warm_states(payload.pop("warm_states"))
    if sampling is not None:
        from repro.sampling.estimator import SampledStats

        return [
            SampledStats.from_dict(
                payload["sampled"], SimulationStats.from_dict(payload["stats"])
            )
            for payload in payloads
        ]
    return [SimulationStats.from_dict(payload["stats"]) for payload in payloads]
