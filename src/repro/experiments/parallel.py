"""Fan a campaign's (benchmark, scheme) matrix across worker processes.

The simulator is pure Python and single-threaded, so a campaign's only
free speedup is process-level parallelism: each (benchmark, scheme) pair
is an independent simulation. :func:`simulate_matrix` maps the matrix
over a ``multiprocessing`` pool with ``chunksize=1`` (pairs have very
uneven cost — *mcf* at 2 MB working set vs *sixtrack* cache-resident)
and returns results **in input order**, so parallel and serial campaigns
produce identical result sequences.

Traces are shared, not regenerated: when a spill directory is available
(see :mod:`repro.workloads.spill`) the parent materializes each unique
trace to disk once and workers deserialize it. Each worker resolves its
traces through :func:`repro.experiments.runner.resolve_trace`, whose
process memo keeps a loaded trace for the worker's later jobs. Traces
are deterministic, so every path yields the same stream.

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

__all__ = ["simulate_matrix", "worker_count"]


def worker_count(requested: int = 0) -> int:
    """Effective worker count: ``requested``, or all-but-one CPU if 0."""
    if requested > 0:
        return requested
    return max(1, (multiprocessing.cpu_count() or 2) - 1)


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


def _drain_pool(pool, async_result, sweep_roots: Sequence[Optional[str]]):
    """Wait for a batch, draining gracefully on interrupt.

    Normal path: poll until every job is done and return the payload
    list. On ``KeyboardInterrupt`` (SIGINT reached the parent) the pool
    is terminated — the workers ignored the signal and would otherwise
    keep simulating — joined, and any atomic-write temp files the killed
    workers orphaned under ``sweep_roots`` (trace spills, checkpoints)
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

        for root in sweep_roots:
            if root is not None:
                sweep_stale_tmp(root, max_age=0.0)
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

    benchmark, scheme, scale, kernel, trace_dir, sampling, checkpoint_dir = job
    metrics_before = obs.get_registry().snapshot()
    stats, sampled = execute_pair(
        benchmark,
        scheme,
        scale,
        kernel=kernel,
        sampling=sampling,
        trace_dir=trace_dir,
        checkpoint_dir=checkpoint_dir,
    )
    payload = {
        "stats": stats.to_dict(),
        # Registry growth during this job only: the parent merges it so
        # counters and histograms come out identical to a serial run.
        "metrics": obs.get_registry().delta_since(metrics_before),
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
    checkpoint_dir: Optional[str] = None,
) -> List:
    """Simulate every (benchmark, scheme) pair; results in input order.

    With ``workers <= 1`` (or a single pair) everything runs in-process
    through the same worker function, so both paths are byte-identical by
    construction. With ``trace_dir`` set, each unique trace is
    materialized there once up front and shared by every worker.

    ``sampling`` (a :class:`~repro.sampling.plan.SamplingPlan`) switches
    every job to the sampled execution mode; the return value is then a
    list of :class:`~repro.sampling.estimator.SampledStats` (estimate
    record plus synthesized stats) instead of plain
    :class:`SimulationStats`, and ``checkpoint_dir`` shares warm-state
    checkpoints across the fleet (atomic writes make concurrent workers
    safe).
    """
    if trace_dir is not None:
        from repro.workloads.spill import materialize_trace
        from repro.workloads.suites import get_profile

        # Only the files are kept: workers load them through
        # resolve_trace, and the parent's memo stays free of traces it
        # never simulates.
        for benchmark in dict.fromkeys(benchmark for benchmark, __ in pairs):
            materialize_trace(
                trace_dir, get_profile(benchmark), scale.num_instructions, scale.seed
            )
    jobs = [
        (benchmark, scheme, scale, kernel, trace_dir, sampling, checkpoint_dir)
        for benchmark, scheme in pairs
    ]
    workers = min(worker_count(workers), len(jobs)) if jobs else 0
    if workers <= 1:
        payloads = [_run_job(job) for job in jobs]
        # In-process execution already updated the metrics registry
        # directly — merging would double-count.
        for payload in payloads:
            payload.pop("metrics", None)
    else:
        with multiprocessing.Pool(
            processes=workers, initializer=_init_worker
        ) as pool:
            async_result = pool.map_async(_run_job, jobs, chunksize=1)
            pool.close()
            payloads = _drain_pool(
                pool, async_result, (trace_dir, checkpoint_dir)
            )
        for payload in payloads:
            # Fold each worker's registry delta into the parent: counter
            # and histogram *content* is deterministic (cycle counts,
            # cache events), so the merged totals match a serial run.
            obs.get_registry().merge_delta(payload.pop("metrics", None))
    if sampling is not None:
        from repro.sampling.estimator import SampledStats

        return [
            SampledStats.from_dict(
                payload["sampled"], SimulationStats.from_dict(payload["stats"])
            )
            for payload in payloads
        ]
    return [SimulationStats.from_dict(payload["stats"]) for payload in payloads]
