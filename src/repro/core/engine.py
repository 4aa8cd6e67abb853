"""Simulation kernels: the per-cycle driver and the event-driven skipper.

The :class:`~repro.core.processor.Processor` owns the pipeline *stages*;
this module owns the *loop* that drives them. Two kernels share the same
stage code and must be bit-identical in every reported statistic (a
third, ``specialized``, runs the ``skip`` loop over a generated step
function; see :data:`_KERNELS`):

``naive``
    Tick :meth:`Processor.step` once per simulated cycle — the seed
    behaviour, kept as the reference implementation.

``skip``
    An event-driven kernel. After a cycle in which *nothing* happened
    (no branch resolved, nothing committed, no result broadcast, nothing
    issued, dispatched, decoded or fetched, and the fetch engine's state
    did not move), the machine is quiescent: every stage's decision next
    cycle is a pure function of frozen state plus the cycle number. The
    kernel then asks every stateful component for its
    ``next_activity_cycle()`` — the event wheel over the completion,
    broadcast and branch-resolution schedules, the I-cache fill timer,
    functional-unit busy windows and MixBUFF chain-latency code
    boundaries — and jumps straight to the earliest such event instead
    of spinning. A stalled LatFIFO FP placement never skips.

    Per-cycle accounting (issue-queue selection energy, ready-table
    polling, dispatch-stall counters, occupancy integration) still
    accrues during quiescent cycles, so skipped spans are accounted in
    *interval form*: the kernel executes **one** extra quiescent cycle,
    measures the exact counter delta that cycle produced, and replays it
    ``n`` times in closed form via :meth:`Processor.advance_idle`.
    Because every cycle-dependent decision boundary is a wake event, the
    measured cycle is provably representative of the whole span, and the
    skipping run is bit-identical to the naive one by construction
    (``tests/test_kernel_equivalence.py`` and the golden-stats net
    enforce this).

``sampled`` (:func:`run_sampled`)
    Not a kernel but a third *execution mode*: detailed simulation of
    systematically chosen trace slices (driven through ``run_kernel``),
    functional fast-forward between them, statistics as error-bounded
    estimates. See :mod:`repro.sampling`.

Telemetry: each run fills ``processor.kernel_telemetry`` with the
number of cycles actually executed vs. skipped, so benchmarks can report
how much simulated time the event wheel jumped over. This module sits
inside the version-tag closure and must not import ``repro.obs``; the
untagged experiments layer records each run's own telemetry into the
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common import faults
from repro.common.config import (
    KERNEL_NAIVE,
    KERNEL_SKIP,
    KERNEL_SPECIALIZED,
    VALID_KERNELS,
)
from repro.common.errors import SimulationError

__all__ = [
    "KernelTelemetry",
    "KERNEL_NAIVE",
    "KERNEL_SKIP",
    "VALID_KERNELS",
    "run_kernel",
    "run_naive",
    "run_skipping",
    "run_specialized",
    "run_sampled",
]


@dataclass
class KernelTelemetry:
    """How a run's simulated cycles were covered."""

    executed_cycles: int = 0
    skipped_cycles: int = 0
    skip_spans: int = 0

    @property
    def total_cycles(self) -> int:
        return self.executed_cycles + self.skipped_cycles

    def as_dict(self) -> Dict[str, int]:
        return {
            "executed_cycles": self.executed_cycles,
            "skipped_cycles": self.skipped_cycles,
            "skip_spans": self.skip_spans,
        }

    def merge(self, other: "KernelTelemetry") -> None:
        self.executed_cycles += other.executed_cycles
        self.skipped_cycles += other.skipped_cycles
        self.skip_spans += other.skip_spans


def _no_progress(processor, cycle: int, committed: int, total: int) -> SimulationError:
    return SimulationError(
        f"{processor.scheme.name} on {processor.trace.name}: no forward progress "
        f"after {cycle} cycles ({committed}/{total} committed)"
    )


def run_naive(processor, total: int, max_cycles: int, warmup_instructions: int):
    """Reference kernel: execute every simulated cycle."""
    telemetry = processor.kernel_telemetry
    committed = 0
    cycle = 0
    snapshot: Optional[dict] = None
    while committed < total:
        if cycle > max_cycles:
            raise _no_progress(processor, cycle, committed, total)
        _, retired = processor.step(cycle)
        committed += retired
        cycle += 1
        telemetry.executed_cycles += 1
        if snapshot is None and committed >= warmup_instructions:
            snapshot = processor._snapshot(cycle, committed)
    processor._finalize(cycle, committed, snapshot)
    return processor.stats


def run_skipping(processor, total: int, max_cycles: int, warmup_instructions: int,
                 step=None):
    """Event-driven kernel: jump over provably quiescent cycle spans.

    The loop drives ``step(cycle) -> (active, retired)``: ``processor.step``
    by default, the generated equivalent for :func:`run_specialized`.
    """
    step = step or processor.step
    telemetry = processor.kernel_telemetry
    committed = 0
    cycle = 0
    snapshot: Optional[dict] = None
    while committed < total:
        if cycle > max_cycles:
            raise _no_progress(processor, cycle, committed, total)
        active, retired = step(cycle)
        committed += retired
        cycle += 1
        telemetry.executed_cycles += 1
        if snapshot is None and committed >= warmup_instructions:
            snapshot = processor._snapshot(cycle, committed)
        if active or committed >= total:
            continue
        # The cycle just executed was quiescent. Find the next cycle at
        # which any stage's decision could differ from replaying it.
        target = processor.next_event_cycle(cycle)
        if target is None:
            # Quiescent with nothing scheduled: the naive kernel would
            # spin to max_cycles and raise; fail fast instead.
            raise _no_progress(processor, cycle, committed, total)
        if target <= cycle + 1:
            continue  # nothing to skip — the next cycle is (or may be) live
        # Execute one more quiescent cycle to measure the exact per-cycle
        # accounting pattern of this span (selection energy, ready-table
        # polls, stall counters, occupancy, ...).
        if cycle > max_cycles:
            raise _no_progress(processor, cycle, committed, total)
        before = processor.idle_accounting_snapshot()
        active, retired = step(cycle)
        committed += retired
        cycle += 1
        telemetry.executed_cycles += 1
        if snapshot is None and committed >= warmup_instructions:
            snapshot = processor._snapshot(cycle, committed)
        if active:
            continue  # a wake source was conservative; no skip, no harm
        span = min(target, max_cycles + 1) - cycle
        if span > 0:
            replayed = span
            if span > 8 and faults.is_active(faults.SKIP_IDLE_UNDERCOUNT):
                # Armed contract fault (discovery self-test): replay the
                # measured idle delta one cycle short on long spans.
                replayed = span - 1
            processor.advance_idle(before, replayed)
            cycle += span
            telemetry.skipped_cycles += span
            telemetry.skip_spans += 1
    processor._finalize(cycle, committed, snapshot)
    return processor.stats


def run_specialized(processor, total: int, max_cycles: int,
                    warmup_instructions: int):
    """Per-configuration generated kernel (:mod:`repro.backends`).

    :func:`run_skipping` drives a generated, flattened ``Processor.step``;
    the module is compiled once per kernel spec.
    """
    # Imported lazily, so runs of the built-in kernels never load the
    # generator.
    from repro.backends import codegen, kernel_cache

    module = kernel_cache.load_kernel_module(codegen.kernel_spec(processor.config))
    return run_skipping(processor, total, max_cycles, warmup_instructions,
                        step=module.make_step(processor))


_KERNELS = {
    KERNEL_NAIVE: run_naive,
    KERNEL_SKIP: run_skipping,
    KERNEL_SPECIALIZED: run_specialized,
}
"""Every simulation kernel, by ``ProcessorConfig.kernel`` name.

The contract each kernel keeps:

* ``run(processor, total, max_cycles, warmup_instructions)`` simulates
  until ``total`` instructions commit and returns the processor's
  :class:`~repro.common.stats.SimulationStats`. It fills
  ``processor.kernel_telemetry`` and raises
  :class:`~repro.common.errors.SimulationError` on forward-progress
  failure.
* **Bit identity**: every reported statistic equals the ``naive``
  kernel's on the same inputs. A kernel is an execution strategy, never
  simulated behaviour; the randomized differential net
  (``tests/test_kernel_equivalence.py``) and the discovery
  kernel-equivalence oracle enforce this.
* A kernel touches only state private to the processor it is handed:
  warm states restored before ``Processor.run`` (sampled slices) and
  prewarm memoization touch the memory hierarchy and predictor only.
* Kernel names validate through ``ProcessorConfig.kernel`` and stay out
  of cache fingerprints; the kernel sources (this module and
  :mod:`repro.backends`) hash into ``SIMULATOR_VERSION_TAG``, so editing
  a kernel invalidates cached results.
"""


def run_sampled(
    config,
    trace,
    plan,
    measure_begin: int,
    measure_end: int,
    profile=None,
    prewarm_seed=None,
):
    """Sampled execution mode: fast-forward between detailed slices.

    The full-trace kernels above simulate every committed instruction in
    detail; this mode simulates only the plan's measurement slices
    (detailed warm-up included) through :func:`run_kernel` on
    re-sequenced sub-traces, and covers the gaps with *functional*
    fast-forward — caches and branch predictor stay architecturally warm
    via :class:`repro.sampling.ffwd.FunctionalWarmer`, which walks the
    trace in memory to each slice start; warm states are never persisted.

    ``[measure_begin, measure_end)`` is the committed-instruction region
    the estimates must cover (the full run's post-warm-up portion).
    Returns ``(windows, slice_stats, telemetry)``: the detailed windows,
    one :class:`~repro.common.stats.SimulationStats` per slice, and the
    merged :class:`KernelTelemetry` of the detailed windows only — the
    honest count of cycles that were actually simulated.

    Statistics are *estimates*, not bit-identical to a full run — which
    is why this is an execution mode with its own result-cache identity
    (the sampling plan hashes into the key), not a third kernel.
    """
    from repro.core.processor import Processor
    from repro.sampling.ffwd import FunctionalWarmer, slice_trace

    windows = plan.slice_windows(measure_begin, measure_end)
    warmer = FunctionalWarmer(
        config, trace, profile=profile, prewarm_seed=prewarm_seed
    )
    # Each slice trace extends past the measured window by one pipeline's
    # worth of instructions and the run stops mid-flight at the window's
    # committed count, so measurement starts *and* ends against a full
    # pipeline — without the tail, the forced end-of-trace drain starves
    # issue-side event rates by the in-flight backlog, which is huge
    # relative to a short slice.
    tail = config.rob_entries + 2 * config.fetch_queue_entries
    slices = []
    detailed = KernelTelemetry()
    for window in windows:
        state = warmer.state_at(window.detail_start)
        stop = window.detail_end - window.detail_start
        processor = Processor(
            config,
            slice_trace(
                trace,
                window.detail_start,
                min(window.detail_end + tail, len(trace)),
            ),
        )
        processor.hierarchy.restore_state(state.hierarchy)
        processor.predictor.restore_state(state.predictor)
        slices.append(
            processor.run(
                warmup_instructions=window.warmup, total_instructions=stop
            )
        )
        detailed.merge(processor.kernel_telemetry)
    return windows, slices, detailed


def run_kernel(processor, kernel: str, total: int, max_cycles: int,
               warmup_instructions: int):
    """Dispatch to the requested kernel (see :data:`_KERNELS`)."""
    runner = _KERNELS.get(kernel)
    if runner is None:
        raise SimulationError(
            f"unknown simulation kernel {kernel!r}; valid kernels: "
            + ", ".join(sorted(VALID_KERNELS))
        )
    return runner(processor, total, max_cycles, warmup_instructions)
