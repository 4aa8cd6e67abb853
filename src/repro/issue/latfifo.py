"""LatFIFO: FIFO queues with latency-based placement (Section 3.1).

Identical to IssueFIFO on the integer side. On the FP side, instructions
are placed by *estimated issue time*: a queue qualifies if it is not full
and its last instruction's estimated issue time is at least one cycle
earlier than the incoming instruction's; among qualifying queues the one
whose last instruction issues *latest* is chosen (leaving the most room
for younger instructions); otherwise an empty queue; otherwise dispatch
stalls.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import ProcessorConfig
from repro.common.stats import StatCounters
from repro.core.uop import InFlight
from repro.issue.base import IssueContext, IssueScheme, SideIdleCountersMixin
from repro.issue.fifo_side import FifoSide
from repro.issue.latency_estimator import IssueTimeEstimator

__all__ = ["LatFifoScheme", "LatencyPlacedFifoSide"]

_EMPTY_TAIL = -(1 << 60)


class LatencyPlacedFifoSide(FifoSide):
    """FIFO side whose placement uses estimated issue times."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tail_est: List[int] = [_EMPTY_TAIL] * self.num_queues

    def place_by_estimate(self, uop: InFlight, est_issue: int) -> bool:
        """Latency-based placement; returns False on dispatch stall."""
        best: Optional[int] = None
        best_tail = _EMPTY_TAIL
        for index, queue in enumerate(self.queues):
            if len(queue) >= self.entries_per_queue:
                continue
            tail_est = self._tail_est[index] if queue else _EMPTY_TAIL
            if tail_est <= est_issue - 1 and (best is None or tail_est > best_tail):
                best = index
                best_tail = tail_est
        if best is None:
            self.dispatch_stalls += 1
            return False
        uop.est_issue_cycle = est_issue
        self._append(uop, best)
        self._tail_est[best] = est_issue
        self.events.add("latfifo_estimator_ops")
        return True


class LatFifoScheme(SideIdleCountersMixin, IssueScheme):
    """IssueFIFO integer side + latency-placed FP side."""

    name = "latfifo"

    def __init__(self, config: ProcessorConfig, events: StatCounters) -> None:
        super().__init__(config, events)
        scheme = config.scheme
        self.int_side = FifoSide(
            False, scheme.int_queues, scheme.int_queue_entries, events
        )
        self.fp_side = LatencyPlacedFifoSide(
            True, scheme.fp_queues, scheme.fp_queue_entries, events
        )
        self.estimator = IssueTimeEstimator(config)
        self._distributed = scheme.distributed_fus

    def try_dispatch(self, uop: InFlight, cycle: int) -> bool:
        if not uop.op.is_fp:
            if not self.int_side.try_place(uop, cycle):
                return False
            # Keep the estimator coherent: integer instructions update
            # DestCycle/AllStoreAddr too, since FP instructions consume
            # values produced by loads and integer ops.
            self.estimator.estimate(uop.inst, cycle)
            return True
        est_issue = self.estimator.estimate(uop.inst, cycle)
        return self.fp_side.place_by_estimate(uop, est_issue)

    def select_and_issue(self, ctx: IssueContext) -> List[InFlight]:
        issued = self.int_side.issue_heads(ctx, self._distributed)
        issued += self.fp_side.issue_heads(ctx, self._distributed)
        return issued

    def on_result_broadcast(self, cycle: int, broadcasts: int) -> None:
        self.events.add("regs_ready_write", broadcasts)

    def on_mispredict_resolved(self) -> None:
        self.int_side.clear_mapping()
        self.fp_side.clear_mapping()

    def next_dispatch_activity_cycle(self, inst, cycle: int) -> Optional[int]:
        """Skipping-kernel contract: a stalled FP placement never skips.

        FP placement compares an estimated issue cycle that grows with
        the cycle number, so the stall can dissolve by itself; returning
        ``cycle`` makes the kernel execute every such cycle. The integer
        side is plain FIFO placement, unblocked only by issue activity
        the event wheel already tracks.
        """
        return cycle if inst.op.is_fp else None

    def occupancy(self) -> int:
        return self.int_side.occupancy() + self.fp_side.occupancy()

    def queue_count_for_side(self, is_fp: bool) -> int:
        return self.fp_side.num_queues if is_fp else self.int_side.num_queues
