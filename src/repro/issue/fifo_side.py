"""One side (integer or FP) of a Palacharla-style FIFO issue organization.

Dispatch placement implements the three heuristics of Section 2.2
(quoted from the paper):

1. if a queue's tail produces the instruction's first operand, place it
   there — if that queue is full and the instruction has only one source
   operand, dispatch stalls;
2. else if a queue's tail produces the second operand, place it there —
   if that queue is full, dispatch stalls;
3. otherwise place it in an empty FIFO — if none is empty, dispatch
   stalls.

Only FIFO heads are considered for issue; a head checks its operands in
the ready-register table (``regs_ready``) every cycle. Heads are issued
oldest first (lowest ``seq``, the age) across the queues of the side.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.stats import StatCounters
from repro.core.uop import InFlight
from repro.issue.base import IssueContext
from repro.issue.mapping import QueueRenameTable

__all__ = ["FifoSide"]


class FifoSide:
    """A bank of FIFO queues for one register side."""

    def __init__(
        self,
        is_fp: bool,
        num_queues: int,
        entries_per_queue: int,
        events: StatCounters,
    ) -> None:
        self.is_fp = is_fp
        self.num_queues = num_queues
        self.entries_per_queue = entries_per_queue
        self.queues: List[Deque[InFlight]] = [deque() for __ in range(num_queues)]
        self.events = events
        self.table = QueueRenameTable(events)

    # -- placement ----------------------------------------------------
    def _queue_full(self, index: int) -> bool:
        return len(self.queues[index]) >= self.entries_per_queue

    def _producer_queue(self, uop: InFlight, src_index: int) -> Optional[int]:
        """Queue whose tail produces source ``src_index``, if any."""
        srcs = uop.inst.srcs
        if src_index >= len(srcs):
            return None
        return self.table.producer(srcs[src_index])

    def try_place(self, uop: InFlight, cycle: int) -> bool:
        """Apply the dispatch heuristics; returns False on stall."""
        queue_index = self._choose_queue(uop)
        if queue_index is None:
            return False
        self._append(uop, queue_index)
        return True

    def _choose_queue(self, uop: InFlight) -> Optional[int]:
        first = self._producer_queue(uop, 0)
        if first is not None:
            if not self._queue_full(first):
                return first
            if len(uop.inst.srcs) == 1:
                return None  # rule 1: producer queue full, single operand
        second = self._producer_queue(uop, 1)
        if second is not None:
            if not self._queue_full(second):
                return second
            return None  # rule 2: producer queue full
        for index, queue in enumerate(self.queues):
            if not queue:
                return index
        return None  # rule 3: no empty FIFO

    def _append(self, uop: InFlight, queue_index: int) -> None:
        self.queues[queue_index].append(uop)
        uop.queue_index = queue_index
        self.table.set_tail(queue_index, uop.inst.dest)
        self.events.add("fifo_write")

    # -- issue ---------------------------------------------------------
    def issue_heads(self, ctx: IssueContext) -> List[InFlight]:
        """Issue ready FIFO heads, oldest first."""
        heads = []
        reads = 0
        for index, queue in enumerate(self.queues):
            if queue:
                head = queue[0]
                heads.append((head.seq, index, head))
                reads += len(head.src_phys)
        # Every head reads its operands' ready bits this cycle.
        if reads:
            self.events.add("regs_ready_read", reads)
        heads.sort()
        issued: List[InFlight] = []
        for __, index, head in heads:
            if ctx.issue(head, index):
                self.queues[index].popleft()
                self.events.add("fifo_read")
                issued.append(head)
        return issued

    # -- misc -----------------------------------------------------------
    def occupancy(self) -> int:
        return sum(map(len, self.queues))  # map beats a genexpr here: hot path

    def clear_mapping(self) -> None:
        """Branch misprediction recovery: clear the register→queue table."""
        self.table.clear()
