"""Reorder buffer: in-order commit.

The ROB is a bounded FIFO of :class:`~repro.core.uop.InFlight` entries.
The paper's age identifier is "the reorder buffer position plus one
extra wrap bit"; here it is the instruction's trace ``seq``. Dispatch
is in program order and the trace has no wrong path, so the ROB always
holds consecutive ``seq``s and every age comparison comes out as the
hardware's would. An instruction whose placement is refused keeps its
``seq`` and is offered again next cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.errors import SimulationError
from repro.core.uop import InFlight

__all__ = ["ReorderBuffer"]


class ReorderBuffer:
    """Bounded in-order retirement window."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise SimulationError("ROB needs at least one entry")
        self.capacity = entries
        self._entries: Deque[InFlight] = deque()

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, uop: InFlight) -> None:
        """Append a newly dispatched instruction (must be in ``seq`` order)."""
        if self.full:
            raise SimulationError("ROB overflow — dispatch must check full")
        if self._entries and uop.seq <= self._entries[-1].seq:
            raise SimulationError("ROB push out of program order")
        self._entries.append(uop)

    def commit_ready(self, cycle: int, width: int) -> List[InFlight]:
        """Retire up to ``width`` completed instructions in order."""
        retired: List[InFlight] = []
        while (
            self._entries
            and len(retired) < width
            and self._entries[0].completed
            and self._entries[0].complete_cycle <= cycle
        ):
            retired.append(self._entries.popleft())
        return retired

    def next_activity_cycle(self, cycle: int) -> Optional[int]:
        """Skipping-kernel contract: next cycle commit could retire.

        Only the head gates commit. If it has issued, its completion
        cycle is scheduled and is the next commit opportunity; if it has
        not, retirement first needs an issue event, which other wake
        sources (broadcasts, functional units) already cover.
        """
        if self._entries and self._entries[0].completed:
            when = self._entries[0].complete_cycle
            if when >= cycle:
                return when
        return None

    def __iter__(self):
        return iter(self._entries)
