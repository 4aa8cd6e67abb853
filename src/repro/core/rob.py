"""Reorder buffer: in-order commit and age identifiers.

The ROB is a bounded FIFO of :class:`~repro.core.uop.InFlight` entries.
Ages are monotone dispatch sequence numbers — the paper implements them
as "the reorder buffer position plus one extra wrap bit"; a monotone
integer is the software equivalent (the comparison outcomes are
identical).
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
        self._next_age = 0

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def allocate_age(self) -> int:
        """Next age identifier (call only when actually dispatching)."""
        age = self._next_age
        self._next_age += 1
        return age

    def rollback_age(self) -> None:
        """Un-allocate the most recently allocated age.

        Dispatch allocates an age before asking the issue scheme for a
        placement; when placement fails the instruction retries next
        cycle and must get the *same* age again, or ages stop being dense
        dispatch sequence numbers. Only the latest allocation can be
        rolled back, and only while no instruction holds it — rolling
        back an age already pushed into the ROB would let a younger
        instruction reuse it.
        """
        if self._next_age == 0:
            raise SimulationError("no age allocated yet — nothing to roll back")
        if self._entries and self._entries[-1].age >= self._next_age - 1:
            raise SimulationError("cannot roll back an age already in the ROB")
        self._next_age -= 1

    def push(self, uop: InFlight) -> None:
        """Append a newly dispatched instruction (must be in age order)."""
        if self.full:
            raise SimulationError("ROB overflow — dispatch must check full")
        if self._entries and uop.age <= self._entries[-1].age:
            raise SimulationError("ROB push out of age order")
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
