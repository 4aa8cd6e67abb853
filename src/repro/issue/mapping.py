"""Register → queue mapping table (the "Qrename" structure).

Both FIFO schemes and MixBUFF steer a dispatched instruction to the queue
holding its producer. The hardware is a small RAM indexed by logical
register: the FIFO schemes store a queue identifier, MixBUFF stores a
(queue, chain) pair. An entry is only *valid* while its producer is still
the tail of that queue/chain; rather than invalidating every register
entry when a queue's tail changes (expensive), each queue/chain remembers
which register its tail produces and validity is the agreement of the two
— exactly the generation-check trick hardware uses.

The table is indexed by *logical* register and is simply cleared on a
branch misprediction (the paper found regeneration unnecessary).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.common.stats import StatCounters
from repro.isa.instructions import RegisterRef

__all__ = ["QueueRenameTable"]


class QueueRenameTable:
    """Logical register → the location whose tail produces it.

    A *location* is where a scheme appends instructions: a FIFO queue
    index for the FIFO schemes, a ``(queue, chain)`` pair for MixBUFF,
    whose chain is extended only by a consumer of its *last dispatched*
    instruction (Section 3.2.1: "an instruction is placed in the same
    queue as its predecessor only if it is the last instruction of the
    chain"). Every access counts as a ``qrename`` event, the Qrename RAM
    the energy model prices for every multi-queue scheme.
    """

    def __init__(self, events: StatCounters) -> None:
        self._map: Dict[Tuple[bool, int], Hashable] = {}
        self._tail_reg: Dict[Hashable, Tuple[bool, int]] = {}
        self.events = events

    def producer(self, ref: RegisterRef) -> Optional[Hashable]:
        """Location whose tail produces ``ref``, or None."""
        self.events.add("qrename_read")
        key = (ref.is_fp, ref.index)
        location = self._map.get(key)
        if location is None or self._tail_reg.get(location) != key:
            return None  # never mapped, or someone else is the tail now
        return location

    def set_tail(self, location: Hashable, dest: Optional[RegisterRef]) -> None:
        """Instruction dispatched to ``location``; it is the new tail.

        Instructions without a destination (stores, branches) write
        nothing into the table — the hardware table is indexed by
        destination register, so a dest-less tail leaves the previous
        producer's entry in place. A consumer placed behind it still
        follows its producer in queue order, so the dependence-order
        guarantee is preserved.
        """
        if dest is None:
            return
        self.events.add("qrename_write")
        key = (dest.is_fp, dest.index)
        self._map[key] = location
        self._tail_reg[location] = key

    def retire(self, location: Hashable) -> None:
        """``location`` holds no instructions any more; forget its tail."""
        self._tail_reg.pop(location, None)

    def clear(self) -> None:
        """Branch misprediction: wipe the whole table."""
        self._map.clear()
        self._tail_reg.clear()
