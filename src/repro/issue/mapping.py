"""Register → queue mapping tables (the "Qrename" structures).

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

from typing import Dict, Optional, Tuple

from repro.common.stats import StatCounters
from repro.isa.instructions import RegisterRef

__all__ = ["QueueRenameTable", "ChainRenameTable"]


def _key(ref: RegisterRef) -> Tuple[bool, int]:
    return (ref.is_fp, ref.index)


class QueueRenameTable:
    """Logical register → FIFO queue holding its producer at the tail."""

    def __init__(self, events: StatCounters) -> None:
        self._map: Dict[Tuple[bool, int], int] = {}
        self._tail_reg: Dict[int, Optional[Tuple[bool, int]]] = {}
        self.events = events

    def queue_of(self, ref: RegisterRef) -> Optional[int]:
        """Queue whose tail produces ``ref``, or None."""
        self.events.add("qrename_read")
        key = _key(ref)
        queue = self._map.get(key)
        if queue is None:
            return None
        if self._tail_reg.get(queue) != key:
            return None  # someone else is the tail now
        return queue

    def set_tail(self, queue: int, dest: Optional[RegisterRef]) -> None:
        """Instruction dispatched to ``queue``; it is the new tail.

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
        key = _key(dest)
        self._map[key] = queue
        self._tail_reg[queue] = key

    def clear(self) -> None:
        """Branch misprediction: wipe the whole table."""
        self._map.clear()
        self._tail_reg.clear()


class ChainRenameTable:
    """Logical register → (queue, chain) for MixBUFF.

    Each chain remembers the register its *last dispatched* instruction
    produces; an instruction extends a chain only if one of its sources
    is that register (Section 3.2.1: "an instruction is placed in the
    same queue as its predecessor only if it is the last instruction of
    the chain"). Its accesses are counted as ``qrename`` events, the
    Qrename RAM the energy model prices for every multi-queue scheme.
    """

    def __init__(self, events: StatCounters) -> None:
        self._map: Dict[Tuple[bool, int], Tuple[int, int]] = {}
        self._tail_reg: Dict[Tuple[int, int], Optional[Tuple[bool, int]]] = {}
        self.events = events

    def chain_of(self, ref: RegisterRef) -> Optional[Tuple[int, int]]:
        """(queue, chain) whose last instruction produces ``ref``."""
        self.events.add("qrename_read")
        key = _key(ref)
        qc = self._map.get(key)
        if qc is None:
            return None
        if self._tail_reg.get(qc) != key:
            return None
        return qc

    def set_tail(self, queue: int, chain: int, dest: Optional[RegisterRef]) -> None:
        """Instruction dispatched to (queue, chain); it is the new tail.

        As in :class:`QueueRenameTable`, dest-less instructions leave the
        previous producer's entry valid.
        """
        if dest is None:
            return
        self.events.add("qrename_write")
        qc = (queue, chain)
        key = _key(dest)
        self._map[key] = qc
        self._tail_reg[qc] = key

    def chain_retired(self, queue: int, chain: int) -> None:
        """Chain has no instructions left in the queue; forget its tail."""
        self._tail_reg.pop((queue, chain), None)

    def clear(self) -> None:
        """Branch misprediction: wipe the whole table."""
        self._map.clear()
        self._tail_reg.clear()
