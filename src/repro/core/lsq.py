"""Load/store queue: memory disambiguation and store forwarding.

The model matches the paper's Section 3.1 description: loads and stores
are split into address computation and memory access, and a load's memory
access may begin only once *every* older store's address is known (no
speculative disambiguation). A load whose address matches an older
in-flight store forwards the store's data.

Issue-order constraint: a load may be issued only when all older stores
have already issued (their address-known cycles are then scheduled).
This is slightly conservative but uniform across all issue schemes, so
it does not bias the comparison. A store completes when its address is
computed, so its ``complete_cycle`` is its address-known cycle.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import SimulationError
from repro.core.uop import InFlight

__all__ = ["LoadStoreQueue"]

_FORWARD_GRANULARITY = 8  # bytes: address match granularity for forwarding


class LoadStoreQueue:
    """Tracks in-flight stores for disambiguation and forwarding."""

    def __init__(self) -> None:
        # Stores indexed by seq, ordered (dict preserves insertion order).
        self._stores: Dict[int, InFlight] = {}
        self._unissued_stores = 0
        self.forwarded_loads = 0

    def add_store(self, uop: InFlight) -> None:
        """Register a dispatched store."""
        if not uop.op.is_store:
            raise SimulationError("add_store on a non-store")
        self._stores[uop.seq] = uop
        self._unissued_stores += 1

    def store_issued(self, uop: InFlight) -> None:
        """Record that a store's address computation has issued."""
        if uop.seq not in self._stores:
            raise SimulationError("store_issued for unknown store")
        self._unissued_stores -= 1

    def can_issue_load(self, load_seq: int) -> bool:
        """True if every store older than ``load_seq`` has issued."""
        if self._unissued_stores == 0:
            return True
        for seq, store in self._stores.items():
            if seq >= load_seq:
                break
            if store.complete_cycle is None:
                return False
        return True

    def load_blocked_on_store_data(self, load: InFlight, scoreboard) -> bool:
        """True if the load would forward from a store whose data is not
        even scheduled yet (its producer has not issued).

        Called after :meth:`can_issue_load` holds, so every older store's
        address is known. A load that forwards must wait until the
        store's data has a known availability cycle; issuing it earlier
        would be a use of an unwritten value.
        """
        load_block = (load.inst.mem_addr or 0) // _FORWARD_GRANULARITY
        blocked = False
        for seq, store in self._stores.items():
            if seq >= load.seq:
                break
            if (store.inst.mem_addr or 0) // _FORWARD_GRANULARITY != load_block:
                continue
            data_phys = store.src_phys[0] if store.src_phys else None
            blocked = data_phys is not None and not scoreboard.is_scheduled(data_phys)
        return blocked

    def load_access_constraints(self, load: InFlight, addr_ready_cycle: int) -> tuple:
        """When may the load's memory access begin, and is it forwarded?

        Returns ``(start_cycle, forwarding_store_or_None)``. The start
        cycle is the max of the load's own address-ready cycle and every
        older store's address-known cycle. Callers must have ensured
        :meth:`can_issue_load` was True at issue.
        """
        start = addr_ready_cycle
        forwarding: Optional[InFlight] = None
        load_block = (load.inst.mem_addr or 0) // _FORWARD_GRANULARITY
        for seq, store in self._stores.items():
            if seq >= load.seq:
                break
            known = store.complete_cycle
            if known is None:
                raise SimulationError("load issued before older store (gating bug)")
            if known > start:
                start = known
            if (store.inst.mem_addr or 0) // _FORWARD_GRANULARITY == load_block:
                forwarding = store  # youngest older matching store wins
        if forwarding is not None:
            self.forwarded_loads += 1
        return start, forwarding

    def retire_store(self, uop: InFlight) -> None:
        """Remove a store at commit."""
        if self._stores.pop(uop.seq, None) is None:
            raise SimulationError("retiring unknown store")
