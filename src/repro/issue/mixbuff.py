"""MixBUFF: the paper's proposed FP issue organization (Section 3.2).

FP instructions live in RAM *buffers* (not FIFOs): placement follows
dependence chains as in IssueFIFO, but each queue may hold several
independent chains, instructions need not be issued in the order they
were placed, and each queue's tiny selection logic picks **one**
instruction per cycle using the chain-latency table plus age priority
(see :mod:`repro.issue.selection`). No wakeup logic exists anywhere: a
selected instruction simply checks its operands' ready bits; if the check
fails (its producer was a cache-missing load or lives in another queue),
it stays queued, and once its chain has finished its latency code
(``01``) loses priority to first-time candidates (``00``).

The integer side is a plain IssueFIFO side, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import ProcessorConfig
from repro.common.stats import StatCounters
from repro.core.uop import InFlight
from repro.issue.base import IssueContext, IssueScheme
from repro.issue.fifo_side import FifoSide
from repro.issue.latency_estimator import value_latency
from repro.issue.mapping import QueueRenameTable
from repro.issue.selection import SelectableEntry, select_entry

__all__ = ["MixBuffScheme", "MixBuffSide"]

_FAR_FUTURE = 1 << 20  # chain not ready: reads as "2 or more cycles"


class _Chain:
    """Bookkeeping for one live chain inside a queue.

    ``starter`` is the chain's first instruction while it has not issued
    yet. A chain head's operands come from outside the queue (a load or
    another queue's chain), so until the starter's operands have a known
    availability cycle the chain reads as *not ready* in the latency
    table — the ready bits that drive this are the same regs_ready
    information the scheme already reads each cycle.
    """

    __slots__ = ("chain_id", "pending", "completion_cycle", "starter")

    def __init__(self, chain_id: int) -> None:
        self.chain_id = chain_id
        self.pending = 0  # instructions of this chain still in the queue
        self.completion_cycle = 0  # last issued instruction's finish cycle
        self.starter: Optional[InFlight] = None


class MixBuffSide:
    """The FP buffers of MixBUFF."""

    def __init__(
        self,
        num_queues: int,
        entries_per_queue: int,
        max_chains: Optional[int],
        config: ProcessorConfig,
        events: StatCounters,
    ) -> None:
        self.num_queues = num_queues
        self.entries_per_queue = entries_per_queue
        self.max_chains = max_chains
        self.config = config
        self.events = events
        self.table = QueueRenameTable(events)
        self.queues: List[List[InFlight]] = [[] for __ in range(num_queues)]
        self.chains: List[Dict[int, _Chain]] = [{} for __ in range(num_queues)]

    # -- placement ----------------------------------------------------
    def _queue_full(self, index: int) -> bool:
        return len(self.queues[index]) >= self.entries_per_queue

    def _lowest_free_chain(self) -> Optional[Tuple[int, int]]:
        """Free (queue, chain) with the paper's balancing priority.

        Chains are scanned in the order chain 0 of queue 0, chain 0 of
        queue 1, ..., chain 1 of queue 0, ... so busy chains spread
        evenly across the queues. With unbounded chains the scan always
        terminates at the first chain id not used by some non-full queue.
        """
        limit = self.max_chains if self.max_chains is not None else self.entries_per_queue
        for chain_id in range(limit):
            for queue_index in range(self.num_queues):
                if self._queue_full(queue_index):
                    continue
                if chain_id not in self.chains[queue_index]:
                    return queue_index, chain_id
        return None

    def try_place(self, uop: InFlight, cycle: int) -> bool:
        """Chain-extending placement, else lowest free chain, else stall."""
        # Prefer extending the chain of a source operand whose producer
        # is that chain's last dispatched instruction.
        for ref in uop.inst.srcs:
            qc = self.table.producer(ref)
            if qc is None:
                continue
            queue_index, chain_id = qc
            if self._queue_full(queue_index):
                continue
            chain = self.chains[queue_index].get(chain_id)
            if chain is None:
                continue
            self._append(uop, queue_index, chain)
            return True
        free = self._lowest_free_chain()
        if free is None:
            return False
        queue_index, chain_id = free
        chain = _Chain(chain_id)
        chain.starter = uop
        self.chains[queue_index][chain_id] = chain
        self._append(uop, queue_index, chain)
        return True

    def _append(self, uop: InFlight, queue_index: int, chain: _Chain) -> None:
        uop.queue_index = queue_index
        uop.chain_id = chain.chain_id
        chain.pending += 1
        self.queues[queue_index].append(uop)
        self.table.set_tail((queue_index, chain.chain_id), uop.inst.dest)
        self.events.add("mb_buff_write")

    # -- issue ----------------------------------------------------------
    def issue_one_per_queue(self, ctx: IssueContext) -> List[InFlight]:
        """Run each queue's selector and try to issue its pick."""
        issued: List[InFlight] = []
        for queue_index, queue in enumerate(self.queues):
            if not queue:
                continue
            # Per-cycle energy: the chain-latency table is fully read and
            # written, and the selection logic runs.
            self.events.add("chains_read")
            self.events.add("chains_write")
            self.events.add("mb_select_cycles")
            completion = {
                chain_id: self._chain_completion(chain, ctx)
                for chain_id, chain in self.chains[queue_index].items()
            }
            entries = [
                SelectableEntry(uop.chain_id, uop.seq, uop)
                for uop in queue
                # The selector sits next to this queue's functional
                # units; it never picks an instruction whose unit cannot
                # accept work this cycle.
                if ctx.fu_pool.can_allocate(uop.fu_type, ctx.cycle, queue_index)
            ]
            pick = select_entry(entries, completion, ctx.cycle)
            if pick is None:
                continue
            uop: InFlight = pick.payload
            self.events.add("mb_reg_write")  # latch the selected instruction
            self.events.add("regs_ready_read", len(uop.src_phys))
            if ctx.issue(uop, queue_index):
                self._remove_issued(uop, ctx.cycle)
                issued.append(uop)
        return issued

    def _chain_completion(self, chain: _Chain, ctx: IssueContext) -> int:
        """Effective completion cycle of a chain's last producer.

        While the chain's starter has not issued, readiness is governed
        by the starter's own operands: unknown availability reads as
        "2 or more cycles" (code 11); a known availability cycle behaves
        like a chain predecessor finishing then.
        """
        starter = chain.starter
        if starter is None:
            return chain.completion_cycle
        latest = chain.completion_cycle
        for phys in starter.issue_srcs:
            if not ctx.scoreboard.is_scheduled(phys):
                return ctx.cycle + _FAR_FUTURE
            ready = ctx.scoreboard.ready_cycle(phys)
            if ready > latest:
                latest = ready
        return latest

    def _remove_issued(self, uop: InFlight, cycle: int) -> None:
        queue_index = uop.queue_index
        self.queues[queue_index].remove(uop)
        self.events.add("mb_buff_read")
        chain = self.chains[queue_index][uop.chain_id]
        if chain.starter is uop:
            chain.starter = None
        chain.pending -= 1
        chain.completion_cycle = cycle + value_latency(uop.op, self.config)
        if chain.pending == 0:
            # Chain drained: free its identifier and retire its mapping
            # so later consumers start fresh chains.
            del self.chains[queue_index][uop.chain_id]
            self.table.retire((queue_index, uop.chain_id))

    # -- skipping-kernel support ------------------------------------------
    def next_code_boundary(self, cycle: int, scoreboard) -> Optional[int]:
        """Next cycle a chain's 2-bit latency code can change by itself.

        The selector compresses ``completion - cycle`` into the codes
        ``not-ready`` / ``finishes-next-cycle`` / ``finished``, so with
        frozen state a queue's selection outcome can still change at the
        cycles ``completion - 1`` and ``completion`` of any live chain.
        Chains whose starter has an unscheduled operand read as
        not-ready at *every* cycle (the far-future sentinel) and
        contribute no boundary; their transition is a broadcast or issue
        event the wheel already tracks.
        """
        earliest: Optional[int] = None
        for queue_index, queue in enumerate(self.queues):
            if not queue:
                continue
            for chain in self.chains[queue_index].values():
                completion = chain.completion_cycle
                starter = chain.starter
                if starter is not None:
                    if not all(
                        scoreboard.is_scheduled(phys) for phys in starter.issue_srcs
                    ):
                        continue  # reads as not-ready regardless of cycle
                    for phys in starter.issue_srcs:
                        ready = scoreboard.ready_cycle(phys)
                        if ready > completion:
                            completion = ready
                for boundary in (completion - 1, completion):
                    if boundary >= cycle and (earliest is None or boundary < earliest):
                        earliest = boundary
        return earliest

    # -- misc -------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(map(len, self.queues))  # hot path: called every cycle

    def live_chains(self) -> int:
        return sum(len(chains) for chains in self.chains)

    def clear_mapping(self) -> None:
        self.table.clear()


class MixBuffScheme(IssueScheme):
    """IssueFIFO integer side + MixBUFF FP buffers."""

    name = "mixbuff"

    def __init__(self, config: ProcessorConfig, events: StatCounters) -> None:
        super().__init__(config, events)
        scheme = config.scheme
        self.int_side = FifoSide(
            False, scheme.int_queues, scheme.int_queue_entries, events
        )
        self.fp_side = MixBuffSide(
            scheme.fp_queues,
            scheme.fp_queue_entries,
            scheme.max_chains_per_queue,
            config,
            events,
        )
        self._scoreboard = None

    def bind_scoreboard(self, scoreboard) -> None:
        """Scoreboard access for chain-code boundary prediction."""
        self._scoreboard = scoreboard

    def try_dispatch(self, uop: InFlight, cycle: int) -> bool:
        if uop.op.is_fp:
            return self.fp_side.try_place(uop, cycle)
        return self.int_side.try_place(uop, cycle)

    def select_and_issue(self, ctx: IssueContext) -> List[InFlight]:
        issued = self.int_side.issue_heads(ctx)
        issued += self.fp_side.issue_one_per_queue(ctx)
        return issued

    def on_result_broadcast(self, cycle: int, broadcasts: int) -> None:
        self.events.add("regs_ready_write", broadcasts)

    def on_mispredict_resolved(self) -> None:
        self.int_side.clear_mapping()
        self.fp_side.clear_mapping()

    def next_activity_cycle(self, cycle: int) -> Optional[int]:
        """Chain-latency code boundaries (see ``next_code_boundary``)."""
        if self._scoreboard is None:
            return cycle  # unbound (tests): never skip, always exact
        return self.fp_side.next_code_boundary(cycle, self._scoreboard)

    def occupancy(self) -> int:
        return self.int_side.occupancy() + self.fp_side.occupancy()
