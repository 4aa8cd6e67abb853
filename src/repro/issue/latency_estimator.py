"""Dispatch-time issue-cycle estimation (Section 3.1).

Implements the paper's recurrence verbatim::

    IssueCycle = MAX(current_cycle + 1, OpLeftCycle, OpRightCycle)
    if inst is load:  IssueCycle = MAX(IssueCycle, AllStoreAddr)
    if inst is store: AllStoreAddr = MAX(AllStoreAddr,
                                         IssueCycle + AddressLatency)
    if inst has dest: DestCycle = IssueCycle + InstructionLatency

``OpLeftCycle`` / ``OpRightCycle`` are the estimated availability cycles
of the operands (``DestCycle`` of their most recent producer, 0 for
live-in values). The L1 hit latency is assumed for loads — the paper
verified that knowing the exact memory latency does not change the
results. The computation is assumed to fit in one cycle (the paper notes
this may be optimistic; it is the same assumption for every scheme that
uses the estimator).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.config import ProcessorConfig
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OpClass, latency_for

__all__ = ["IssueTimeEstimator", "value_latency"]


def value_latency(op: OpClass, config: ProcessorConfig) -> int:
    """Estimated cycles from issue to value availability for ``op``.

    A load's value arrives after its address computation plus an L1 hit;
    any other op's value arrives after its own execution latency.
    """
    if op.is_load:
        return config.fus.address_latency + config.dcache.hit_latency
    return latency_for(op, config.fus)


class IssueTimeEstimator:
    """Tracks estimated operand availability per logical register."""

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self._dest_cycle: Dict[Tuple[bool, int], int] = {}
        self._all_store_addr = 0

    def operand_cycle(self, ref) -> int:
        """Estimated cycle when ``ref``'s value is available (0 = ready)."""
        return self._dest_cycle.get((ref.is_fp, ref.index), 0)

    def estimate(self, inst: Instruction, cycle: int) -> int:
        """Estimated issue cycle of ``inst`` dispatched at ``cycle``.

        Updates the estimator state (DestCycle / AllStoreAddr), so call
        exactly once per dispatched instruction, in program order.
        """
        issue = cycle + 1
        # Stores issue their address computation; the data operand
        # (srcs[0] by trace convention) does not gate issue.
        srcs = inst.srcs[1:] if inst.op.is_store and len(inst.srcs) > 1 else inst.srcs
        for ref in srcs:
            operand = self.operand_cycle(ref)
            if operand > issue:
                issue = operand
        if inst.op.is_load and self._all_store_addr > issue:
            issue = self._all_store_addr
        if inst.op.is_store:
            addr_known = issue + self.config.fus.address_latency
            if addr_known > self._all_store_addr:
                self._all_store_addr = addr_known
        if inst.dest is not None:
            self._dest_cycle[(inst.dest.is_fp, inst.dest.index)] = (
                issue + value_latency(inst.op, self.config)
            )
        return issue

    def reset(self) -> None:
        """Forget all state (used by tests between programs)."""
        self._dest_cycle.clear()
        self._all_store_addr = 0
