"""Functional units and their binding to issue queues (Section 3.3).

Pipelined units (ALUs, multipliers) accept one instruction per cycle;
divides occupy their mul/div unit for the full latency. Which units a
queue may use is decided here, and only here, from
``IssueSchemeConfig.distributed_fus``:

* pooled (the baseline): every queue of a side may use any unit of the
  right type;
* distributed (Section 3.3): each queue owns specific units — one
  integer ALU per integer queue, one integer mul/div unit per pair of
  integer queues, one FP adder and one FP mul/div unit per pair of FP
  queues.

Loads, stores and branches execute on integer ALUs (address/target
computation), as in SimpleScalar.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import ProcessorConfig
from repro.core.uop import InFlight
from repro.isa.opcodes import FuType, latency_for

__all__ = ["FunctionalUnit", "FuPool"]


class FunctionalUnit:
    """One execution unit."""

    __slots__ = ("fu_type", "busy_until", "last_issue_cycle")

    def __init__(self, fu_type: FuType) -> None:
        self.fu_type = fu_type
        self.busy_until = -1  # unpipelined occupancy (divides)
        self.last_issue_cycle = -1


class FuPool:
    """Every functional unit, and the bank of units each queue may use.

    ``_banks[fu_type.slot][queue_index]`` lists the units of one type
    that a queue of the type's side may start an op on, in allocation
    order. Under pooled binding all queues of a side share one bank;
    under distributed binding each bank holds the queue's own unit.
    Every caller names the queue it issues from (the conventional
    scheme's one queue per side is queue 0).
    """

    def __init__(self, config: ProcessorConfig) -> None:
        fus = config.fus
        fus.validate()
        scheme = config.scheme
        self._fus = fus
        self.units: List[FunctionalUnit] = []
        self._banks: List[List[List[FunctionalUnit]]] = [[] for __ in FuType]
        for fu_type, count, queues in (
            (FuType.INT_ALU, fus.int_alu_count, scheme.int_queues),
            (FuType.INT_MULDIV, fus.int_muldiv_count, scheme.int_queues),
            (FuType.FP_ALU, fus.fp_alu_count, scheme.fp_queues),
            (FuType.FP_MULDIV, fus.fp_muldiv_count, scheme.fp_queues),
        ):
            if scheme.distributed_fus:
                # An integer ALU per queue; every other unit per pair.
                share = 1 if fu_type is FuType.INT_ALU else 2
                units = [FunctionalUnit(fu_type) for __ in range((queues + share - 1) // share)]
                banks = [[units[queue // share]] for queue in range(queues)]
            else:
                units = [FunctionalUnit(fu_type) for __ in range(count)]
                banks = [units] * queues
            self.units.extend(units)
            self._banks[fu_type.slot] = banks

    def try_allocate(self, uop: InFlight, cycle: int, queue_index: int) -> bool:
        """Start ``uop`` on the first unit of its queue's bank free at
        ``cycle``; False (and no change) if none is.

        A unit is free when nothing started on it this cycle and no
        unpipelined op (a divide) still occupies it; such an op holds
        its unit for its whole latency.
        """
        for unit in self._banks[uop.fu_type.slot][queue_index]:
            if cycle > unit.busy_until and cycle > unit.last_issue_cycle:
                unit.last_issue_cycle = cycle
                op = uop.op
                if not op.pipelined:
                    unit.busy_until = cycle + latency_for(op, self._fus) - 1
                return True
        return False

    def can_allocate(self, fu_type: FuType, cycle: int, queue_index: int) -> bool:
        """Non-destructive probe: could an op of this type start now?

        Distributed selection logic is physically next to its own
        functional units, so letting it see their busy state costs no
        wiring — MixBUFF's per-queue selector uses this to avoid picking
        an instruction whose unit cannot accept it this cycle.
        """
        for unit in self._banks[fu_type.slot][queue_index]:
            if cycle > unit.busy_until and cycle > unit.last_issue_cycle:
                return True
        return False

    def next_activity_cycle(self, cycle: int) -> Optional[int]:
        """Skipping-kernel contract: next cycle a busy unit frees up.

        An unpipelined op (a divide) occupies its unit through
        ``busy_until``; an instruction whose operands are ready may be
        waiting solely on that unit, so the cycle after it frees is a
        wake event. ``last_issue_cycle`` needs no timer: it only blocks
        the issue cycle itself, and a cycle in which something issued is
        never quiescent.
        """
        upcoming = [
            unit.busy_until + 1 for unit in self.units if unit.busy_until + 1 >= cycle
        ]
        return min(upcoming) if upcoming else None
