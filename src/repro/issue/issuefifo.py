"""IssueFIFO: Palacharla-style dependence-based FIFO queues on both sides.

The organization the paper evaluates as ``IssueFIFO_AxB_CxD`` and, with
distributed functional units (Section 3.3), as ``IF_distr``. No wakeup
logic exists: FIFO heads poll the ready-register table each cycle.
"""

from __future__ import annotations

from typing import List

from repro.common.config import ProcessorConfig
from repro.common.stats import StatCounters
from repro.core.uop import InFlight
from repro.issue.base import IssueContext, IssueScheme
from repro.issue.fifo_side import FifoSide

__all__ = ["IssueFifoScheme"]


class IssueFifoScheme(IssueScheme):
    """Dependence-based FIFOs for both the integer and FP sides.

    Skipping-kernel notes: placement and head-issue decisions depend
    only on queue contents, the mapping table and operand readiness —
    all event-driven — so the scheme needs no wake timers of its own
    (the base-class ``next_activity_cycle`` contract of ``None``).
    """

    name = "issuefifo"

    def __init__(self, config: ProcessorConfig, events: StatCounters) -> None:
        super().__init__(config, events)
        scheme = config.scheme
        self.int_side = FifoSide(
            False, scheme.int_queues, scheme.int_queue_entries, events
        )
        self.fp_side = FifoSide(
            True, scheme.fp_queues, scheme.fp_queue_entries, events
        )

    def _side_for(self, uop: InFlight) -> FifoSide:
        return self.fp_side if uop.op.is_fp else self.int_side

    def try_dispatch(self, uop: InFlight, cycle: int) -> bool:
        return self._side_for(uop).try_place(uop, cycle)

    def select_and_issue(self, ctx: IssueContext) -> List[InFlight]:
        issued = self.int_side.issue_heads(ctx)
        issued += self.fp_side.issue_heads(ctx)
        return issued

    def on_result_broadcast(self, cycle: int, broadcasts: int) -> None:
        # Completing results set their ready bit in the regs_ready table.
        self.events.add("regs_ready_write", broadcasts)

    def on_mispredict_resolved(self) -> None:
        self.int_side.clear_mapping()
        self.fp_side.clear_mapping()

    def occupancy(self) -> int:
        return self.int_side.occupancy() + self.fp_side.occupancy()
