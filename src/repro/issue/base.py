"""Common interface between the pipeline and the issue-queue schemes.

The pipeline is scheme-agnostic: at dispatch it offers instructions in
program order via :meth:`IssueScheme.try_dispatch` (a ``False`` return
stalls dispatch, which is exactly the paper's dispatch-stall condition),
and each cycle it asks the scheme to :meth:`IssueScheme.select_and_issue`
through an :class:`IssueContext` that centralizes the checks every scheme
shares: operand readiness, functional-unit availability, issue-width
budgets, memory-port budget and load disambiguation gating.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.config import ProcessorConfig
from repro.common.stats import StatCounters
from repro.core.functional_units import FuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight

__all__ = ["IssueContext", "IssueScheme"]


class IssueContext:
    """Per-cycle issue resources and checks.

    ``issue`` performs every check and, on success, reserves the
    resources and asks the pipeline (via ``complete_fn``) to schedule the
    instruction's completion. Schemes only decide *which* instructions to
    offer and in what order.
    """

    def __init__(
        self,
        cycle: int,
        config: ProcessorConfig,
        scoreboard: Scoreboard,
        fu_pool: FuPool,
        lsq: LoadStoreQueue,
        complete_fn: Callable[[InFlight, int], None],
    ) -> None:
        self.cycle = cycle
        self.scoreboard = scoreboard
        self.fu_pool = fu_pool
        self.lsq = lsq
        self._complete_fn = complete_fn
        self.int_budget = config.int_issue_width
        self.fp_budget = config.fp_issue_width
        self.memory_budget = config.dcache.ports
        self.issued: List[InFlight] = []

    def issue(self, uop: InFlight, queue_index: int) -> bool:
        """Try to issue ``uop`` from queue ``queue_index`` now; reserves
        resources on success.

        Checks in order: the side's issue-width budget, the memory-port
        budget, operand readiness, load gating, then a free functional
        unit that the queue may use. A rejected issue has no side
        effects; the conventional queue's ready-bound short-circuit and
        the generated kernel's pregates rely on that.

        For stores only the address operands must be ready — the data
        is read at commit (Section 3.1 splits stores into address
        computation and memory access). A load waits on older stores:
        every one must have issued (so addresses are known for
        disambiguation), and any it would forward from must have its
        data availability scheduled.
        """
        op = uop.op
        is_fp = op.is_fp
        if (self.fp_budget if is_fp else self.int_budget) <= 0:
            return False
        is_memory = op.is_memory
        if is_memory and self.memory_budget <= 0:
            return False
        cycle = self.cycle
        if not self.scoreboard.all_ready(uop.issue_srcs, cycle):
            return False
        if op.is_load and (
            not self.lsq.can_issue_load(uop.seq)
            or self.lsq.load_blocked_on_store_data(uop, self.scoreboard)
        ):
            return False
        if not self.fu_pool.try_allocate(uop, cycle, queue_index):
            return False
        if is_fp:
            self.fp_budget -= 1
        else:
            self.int_budget -= 1
        if is_memory:
            self.memory_budget -= 1
        self._complete_fn(uop, cycle)
        self.issued.append(uop)
        return True


class IssueScheme:
    """Base class for the four issue-queue organizations."""

    name = "abstract"

    def __init__(self, config: ProcessorConfig, events: StatCounters) -> None:
        self.config = config
        self.events = events

    # -- dispatch ----------------------------------------------------
    def try_dispatch(self, uop: InFlight, cycle: int) -> bool:
        """Place ``uop``; return False to stall dispatch this cycle."""
        raise NotImplementedError

    # -- issue -------------------------------------------------------
    def select_and_issue(self, ctx: IssueContext) -> List[InFlight]:
        """Issue instructions for this cycle; returns those issued."""
        raise NotImplementedError

    # -- notifications -----------------------------------------------
    def on_result_broadcast(self, cycle: int, broadcasts: int) -> None:
        """``broadcasts`` results completed this cycle (wakeup energy)."""

    def on_mispredict_resolved(self) -> None:
        """A mispredicted branch resolved; clear register→queue tables.

        The paper observes that clearing (rather than repairing) the
        mapping table costs no significant performance and simplifies the
        hardware; we model the clear.
        """

    # -- skipping-kernel contract ------------------------------------
    def next_activity_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle at which the scheme's behaviour could change
        without any pipeline activity occurring first.

        Most schemes are purely event-driven: operand readiness changes
        arrive with result broadcasts, queue contents change only on
        issue/dispatch, and a refused placement is unblocked only by
        such activity, so the default is ``None``. MixBUFF overrides
        this with its chain-latency code boundaries, whose 2-bit
        compression is a function of the cycle number; LatFIFO with the
        current cycle right after a refused FP placement.
        """
        return None

    # -- introspection -----------------------------------------------
    def occupancy(self) -> int:
        """Instructions currently waiting in the issue queue(s)."""
        raise NotImplementedError
