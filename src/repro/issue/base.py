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

from typing import Callable, Dict, List, Optional

from repro.common.config import ProcessorConfig
from repro.common.stats import StatCounters
from repro.core.functional_units import FuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight
from repro.isa.opcodes import latency_for

__all__ = ["IssueContext", "IssueScheme", "SideIdleCountersMixin"]


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
        self.config = config
        self.scoreboard = scoreboard
        self.fu_pool = fu_pool
        self.lsq = lsq
        self._complete_fn = complete_fn
        self.int_budget = config.int_issue_width
        self.fp_budget = config.fp_issue_width
        self.memory_budget = config.dcache.ports
        self.issued: List[InFlight] = []

    def operands_ready(self, uop: InFlight) -> bool:
        """All issue-relevant operands available to an instruction issuing now.

        For stores this is the address operands only — the data is read
        at commit (Section 3.1 splits stores into address computation
        and memory access).
        """
        return self.scoreboard.all_ready(uop.issue_srcs, self.cycle)

    def load_gated(self, uop: InFlight) -> bool:
        """True if a load must wait on older stores.

        Two conditions gate a load: every older store must have issued
        (so addresses are known for disambiguation), and any older store
        it would forward from must have its data availability scheduled.
        """
        if not uop.op.is_load:
            return False
        if not self.lsq.can_issue_load(uop.seq):
            return True
        return self.lsq.load_blocked_on_store_data(uop, self.scoreboard)

    def _budget_ok(self, uop: InFlight) -> bool:
        side_budget = self.fp_budget if uop.op.is_fp else self.int_budget
        if side_budget <= 0:
            return False
        if uop.op.is_memory and self.memory_budget <= 0:
            return False
        return True

    def can_issue(self, uop: InFlight, queue_index: Optional[int] = None) -> bool:
        """All checks except FU reservation (non-destructive)."""
        return (
            self._budget_ok(uop)
            and self.operands_ready(uop)
            and not self.load_gated(uop)
        )

    def issue(self, uop: InFlight, queue_index: Optional[int] = None) -> bool:
        """Try to issue ``uop`` now; reserves resources on success."""
        if not self.can_issue(uop, queue_index):
            return False
        latency = latency_for(uop.op, self.config.fus)
        if not self.fu_pool.try_allocate(uop.fu_type, uop.op, latency, self.cycle, queue_index):
            return False
        if uop.op.is_fp:
            self.fp_budget -= 1
        else:
            self.int_budget -= 1
        if uop.op.is_memory:
            self.memory_budget -= 1
        uop.issue_cycle = self.cycle
        self._complete_fn(uop, self.cycle)
        self.issued.append(uop)
        return True


class SideIdleCountersMixin:
    """Idle-counter plumbing for schemes built from two side objects.

    Assumes ``int_side`` / ``fp_side`` attributes each exposing
    ``idle_counters()`` / ``apply_idle_counters(before, n)`` (see
    :class:`~repro.issue.fifo_side.FifoSide`).
    """

    def idle_counters(self) -> Dict[str, dict]:
        return {
            "int": self.int_side.idle_counters(),
            "fp": self.fp_side.idle_counters(),
        }

    def apply_idle_counters(self, before: Dict[str, dict], n_cycles: int) -> None:
        self.int_side.apply_idle_counters(before["int"], n_cycles)
        self.fp_side.apply_idle_counters(before["fp"], n_cycles)


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

    def on_cycle_end(self, cycle: int) -> None:
        """Per-cycle energy bookkeeping hook.

        Skip-safety contract: implementations may only move counters as
        a pure function of frozen scheme state (the skipping kernel
        replays a measured quiescent cycle's counter delta in closed
        form); they must not make cycle-number-dependent decisions
        unless those boundaries are reported by
        :meth:`next_activity_cycle`.
        """

    # -- skipping-kernel contract ------------------------------------
    def next_activity_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle at which the scheme's *issue-side* behaviour could
        change without any pipeline activity occurring first.

        Most schemes are purely event-driven: operand readiness changes
        arrive with result broadcasts and queue contents change only on
        issue/dispatch, so the default is ``None``. MixBUFF overrides
        this with its chain-latency code boundaries, whose 2-bit
        compression is a function of the cycle number.
        """
        return None

    def next_dispatch_activity_cycle(self, inst, cycle: int) -> Optional[int]:
        """Next cycle at which placing ``inst`` (the instruction dispatch
        is currently stalled on) could succeed, absent other activity.

        ``None`` means placement can only be unblocked by activity the
        event wheel already tracks (an issue draining a queue, a commit
        freeing the ROB). LatFIFO overrides this for FP instructions and
        returns ``cycle`` (never skip): its FP placement compares a
        dispatch-time *estimate* that grows with the cycle number, so a
        stalled placement can unstick by itself.
        """
        return None

    def idle_counters(self) -> Dict[str, int]:
        """Snapshot of scheme-internal diagnostic counters a quiescent
        cycle can move (dispatch-stall tallies and the like). Paired
        with :meth:`apply_idle_counters` for interval-form accounting."""
        return {}

    def apply_idle_counters(self, before: Dict[str, int], n_cycles: int) -> None:
        """Replay the counter delta since ``before`` ``n_cycles`` times
        (the closed-form accounting for a skipped quiescent span)."""

    # -- introspection -----------------------------------------------
    def occupancy(self) -> int:
        """Instructions currently waiting in the issue queue(s)."""
        raise NotImplementedError

    def queue_count_for_side(self, is_fp: bool) -> int:
        """Number of queues on one side (1 for the conventional scheme)."""
        return 1
