"""Conventional CAM/RAM issue queue (the paper's baseline).

One out-of-order queue per side (integer / FP), as in the P6 family: any
instruction whose operands are ready may issue, oldest first, up to the
issue width. Readiness in real hardware comes from CAM tag broadcast
("wakeup"); the simulator gets identical timing from the scoreboard and
*accounts* the CAM activity for the energy model, assuming the
Folegnani-González optimization (only unready operand slots are woken)
and the 8-bank implementation whose empty banks are disabled.

With ``unbounded=True`` each side holds as many instructions as the ROB,
the Section 3 reference configuration; the Section 4 baseline is the
bounded ``IQ_64_64``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import ProcessorConfig
from repro.common.stats import StatCounters
from repro.core.scoreboard import NEVER
from repro.core.uop import InFlight
from repro.issue.base import IssueContext, IssueScheme

__all__ = ["ConventionalIssueQueue"]


class ConventionalIssueQueue(IssueScheme):
    """CAM/RAM baseline, bounded or unbounded.

    Skipping-kernel notes: selection scans age order and issues on
    operand readiness alone, and readiness transitions always ride the
    broadcast schedule, so the scheme needs no wake timers (base-class
    ``next_activity_cycle`` of ``None``); the per-cycle
    ``iq_select_cycles`` energy accrual is captured by the kernel's
    measured-delta interval accounting.

    Ready-bound short-circuit: the full-queue selection scan is skipped
    while it provably cannot issue anything. Each side caches the
    earliest cycle at which *any* resident entry could have all issue
    operands ready; the bound stays exact until the queue's membership
    or the scoreboard's readiness state changes (tracked by revision
    counters), so cycles before the bound take an O(1) check instead of
    an O(entries) scan. A skipped scan is observationally identical to
    one that issues nothing — ``ctx.issue`` has no side effects on
    failure and the selection energy accrues either way — which the
    kernel-equivalence net pins (``_scan_shortcircuit`` toggles the
    optimization off for the differential run).
    """

    name = "conventional"

    #: Class-level kill switch for the ready-bound short-circuit, used by
    #: the equivalence tests to prove the optimized and plain scans are
    #: bit-identical.
    _scan_shortcircuit = True

    def __init__(self, config: ProcessorConfig, events: StatCounters) -> None:
        super().__init__(config, events)
        scheme = config.scheme
        if scheme.unbounded:
            self._int_capacity = config.rob_entries
            self._fp_capacity = config.rob_entries
        else:
            self._int_capacity = scheme.int_queue_entries
            self._fp_capacity = scheme.fp_queue_entries
        # Entries stay in age order because dispatch is in order and we
        # only ever append.
        self._int_queue: List[InFlight] = []
        self._fp_queue: List[InFlight] = []
        # Ready-bound cache per side: (scoreboard version, queue revision,
        # earliest possible all-operands-ready cycle). The revision bumps
        # on every membership change (append/pop).
        self._queue_rev = [0, 0]
        self._ready_bound: List[Optional[tuple]] = [None, None]

    # -- dispatch ----------------------------------------------------
    def try_dispatch(self, uop: InFlight, cycle: int) -> bool:
        side = 1 if uop.op.is_fp else 0
        queue, capacity = (
            (self._fp_queue, self._fp_capacity)
            if side
            else (self._int_queue, self._int_capacity)
        )
        if len(queue) >= capacity:
            return False
        queue.append(uop)
        self._queue_rev[side] += 1
        self.events.add("iq_buff_write")
        return True

    # -- issue -------------------------------------------------------
    def _scan_may_issue(self, side: int, queue: List[InFlight], cycle: int) -> bool:
        """False only if no resident entry has its issue operands ready.

        The cached bound is the minimum over entries of the cycle at
        which all issue operands become available (``NEVER`` while any
        producer is unissued). Readiness cycles only move via the
        scoreboard, and membership only via this scheme, so a version/
        revision match proves the bound still holds.
        """
        scoreboard = self._scoreboard
        cached = self._ready_bound[side]
        version, rev = scoreboard.version, self._queue_rev[side]
        if cached is not None and cached[0] == version and cached[1] == rev:
            bound = cached[2]
        else:
            bound = NEVER
            ready_cycle = scoreboard.ready_cycle
            for uop in queue:
                latest = 0
                for phys in uop.issue_srcs:
                    r = ready_cycle(phys)
                    if r > latest:
                        latest = r
                if latest < bound:
                    bound = latest
                    if bound == 0:
                        break
            self._ready_bound[side] = (version, rev, bound)
        return bound <= cycle

    def select_and_issue(self, ctx: IssueContext) -> List[InFlight]:
        issued: List[InFlight] = []
        for side, queue in enumerate((self._int_queue, self._fp_queue)):
            if not queue:
                continue
            self.events.add("iq_select_cycles")
            if self._scan_shortcircuit and not self._scan_may_issue(
                side, queue, ctx.cycle
            ):
                continue
            taken_indices: List[int] = []
            for i, uop in enumerate(queue):
                if ctx.issue(uop, 0):
                    taken_indices.append(i)
                    issued.append(uop)
            if taken_indices:
                for i in reversed(taken_indices):
                    queue.pop(i)
                self._queue_rev[side] += 1
            self.events.add("iq_buff_read", len(taken_indices))
        return issued

    # -- energy ------------------------------------------------------
    def on_result_broadcast(self, cycle: int, broadcasts: int) -> None:
        """Each completing result broadcasts its tag to every *unready*
        source operand slot (ready slots and empty banks are disabled)."""
        if broadcasts == 0:
            return
        self.events.add("iq_wakeup_broadcasts", broadcasts)
        unready = 0
        for queue in (self._int_queue, self._fp_queue):
            for uop in queue:
                for phys in uop.src_phys:
                    if not self._scoreboard.is_ready(phys, cycle):
                        unready += 1
        self.events.add("iq_wakeup_comparisons", broadcasts * unready)

    def bind_scoreboard(self, scoreboard) -> None:
        """Give the scheme scoreboard access for wakeup accounting."""
        self._scoreboard = scoreboard

    # -- introspection -----------------------------------------------
    def occupancy(self) -> int:
        return len(self._int_queue) + len(self._fp_queue)

    def side_occupancy(self, is_fp: bool) -> int:
        return len(self._fp_queue if is_fp else self._int_queue)
