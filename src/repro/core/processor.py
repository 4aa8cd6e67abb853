"""The out-of-order pipeline stages.

Stage order inside one simulated cycle (back to front, the usual trick so
a value produced this cycle is visible next cycle):

1. branch resolutions due this cycle unblock the front end;
2. commit retires completed instructions in order (ROB head);
3. results completing this cycle are broadcast (energy accounting);
4. the issue scheme selects and issues instructions;
5. dispatch renames and places instructions, in order, stalling on the
   first failure (ROB full, no physical register, or the scheme's
   placement rules);
6. decode moves instructions from the fetch queue to the dispatch queue;
7. fetch fills the fetch queue.

Timing convention: an instruction issued at cycle *t* with latency *L*
has its result available to consumers issuing at *t+L* (full bypass).
Loads add the L1D/L2/memory access on top of address computation, subject
to the LSQ's disambiguation constraints; stores complete when their
address is computed (data is written to the cache at commit).

The *loop* that drives :meth:`Processor.step` lives in
:mod:`repro.core.engine`: the naive kernel ticks every cycle, the
event-driven kernel proves quiescence and jumps over dead spans. The
processor supports the skipper through three hooks — :meth:`step`'s
activity flag, :meth:`next_event_cycle` (the union of every component's
``next_activity_cycle`` contract) and
:meth:`idle_accounting_snapshot`/:meth:`advance_idle` (interval-form
per-cycle accounting).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.config import ProcessorConfig
from repro.common.errors import SimulationError
from repro.common.stats import SimulationStats, StatCounters
from repro.core import engine
from repro.core.functional_units import DistributedFuPool, FuPool, PooledFuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.rename import RenameMap
from repro.core.rob import ReorderBuffer
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight
from repro.frontend.branch_predictor import HybridBranchPredictor
from repro.frontend.fetch import FetchEngine
from repro.isa.instructions import Instruction
from repro.isa.opcodes import FuType, latency_for
from repro.issue import build_scheme
from repro.issue.base import IssueContext
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import Trace

__all__ = ["Processor"]

_MUX_EVENT = {
    FuType.INT_ALU: "mux_int_alu",
    FuType.INT_MULDIV: "mux_int_mul",
    FuType.FP_ALU: "mux_fp_alu",
    FuType.FP_MULDIV: "mux_fp_mul",
}

_DECODE_LATENCY = 1


class Processor:
    """One processor instance simulating one trace under one scheme."""

    def __init__(self, config: ProcessorConfig, trace: Trace) -> None:
        config.validate()
        trace.validate(config.num_arch_int_regs, config.num_arch_fp_regs)
        self.config = config
        self.trace = trace
        self.events = StatCounters()
        self.hierarchy = MemoryHierarchy(config)
        self.predictor = HybridBranchPredictor(config.branch)
        self.fetch = FetchEngine(config, trace, self.hierarchy, self.predictor)
        self.renamer = RenameMap(
            config.num_arch_int_regs,
            config.num_arch_fp_regs,
            config.int_phys_regs,
            config.fp_phys_regs,
        )
        self.scoreboard = Scoreboard(
            config.int_phys_regs,
            config.fp_phys_regs,
            config.num_arch_int_regs,
            config.num_arch_fp_regs,
        )
        self.rob = ReorderBuffer(config.rob_entries)
        self.lsq = LoadStoreQueue()
        self.scheme = build_scheme(config, self.events)
        if hasattr(self.scheme, "bind_scoreboard"):
            self.scheme.bind_scoreboard(self.scoreboard)
        self.fu_pool = self._build_fu_pool()
        self._decode_queue: Deque[Tuple[Instruction, int]] = deque()
        self._broadcasts: Dict[int, int] = {}
        self._branch_resolutions: Dict[int, List[InFlight]] = {}
        self.stats = SimulationStats(events=self.events)
        self._occupancy_accum = 0
        # Instruction the issue scheme refused to place this cycle (None
        # when dispatch was not scheme-stalled); the skipping kernel uses
        # it to ask the scheme for its next placement-relevant cycle.
        self._dispatch_blocked_inst: Optional[Instruction] = None
        self.kernel_telemetry = engine.KernelTelemetry()

    def _build_fu_pool(self) -> FuPool:
        scheme_cfg = self.config.scheme
        if scheme_cfg.distributed_fus:
            return DistributedFuPool(
                scheme_cfg.int_queues, scheme_cfg.fp_queues, self.config.fus
            )
        return PooledFuPool(self.config.fus)

    # ------------------------------------------------------------------
    # Completion scheduling (called by IssueContext when an instruction
    # issues).
    # ------------------------------------------------------------------
    def _schedule_completion(self, uop: InFlight, cycle: int) -> None:
        fus = self.config.fus
        op = uop.op
        if op.is_load:
            addr_ready = cycle + fus.address_latency
            start, forwarding = self.lsq.load_access_constraints(uop, addr_ready)
            if forwarding is not None:
                # Store-to-load forwarding: the data moves once both the
                # load's access may start and the store's data is ready.
                data_ready = (
                    self.scoreboard.ready_cycle(forwarding.src_phys[0])
                    if forwarding.src_phys
                    else start
                )
                complete = max(start, data_ready) + 1
            else:
                complete = start + self.hierarchy.data_access_latency(uop.inst.mem_addr)
        elif op.is_store:
            addr_known = cycle + fus.address_latency
            self.lsq.store_issued(uop, addr_known)
            complete = addr_known
        else:
            complete = cycle + latency_for(op, fus)
        uop.complete_cycle = complete
        self.events.add(_MUX_EVENT[uop.fu_type])
        if uop.dest_phys is not None:
            self.scoreboard.set_ready(uop.dest_phys, complete)
            self._broadcasts[complete] = self._broadcasts.get(complete, 0) + 1
        if op.is_branch:
            self._branch_resolutions.setdefault(complete, []).append(uop)

    # ------------------------------------------------------------------
    # Pipeline stages.
    # ------------------------------------------------------------------
    def _resolve_branches(self, cycle: int) -> int:
        resolved = self._branch_resolutions.pop(cycle, ())
        for uop in resolved:  # resolved now
            was_blocking = self.fetch.blocked_on_branch == uop.seq
            self.fetch.resolve_branch(uop.seq, cycle)
            if was_blocking:
                self.scheme.on_mispredict_resolved()
        return len(resolved)

    def _commit(self, cycle: int) -> int:
        retired = self.rob.commit_ready(cycle, self.config.commit_width)
        for uop in retired:
            self.renamer.release(uop.prev_phys)
            if uop.op.is_store:
                self.lsq.retire_store(uop)
                # The store's data is written to the D-cache at commit.
                self.hierarchy.data_access_latency(uop.inst.mem_addr, is_store=True)
        return len(retired)

    def _issue(self, cycle: int) -> int:
        ctx = IssueContext(
            cycle,
            self.config,
            self.scoreboard,
            self.fu_pool,
            self.lsq,
            self._schedule_completion,
        )
        self.scheme.select_and_issue(ctx)
        self.events.add("instructions_issued", len(ctx.issued))
        return len(ctx.issued)

    def _dispatch(self, cycle: int) -> int:
        dispatched = 0
        stalled = False
        self._dispatch_blocked_inst = None
        while (
            self._decode_queue
            and self._decode_queue[0][1] <= cycle
            and dispatched < self.config.decode_width
        ):
            inst, __ = self._decode_queue[0]
            if self.rob.full or not self.renamer.can_rename(inst.dest):
                stalled = True
                break
            uop = InFlight(
                inst,
                src_phys=[],
                dest_phys=None,
                prev_phys=None,
                rob_index=self.rob.occupancy,
                age=self.rob.allocate_age(),
                dispatch_cycle=cycle,
            )
            if not self.scheme.try_dispatch(uop, cycle):
                # Placement failed: roll the age allocator back so ages
                # stay dense and retry next cycle.
                self.rob.rollback_age()
                stalled = True
                self._dispatch_blocked_inst = inst
                break
            self._decode_queue.popleft()
            renamed = self.renamer.rename(inst.srcs, inst.dest)
            uop.src_phys = renamed["src_phys"]
            uop.dest_phys = renamed["dest_phys"]
            uop.prev_phys = renamed["prev_phys"]
            if uop.dest_phys is not None:
                self.scoreboard.mark_pending(uop.dest_phys)
            self.rob.push(uop)
            if uop.op.is_store:
                self.lsq.add_store(uop)
            dispatched += 1
        if stalled:
            self.stats.dispatch_stall_cycles += 1
        return dispatched

    def _decode(self, cycle: int) -> int:
        room = 2 * self.config.decode_width - len(self._decode_queue)
        if room <= 0:
            return 0
        moved = self.fetch.pop_instructions(min(room, self.config.decode_width))
        for inst in moved:
            self._decode_queue.append((inst, cycle + _DECODE_LATENCY))
        return len(moved)

    # ------------------------------------------------------------------
    # One simulated cycle (driven by a repro.core.engine kernel).
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> Tuple[bool, int]:
        """Execute one simulated cycle; returns ``(activity, retired)``.

        ``activity`` is False only when the machine was fully quiescent:
        no branch resolved, nothing committed, no result broadcast,
        nothing issued, dispatched, decoded or fetched, and the fetch
        engine's internal state (I-cache line tracking and timers) did
        not move. After such a cycle every stage's behaviour is a frozen
        function of state plus the cycle number, which is what lets the
        skipping kernel jump to the next scheduled event.
        """
        resolved = self._resolve_branches(cycle)
        retired = self._commit(cycle)
        broadcasts = self._broadcasts.pop(cycle, 0)
        self.scheme.on_result_broadcast(cycle, broadcasts)
        issued = self._issue(cycle)
        dispatched = self._dispatch(cycle)
        decoded = self._decode(cycle)
        fetch_token = self.fetch.state_token()
        fetched = self.fetch.fetch_cycle(cycle)
        self.scheme.on_cycle_end(cycle)
        self._occupancy_accum += self.scheme.occupancy()
        activity = bool(
            resolved
            or retired
            or broadcasts
            or issued
            or dispatched
            or decoded
            or fetched
            or self.fetch.state_token() != fetch_token
        )
        return activity, retired

    # ------------------------------------------------------------------
    # Event wheel and interval accounting (skipping-kernel support).
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle ``>= cycle`` at which any stage could act again.

        ``cycle`` is the index of the next *unexecuted* cycle; an event
        falling exactly there means there is nothing to skip. Valid only
        immediately after a quiescent :meth:`step`. The union
        of every component's ``next_activity_cycle`` contract: pending
        result broadcasts and branch resolutions, the ROB head's
        completion, the I-cache fill timer, functional-unit busy windows
        and the scheme's own cycle-dependent boundaries (MixBUFF
        chain-latency codes; a stalled LatFIFO FP placement reports the
        current cycle, so it never skips). Returns ``None`` when nothing
        is scheduled — a true deadlock.
        """
        candidates = []
        if self._broadcasts:
            candidates.append(min(self._broadcasts))
        if self._branch_resolutions:
            candidates.append(min(self._branch_resolutions))
        for component in (self.rob, self.fetch, self.fu_pool, self.lsq,
                          self.scoreboard, self.scheme):
            when = component.next_activity_cycle(cycle)
            if when is not None:
                candidates.append(when)
        if self._dispatch_blocked_inst is not None:
            when = self.scheme.next_dispatch_activity_cycle(
                self._dispatch_blocked_inst, cycle
            )
            if when is not None:
                candidates.append(when)
        upcoming = [when for when in candidates if when >= cycle]
        return min(upcoming) if upcoming else None

    def idle_accounting_snapshot(self) -> dict:
        """Snapshot of every counter a quiescent cycle can move."""
        return {
            "events": self.events.as_dict(),
            "dispatch_stall_cycles": self.stats.dispatch_stall_cycles,
            "fetch_blocked_cycles": self.fetch.blocked_cycles,
            "occupancy_accum": self._occupancy_accum,
            "scheme": self.scheme.idle_counters(),
        }

    def advance_idle(self, before: dict, n_cycles: int) -> None:
        """Account ``n_cycles`` quiescent cycles in closed form.

        ``before`` is an :meth:`idle_accounting_snapshot` taken just
        before one fully executed quiescent cycle; the delta between then
        and now is exactly what each skipped cycle would have accrued
        (selection energy, ready-table polls, stall counters, occupancy
        integration), so it is replayed ``n_cycles`` times.
        """
        before_events = before["events"]
        for name, value in self.events.as_dict().items():
            delta = value - before_events.get(name, 0)
            if delta:
                self.events.add(name, delta * n_cycles)
        self.stats.dispatch_stall_cycles += n_cycles * (
            self.stats.dispatch_stall_cycles - before["dispatch_stall_cycles"]
        )
        self.fetch.blocked_cycles += n_cycles * (
            self.fetch.blocked_cycles - before["fetch_blocked_cycles"]
        )
        self._occupancy_accum += n_cycles * (
            self._occupancy_accum - before["occupancy_accum"]
        )
        self.scheme.apply_idle_counters(before["scheme"], n_cycles)

    # ------------------------------------------------------------------
    # Main entry point.
    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: Optional[int] = None,
        warmup_instructions: int = 0,
        kernel: Optional[str] = None,
        total_instructions: Optional[int] = None,
    ) -> SimulationStats:
        """Simulate until the whole trace commits; returns the stats.

        ``warmup_instructions`` committed instructions are excluded from
        every reported statistic and energy event (caches, predictor and
        queues stay warm across the boundary) — the software analogue of
        the paper's "after skipping the initialization part".

        ``kernel`` selects the simulation loop (``"naive"`` or
        ``"skip"``, default: the config's ``kernel`` field). Both kernels
        produce bit-identical statistics; only wall-clock time differs.

        ``total_instructions`` stops the run *mid-flight* once that many
        instructions have committed, leaving younger trace instructions
        unfetched or in the pipeline. Sampled-simulation slices use this
        so the measurement ends at the same kind of boundary it starts
        at (a full pipeline), keeping per-instruction event rates free
        of drain artefacts; the default (the whole trace) retires
        everything, as before.
        """
        total = len(self.trace)
        if total_instructions is not None:
            if not 0 < total_instructions <= total:
                raise SimulationError(
                    "total_instructions must be within the trace length"
                )
            total = total_instructions
        if warmup_instructions >= total:
            raise SimulationError("warmup must be shorter than the trace")
        if max_cycles is None:
            max_cycles = 400 * total + 100_000
        if kernel is None:
            kernel = self.config.kernel
        return engine.run_kernel(self, kernel, total, max_cycles, warmup_instructions)

    def _snapshot(self, cycle: int, committed: int) -> dict:
        """Record the warm-up boundary so _finalize can report deltas."""
        discard = StatCounters()
        self.hierarchy.collect_events(discard)  # resets cache counters
        return {
            "cycle": cycle,
            "committed": committed,
            "events": self.events.as_dict(),
            "fetched": self.fetch.fetched_instructions,
            "predictions": self.predictor.predictions,
            "mispredictions": self.predictor.mispredictions,
            "dispatch_stalls": self.stats.dispatch_stall_cycles,
            "occupancy": self._occupancy_accum,
            "forwarded": self.lsq.forwarded_loads,
        }

    def _finalize(self, cycles: int, committed: int, snapshot: Optional[dict]) -> None:
        base = snapshot or {
            "cycle": 0,
            "committed": 0,
            "events": {},
            "fetched": 0,
            "predictions": 0,
            "mispredictions": 0,
            "dispatch_stalls": 0,
            "occupancy": 0,
            "forwarded": 0,
        }
        if snapshot is not None:
            warm_events = base["events"]
            trimmed = StatCounters()
            for name, value in self.events.as_dict().items():
                trimmed.add(name, value - warm_events.get(name, 0))
            self.events = trimmed
            self.stats.events = trimmed
        self.stats.cycles = cycles - base["cycle"]
        self.stats.committed_instructions = committed - base["committed"]
        self.stats.fetched_instructions = self.fetch.fetched_instructions - base["fetched"]
        self.stats.branch_predictions = self.predictor.predictions - base["predictions"]
        self.stats.branch_mispredictions = (
            self.predictor.mispredictions - base["mispredictions"]
        )
        self.stats.dispatch_stall_cycles -= base["dispatch_stalls"]
        self.hierarchy.collect_events(self.events)
        self.events.add("cycles", self.stats.cycles)
        self.events.add("committed", self.stats.committed_instructions)
        self.events.add("iq_occupancy_cycles", self._occupancy_accum - base["occupancy"])
        self.events.add("lsq_forwarded_loads", self.lsq.forwarded_loads - base["forwarded"])
