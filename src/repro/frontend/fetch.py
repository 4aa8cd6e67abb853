"""Fetch engine: I-cache, branch prediction, fetch queue.

The engine pulls instructions from the trace into a 64-entry fetch queue,
up to ``fetch_width`` per cycle, stopping at taken branches (one taken
branch per fetch group, the conventional model). Because the simulator is
trace-driven there is no wrong path: a mispredicted branch *blocks* fetch
until the branch resolves in the back end plus a redirect penalty, which
charges the same number of lost fetch cycles as wrong-path execution
would.

Predictor tables are trained at fetch time. Training at commit would be
more faithful but changes accuracy by well under a percent for the
predictor sizes of Table 1 while complicating recovery; SimpleScalar's
in-order front end makes the same simplification.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.config import ProcessorConfig
from repro.frontend.branch_predictor import HybridBranchPredictor
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import Trace

__all__ = ["FetchEngine"]


class FetchEngine:
    """Trace-driven front end."""

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        predictor: Optional[HybridBranchPredictor] = None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.hierarchy = hierarchy
        self.predictor = predictor or HybridBranchPredictor(config.branch)
        self.queue: Deque[Instruction] = deque()
        # Instructions fetched so far, which is the next one's trace index.
        self.fetched_instructions = 0
        self._icache_ready_cycle = 0
        self._blocking_branch_seq: Optional[int] = None
        self._current_line: Optional[int] = None

    @property
    def exhausted(self) -> bool:
        """True when the entire trace has been fetched."""
        return self.fetched_instructions >= len(self.trace)

    @property
    def blocked_on_branch(self) -> Optional[int]:
        """Sequence number of the mispredicted branch fetch waits on."""
        return self._blocking_branch_seq

    def state_token(self) -> tuple:
        """Opaque token over every internal field a fetch cycle can move.

        The skipping kernel compares tokens around :meth:`fetch_cycle`:
        a cycle that fetched nothing but still moved state (e.g. started
        an I-cache miss and armed the fill timer) counts as activity.
        """
        return (
            self.fetched_instructions,
            self._icache_ready_cycle,
            self._blocking_branch_seq,
            self._current_line,
        )

    def next_activity_cycle(self, cycle: int) -> Optional[int]:
        """Skipping-kernel contract: the I-cache fill/redirect timer.

        While fetch waits out an I-cache miss or a post-misprediction
        redirect, the ready timer is the exact cycle fetch resumes. A
        fetch blocked on an unresolved branch needs no timer — the
        branch's resolution is already on the pipeline's event wheel
        (and arms this timer when it fires).
        """
        if self._blocking_branch_seq is not None or self.exhausted:
            return None
        if self._icache_ready_cycle >= cycle:
            return self._icache_ready_cycle
        return None

    def resolve_branch(self, seq: int, cycle: int) -> None:
        """Back-end notification that branch ``seq`` resolved at ``cycle``.

        Fetch resumes after the configured redirect penalty.
        """
        if self._blocking_branch_seq == seq:
            self._blocking_branch_seq = None
            self._icache_ready_cycle = max(
                self._icache_ready_cycle,
                cycle + 1 + self.config.mispredict_redirect_penalty,
            )

    def fetch_cycle(self, cycle: int) -> int:
        """Fetch up to ``fetch_width`` instructions; returns how many."""
        if self._blocking_branch_seq is not None or cycle < self._icache_ready_cycle:
            return 0
        fetched = 0
        line_bytes = self.config.icache.line_bytes
        while (
            fetched < self.config.fetch_width
            and len(self.queue) < self.config.fetch_queue_entries
            and not self.exhausted
        ):
            inst = self.trace[self.fetched_instructions]
            line = inst.pc // line_bytes
            if line != self._current_line:
                latency = self.hierarchy.instruction_fetch_latency(inst.pc)
                self._current_line = line
                if latency > self.config.icache.hit_latency:
                    # Miss: charge the fill latency and retry the same
                    # instruction when the line arrives.
                    self._icache_ready_cycle = cycle + latency
                    self._current_line = line
                    break
            self.queue.append(inst)
            self.fetched_instructions += 1
            fetched += 1
            if inst.op.is_branch:
                correct = self.predictor.predict_and_update(inst.pc, bool(inst.taken), inst.target)
                if not correct:
                    self._blocking_branch_seq = inst.seq
                    break
                if inst.taken:
                    # A correctly predicted taken branch ends the fetch
                    # group and redirects the line tracker.
                    self._current_line = None
                    break
        return fetched

    def pop_instructions(self, max_count: int) -> List[Instruction]:
        """Hand up to ``max_count`` queued instructions to decode."""
        out: List[Instruction] = []
        while self.queue and len(out) < max_count:
            out.append(self.queue.popleft())
        return out
