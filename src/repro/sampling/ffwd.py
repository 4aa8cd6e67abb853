"""Functional fast-forward between detailed measurement slices.

Between slices a sampled run does not need cycle-accurate timing — it
needs the *state* a long-running program would have accumulated: cache
tag/LRU contents and branch-predictor tables. :class:`FunctionalWarmer`
replays the trace's architectural event stream (instruction lines,
branch outcomes, memory addresses) through a private
:class:`~repro.memory.hierarchy.MemoryHierarchy` and
:class:`~repro.frontend.branch_predictor.HybridBranchPredictor` without
touching the pipeline, which is an order of magnitude cheaper per
instruction than detailed simulation.

The warmer's state at any position is a pure function of (config, trace,
position) — the I-cache line tracker included — so a slice restored
into a fresh :class:`~repro.core.processor.Processor` sees exactly the
state a longer walk would have left, whatever path reached it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.common.config import ProcessorConfig
from repro.common.errors import SimulationError
from repro.frontend.branch_predictor import HybridBranchPredictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.prewarm import prewarm
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import Trace

__all__ = ["WarmState", "FunctionalWarmer", "slice_trace"]


@dataclass
class WarmState:
    """Snapshot of functionally-warmed state at one trace position."""

    position: int
    hierarchy: tuple
    predictor: dict
    #: I-cache line the front end is presumed to be streaming from
    #: (``None`` after a taken branch), part of the state because it
    #: decides which future instruction fetches touch the I-cache.
    line: Optional[int]


def slice_trace(trace: Trace, start: int, end: int) -> Trace:
    """A re-sequenced sub-trace covering ``[start, end)``.

    Sequence numbers are re-based to zero (the pipeline requires dense
    sequences); everything else is untouched, so the slice replays the
    exact dynamic stream of the full trace's window.
    """
    if not 0 <= start < end <= len(trace):
        raise SimulationError(
            f"slice [{start}, {end}) out of range for trace of {len(trace)}"
        )
    instructions = [
        replace(inst, seq=index)
        for index, inst in enumerate(trace.instructions[start:end])
    ]
    return Trace(
        name=f"{trace.name}[{start}:{end}]",
        instructions=instructions,
        profile_name=trace.profile_name,
        seed=trace.seed,
    )


class FunctionalWarmer:
    """Streams a trace through caches and predictor, front to back.

    ``profile`` (with the trace's generation seed) enables the standard
    pre-warm walk before position 0, exactly like a full detailed run;
    without it the caches start cold.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        profile: Optional[WorkloadProfile] = None,
        prewarm_seed: Optional[int] = None,
    ) -> None:
        self.trace = trace
        self.hierarchy = MemoryHierarchy(config)
        self.predictor = HybridBranchPredictor(config.branch)
        if profile is not None and prewarm_seed is not None:
            prewarm(self.hierarchy, profile, prewarm_seed)
        self._position = 0
        self._line: Optional[int] = None
        self._line_bytes = config.icache.line_bytes

    def _advance(self, end: int) -> None:
        """Functionally execute ``[position, end)`` of the trace."""
        hierarchy = self.hierarchy
        predictor = self.predictor
        line_bytes = self._line_bytes
        line = self._line
        for inst in self.trace.instructions[self._position:end]:
            pc_line = inst.pc // line_bytes
            if pc_line != line:
                hierarchy.instruction_fetch_latency(inst.pc)
                line = pc_line
            op = inst.op
            if op.is_memory:
                hierarchy.data_access_latency(inst.mem_addr, is_store=op.is_store)
            if op.is_branch:
                predictor.predict_and_update(inst.pc, bool(inst.taken), inst.target)
                if inst.taken:
                    # A taken branch redirects the front end's line
                    # tracker, same as the detailed fetch engine.
                    line = None
        self._line = line
        self._position = end

    def state_at(self, position: int) -> WarmState:
        """Warm state at ``position``, fast-forwarding to it.

        Positions must be requested in non-decreasing order — the warmer
        streams forward only (slice windows come pre-sorted from the
        plan).
        """
        if position < self._position:
            raise SimulationError(
                f"cannot rewind functional warming from {self._position} "
                f"to {position}; request positions in trace order"
            )
        self._advance(position)
        return WarmState(
            position=self._position,
            hierarchy=self.hierarchy.state_snapshot(),
            predictor=self.predictor.state_snapshot(),
            line=self._line,
        )
