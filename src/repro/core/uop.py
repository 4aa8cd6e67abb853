"""In-flight instruction state.

The trace is immutable; everything the pipeline learns about an
instruction (renamed registers, completion cycle, queue placement) lives
in an :class:`InFlight` wrapper created at dispatch. An instruction's
age is its trace ``seq`` (see :mod:`repro.core.rob`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import FuType, OpClass

__all__ = ["InFlight", "issue_operands"]


def issue_operands(op: OpClass, srcs: Sequence) -> Sequence:
    """The sources that must be ready for an ``op`` instruction to issue.

    Stores are split into address computation and data movement
    (Section 3.1): they issue once the address operands are ready — by
    trace convention ``srcs[0]`` is the data register and the rest are
    address operands — and read their data at commit, which in-order
    retirement guarantees is ready by then. ``srcs`` may be
    architectural refs (LatFIFO's estimator runs before rename) or
    renamed physical registers (:meth:`InFlight.set_sources`).
    """
    return srcs[1:] if op.is_store and len(srcs) > 1 else srcs


class InFlight:
    """One dispatched, not-yet-committed instruction.

    ``op``, ``seq`` and ``fu_type`` copy facts of ``inst`` that never
    change, and ``issue_srcs`` is set once with the renamed sources
    (:meth:`set_sources`); they are slots, not properties, because the
    issue stage reads them for every candidate every cycle. Every slot
    is read by the pipeline.
    """

    __slots__ = (
        "inst",
        "op",
        "seq",
        "fu_type",
        "src_phys",
        "issue_srcs",
        "dest_phys",
        "prev_phys",
        "complete_cycle",
        "queue_index",
        "chain_id",
    )

    def __init__(self, inst: Instruction) -> None:
        self.inst = inst
        self.op: OpClass = inst.op
        self.seq: int = inst.seq
        self.fu_type: FuType = inst.op.fu_type
        # Renamed registers, set by set_sources once placement succeeds.
        self.src_phys: List[Tuple[bool, int]] = []
        self.issue_srcs: List[Tuple[bool, int]] = self.src_phys
        self.dest_phys: Optional[Tuple[bool, int]] = None
        self.prev_phys: Optional[Tuple[bool, int]] = None
        # Set at issue; for a store, the cycle its address is known.
        self.complete_cycle: Optional[int] = None
        # Multi-queue scheme bookkeeping.
        self.queue_index: Optional[int] = None
        self.chain_id: Optional[int] = None

    def set_sources(self, src_phys: List[Tuple[bool, int]]) -> None:
        """Record the renamed sources and the operands that must be ready
        for the instruction to *issue* (``issue_srcs``, see
        :func:`issue_operands`)."""
        self.src_phys = src_phys
        self.issue_srcs = issue_operands(self.op, src_phys)

    @property
    def completed(self) -> bool:
        """True once issued: issue schedules the completion cycle."""
        return self.complete_cycle is not None

    def __repr__(self) -> str:
        state = "issued" if self.completed else "waiting"
        return f"InFlight(#{self.seq} {self.op.value} {state})"
