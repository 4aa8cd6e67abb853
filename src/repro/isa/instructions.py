"""The dynamic-instruction record consumed by the simulator.

A trace is a sequence of :class:`Instruction` objects carrying the
register dataflow (architectural register numbers), the PC stream, branch
outcomes and memory addresses. The pipeline annotates each in-flight
instruction with a :class:`DynamicState` rather than mutating the trace,
so a trace can be replayed under many schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import TraceError
from repro.isa.opcodes import OpClass

__all__ = ["Instruction", "RegisterRef", "validate_instruction"]


@dataclass(frozen=True, slots=True)
class RegisterRef:
    """An architectural register reference: (is_fp, index)."""

    is_fp: bool
    index: int

    def __str__(self) -> str:
        return f"{'f' if self.is_fp else 'r'}{self.index}"


@dataclass(frozen=True, slots=True)
class Instruction:
    """One dynamic instruction of a trace.

    ``seq`` is the dynamic sequence number (program order). ``pc`` is the
    instruction address, used by the I-cache and the branch predictor.
    ``srcs`` are up to two source registers; ``dest`` the destination (or
    ``None``, e.g. for stores and branches). For memory operations
    ``mem_addr`` is the effective address; for branches ``taken`` and
    ``target`` describe the actual outcome.
    """

    seq: int
    pc: int
    op: OpClass
    srcs: Tuple[RegisterRef, ...] = ()
    dest: Optional[RegisterRef] = None
    mem_addr: Optional[int] = None
    taken: Optional[bool] = None
    target: Optional[int] = None

    def __str__(self) -> str:
        parts = [f"#{self.seq}", self.op.value, f"pc=0x{self.pc:x}"]
        if self.dest is not None:
            parts.append(f"dst={self.dest}")
        if self.srcs:
            parts.append("src=" + ",".join(str(s) for s in self.srcs))
        if self.mem_addr is not None:
            parts.append(f"addr=0x{self.mem_addr:x}")
        if self.op.is_branch:
            parts.append("taken" if self.taken else "not-taken")
        return " ".join(parts)


def validate_instruction(inst: Instruction, num_int_regs: int, num_fp_regs: int) -> None:
    """Check one instruction against the stream invariants.

    Raises :class:`TraceError` on: out-of-range register indices, register
    class mismatches (e.g. an FP ALU op writing an integer register), a
    memory op without an address, a branch without an outcome, or more
    than two sources.
    """
    if len(inst.srcs) > 2:
        raise TraceError(f"{inst}: more than two source operands")
    for ref in inst.srcs + ((inst.dest,) if inst.dest else ()):
        limit = num_fp_regs if ref.is_fp else num_int_regs
        if not 0 <= ref.index < limit:
            raise TraceError(f"{inst}: register {ref} out of range")
    if inst.op.is_memory:
        if inst.mem_addr is None:
            raise TraceError(f"{inst}: memory operation without an address")
        if inst.mem_addr < 0:
            raise TraceError(f"{inst}: negative memory address")
    elif inst.mem_addr is not None:
        raise TraceError(f"{inst}: non-memory operation with an address")
    if inst.op.is_branch:
        if inst.taken is None:
            raise TraceError(f"{inst}: branch without an outcome")
        if inst.taken and inst.target is None:
            raise TraceError(f"{inst}: taken branch without a target")
        if inst.dest is not None:
            raise TraceError(f"{inst}: branches must not write a register")
    if inst.dest is not None and inst.dest.is_fp != inst.op.writes_fp_register:
        raise TraceError(f"{inst}: destination register class mismatch")
    if inst.op.is_store and inst.dest is not None:
        raise TraceError(f"{inst}: stores must not write a register")
