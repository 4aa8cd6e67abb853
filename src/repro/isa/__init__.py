"""Instruction-set layer: op classes, latencies, dynamic instructions."""

from repro.isa.instructions import Instruction, RegisterRef, validate_instruction
from repro.isa.opcodes import FuType, OpClass, latency_for

__all__ = [
    "FuType",
    "Instruction",
    "OpClass",
    "RegisterRef",
    "latency_for",
    "validate_instruction",
]
