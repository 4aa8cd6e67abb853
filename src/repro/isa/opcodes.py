"""Operation classes of the simulated ISA.

The simulator is trace-driven, so it never interprets instruction
semantics; it only needs each instruction's *operation class* to know
which functional unit executes it and with what latency. The classes
mirror the SimpleScalar/Alpha classes the paper's framework uses.
"""

from __future__ import annotations

import enum

from repro.common.config import FunctionalUnitConfig

__all__ = ["OpClass", "FuType", "latency_for"]


class FuType(enum.Enum):
    """Functional-unit categories of Table 1.

    ``mux_event`` is the energy event charged to the unit's operand
    multiplexer for each instruction issued to it, and ``slot`` is the
    member's position (0-3), which indexes the functional-unit pool's
    banks. Like ``OpClass``'s facts they are plain attributes: the issue
    stage reads them on every issue attempt, and a dict keyed by member
    would hash it through a Python-level ``Enum.__hash__`` call.
    """

    INT_ALU = "int_alu"
    INT_MULDIV = "int_muldiv"
    FP_ALU = "fp_alu"
    FP_MULDIV = "fp_muldiv"

    def __init__(self, value: str) -> None:
        self.mux_event: str = "mux_" + value.replace("muldiv", "mul")
        # Members are registered after __init__, so this counts the
        # members declared before this one.
        self.slot: int = len(type(self)._member_names_)


# Keyed by OpClass value. Memory ops and branches use an integer ALU for
# address / target computation.
_FU_FOR_OP = {
    "int_alu": FuType.INT_ALU,
    "int_mul": FuType.INT_MULDIV,
    "int_div": FuType.INT_MULDIV,
    "fp_alu": FuType.FP_ALU,
    "fp_mul": FuType.FP_MULDIV,
    "fp_div": FuType.FP_MULDIV,
    "load": FuType.INT_ALU,
    "store": FuType.INT_ALU,
    "fp_load": FuType.INT_ALU,
    "fp_store": FuType.INT_ALU,
    "branch": FuType.INT_ALU,
}


class OpClass(enum.Enum):
    """Operation class of a dynamic instruction.

    Each member's fixed facts are plain attributes set in ``__init__``,
    not properties: the issue stage reads them for every candidate every
    cycle, and a property costs a Python call per access.
    """

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    FP_LOAD = "fp_load"
    FP_STORE = "fp_store"
    BRANCH = "branch"

    def __init__(self, value: str) -> None:
        # True if the instruction lives in the FP side of the machine.
        # FP loads/stores compute their address on the integer side (as
        # in real machines) but their *destination* is an FP register;
        # the paper steers instructions by the cluster of the queue that
        # holds them, so we classify loads/stores by where they are
        # dispatched: address computation is an integer operation, hence
        # all loads, stores and branches are integer-side instructions.
        self.is_fp: bool = value in ("fp_alu", "fp_mul", "fp_div")
        self.is_load: bool = value in ("load", "fp_load")
        self.is_store: bool = value in ("store", "fp_store")
        self.is_memory: bool = self.is_load or self.is_store  # either register class
        self.is_branch: bool = value == "branch"
        # The destination register (if any) is an FP register.
        self.writes_fp_register: bool = self.is_fp or value == "fp_load"
        self.fu_type: FuType = _FU_FOR_OP[value]
        # Divides occupy their mul/div unit for the whole operation;
        # everything else accepts a new instruction every cycle.
        self.pipelined: bool = value not in ("int_div", "fp_div")
        # The FunctionalUnitConfig field holding the execution latency:
        # memory ops compute an address, branches resolve in one ALU op.
        self.latency_field: str = (
            "address_latency" if self.is_memory
            else "int_alu_latency" if self.is_branch
            else value + "_latency"
        )


def latency_for(op: OpClass, fus: FunctionalUnitConfig) -> int:
    """Execution latency of ``op`` on the configured functional units.

    For loads this is the *address computation* latency only; the cache
    access is added by the memory system. Branches resolve in one ALU
    cycle. Stores take the address latency (data movement happens at
    commit and is off the critical path).
    """
    return getattr(fus, op.latency_field)
