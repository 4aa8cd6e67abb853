"""Unit tests for op classes, latencies and instruction validation."""

import pickle

import pytest

from repro.common.config import FunctionalUnitConfig
from repro.common.errors import TraceError
from repro.isa.instructions import Instruction, validate_instruction
from repro.isa.opcodes import FuType, OpClass, fu_type_for, is_pipelined, latency_for

from tests.util import alu, branch, f, load, r, store


#: Every op class's fixed facts: (is_fp, is_memory, is_load, is_store,
#: is_branch, writes_fp_register, fu_type).
OP_FACTS = {
    OpClass.INT_ALU: (False, False, False, False, False, False, FuType.INT_ALU),
    OpClass.INT_MUL: (False, False, False, False, False, False, FuType.INT_MULDIV),
    OpClass.INT_DIV: (False, False, False, False, False, False, FuType.INT_MULDIV),
    OpClass.FP_ALU: (True, False, False, False, False, True, FuType.FP_ALU),
    OpClass.FP_MUL: (True, False, False, False, False, True, FuType.FP_MULDIV),
    OpClass.FP_DIV: (True, False, False, False, False, True, FuType.FP_MULDIV),
    OpClass.LOAD: (False, True, True, False, False, False, FuType.INT_ALU),
    OpClass.STORE: (False, True, False, True, False, False, FuType.INT_ALU),
    # FP loads/stores dispatch to the integer side (address computation).
    OpClass.FP_LOAD: (False, True, True, False, False, True, FuType.INT_ALU),
    OpClass.FP_STORE: (False, True, False, True, False, False, FuType.INT_ALU),
    OpClass.BRANCH: (False, False, False, False, True, False, FuType.INT_ALU),
}


class TestOpClass:
    @pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.name)
    def test_fixed_facts(self, op):
        assert (
            op.is_fp,
            op.is_memory,
            op.is_load,
            op.is_store,
            op.is_branch,
            op.writes_fp_register,
            op.fu_type,
        ) == OP_FACTS[op]
        assert fu_type_for(op) is op.fu_type

    @pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.name)
    def test_unpickles_to_the_same_member(self, op):
        # Pool workers unpickle ops; they must read the member's own facts.
        assert pickle.loads(pickle.dumps(op)) is op


class TestFuMapping:
    def test_compute_ops(self):
        assert fu_type_for(OpClass.INT_ALU) is FuType.INT_ALU
        assert fu_type_for(OpClass.INT_DIV) is FuType.INT_MULDIV
        assert fu_type_for(OpClass.FP_MUL) is FuType.FP_MULDIV

    def test_memory_and_branch_use_int_alu(self):
        for op in (OpClass.LOAD, OpClass.STORE, OpClass.FP_LOAD, OpClass.BRANCH):
            assert fu_type_for(op) is FuType.INT_ALU

    def test_mux_event_per_unit_type(self):
        # The energy model weighs these names (EnergyModel mux weights).
        assert {fu: fu.mux_event for fu in FuType} == {
            FuType.INT_ALU: "mux_int_alu",
            FuType.INT_MULDIV: "mux_int_mul",
            FuType.FP_ALU: "mux_fp_alu",
            FuType.FP_MULDIV: "mux_fp_mul",
        }


class TestLatencies:
    def test_table1_values(self):
        fus = FunctionalUnitConfig()
        assert latency_for(OpClass.INT_ALU, fus) == 1
        assert latency_for(OpClass.INT_MUL, fus) == 3
        assert latency_for(OpClass.INT_DIV, fus) == 20
        assert latency_for(OpClass.FP_ALU, fus) == 2
        assert latency_for(OpClass.FP_MUL, fus) == 4
        assert latency_for(OpClass.FP_DIV, fus) == 12

    def test_memory_ops_use_address_latency(self):
        fus = FunctionalUnitConfig()
        assert latency_for(OpClass.LOAD, fus) == fus.address_latency
        assert latency_for(OpClass.FP_STORE, fus) == fus.address_latency

    def test_divides_are_unpipelined(self):
        assert not is_pipelined(OpClass.INT_DIV)
        assert not is_pipelined(OpClass.FP_DIV)
        assert is_pipelined(OpClass.INT_MUL)
        assert is_pipelined(OpClass.FP_ALU)


class TestValidation:
    def test_valid_alu(self):
        validate_instruction(alu(0, r(1), [r(2)]), 32, 32)

    def test_rejects_register_out_of_range(self):
        with pytest.raises(TraceError):
            validate_instruction(alu(0, r(40), [r(1)]), 32, 32)

    def test_rejects_three_sources(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.INT_ALU,
                           srcs=(r(1), r(2), r(3)), dest=r(4))
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_rejects_memory_op_without_address(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.LOAD, srcs=(), dest=r(1))
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_rejects_alu_with_address(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.INT_ALU, srcs=(), dest=r(1),
                           mem_addr=0x100)
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_rejects_branch_without_outcome(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.BRANCH, srcs=())
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_rejects_taken_branch_without_target(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.BRANCH, srcs=(), taken=True)
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_rejects_branch_with_destination(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.BRANCH, srcs=(), taken=False,
                           dest=r(1))
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_rejects_fp_op_writing_int_register(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.FP_ALU, srcs=(f(1),), dest=r(2))
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_rejects_store_with_destination(self):
        inst = Instruction(seq=0, pc=0, op=OpClass.STORE, srcs=(r(1),), dest=r(2),
                           mem_addr=0x40)
        with pytest.raises(TraceError):
            validate_instruction(inst, 32, 32)

    def test_helpers_produce_valid_instructions(self):
        for inst in (
            alu(0, r(1), [r(2), r(3)]),
            load(1, f(0), 0x80, fp=True),
            store(2, r(5), 0x40, [r(0)]),
            branch(3, True),
            branch(4, False),
        ):
            validate_instruction(inst, 32, 32)

    def test_register_ref_str(self):
        assert str(r(3)) == "r3"
        assert str(f(7)) == "f7"
