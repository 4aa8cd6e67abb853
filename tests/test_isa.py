"""Unit tests for op classes, latencies and instruction validation."""

import pickle

import pytest

from repro.common.config import FunctionalUnitConfig
from repro.common.errors import TraceError
from repro.isa.instructions import Instruction, validate_instruction
from repro.isa.opcodes import FuType, OpClass, latency_for

from tests.util import alu, branch, f, load, r, store


#: Every op class's fixed facts: (is_fp, is_memory, is_load, is_store,
#: is_branch, writes_fp_register, fu_type, pipelined).
OP_FACTS = {
    OpClass.INT_ALU: (False, False, False, False, False, False, FuType.INT_ALU, True),
    OpClass.INT_MUL: (False, False, False, False, False, False, FuType.INT_MULDIV, True),
    OpClass.INT_DIV: (False, False, False, False, False, False, FuType.INT_MULDIV, False),
    OpClass.FP_ALU: (True, False, False, False, False, True, FuType.FP_ALU, True),
    OpClass.FP_MUL: (True, False, False, False, False, True, FuType.FP_MULDIV, True),
    OpClass.FP_DIV: (True, False, False, False, False, True, FuType.FP_MULDIV, False),
    OpClass.LOAD: (False, True, True, False, False, False, FuType.INT_ALU, True),
    OpClass.STORE: (False, True, False, True, False, False, FuType.INT_ALU, True),
    # FP loads/stores dispatch to the integer side (address computation).
    OpClass.FP_LOAD: (False, True, True, False, False, True, FuType.INT_ALU, True),
    OpClass.FP_STORE: (False, True, False, True, False, False, FuType.INT_ALU, True),
    OpClass.BRANCH: (False, False, False, False, True, False, FuType.INT_ALU, True),
}

#: A unit configuration whose seven latencies are all distinct, so an op
#: that reads the wrong field shows.
DISTINCT_LATENCIES = FunctionalUnitConfig(
    int_alu_latency=1,
    int_mul_latency=3,
    int_div_latency=20,
    fp_alu_latency=2,
    fp_mul_latency=4,
    fp_div_latency=12,
    address_latency=5,
)

#: Each op class's latency under ``DISTINCT_LATENCIES``: memory ops take
#: the address latency, branches one integer-ALU op.
OP_LATENCY = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 20,
    OpClass.FP_ALU: 2,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 12,
    OpClass.LOAD: 5,
    OpClass.STORE: 5,
    OpClass.FP_LOAD: 5,
    OpClass.FP_STORE: 5,
    OpClass.BRANCH: 1,
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
            op.pipelined,
        ) == OP_FACTS[op]

    @pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.name)
    def test_unpickles_to_the_same_member(self, op):
        # Pool workers unpickle ops; they must read the member's own facts.
        assert pickle.loads(pickle.dumps(op)) is op


class TestFuMapping:
    def test_compute_ops(self):
        assert OpClass.INT_ALU.fu_type is FuType.INT_ALU
        assert OpClass.INT_DIV.fu_type is FuType.INT_MULDIV
        assert OpClass.FP_MUL.fu_type is FuType.FP_MULDIV

    def test_memory_and_branch_use_int_alu(self):
        for op in (OpClass.LOAD, OpClass.STORE, OpClass.FP_LOAD, OpClass.BRANCH):
            assert op.fu_type is FuType.INT_ALU

    def test_slot_follows_member_order(self):
        # FuPool indexes its banks by slot, and the generated kernel bakes
        # slots into its op table.
        assert [fu.slot for fu in FuType] == [0, 1, 2, 3]

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

    @pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.name)
    def test_each_op_reads_its_own_latency(self, op):
        assert latency_for(op, DISTINCT_LATENCIES) == OP_LATENCY[op]

    def test_divides_are_unpipelined(self):
        assert not OpClass.INT_DIV.pipelined
        assert not OpClass.FP_DIV.pipelined
        assert OpClass.INT_MUL.pipelined
        assert OpClass.FP_ALU.pipelined


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
