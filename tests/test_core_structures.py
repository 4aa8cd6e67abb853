"""Unit tests for rename, scoreboard, ROB, LSQ and functional units."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import (
    FunctionalUnitConfig,
    IssueSchemeConfig,
    ProcessorConfig,
    default_config,
)
from repro.common.errors import SimulationError
from repro.core.functional_units import FuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.rename import RenameMap
from repro.core.rob import ReorderBuffer
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight
from repro.experiments import IF_DISTR
from repro.isa.opcodes import FuType, OpClass

from tests.util import alu, f, load, r, store


def make_uop(inst, src_phys=(), dest_phys=None):
    uop = InFlight(inst)
    uop.set_sources(list(src_phys))
    uop.dest_phys = dest_phys
    return uop


class TestRenameMap:
    def make(self):
        return RenameMap(32, 32, 160, 160)

    def test_initial_identity_mapping(self):
        rm = self.make()
        assert rm.lookup(r(5)) == 5
        assert rm.lookup(f(5)) == 5

    def test_rename_allocates_new_physical(self):
        rm = self.make()
        src_phys, dest_phys, prev_phys = rm.rename([r(1)], r(2))
        assert src_phys == [(False, 1)]
        assert dest_phys == (False, 32)  # first free
        assert prev_phys == (False, 2)

    def test_free_count_decreases_then_recovers(self):
        rm = self.make()
        assert rm.free_registers(False) == 128
        __, __, prev_phys = rm.rename([], r(1))
        assert rm.free_registers(False) == 127
        rm.release(prev_phys)
        assert rm.free_registers(False) == 128

    def test_exhaustion(self):
        rm = self.make()
        for __ in range(128):
            assert rm.can_rename(r(1))
            rm.rename([], r(1))
        assert not rm.can_rename(r(1))
        with pytest.raises(SimulationError):
            rm.rename([], r(1))

    def test_classes_are_independent(self):
        rm = self.make()
        rm.rename([], r(1))
        assert rm.free_registers(True) == 128

    def test_double_free_rejected(self):
        rm = self.make()
        __, __, prev_phys = rm.rename([], r(1))
        rm.release(prev_phys)
        with pytest.raises(SimulationError):
            rm.release(prev_phys)

    def test_consumer_sees_latest_mapping(self):
        rm = self.make()
        __, first_dest, __ = rm.rename([], r(1))
        src_phys, __, __ = rm.rename([r(1)], r(2))
        assert src_phys == [first_dest]

    @given(st.lists(st.integers(0, 31), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_registers_conserved(self, dests):
        rm = self.make()
        freed = 0
        allocated = 0
        for dest in dests:
            if not rm.can_rename(r(dest)):
                break
            __, __, prev_phys = rm.rename([], r(dest))
            allocated += 1
            rm.release(prev_phys)
            freed += 1
        assert rm.free_registers(False) == 128 - allocated + freed


class TestScoreboard:
    def test_initial_architectural_state_ready(self):
        sb = Scoreboard(160, 160, 32, 32)
        assert sb.is_ready((False, 0), 0)
        assert sb.is_ready((True, 31), 0)
        assert not sb.is_ready((False, 32), 0)

    def test_set_ready_cycle(self):
        sb = Scoreboard(160, 160, 32, 32)
        sb.set_ready((False, 40), 17)
        assert not sb.is_ready((False, 40), 16)
        assert sb.is_ready((False, 40), 17)

    def test_mark_pending_clears_readiness(self):
        sb = Scoreboard(160, 160, 32, 32)
        sb.mark_pending((False, 3))
        assert not sb.is_ready((False, 3), 1000)
        assert not sb.is_scheduled((False, 3))

    def test_all_ready(self):
        sb = Scoreboard(160, 160, 32, 32)
        sb.set_ready((False, 40), 5)
        sb.set_ready((True, 50), 9)
        operands = [(False, 40), (True, 50)]
        assert not sb.all_ready(operands, 8)
        assert sb.all_ready(operands, 9)


class TestReorderBuffer:
    def test_commit_in_order_only(self):
        rob = ReorderBuffer(8)
        a = make_uop(alu(0, r(1)))
        b = make_uop(alu(1, r(2)))
        rob.push(a)
        rob.push(b)
        b.complete_cycle = 1  # younger done first
        assert rob.commit_ready(5, 4) == []
        a.complete_cycle = 3
        assert rob.commit_ready(5, 4) == [a, b]

    def test_commit_width_respected(self):
        rob = ReorderBuffer(8)
        uops = []
        for i in range(4):
            uop = make_uop(alu(i, r(1)))
            uop.complete_cycle = 0
            rob.push(uop)
            uops.append(uop)
        assert rob.commit_ready(1, 2) == uops[:2]
        assert rob.commit_ready(1, 2) == uops[2:]

    def test_future_completion_not_committed(self):
        rob = ReorderBuffer(4)
        uop = make_uop(alu(0, r(1)))
        uop.complete_cycle = 10
        rob.push(uop)
        assert rob.commit_ready(9, 8) == []
        assert rob.commit_ready(10, 8) == [uop]

    def test_overflow_rejected(self):
        rob = ReorderBuffer(1)
        rob.push(make_uop(alu(0, r(1))))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.push(make_uop(alu(1, r(2))))

    def test_out_of_age_order_rejected(self):
        rob = ReorderBuffer(4)
        second = make_uop(alu(1, r(1)))
        first = make_uop(alu(0, r(1)))
        rob.push(second)
        with pytest.raises(SimulationError):
            rob.push(first)


class TestLoadStoreQueue:
    def test_load_waits_for_older_store_issue(self):
        lsq = LoadStoreQueue()
        st_uop = make_uop(store(0, r(1), 0x100))
        lsq.add_store(st_uop)
        assert not lsq.can_issue_load(1)
        st_uop.complete_cycle = 5
        lsq.store_issued(st_uop)
        assert lsq.can_issue_load(1)

    def test_younger_store_does_not_gate(self):
        lsq = LoadStoreQueue()
        st_uop = make_uop(store(5, r(1), 0x100))
        lsq.add_store(st_uop)
        assert lsq.can_issue_load(3)

    def test_conflict_delays_access(self):
        lsq = LoadStoreQueue()
        st_uop = make_uop(store(0, r(1), 0x100))
        lsq.add_store(st_uop)
        st_uop.complete_cycle = 20
        lsq.store_issued(st_uop)
        ld = make_uop(load(1, r(2), 0x900))
        start, fwd = lsq.load_access_constraints(ld, addr_ready_cycle=5)
        assert start == 20  # waits for the store address
        assert fwd is None  # different address: no forwarding

    def test_forwarding_from_matching_store(self):
        lsq = LoadStoreQueue()
        st_uop = make_uop(store(0, r(1), 0x100))
        lsq.add_store(st_uop)
        st_uop.complete_cycle = 3
        lsq.store_issued(st_uop)
        ld = make_uop(load(1, r(2), 0x100))
        __, fwd = lsq.load_access_constraints(ld, addr_ready_cycle=5)
        assert fwd is st_uop
        assert lsq.forwarded_loads == 1

    def test_youngest_matching_store_wins(self):
        lsq = LoadStoreQueue()
        older = make_uop(store(0, r(1), 0x100))
        newer = make_uop(store(1, r(3), 0x100))
        for s in (older, newer):
            lsq.add_store(s)
            s.complete_cycle = 1
            lsq.store_issued(s)
        ld = make_uop(load(2, r(2), 0x100))
        __, fwd = lsq.load_access_constraints(ld, addr_ready_cycle=5)
        assert fwd is newer

    def test_retire_unknown_store_rejected(self):
        lsq = LoadStoreQueue()
        with pytest.raises(SimulationError):
            lsq.retire_store(make_uop(store(0, r(1), 0x100)))

    def test_blocked_on_unscheduled_store_data(self):
        lsq = LoadStoreQueue()
        sb = Scoreboard(160, 160, 32, 32)
        st_uop = make_uop(store(0, r(1), 0x100), src_phys=[(False, 40), (False, 0)])
        sb.mark_pending((False, 40))  # data producer not issued
        lsq.add_store(st_uop)
        st_uop.complete_cycle = 2
        lsq.store_issued(st_uop)
        ld = make_uop(load(1, r(2), 0x100))
        assert lsq.load_blocked_on_store_data(ld, sb)
        sb.set_ready((False, 40), 9)
        assert not lsq.load_blocked_on_store_data(ld, sb)


def fu_pool(distributed=False, **fu_counts):
    """The pool of a processor with Table 1 units (overridden by
    ``fu_counts``): conventional queues, or IF_distr if distributed."""
    scheme = IF_DISTR if distributed else IssueSchemeConfig()
    return FuPool(ProcessorConfig(fus=FunctionalUnitConfig(**fu_counts), scheme=scheme))


def op_uop(op):
    return make_uop(alu(0, f(1) if op.is_fp else r(1), op=op))


class TestFunctionalUnits:
    def test_pooled_capacity_per_cycle(self):
        pool = fu_pool()
        granted = sum(
            pool.try_allocate(op_uop(OpClass.INT_ALU), cycle=5, queue_index=0)
            for __ in range(10)
        )
        assert granted == 8  # Table 1: 8 integer ALUs

    def test_pooled_bank_is_shared_across_queues(self):
        # IssueFIFO_8x8_16x16 with pooled units: every integer queue may
        # use any of the 8 ALUs, so 8 queues get one each in one cycle.
        pool = FuPool(default_config(IssueSchemeConfig(
            kind="issuefifo", int_queues=8, int_queue_entries=8,
            fp_queues=16, fp_queue_entries=16,
        )))
        alu_op = op_uop(OpClass.INT_ALU)
        assert all(pool.try_allocate(alu_op, 1, queue) for queue in range(8))
        assert not pool.try_allocate(alu_op, 1, 0)

    def test_pipelined_unit_accepts_next_cycle(self):
        pool = fu_pool(int_alu_count=1)
        uop = op_uop(OpClass.INT_ALU)
        assert pool.try_allocate(uop, 1, 0)
        assert not pool.try_allocate(uop, 1, 0)
        assert pool.try_allocate(uop, 2, 0)

    def test_divide_blocks_unit_for_full_latency(self):
        pool = fu_pool(int_muldiv_count=1)
        assert pool.try_allocate(op_uop(OpClass.INT_DIV), 1, 0)  # latency 20
        assert not pool.try_allocate(op_uop(OpClass.INT_MUL), 10, 0)
        assert pool.try_allocate(op_uop(OpClass.INT_MUL), 21, 0)

    def test_multiply_is_pipelined(self):
        pool = fu_pool(int_muldiv_count=1)
        assert pool.try_allocate(op_uop(OpClass.INT_MUL), 1, 0)
        assert pool.try_allocate(op_uop(OpClass.INT_MUL), 2, 0)

    def test_distributed_binding_per_queue(self):
        pool = fu_pool(distributed=True)
        uop = op_uop(OpClass.INT_ALU)
        assert pool.try_allocate(uop, 1, queue_index=0)
        # Queue 0's ALU is busy this cycle; queue 1 has its own.
        assert not pool.try_allocate(uop, 1, queue_index=0)
        assert pool.try_allocate(uop, 1, queue_index=1)

    def test_distributed_muldiv_shared_per_pair(self):
        pool = fu_pool(distributed=True)
        uop = op_uop(OpClass.INT_MUL)
        assert pool.try_allocate(uop, 1, queue_index=0)
        # Queues 0 and 1 share one mul/div unit.
        assert not pool.try_allocate(uop, 1, queue_index=1)
        assert pool.try_allocate(uop, 1, queue_index=2)

    def test_distributed_fp_units_per_pair(self):
        pool = fu_pool(distributed=True)
        per_type = {
            fu_type: sum(unit.fu_type is fu_type for unit in pool.units)
            for fu_type in FuType
        }
        assert per_type == {
            FuType.INT_ALU: 8,
            FuType.INT_MULDIV: 4,
            FuType.FP_ALU: 4,
            FuType.FP_MULDIV: 4,
        }

    @pytest.mark.parametrize("distributed", [False, True], ids=["pooled", "distributed"])
    def test_every_pool_requires_a_queue_index(self, distributed):
        pool = fu_pool(distributed=distributed)
        with pytest.raises(TypeError):
            pool.try_allocate(op_uop(OpClass.INT_ALU), 1, None)
        with pytest.raises(TypeError):
            pool.can_allocate(FuType.INT_ALU, 1, None)

    def test_can_allocate_probe_is_non_destructive(self):
        pool = fu_pool(int_alu_count=1)
        assert pool.can_allocate(FuType.INT_ALU, 1, 0)
        assert pool.can_allocate(FuType.INT_ALU, 1, 0)
        pool.try_allocate(op_uop(OpClass.INT_ALU), 1, 0)
        assert not pool.can_allocate(FuType.INT_ALU, 1, 0)


class TestInFlight:
    @pytest.mark.parametrize(
        "inst",
        [
            alu(3, r(1), [r(2)]),
            alu(4, f(1), [f(2)], op=OpClass.FP_DIV),
            load(5, f(3), 0x80, [r(4)], fp=True),
            store(6, r(1), 0x100, [r(2)]),
        ],
        ids=lambda inst: inst.op.name,
    )
    def test_fixed_fields_copy_the_instruction(self, inst):
        uop = make_uop(inst)
        assert (uop.op, uop.seq, uop.fu_type) == (inst.op, inst.seq, inst.op.fu_type)

    @pytest.mark.parametrize(
        "inst,src_phys,issue_srcs",
        [
            # A store issues on its address operands; srcs[0] is its data.
            (store(0, r(1), 0x100, [r(2)]), [(False, 1), (False, 2)], [(False, 2)]),
            (store(0, r(1), 0x100), [(False, 1)], [(False, 1)]),
            (load(0, r(1), 0x100, [r(2)]), [(False, 2)], [(False, 2)]),
            (alu(0, r(1), [r(2), r(3)]), [(False, 2), (False, 3)],
             [(False, 2), (False, 3)]),
            (alu(0, f(1), [f(2), f(3)], op=OpClass.FP_MUL), [(True, 2), (True, 3)],
             [(True, 2), (True, 3)]),
        ],
        ids=["store_drops_data", "store_without_address", "load", "int_alu", "fp_mul"],
    )
    def test_set_sources(self, inst, src_phys, issue_srcs):
        uop = InFlight(inst)
        uop.set_sources(src_phys)
        assert uop.src_phys == src_phys
        assert uop.issue_srcs == issue_srcs

    def test_state_flags(self):
        uop = make_uop(alu(0, r(1)))
        assert not uop.completed
        uop.complete_cycle = 5  # issue schedules the completion
        assert uop.completed
