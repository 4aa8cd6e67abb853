"""Unit tests for rename, scoreboard, ROB, LSQ and functional units."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import FunctionalUnitConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.core.functional_units import DistributedFuPool, PooledFuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.rename import RenameMap
from repro.core.rob import ReorderBuffer
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight
from repro.isa.opcodes import FuType, OpClass

from tests.util import alu, f, load, r, store


def make_uop(inst, seq_age=None, src_phys=(), dest_phys=None):
    return InFlight(
        inst,
        src_phys=list(src_phys),
        dest_phys=dest_phys,
        prev_phys=None,
        rob_index=0,
        age=seq_age if seq_age is not None else inst.seq,
        dispatch_cycle=0,
    )


class TestRenameMap:
    def make(self):
        return RenameMap(32, 32, 160, 160)

    def test_initial_identity_mapping(self):
        rm = self.make()
        assert rm.lookup(r(5)) == 5
        assert rm.lookup(f(5)) == 5

    def test_rename_allocates_new_physical(self):
        rm = self.make()
        result = rm.rename([r(1)], r(2))
        assert result["src_phys"] == [(False, 1)]
        assert result["dest_phys"] == (False, 32)  # first free
        assert result["prev_phys"] == (False, 2)

    def test_free_count_decreases_then_recovers(self):
        rm = self.make()
        assert rm.free_registers(False) == 128
        result = rm.rename([], r(1))
        assert rm.free_registers(False) == 127
        rm.release(result["prev_phys"])
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
        result = rm.rename([], r(1))
        rm.release(result["prev_phys"])
        with pytest.raises(SimulationError):
            rm.release(result["prev_phys"])

    def test_consumer_sees_latest_mapping(self):
        rm = self.make()
        first = rm.rename([], r(1))
        renamed = rm.rename([r(1)], r(2))
        assert renamed["src_phys"] == [first["dest_phys"]]

    @given(st.lists(st.integers(0, 31), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_registers_conserved(self, dests):
        rm = self.make()
        freed = 0
        allocated = 0
        for dest in dests:
            if not rm.can_rename(r(dest)):
                break
            result = rm.rename([], r(dest))
            allocated += 1
            rm.release(result["prev_phys"])
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
        a = make_uop(alu(0, r(1)), rob.allocate_age())
        b = make_uop(alu(1, r(2)), rob.allocate_age())
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
            uop = make_uop(alu(i, r(1)), rob.allocate_age())
            uop.complete_cycle = 0
            rob.push(uop)
            uops.append(uop)
        assert rob.commit_ready(1, 2) == uops[:2]
        assert rob.commit_ready(1, 2) == uops[2:]

    def test_future_completion_not_committed(self):
        rob = ReorderBuffer(4)
        uop = make_uop(alu(0, r(1)), rob.allocate_age())
        uop.complete_cycle = 10
        rob.push(uop)
        assert rob.commit_ready(9, 8) == []
        assert rob.commit_ready(10, 8) == [uop]

    def test_overflow_rejected(self):
        rob = ReorderBuffer(1)
        rob.push(make_uop(alu(0, r(1)), rob.allocate_age()))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.push(make_uop(alu(1, r(2)), rob.allocate_age()))

    def test_out_of_age_order_rejected(self):
        rob = ReorderBuffer(4)
        second = make_uop(alu(1, r(1)), 5)
        first = make_uop(alu(0, r(1)), 3)
        rob.push(second)
        with pytest.raises(SimulationError):
            rob.push(first)

    def test_rollback_age_reissues_same_age(self):
        rob = ReorderBuffer(4)
        age = rob.allocate_age()
        rob.rollback_age()
        assert rob.allocate_age() == age

    def test_repeated_placement_failure_keeps_ages_dense(self):
        # Dispatch allocates an age, the issue scheme refuses placement,
        # dispatch rolls back and retries next cycle — many times in a
        # row. The instruction must get the same age on every retry, and
        # the ROB must still accept the eventual push.
        rob = ReorderBuffer(4)
        rob.push(make_uop(alu(0, r(1)), rob.allocate_age()))
        ages = set()
        for _ in range(5):  # five consecutive failed placements
            ages.add(rob.allocate_age())
            rob.rollback_age()
        assert ages == {1}
        rob.push(make_uop(alu(1, r(2)), rob.allocate_age()))
        assert [uop.age for uop in rob] == [0, 1]

    def test_rollback_without_allocation_rejected(self):
        rob = ReorderBuffer(4)
        with pytest.raises(SimulationError):
            rob.rollback_age()

    def test_rollback_of_pushed_age_rejected(self):
        rob = ReorderBuffer(4)
        rob.push(make_uop(alu(0, r(1)), rob.allocate_age()))
        with pytest.raises(SimulationError):
            rob.rollback_age()


class TestLoadStoreQueue:
    def test_load_waits_for_older_store_issue(self):
        lsq = LoadStoreQueue()
        st_uop = make_uop(store(0, r(1), 0x100))
        lsq.add_store(st_uop)
        assert not lsq.can_issue_load(1)
        lsq.store_issued(st_uop, addr_known_cycle=5)
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
        lsq.store_issued(st_uop, addr_known_cycle=20)
        ld = make_uop(load(1, r(2), 0x900))
        start, fwd = lsq.load_access_constraints(ld, addr_ready_cycle=5)
        assert start == 20  # waits for the store address
        assert fwd is None  # different address: no forwarding

    def test_forwarding_from_matching_store(self):
        lsq = LoadStoreQueue()
        st_uop = make_uop(store(0, r(1), 0x100))
        lsq.add_store(st_uop)
        lsq.store_issued(st_uop, addr_known_cycle=3)
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
            lsq.store_issued(s, addr_known_cycle=1)
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
        lsq.store_issued(st_uop, addr_known_cycle=2)
        ld = make_uop(load(1, r(2), 0x100))
        assert lsq.load_blocked_on_store_data(ld, sb)
        sb.set_ready((False, 40), 9)
        assert not lsq.load_blocked_on_store_data(ld, sb)


class TestFunctionalUnits:
    def test_pooled_capacity_per_cycle(self):
        pool = PooledFuPool(FunctionalUnitConfig())
        granted = sum(
            pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, cycle=5, queue_index=None)
            for __ in range(10)
        )
        assert granted == 8  # Table 1: 8 integer ALUs

    def test_pipelined_unit_accepts_next_cycle(self):
        pool = PooledFuPool(FunctionalUnitConfig(int_alu_count=1))
        assert pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 1, None)
        assert not pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 1, None)
        assert pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 2, None)

    def test_divide_blocks_unit_for_full_latency(self):
        pool = PooledFuPool(FunctionalUnitConfig(int_muldiv_count=1))
        assert pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_DIV, 20, 1, None)
        assert not pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_MUL, 3, 10, None)
        assert pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_MUL, 3, 21, None)

    def test_multiply_is_pipelined(self):
        pool = PooledFuPool(FunctionalUnitConfig(int_muldiv_count=1))
        assert pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_MUL, 3, 1, None)
        assert pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_MUL, 3, 2, None)

    def test_distributed_binding_per_queue(self):
        pool = DistributedFuPool(8, 8, FunctionalUnitConfig())
        assert pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 1, queue_index=0)
        # Queue 0's ALU is busy this cycle; queue 1 has its own.
        assert not pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 1, queue_index=0)
        assert pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 1, queue_index=1)

    def test_distributed_muldiv_shared_per_pair(self):
        pool = DistributedFuPool(8, 8, FunctionalUnitConfig())
        assert pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_MUL, 3, 1, queue_index=0)
        # Queues 0 and 1 share one mul/div unit.
        assert not pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_MUL, 3, 1, queue_index=1)
        assert pool.try_allocate(FuType.INT_MULDIV, OpClass.INT_MUL, 3, 1, queue_index=2)

    def test_distributed_fp_units_per_pair(self):
        pool = DistributedFuPool(8, 8, FunctionalUnitConfig())
        assert len(pool.units_of(FuType.FP_ALU)) == 4
        assert len(pool.units_of(FuType.FP_MULDIV)) == 4
        assert len(pool.units_of(FuType.INT_ALU)) == 8

    def test_distributed_requires_queue_index(self):
        pool = DistributedFuPool(8, 8, FunctionalUnitConfig())
        with pytest.raises(ConfigurationError):
            pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 1, None)

    def test_can_allocate_probe_is_non_destructive(self):
        pool = PooledFuPool(FunctionalUnitConfig(int_alu_count=1))
        assert pool.can_allocate(FuType.INT_ALU, 1)
        assert pool.can_allocate(FuType.INT_ALU, 1)
        pool.try_allocate(FuType.INT_ALU, OpClass.INT_ALU, 1, 1, None)
        assert not pool.can_allocate(FuType.INT_ALU, 1)


class TestInFlight:
    def test_store_issue_srcs_exclude_data(self):
        uop = make_uop(store(0, r(1), 0x100, [r(2)]),
                       src_phys=[(False, 1), (False, 2)])
        assert uop.issue_srcs == [(False, 2)]

    def test_load_issue_srcs_include_all(self):
        uop = make_uop(load(0, r(1), 0x100, [r(2)]), src_phys=[(False, 2)])
        assert uop.issue_srcs == [(False, 2)]

    def test_state_flags(self):
        uop = make_uop(alu(0, r(1)))
        assert not uop.issued and not uop.completed
        uop.issue_cycle = 4
        uop.complete_cycle = 5
        assert uop.issued and uop.completed
