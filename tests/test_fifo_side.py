"""Unit tests for the Palacharla placement heuristics and FIFO issue."""

import pytest

from repro.common.config import IssueSchemeConfig, default_config
from repro.common.stats import StatCounters
from repro.core.functional_units import FuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight
from repro.issue.base import IssueContext
from repro.issue.fifo_side import FifoSide

from tests.util import alu, r


def make_uop(inst):
    return InFlight(inst)


@pytest.fixture
def side():
    return FifoSide(False, 4, 2, StatCounters())


def place(side, uop):
    assert side.try_place(uop, cycle=0)
    return uop


def placement_state(side):
    """Everything a placement can change: queues and the rename table."""
    return (
        [list(queue) for queue in side.queues],
        dict(side.table._map),
        dict(side.table._tail_reg),
    )


def assert_stalls(side, uop):
    """``try_place`` refuses ``uop`` and leaves the side untouched."""
    before = placement_state(side)
    assert not side.try_place(uop, 0)
    assert placement_state(side) == before
    assert uop.queue_index is None


class TestPlacement:
    def test_independent_instructions_take_empty_queues(self, side):
        a = place(side, make_uop(alu(0, r(1))))
        b = place(side, make_uop(alu(1, r(2))))
        assert a.queue_index == 0
        assert b.queue_index == 1

    def test_dependent_follows_producer(self, side):
        producer = place(side, make_uop(alu(0, r(1))))
        consumer = place(side, make_uop(alu(1, r(2), [r(1)])))
        assert consumer.queue_index == producer.queue_index

    def test_second_operand_used_when_first_unknown(self, side):
        producer = place(side, make_uop(alu(0, r(2))))
        consumer = place(side, make_uop(alu(1, r(3), [r(9), r(2)])))
        assert consumer.queue_index == producer.queue_index

    def test_full_producer_queue_single_operand_stalls(self, side):
        place(side, make_uop(alu(0, r(1))))
        place(side, make_uop(alu(1, r(1), [r(1)])))  # queue 0 now full (2 entries)
        assert_stalls(side, make_uop(alu(2, r(3), [r(1)])))

    def test_no_empty_fifo_stalls(self, side):
        for i in range(4):
            place(side, make_uop(alu(i, r(i + 1))))
        # A fifth independent chain has nowhere to go.
        assert_stalls(side, make_uop(alu(4, r(9))))

    def test_consumer_can_follow_issued_producer_marker(self, side):
        # The table entry survives the producer's issue (hardware table
        # is only overwritten by new dispatches).
        producer = place(side, make_uop(alu(0, r(1))))
        side.queues[producer.queue_index].popleft()  # pretend it issued
        consumer = place(side, make_uop(alu(1, r(2), [r(1)])))
        assert consumer.queue_index == producer.queue_index


class TestIssue:
    def make_ctx(self, cycle=0):
        # Pooled units, four integer queues: the geometry of the side.
        cfg = default_config(
            IssueSchemeConfig(kind="issuefifo", int_queues=4, int_queue_entries=2)
        )
        self.scoreboard = Scoreboard(160, 160, 32, 32)
        completions = []
        ctx = IssueContext(
            cycle,
            cfg,
            self.scoreboard,
            FuPool(cfg),
            LoadStoreQueue(),
            lambda uop, cyc: completions.append(uop),
        )
        return ctx

    def test_only_heads_issue(self, side):
        a = place(side, make_uop(alu(0, r(1))))
        b = place(side, make_uop(alu(1, r(2), [r(1)])))  # behind a
        ctx = self.make_ctx()
        issued = side.issue_heads(ctx)
        assert issued == [a]
        assert side.queues[a.queue_index][0] is b

    def test_unready_head_blocks_queue(self, side):
        uop = make_uop(alu(0, r(1), [r(2)]))
        uop.set_sources([(False, 40)])  # pending physical register
        self_ctx = self.make_ctx()
        self_ctx.scoreboard.mark_pending((False, 40))
        place(side, uop)
        assert side.issue_heads(self_ctx) == []

    def test_heads_issue_oldest_first(self, side):
        young = make_uop(alu(5, r(2)))
        old = make_uop(alu(1, r(1)))
        place(side, young)
        place(side, old)
        ctx = self.make_ctx()
        issued = side.issue_heads(ctx)
        assert issued[0] is old

    def test_issue_consumes_budget(self, side):
        for i in range(4):
            place(side, make_uop(alu(i, r(i + 1))))
        ctx = self.make_ctx()
        ctx.int_budget = 2
        assert len(side.issue_heads(ctx)) == 2

    def test_regs_ready_reads_counted_per_head(self):
        events = StatCounters()
        side = FifoSide(False, 4, 2, events)
        uop = make_uop(alu(0, r(1), [r(2)]))
        uop.set_sources([(False, 2)])
        side.try_place(uop, 0)
        ctx = self.make_ctx()
        side.issue_heads(ctx)
        assert events.get("regs_ready_read") == 1
