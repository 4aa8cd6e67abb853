"""Unit tests for the fetch engine."""


from repro.common.config import default_config
from repro.frontend.fetch import FetchEngine
from repro.memory.hierarchy import MemoryHierarchy

from tests.util import alu, branch, make_trace, r


def warm_engine(trace):
    """Fetch engine whose I-cache already holds the trace's lines."""
    config = default_config()
    hierarchy = MemoryHierarchy(config)
    for inst in trace:
        hierarchy.instruction_fetch_latency(inst.pc)
    return FetchEngine(config, trace, hierarchy)


class TestFetch:
    def test_fetch_width_limit(self):
        trace = make_trace([alu(i, r(1)) for i in range(20)])
        engine = warm_engine(trace)
        assert engine.fetch_cycle(0) == 8  # Table 1 fetch width

    def test_queue_capacity_limit(self):
        trace = make_trace([alu(i, r(1)) for i in range(100)])
        engine = warm_engine(trace)
        for cycle in range(20):
            engine.fetch_cycle(cycle)
        assert len(engine.queue) == 64  # fetch queue entries

    def test_pop_instructions_in_order(self):
        trace = make_trace([alu(i, r(1)) for i in range(10)])
        engine = warm_engine(trace)
        engine.fetch_cycle(0)
        popped = engine.pop_instructions(3)
        assert [inst.seq for inst in popped] == [0, 1, 2]

    def test_correctly_predicted_taken_branch_ends_group(self):
        insts = [alu(0, r(1)), branch(1, True, target=0x1000), alu(2, r(2)),
                 alu(3, r(2))]
        trace = make_trace(insts)
        engine = warm_engine(trace)
        # Train the predictor so the branch predicts taken with target.
        for __ in range(8):
            engine.predictor.predict_and_update(insts[1].pc, True, 0x1000)
        fetched = engine.fetch_cycle(0)
        assert fetched == 2  # group stops after the taken branch

    def test_mispredicted_branch_blocks_fetch(self):
        insts = [branch(0, True, target=0x1000), alu(1, r(1))]
        trace = make_trace(insts)
        engine = warm_engine(trace)  # cold predictor: predicts not taken
        engine.fetch_cycle(0)
        assert engine.blocked_on_branch == 0
        assert engine.fetch_cycle(1) == 0  # blocked

    def test_resolve_unblocks_after_redirect_penalty(self):
        insts = [branch(0, True, target=0x1000), alu(1, r(1))]
        trace = make_trace(insts)
        engine = warm_engine(trace)
        engine.fetch_cycle(0)
        engine.resolve_branch(0, cycle=10)
        assert engine.blocked_on_branch is None
        assert engine.fetch_cycle(11) == 0  # still within redirect penalty
        assert engine.fetch_cycle(12) == 1

    def test_resolve_of_other_branch_ignored(self):
        insts = [branch(0, True, target=0x1000), alu(1, r(1))]
        trace = make_trace(insts)
        engine = warm_engine(trace)
        engine.fetch_cycle(0)
        engine.resolve_branch(99, cycle=10)
        assert engine.blocked_on_branch == 0

    def test_icache_miss_stalls_fetch(self):
        trace = make_trace([alu(i, r(1)) for i in range(4)])
        config = default_config()
        engine = FetchEngine(config, trace, MemoryHierarchy(config))  # cold
        assert engine.fetch_cycle(0) == 0  # miss: line not ready
        fill = engine.next_activity_cycle(1)  # the skip kernel's wake
        assert fill > 1
        for cycle in range(1, fill):
            assert engine.fetch_cycle(cycle) == 0
        assert engine.fetch_cycle(fill) == 4  # the line arrived

    def test_exhausted_after_full_trace(self):
        trace = make_trace([alu(i, r(1)) for i in range(4)])
        engine = warm_engine(trace)
        engine.fetch_cycle(0)
        assert engine.exhausted
        assert engine.fetched_instructions == 4
