"""Integration tests: the full pipeline on hand-crafted and synthetic traces."""

import pytest

from repro.common.config import IssueSchemeConfig, default_config
from repro.common.errors import SimulationError
from repro.core.processor import Processor
from repro.workloads.generator import generate_trace
from repro.workloads.prewarm import prewarm
from repro.workloads.suites import get_profile

from tests.util import alu, branch, f, fpalu, load, make_trace, r, store

ALL_SCHEMES = [
    IssueSchemeConfig(kind="conventional", unbounded=True),
    IssueSchemeConfig(kind="conventional"),
    IssueSchemeConfig(kind="issuefifo", int_queues=8, int_queue_entries=8,
                      fp_queues=8, fp_queue_entries=16),
    IssueSchemeConfig(kind="latfifo", int_queues=8, int_queue_entries=8,
                      fp_queues=8, fp_queue_entries=16),
    IssueSchemeConfig(kind="mixbuff", int_queues=8, int_queue_entries=8,
                      fp_queues=8, fp_queue_entries=16, max_chains_per_queue=8),
    IssueSchemeConfig(kind="issuefifo", int_queues=8, int_queue_entries=8,
                      fp_queues=8, fp_queue_entries=16, distributed_fus=True),
    IssueSchemeConfig(kind="mixbuff", int_queues=8, int_queue_entries=8,
                      fp_queues=8, fp_queue_entries=16, distributed_fus=True,
                      max_chains_per_queue=8),
]


def run_trace(trace, scheme=None, **kwargs):
    cfg = default_config(scheme or IssueSchemeConfig(kind="conventional", unbounded=True))
    processor = Processor(cfg, trace)
    return processor.run(**kwargs), processor


class TestGoldenTiming:
    def test_single_instruction(self):
        stats, __ = run_trace(make_trace([alu(0, r(1))]))
        assert stats.committed_instructions == 1
        assert stats.ipc > 0

    def test_dependent_chain_is_serial(self):
        # 20 dependent single-cycle ALU ops: at least 20 issue cycles.
        insts = [alu(0, r(1))] + [alu(i, r(1), [r(1)]) for i in range(1, 20)]
        stats, __ = run_trace(make_trace(insts))
        assert stats.cycles >= 20

    def test_independent_ops_run_in_parallel(self):
        serial = [alu(0, r(1))] + [alu(i, r(1), [r(1)]) for i in range(1, 16)]
        parallel = [alu(i, r(1 + i % 8)) for i in range(16)]
        serial_stats, __ = run_trace(make_trace(serial))
        parallel_stats, __ = run_trace(make_trace(parallel))
        assert parallel_stats.cycles < serial_stats.cycles

    def test_fp_latency_longer_than_int(self):
        int_chain = [alu(0, r(1))] + [alu(i, r(1), [r(1)]) for i in range(1, 12)]
        fp_chain = [fpalu(0, f(1))] + [fpalu(i, f(1), [f(1)]) for i in range(1, 12)]
        int_stats, __ = run_trace(make_trace(int_chain))
        fp_stats, __ = run_trace(make_trace(fp_chain))
        # FP ALU latency is 2 vs 1: the dependent chain takes longer
        # (cold-start fetch overhead is shared by both runs).
        assert fp_stats.cycles >= int_stats.cycles + 6

    def test_store_load_forwarding_faster_than_miss(self):
        # A load that forwards from an in-flight store to a new address
        # avoids the cold-miss latency.
        forwarded = [
            alu(0, r(1)),
            store(1, r(1), 0x100, [r(2)]),
            load(2, r(3), 0x100),
        ]
        cold = [
            alu(0, r(1)),
            store(1, r(1), 0x100, [r(2)]),
            load(2, r(3), 0x4000),
        ]
        f_stats, f_proc = run_trace(make_trace(forwarded))
        c_stats, __ = run_trace(make_trace(cold))
        assert f_proc.lsq.forwarded_loads == 1
        assert f_stats.cycles < c_stats.cycles

    def test_load_waits_for_older_store_address(self):
        # The load's memory access may not start before all older store
        # addresses are known.
        insts = [
            alu(0, r(1)),
            store(1, r(1), 0x200, [r(2)]),
            load(2, r(3), 0x300),
        ]
        stats, proc = run_trace(make_trace(insts))
        assert stats.committed_instructions == 3

    def test_mispredicted_branch_costs_cycles(self):
        taken = make_trace(
            [alu(0, r(1))] + [branch(1, True)] + [alu(i, r(2)) for i in range(2, 10)]
        )
        fallthrough = make_trace(
            [alu(0, r(1))] + [branch(1, False)] + [alu(i, r(2)) for i in range(2, 10)]
        )
        # A cold predictor predicts not-taken: the taken branch blocks fetch.
        taken_stats, __ = run_trace(taken)
        fall_stats, __ = run_trace(fallthrough)
        assert taken_stats.cycles > fall_stats.cycles


class TestAllSchemes:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: f"{s.kind}{'-distr' if s.distributed_fus else ''}{'-unb' if s.unbounded else ''}")
    def test_synthetic_trace_commits_fully(self, scheme):
        trace = generate_trace(get_profile("mesa"), 800, seed=9)
        cfg = default_config(scheme)
        processor = Processor(cfg, trace)
        stats = processor.run()
        assert stats.committed_instructions == 800
        assert 0 < stats.ipc <= cfg.fetch_width

    @pytest.mark.parametrize("scheme", ALL_SCHEMES[:5], ids=lambda s: s.kind + ("u" if s.unbounded else ""))
    def test_determinism(self, scheme):
        results = []
        for __ in range(2):
            trace = generate_trace(get_profile("gzip"), 600, seed=4)
            stats, __p = run_trace(trace, scheme)
            results.append((stats.cycles, stats.committed_instructions,
                            sorted(stats.events.as_dict().items())))
        assert results[0] == results[1]


class TestDispatchOrder:
    def test_refused_placement_is_the_next_dispatched(self):
        # An age is the trace seq, so dispatch allocates nothing and a
        # refused placement has nothing to roll back. One-entry FIFOs
        # refuse placement often; every offer must carry the next seq in
        # program order (a refused one comes back first), and after
        # every cycle the ROB must hold consecutive seqs ending at the
        # last placed one.
        scheme = IssueSchemeConfig(kind="issuefifo", int_queues=2,
                                   int_queue_entries=1, fp_queues=2,
                                   fp_queue_entries=1)
        trace = generate_trace(get_profile("mesa"), 600, seed=9)
        processor = Processor(default_config(scheme), trace)
        next_seq = 0
        refusals = 0
        place = processor.scheme.try_dispatch
        step = processor.step

        def checked_place(uop, cycle):
            nonlocal next_seq, refusals
            assert uop.seq == next_seq
            placed = place(uop, cycle)
            if placed:
                next_seq += 1
            else:
                refusals += 1
            return placed

        def checked_step(cycle):
            result = step(cycle)
            seqs = [uop.seq for uop in processor.rob]
            assert seqs == list(range(next_seq - len(seqs), next_seq))
            return result

        processor.scheme.try_dispatch = checked_place
        processor.step = checked_step
        stats = processor.run(kernel="naive")
        assert stats.committed_instructions == 600
        assert next_seq == 600
        assert refusals > 100


class TestWarmup:
    def test_warmup_excluded_from_stats(self):
        trace = generate_trace(get_profile("gzip"), 1000, seed=4)
        full, __ = run_trace(trace)
        trace2 = generate_trace(get_profile("gzip"), 1000, seed=4)
        warm, __ = run_trace(trace2, warmup_instructions=500)
        assert warm.committed_instructions <= 500 + 8  # commit-width slack
        assert warm.cycles < full.cycles

    def test_warmup_must_be_shorter_than_trace(self):
        trace = generate_trace(get_profile("gzip"), 100, seed=4)
        with pytest.raises(SimulationError):
            run_trace(trace, warmup_instructions=100)

    def test_warm_run_has_higher_ipc_than_cold(self):
        trace = generate_trace(get_profile("swim"), 2000, seed=4)
        cold, __ = run_trace(trace)
        trace2 = generate_trace(get_profile("swim"), 2000, seed=4)
        cfg = default_config(IssueSchemeConfig(kind="conventional", unbounded=True))
        proc = Processor(cfg, trace2)
        prewarm(proc.hierarchy, get_profile("swim"), 4)
        warm = proc.run(warmup_instructions=1000)
        assert warm.ipc > cold.ipc


class TestEventAccounting:
    def test_cycle_and_commit_events_exported(self):
        trace = generate_trace(get_profile("gzip"), 400, seed=4)
        stats, __ = run_trace(trace)
        assert stats.events.get("cycles") == stats.cycles
        assert stats.events.get("committed") == 400

    def test_conventional_counts_wakeup_and_buff(self):
        trace = generate_trace(get_profile("gzip"), 400, seed=4)
        stats, __ = run_trace(trace)
        events = stats.events.as_dict()
        assert events.get("iq_buff_write", 0) == 400
        assert events.get("iq_wakeup_broadcasts", 0) > 0

    def test_fifo_scheme_counts_fifo_events(self):
        trace = generate_trace(get_profile("gzip"), 400, seed=4)
        stats, __ = run_trace(trace, ALL_SCHEMES[2])
        events = stats.events.as_dict()
        assert events.get("fifo_write", 0) > 0
        assert events.get("regs_ready_read", 0) > 0
        assert events.get("qrename_read", 0) > 0

    def test_mixbuff_counts_chain_events(self):
        trace = generate_trace(get_profile("mesa"), 600, seed=4)
        stats, __ = run_trace(trace, ALL_SCHEMES[4])
        events = stats.events.as_dict()
        assert events.get("mb_buff_write", 0) > 0
        assert events.get("chains_read", 0) > 0
        assert events.get("mb_reg_write", 0) > 0

    def test_mux_events_match_issued_instructions(self):
        trace = generate_trace(get_profile("gzip"), 400, seed=4)
        stats, __ = run_trace(trace)
        events = stats.events.as_dict()
        mux_total = sum(events.get(k, 0) for k in
                        ("mux_int_alu", "mux_int_mul", "mux_fp_alu", "mux_fp_mul"))
        assert mux_total == events.get("instructions_issued")
