"""Unit tests for the Section 3.1 issue-time estimator."""

import pytest

from repro.common.config import default_config
from repro.isa.opcodes import OpClass
from repro.issue.latency_estimator import IssueTimeEstimator, value_latency

from tests.util import alu, branch, f, fpalu, load, r, store


@pytest.fixture
def estimator():
    return IssueTimeEstimator(default_config())


class TestEstimator:
    def test_independent_instruction_issues_next_cycle(self, estimator):
        assert estimator.estimate(alu(0, r(1)), cycle=10) == 11

    def test_dependent_instruction_waits_for_operand(self, estimator):
        estimator.estimate(alu(0, r(1)), cycle=10)  # issue 11, dest ready 12
        assert estimator.estimate(alu(1, r(2), [r(1)]), cycle=10) == 12

    def test_max_over_both_operands(self, estimator):
        estimator.estimate(alu(0, r(1)), cycle=10)  # ready 12
        estimator.estimate(fpalu(1, f(1), op=OpClass.FP_MUL), cycle=10)  # ready 11+4
        est = estimator.estimate(
            fpalu(2, f(2), [f(1)], op=OpClass.FP_ALU), cycle=10
        )
        assert est == 15

    def test_load_value_latency_assumes_l1_hit(self, estimator):
        cfg = default_config()
        estimator.estimate(load(0, r(1), 0x100), cycle=10)  # issue 11
        est = estimator.estimate(alu(1, r(2), [r(1)]), cycle=10)
        assert est == 11 + cfg.fus.address_latency + cfg.dcache.hit_latency

    def test_store_updates_all_store_addr(self, estimator):
        cfg = default_config()
        estimator.estimate(store(0, r(1), 0x100), cycle=10)  # issue 11
        # A later load cannot issue before all store addresses are known.
        est = estimator.estimate(load(1, r(2), 0x200), cycle=10)
        assert est == 11 + cfg.fus.address_latency

    def test_store_data_operand_does_not_gate_address(self, estimator):
        # Give the store's data a late producer; its own issue estimate
        # follows only the address operands (srcs[1:]).
        estimator.estimate(fpalu(0, f(1), op=OpClass.FP_DIV), cycle=0)  # f1 late
        est = estimator.estimate(
            store(1, f(1), 0x100, [r(0)]), cycle=0
        )
        assert est == 1  # cycle + 1, not gated by f1

    def test_current_cycle_floor(self, estimator):
        estimator.estimate(alu(0, r(1)), cycle=0)  # dest ready at 2
        # Dispatching the consumer much later: floor is cycle+1.
        assert estimator.estimate(alu(1, r(2), [r(1)]), cycle=50) == 51

    def test_branch_has_no_destination_effect(self, estimator):
        estimator.estimate(branch(0, True), cycle=10)
        assert estimator.operand_cycle(r(31)) == 0

    def test_reset(self, estimator):
        estimator.estimate(alu(0, r(1)), cycle=10)
        estimator.reset()
        assert estimator.operand_cycle(r(1)) == 0

    def test_value_latency_per_class(self):
        cfg = default_config()
        assert value_latency(OpClass.FP_MUL, cfg) == cfg.fus.fp_mul_latency
        assert (
            value_latency(OpClass.LOAD, cfg)
            == cfg.fus.address_latency + cfg.dcache.hit_latency
        )

    def test_chain_of_dependents_accumulates(self, estimator):
        estimator.estimate(fpalu(0, f(1), op=OpClass.FP_MUL), cycle=0)  # issue 1, ready 5
        est1 = estimator.estimate(fpalu(1, f(1), [f(1)], op=OpClass.FP_MUL), cycle=0)
        est2 = estimator.estimate(fpalu(2, f(1), [f(1)], op=OpClass.FP_MUL), cycle=0)
        assert est1 == 5
        assert est2 == 9
