"""Unit tests for the register → queue/chain mapping tables."""

from repro.common.stats import StatCounters
from repro.issue.mapping import ChainRenameTable, QueueRenameTable

from tests.util import f, r


class TestQueueRenameTable:
    def make(self):
        return QueueRenameTable(StatCounters())

    def test_lookup_after_set(self):
        table = self.make()
        table.set_tail(3, r(5))
        assert table.queue_of(r(5)) == 3

    def test_unknown_register(self):
        assert self.make().queue_of(r(9)) is None

    def test_new_producer_in_same_queue_invalidates_old(self):
        table = self.make()
        table.set_tail(3, r(5))
        table.set_tail(3, r(6))  # new tail of queue 3
        assert table.queue_of(r(5)) is None
        assert table.queue_of(r(6)) == 3

    def test_destless_tail_keeps_previous_marker(self):
        # Stores/branches write nothing into the table, so the previous
        # producer's entry stays valid (the table is indexed by dest).
        table = self.make()
        table.set_tail(3, r(5))
        table.set_tail(3, None)
        assert table.queue_of(r(5)) == 3

    def test_register_remapped_to_new_queue(self):
        table = self.make()
        table.set_tail(3, r(5))
        table.set_tail(4, r(5))
        assert table.queue_of(r(5)) == 4

    def test_int_and_fp_registers_distinct(self):
        table = self.make()
        table.set_tail(1, r(5))
        table.set_tail(2, f(5))
        assert table.queue_of(r(5)) == 1
        assert table.queue_of(f(5)) == 2

    def test_clear_on_mispredict(self):
        table = self.make()
        table.set_tail(3, r(5))
        table.clear()
        assert table.queue_of(r(5)) is None

    def test_energy_events_counted(self):
        events = StatCounters()
        table = QueueRenameTable(events)
        table.set_tail(1, r(2))
        table.queue_of(r(2))
        assert events.get("qrename_write") == 1
        assert events.get("qrename_read") == 1


class TestChainRenameTable:
    def make(self):
        return ChainRenameTable(StatCounters())

    def test_lookup_after_set(self):
        table = self.make()
        table.set_tail(2, 5, f(7))
        assert table.chain_of(f(7)) == (2, 5)

    def test_chains_within_queue_are_distinct(self):
        table = self.make()
        table.set_tail(2, 0, f(1))
        table.set_tail(2, 1, f(2))
        assert table.chain_of(f(1)) == (2, 0)
        assert table.chain_of(f(2)) == (2, 1)

    def test_new_tail_of_same_chain_invalidates_old(self):
        table = self.make()
        table.set_tail(2, 0, f(1))
        table.set_tail(2, 0, f(2))
        assert table.chain_of(f(1)) is None
        assert table.chain_of(f(2)) == (2, 0)

    def test_chain_retired_invalidates(self):
        table = self.make()
        table.set_tail(2, 0, f(1))
        table.chain_retired(2, 0)
        assert table.chain_of(f(1)) is None

    def test_destless_keeps_marker(self):
        table = self.make()
        table.set_tail(2, 0, f(1))
        table.set_tail(2, 0, None)
        assert table.chain_of(f(1)) == (2, 0)

    def test_clear(self):
        table = self.make()
        table.set_tail(2, 0, f(1))
        table.clear()
        assert table.chain_of(f(1)) is None
