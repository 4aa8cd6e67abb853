"""Unit tests for the register → queue/chain mapping table."""

import pytest

from repro.common.stats import StatCounters
from repro.issue.mapping import QueueRenameTable

from tests.util import f, r

#: Two distinct locations of each kind a scheme steers to: FIFO queue
#: indices (queue 0 included, a falsy location) and MixBUFF (queue,
#: chain) pairs in one queue.
LOCATIONS = {"queue": (0, 3), "chain": ((2, 0), (2, 1))}


@pytest.fixture(params=sorted(LOCATIONS))
def locations(request):
    return LOCATIONS[request.param]


@pytest.fixture
def table():
    return QueueRenameTable(StatCounters())


class TestQueueRenameTable:
    def test_lookup_after_set(self, table, locations):
        a, __ = locations
        table.set_tail(a, r(5))
        assert table.producer(r(5)) == a

    def test_unknown_register(self, table):
        assert table.producer(r(9)) is None

    def test_locations_are_distinct(self, table, locations):
        a, b = locations
        table.set_tail(a, f(1))
        table.set_tail(b, f(2))
        assert table.producer(f(1)) == a
        assert table.producer(f(2)) == b

    def test_new_tail_at_same_location_invalidates_old(self, table, locations):
        a, __ = locations
        table.set_tail(a, r(5))
        table.set_tail(a, r(6))
        assert table.producer(r(5)) is None
        assert table.producer(r(6)) == a

    def test_destless_tail_keeps_previous_marker(self, table, locations):
        # Stores/branches write nothing into the table, so the previous
        # producer's entry stays valid (the table is indexed by dest).
        a, __ = locations
        table.set_tail(a, r(5))
        table.set_tail(a, None)
        assert table.producer(r(5)) == a

    def test_register_remapped_to_new_location(self, table, locations):
        a, b = locations
        table.set_tail(a, r(5))
        table.set_tail(b, r(5))
        assert table.producer(r(5)) == b

    def test_int_and_fp_registers_distinct(self, table, locations):
        a, b = locations
        table.set_tail(a, r(5))
        table.set_tail(b, f(5))
        assert table.producer(r(5)) == a
        assert table.producer(f(5)) == b

    def test_retire_invalidates_only_that_location(self, table, locations):
        a, b = locations
        table.set_tail(a, f(1))
        table.set_tail(b, f(2))
        table.retire(a)
        assert table.producer(f(1)) is None
        assert table.producer(f(2)) == b
        table.retire(a)  # retiring twice is harmless

    def test_clear_on_mispredict(self, table, locations):
        a, __ = locations
        table.set_tail(a, r(5))
        table.clear()
        assert table.producer(r(5)) is None

    def test_energy_events_counted(self, locations):
        events = StatCounters()
        table = QueueRenameTable(events)
        a, __ = locations
        table.set_tail(a, r(2))
        table.set_tail(a, None)
        table.producer(r(2))
        assert events.get("qrename_write") == 1
        assert events.get("qrename_read") == 1
