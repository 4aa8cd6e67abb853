"""Golden-stats determinism net for the simulator and campaign engine.

One small run of each issue scheme is pinned to exact cycle, stall and
energy-event counts (plus a SHA-256 over the *entire* stats payload).
Five execution paths must reproduce them bit-identically:

* the serial in-process path (``ExperimentRunner.run``),
* the multiprocessing path (``simulate_matrix`` with 2 workers),
* a disk-cache hit (save to a fresh ``ResultStore``, reload, compare),
* the naive per-cycle kernel and the event-driven cycle-skipping kernel
  (``TestKernelPaths`` pins both explicitly; the goldens themselves were
  pinned before the skipping kernel existed, so they are the external
  anchor proving the skipper changed nothing).

Any change that alters simulated behaviour — timing, energy accounting,
trace generation, RNG — trips these tests. That is the point: future
performance work must prove it changed *nothing* observable, or update
the goldens (and bump ``SIMULATOR_VERSION_TAG``) deliberately.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.common.config import IssueSchemeConfig
from repro.common.stats import SimulationStats
from repro.experiments import IF_DISTR, IQ_64_64, MB_DISTR
from repro.experiments.parallel import simulate_matrix
from repro.experiments.runner import ExperimentRunner, RunScale, simulate_pair
from repro.experiments.store import ResultStore

BENCHMARK = "mesa"
SCALE = RunScale(num_instructions=2000, warmup_instructions=1000, seed=13)

LATFIFO_8x8_8x16 = IssueSchemeConfig(
    kind="latfifo", int_queues=8, int_queue_entries=8,
    fp_queues=8, fp_queue_entries=16,
)

SCHEMES: Dict[str, IssueSchemeConfig] = {
    "baseline": IQ_64_64,
    "issuefifo": IF_DISTR,
    "latfifo": LATFIFO_8x8_8x16,
    "mixbuff": MB_DISTR,
}


@dataclass(frozen=True)
class GoldenRun:
    cycles: int
    committed_instructions: int
    dispatch_stall_cycles: int
    branch_mispredictions: int
    energy_events: Dict[str, int]
    sha256: str


# Pinned from the run that produced this revision. Regenerate with:
#   PYTHONPATH=src python -m tests.test_golden_stats
GOLDEN: Dict[str, GoldenRun] = {
    "baseline": GoldenRun(
        cycles=181, committed_instructions=994,
        dispatch_stall_cycles=0, branch_mispredictions=7,
        energy_events={"iq_buff_read": 889, "mux_fp_mul": 189,
                       "iq_wakeup_comparisons": 10804},
        sha256="a1379748ecbc981348ff18783b05478450194dcca213fbb490556546d9cf2b4b",
    ),
    "issuefifo": GoldenRun(
        cycles=244, committed_instructions=995,
        dispatch_stall_cycles=100, branch_mispredictions=7,
        energy_events={"fifo_read": 913, "mux_fp_mul": 196},
        sha256="208ef961d733127e9a7d862269b0f6ba22678e8ed67909487f6cdb1b1d5c5a46",
    ),
    "latfifo": GoldenRun(
        cycles=186, committed_instructions=995,
        dispatch_stall_cycles=22, branch_mispredictions=7,
        energy_events={"fifo_read": 864, "mux_fp_mul": 190},
        sha256="9ada57462e43b03dd53c69c354bc8a7a674106e034e9f67d5bedd9c6e6ab2e38",
    ),
    "mixbuff": GoldenRun(
        cycles=230, committed_instructions=994,
        dispatch_stall_cycles=74, branch_mispredictions=7,
        energy_events={"fifo_read": 444, "chains_read": 1474, "mux_fp_mul": 188},
        sha256="9af8ca647643aa49d9182e70ad448e74747ae77ab2eadb96c407a6f4ac727980",
    ),
}


def stats_digest(stats: SimulationStats) -> str:
    """Canonical SHA-256 over every field and every event counter."""
    payload = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_golden(name: str, stats: SimulationStats) -> None:
    golden = GOLDEN[name]
    assert stats.cycles == golden.cycles, name
    assert stats.committed_instructions == golden.committed_instructions, name
    assert stats.dispatch_stall_cycles == golden.dispatch_stall_cycles, name
    assert stats.branch_mispredictions == golden.branch_mispredictions, name
    events = stats.events.as_dict()
    for event, count in golden.energy_events.items():
        assert events.get(event) == count, f"{name}: {event}"
    assert stats_digest(stats) == golden.sha256, name


@pytest.fixture(scope="module")
def serial_stats() -> Dict[str, SimulationStats]:
    runner = ExperimentRunner(SCALE, store=False)
    return {name: runner.run(BENCHMARK, scheme) for name, scheme in SCHEMES.items()}


class TestSerialPath:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_matches_golden(self, serial_stats, name):
        check_golden(name, serial_stats[name])

    def test_schemes_actually_differ(self, serial_stats):
        # Sanity: the pinned runs are not degenerate copies of each other.
        assert len({stats_digest(s) for s in serial_stats.values()}) == len(SCHEMES)


class TestKernelPaths:
    """Every simulation kernel must land exactly on the pinned goldens."""

    @pytest.mark.parametrize("kernel", ("naive", "skip", "specialized"))
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_kernel_matches_golden(self, name, kernel):
        stats = simulate_pair(BENCHMARK, SCHEMES[name], SCALE, kernel=kernel)[0]
        check_golden(name, stats)


class TestParallelPath:
    def test_two_workers_bit_identical_to_serial(self, serial_stats):
        pairs = [(BENCHMARK, scheme) for scheme in SCHEMES.values()]
        parallel = simulate_matrix(pairs, SCALE, workers=2)
        for name, stats in zip(SCHEMES, parallel):
            assert stats == serial_stats[name], name
            check_golden(name, stats)

    def test_run_many_with_pool_matches_golden(self):
        runner = ExperimentRunner(SCALE, store=False, workers=2)
        pairs = [(BENCHMARK, scheme) for scheme in SCHEMES.values()]
        results = runner.run_many(pairs)
        for name, stats in zip(SCHEMES, results):
            check_golden(name, stats)
        assert runner.cache_stats()["simulations"] == len(SCHEMES)


class TestDiskCachePath:
    def test_cache_hit_bit_identical(self, serial_stats, tmp_path):
        store = ResultStore(tmp_path)
        writer = ExperimentRunner(SCALE, store=store)
        for scheme in SCHEMES.values():
            writer.run(BENCHMARK, scheme)
        # A fresh runner sharing only the directory must replay every
        # result from disk, byte-for-byte, without simulating.
        reader = ExperimentRunner(SCALE, store=store)
        for name, scheme in SCHEMES.items():
            stats = reader.run(BENCHMARK, scheme)
            assert stats == serial_stats[name], name
            check_golden(name, stats)
        telemetry = reader.cache_stats()
        assert telemetry["simulations"] == 0
        assert telemetry["disk_hits"] == len(SCHEMES)


def _regenerate() -> None:  # pragma: no cover
    """Print a fresh GOLDEN table (for deliberate golden updates)."""
    runner = ExperimentRunner(SCALE, store=False)
    for name, scheme in SCHEMES.items():
        stats = runner.run(BENCHMARK, scheme)
        events = stats.events.as_dict()
        pinned = {e: events[e] for e in GOLDEN[name].energy_events if e in events}
        print(f'    "{name}": GoldenRun(')
        print(f"        cycles={stats.cycles}, "
              f"committed_instructions={stats.committed_instructions},")
        print(f"        dispatch_stall_cycles={stats.dispatch_stall_cycles}, "
              f"branch_mispredictions={stats.branch_mispredictions},")
        print(f"        energy_events={pinned},")
        print(f'        sha256="{stats_digest(stats)}",')
        print("    ),")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
