"""Shared fixtures for the figure-regeneration benchmarks.

All benchmarks share one :class:`ExperimentRunner`, so baseline runs are
simulated once and reused across figures (the same way the paper's
figures share the same simulation campaign). The runner is additionally
backed by the on-disk result store, so a *second* invocation of the
whole harness replays every figure from cache without simulating at all.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — dynamic instructions per run (default 4000);
  raising it gives higher-fidelity numbers and a different cache
  universe (scale is part of the cache key).
* ``REPRO_BENCH_KERNEL`` — simulation kernel: ``skip`` (default),
  ``naive`` or ``specialized``; results are bit-identical, only wall
  time changes (and the kernel is *not* part of the cache key).
* ``REPRO_CACHE_DIR`` — where results persist (default
  ``~/.cache/repro-abella04``). Delete the directory for a cold run.

Each benchmark's pytest-benchmark record carries ``extra_info`` with its
wall time, the memory-hit/disk-hit/simulation deltas it caused, and the
simulation-kernel telemetry (cycles actually executed vs. skipped by the
event wheel), so BENCH_*.json files capture both the cache speedup
trajectory and how much simulated time the cycle-skipping kernel jumped
over.
"""

import os
import time

import pytest

from repro import obs
from repro.core.engine import KernelTelemetry
from repro.experiments import ExperimentRunner, ResultStore, RunScale, default_cache_dir

_DEFAULT_INSTRUCTIONS = 4000


def _scale() -> RunScale:
    n = int(os.environ.get("REPRO_BENCH_SCALE", _DEFAULT_INSTRUCTIONS))
    return RunScale(num_instructions=n, warmup_instructions=n // 2, seed=11)


def _kernel() -> str:
    return os.environ.get("REPRO_BENCH_KERNEL", "skip")


@pytest.fixture(scope="session")
def cache_dir():
    """Directory backing the session's result store (persists across runs)."""
    return default_cache_dir()


@pytest.fixture(scope="session")
def runner(request, cache_dir) -> ExperimentRunner:
    shared = ExperimentRunner(_scale(), store=ResultStore(cache_dir), kernel=_kernel())
    request.config._repro_runner = shared
    return shared


@pytest.fixture(autouse=True)
def _cache_telemetry(request, runner):
    """Attach per-test wall time and cache-layer deltas to the benchmark.

    The deltas land in pytest-benchmark's ``extra_info`` (and thus in any
    ``--benchmark-json`` output), so successive BENCH_*.json files show
    the harness going from all-simulations to all-disk-hits.
    """
    # Resolve the benchmark fixture eagerly: during teardown it is
    # already finalized and can no longer be requested.
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    before = runner.cache_stats()
    kernel_before = obs.kernel_totals()
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    delta = {
        f"cache_{name}": after - before[name]
        for name, after in runner.cache_stats().items()
    }
    kernel_delta = {
        f"kernel_{name}": after - kernel_before[name]
        for name, after in obs.kernel_totals().items()
    }
    if benchmark is not None:
        benchmark.extra_info["wall_time_s"] = round(elapsed, 3)
        benchmark.extra_info["kernel"] = _kernel()
        benchmark.extra_info.update(delta)
        benchmark.extra_info.update(kernel_delta)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One-line cache report for the whole benchmark session."""
    runner = getattr(config, "_repro_runner", None)
    if runner is None:
        return
    stats = runner.cache_stats()
    terminalreporter.write_line(
        f"repro cache: {stats['simulations']} simulated, "
        f"{stats['disk_hits']} disk hits, {stats['memory_hits']} memory hits"
    )
    telemetry = KernelTelemetry(**obs.kernel_totals())
    if telemetry.total_cycles:
        skipped_pct = 100.0 * telemetry.skipped_cycles / telemetry.total_cycles
        terminalreporter.write_line(
            f"repro kernel [{_kernel()}]: {telemetry.executed_cycles} cycles "
            f"executed, {telemetry.skipped_cycles} skipped ({skipped_pct:.1f}%) "
            f"in {telemetry.skip_spans} spans"
        )
