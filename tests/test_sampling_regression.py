"""Statistical regression net for the sampled execution mode.

For every figure-suite benchmark and the four exploration stress
profiles, one full detailed run is compared against one sampled run
under the Section 4 baseline scheme. The contract, per benchmark:

* the sampled IPC estimate is within the plan's configured relative-
  error bound of the full-run value,
* the full-run IPC and energy-per-instruction fall inside the reported
  confidence intervals, and
* the sampled run *executed* strictly fewer detailed cycles than the
  full run (reported via ``KernelTelemetry``).

Everything here is deterministic — trace generation, slice placement
and the simulators are all seeded — so these assertions are exact
regression pins, not flaky statistics: a change that degrades the
estimator or the functional warming trips them immediately.

The run scale is larger than the unit tests' (sampling needs room to
amortize its per-slice pipeline warm-up), which makes this the most
expensive test module in tier 1; results are computed once per session.
"""

import pytest

from repro.common.config import default_config
from repro.energy.model import EnergyModel
from repro.experiments.configs import IQ_64_64
from repro.experiments.runner import RunScale, simulate_pair, simulate_sampled_pair
from repro.sampling import SamplingPlan
from repro.workloads.suites import FP_BENCHMARKS, INT_BENCHMARKS, STRESS_BENCHMARKS

#: The regression scale: a 10k-instruction measured region gives the
#: plan enough strata for the heterogeneous synthetic traces.
SCALE = RunScale(num_instructions=12000, warmup_instructions=2000, seed=11)

#: Tuned against the suite: ~70% slice coverage of the measured region,
#: 300-instruction detailed warm-up per slice (the pipeline-fill scale),
#: 99% confidence, 10% error bound.
PLAN = SamplingPlan(
    num_slices=10,
    slice_instructions=700,
    warmup_instructions=300,
    confidence=0.99,
    target_relative_error=0.10,
)

ALL_BENCHMARKS = INT_BENCHMARKS + FP_BENCHMARKS + STRESS_BENCHMARKS

_CONFIG = default_config(IQ_64_64)
_MODEL = EnergyModel(_CONFIG)
_CACHE = {}


def _measure(bench):
    """(full ipc, full epi, full executed cycles, SampledStats) — memoized."""
    if bench not in _CACHE:
        full_stats, trace, full_telemetry = simulate_pair(bench, IQ_64_64, SCALE)
        full_cycles = full_telemetry.executed_cycles
        sampled = simulate_sampled_pair(
            bench, IQ_64_64, SCALE, PLAN, trace=trace
        )[0]
        full_epi = (
            _MODEL.energy_pj(full_stats.events.as_dict())
            / full_stats.committed_instructions
        )
        _CACHE[bench] = (full_stats.ipc, full_epi, full_cycles, sampled)
    return _CACHE[bench]


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
class TestSampledAccuracy:
    def test_ipc_within_plan_error_bound(self, bench):
        full_ipc, __, __, sampled = _measure(bench)
        error = abs(sampled.estimates["ipc"].mean - full_ipc) / full_ipc
        assert error <= PLAN.target_relative_error, (
            f"{bench}: sampled IPC {sampled.estimates['ipc'].mean:.4f} "
            f"vs full {full_ipc:.4f} — {100 * error:.1f}% exceeds the "
            f"{100 * PLAN.target_relative_error:.0f}% bound"
        )
        assert sampled.within_bound(full_ipc)

    def test_full_ipc_inside_reported_interval(self, bench):
        full_ipc, __, __, sampled = _measure(bench)
        estimate = sampled.estimates["ipc"]
        assert estimate.contains(full_ipc), (
            f"{bench}: full IPC {full_ipc:.4f} outside "
            f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}]"
        )

    def test_full_energy_inside_reported_interval(self, bench):
        __, full_epi, __, sampled = _measure(bench)
        estimate = sampled.estimates["energy_per_inst"]
        assert estimate.contains(full_epi), (
            f"{bench}: full energy/inst {full_epi:.3f} pJ outside "
            f"[{estimate.ci_low:.3f}, {estimate.ci_high:.3f}]"
        )

    def test_fewer_detailed_cycles_than_full(self, bench):
        __, __, full_cycles, sampled = _measure(bench)
        assert 0 < sampled.detailed_cycles < full_cycles, (
            f"{bench}: sampled mode executed {sampled.detailed_cycles} "
            f"cycles vs {full_cycles} full — no detailed-cycle savings"
        )
