"""Oracles: executable contracts the simulator must never break.

Each oracle examines one *design point* (a concrete processor config
plus workload, see :class:`~repro.explore.space.DesignPoint`) at one
:class:`~repro.experiments.runner.RunScale` and reports zero or more
:class:`Finding`\\ s. Two families:

* **Differential** oracles run the same point twice along an axis that
  is bit-identical *by contract* — naive vs. each other registered
  kernel (skip and specialized), serial vs.
  multiprocessing execution — and diff the full statistics.
  Each leg runs under its own cache-key salt: no key holds the kernel
  (the contract says it cannot matter), so an unsalted differential
  would serve the first leg's cache entry for the second and be
  structurally unable to disagree.
* **Invariant** oracles run a point once and check properties every
  honest result must satisfy: structural bounds on a full run's
  statistics (:func:`check_invariants`) and record-level contracts of a
  sampled run's estimate (:func:`check_estimate_record`).

The invariant catalogs are deliberately conservative — every check was
probed against clean runs across the design space before admission, so
a violation is evidence of a bug, not of a loose bound. Notably *not*
invariants (all empirically false for this simulator): committed
instructions equal the configured region (warm-up snapshots overshoot
by the in-flight window) and fetched/issued at least committed
(same boundary effects). The ``sampling_ci`` oracle likewise does not
require the sampled interval to contain the full run's IPC — that is a
*statistical* property with a real miss rate at small scales, checked
by the campaign CLI's ``--sampling-validate`` gate at proper scale, not
a per-point hard contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.stats import SimulationStats
from repro.core.engine import KERNEL_NAIVE, VALID_KERNELS
from repro.experiments.runner import RunScale
from repro.sampling.estimator import (
    ESTIMATED_METRICS,
    MEASUREMENT_BIAS_ALLOWANCE,
    SampledStats,
)
from repro.sampling.plan import SamplingPlan

__all__ = [
    "Finding",
    "Oracle",
    "ORACLES",
    "plan_for",
    "resolve_oracles",
    "diff_stats",
    "check_invariants",
    "check_estimate_record",
]

#: Most event-counter lines a differential finding keeps; the rest are
#: summarized. Witnesses are for humans first.
_DETAIL_CAP = 8


@dataclass(frozen=True)
class Finding:
    """One oracle violation at one (point, scale).

    ``detail`` is a human-readable description of *how* the contract
    broke — differing fields with both values, or the violated
    invariant — stable across reruns so witness artifacts are
    deterministic.
    """

    oracle: str
    point: object  # DesignPoint; untyped to keep import edges one-way
    scale: RunScale
    detail: Tuple[str, ...]


def plan_for(scale: RunScale) -> SamplingPlan:
    """A sampling plan that fits ``scale``'s measured region.

    The library default plan measures more instructions than a
    discovery-sized region holds, so the sampled oracle derives a
    proportional plan instead: four slices sized to cover about 2/3 of
    the region. Valid for every scale :class:`RunScale` accepts (the
    500-instruction floor gives a 250-instruction region, ≥ the 4×50
    minimum this plan bottoms out at).
    """
    region = scale.num_instructions - scale.warmup_instructions
    slice_instructions = max(50, region // 6)
    return SamplingPlan(
        num_slices=4,
        slice_instructions=slice_instructions,
        warmup_instructions=slice_instructions // 2,
        confidence=0.95,
        seed=17,
        target_relative_error=0.15,
    )


def diff_stats(
    a: SimulationStats,
    b: SimulationStats,
    legs: Tuple[str, str],
) -> List[str]:
    """Human-readable field-level diff of two stats objects.

    Empty when the results are bit-identical. Scalar fields come first,
    then differing event counters (capped at :data:`_DETAIL_CAP` with a
    summary line), all in deterministic order.
    """
    left, right = a.to_dict(), b.to_dict()
    lines: List[str] = []
    for name in sorted(left):
        if name == "events":
            continue
        if left[name] != right[name]:
            lines.append(
                f"{name}: {legs[0]}={left[name]} {legs[1]}={right[name]}"
            )
    events_a, events_b = left["events"], right["events"]
    differing = sorted(
        name
        for name in set(events_a) | set(events_b)
        if events_a.get(name, 0) != events_b.get(name, 0)
    )
    for name in differing[:_DETAIL_CAP]:
        lines.append(
            f"events[{name}]: {legs[0]}={events_a.get(name, 0)} "
            f"{legs[1]}={events_b.get(name, 0)}"
        )
    if len(differing) > _DETAIL_CAP:
        lines.append(
            f"... and {len(differing) - _DETAIL_CAP} more differing event "
            "counter(s)"
        )
    return lines


def check_invariants(stats: SimulationStats, config) -> List[str]:
    """Structural invariants of one full-run result; violations as text.

    ``config`` is the :class:`~repro.common.config.ProcessorConfig` the
    run used (the bounds come from its widths and queue geometry).
    """
    violations: List[str] = []
    events = stats.events.as_dict()
    for name in sorted(events):
        if events[name] < 0:
            violations.append(f"negative event counter {name}={events[name]}")
    if events.get("cycles", 0) != stats.cycles:
        violations.append(
            f"events[cycles]={events.get('cycles', 0)} != "
            f"stats.cycles={stats.cycles}"
        )
    if events.get("committed", 0) != stats.committed_instructions:
        violations.append(
            f"events[committed]={events.get('committed', 0)} != "
            f"committed_instructions={stats.committed_instructions}"
        )
    if stats.cycles <= 0:
        violations.append(f"non-positive cycle count {stats.cycles}")
    if stats.committed_instructions <= 0:
        violations.append(
            f"non-positive committed count {stats.committed_instructions}"
        )
    ipc = stats.ipc
    if ipc > config.commit_width:
        violations.append(
            f"ipc {ipc:.4f} exceeds commit width {config.commit_width}"
        )
    issue_capacity = config.int_issue_width + config.fp_issue_width
    if ipc > issue_capacity:
        violations.append(
            f"ipc {ipc:.4f} exceeds total issue width {issue_capacity}"
        )
    if stats.branch_mispredictions > stats.branch_predictions:
        violations.append(
            f"mispredictions {stats.branch_mispredictions} exceed "
            f"predictions {stats.branch_predictions}"
        )
    # Wakeup activity is bounded by the machine: every issued
    # instruction (plus at most one drain per ROB entry at the end)
    # broadcasts at most once, and a broadcast compares against at most
    # every operand tag of every queue entry. The 4x factor is the
    # safe structural ceiling measured across the design space.
    broadcasts = events.get("iq_wakeup_broadcasts", 0)
    issued = events.get("instructions_issued", 0)
    if broadcasts > issued + config.rob_entries:
        violations.append(
            f"iq_wakeup_broadcasts {broadcasts} exceed issued {issued} "
            f"+ rob {config.rob_entries}"
        )
    scheme = config.scheme
    if scheme.unbounded:
        total_entries = 2 * config.rob_entries
    else:
        total_entries = (
            scheme.int_queues * scheme.int_queue_entries
            + scheme.fp_queues * scheme.fp_queue_entries
        )
    comparisons = events.get("iq_wakeup_comparisons", 0)
    if comparisons > broadcasts * 4 * total_entries:
        violations.append(
            f"iq_wakeup_comparisons {comparisons} exceed "
            f"{broadcasts} broadcasts x 4 x {total_entries} entries"
        )
    return violations


def check_estimate_record(
    sampled: SampledStats, plan: SamplingPlan, scale: RunScale
) -> List[str]:
    """Hard record-level contracts of one sampled estimate; violations as
    text.

    Checks interval well-formedness, the non-sampling bias widening,
    window placement, instruction bookkeeping, coherence between the
    synthesized whole-run stats and the reported intervals, and the
    exact JSON round trip the result cache depends on. Deliberately
    does *not* compare against the full run — see the module docstring.
    """
    violations: List[str] = []
    region = scale.num_instructions - scale.warmup_instructions
    for name in ESTIMATED_METRICS:
        estimate = sampled.estimates.get(name)
        if estimate is None:
            violations.append(f"metric {name} missing from estimates")
            continue
        if not estimate.ci_low <= estimate.mean <= estimate.ci_high:
            violations.append(
                f"{name} interval malformed: "
                f"[{estimate.ci_low}, {estimate.ci_high}] "
                f"does not bracket mean {estimate.mean}"
            )
        if estimate.std_error < 0:
            violations.append(
                f"{name} has negative std_error {estimate.std_error}"
            )
        pad = MEASUREMENT_BIAS_ALLOWANCE[name] * abs(estimate.mean)
        if estimate.halfwidth < pad * (1.0 - 1e-9):
            violations.append(
                f"{name} interval halfwidth {estimate.halfwidth} below "
                f"the bias allowance {pad} (widening not applied)"
            )
    if len(sampled.windows) != plan.num_slices:
        violations.append(
            f"{len(sampled.windows)} windows for a "
            f"{plan.num_slices}-slice plan"
        )
    previous_end = None
    for window in sampled.windows:
        if not window.detail_start <= window.measure_start < window.detail_end:
            violations.append(f"window {window.as_dict()} is malformed")
            continue
        if window.measured != plan.slice_instructions:
            violations.append(
                f"window {window.as_dict()} measures {window.measured} "
                f"instructions, plan says {plan.slice_instructions}"
            )
        if window.detail_end > scale.num_instructions:
            violations.append(
                f"window {window.as_dict()} extends past the "
                f"{scale.num_instructions}-instruction trace"
            )
        if previous_end is not None and window.measure_start < previous_end:
            violations.append(
                f"window {window.as_dict()} overlaps the previous "
                "measured slice"
            )
        previous_end = window.detail_end
    if sampled.total_instructions != region:
        violations.append(
            f"total_instructions {sampled.total_instructions} != "
            f"measured region {region}"
        )
    detailed = sum(w.detail_end - w.detail_start for w in sampled.windows)
    if sampled.detailed_instructions != detailed:
        violations.append(
            f"detailed_instructions {sampled.detailed_instructions} != "
            f"window total {detailed}"
        )
    if len(sampled.slice_ipcs) != plan.num_slices:
        violations.append(
            f"{len(sampled.slice_ipcs)} slice IPC samples for a "
            f"{plan.num_slices}-slice plan"
        )
    for ipc in sampled.slice_ipcs:
        if ipc <= 0:
            violations.append(f"non-positive slice IPC sample {ipc}")
    stats = sampled.stats
    if stats.committed_instructions != region:
        violations.append(
            f"synthesized committed {stats.committed_instructions} != "
            f"region {region}"
        )
    if stats.events.get("cycles") != stats.cycles:
        violations.append(
            "synthesized events[cycles] out of sync with stats.cycles"
        )
    if stats.events.get("committed") != stats.committed_instructions:
        violations.append(
            "synthesized events[committed] out of sync with committed"
        )
    # The synthesized point values must sit inside their own reported
    # intervals: cycles is integer-rounded from the CPI point estimate
    # (error < 1/region, far inside the 3% bias allowance), so a miss
    # here means synthesis and estimation disagree about the run.
    if stats.cycles > 0 and stats.committed_instructions > 0:
        if "ipc" in sampled.estimates and not sampled.estimates[
            "ipc"
        ].contains(stats.ipc):
            violations.append(
                f"synthesized ipc {stats.ipc:.6f} outside its own "
                f"interval [{sampled.estimates['ipc'].ci_low:.6f}, "
                f"{sampled.estimates['ipc'].ci_high:.6f}]"
            )
        cpi = stats.cycles / stats.committed_instructions
        if "cpi" in sampled.estimates and not sampled.estimates[
            "cpi"
        ].contains(cpi):
            violations.append(
                f"synthesized cpi {cpi:.6f} outside its own interval"
            )
    try:
        rebuilt = SampledStats.from_dict(
            json.loads(json.dumps(sampled.to_dict())), sampled.stats
        )
        if rebuilt.to_dict() != sampled.to_dict():
            violations.append("estimate record does not round-trip JSON")
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        violations.append(f"estimate record round trip raised {exc!r}")
    return violations


class Oracle:
    """Interface: check ``points`` at ``scale`` through ``ctx``'s caches.

    ``ctx`` is a :class:`~repro.discover.campaign.DiscoveryContext`; the
    oracle asks it for runners (scale- and leg-specific) so every
    simulation flows through the shared memory/disk cache stack and a
    warm rerun of a whole campaign replays without simulating.
    """

    name: str = ""
    description: str = ""

    def run(self, ctx, points: Sequence, scale: RunScale) -> List[Finding]:
        raise NotImplementedError


class KernelEquivalenceOracle(Oracle):
    name = "kernel_equivalence"
    description = (
        "every simulation kernel (skip and specialized) produces "
        "statistics bit-identical to naive"
    )

    def run(self, ctx, points, scale):
        # One salted runner per kernel: each leg gets its own cache-key
        # namespace (see module docstring), and every registered kernel
        # is differenced against the naive reference, not pairwise
        # against each other.
        legs = {
            kernel: ctx.runner(
                scale, kernel=kernel, salt=f"discover:kernel={kernel}"
            )
            for kernel in VALID_KERNELS
        }
        naive = legs.pop(KERNEL_NAIVE)
        findings = []
        for point in points:
            reference = naive.run(point.benchmark, point.config)
            for kernel, runner in legs.items():
                detail = diff_stats(
                    reference,
                    runner.run(point.benchmark, point.config),
                    (KERNEL_NAIVE, kernel),
                )
                if detail:
                    findings.append(
                        Finding(self.name, point, scale, tuple(detail))
                    )
        return findings


class SerialParallelOracle(Oracle):
    name = "serial_parallel"
    description = (
        "multiprocessing fan-out produces bit-identical results to serial runs"
    )

    def run(self, ctx, points, scale):
        serial = ctx.runner(scale, salt="discover:exec=serial")
        parallel = ctx.runner(scale, salt="discover:exec=parallel")
        pairs = [(point.benchmark, point.config) for point in points]
        parallel_stats = parallel.run_many(pairs, workers=max(2, ctx.workers))
        findings = []
        for point, from_pool in zip(points, parallel_stats):
            detail = diff_stats(
                serial.run(point.benchmark, point.config),
                from_pool,
                ("serial", "parallel"),
            )
            if detail:
                findings.append(Finding(self.name, point, scale, tuple(detail)))
        return findings


class SchemeInvariantsOracle(Oracle):
    name = "scheme_invariants"
    description = "full-run statistics satisfy structural machine bounds"

    def run(self, ctx, points, scale):
        runner = ctx.runner(scale)
        findings = []
        for point in points:
            stats = runner.run(point.benchmark, point.config)
            detail = check_invariants(stats, point.config)
            if detail:
                findings.append(Finding(self.name, point, scale, tuple(detail)))
        return findings


class SamplingCiOracle(Oracle):
    name = "sampling_ci"
    description = (
        "sampled estimate records honor their structural contracts"
    )

    def run(self, ctx, points, scale):
        plan = plan_for(scale)
        runner = ctx.runner(scale, sampling=plan)
        findings = []
        for point in points:
            sampled = runner.sampled_result(point.benchmark, point.config)
            detail = check_estimate_record(sampled, plan, scale)
            if detail:
                findings.append(Finding(self.name, point, scale, tuple(detail)))
        return findings


#: The oracle catalog, in canonical (and execution) order.
ORACLES: Dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        KernelEquivalenceOracle(),
        SerialParallelOracle(),
        SchemeInvariantsOracle(),
        SamplingCiOracle(),
    )
}


def resolve_oracles(spec: Optional[str]) -> List[Oracle]:
    """Oracles for a CLI spec: comma-separated names, empty = all."""
    if not spec:
        return list(ORACLES.values())
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = sorted(set(names) - set(ORACLES))
    if unknown:
        raise ConfigurationError(
            f"unknown oracle(s) {unknown}; known: {sorted(ORACLES)}"
        )
    # Deduplicate but keep canonical execution order.
    requested = set(names)
    return [oracle for name, oracle in ORACLES.items() if name in requested]
