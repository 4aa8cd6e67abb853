"""Differential net for every non-reference simulation kernel.

Each kernel's contract is *bit-identical statistics* with the naive
per-cycle loop on every input — the skipping kernel accounts skipped
spans in closed form and the ``specialized`` kernel runs a
per-configuration generated kernel; none may change a single reported
number. These tests
drive all of them over a randomized matrix of (benchmark, scale, seed)
x all four issue schemes (stress profiles included), and over every
scheme configuration the paper's figures simulate, and require
field-for-field equality of ``SimulationStats`` (events included), plus
sanity checks on kernel telemetry, the wake-source hooks and
sampled-slice behaviour, and the cache-key neutrality of the kernel
knob.
"""

import random

import pytest

from repro.common import faults
from repro.common.config import (
    KERNEL_NAIVE,
    KERNEL_SKIP,
    KERNEL_SPECIALIZED,
    VALID_KERNELS,
    IssueSchemeConfig,
    default_config,
)
from repro.common.errors import ConfigurationError
from repro.core.processor import Processor
from repro.experiments import IF_DISTR, IQ_64_64, MB_DISTR
from repro.experiments.campaign import ALL_FIGURES
from repro.experiments.figures import required_runs
from repro.experiments.runner import (
    RunScale,
    simulate_pair,
    simulate_sampled_pair,
)
from repro.sampling import SamplingPlan
from repro.workloads.generator import generate_trace
from repro.workloads.prewarm import prewarm
from repro.workloads.suites import STRESS_BENCHMARKS, get_profile

from tests.util import alu, f, fpalu, r

#: Every kernel that must be differenced against the naive reference.
NON_NAIVE_KERNELS = (KERNEL_SKIP, KERNEL_SPECIALIZED)

LATFIFO_8x8_8x16 = IssueSchemeConfig(
    kind="latfifo", int_queues=8, int_queue_entries=8,
    fp_queues=8, fp_queue_entries=16,
)

ALL_SCHEMES = {
    "conventional": IQ_64_64,
    "issuefifo": IF_DISTR,
    "latfifo": LATFIFO_8x8_8x16,
    "mixbuff": MB_DISTR,
}

# A deterministic but randomized run matrix: mixed suites, scales with
# and without warm-up, memory-bound (mcf/art) and compute-bound points.
_RNG = random.Random(0xA6E11A)
RUN_MATRIX = [
    (benchmark, _RNG.choice((800, 1200, 2000)), _RNG.randrange(1, 1000))
    for benchmark in ("mcf", "gzip", "art", "mesa", "swim")
]


def _run(benchmark: str, num_instructions: int, seed: int,
         scheme: IssueSchemeConfig, kernel: str):
    profile = get_profile(benchmark)
    trace = generate_trace(profile, num_instructions, seed=seed)
    processor = Processor(default_config(scheme).with_kernel(kernel), trace)
    prewarm(processor.hierarchy, profile, seed)
    stats = processor.run(warmup_instructions=num_instructions // 3)
    return stats, processor


#: Naive reference results, memoized per matrix point: both non-naive
#: kernels difference against the same reference, so running it per
#: kernel would double the slowest part of the suite for no extra
#: coverage.
_NAIVE_MEMO = {}


def _naive_dict(benchmark, num_instructions, seed, scheme):
    key = (benchmark, num_instructions, seed, scheme)
    if key not in _NAIVE_MEMO:
        stats, __ = _run(benchmark, num_instructions, seed, scheme,
                         KERNEL_NAIVE)
        _NAIVE_MEMO[key] = stats.to_dict()
    return _NAIVE_MEMO[key]


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    @pytest.mark.parametrize("bench,length,seed", RUN_MATRIX)
    def test_bit_identical_stats(self, kernel, scheme_name, bench, length,
                                 seed):
        scheme = ALL_SCHEMES[scheme_name]
        candidate, __ = _run(bench, length, seed, scheme, kernel)
        assert _naive_dict(bench, length, seed, scheme) == (
            candidate.to_dict()
        )

    def test_no_warmup_also_identical(self):
        profile = get_profile("mcf")
        trace = generate_trace(profile, 900, seed=3)
        results = {}
        for kernel in (KERNEL_NAIVE, KERNEL_SKIP):
            processor = Processor(default_config(IQ_64_64).with_kernel(kernel), trace)
            prewarm(processor.hierarchy, profile, 3)
            results[kernel] = processor.run().to_dict()
        assert results[KERNEL_NAIVE] == results[KERNEL_SKIP]


# The exploration stress scenarios exercise behaviours (serial pointer
# chasing, hostile branches, maximal chain churn, phase mixing) outside
# the SPEC stand-ins' envelope; the skip kernel must stay bit-identical
# there too (ROADMAP "keeping new components skip-safe").
STRESS_MATRIX = [
    (benchmark, _RNG.choice((800, 1200)), _RNG.randrange(1, 1000))
    for benchmark in STRESS_BENCHMARKS
]


class TestStressProfileKernelEquivalence:
    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    @pytest.mark.parametrize("bench,length,seed", STRESS_MATRIX)
    def test_bit_identical_stats(self, kernel, scheme_name, bench, length,
                                 seed):
        scheme = ALL_SCHEMES[scheme_name]
        candidate, __ = _run(bench, length, seed, scheme, kernel)
        assert _naive_dict(bench, length, seed, scheme) == (
            candidate.to_dict()
        )

    def test_skip_kernel_skips_on_pointer_chasing(self):
        # ptrchase is the repo's best case for cycle skipping: long
        # memory-bound drains with a quiescent machine.
        __, processor = _run("ptrchase", 1200, 11, IQ_64_64, KERNEL_SKIP)
        telemetry = processor.kernel_telemetry
        assert telemetry.skipped_cycles > 0
        assert telemetry.total_cycles == (
            telemetry.executed_cycles + telemetry.skipped_cycles
        )


# Every distinct scheme configuration the paper's figures simulate (the
# 28 behind the campaign's 428 pairs), each paired with one benchmark it
# runs under. The specialized kernel bakes each configuration's geometry
# into its own generated module, so the four-scheme matrices above leave
# most of the campaign's generated kernels undifferenced.
def _campaign_matrix():
    from repro.common.config import scheme_name

    benchmarks_by_scheme = {}
    for benchmark, scheme in required_runs(ALL_FIGURES):
        benchmarks_by_scheme.setdefault(scheme, []).append(benchmark)
    return [
        pytest.param(
            scheme,
            benchmarks[index % len(benchmarks)],
            _RNG.randrange(1, 1000),
            id=scheme_name(scheme),
        )
        for index, (scheme, benchmarks) in enumerate(benchmarks_by_scheme.items())
    ]


CAMPAIGN_MATRIX = _campaign_matrix()


class TestCampaignConfigKernelEquivalence:
    LENGTH = 900

    def test_matrix_covers_every_campaign_config(self):
        campaign_schemes = {scheme for __, scheme in required_runs(ALL_FIGURES)}
        matrix_schemes = [param.values[0] for param in CAMPAIGN_MATRIX]
        assert len(matrix_schemes) == len(campaign_schemes) == 28
        assert set(matrix_schemes) == campaign_schemes

    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    @pytest.mark.parametrize("scheme,bench,seed", CAMPAIGN_MATRIX)
    def test_bit_identical_stats(self, kernel, scheme, bench, seed):
        candidate, __ = _run(bench, self.LENGTH, seed, scheme, kernel)
        assert _naive_dict(bench, self.LENGTH, seed, scheme) == (
            candidate.to_dict()
        )


class TestReadyBoundShortCircuit:
    """The conventional scheme's ready-bound scan skip is bit-identical.

    The optimization elides the full-queue selection scan on cycles where
    the cached ready bound proves nothing can issue; disabling it must
    not change a single statistic under either kernel.
    """

    @pytest.mark.parametrize("kernel", (KERNEL_NAIVE, KERNEL_SKIP))
    @pytest.mark.parametrize("bench,length,seed", RUN_MATRIX)
    def test_shortcircuit_matches_plain_scan(self, monkeypatch, kernel,
                                             bench, length, seed):
        from repro.issue.conventional import ConventionalIssueQueue

        optimized, __ = _run(bench, length, seed, IQ_64_64, kernel)
        monkeypatch.setattr(ConventionalIssueQueue, "_scan_shortcircuit", False)
        plain, __ = _run(bench, length, seed, IQ_64_64, kernel)
        assert optimized.to_dict() == plain.to_dict()

    def test_unbounded_baseline_also_identical(self, monkeypatch):
        from repro.experiments.configs import BASELINE_UNBOUNDED
        from repro.issue.conventional import ConventionalIssueQueue

        optimized, __ = _run("swim", 1200, 7, BASELINE_UNBOUNDED, KERNEL_SKIP)
        monkeypatch.setattr(ConventionalIssueQueue, "_scan_shortcircuit", False)
        plain, __ = _run("swim", 1200, 7, BASELINE_UNBOUNDED, KERNEL_SKIP)
        assert optimized.to_dict() == plain.to_dict()


class TestKernelTelemetry:
    def test_skip_kernel_actually_skips_on_memory_bound_run(self):
        __, processor = _run("mcf", 2000, 11, IQ_64_64, KERNEL_SKIP)
        telemetry = processor.kernel_telemetry
        assert telemetry.skipped_cycles > 0
        assert telemetry.skip_spans > 0
        assert telemetry.total_cycles == (
            telemetry.executed_cycles + telemetry.skipped_cycles
        )

    def test_naive_kernel_never_skips(self):
        stats, processor = _run("mcf", 2000, 11, IQ_64_64, KERNEL_NAIVE)
        telemetry = processor.kernel_telemetry
        assert telemetry.skipped_cycles == 0
        assert telemetry.skip_spans == 0

    def test_total_cycles_match_between_kernels(self):
        naive_stats, naive_proc = _run("art", 1200, 5, MB_DISTR, KERNEL_NAIVE)
        skip_stats, skip_proc = _run("art", 1200, 5, MB_DISTR, KERNEL_SKIP)
        assert (
            naive_proc.kernel_telemetry.total_cycles
            == skip_proc.kernel_telemetry.total_cycles
        )
        assert naive_stats.cycles == skip_stats.cycles

    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    def test_specialized_makes_the_skip_kernels_span_decisions(self, scheme_name):
        # The generated step runs under the skip kernel's loop, so on
        # the repo's best skipping case its span decisions — executed,
        # skipped and span count — must be cycle-for-cycle the ones the
        # skip kernel makes.
        scheme = ALL_SCHEMES[scheme_name]
        __, skip_proc = _run("ptrchase", 1200, 11, scheme, KERNEL_SKIP)
        __, specialized_proc = _run("ptrchase", 1200, 11, scheme,
                                    KERNEL_SPECIALIZED)
        assert skip_proc.kernel_telemetry.as_dict() == (
            specialized_proc.kernel_telemetry.as_dict()
        )
        assert specialized_proc.kernel_telemetry.skipped_cycles > 0


class TestWakeSources:
    def test_stalled_latfifo_fp_placement_never_skips(self):
        # LatFIFO's FP placement compares an estimate that grows with
        # the cycle number, so a stalled FP instruction reports the
        # current cycle (no skip); an integer stall waits on issue
        # activity the event wheel already tracks.
        from repro.common.stats import StatCounters
        from repro.issue.latfifo import LatFifoScheme

        scheme = LatFifoScheme(default_config(LATFIFO_8x8_8x16), StatCounters())
        fp_op = fpalu(0, f(1), [f(2), f(3)])
        int_op = alu(1, r(1), [r(2)])
        assert scheme.next_dispatch_activity_cycle(fp_op, 37) == 37
        assert scheme.next_dispatch_activity_cycle(int_op, 37) is None

    @pytest.mark.parametrize("scheme_name", sorted(ALL_SCHEMES))
    def test_never_skip_answer_is_sound(self, monkeypatch, scheme_name):
        # Reporting ``cycle`` from a wake hook ("never skip") is the
        # answer an unaudited scheme can always give, and the one a
        # stalled LatFIFO FP placement gives: the kernel then executes
        # every cycle, and no statistic changes.
        scheme = ALL_SCHEMES[scheme_name]
        audited, audited_proc = _run("ptrchase", 1200, 11, scheme, KERNEL_SKIP)
        assert audited_proc.kernel_telemetry.skipped_cycles > 0
        monkeypatch.setattr(type(audited_proc.scheme), "next_activity_cycle",
                            lambda self, cycle: cycle)
        never, never_proc = _run("ptrchase", 1200, 11, scheme, KERNEL_SKIP)
        assert never_proc.kernel_telemetry.skipped_cycles == 0
        assert never_proc.kernel_telemetry.skip_spans == 0
        assert never.to_dict() == audited.to_dict()


class TestPlantedSkipFault:
    def test_skip_loop_fault_reaches_specialized(self, monkeypatch):
        # skip and specialized run one skip loop, so a fault planted in
        # it must trip both kernels, identically.
        monkeypatch.setenv(faults.ENV_VAR, faults.SKIP_IDLE_UNDERCOUNT)
        scale = RunScale(1200, 600, 7)
        stats = {
            kernel: simulate_pair("mcf", IQ_64_64, scale, kernel=kernel)[0]
            for kernel in VALID_KERNELS
        }
        assert stats[KERNEL_SKIP] != stats[KERNEL_NAIVE]
        assert stats[KERNEL_SPECIALIZED] == stats[KERNEL_SKIP]

class TestSampledSliceKernelEquivalence:
    """Sampled execution drives its detailed slices through the kernel
    knob too; every kernel must produce the identical estimate."""

    PLAN = SamplingPlan(num_slices=3, slice_instructions=150,
                        warmup_instructions=100)
    SCALE = RunScale(num_instructions=2000, warmup_instructions=1000, seed=9)

    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    def test_sampled_estimates_bit_identical(self, kernel):
        reference = simulate_sampled_pair(
            "art", IF_DISTR, self.SCALE, self.PLAN, kernel=KERNEL_NAIVE
        )[0]
        candidate = simulate_sampled_pair(
            "art", IF_DISTR, self.SCALE, self.PLAN, kernel=kernel
        )[0]
        assert reference.stats.to_dict() == candidate.stats.to_dict()
        # The estimate record is identical too, except detailed_cycles —
        # that field is wall-work telemetry (cycles actually executed in
        # the detailed windows), which event-driven kernels legitimately
        # shrink; it feeds no statistic.
        ref_record = reference.to_dict()
        cand_record = candidate.to_dict()
        executed = cand_record.pop("detailed_cycles")
        assert executed <= ref_record.pop("detailed_cycles")
        assert ref_record == cand_record


class TestKernelKnob:
    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    def test_kernel_field_excluded_from_cache_key(self, kernel):
        base = default_config(IQ_64_64)
        assert base.with_kernel(KERNEL_NAIVE).cache_key() == (
            base.with_kernel(kernel).cache_key()
        )

    @pytest.mark.parametrize("kernel", sorted(VALID_KERNELS))
    def test_every_registered_kernel_validates(self, kernel):
        default_config(IQ_64_64).with_kernel(kernel).validate()

    def test_other_fields_still_change_the_key(self):
        base = default_config(IQ_64_64)
        assert base.cache_key() != default_config(IF_DISTR).cache_key()

    def test_invalid_kernel_rejected(self):
        config = default_config(IQ_64_64).with_kernel("warp")
        with pytest.raises(ConfigurationError):
            config.validate()

    @pytest.mark.parametrize("kernel", NON_NAIVE_KERNELS)
    def test_simulate_pair_kernel_override_is_bit_identical(self, kernel):
        scale = RunScale(num_instructions=1200, warmup_instructions=600, seed=9)
        naive = simulate_pair("gzip", IF_DISTR, scale, kernel=KERNEL_NAIVE)[0]
        other = simulate_pair("gzip", IF_DISTR, scale, kernel=kernel)[0]
        assert naive.to_dict() == other.to_dict()
