"""Unit tests for the repro.sampling subsystem.

Covers the declarative plan (window selection, spec parsing, cache-key
fingerprinting), the estimator (Student-t math, finite-population
intervals, JSON round trips), functional fast-forward determinism, and
the experiments-layer plumbing (runner cache keys, sampled results
through serial and parallel paths, warm replay).
"""

import json

import pytest

from repro.common.config import default_config
from repro.common.errors import ConfigurationError
from repro.experiments.configs import IF_DISTR, IQ_64_64
from repro.experiments.runner import (
    ExperimentRunner,
    RunScale,
    simulate_pair,
    simulate_sampled_pair,
)
from repro.experiments.store import ResultStore, result_key
from repro.sampling import (
    FunctionalWarmer,
    MetricEstimate,
    SampledStats,
    SamplingPlan,
    estimate_sampled,
    slice_trace,
    student_t_critical,
)
from repro.workloads.generator import generate_trace
from repro.workloads.suites import get_profile

BENCH = "mcf"
SCALE = RunScale(num_instructions=3000, warmup_instructions=1000, seed=11)
PLAN = SamplingPlan(num_slices=4, slice_instructions=200, warmup_instructions=150)
CONFIG = default_config(IQ_64_64)


class TestSamplingPlan:
    def test_systematic_windows_cover_region_in_order(self):
        windows = PLAN.slice_windows(1000, 3000)
        assert len(windows) == PLAN.num_slices
        previous_start = -1
        for window in windows:
            assert window.detail_start <= window.measure_start < window.detail_end
            assert window.measured == PLAN.slice_instructions
            assert window.warmup <= PLAN.warmup_instructions
            assert window.measure_start >= 1000
            assert window.detail_end <= 3000
            assert window.measure_start > previous_start
            previous_start = window.measure_start

    def test_random_mode_is_seeded_and_stratified(self):
        plan = SamplingPlan(mode="random", num_slices=4, slice_instructions=100,
                            warmup_instructions=50, seed=3)
        first = plan.slice_windows(0, 2000)
        second = plan.slice_windows(0, 2000)
        assert first == second  # deterministic in the seed
        other = SamplingPlan(mode="random", num_slices=4, slice_instructions=100,
                             warmup_instructions=50, seed=4).slice_windows(0, 2000)
        assert other != first  # and the seed matters
        stride = 2000 // 4
        for index, window in enumerate(first):
            assert index * stride <= window.measure_start < (index + 1) * stride

    def test_plan_too_big_for_region_raises(self):
        with pytest.raises(ConfigurationError):
            PLAN.slice_windows(0, PLAN.num_slices * PLAN.slice_instructions - 1)

    def test_validation_rejects_bad_knobs(self):
        for bad in (
            SamplingPlan(mode="nope"),
            SamplingPlan(num_slices=1),
            SamplingPlan(slice_instructions=0),
            SamplingPlan(warmup_instructions=-1),
            SamplingPlan(confidence=0.5),
            SamplingPlan(target_relative_error=0.0),
        ):
            with pytest.raises(ConfigurationError):
                bad.validate()

    def test_spec_parsing_roundtrip_and_errors(self):
        plan = SamplingPlan.from_spec(
            "slices=6,slice=300,warmup=100,mode=random,confidence=0.99,"
            "seed=5,error=0.08"
        )
        assert plan.num_slices == 6
        assert plan.slice_instructions == 300
        assert plan.warmup_instructions == 100
        assert plan.mode == "random"
        assert plan.confidence == 0.99
        assert plan.seed == 5
        assert plan.target_relative_error == 0.08
        assert SamplingPlan.from_spec("") == SamplingPlan()
        with pytest.raises(ConfigurationError):
            SamplingPlan.from_spec("bogus=1")
        with pytest.raises(ConfigurationError):
            SamplingPlan.from_spec("slices")
        with pytest.raises(ConfigurationError):
            SamplingPlan.from_spec("slices=abc")

    def test_plan_changes_cache_key_and_none_preserves_it(self):
        profile = get_profile(BENCH)
        base = result_key(CONFIG, profile, SCALE)
        sampled = result_key(CONFIG, profile, SCALE, sampling=PLAN)
        other = result_key(
            CONFIG, profile, SCALE,
            sampling=SamplingPlan(num_slices=4, slice_instructions=201,
                                  warmup_instructions=150),
        )
        assert len({base, sampled, other}) == 3
        assert base == result_key(CONFIG, profile, SCALE, sampling=None)

    def test_dict_roundtrip(self):
        assert SamplingPlan.from_dict(PLAN.as_dict()) == PLAN


class TestEstimator:
    def test_t_critical_values(self):
        assert student_t_critical(0.95, 1) == pytest.approx(12.706)
        assert student_t_critical(0.95, 9) == pytest.approx(2.262)
        assert student_t_critical(0.99, 100) == pytest.approx(2.576)
        with pytest.raises(ConfigurationError):
            student_t_critical(0.80, 5)

    def test_metric_estimate_contains_and_relative(self):
        estimate = MetricEstimate(mean=2.0, std_error=0.1, ci_low=1.8, ci_high=2.2)
        assert estimate.contains(2.0) and estimate.contains(1.8)
        assert not estimate.contains(2.3)
        assert estimate.relative_halfwidth == pytest.approx(0.1)

    def test_estimates_and_synthetic_stats_are_coherent(self):
        sampled = simulate_sampled_pair(BENCH, IQ_64_64, SCALE, PLAN)[0]
        region = SCALE.num_instructions - SCALE.warmup_instructions
        assert sampled.total_instructions == region
        assert sampled.stats.committed_instructions == region
        # The synthetic IPC is the estimator's point estimate up to the
        # integer rounding of the cycle count.
        assert sampled.stats.ipc == pytest.approx(
            sampled.estimates["ipc"].mean, rel=1e-3
        )
        ipc = sampled.estimates["ipc"]
        assert ipc.ci_low <= ipc.mean <= ipc.ci_high
        assert sampled.detailed_instructions == sum(
            window.detail_end - window.detail_start for window in sampled.windows
        )
        assert 0 < sampled.detailed_cycles

    def test_json_roundtrip_is_lossless(self):
        sampled = simulate_sampled_pair(BENCH, IQ_64_64, SCALE, PLAN)[0]
        payload = json.loads(json.dumps(sampled.to_dict()))
        rebuilt = SampledStats.from_dict(payload, sampled.stats)
        assert rebuilt.to_dict() == sampled.to_dict()
        assert rebuilt.estimates["ipc"] == sampled.estimates["ipc"]

    def test_rejects_empty_and_mismatched_slices(self):
        with pytest.raises(ConfigurationError):
            estimate_sampled(PLAN, CONFIG, [], [], 100)

    def test_degenerate_plans_fail_at_the_estimator_boundary(self):
        # Dataclass construction skips validation, so a plan built
        # directly (not via from_spec/from_dict) can reach the estimator
        # degenerate. A single slice has zero degrees of freedom and an
        # unsupported confidence has no t-table — both must surface as
        # ConfigurationError here, never as IndexError/ZeroDivisionError
        # inside the SEM arithmetic.
        sampled = simulate_sampled_pair(BENCH, IQ_64_64, SCALE, PLAN)[0]
        windows, slices = sampled.windows[:1], [sampled.stats]
        single_slice = SamplingPlan(num_slices=1, slice_instructions=200,
                                    warmup_instructions=150)
        with pytest.raises(ConfigurationError):
            estimate_sampled(single_slice, CONFIG, windows, slices, 2000)
        odd_confidence = SamplingPlan(num_slices=4, slice_instructions=200,
                                      warmup_instructions=150, confidence=0.80)
        with pytest.raises(ConfigurationError):
            estimate_sampled(odd_confidence, CONFIG, sampled.windows,
                             slices * 4, 2000)


class TestFunctionalWarmer:
    def test_state_is_path_independent(self):
        trace = generate_trace(get_profile(BENCH), 2000, seed=7)
        profile = get_profile(BENCH)
        one = FunctionalWarmer(CONFIG, trace, profile=profile, prewarm_seed=7)
        one.state_at(500)
        state_via_stop = one.state_at(1500)
        two = FunctionalWarmer(CONFIG, trace, profile=profile, prewarm_seed=7)
        state_direct = two.state_at(1500)
        assert state_via_stop == state_direct

    def test_repeated_position_returns_the_same_state(self):
        profile = get_profile(BENCH)
        trace = generate_trace(profile, 1500, seed=7)
        warmer = FunctionalWarmer(CONFIG, trace, profile=profile, prewarm_seed=7)
        first = warmer.state_at(900)
        assert warmer.state_at(900) == first
        assert first.position == 900

    def test_rewind_is_rejected(self):
        trace = generate_trace(get_profile(BENCH), 1000, seed=7)
        warmer = FunctionalWarmer(CONFIG, trace)
        warmer.state_at(500)
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            warmer.state_at(100)

    def test_slice_trace_reseqs_and_validates(self):
        trace = generate_trace(get_profile(BENCH), 600, seed=7)
        sub = slice_trace(trace, 100, 300)
        assert len(sub) == 200
        sub.validate()
        assert sub[0].pc == trace[100].pc
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            slice_trace(trace, 500, 400)


class TestRunnerSampling:
    def test_serial_cold_warm_and_parallel_agree(self, tmp_path):
        store = ResultStore(tmp_path)
        pairs = [(BENCH, IQ_64_64), ("gzip", IQ_64_64)]
        cold = ExperimentRunner(SCALE, store=store, sampling=PLAN)
        cold.run_many(pairs)
        assert cold.cache_stats()["simulations"] == 2
        cold_record = cold.sampled_result(BENCH, IQ_64_64)
        assert cold_record is not None

        warm = ExperimentRunner(SCALE, store=store, sampling=PLAN)
        warm.run_many(pairs)
        stats = warm.cache_stats()
        assert stats["simulations"] == 0 and stats["disk_hits"] == 2
        assert warm.sampled_result(BENCH, IQ_64_64).to_dict() == cold_record.to_dict()

        parallel = ExperimentRunner(
            SCALE, store=ResultStore(tmp_path / "fresh"), sampling=PLAN, workers=2
        )
        parallel.run_many(pairs)
        assert parallel.cache_stats()["simulations"] == 2
        assert (
            parallel.sampled_result(BENCH, IQ_64_64).to_dict()
            == cold_record.to_dict()
        )

    def test_sampled_and_full_results_never_alias(self, tmp_path):
        store = ResultStore(tmp_path)
        sampled_runner = ExperimentRunner(SCALE, store=store, sampling=PLAN)
        full_runner = ExperimentRunner(SCALE, store=store)
        sampled = sampled_runner.run(BENCH, IQ_64_64)
        full = full_runner.run(BENCH, IQ_64_64)
        assert full_runner.cache_stats()["simulations"] == 1  # no alias hit
        assert sampled.to_dict() != full.to_dict()
        assert full_runner.sampled_result(BENCH, IQ_64_64) is None

    def test_sampled_mode_executes_fewer_detailed_cycles(self):
        full_cycles = simulate_pair(BENCH, IQ_64_64, SCALE)[2].executed_cycles
        sampled, __, detailed = simulate_sampled_pair(BENCH, IQ_64_64, SCALE, PLAN)
        assert sampled.detailed_cycles == detailed.executed_cycles
        assert 0 < sampled.detailed_cycles < full_cycles

    def test_sampled_runs_persist_only_results(self, tmp_path):
        # Warm states are recomputed in memory, never persisted: the
        # cache root holds nothing but <key[:2]>/<key>.json results.
        runner = ExperimentRunner(SCALE, store=ResultStore(tmp_path), sampling=PLAN)
        pairs = [(BENCH, IQ_64_64), (BENCH, IF_DISTR)]
        runner.run_many(pairs)
        expected = {
            f"{key[:2]}/{key}.json"
            for key in (runner.store_key(*pair) for pair in pairs)
        }
        written = {
            path.relative_to(tmp_path).as_posix()
            for path in tmp_path.rglob("*")
            if path.is_file()
        }
        assert written == expected
        assert not (tmp_path / "checkpoints").exists()

    def test_pool_sampled_runs_persist_no_warm_states(self, tmp_path):
        # Pool jobs carry no warm-state root either: the cache root gets
        # the results plus the trace spills the workers share.
        runner = ExperimentRunner(
            SCALE, store=ResultStore(tmp_path), sampling=PLAN, workers=2
        )
        pairs = [(BENCH, IQ_64_64), (BENCH, IF_DISTR)]
        runner.run_many(pairs)
        assert runner.cache_stats()["simulations"] == 2
        results = {
            f"{key[:2]}/{key}.json"
            for key in (runner.store_key(*pair) for pair in pairs)
        }
        written = {
            path.relative_to(tmp_path).as_posix()
            for path in tmp_path.rglob("*")
            if path.is_file()
        }
        assert results <= written
        spills = written - results
        assert spills and all(name.startswith("traces/") for name in spills)
        assert not (tmp_path / "checkpoints").exists()

    def test_damaged_sampled_record_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(SCALE, store=store, sampling=PLAN)
        runner.run(BENCH, IQ_64_64)
        key = runner.store_key(BENCH, IQ_64_64)
        path = store._path(key)
        payload = json.loads(path.read_text())
        payload["sampled"]["estimates"] = "broken"
        path.write_text(json.dumps(payload))
        fresh = ExperimentRunner(SCALE, store=store, sampling=PLAN)
        fresh.run(BENCH, IQ_64_64)
        assert fresh.cache_stats()["simulations"] == 1  # treated as a miss
        assert fresh.sampled_result(BENCH, IQ_64_64) is not None
