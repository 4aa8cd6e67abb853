"""End-to-end tests for the exploration drivers, artifacts and CLI."""

import csv
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core.engine import VALID_KERNELS
from repro.experiments.store import ResultStore
from repro.explore.__main__ import main as explore_main
from repro.explore.drivers import (
    DEFAULT_EXPLORE_BENCHMARKS,
    ExplorationSettings,
    resolve_benchmarks,
    run_exploration,
    write_artifacts,
)
from repro.explore.objectives import OBJECTIVES, PointScore
from repro.explore.space import STRATEGIES
from repro.workloads.suites import STRESS_BENCHMARKS


SMALL = ExplorationSettings(
    samples=6,
    rounds=1,
    seed=11,
    strategy="mixed",
    benchmarks=("gzip", "streampump"),
    neighbors_per_point=2,
    num_instructions=1000,
)


@pytest.fixture(scope="module")
def result():
    # One shared in-memory exploration for the read-only assertions.
    return run_exploration(SMALL, store=False)


class TestResolveBenchmarks:
    def test_named_groups(self):
        assert resolve_benchmarks("stress") == tuple(STRESS_BENCHMARKS)
        assert resolve_benchmarks("mini") == DEFAULT_EXPLORE_BENCHMARKS
        assert "swim" in resolve_benchmarks("fp")

    def test_comma_list(self):
        assert resolve_benchmarks("gzip, mcf") == ("gzip", "mcf")

    def test_unknown_name_rejected(self):
        from repro.common.errors import UnknownBenchmarkError

        with pytest.raises(UnknownBenchmarkError):
            resolve_benchmarks("gzip,doom")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_benchmarks(" , ")

    def test_duplicate_names_rejected(self):
        # Duplicates would otherwise surface as a raw traceback from
        # DesignSpace/Dimension construction deep inside run_exploration.
        with pytest.raises(ConfigurationError, match="duplicate"):
            resolve_benchmarks("gzip,gzip")


class TestRunExploration:
    def test_scores_cover_objectives_and_frontier_nonempty(self, result):
        assert result.scores
        assert result.frontier
        for score in result.scores:
            assert set(score.objectives) == set(OBJECTIVES)

    def test_every_pair_front_nonempty(self, result):
        assert len(result.pair_fronts) == len(OBJECTIVES) * (len(OBJECTIVES) - 1) // 2
        for front in result.pair_fronts.values():
            assert len(front) >= 1

    def test_frontier_points_are_mutually_nondominated(self, result):
        from repro.explore.pareto import dominates

        for a in result.frontier:
            for b in result.frontier:
                assert not dominates(a.objectives, b.objectives, OBJECTIVES)

    def test_refinement_log_matches_rounds(self, result):
        assert len(result.rounds_log) == SMALL.rounds

    def test_deterministic_for_fixed_seed(self, result):
        again = run_exploration(SMALL, store=False)
        assert [s.point.point_id for s in again.scores] == [
            s.point.point_id for s in result.scores
        ]
        assert again.scores[0].objectives == result.scores[0].objectives

    def test_settings_validation(self):
        with pytest.raises(ConfigurationError):
            ExplorationSettings(samples=0).validate()
        with pytest.raises(ConfigurationError):
            ExplorationSettings(rounds=-1).validate()
        with pytest.raises(ConfigurationError):
            ExplorationSettings(benchmarks=()).validate()
        with pytest.raises(ConfigurationError):
            ExplorationSettings(epsilon=-0.5).validate()
        with pytest.raises(ConfigurationError):
            ExplorationSettings(frontier_budget=0).validate()
        with pytest.raises(ConfigurationError, match="unknown sampling strategy"):
            ExplorationSettings(strategy="bogus").validate()
        # Counts are integers, flags are bools, epsilon is a finite real:
        # none of these may be coerced into a runnable exploration.
        for bad in (
            dict(samples=2.5),
            dict(samples=True),
            dict(rounds=0.5),
            dict(neighbors_per_point=1.5),
            dict(num_instructions=2000.0),
            dict(frontier_budget=2.5),
            dict(frontier_budget=True),
            dict(aggregate="no"),
            dict(aggregate=1),
            dict(epsilon=float("nan")),
            dict(epsilon=float("inf")),
            dict(epsilon=True),
            dict(epsilon="0.1"),
        ):
            with pytest.raises(ConfigurationError):
                ExplorationSettings(**bad).validate()
        # An integer epsilon is a real number; the artifact shows it as
        # a float, as it always did.
        ExplorationSettings(epsilon=1).validate()
        assert ExplorationSettings(epsilon=1).as_dict()["epsilon"] == 1.0
        assert isinstance(ExplorationSettings(epsilon=1).as_dict()["epsilon"], float)

    def test_settings_dict_omits_defaulted_diversity_knobs(self):
        # Frozen artifact schema: pre-aggregate explorations must keep
        # producing byte-identical frontier.json for a fixed seed.
        assert set(ExplorationSettings().as_dict()) == {
            "samples", "rounds", "seed", "strategy", "benchmarks",
            "neighbors_per_point", "num_instructions",
        }
        enriched = ExplorationSettings(
            aggregate=True, epsilon=0.05, frontier_budget=8
        ).as_dict()
        assert enriched["aggregate"] is True
        assert enriched["epsilon"] == 0.05
        assert enriched["frontier_budget"] == 8


class TestWarmCache:
    def test_second_run_resolves_everything_from_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_exploration(SMALL, store=store)
        assert cold.cache_stats["simulations"] > 0
        warm = run_exploration(SMALL, store=ResultStore(tmp_path))
        assert warm.cache_stats["simulations"] == 0
        assert [s.point.point_id for s in warm.scores] == [
            s.point.point_id for s in cold.scores
        ]
        # Bit-identical objectives: cached stats replay exactly.
        for a, b in zip(cold.scores, warm.scores):
            assert a.objectives == b.objectives


class TestArtifacts:
    def test_json_artifact_shape(self, result, tmp_path):
        paths = write_artifacts(result, tmp_path)
        payload = json.loads(paths["json"].read_text())
        assert payload["subsystem"] == "repro.explore"
        assert payload["settings"]["seed"] == SMALL.seed
        assert len(payload["points"]) == len(result.scores)
        assert payload["frontier"]
        for front in payload["pair_fronts"].values():
            assert len(front) >= 1
        point_ids = {row["point_id"] for row in payload["points"]}
        assert set(payload["frontier"]) <= point_ids

    def test_csv_artifact_rows(self, result, tmp_path):
        paths = write_artifacts(result, tmp_path)
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.scores)
        assert "ipc_loss_pct" in rows[0]
        assert {row["on_frontier"] for row in rows} <= {"True", "False"}

    def test_report_renders_frontier(self, result):
        text = result.report()
        assert "Pareto frontier" in text
        assert "Non-dominated points per objective pair" in text
        assert result.frontier[0].point.label in text

    def test_report_disambiguates_colliding_labels(self):
        # Labels don't encode every dimension (the MixBUFF chain cap is
        # invisible to scheme_name), so distinct frontier points can
        # share one; the report must keep a row for each instead of
        # silently overwriting.
        from repro.explore.artifacts import _display_labels
        from repro.explore.space import default_space

        space = default_space(["gzip"], aggregate=True)
        base = {"kind": "mixbuff", "int_queues": 8, "int_entries": 8,
                "fp_queues": 8, "fp_entries": 16, "issue_width": 8,
                "rob_entries": 256, "distributed_fus": False}
        a = space.build_point(dict(base, max_chains=4))
        b = space.build_point(dict(base, max_chains=8))
        assert a.label == b.label and a.point_id != b.point_id
        scores = [
            PointScore(point=p, ipc=1.0, baseline_ipc=1.0,
                       objectives={k: 1.0 for k in OBJECTIVES})
            for p in (a, b)
        ]
        labels = _display_labels(scores)
        assert len(set(labels.values())) == 2
        assert all(label.startswith(a.label) for label in labels.values())


AGGREGATE = ExplorationSettings(
    samples=5,
    rounds=1,
    seed=11,
    strategy="mixed",
    benchmarks=("gzip", "streampump"),
    neighbors_per_point=2,
    num_instructions=1000,
    aggregate=True,
    epsilon=0.05,
    frontier_budget=6,
)


@pytest.fixture(scope="module")
def aggregated():
    return run_exploration(AGGREGATE, store=False)


class TestAggregateExploration:
    def test_points_are_suite_wide(self, aggregated):
        assert aggregated.scores
        for score in aggregated.scores:
            assert score.point.benchmarks == AGGREGATE.benchmarks
            assert tuple(score.per_benchmark) == AGGREGATE.benchmarks
            assert set(score.objectives) == set(OBJECTIVES)

    def test_frontier_nonempty_and_nondominated(self, aggregated):
        from repro.explore.pareto import dominates

        assert aggregated.frontier
        for a in aggregated.frontier:
            for b in aggregated.frontier:
                assert not dominates(a.objectives, b.objectives, OBJECTIVES)

    def test_deterministic_for_fixed_seed(self, aggregated):
        again = run_exploration(AGGREGATE, store=False)
        assert [s.point.point_id for s in again.scores] == [
            s.point.point_id for s in aggregated.scores
        ]
        assert again.scores[0].objectives == aggregated.scores[0].objectives
        assert again.scores[0].per_benchmark == aggregated.scores[0].per_benchmark

    def test_warm_rerun_executes_nothing(self, tmp_path):
        cold = run_exploration(AGGREGATE, store=ResultStore(tmp_path))
        assert cold.cache_stats["simulations"] > 0
        warm = run_exploration(AGGREGATE, store=ResultStore(tmp_path))
        assert warm.cache_stats["simulations"] == 0
        for a, b in zip(cold.scores, warm.scores):
            assert a.objectives == b.objectives
            assert a.per_benchmark == b.per_benchmark

    def test_artifacts_embed_sub_scores(self, aggregated, tmp_path):
        paths = write_artifacts(aggregated, tmp_path)
        payload = json.loads(paths["json"].read_text())
        assert payload["settings"]["aggregate"] is True
        assert payload["space"]["aggregate_benchmarks"] == list(AGGREGATE.benchmarks)
        for row in payload["points"]:
            for benchmark in AGGREGATE.benchmarks:
                assert f"{benchmark}.ipc_loss_pct" in row
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert f"{AGGREGATE.benchmarks[0]}.energy" in rows[0]

    def test_report_includes_per_benchmark_breakdown(self, aggregated):
        text = aggregated.report()
        assert "Per-benchmark IPC loss" in text
        for benchmark in AGGREGATE.benchmarks:
            assert benchmark in text

    def test_custom_space_must_match_the_aggregate_flag(self):
        from repro.explore.space import default_space

        axis_space = default_space(["gzip"])
        with pytest.raises(ConfigurationError, match="workload mode"):
            run_exploration(AGGREGATE, space=axis_space, store=False)
        agg_space = default_space(["gzip"], aggregate=True)
        with pytest.raises(ConfigurationError, match="workload mode"):
            run_exploration(SMALL, space=agg_space, store=False)
        # Matching mode but a different suite is just as misleading in
        # the artifact's settings block.
        with pytest.raises(ConfigurationError, match="aggregate_benchmarks"):
            run_exploration(AGGREGATE, space=agg_space, store=False)


class TestCli:
    def test_cli_end_to_end_and_warm_rerun(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        args = ["--samples", "4", "--rounds", "1", "--seed", "11",
                "--scale", "1000", "--benchmarks", "gzip",
                "--out", str(out), "--cache-dir", str(tmp_path / "cache")]
        explore_main(args)
        cold = capsys.readouterr().out
        assert "Pareto frontier" in cold
        assert (out / "frontier.json").exists()
        assert (out / "points.csv").exists()
        first = (out / "frontier.json").read_bytes()
        explore_main(args)
        warm = capsys.readouterr().out
        assert "0 executions" in warm
        assert (out / "frontier.json").read_bytes() == first

    def test_cli_aggregate_end_to_end_and_warm_rerun(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        args = ["--aggregate", "gzip,streampump", "--samples", "4",
                "--rounds", "1", "--seed", "11", "--scale", "1000",
                "--epsilon", "0.05", "--frontier-budget", "6",
                "--out", str(out), "--cache-dir", str(tmp_path / "cache")]
        explore_main(args)
        cold = capsys.readouterr().out
        assert "Per-benchmark IPC loss" in cold
        first = (out / "frontier.json").read_bytes()
        assert b'"aggregate": true' in first
        explore_main(args)
        warm = capsys.readouterr().out
        assert "0 executions" in warm
        assert (out / "frontier.json").read_bytes() == first

    def test_cli_bare_aggregate_defaults_to_mini(self, capsys):
        # --aggregate without a value must parse as const="mini"; the
        # exit must come from the scale validation downstream of a
        # successfully resolved aggregate spec, not an argparse error
        # about --aggregate expecting an argument.
        with pytest.raises(SystemExit):
            explore_main(["--aggregate", "--scale", "100"])
        err = capsys.readouterr().err
        assert "warm-up" in err
        assert "expected one argument" not in err

    def test_cli_rejects_unknown_aggregate_suite(self, tmp_path):
        with pytest.raises(SystemExit):
            explore_main(["--aggregate", "doom", "--out", str(tmp_path)])

    def test_cli_rejects_unknown_benchmark(self, tmp_path):
        with pytest.raises(SystemExit):
            explore_main(["--benchmarks", "doom", "--out", str(tmp_path)])

    def test_cli_rejects_bad_scale(self, tmp_path):
        with pytest.raises(SystemExit):
            explore_main(["--scale", "100", "--out", str(tmp_path)])

    @pytest.mark.parametrize("kernel", VALID_KERNELS)
    def test_cli_accepts_every_kernel(self, tmp_path, monkeypatch, kernel):
        from repro.explore import __main__ as cli

        seen = []

        class Parsed(Exception):
            pass

        def capture(settings, store):
            seen.append(settings)
            raise Parsed

        monkeypatch.setattr(cli, "run_exploration", capture)
        with pytest.raises(Parsed):
            explore_main(["--kernel", kernel, "--no-cache",
                          "--out", str(tmp_path)])
        assert [settings.kernel for settings in seen] == [kernel]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cli_accepts_every_strategy(self, tmp_path, monkeypatch, strategy):
        from repro.explore import __main__ as cli

        seen = []

        class Parsed(Exception):
            pass

        def capture(settings, store):
            seen.append(settings)
            raise Parsed

        monkeypatch.setattr(cli, "run_exploration", capture)
        with pytest.raises(Parsed):
            explore_main(["--strategy", strategy, "--no-cache",
                          "--out", str(tmp_path)])
        assert [settings.strategy for settings in seen] == [strategy]
        seen[0].validate()

    def test_cli_rejects_unknown_strategy(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            explore_main(["--strategy", "bogus", "--out", str(tmp_path)])
        assert exited.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_cli_rejects_unknown_kernel(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            explore_main(["--kernel", "turbo", "--out", str(tmp_path)])
        assert exited.value.code == 2
        assert "invalid choice: 'turbo'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_cli_rejects_non_finite_epsilon(
        self, tmp_path, monkeypatch, capsys, value
    ):
        from repro.explore import __main__ as cli

        def never(settings, store):
            raise AssertionError(f"--epsilon {value} reached the exploration")

        monkeypatch.setattr(cli, "run_exploration", never)
        with pytest.raises(SystemExit) as exited:
            explore_main(["--epsilon", value, "--no-cache",
                          "--out", str(tmp_path)])
        assert exited.value.code == 2
        assert "epsilon must be a finite number" in capsys.readouterr().err

    def test_cli_rejects_no_cache_with_cache_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            explore_main(["--no-cache", "--cache-dir", str(tmp_path / "cache"),
                          "--out", str(tmp_path)])
        assert exited.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err


from repro.sampling import SamplingPlan  # noqa: E402  (sampled-mode tests)

SAMPLED = ExplorationSettings(
    samples=5,
    rounds=0,
    seed=11,
    strategy="mixed",
    benchmarks=("gzip", "streampump"),
    neighbors_per_point=2,
    num_instructions=2000,
    sampling=SamplingPlan(
        num_slices=4, slice_instructions=150, warmup_instructions=100
    ),
)


class TestSampledExploration:
    @pytest.fixture(scope="class")
    def sampled(self):
        return run_exploration(SAMPLED, store=False)

    def test_scores_carry_confidence_intervals(self, sampled):
        assert sampled.scores
        for score in sampled.scores:
            assert score.intervals is not None
            # Only raw-domain metrics whose point value is in the row:
            # the energy* objective columns are baseline-normalized, so
            # raw bounds under those names would be misleading.
            assert set(score.intervals) == {"ipc", "energy_per_inst"}
            for bounds in score.intervals.values():
                assert bounds["low"] <= bounds["high"]
            row = score.as_row()
            assert row["ipc.ci_low"] <= score.ipc <= row["ipc.ci_high"]
            assert "energy_delay.ci_low" not in row

    def test_full_mode_rows_stay_schema_frozen(self, result):
        # Without a sampling plan no interval columns may appear.
        for score in result.scores:
            assert score.intervals is None
            assert not any("ci_" in key for key in score.as_row())

    def test_settings_dict_embeds_plan_only_when_set(self, sampled):
        assert sampled.settings.as_dict()["sampling"] == (
            SAMPLED.sampling.as_dict()
        )
        assert "sampling" not in SMALL.as_dict()

    def test_warm_sampled_rerun_executes_nothing_and_artifacts_identical(
        self, tmp_path
    ):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        store = ResultStore(tmp_path / "cache")
        cold = run_exploration(SAMPLED, store=store)
        assert cold.cache_stats["simulations"] > 0
        paths_a = write_artifacts(cold, out_a)
        warm = run_exploration(SAMPLED, store=ResultStore(tmp_path / "cache"))
        assert warm.cache_stats["simulations"] == 0
        paths_b = write_artifacts(warm, out_b)
        assert paths_a["json"].read_bytes() == paths_b["json"].read_bytes()
        assert paths_a["csv"].read_bytes() == paths_b["csv"].read_bytes()

    def test_oversized_plan_fails_validation_before_running(self):
        from repro.sampling import SamplingPlan

        bad = ExplorationSettings(
            samples=2,
            benchmarks=("gzip",),
            num_instructions=1000,
            sampling=SamplingPlan(num_slices=8, slice_instructions=200,
                                  warmup_instructions=50),
        )
        with pytest.raises(ConfigurationError):
            bad.validate()
