"""Tests for the experiment runner, configs and figure generators."""

import pytest

from repro.common.config import scheme_name
from repro.experiments import (
    BASELINE_UNBOUNDED,
    IF_DISTR,
    IQ_64_64,
    MB_DISTR,
    ExperimentRunner,
    RunScale,
    fig2_configs,
    fig3_configs,
    fig4_configs,
    fig6_configs,
    render_breakdown,
    render_series,
    render_table,
)
from repro.experiments import figures as fig_mod
from repro.experiments.store import ResultStore
from repro.workloads.prewarm import prewarm  # noqa: F401  (re-export sanity)

SMALL = RunScale(num_instructions=1200, warmup_instructions=600, seed=7)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(SMALL)


class TestConfigs:
    def test_paper_config_names(self):
        assert scheme_name(IQ_64_64) == "IQ_64_64"
        assert scheme_name(IF_DISTR) == "IssueFIFO_8x8_8x16_distr"
        assert scheme_name(MB_DISTR) == "MixBUFF_8x8_8x16_distr"
        assert scheme_name(BASELINE_UNBOUNDED) == "IQ_unbounded"

    def test_sweeps_have_six_configs_each(self):
        for configs in (fig2_configs(), fig3_configs(), fig4_configs(), fig6_configs()):
            assert len(configs) == 6

    def test_fig2_varies_integer_side(self):
        for name, cfg in fig2_configs().items():
            assert cfg.fp_queues == 16 and cfg.fp_queue_entries == 16
            assert cfg.int_queues in (8, 10, 12)

    def test_fig3_varies_fp_side(self):
        for name, cfg in fig3_configs().items():
            assert cfg.int_queues == 16 and cfg.int_queue_entries == 16
            assert cfg.fp_queues in (8, 10, 12)

    def test_mb_distr_chain_cap(self):
        assert MB_DISTR.max_chains_per_queue == 8
        assert MB_DISTR.distributed_fus


class TestRunner:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            RunScale(num_instructions=100, warmup_instructions=200).validate()

    def test_run_caching(self, runner):
        first = runner.run("gzip", IQ_64_64)
        second = runner.run("gzip", IQ_64_64)
        assert first is second

    def test_trace_caching(self, monkeypatch):
        # One process memo serves every pair of every runner.
        from repro.experiments import runner as runner_mod
        from repro.workloads.generator import generate_trace

        monkeypatch.setattr(runner_mod, "_TRACE_MEMO", {})
        generated = []

        def counting_generate(*args, **kwargs):
            generated.append(args)
            return generate_trace(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "generate_trace", counting_generate)
        trace = runner_mod.resolve_trace("gzip", SMALL)
        assert runner_mod.resolve_trace("gzip", SMALL) is trace
        for scheme in (IQ_64_64, IF_DISTR):
            ExperimentRunner(SMALL, store=False).run("gzip", scheme)
        assert len(generated) == 1

    def test_trace_resolution_order(self, tmp_path, monkeypatch):
        # Memo first, then the spill file, generation only on a double miss.
        from repro.experiments import runner as runner_mod
        from repro.workloads.spill import materialize_trace
        from repro.workloads.suites import get_profile

        spilled = materialize_trace(
            tmp_path, get_profile("gzip"), SMALL.num_instructions, SMALL.seed
        )
        monkeypatch.setattr(runner_mod, "_TRACE_MEMO", {})

        def no_generation(*args, **kwargs):
            raise AssertionError("trace regenerated despite its spill file")

        monkeypatch.setattr(runner_mod, "generate_trace", no_generation)
        loaded = runner_mod.resolve_trace("gzip", SMALL, str(tmp_path))
        assert loaded is not spilled
        assert [str(i) for i in loaded] == [str(i) for i in spilled]
        assert runner_mod.resolve_trace("gzip", SMALL) is loaded
        with pytest.raises(AssertionError, match="regenerated"):
            runner_mod.resolve_trace("mcf", SMALL, str(tmp_path))

    def test_ipc_positive(self, runner):
        assert runner.ipc("gzip", IQ_64_64) > 0

    def test_loss_of_baseline_against_itself_is_zero(self, runner):
        loss = runner.ipc_loss_pct("gzip", BASELINE_UNBOUNDED, BASELINE_UNBOUNDED)
        assert loss == pytest.approx(0.0)

    def test_average_loss(self, runner):
        loss = runner.average_loss_pct(["gzip"], IF_DISTR, BASELINE_UNBOUNDED)
        assert loss == runner.ipc_loss_pct("gzip", IF_DISTR, BASELINE_UNBOUNDED)

    def test_simulate_matrix_runs_zero_workers_in_process(self, monkeypatch):
        # 0 means serial, as on every CLI, whatever the CPU count.
        import multiprocessing

        from repro.experiments import simulate_matrix, simulate_pair

        def no_pool(*args, **kwargs):
            raise AssertionError("simulate_matrix forked a pool")

        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 8)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        pairs = [("gzip", IQ_64_64), ("gzip", IF_DISTR)]
        results = simulate_matrix(pairs, SMALL, workers=0)
        assert [stats.to_dict() for stats in results] == [
            simulate_pair(benchmark, scheme, SMALL)[0].to_dict()
            for benchmark, scheme in pairs
        ]


class TestCacheLayers:
    """Memory → disk → execution layering of the reworked runner."""

    def test_hermetic_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ExperimentRunner(SMALL).store is None

    def test_env_var_enables_disk_layer(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = ExperimentRunner(SMALL)
        assert runner.store is not None and runner.store.root == tmp_path

    def test_telemetry_counts_each_layer(self, tmp_path):
        from repro.experiments import ResultStore

        store = ResultStore(tmp_path)
        first = ExperimentRunner(SMALL, store=store)
        first.run("gzip", IQ_64_64)  # simulated
        first.run("gzip", IQ_64_64)  # memory hit
        assert first.cache_stats() == {
            "memory_hits": 1, "disk_hits": 0, "simulations": 1,
        }
        second = ExperimentRunner(SMALL, store=store)
        second.run("gzip", IQ_64_64)  # disk hit, promoted to memory
        second.run("gzip", IQ_64_64)  # memory hit
        assert second.cache_stats() == {
            "memory_hits": 1, "disk_hits": 1, "simulations": 0,
        }

    def test_run_many_preserves_order_and_dedups(self):
        runner = ExperimentRunner(SMALL, store=False)
        pairs = [
            ("gzip", IQ_64_64),
            ("gzip", IF_DISTR),
            ("gzip", IQ_64_64),  # duplicate: one simulation, two results
        ]
        results = runner.run_many(pairs)
        assert len(results) == 3
        assert results[0] is results[2]
        assert runner.cache_stats()["simulations"] == 2
        assert results[0] == runner.run("gzip", IQ_64_64)

    def test_prefetch_warms_the_memory_layer(self):
        runner = ExperimentRunner(SMALL, store=False)
        runner.prefetch([("gzip", IQ_64_64)])
        assert runner.cache_stats()["simulations"] == 1
        runner.run("gzip", IQ_64_64)
        assert runner.cache_stats()["simulations"] == 1  # no new work

    def test_scale_is_part_of_the_disk_key(self, tmp_path):
        from repro.experiments import ResultStore

        store = ResultStore(tmp_path)
        small = ExperimentRunner(SMALL, store=store)
        small.run("gzip", IQ_64_64)
        other = ExperimentRunner(
            RunScale(num_instructions=1400, warmup_instructions=600, seed=7),
            store=store,
        )
        other.run("gzip", IQ_64_64)
        assert other.cache_stats()["simulations"] == 1  # no false sharing


class TestPoolHandBack:
    """What pool workers inherit from their parent and hand back to it."""

    PAIRS = [
        ("gzip", IQ_64_64),
        ("swim", IQ_64_64),
        ("gzip", IF_DISTR),
        ("swim", IF_DISTR),
    ]

    @pytest.fixture()
    def prewarm_module(self, monkeypatch):
        # The package re-exports the function ``prewarm`` under the
        # module's name, so the module itself comes from importlib.
        import importlib

        module = importlib.import_module("repro.workloads.prewarm")
        monkeypatch.setattr(module, "_WARM_STATE", {})
        return module

    @staticmethod
    def warmed_profiles(module):
        from repro.common.config import stable_fingerprint
        from repro.workloads.suites import get_profile

        names = {stable_fingerprint(get_profile(b)): b for b in ("gzip", "swim")}
        return {names.get(key[0], key[0]) for key in module._WARM_STATE}

    def test_parent_files_the_warm_states_its_workers_computed(
        self, prewarm_module
    ):
        from repro.experiments import simulate_matrix

        simulate_matrix(self.PAIRS, SMALL, workers=2)
        assert self.warmed_profiles(prewarm_module) == {"gzip", "swim"}

    def test_later_batches_restore_handed_back_states(
        self, prewarm_module, monkeypatch
    ):
        from repro.experiments import simulate_matrix

        serial = [s.to_dict() for s in simulate_matrix(self.PAIRS, SMALL, workers=0)]
        # Forget the states the serial run walked: only the first pool
        # batch can bring them back.
        monkeypatch.setattr(prewarm_module, "_WARM_STATE", {})
        simulate_matrix(self.PAIRS, SMALL, workers=2)

        def no_walk(*args, **kwargs):
            raise AssertionError("a worker re-walked a prewarm its parent held")

        # Forked workers inherit the patch.
        monkeypatch.setattr(prewarm_module, "build_static_program", no_walk)
        pooled = simulate_matrix(self.PAIRS, SMALL, workers=2)
        assert [s.to_dict() for s in pooled] == serial

    def test_parent_never_decodes_an_existing_spill_file(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.experiments import simulate_matrix
        from repro.experiments import runner as runner_mod
        from repro.workloads import spill
        from repro.workloads.suites import get_profile

        for benchmark in ("gzip", "swim"):
            spill.materialize_trace(
                tmp_path, get_profile(benchmark), SMALL.num_instructions, SMALL.seed
            )
        # Workers that inherit no trace must load the files.
        monkeypatch.setattr(runner_mod, "_TRACE_MEMO", {})
        parent = os.getpid()
        real_decode = spill._decode_trace

        def decode_in_workers_only(blob):
            if os.getpid() == parent:
                raise AssertionError("the parent decoded a spill file")
            return real_decode(blob)

        monkeypatch.setattr(spill, "_decode_trace", decode_in_workers_only)
        pooled = simulate_matrix(self.PAIRS, SMALL, workers=2, trace_dir=str(tmp_path))
        serial = simulate_matrix(self.PAIRS, SMALL, workers=0)
        assert [s.to_dict() for s in pooled] == [s.to_dict() for s in serial]


class TestFigureGenerators:
    """Figure functions on a reduced benchmark set (monkeypatched suites)
    so the full test suite stays fast; the benchmarks/ harness runs the
    real ones."""

    @pytest.fixture()
    def small_suites(self, monkeypatch):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip", "crafty"])
        monkeypatch.setattr(fig_mod, "FP_BENCHMARKS", ["mesa", "swim"])

    def test_figure2_returns_all_configs(self, runner, small_suites):
        data = fig_mod.figure2(runner)
        assert set(data) == set(fig2_configs())

    def test_figure7_has_harmean(self, runner, small_suites):
        data = fig_mod.figure7(runner)
        assert set(data) == {"IQ_64_64", "IF_distr", "MB_distr"}
        for series in data.values():
            assert "HARMEAN" in series

    def test_figure9_breakdown_fractions(self, runner, small_suites):
        data = fig_mod.figure9(runner)
        for suite in ("SPECINT", "SPECFP"):
            total = sum(data[suite].values())
            assert total == pytest.approx(1.0)
            assert "wakeup" in data[suite]

    def test_figure11_has_mixbuff_components(self, runner, small_suites):
        data = fig_mod.figure11(runner)
        assert "chains" in data["SPECFP"]
        assert "select" in data["SPECFP"]

    def test_figure12_baseline_normalized_to_one(self, runner, small_suites):
        data = fig_mod.figure12(runner)
        for suite in data.values():
            assert suite["IQ_64_64"] == pytest.approx(1.0)
            # Both distributed schemes dissipate less IQ power.
            assert suite["IF_distr"] < 1.0
            assert suite["MB_distr"] < 1.0

    def test_figure15_produces_all_schemes(self, runner, small_suites):
        data = fig_mod.figure15(runner)
        assert set(data["SPECFP"]) == {"IQ_64_64", "IF_distr", "MB_distr"}

    def test_figures_12_to_15_share_one_efficiency_table_per_benchmark(
        self, small_suites, monkeypatch, tmp_path
    ):
        built = []

        class CountedModel(fig_mod.EnergyModel):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fig_mod, "EnergyModel", CountedModel)
        store = ResultStore(tmp_path)

        def run_calls(numbers):
            calls = []
            counted = ExperimentRunner(SMALL, store=store)
            resolve = counted.run
            counted.run = lambda *pair: calls.append(pair) or resolve(*pair)
            for number in numbers:
                getattr(fig_mod, f"figure{number}")(counted)
            return calls

        alone = run_calls([12])
        del built[:]
        assert run_calls([12, 13, 14, 15]) == alone
        assert len(built) <= 3 * 4

    def test_narrowed_suites_never_read_a_stale_figure(self, monkeypatch, tmp_path):
        from repro.experiments.campaign import figure_data, run_campaign

        store = ResultStore(tmp_path)
        shared = ExperimentRunner(SMALL, store=store)
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        monkeypatch.setattr(fig_mod, "FP_BENCHMARKS", ["mesa"])
        run_campaign(shared, [2, 12])
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["crafty"])
        monkeypatch.setattr(fig_mod, "FP_BENCHMARKS", ["swim"])
        rendered = run_campaign(shared, [2, 12])
        fresh = ExperimentRunner(SMALL, store=store)
        assert rendered == run_campaign(fresh, [2, 12])
        for number in (2, 12):
            assert figure_data(shared, number) == figure_data(fresh, number)


class TestReport:
    def test_render_series(self):
        text = render_series("Figure 2", {"a": 1.0, "bb": 2.5})
        assert "Figure 2" in text and "bb" in text and "2.50%" in text

    def test_render_table(self):
        text = render_table("IPC", {"scheme": {"gzip": 1.234}})
        assert "gzip" in text and "1.234" in text

    def test_render_breakdown(self):
        text = render_breakdown("Fig 9", {"SPECINT": {"wakeup": 0.6, "buff": 0.4}})
        assert "wakeup" in text and "60.0%" in text
