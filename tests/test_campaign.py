"""Tests for the batch campaign entry point."""

import csv
import hashlib
import json

import pytest

from repro.experiments import figures as fig_mod
from repro.experiments.campaign import (
    ALL_FIGURES,
    export_campaign,
    figure_rows,
    main,
    run_campaign,
)
from repro.experiments.runner import ExperimentRunner, RunScale
from repro.experiments.store import ResultStore

SMALL = RunScale(1200, 600, 7)


@pytest.fixture()
def small(monkeypatch):
    monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
    monkeypatch.setattr(fig_mod, "FP_BENCHMARKS", ["mesa"])
    return ExperimentRunner(SMALL)


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """One store for the whole-matrix tests below, so only the first
    of them simulates the (gzip, mesa) campaign."""
    return ResultStore(tmp_path_factory.mktemp("small-campaign"))


@pytest.fixture()
def small_stored(small, small_store):
    """A runner on ``small``'s suites over the module's shared store."""
    return ExperimentRunner(SMALL, store=small_store)


class TestCampaign:
    def test_all_figures_listed(self):
        assert ALL_FIGURES == [2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]

    def test_unknown_figure_rejected(self, small):
        with pytest.raises(ValueError):
            run_campaign(small, [5])  # Figure 5 is a worked example, not data

    def test_series_figure_renders(self, small):
        text = run_campaign(small, [2])[2]
        assert "Figure 2" in text
        assert "IssueFIFO_8x8_16x16" in text

    def test_table_figure_renders(self, small):
        text = run_campaign(small, [8])[8]
        assert "HARMEAN" in text

    def test_breakdown_figure_renders(self, small):
        text = run_campaign(small, [9])[9]
        assert "wakeup" in text


class TestCliFilters:
    def test_schemes_filter_runs_warm_only_sweep(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        main(["--scale", "1000", "--figures", "2",
              "--schemes", "IQ_unbounded,IssueFIFO_8x8_16x16",
              "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "warmed 2 (benchmark, scheme) pairs" in out
        assert "Figure 2" not in out  # warm-only: no rendering

    def test_unknown_scheme_name_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        with pytest.raises(SystemExit):
            main(["--scale", "1000", "--figures", "2",
                  "--schemes", "NoSuchScheme", "--cache-dir", str(tmp_path)])

    def test_kernel_flag_accepts_naive(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        main(["--scale", "1000", "--figures", "7", "--kernel", "naive",
              "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "kernel [naive]" in out
        assert "0 skipped" in out

    def test_kernel_flag_rejects_the_removed_vectorized_kernel(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--figures", "7", "--kernel", "vectorized",
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'vectorized'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_no_cache_with_cache_dir_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--figures", "7", "--no-cache", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestListCatalog:
    def test_list_prints_catalog_and_exits_cleanly(self, capsys):
        main(["--list"])
        out = capsys.readouterr().out
        assert "Campaign catalog" in out
        # Every suite is enumerated...
        for bench in ("gzip", "mcf", "swim", "ptrchase"):
            assert bench in out
        # ...as are figures with titles, scheme names and kernels.
        assert "2: % IPC loss, IssueFIFO, SPECINT" in out
        assert "15: Normalized energy x delay^2" in out
        assert "IQ_64_64" in out and "IssueFIFO_8x8_16x16" in out
        assert "naive" in out and "skip" in out
        assert "sampled (--sampling)" in out

    def test_list_simulates_nothing(self, capsys):
        main(["--list"])
        out = capsys.readouterr().out
        assert "Campaign catalog" in out
        assert "campaign:" not in out  # no footer: nothing ran

    def test_list_rejects_run_flags(self, capsys, tmp_path):
        # --list used to silently ignore run flags; an invocation like
        # `--list --scale 100000` now fails loudly instead of letting
        # the caller believe a run was configured.
        with pytest.raises(SystemExit) as excinfo:
            main(["--list", "--scale", "100000", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--list" in err and "--scale" in err and "--cache-dir" in err
        assert not any(tmp_path.iterdir())  # and nothing was cached

    def test_catalog_schemes_match_figure_matrix(self):
        from repro.common.config import scheme_name
        from repro.experiments.campaign import render_catalog

        listed = render_catalog()
        for __, scheme in fig_mod.required_runs(ALL_FIGURES):
            assert scheme_name(scheme) in listed


class TestVersionTag:
    def test_version_tag_prints_registry_json(self, capsys):
        from repro.core.engine import VALID_KERNELS
        from repro.experiments.store import SIMULATOR_VERSION_TAG

        main(["--version-tag"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["simulator_version_tag"] == SIMULATOR_VERSION_TAG
        assert payload["kernels"] == list(VALID_KERNELS)
        assert "backends" not in payload
        assert payload["sampling_version_tag"].startswith("abella04-sampling")

    def test_version_tag_simulates_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        main(["--version-tag"])
        assert not (tmp_path / "cache").exists()

    def test_version_tag_rejects_other_flags(self, capsys, tmp_path):
        for argv in (
            ["--version-tag", "--scale", "100000"],
            ["--version-tag", "--list"],
            ["--version-tag", "--cache-dir", str(tmp_path)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--version-tag" in capsys.readouterr().err


class TestSamplingCli:
    def test_sampled_campaign_renders_and_reports(self, monkeypatch, tmp_path,
                                                  capsys):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        main(["--scale", "2000", "--figures", "2",
              "--sampling", "slices=4,slice=120,warmup=80",
              "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "sampling [systematic]: 4 slices x 120" in out

    def test_warm_sampled_rerun_executes_nothing(self, monkeypatch, tmp_path,
                                                 capsys):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        args = ["--scale", "2000", "--figures", "2",
                "--sampling", "slices=4,slice=120,warmup=80",
                "--cache-dir", str(tmp_path)]
        main(args)
        capsys.readouterr()
        main(args)
        out = capsys.readouterr().out
        assert "0 simulated" in out

    def test_bad_spec_and_oversized_plan_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--sampling", "bogus=1", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            # 8x200 slices cannot fit scale 1000's 500-instruction region.
            main(["--scale", "1000", "--sampling", "",
                  "--cache-dir", str(tmp_path)])

    def test_validate_requires_sampling(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--sampling-validate", "--cache-dir", str(tmp_path)])

    def test_validate_prints_error_table_and_gates(self, monkeypatch, tmp_path,
                                                   capsys):
        import repro.experiments.campaign as campaign_mod

        monkeypatch.setattr(campaign_mod, "INT_BENCHMARKS", ["gzip"])
        # A loose bound passes and exits zero...
        main(["--scale", "3000", "--benchmarks", "int",
              "--sampling", "slices=4,slice=250,warmup=250,error=0.5",
              "--sampling-validate", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Sampled vs full IPC" in out
        assert "gzip" in out and "error-bound OK" in out
        # ...an absurdly tight bound trips the gate with exit code 1.
        with pytest.raises(SystemExit) as exc:
            main(["--scale", "3000", "--benchmarks", "int",
                  "--sampling", "slices=4,slice=250,warmup=250,error=0.0001",
                  "--sampling-validate", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "error-bound VIOLATED" in capsys.readouterr().out


class TestOutputExport:
    def test_figure_rows_shapes(self):
        series = figure_rows(2, {"IF_8x8": 12.5})
        assert series == [{"figure": 2, "title": "% IPC loss, IssueFIFO, SPECINT",
                           "series": "IF_8x8", "value": 12.5}]
        table = figure_rows(7, {"IQ_64_64": {"gzip": 1.5}})
        assert table[0]["column"] == "IQ_64_64" and table[0]["row"] == "gzip"
        breakdown = figure_rows(9, {"SPECINT": {"wakeup": 0.4}})
        assert breakdown[0]["suite"] == "SPECINT"
        assert breakdown[0]["component"] == "wakeup"

    def test_export_json_keeps_figure_shapes(self, small, tmp_path):
        run_campaign(small, [2])
        before = small.cache_stats()["simulations"]
        path = tmp_path / "campaign.json"
        export_campaign(small, [2], "json", str(path))
        payload = json.loads(path.read_text())
        assert set(payload) == {"figure_2"}
        assert "IssueFIFO_8x8_16x16" in payload["figure_2"]["data"]
        # The export replays the warm cache: no new simulations.
        assert small.cache_stats()["simulations"] == before

    def test_export_csv_flattens_rows(self, small, tmp_path):
        run_campaign(small, [7])
        path = tmp_path / "campaign.csv"
        export_campaign(small, [7], "csv", str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["column"] for row in rows} == {"IQ_64_64", "IF_distr", "MB_distr"}
        assert any(row["row"] == "HARMEAN" for row in rows)

    def test_cli_output_flag_writes_artifact(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        out = tmp_path / "figs.json"
        main(["--scale", "1000", "--figures", "2", "--cache-dir",
              str(tmp_path / "cache"), "--output", "json",
              "--output-path", str(out)])
        assert "exported 1 figures" in capsys.readouterr().out
        assert json.loads(out.read_text())["figure_2"]["data"]

    def test_output_path_requires_output(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--output-path", str(tmp_path / "x.json")])

    def test_output_incompatible_with_warm_only_sweep(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--figures", "2", "--schemes", "IQ_unbounded",
                  "--cache-dir", str(tmp_path), "--output", "json"])


class TestFigureDataOnce:
    def test_render_then_both_exports_generate_each_figure_once(
        self, small_stored, tmp_path, monkeypatch
    ):
        calls = []
        for number in ALL_FIGURES:
            generate = getattr(fig_mod, f"figure{number}")

            def counted(runner, number=number, generate=generate):
                calls.append(number)
                return generate(runner)

            monkeypatch.setattr(fig_mod, f"figure{number}", counted)
        run_campaign(small_stored, ALL_FIGURES)
        export_campaign(small_stored, ALL_FIGURES, "json", str(tmp_path / "all.json"))
        export_campaign(small_stored, ALL_FIGURES, "csv", str(tmp_path / "all.csv"))
        assert calls == ALL_FIGURES

    def test_shared_runner_exports_the_bytes_of_a_fresh_runner_per_figure(
        self, small_stored, small_store, tmp_path
    ):
        run_campaign(small_stored, ALL_FIGURES)
        for number in ALL_FIGURES:
            shared = tmp_path / f"shared-{number}.json"
            fresh = tmp_path / f"fresh-{number}.json"
            export_campaign(small_stored, [number], "json", str(shared))
            export_campaign(
                ExperimentRunner(SMALL, store=small_store), [number], "json", str(fresh)
            )
            assert shared.read_bytes() == fresh.read_bytes(), number


class TestWholeCampaignPin:
    """The scale-500 campaign over every figure and benchmark (428
    pairs), pinned byte for byte: a change that moves any figure value
    fails here. A deliberate behaviour change updates the digests with
    the goldens."""

    def test_cold_json_and_warm_csv_digests(self, tmp_path, capsys):
        args = ["--scale", "500", "--seed", "7", "--cache-dir", str(tmp_path / "cache")]
        cold = tmp_path / "cold.json"
        main(args + ["--output", "json", "--output-path", str(cold)])
        assert hashlib.sha256(cold.read_bytes()).hexdigest() == (
            "69b1e60abaa73b62d0ef6b8de5fb313f1f5e95abd0aec56cf8c8c6bdc7275eca"
        )
        capsys.readouterr()
        warm = tmp_path / "warm.csv"
        main(args + ["--output", "csv", "--output-path", str(warm)])
        assert " 0 simulated" in capsys.readouterr().out
        assert hashlib.sha256(warm.read_bytes()).hexdigest() == (
            "140ae5c050d2b50d9a7d751b2a65a6a4add20385cae68378dff759008d69056e"
        )


class TestRequiredRuns:
    def test_fig7_matrix_is_schemes_times_suite(self, monkeypatch):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip", "crafty"])
        pairs = fig_mod.required_runs([7])
        assert len(pairs) == 2 * len(fig_mod.SCHEMES_SECTION4)
        assert pairs[0][0] == "gzip"

    def test_pairs_are_deduplicated_across_figures(self, monkeypatch):
        monkeypatch.setattr(fig_mod, "INT_BENCHMARKS", ["gzip"])
        monkeypatch.setattr(fig_mod, "FP_BENCHMARKS", ["mesa"])
        # Figures 12-15 share the exact same matrix.
        assert fig_mod.required_runs([12, 13, 14, 15]) == fig_mod.required_runs([12])

    def test_campaign_prefetch_covers_generator_needs(self, small):
        # After rendering via run_campaign (which prefetches), every
        # simulation the generator triggered came through run_many.
        run_campaign(small, [7])
        sims_after_prefetch = small.cache_stats()["simulations"]
        fig_mod.figure7(small)  # pure memory hits now
        assert small.cache_stats()["simulations"] == sims_after_prefetch
