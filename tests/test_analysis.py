"""Framework-level tests for ``repro.analysis``: suppression handling,
report determinism and the CLI contract."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.__main__ import main

BAD_CLOCK = "# repro-fixture-module: repro.core.clocky\nimport time\n\n\ndef now():\n    return time.time()\n"


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def _analyze(tmp_path: Path, **kwargs):
    return run_analysis([tmp_path], base=tmp_path, **kwargs)


class TestSuppressions:
    def test_trailing_allow_silences_exactly_one_finding(self, tmp_path):
        # Two identical violations; only the allowed line is silenced.
        _write(
            tmp_path,
            "mod.py",
            "# repro-fixture-module: repro.core.clocky\n"
            "import time\n"
            "\n"
            "\n"
            "def now():\n"
            "    a = time.time()  # repro: allow[determinism]\n"
            "    b = time.time()\n"
            "    return a + b\n",
        )
        report = _analyze(tmp_path)
        assert len(report.findings) == 1
        assert report.findings[0].line == 7
        assert len(report.suppressed) == 1
        assert report.suppressed[0].line == 6

    def test_comment_above_binds_to_next_code_line(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            "# repro-fixture-module: repro.core.clocky\n"
            "import time\n"
            "\n"
            "\n"
            "def now():\n"
            "    # repro: allow[determinism]\n"
            "    return time.time()\n",
        )
        report = _analyze(tmp_path)
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_unknown_rule_id_is_reported(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            "x = 1  # repro: allow[no-such-rule]\n",
        )
        report = _analyze(tmp_path)
        assert [f.rule for f in report.findings] == ["unknown-suppression"]
        assert "no-such-rule" in report.findings[0].message
        assert report.exit_code == 1

    def test_unused_suppression_is_reported(self, tmp_path):
        _write(
            tmp_path,
            "mod.py",
            "x = 1  # repro: allow[determinism]\n",
        )
        report = _analyze(tmp_path)
        assert [f.rule for f in report.findings] == ["unused-suppression"]
        assert report.exit_code == 1

    def test_suppression_does_not_leak_to_other_lines(self, tmp_path):
        # An allow on one line must not silence the same rule elsewhere,
        # and then counts as used only for its own line.
        _write(
            tmp_path,
            "mod.py",
            BAD_CLOCK.replace(
                "    return time.time()",
                "    return time.time()  # repro: allow[determinism]",
            )
            + "\n\ndef later():\n    return time.time()\n",
        )
        report = _analyze(tmp_path)
        assert [f.rule for f in report.findings] == ["determinism"]
        assert len(report.suppressed) == 1


class TestParseErrors:
    def test_syntax_error_becomes_finding(self, tmp_path):
        _write(tmp_path, "broken.py", "def oops(:\n")
        report = _analyze(tmp_path)
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.exit_code == 1


class TestReport:
    def test_rerun_report_is_byte_identical(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        _write(tree, "mod.py", BAD_CLOCK)
        first = run_analysis([tree], base=tree)
        second = run_analysis([tree], base=tree)
        assert second.to_json().encode() == first.to_json().encode()
        assert [f.rule for f in second.findings] == ["determinism"]


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "skip-safety",
            "determinism",
            "fingerprint-completeness",
            "version-tag-coverage",
            "checkpoint-cycle-free",
            "serve-async-hygiene",
        ):
            assert rule_id in out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path), "--rules", "bogus"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        (["--no-cache"], ["--cache-dir", "cache"], ["--baseline", "x"],
         ["--write-baseline", "x"]),
        ids=("no-cache", "cache-dir", "baseline", "write-baseline"),
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flags):
        # CI requires each known-bad fixture to exit exactly 1; a stale
        # flag must exit 2 rather than pass as a finding.
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_clean_and_dirty_exit_codes_and_json_report(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        _write(clean, "ok.py", "# repro-fixture-module: repro.core.ok\nX = 1\n")
        assert main([str(clean)]) == 0
        capsys.readouterr()

        dirty = tmp_path / "dirty"
        dirty.mkdir()
        _write(dirty, "mod.py", BAD_CLOCK)
        out_path = tmp_path / "report.json"
        assert (
            main([str(dirty), "--out", str(out_path), "--format", "json"])
            == 1
        )
        stdout = capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload == json.loads(stdout)
        assert payload["schema"] == "repro-analysis-report-v1"
        assert [f["rule"] for f in payload["findings"]] == ["determinism"]

    def test_text_summary_counts_files_findings_and_suppressions(
        self, tmp_path, capsys
    ):
        _write(tmp_path, "clock.py", BAD_CLOCK)
        _write(
            tmp_path,
            "allowed.py",
            BAD_CLOCK.replace("time.time()", "time.time()  # repro: allow[determinism]"),
        )
        assert main([str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "clock.py:6:" in lines[0] and ": determinism: " in lines[0]
        assert lines[1] == "analysis: 2 files, 1 findings (1 suppressed)"


class TestFixtureModulePragma:
    def test_pragma_scopes_rules_to_impersonated_package(self, tmp_path):
        # Without a pragma the file has no module and package-scoped
        # rules skip it entirely.
        _write(tmp_path, "orphan.py", "import time\n\n\ndef f():\n    return time.time()\n")
        report = _analyze(tmp_path)
        assert report.findings == []


@pytest.mark.parametrize("flag", ["--rules", "--list-rules", "--out", "--format"])
def test_help_mentions_documented_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert flag in capsys.readouterr().out
