"""Rule-level tests: every shipped rule catches its seeded bad fixture,
the real tree analyzes clean, and the discovery oracle replays the pass."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import default_root, run_analysis
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, resolve_rules
from repro.discover.oracles import ORACLES, StaticAnalysisOracle
from repro.experiments.runner import RunScale

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def fixture_for(rule_id: str) -> Path:
    return FIXTURES / f"bad_{rule_id.replace('-', '_')}.py"


class TestSensitivity:
    @pytest.mark.parametrize("rule_id", sorted(RULES_BY_ID))
    def test_every_rule_trips_its_bad_fixture(self, rule_id):
        fixture = fixture_for(rule_id)
        assert fixture.is_file(), f"missing known-bad fixture {fixture}"
        report = run_analysis(
            [fixture], base=FIXTURES, rules=resolve_rules([rule_id])
        )
        tripped = [f for f in report.findings if f.rule == rule_id]
        assert tripped, f"{rule_id} found nothing in {fixture.name}"
        assert report.exit_code == 1

    def test_every_rule_has_a_fixture_and_vice_versa(self):
        fixture_rules = {
            path.stem.removeprefix("bad_").replace("_", "-")
            for path in FIXTURES.glob("bad_*.py")
        }
        assert fixture_rules == set(RULES_BY_ID)

    def test_rule_metadata_is_complete(self):
        for rule in ALL_RULES:
            assert rule.id and rule.summary and rule.rationale
            assert rule.severity == "error"


class TestRuleSpecifics:
    def test_skip_safety_inherited_contract_resolves_cross_file(self, tmp_path):
        # The base class registers the counter and carries the next_*
        # contract; the subclass mutating in try_place must be clean.
        (tmp_path / "base.py").write_text(
            "# repro-fixture-module: repro.issue.base_fx\n"
            "class GoodBase:\n"
            "    def next_activity_cycle(self, cycle):\n"
            "        return None\n"
            "\n"
            "    def idle_counters(self):\n"
            "        return {'stalls': self.stalls}\n"
        )
        (tmp_path / "sub.py").write_text(
            "# repro-fixture-module: repro.issue.sub_fx\n"
            "from repro.issue.base_fx import GoodBase\n"
            "\n"
            "\n"
            "class GoodSub(GoodBase):\n"
            "    def try_place(self, inst):\n"
            "        self.stalls += 1\n"
            "        return False\n"
            "\n"
            "    def step(self, cycle):\n"
            "        self.stalls += 1\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["skip-safety"])
        )
        assert report.findings == []

    def test_determinism_allows_seeded_rng_and_sorted_walks(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            "# repro-fixture-module: repro.workloads.ok_fx\n"
            "import random\n"
            "from pathlib import Path\n"
            "\n"
            "\n"
            "def gen(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n"
            "\n"
            "\n"
            "def names(root):\n"
            "    return [p.name for p in sorted(Path(root).glob('*.json'))]\n"
            "\n"
            "\n"
            "def ordered(items):\n"
            "    return [x for x in sorted({1, 2, 3})]\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["determinism"])
        )
        assert report.findings == []

    def test_version_tag_rule_allows_store_and_covered_imports(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            "# repro-fixture-module: repro.core.ok_fx\n"
            "from repro.common.config import ProcessorConfig\n"
            "from repro.experiments.store import package_sources_digest\n"
            "from repro.experiments import store\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["version-tag-coverage"])
        )
        assert report.findings == []

    def test_fingerprint_rule_accepts_valid_exclude(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            "# repro-fixture-module: repro.common.ok_fx\n"
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class OkConfig:\n"
            "    size: int = 8\n"
            "    kernel: str = 'skip'\n"
            "\n"
            "    _FINGERPRINT_EXCLUDE = ('kernel',)\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["fingerprint-completeness"])
        )
        assert report.findings == []

    def test_async_rule_ignores_calls_routed_through_shims(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            "# repro-fixture-module: repro.serve.ok_fx\n"
            "class OkHandler:\n"
            "    async def handle(self, loop, key):\n"
            "        return await loop.run_in_executor(None, self.store.load, key)\n"
            "\n"
            "    async def lazy(self, key):\n"
            "        return await self._in_thread(lambda: self.store.load(key))\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["serve-async-hygiene"])
        )
        assert report.findings == []

    def test_telemetry_rule_bans_clocks_outside_obs(self, tmp_path):
        # An untagged orchestration module reading the clock directly.
        (tmp_path / "bad.py").write_text(
            "# repro-fixture-module: repro.serve.bad_fx\n"
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["telemetry-hygiene"])
        )
        assert [f.rule for f in report.findings] == ["telemetry-hygiene"]
        assert "repro.obs.clock" in report.findings[0].message

    def test_telemetry_rule_exempts_obs_and_untagged_imports(self, tmp_path):
        # repro.obs.clock is the sanctioned wall-clock site; untagged
        # layers (experiments, serve) may import obs freely.
        (tmp_path / "clock.py").write_text(
            "# repro-fixture-module: repro.obs.clock_fx\n"
            "import time\n"
            "\n"
            "\n"
            "def wall_time():\n"
            "    return time.time()\n"
        )
        (tmp_path / "runner.py").write_text(
            "# repro-fixture-module: repro.experiments.ok_fx\n"
            "from repro import obs\n"
            "\n"
            "\n"
            "def tick():\n"
            "    obs.counter('repro_ok_total').inc()\n"
            "    return obs.clock.perf_counter()\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["telemetry-hygiene"])
        )
        assert report.findings == []


class TestCleanTree:
    def test_real_tree_has_zero_unsuppressed_findings(self):
        report = run_analysis()
        assert report.findings == [], "\n" + "\n".join(
            f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in report.findings
        )
        # The one deliberate, documented suppression (the scheduler's
        # inline store probe) stays used.
        assert len(report.suppressed) == 1

    def test_default_root_is_the_repro_package(self):
        assert default_root().name == "repro"


class TestStaticAnalysisOracle:
    SCALE = RunScale(num_instructions=1000, warmup_instructions=500, seed=3)

    def test_registered_in_catalog(self):
        assert "static_analysis" in ORACLES

    def test_clean_tree_yields_no_findings(self, monkeypatch):
        monkeypatch.delenv("REPRO_ANALYSIS_ROOT", raising=False)
        oracle = StaticAnalysisOracle()
        assert oracle.run(None, [object()], self.SCALE) == []

    def test_bad_tree_yields_one_point_bound_finding(self, tmp_path, monkeypatch):
        (tmp_path / "bad.py").write_text(
            "# repro-fixture-module: repro.core.bad_fx\n"
            "import time\n"
            "\n"
            "\n"
            "def now():\n"
            "    return time.time()\n"
        )
        monkeypatch.setenv("REPRO_ANALYSIS_ROOT", str(tmp_path))
        oracle = StaticAnalysisOracle()
        point = object()
        findings = oracle.run(None, [point, object()], self.SCALE)
        assert len(findings) == 1
        assert findings[0].oracle == "static_analysis"
        assert findings[0].point is point
        assert any("determinism" in line for line in findings[0].detail)
        # Deterministic detail: a second run reproduces the tuple.
        assert oracle.run(None, [point], self.SCALE)[0].detail == findings[0].detail

    def test_no_points_means_no_findings_even_when_dirty(self, tmp_path, monkeypatch):
        (tmp_path / "bad.py").write_text(
            "# repro-fixture-module: repro.core.bad_fx\n"
            "import time\n"
            "\n"
            "\n"
            "def now():\n"
            "    return time.time()\n"
        )
        monkeypatch.setenv("REPRO_ANALYSIS_ROOT", str(tmp_path))
        assert StaticAnalysisOracle().run(None, [], self.SCALE) == []
