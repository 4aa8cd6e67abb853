"""Rule-level tests: every shipped rule catches its seeded bad fixture,
the real tree analyzes clean, and the rules scope by the store's one
declaration of the version-tagged core."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Project, default_root, run_analysis
from repro.analysis.engine import discover_files
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, resolve_rules
from repro.experiments import store

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
        # The base class carries the next_* contract; the subclass
        # mutating in step and counting through the processor's events
        # in try_place must be clean.
        (tmp_path / "base.py").write_text(
            "# repro-fixture-module: repro.issue.base_fx\n"
            "class GoodBase:\n"
            "    def next_activity_cycle(self, cycle):\n"
            "        return None\n"
        )
        (tmp_path / "sub.py").write_text(
            "# repro-fixture-module: repro.issue.sub_fx\n"
            "from repro.issue.base_fx import GoodBase\n"
            "\n"
            "\n"
            "class GoodSub(GoodBase):\n"
            "    def try_place(self, inst):\n"
            "        self.events.add('stalls')\n"
            "        return False\n"
            "\n"
            "    def step(self, cycle):\n"
            "        self.last_cycle = cycle\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["skip-safety"])
        )
        assert report.findings == []

    def test_skip_safety_flags_component_counter_even_if_replayed(self, tmp_path):
        # Interval accounting replays only the processor's own counters,
        # so naming a component counter in an idle_counters() method no
        # longer excuses it.
        (tmp_path / "side.py").write_text(
            "# repro-fixture-module: repro.issue.side_fx\n"
            "class Side:\n"
            "    def next_activity_cycle(self, cycle):\n"
            "        return None\n"
            "\n"
            "    def try_place(self, inst):\n"
            "        self.stalls += 1\n"
            "        return False\n"
            "\n"
            "    def idle_counters(self):\n"
            "        return {'stalls': self.stalls}\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["skip-safety"])
        )
        assert [f.symbol for f in report.findings] == ["Side.try_place.stalls"]
        assert "processor's events" in report.findings[0].message

    def test_skip_safety_fixture_trips_both_halves(self):
        # CI checks only the fixture's exit status, which either half of
        # the rule alone produces; pin one finding from each.
        fixture = fixture_for("skip-safety")
        report = run_analysis(
            [fixture], base=FIXTURES, rules=resolve_rules(["skip-safety"])
        )
        assert sorted(f.symbol for f in report.findings) == [
            "BadSide.step",
            "BadSide.try_place.dispatch_stalls",
        ]

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

    def test_fingerprint_rule_requires_deep_immutability(self):
        # stable_fingerprint caches its rendering on the instance, so a
        # fingerprinted class that can change after the first call is a
        # finding: not frozen, or holding a mutable container. The
        # fixture's classes are fingerprinted through the mixin alone.
        fixture = fixture_for("fingerprint-completeness")
        report = run_analysis(
            [fixture], base=FIXTURES, rules=resolve_rules(["fingerprint-completeness"])
        )
        by_symbol = {f.symbol: f.message for f in report.findings}
        assert "frozen=True" in by_symbol["ThawedConfig"]
        assert "'List', a mutable container" in by_symbol["BadConfig.sizes"]
        assert "not a @dataclass" in by_symbol["AlsoBadConfig"]
        assert "'set', whose canonical JSON" in by_symbol["BadConfig.flags"]

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


class TestTaggedCore:
    """The analysis scopes come from ``store.TAGGED_PACKAGES``, the same
    tuple the version tags digest."""

    def test_version_tags_digest_the_declared_packages(self):
        assert store.TAGGED_PACKAGES == (
            store.SIMULATOR_PACKAGES + store.SAMPLING_PACKAGES
        )
        sim = store.package_sources_digest(store.SIMULATOR_PACKAGES)
        sampling = store.package_sources_digest(store.SAMPLING_PACKAGES)
        assert store.SIMULATOR_VERSION_TAG == f"abella04-sim-src-{sim[:16]}"
        assert (
            store.SAMPLING_VERSION_TAG == f"abella04-sampling-src-{sampling[:16]}"
        )

    def test_determinism_and_telemetry_partition_the_tree(self):
        # The tagged core is determinism's, the rest is telemetry's, and
        # repro.obs (the one wall-clock site) is in neither.
        base = default_root().parent
        project = Project(discover_files([default_root()], base), base)
        rules = (RULES_BY_ID["determinism"], RULES_BY_ID["telemetry-hygiene"])
        for sf in project.files:
            scopes = sum(rule.applies(sf, project) for rule in rules)
            assert scopes == (0 if sf.in_package(("repro.obs",)) else 1), sf.module

    def test_a_tagged_obs_import_is_one_finding(self, tmp_path):
        (tmp_path / "edge.py").write_text(
            "# repro-fixture-module: repro.core.edge_fx\n"
            "from repro import obs\n"
        )
        report = run_analysis([tmp_path], base=tmp_path)
        assert [(f.rule, f.symbol) for f in report.findings] == [
            ("version-tag-coverage", "repro.obs")
        ]

    def test_warm_state_rule_covers_the_energy_package(self, tmp_path):
        (tmp_path / "model.py").write_text(
            "# repro-fixture-module: repro.energy.model_fx\n"
            "class Model:\n"
            "    def state_snapshot(self):\n"
            "        return {'last_cycle': 0}\n"
        )
        report = run_analysis(
            [tmp_path], base=tmp_path, rules=resolve_rules(["checkpoint-cycle-free"])
        )
        assert [f.symbol for f in report.findings] == ["state_snapshot.last_cycle"]
