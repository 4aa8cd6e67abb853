"""Tests for the divergence-discovery subsystem.

The integration spine: arm the known injected fault, run a budgeted
campaign over a narrowed space, and prove the loop *finds* the planted
bug, *minimizes* it to a strictly smaller witness, *persists* a
replayable corpus, and replays warm with zero simulations and a
byte-identical artifact — then prove a clean campaign over every oracle
finds nothing.
"""

import json
import os

import pytest

from repro.common import faults
from repro.common.config import default_config
from repro.common.errors import ConfigurationError
from repro.common.stats import SimulationStats, StatCounters
from repro.discover import (
    ORACLES,
    DiscoverySettings,
    check_estimate_record,
    check_invariants,
    load_corpus,
    plan_for,
    replay_witness,
    resolve_oracles,
    run_discovery,
    witness_key,
)
from repro.discover.__main__ import main
from repro.experiments import IQ_64_64
from repro.experiments.runner import RunScale, simulate_sampled_pair
from repro.experiments.store import ResultStore, result_key
from repro.explore.space import default_space
from repro.sampling import MetricEstimate
from repro.workloads.suites import get_profile

FAULT = faults.SKIP_IDLE_UNDERCOUNT


@pytest.fixture
def clean_faults():
    """Guarantee fault state is restored no matter what a test does."""
    saved = os.environ.get(faults.ENV_VAR)
    yield
    if saved is None:
        os.environ.pop(faults.ENV_VAR, None)
    else:
        os.environ[faults.ENV_VAR] = saved


class TestFaultRegistry:
    def test_activate_arms_and_disarms_via_env(self, clean_faults):
        assert faults.activate([FAULT]) == (FAULT,)
        assert faults.is_active(FAULT)
        assert os.environ[faults.ENV_VAR] == FAULT
        assert faults.activate(None) == ()
        assert not faults.is_active(FAULT)
        assert faults.ENV_VAR not in os.environ

    def test_unknown_fault_rejected_without_side_effects(self, clean_faults):
        with pytest.raises(ConfigurationError):
            faults.activate(["no-such-fault"])
        assert faults.active_faults() == ()

    def test_env_parsing_sorts_and_dedupes(self, clean_faults):
        os.environ[faults.ENV_VAR] = f" {FAULT} , {FAULT},"
        assert faults.active_faults() == (FAULT,)


class TestCacheKeySeparation:
    CONFIG = default_config(IQ_64_64)
    PROFILE = get_profile("gzip")
    SCALE = RunScale(num_instructions=1000, warmup_instructions=500, seed=3)

    def key(self, **kwargs):
        return result_key(self.CONFIG, self.PROFILE, self.SCALE, **kwargs)

    def test_salt_partitions_the_key_space(self):
        assert self.key() != self.key(salt="discover:kernel=naive")
        assert self.key(salt="a") != self.key(salt="b")

    def test_armed_faults_never_alias_clean_keys(self, clean_faults):
        clean = self.key()
        faults.activate([FAULT])
        assert self.key() != clean
        faults.activate(None)
        assert self.key() == clean

    def test_runner_key_salt_flows_into_store_keys(self):
        from repro.experiments.runner import ExperimentRunner

        plain = ExperimentRunner(scale=self.SCALE, store=False)
        salted = ExperimentRunner(scale=self.SCALE, store=False,
                                  key_salt="discover:exec=serial")
        assert plain.store_key("gzip", IQ_64_64) != salted.store_key(
            "gzip", IQ_64_64
        )


def fabricated_stats(**overrides):
    values = {
        "cycles": 1000,
        "committed_instructions": 800,
        "fetched_instructions": 900,
        "dispatch_stall_cycles": 50,
        "branch_predictions": 100,
        "branch_mispredictions": 10,
    }
    events = {
        "cycles": 1000,
        "committed": 800,
        "instructions_issued": 850,
        "iq_wakeup_broadcasts": 500,
        "iq_wakeup_comparisons": 9000,
    }
    events.update(overrides.pop("events", {}))
    values.update(overrides)
    return SimulationStats(events=StatCounters.from_dict(events), **values)


class TestInvariantChecks:
    CONFIG = default_config(IQ_64_64)

    def test_honest_stats_pass(self):
        assert check_invariants(fabricated_stats(), self.CONFIG) == []

    def test_event_scalar_desync_caught(self):
        broken = fabricated_stats(events={"cycles": 999})
        assert any("events[cycles]" in v
                   for v in check_invariants(broken, self.CONFIG))
        broken = fabricated_stats(events={"committed": 1})
        assert any("events[committed]" in v
                   for v in check_invariants(broken, self.CONFIG))

    def test_negative_counter_caught(self):
        broken = fabricated_stats(events={"iq_buff_read": -4})
        assert any("negative" in v
                   for v in check_invariants(broken, self.CONFIG))

    def test_impossible_ipc_caught(self):
        broken = fabricated_stats(committed_instructions=20000,
                                  events={"committed": 20000})
        assert any("commit width" in v
                   for v in check_invariants(broken, self.CONFIG))

    def test_mispredictions_exceeding_predictions_caught(self):
        broken = fabricated_stats(branch_mispredictions=200)
        assert any("mispredictions" in v
                   for v in check_invariants(broken, self.CONFIG))

    def test_wakeup_bounds_caught(self):
        broken = fabricated_stats(events={"iq_wakeup_broadcasts": 10**7})
        assert any("iq_wakeup_broadcasts" in v
                   for v in check_invariants(broken, self.CONFIG))
        broken = fabricated_stats(events={"iq_wakeup_comparisons": 10**9})
        assert any("iq_wakeup_comparisons" in v
                   for v in check_invariants(broken, self.CONFIG))


class TestEstimateRecordChecks:
    SCALE = RunScale(num_instructions=600, warmup_instructions=300, seed=11)

    @pytest.fixture(scope="class")
    def sampled(self):
        plan = plan_for(self.SCALE)
        record = simulate_sampled_pair("mcf", IQ_64_64, self.SCALE, plan)[0]
        return record

    def test_real_record_passes(self, sampled):
        plan = plan_for(self.SCALE)
        assert check_estimate_record(sampled, plan, self.SCALE) == []

    def test_malformed_interval_caught(self, sampled):
        plan = plan_for(self.SCALE)
        original = sampled.estimates["ipc"]
        sampled.estimates["ipc"] = MetricEstimate(
            mean=original.mean, std_error=original.std_error,
            ci_low=original.mean + 1.0, ci_high=original.mean + 2.0,
        )
        try:
            violations = check_estimate_record(sampled, plan, self.SCALE)
        finally:
            sampled.estimates["ipc"] = original
        assert any("malformed" in v for v in violations)

    def test_missing_widening_caught(self, sampled):
        plan = plan_for(self.SCALE)
        original = sampled.estimates["cpi"]
        sampled.estimates["cpi"] = MetricEstimate(
            mean=original.mean, std_error=original.std_error,
            ci_low=original.mean, ci_high=original.mean,
        )
        try:
            violations = check_estimate_record(sampled, plan, self.SCALE)
        finally:
            sampled.estimates["cpi"] = original
        assert any("widening" in v for v in violations)

    def test_window_bookkeeping_caught(self, sampled):
        plan = plan_for(self.SCALE)
        dropped = sampled.windows.pop()
        try:
            violations = check_estimate_record(sampled, plan, self.SCALE)
        finally:
            sampled.windows.append(dropped)
        assert any("window" in v for v in violations)

    def test_region_mismatch_caught(self, sampled):
        plan = plan_for(self.SCALE)
        sampled.total_instructions += 7
        try:
            violations = check_estimate_record(sampled, plan, self.SCALE)
        finally:
            sampled.total_instructions -= 7
        assert any("total_instructions" in v for v in violations)


class TestPlanFor:
    @pytest.mark.parametrize("instructions", [500, 800, 1200, 1500, 6000])
    def test_derived_plan_fits_every_legal_scale(self, instructions):
        scale = RunScale(instructions, instructions // 2, seed=11)
        plan = plan_for(scale)
        plan.validate()
        windows = plan.slice_windows(scale.warmup_instructions,
                                     scale.num_instructions)
        assert len(windows) == plan.num_slices


class TestWitnessKeys:
    BASE = {
        "oracle": "kernel_equivalence",
        "assignment": {"kind": "issuefifo", "benchmark": "mcf"},
        "scale": {"num_instructions": 600, "warmup_instructions": 300,
                  "seed": 11},
        "faults": [FAULT],
    }

    def test_key_ignores_diagnostics_and_version(self):
        a = dict(self.BASE, detail=["x"], simulator_version="v1")
        b = dict(self.BASE, detail=["y"], simulator_version="v2")
        assert witness_key(a) == witness_key(b)

    def test_key_tracks_reproduction_inputs(self):
        base = witness_key(self.BASE)
        assert witness_key(dict(self.BASE, oracle="serial_parallel")) != base
        assert witness_key(
            dict(self.BASE, scale={"num_instructions": 700,
                                   "warmup_instructions": 350, "seed": 11})
        ) != base
        assert witness_key(dict(self.BASE, faults=[])) != base


class TestRetiredOracleWitness:
    """A corpus may hold a witness of an oracle that has since been
    deleted (``static_analysis`` is one): it is skipped, not fatal."""

    RETIRED = dict(TestWitnessKeys.BASE, format=1, oracle="static_analysis",
                   benchmark="mcf")

    def test_load_corpus_skips_it(self, tmp_path):
        for oracle in ("static_analysis", "kernel_equivalence"):
            witness = dict(self.RETIRED, oracle=oracle)
            key = witness_key(witness)
            path = tmp_path / "witnesses" / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(dict(witness, witness_key=key)))
        corpus = load_corpus(tmp_path)
        assert [w["oracle"] for w in corpus] == ["kernel_equivalence"]

    def test_replay_names_the_known_oracles(self):
        with pytest.raises(ConfigurationError, match="kernel_equivalence"):
            replay_witness(self.RETIRED, store=False)


class TestOracleSelection:
    def test_default_is_every_oracle_in_canonical_order(self):
        assert [o.name for o in resolve_oracles(None)] == list(ORACLES)

    def test_filter_keeps_canonical_order_and_dedupes(self):
        picked = resolve_oracles("sampling_ci,kernel_equivalence,sampling_ci")
        assert [o.name for o in picked] == ["kernel_equivalence", "sampling_ci"]

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_oracles("kernel_equivalence,bogus")


class TestSettings:
    def test_degenerate_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            DiscoverySettings(rounds=0).validate()
        with pytest.raises(ConfigurationError):
            DiscoverySettings(per_round=0).validate()
        with pytest.raises(ValueError):
            DiscoverySettings(scale=100).validate()


@pytest.fixture(scope="module")
def injected_campaign(tmp_path_factory):
    """One shared injected-fault campaign: found, minimized, persisted."""
    root = tmp_path_factory.mktemp("discover-cache")
    settings = DiscoverySettings(rounds=1, per_round=4, scale=1200, seed=7,
                                 oracles=("kernel_equivalence",))
    saved = os.environ.get(faults.ENV_VAR)
    faults.activate([FAULT])
    try:
        report = run_discovery(
            settings,
            store=ResultStore(root),
            space=default_space(["ptrchase", "gzip"]),
        )
    finally:
        if saved is None:
            os.environ.pop(faults.ENV_VAR, None)
        else:
            os.environ[faults.ENV_VAR] = saved
    return report, root, settings


class TestInjectedDiscovery:
    def test_injected_bug_is_found_and_minimized(self, injected_campaign):
        report, __, settings = injected_campaign
        assert report.witnesses, "campaign missed the planted fault"
        for witness in report.witnesses:
            assert witness["oracle"] == "kernel_equivalence"
            assert witness["faults"] == [FAULT]
            assert witness["detail"], "witness carries no diagnostics"
            # The whole point of minimization: the witness runs a
            # strictly shorter trace than the discovery campaign did.
            assert (witness["minimization"]["scale"]
                    < settings.scale), "witness did not shrink"
            assert witness["scale"]["num_instructions"] == (
                witness["minimization"]["scale"]
            )
            assert isinstance(witness["generalization"], list)

    def test_witness_corpus_is_persisted_content_addressed(
        self, injected_campaign
    ):
        report, root, __ = injected_campaign
        corpus = load_corpus(root)
        assert {w["witness_key"] for w in corpus} == {
            w["witness_key"] for w in report.witnesses
        }
        for witness in corpus:
            assert witness_key(witness) == witness["witness_key"]

    def test_warm_rerun_simulates_nothing_and_is_byte_identical(
        self, injected_campaign, clean_faults
    ):
        report, root, settings = injected_campaign
        faults.activate([FAULT])
        rerun = run_discovery(
            settings,
            store=ResultStore(root),
            space=default_space(["ptrchase", "gzip"]),
        )
        assert rerun.context.simulations() == 0
        assert json.dumps(rerun.payload(), sort_keys=True) == json.dumps(
            report.payload(), sort_keys=True
        )

    def test_witness_replays_armed_and_passes_disarmed(
        self, injected_campaign, clean_faults
    ):
        report, root, __ = injected_campaign
        witness = report.witnesses[0]
        store = ResultStore(root)
        faults.activate(witness["faults"])
        assert replay_witness(witness, store=store), (
            "armed replay must reproduce the divergence"
        )
        faults.activate(None)
        assert replay_witness(witness, store=store) == [], (
            "disarmed replay must run clean"
        )


class TestCleanCampaign:
    def test_all_oracles_find_nothing_and_rerun_warm(self, tmp_path):
        settings = DiscoverySettings(rounds=1, per_round=2, scale=800, seed=5)
        store = ResultStore(tmp_path)
        space = default_space(["gzip", "ammp"])
        cold = run_discovery(settings, store=store, space=space)
        assert cold.witnesses == []
        assert cold.context.simulations() > 0
        warm = run_discovery(settings, store=ResultStore(tmp_path),
                             space=space)
        assert warm.witnesses == []
        assert warm.context.simulations() == 0
        assert warm.payload() == cold.payload()


class TestCli:
    def test_list_oracles(self, capsys):
        assert main(["--list-oracles"]) == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    def test_conflicting_cache_flags_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--no-cache", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_inject_rejected(self, clean_faults):
        with pytest.raises(SystemExit) as exc:
            main(["--no-cache", "--inject", "bogus-fault"])
        assert exc.value.code == 2
        assert faults.active_faults() == ()

    def test_unknown_oracle_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--no-cache", "--oracles", "bogus"])
        assert exc.value.code == 2

    def test_degenerate_scale_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--no-cache", "--scale", "100"])
        assert exc.value.code == 2

    def test_cli_run_writes_artifact_and_restores_fault_state(
        self, tmp_path, capsys, clean_faults
    ):
        code = main([
            "--rounds", "1", "--per-round", "1", "--scale", "600",
            "--seed", "5", "--oracles", "scheme_invariants",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
            "--inject", FAULT,
        ])
        out = capsys.readouterr().out
        # The fault only breaks kernel equivalence; invariants stay
        # green, so this is a clean exit — and the armed fault must not
        # leak out of main().
        assert code == 0
        assert faults.active_faults() == ()
        assert f"armed fault(s): {FAULT}" in out
        assert "simulated" in out
        payload = json.loads(
            (tmp_path / "out" / "findings.json").read_text(encoding="utf-8")
        )
        assert payload["subsystem"] == "repro.discover"
        assert payload["findings"] == []
        assert payload["settings"]["oracles"] == ["scheme_invariants"]
