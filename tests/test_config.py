"""Unit tests for the configuration objects (Table 1)."""

import dataclasses
import json
import pickle

import pytest

from repro.common import config as config_module
from repro.common.config import (
    BranchPredictorConfig,
    CacheConfig,
    FunctionalUnitConfig,
    IssueSchemeConfig,
    MemoryConfig,
    ProcessorConfig,
    default_config,
    scheme_name,
    stable_fingerprint,
)
from repro.common.errors import ConfigurationError
from repro.experiments import figures
from repro.experiments.campaign import ALL_FIGURES
from repro.experiments.runner import RunScale
from repro.experiments.store import result_key
from repro.sampling.plan import SamplingPlan
from repro.workloads.suites import all_profiles, get_profile


class TestCacheConfig:
    def test_table1_dcache_geometry(self):
        cache = CacheConfig("L1D", 32 * 1024, 4, 32, 2, ports=4)
        cache.validate()
        assert cache.num_sets == 256

    def test_table1_icache_geometry(self):
        cache = CacheConfig("L1I", 64 * 1024, 2, 32, 1)
        cache.validate()
        assert cache.num_sets == 1024

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 32 * 1024, 4, 24, 2).validate()

    def test_rejects_size_not_multiple_of_way_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 10_000, 4, 32, 2).validate()

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 32 * 1024, 4, 32, 0).validate()

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", -1, 4, 32, 2).validate()


class TestMemoryConfig:
    def test_single_chunk_latency(self):
        mem = MemoryConfig()
        assert mem.access_latency(64) == 100

    def test_multi_chunk_latency_matches_table1(self):
        mem = MemoryConfig()
        # Two chunks: first at 100, second 2 cycles later.
        assert mem.access_latency(128) == 102

    def test_partial_chunk_rounds_up(self):
        mem = MemoryConfig()
        assert mem.access_latency(65) == 102

    def test_rejects_zero_bytes(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig().access_latency(0)


class TestBranchPredictorConfig:
    def test_table1_defaults_validate(self):
        BranchPredictorConfig().validate()

    def test_rejects_non_power_of_two_tables(self):
        with pytest.raises(ConfigurationError):
            BranchPredictorConfig(gshare_entries=1000).validate()

    def test_rejects_btb_not_divisible_by_ways(self):
        with pytest.raises(ConfigurationError):
            BranchPredictorConfig(btb_entries=2048, btb_associativity=3).validate()


class TestFunctionalUnitConfig:
    def test_table1_latencies(self):
        fus = FunctionalUnitConfig()
        assert fus.int_mul_latency == 3
        assert fus.int_div_latency == 20
        assert fus.fp_mul_latency == 4
        assert fus.fp_div_latency == 12

    def test_rejects_zero_units(self):
        with pytest.raises(ConfigurationError):
            FunctionalUnitConfig(fp_alu_count=0).validate()

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            FunctionalUnitConfig(fp_alu_latency=0).validate()


class TestIssueSchemeConfig:
    def test_conventional_must_be_single_queue(self):
        with pytest.raises(ConfigurationError):
            IssueSchemeConfig(kind="conventional", int_queues=2).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            IssueSchemeConfig(kind="magic").validate()

    def test_chain_cap_only_for_mixbuff(self):
        with pytest.raises(ConfigurationError):
            IssueSchemeConfig(
                kind="issuefifo", int_queues=8, fp_queues=8, max_chains_per_queue=8
            ).validate()

    def test_distributed_needs_multiple_queues(self):
        with pytest.raises(ConfigurationError):
            IssueSchemeConfig(kind="conventional", distributed_fus=True).validate()

    def test_mixbuff_chain_cap_accepted(self):
        IssueSchemeConfig(
            kind="mixbuff", int_queues=8, fp_queues=8, max_chains_per_queue=8
        ).validate()


class TestSchemeName:
    def test_paper_naming_convention(self):
        cfg = IssueSchemeConfig(
            kind="issuefifo",
            int_queues=8,
            int_queue_entries=8,
            fp_queues=16,
            fp_queue_entries=16,
        )
        assert scheme_name(cfg) == "IssueFIFO_8x8_16x16"

    def test_distributed_suffix(self):
        cfg = IssueSchemeConfig(
            kind="mixbuff",
            int_queues=8,
            int_queue_entries=8,
            fp_queues=8,
            fp_queue_entries=16,
            distributed_fus=True,
        )
        assert scheme_name(cfg) == "MixBUFF_8x8_8x16_distr"

    def test_baseline_names(self):
        assert scheme_name(IssueSchemeConfig(kind="conventional", unbounded=True)) == "IQ_unbounded"
        assert scheme_name(IssueSchemeConfig(kind="conventional")) == "IQ_64_64"


class TestProcessorConfig:
    def test_table1_defaults(self):
        cfg = default_config()
        assert cfg.fetch_width == 8
        assert cfg.rob_entries == 256
        assert cfg.int_phys_regs == 160
        assert cfg.fp_phys_regs == 160
        assert cfg.fetch_queue_entries == 64
        assert cfg.technology_um == pytest.approx(0.10)

    def test_with_scheme_replaces_only_scheme(self):
        scheme = IssueSchemeConfig(kind="issuefifo", int_queues=8, fp_queues=8)
        cfg = default_config().with_scheme(scheme)
        assert cfg.scheme is scheme
        assert cfg.rob_entries == 256

    def test_rejects_too_few_physical_registers(self):
        cfg = dataclasses.replace(ProcessorConfig(), int_phys_regs=32)
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_rejects_tiny_fetch_queue(self):
        cfg = dataclasses.replace(ProcessorConfig(), fetch_queue_entries=4)
        with pytest.raises(ConfigurationError):
            cfg.validate()


def reference_fingerprint(obj) -> str:
    """The uncached rendering every stored result key was built from."""
    payload = {"__type__": type(obj).__name__, **dataclasses.asdict(obj)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def bumped(obj):
    """A copy of ``obj`` with its first integer field raised by one."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if type(value) is int:
            return dataclasses.replace(obj, **{f.name: value + 1})
    raise AssertionError(f"{type(obj).__name__} has no integer field")


def _key_inputs():
    schemes = list(dict.fromkeys(s for __, s in figures.required_runs(ALL_FIGURES)))
    objects = [*schemes, *(default_config(s) for s in schemes), default_config()]
    return objects + all_profiles() + [RunScale(), SamplingPlan()]


class TestFingerprintKeyBytes:
    """A cached fingerprint is byte-for-byte the uncached rendering."""

    @pytest.mark.parametrize(
        "obj", _key_inputs(), ids=lambda o: type(o).__name__
    )
    def test_cached_rendering_is_the_reference(self, obj):
        fresh = dataclasses.replace(obj)  # a new instance, nothing cached
        expected = reference_fingerprint(obj)
        assert stable_fingerprint(fresh) == expected
        assert stable_fingerprint(fresh) == expected
        assert stable_fingerprint(obj) == expected
        changed = bumped(fresh)
        assert stable_fingerprint(changed) == reference_fingerprint(changed)
        assert stable_fingerprint(changed) != expected
        restored = pickle.loads(pickle.dumps(fresh))
        assert stable_fingerprint(restored) == expected
        assert stable_fingerprint(pickle.loads(pickle.dumps(obj))) == expected

    def test_the_campaign_needs_28_table1_configs(self):
        schemes = {stable_fingerprint(s) for __, s in figures.required_runs(ALL_FIGURES)}
        assert len(schemes) == 28

    def test_mutable_dataclass_is_rendered_afresh(self):
        @dataclasses.dataclass
        class Knobs:
            size: int = 1

        knobs = Knobs()
        assert stable_fingerprint(knobs) == reference_fingerprint(knobs)
        knobs.size = 2
        assert stable_fingerprint(knobs) == '{"__type__":"Knobs","size":2}'
        assert "_stable_fingerprint" not in vars(knobs)

    def test_slotted_dataclass_is_rendered_without_a_cache(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Packed:
            size: int = 1

        packed = Packed()
        for __ in range(2):
            assert stable_fingerprint(packed) == '{"__type__":"Packed","size":1}'

    def test_non_dataclass_is_rejected(self):
        with pytest.raises(TypeError):
            stable_fingerprint({"size": 1})


class TestDefaultConfigMemo:
    def test_one_shared_config_per_scheme(self):
        for __, scheme in figures.required_runs([2, 7]):
            assert default_config(scheme) is default_config(scheme)
            assert default_config(dataclasses.replace(scheme)) is default_config(scheme)
        assert default_config() is default_config()

    @pytest.mark.parametrize(
        "field_name, plain, lookalike",
        [("int_queues", 8, 8.0), ("distributed_fus", True, 1)],
    )
    @pytest.mark.parametrize("lookalike_first", [False, True])
    def test_equal_schemes_that_render_differently_keep_their_keys(
        self, monkeypatch, field_name, plain, lookalike, lookalike_first
    ):
        monkeypatch.setattr(config_module, "_TABLE1_CONFIGS", {})
        base = dict(kind="issuefifo", int_queues=8, int_queue_entries=8,
                    fp_queues=16, fp_queue_entries=16)
        a = IssueSchemeConfig(**{**base, field_name: plain})
        b = IssueSchemeConfig(**{**base, field_name: lookalike})
        assert a == b and stable_fingerprint(a) != stable_fingerprint(b)
        order = (b, a) if lookalike_first else (a, b)
        # A list, not a dict: the two schemes are one dict key.
        keys = [
            result_key(default_config(scheme), get_profile("gzip"), RunScale())
            for scheme in order
        ]
        assert keys[0] != keys[1]
        for scheme in order:
            assert stable_fingerprint(default_config(scheme).scheme) == (
                stable_fingerprint(scheme)
            )

    def test_invalid_scheme_is_never_stored(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(config_module, "_TABLE1_CONFIGS", memo)
        bad = IssueSchemeConfig(kind="conventional", int_queues=2)
        for __ in range(2):
            with pytest.raises(ConfigurationError):
                default_config(bad)
        assert memo == {}
