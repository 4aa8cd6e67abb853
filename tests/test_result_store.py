"""Tests for the content-addressed on-disk result store."""

import dataclasses
import json
import multiprocessing

import pytest

from repro.common.config import IssueSchemeConfig, default_config
from repro.common.stats import SimulationStats, StatCounters
from repro.experiments import IF_DISTR, IQ_64_64
from repro.experiments.runner import RunScale
from repro.experiments.store import (
    SIMULATOR_VERSION_TAG,
    ResultStore,
    atomic_write_json,
    result_key,
)
from repro.explore.artifacts import write_csv, write_json
from repro.workloads.spill import materialize_trace, trace_spill_path
from repro.workloads.suites import get_profile

SCALE = RunScale(num_instructions=1200, warmup_instructions=600, seed=7)


def make_stats() -> SimulationStats:
    events = StatCounters()
    events.add("iq_wakeup", 321)
    events.add("mux_int_alu", 87)
    return SimulationStats(
        cycles=1000,
        committed_instructions=600,
        fetched_instructions=640,
        dispatch_stall_cycles=42,
        branch_predictions=80,
        branch_mispredictions=5,
        events=events,
    )


def key_for(scheme=IQ_64_64, benchmark="gzip", scale=SCALE) -> str:
    return result_key(default_config(scheme), get_profile(benchmark), scale)


class TestStatsRoundTrip:
    def test_to_from_dict_identity(self):
        stats = make_stats()
        clone = SimulationStats.from_dict(stats.to_dict())
        assert clone == stats
        assert clone.to_dict() == stats.to_dict()
        assert clone.events.as_dict() == stats.events.as_dict()

    def test_json_round_trip_is_exact(self):
        stats = make_stats()
        clone = SimulationStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats

    def test_malformed_payload_rejected(self):
        payload = make_stats().to_dict()
        del payload["cycles"]
        with pytest.raises(KeyError):
            SimulationStats.from_dict(payload)
        payload = make_stats().to_dict()
        payload["cycles"] = "1000"
        with pytest.raises(TypeError):
            SimulationStats.from_dict(payload)


class TestStoreRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        stats = make_stats()
        store.save(key_for(), stats)
        assert store.load(key_for()) == stats

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).load(key_for()) is None

    def test_len_counts_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        store.save(key_for(IQ_64_64), make_stats())
        store.save(key_for(IF_DISTR), make_stats())
        assert len(store) == 2

    def test_layout_is_key_prefix_fanout(self, tmp_path):
        path = ResultStore(tmp_path).save(key_for(), make_stats())
        assert path == tmp_path / key_for()[:2] / f"{key_for()}.json"


class TestKeySensitivity:
    def test_identical_inputs_share_a_key(self):
        assert key_for() == key_for()

    def test_every_scheme_field_changes_the_key(self):
        base = IssueSchemeConfig(
            kind="issuefifo", int_queues=8, int_queue_entries=8,
            fp_queues=8, fp_queue_entries=16,
        )
        variants = {
            "kind": "mixbuff",
            "int_queues": 4,
            "int_queue_entries": 16,
            "fp_queues": 4,
            "fp_queue_entries": 8,
            "distributed_fus": True,
        }
        for field_name, value in variants.items():
            changed = dataclasses.replace(base, **{field_name: value})
            assert key_for(changed) != key_for(base), field_name

    def test_every_scale_field_changes_the_key(self):
        for field_name, value in (
            ("num_instructions", 2400),
            ("warmup_instructions", 700),
            ("seed", 8),
        ):
            changed = dataclasses.replace(SCALE, **{field_name: value})
            assert key_for(scale=changed) != key_for(scale=SCALE), field_name

    def test_benchmark_profile_changes_the_key(self):
        assert key_for(benchmark="gzip") != key_for(benchmark="mcf")

    def test_table1_knob_changes_the_key(self):
        config = default_config(IQ_64_64)
        deeper_rob = dataclasses.replace(config, rob_entries=512)
        profile = get_profile("gzip")
        assert result_key(config, profile, SCALE) != result_key(
            deeper_rob, profile, SCALE
        )


class TestCorruptionFallback:
    def test_corrupted_json_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        path.write_text("{ not json", encoding="utf-8")
        assert store.load(key_for()) is None

    def test_truncated_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["stats"]["events"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(key_for()) is None

    def test_non_dict_json_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        path.write_text("null", encoding="utf-8")
        assert store.load(key_for()) is None
        path.write_text('["valid", "json", "wrong", "shape"]', encoding="utf-8")
        assert store.load(key_for()) is None

    def test_events_of_wrong_shape_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["stats"]["events"] = ["not", "a", "mapping"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(key_for()) is None

    def test_version_tag_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == SIMULATOR_VERSION_TAG
        payload["version"] = "abella04-sim-0"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(key_for()) is None

    def test_recompute_overwrites_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        path.write_text("garbage", encoding="utf-8")
        stats = make_stats()
        store.save(key_for(), stats)  # what a runner does after the miss
        assert store.load(key_for()) == stats

    def test_truncated_file_bytes_are_a_miss(self, tmp_path):
        # A crash mid-write of a non-atomic copy (or disk-full tail
        # loss) leaves a prefix of valid JSON: must read as a miss.
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        raw = path.read_bytes()
        for cut in (0, 1, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            assert store.load(key_for()) is None
            assert store.load_with_extra(key_for()) is None

    def test_binary_garbage_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats())
        path.write_bytes(b"\x00\xff\xfe binary \x9c garbage")
        assert store.load(key_for()) is None

    def test_mistyped_stats_fields_are_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        for field, bad in (("cycles", "1000"), ("committed_instructions", 1.5)):
            path = store.save(key_for(), make_stats())
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["stats"][field] = bad
            path.write_text(json.dumps(payload), encoding="utf-8")
            assert store.load(key_for()) is None


class TestSampledPayloads:
    """The sampled-estimate side payload: round trip + damage tolerance."""

    def _sampled_extra(self):
        from repro.sampling import SamplingPlan

        plan = SamplingPlan(num_slices=2, slice_instructions=100,
                            warmup_instructions=50)
        estimate = {"mean": 1.5, "std_error": 0.1, "ci_low": 1.2, "ci_high": 1.8}
        return {
            "plan": plan.as_dict(),
            "estimates": {name: dict(estimate) for name in (
                "ipc", "cpi", "energy_per_inst", "energy_delay", "energy_delay2"
            )},
            "windows": [
                {"detail_start": 0, "measure_start": 50, "detail_end": 150},
                {"detail_start": 250, "measure_start": 300, "detail_end": 400},
            ],
            "slice_ipcs": [1.4, 1.6],
            "total_instructions": 600,
            "detailed_instructions": 300,
            "detailed_cycles": 200,
        }

    def test_extra_round_trips_bit_identically(self, tmp_path):
        store = ResultStore(tmp_path)
        extra = self._sampled_extra()
        store.save(key_for(), make_stats(), extra=extra)
        stats, loaded = store.load_with_extra(key_for())
        assert stats == make_stats()
        assert loaded == extra
        from repro.sampling import SampledStats

        rebuilt = SampledStats.from_dict(loaded, stats)
        assert rebuilt.to_dict() == extra

    def test_plain_results_load_with_none_extra(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(key_for(), make_stats())
        stats, extra = store.load_with_extra(key_for())
        assert stats == make_stats() and extra is None

    def test_non_dict_extra_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats(), extra=self._sampled_extra())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["sampled"] = ["wrong", "shape"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load_with_extra(key_for()) is None
        assert store.load(key_for()) is None

    def test_truncated_sampled_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(key_for(), make_stats(), extra=self._sampled_extra())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])
        assert store.load_with_extra(key_for()) is None


def _hammer_one_key(args):
    """Worker for the concurrent-writer test (module-level to pickle)."""
    root, key, cycles = args
    store = ResultStore(root)
    events = StatCounters()
    events.add("iq_wakeup", 321)
    stats = SimulationStats(
        cycles=cycles,
        committed_instructions=600,
        fetched_instructions=640,
        dispatch_stall_cycles=42,
        branch_predictions=80,
        branch_mispredictions=5,
        events=events,
    )
    for __ in range(20):
        store.save(key, stats)
    return cycles


def _write_spill(root):
    profile = get_profile("gzip")
    materialize_trace(root / "traces", profile, 800, 5)
    return trace_spill_path(root / "traces", profile, 800, 5)


#: Every atomic writer of the tree, by name: each writes under a root
#: directory and returns the path it wrote.
_WRITERS = {
    "atomic_write_json": lambda root: atomic_write_json(root / "x.json", {"a": 1}),
    "explore.write_csv": lambda root: write_csv(root / "x.csv", [{"a": 1}]),
    "explore.write_json": lambda root: write_json(root / "x.json", {"a": 1}),
    "spill.materialize_trace": _write_spill,
}


class TestConcurrentWriters:
    """Many processes saving the same key must never tear a read."""

    def test_parallel_same_key_saves_leave_valid_store(self, tmp_path):
        key = key_for()
        # Every writer stores a *valid* payload (differing only in
        # cycles), so whichever save wins, the survivor must parse.
        jobs = [(str(tmp_path), key, 1000 + i) for i in range(4)]
        with multiprocessing.Pool(processes=4) as pool:
            written = pool.map(_hammer_one_key, jobs)
        assert sorted(written) == [1000, 1001, 1002, 1003]
        store = ResultStore(tmp_path)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.cycles in set(written)
        # No torn temp files left behind by the rename dance.
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_tmp_names_embed_pid(self, tmp_path, monkeypatch, writer):
        # Every atomic writer stages through one pid-prefixed temp file
        # and leaves no temp file behind.
        import os
        import tempfile

        staged = []
        real_mkstemp = tempfile.mkstemp

        def spy(*args, **kwargs):
            fd, name = real_mkstemp(*args, **kwargs)
            staged.append(os.path.basename(name))
            return fd, name

        monkeypatch.setattr(tempfile, "mkstemp", spy)
        written = _WRITERS[writer](tmp_path)
        assert written.exists()
        (name,) = staged
        assert name.startswith(f".{os.getpid()}-")
        assert name.endswith(".tmp")
        assert list(tmp_path.rglob("*.tmp")) == []


class TestStaleTmpSweep:
    """Orphaned atomic-write temp files are reaped at store init."""

    def _orphan(self, directory, name="deadbeef.tmp"):
        import os
        import time

        from repro.experiments.store import STALE_TMP_AGE_SECONDS

        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        path.write_text("half-written")
        stale = time.time() - STALE_TMP_AGE_SECONDS - 60
        os.utime(path, (stale, stale))
        return path

    def test_old_orphans_reaped_live_writes_and_results_kept(self, tmp_path):
        from repro.experiments.store import sweep_stale_tmp

        orphan = self._orphan(tmp_path / "ab")
        nested = self._orphan(tmp_path / "traces", name="spill.tmp")
        fresh = tmp_path / "ab" / "inflight.tmp"
        fresh.write_text("live writer")
        result = tmp_path / "ab" / "result.json"
        result.write_text("{}")
        assert sweep_stale_tmp(tmp_path) == 2
        assert not orphan.exists() and not nested.exists()
        assert fresh.exists() and result.exists()

    def test_result_store_init_sweeps(self, tmp_path):
        orphan = self._orphan(tmp_path / "cd")
        ResultStore(tmp_path)
        assert not orphan.exists()

    def test_checkpoint_store_init_sweeps(self, tmp_path):
        from repro.sampling import CheckpointStore

        orphan = self._orphan(tmp_path / "ef")
        CheckpointStore(tmp_path)
        assert not orphan.exists()

    def test_missing_root_is_a_noop(self, tmp_path):
        from repro.experiments.store import sweep_stale_tmp

        assert sweep_stale_tmp(tmp_path / "never-created") == 0
