"""Tests for the campaign server (`repro.serve`).

The asyncio pieces run under ``asyncio.run`` inside plain test
functions (no async test plugin in the container). Scales are kept
small so the whole module stays in the seconds range.
"""

import asyncio
import json
import threading

import pytest

from repro.common.config import stable_fingerprint
from repro.common.errors import ConfigurationError
from repro.experiments import IF_DISTR, IQ_64_64
from repro.experiments.runner import ExperimentRunner, RunScale
from repro.experiments.store import ResultStore
from repro.serve import (
    PROVENANCE_COALESCED,
    PROVENANCE_SIMULATED,
    PROVENANCE_STORE,
    CoalescingScheduler,
    JobError,
    ScheduledRunner,
    SchedulerShutdown,
    ServeApp,
    WorkUnit,
)

SCALE = RunScale(num_instructions=1200, warmup_instructions=600, seed=7)
#: Two scales other than SCALE: one unit at each holds both batch slots.
HOLD_SCALES = (RunScale(1000, 500, 7), RunScale(1100, 550, 7))


def run(coro):
    return asyncio.run(coro)


async def _with_scheduler(store, body):
    scheduler = CoalescingScheduler(store)
    await scheduler.start()
    try:
        return await body(scheduler)
    finally:
        await scheduler.close()


async def _until(predicate, timeout=30.0):
    """Poll the loop until ``predicate()`` holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached before the timeout")
        await asyncio.sleep(0.01)


class _Gate:
    """Holds ``ExperimentRunner.run_many`` calls until released.

    ``calls`` lists the pairs each held call received, in arrival order;
    ``set()`` opens the gate for good, ``release_one()`` lets one held
    call through.
    """

    def __init__(self):
        self.calls = []
        self._cond = threading.Condition()
        self._open = False
        self._passes = 0

    def set(self):
        with self._cond:
            self._open = True
            self._cond.notify_all()

    def release_one(self):
        with self._cond:
            self._passes += 1
            self._cond.notify_all()

    def hold(self, pairs):
        with self._cond:
            self.calls.append(list(pairs))
            self._cond.wait_for(lambda: self._open or self._passes, timeout=60)
            if not self._open and self._passes:
                self._passes -= 1


@pytest.fixture
def gate(monkeypatch):
    """Hold every ``ExperimentRunner.run_many`` until the gate lets it go."""
    held_calls = _Gate()
    run_many = ExperimentRunner.run_many

    def held(self, pairs, workers=None):
        held_calls.hold(pairs)
        return run_many(self, pairs, workers)

    monkeypatch.setattr(ExperimentRunner, "run_many", held)
    yield held_calls
    held_calls.set()


class TestCoalescingScheduler:
    def test_n_identical_requests_one_simulation(self, tmp_path):
        store = ResultStore(tmp_path)
        unit = WorkUnit("gzip", IQ_64_64, SCALE)

        async def body(scheduler):
            waves = await asyncio.gather(
                *[scheduler.resolve([unit]) for __ in range(6)]
            )
            return [wave[0] for wave in waves]

        outcomes = run(_with_scheduler(store, body))
        provenances = sorted(outcome.provenance for outcome in outcomes)
        assert provenances == [PROVENANCE_COALESCED] * 5 + [PROVENANCE_SIMULATED]
        payloads = {
            json.dumps(outcome.stats.to_dict(), sort_keys=True)
            for outcome in outcomes
        }
        assert len(payloads) == 1  # byte-identical answers for every asker

    def test_counters_track_the_dedup(self, tmp_path):
        store = ResultStore(tmp_path)
        unit = WorkUnit("gzip", IQ_64_64, SCALE)

        async def body(scheduler):
            await asyncio.gather(*[scheduler.resolve([unit]) for __ in range(4)])
            return scheduler.stats_payload()

        stats = run(_with_scheduler(store, body))
        assert stats["units"] == 4
        assert stats["simulated"] == 1
        assert stats["coalesced"] == 3
        assert stats["batches"] == 1
        assert stats["in_flight"] == 0 and stats["pending"] == 0

    def test_warm_restart_simulates_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        unit = WorkUnit("gzip", IQ_64_64, SCALE)
        run(_with_scheduler(store, lambda s: s.resolve([unit])))

        async def warm_body(scheduler):
            outcomes = await scheduler.resolve([unit, unit])
            return outcomes, scheduler.stats_payload()

        outcomes, stats = run(_with_scheduler(ResultStore(tmp_path), warm_body))
        assert [o.provenance for o in outcomes] == [PROVENANCE_STORE] * 2
        assert stats["simulated"] == 0 and stats["hits"] == 2

    def test_distinct_units_fold_into_one_batch(self, tmp_path):
        store = ResultStore(tmp_path)
        units = [
            WorkUnit("gzip", IQ_64_64, SCALE),
            WorkUnit("gzip", IF_DISTR, SCALE),
            WorkUnit("mcf", IQ_64_64, SCALE),
        ]

        async def body(scheduler):
            outcomes = await scheduler.resolve(units)
            return outcomes, scheduler.stats_payload()

        outcomes, stats = run(_with_scheduler(store, body))
        assert all(o.provenance == PROVENANCE_SIMULATED for o in outcomes)
        assert stats["simulated"] == 3
        assert stats["batches"] == 1  # same batch signature, one run_many

    def test_a_miss_launches_its_batch_at_once(self, tmp_path):
        async def body(scheduler):
            waiter = asyncio.ensure_future(
                scheduler.resolve([WorkUnit("gzip", IQ_64_64, SCALE)])
            )
            await asyncio.sleep(0)
            launched = (scheduler.in_flight_batches, scheduler.pending)
            await waiter
            return launched

        assert run(_with_scheduler(ResultStore(tmp_path), body)) == (1, 0)

    def test_units_waiting_for_a_slot_run_as_one_batch(self, tmp_path, gate):
        units = [
            WorkUnit("gzip", IQ_64_64, SCALE),
            WorkUnit("gzip", IF_DISTR, SCALE),
            WorkUnit("mcf", IQ_64_64, SCALE),
        ]

        async def body(scheduler):
            holders = [
                asyncio.ensure_future(
                    scheduler.resolve([WorkUnit("gzip", IQ_64_64, scale)])
                )
                for scale in HOLD_SCALES
            ]
            await asyncio.sleep(0)
            assert scheduler.in_flight_batches == 2
            waiters = [
                asyncio.ensure_future(scheduler.resolve([unit]))
                for unit in units
            ]
            await asyncio.sleep(0)
            assert scheduler.pending == 3
            gate.set()
            await asyncio.gather(*holders)
            outcomes = [(await waiter)[0] for waiter in waiters]
            return outcomes, scheduler.stats_payload()

        outcomes, stats = run(_with_scheduler(ResultStore(tmp_path), body))
        assert [o.provenance for o in outcomes] == [PROVENANCE_SIMULATED] * 3
        # One run_many per held unit, then one for all three waiters.
        assert sorted(len(pairs) for pairs in gate.calls) == [1, 1, 3]
        assert stats["batches"] == 3 and stats["simulated"] == 5
        assert stats["pending"] == 0 and stats["in_flight_batches"] == 0

    def test_a_freed_slot_takes_the_longest_waiting_signature(
        self, tmp_path, gate
    ):
        # Queue a unit at the higher-sorting signature first: a freed
        # slot must take it, not the lower-sorting one queued after it.
        low, high = sorted(
            (RunScale(900, 450, 7), RunScale(800, 400, 7)),
            key=lambda scale: WorkUnit("gzip", IQ_64_64, scale).batch_signature(),
        )

        async def body(scheduler):
            holders = [
                asyncio.ensure_future(
                    scheduler.resolve([WorkUnit("gzip", IQ_64_64, scale)])
                )
                for scale in HOLD_SCALES
            ]
            await asyncio.sleep(0)
            first = asyncio.ensure_future(
                scheduler.resolve([WorkUnit("gzip", IF_DISTR, high)])
            )
            await asyncio.sleep(0)
            second = asyncio.ensure_future(
                scheduler.resolve([WorkUnit("mcf", IQ_64_64, low)])
            )
            await asyncio.sleep(0)
            assert scheduler.in_flight_batches == 2 and scheduler.pending == 2
            gate.release_one()
            await _until(lambda: len(gate.calls) == 3)
            launched, waiting = gate.calls[2], scheduler.pending
            gate.set()
            await asyncio.gather(*holders, first, second)
            return launched, waiting

        launched, waiting = run(_with_scheduler(ResultStore(tmp_path), body))
        assert launched == [("gzip", IF_DISTR)]
        assert waiting == 1

    def test_close_fails_pending_with_shutdown(self, tmp_path, gate):
        store = ResultStore(tmp_path)

        async def body():
            scheduler = CoalescingScheduler(store)
            await scheduler.start()
            held = [
                asyncio.ensure_future(
                    scheduler.resolve([WorkUnit("gzip", IQ_64_64, scale)])
                )
                for scale in HOLD_SCALES
            ]
            waiter = asyncio.ensure_future(
                scheduler.resolve([WorkUnit("gzip", IQ_64_64, SCALE)])
            )
            await asyncio.sleep(0)
            assert scheduler.in_flight_batches == 2 and scheduler.pending == 1
            closing = asyncio.ensure_future(scheduler.close())
            with pytest.raises(SchedulerShutdown):
                await waiter
            gate.set()
            await closing
            # The running batches drained: their waiters got real results.
            drained = await asyncio.gather(*held)
            return [outcomes[0].provenance for outcomes in drained]

        assert run(body()) == [PROVENANCE_SIMULATED] * 2


class TestScheduledRunner:
    def test_matches_direct_runner_and_coalesces(self, tmp_path):
        direct_store = ResultStore(tmp_path / "direct")
        direct = ExperimentRunner(SCALE, store=direct_store)
        expected = direct.run("gzip", IQ_64_64)

        store = ResultStore(tmp_path / "served")
        seen = []

        async def body(scheduler):
            runner = ScheduledRunner(
                scheduler, scale=SCALE, on_outcome=seen.append
            )
            loop = asyncio.get_running_loop()
            stats = await loop.run_in_executor(
                None, runner.run, "gzip", IQ_64_64
            )
            return stats, scheduler.stats_payload()

        stats, sched_stats = run(_with_scheduler(store, body))
        assert stats == expected  # same simulator, same bits
        assert sched_stats["simulated"] == 1
        assert [o.provenance for o in seen] == [PROVENANCE_SIMULATED]

    def test_exploration_accepts_scheduled_runner(self, tmp_path):
        from repro.explore.drivers import ExplorationSettings, run_exploration

        settings = ExplorationSettings(
            samples=3, rounds=1, seed=7, benchmarks=("gzip",),
            num_instructions=800, workers=0,
        )
        store = ResultStore(tmp_path)

        async def body(scheduler):
            runner = ScheduledRunner(scheduler, scale=settings.scale())
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                None, lambda: run_exploration(settings, runner=runner)
            )
            return result, scheduler.stats_payload()

        result, stats = run(_with_scheduler(store, body))
        assert result.scores and result.frontier
        assert stats["simulated"] > 0
        # The runner itself never simulated: every miss went through the
        # scheduler, then came back as a disk hit.
        assert result.cache_stats["simulations"] == 0
        assert result.cache_stats["disk_hits"] == stats["simulated"]

    def test_exploration_rejects_mismatched_runner(self, tmp_path):
        from repro.explore.drivers import ExplorationSettings, run_exploration

        settings = ExplorationSettings(samples=2, rounds=1,
                                       num_instructions=800)
        wrong_scale = RunScale(num_instructions=999, warmup_instructions=400,
                               seed=settings.seed)
        runner = ExperimentRunner(wrong_scale, store=ResultStore(tmp_path))
        with pytest.raises(ConfigurationError):
            run_exploration(settings, runner=runner)
        with pytest.raises(ConfigurationError):
            run_exploration(settings, store=ResultStore(tmp_path),
                            runner=runner)


async def _post_json(port, path, payload):
    return await _request(port, "POST", path, payload)


async def _request(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, __, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    if b"Transfer-Encoding: chunked" in head:
        rest = _dechunk(rest)
    return status, rest


def _dechunk(blob):
    out = b""
    while blob:
        size, __, blob = blob.partition(b"\r\n")
        length = int(size, 16)
        if length == 0:
            break
        out += blob[:length]
        blob = blob[length + 2:]
    return out


async def _await_job(port, job_id, timeout=60.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status, body = await _request(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        summary = json.loads(body)
        if summary["state"] in ("done", "failed"):
            return summary
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"job {job_id} stuck in {summary['state']}")
        await asyncio.sleep(0.05)


SIM_SPEC = {
    "type": "simulation", "benchmark": "gzip", "scheme": "IQ_64_64",
    "scale": 1200, "seed": 7,
}


class TestHttpService:
    def test_duplicate_jobs_share_one_simulation(self, tmp_path, gate):
        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                posts = await asyncio.gather(
                    *[_post_json(port, "/v1/jobs", SIM_SPEC) for __ in range(3)]
                )
                assert [status for status, __ in posts] == [202] * 3
                ids = [json.loads(body)["job"] for __, body in posts]
                # The simulation runs only once both duplicates rode on it.
                await _until(lambda: app.scheduler.counters.coalesced == 2)
                gate.set()
                summaries = [await _await_job(port, job_id) for job_id in ids]
                assert [s["state"] for s in summaries] == ["done"] * 3
                merged = {}
                for summary in summaries:
                    for name, count in summary["provenance"].items():
                        merged[name] = merged.get(name, 0) + count
                assert merged == {PROVENANCE_SIMULATED: 1,
                                  PROVENANCE_COALESCED: 2}
                artifacts = {
                    (await _request(port, "GET",
                                    f"/v1/jobs/{job_id}/artifact"))[1]
                    for job_id in ids
                }
                assert len(artifacts) == 1  # byte-identical artifacts
                status, body = await _request(port, "GET", "/v1/stats")
                stats = json.loads(body)
                assert stats["scheduler"]["simulated"] == 1
                assert stats["store"] == {"root": str(tmp_path), "results": 1}
            finally:
                await app.shutdown()

        run(body())

    def test_warm_restart_server_simulates_nothing(self, tmp_path):
        async def cold():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                __, body = await _post_json(port, "/v1/jobs", SIM_SPEC)
                summary = await _await_job(port, json.loads(body)["job"])
                return summary["result"]
            finally:
                await app.shutdown()

        async def warm():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                __, body = await _post_json(port, "/v1/jobs", SIM_SPEC)
                summary = await _await_job(port, json.loads(body)["job"])
                status, body = await _request(port, "GET", "/v1/stats")
                return summary, json.loads(body)
            finally:
                await app.shutdown()

        cold_result = run(cold())
        summary, stats = run(warm())
        assert summary["state"] == "done"
        assert summary["provenance"] == {PROVENANCE_STORE: 1}
        # Same key, same numbers; only the provenance annotation differs
        # (the status payload says *how* the answer was obtained).
        warm_result = dict(summary["result"])
        assert warm_result.pop("provenance") == PROVENANCE_STORE
        cold_sans = dict(cold_result)
        assert cold_sans.pop("provenance") == PROVENANCE_SIMULATED
        assert warm_result == cold_sans
        assert stats["scheduler"]["simulated"] == 0
        assert stats["scheduler"]["hits"] == 1

    def test_cli_runner_reads_what_the_server_wrote(self, tmp_path):
        async def serve_one():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                __, body = await _post_json(port, "/v1/jobs", SIM_SPEC)
                summary = await _await_job(port, json.loads(body)["job"])
                __, body = await _request(port, "GET", "/v1/stats")
                return summary, json.loads(body)
            finally:
                await app.shutdown()

        summary, stats = run(serve_one())
        assert summary["provenance"] == {PROVENANCE_SIMULATED: 1}
        assert stats["store"]["results"] == 1
        # The CLIs' runner over a fresh store on the same root: one
        # layout, so the served result is a disk hit.
        runner = ExperimentRunner(SCALE, store=ResultStore(tmp_path))
        runner.run("gzip", IQ_64_64)
        assert runner.cache_stats() == {
            "memory_hits": 0, "disk_hits": 1, "simulations": 0,
        }
        assert not list(tmp_path.glob("shard-*"))

    def test_a_warm_job_reads_its_result_once(self, tmp_path, monkeypatch):
        # The scheduler's probe is the one read of a warm plain result;
        # only a sampled job re-reads its entry, for the estimate record.
        reads = []
        load_with_extra = ResultStore.load_with_extra

        def counted(self, key):
            reads.append(key)
            return load_with_extra(self, key)

        monkeypatch.setattr(ResultStore, "load_with_extra", counted)
        sampled_spec = dict(SIM_SPEC, sampling="slices=2,slice=100,warmup=50")

        async def job_result(port, spec):
            __, posted = await _post_json(port, "/v1/jobs", spec)
            summary = await _await_job(port, json.loads(posted)["job"])
            assert summary["state"] == "done"
            __, artifact = await _request(
                port, "GET", f"/v1/jobs/{summary['id']}/artifact"
            )
            return json.loads(artifact)

        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                await job_result(port, SIM_SPEC)
                del reads[:]
                warm = await job_result(port, SIM_SPEC)
                warm_reads = len(reads)
                sampled = await job_result(port, sampled_spec)
                return warm, warm_reads, sampled
            finally:
                await app.shutdown()

        warm, warm_reads, sampled = run(body())
        assert warm_reads == 1
        assert "sampled" not in warm
        assert sampled["sampled"]["plan"]["num_slices"] == 2

    def test_events_stream_carries_lifecycle_and_provenance(self, tmp_path):
        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                __, posted = await _post_json(port, "/v1/jobs", SIM_SPEC)
                job_id = json.loads(posted)["job"]
                await _await_job(port, job_id)
                status, body = await _request(
                    port, "GET", f"/v1/jobs/{job_id}/events"
                )
                assert status == 200
                events = [json.loads(line)
                          for line in body.decode().splitlines()]
                names = [event["event"] for event in events]
                assert names == ["queued", "running", "batched",
                                 "simulating", "unit", "done"]
                unit_event = events[names.index("unit")]
                assert unit_event["provenance"] == PROVENANCE_SIMULATED
                assert unit_event["benchmark"] == "gzip"
                assert [event["seq"] for event in events] == list(range(6))
            finally:
                await app.shutdown()

        run(body())

    def test_figures_artifact_matches_cli_export(self, tmp_path):
        from repro.experiments.campaign import export_campaign

        scale = RunScale(num_instructions=1200, warmup_instructions=600,
                         seed=7)

        async def body():
            app = ServeApp(ResultStore(tmp_path / "served"))
            port = await app.start("127.0.0.1", 0)
            try:
                spec = {"type": "figures", "figures": [2], "scale": 1200,
                        "seed": 7, "format": "json"}
                __, posted = await _post_json(port, "/v1/jobs", spec)
                summary = await _await_job(
                    port, json.loads(posted)["job"], timeout=300.0
                )
                assert summary["state"] == "done"
                status, artifact = await _request(
                    port, "GET",
                    f"/v1/jobs/{summary['id']}/artifact?name=campaign.json",
                )
                assert status == 200
                return artifact
            finally:
                await app.shutdown()

        served = run(body())
        runner = ExperimentRunner(scale, store=ResultStore(tmp_path / "cli"))
        cli_path = tmp_path / "campaign.json"
        export_campaign(runner, [2], "json", cli_path)
        assert served == cli_path.read_bytes()

    def test_version_endpoint_matches_campaign_flag(self, tmp_path, capsys):
        from repro.experiments.campaign import main as campaign_main

        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                return await _request(port, "GET", "/v1/version")
            finally:
                await app.shutdown()

        status, served = run(body())
        assert status == 200
        campaign_main(["--version-tag"])
        printed = capsys.readouterr().out
        assert json.loads(served) == json.loads(printed)
        payload = json.loads(served)
        assert set(payload) == {"simulator_version_tag",
                                "sampling_version_tag", "kernels"}

    def test_bad_requests_get_400s_not_crashes(self, tmp_path):
        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                explore = {"type": "exploration", "samples": 2,
                           "rounds": 0, "scale": 1000}
                cases = [
                    {"type": "bogus"},
                    {"type": "simulation", "benchmark": "nope",
                     "scheme": "IQ_64_64"},
                    {"type": "simulation", "benchmark": "gzip",
                     "scheme": "nope"},
                    {"type": "figures", "figures": [999]},
                    {"type": "simulation", "benchmark": "gzip",
                     "scheme": "IQ_64_64", "surprise": 1},
                    ["not", "an", "object"],
                    dict(explore, strategy="bogus"),
                ] + [
                    # Exploration values are checked, never coerced.
                    dict(explore, **bad)
                    for bad in (
                        {"samples": 2.5},
                        {"samples": True},
                        {"rounds": 0.5},
                        {"neighbors": 1.5},
                        {"frontier_budget": 2.5},
                        {"aggregate": "no"},
                        {"epsilon": "nan"},
                        {"epsilon": True},
                        {"benchmarks": [1, 2]},
                    )
                ]
                statuses = [
                    (await _post_json(port, "/v1/jobs", case))[0]
                    for case in cases
                ]
                missing = await _request(port, "GET", "/v1/jobs/none")
                bad_path = await _request(port, "GET", "/v1/nope")
                return statuses, missing[0], bad_path[0], len(app.jobs.jobs)
            finally:
                await app.shutdown()

        statuses, missing, bad_path, jobs = run(body())
        assert statuses == [400] * 16
        assert missing == 404 and bad_path == 404
        assert jobs == 0

    @pytest.mark.parametrize("spec", [
        dict(SIM_SPEC, scale=1000),
        {"type": "figures", "figures": [2], "scale": 1000},
    ], ids=["simulation", "figures"])
    def test_sampling_plan_too_big_for_the_scale_is_a_400(self, tmp_path, spec):
        spec = dict(spec, sampling="slices=10,slice=500,warmup=300")

        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                status, payload = await _post_json(port, "/v1/jobs", spec)
                queued = len(app.jobs.jobs), app.scheduler.counters.units
                return status, payload, queued
            finally:
                await app.shutdown()

        status, payload, queued = run(body())
        assert status == 400
        assert b"the measured region holds only 500" in payload
        assert queued == (0, 0)  # no job, no unit

    def test_negative_content_length_is_a_400(self, tmp_path):
        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: -1\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                return raw, len(app.jobs.jobs)
            finally:
                await app.shutdown()

        raw, jobs = run(body())
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"bad Content-Length" in raw
        assert jobs == 0


class TestGracefulShutdown:
    def test_queued_jobs_fail_cleanly_and_tmp_swept(self, tmp_path, gate):
        async def body():
            store = ResultStore(tmp_path)
            app = ServeApp(store)
            port = await app.start("127.0.0.1", 0)
            # Two jobs at other scales hold both batch slots, so the
            # third job's unit stays queued.
            held = []
            for scale in HOLD_SCALES:
                spec = dict(SIM_SPEC, scale=scale.num_instructions)
                __, posted = await _post_json(port, "/v1/jobs", spec)
                held.append(json.loads(posted)["job"])
            await _until(lambda: app.scheduler.in_flight_batches == 2)
            __, posted = await _post_json(port, "/v1/jobs", SIM_SPEC)
            job_id = json.loads(posted)["job"]
            await _until(lambda: app.scheduler.pending == 1)
            orphan = tmp_path / "ab" / "leftover.tmp"
            orphan.parent.mkdir(parents=True, exist_ok=True)
            orphan.write_text("crashed writer")
            shutdown = asyncio.ensure_future(app.shutdown())
            job = app.jobs.jobs[job_id]
            await _until(lambda: job.terminal)
            gate.set()
            await shutdown
            assert job.state == "failed"
            assert "shutting down" in job.error
            # The held jobs' batches drained.
            assert [app.jobs.jobs[i].state for i in held] == ["done", "done"]
            assert not orphan.exists()  # swept regardless of age
            with pytest.raises(SchedulerShutdown):
                app.jobs.submit(SIM_SPEC)

        run(body())

    def test_post_after_shutdown_is_503(self, tmp_path):
        async def body():
            app = ServeApp(ResultStore(tmp_path))
            await app.start("127.0.0.1", 0)
            await app.shutdown()
            # Listener is closed; job submission through the service
            # object reports shutdown rather than accepting silently.
            with pytest.raises(SchedulerShutdown):
                app.jobs.submit(SIM_SPEC)

        run(body())


class TestParallelDrain:
    """The interrupt-drain path of the multiprocessing campaign fan-out."""

    class _FakeResult:
        def __init__(self, payloads=None, interrupt=False):
            self._payloads = payloads
            self._interrupt = interrupt
            self.waits = 0

        def ready(self):
            if self._interrupt:
                return False
            return self.waits > 0

        def wait(self, timeout):
            self.waits += 1
            if self._interrupt:
                raise KeyboardInterrupt

        def get(self):
            return self._payloads

    class _FakePool:
        def __init__(self):
            self.terminated = False
            self.joined = False

        def terminate(self):
            self.terminated = True

        def join(self):
            self.joined = True

    def test_normal_drain_returns_payloads(self):
        from repro.experiments.parallel import _drain_pool

        result = self._FakeResult(payloads=["a", "b"])
        assert _drain_pool(self._FakePool(), result, None) == ["a", "b"]

    def test_interrupt_terminates_pool_and_sweeps(self, tmp_path):
        from repro.experiments.parallel import _drain_pool

        orphan = tmp_path / "spill.tmp"
        orphan.write_text("torn trace spill")
        pool = self._FakePool()
        with pytest.raises(KeyboardInterrupt):
            _drain_pool(pool, self._FakeResult(interrupt=True), str(tmp_path))
        assert pool.terminated and pool.joined
        assert not orphan.exists()  # swept regardless of age

    def test_workers_are_initialized_to_ignore_sigint(self):
        import signal

        from repro.experiments.parallel import _init_worker

        previous = signal.getsignal(signal.SIGINT)
        previous_term = signal.getsignal(signal.SIGTERM)
        try:
            _init_worker()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, previous)
            signal.signal(signal.SIGTERM, previous_term)

    def test_workers_drop_an_inherited_sigterm_handler_and_wakeup_fd(self):
        # A worker forked from the server inherits its loop's SIGTERM
        # handler and wakeup fd; Pool.terminate's SIGTERM must kill the
        # worker rather than reach that handler.
        import signal
        import socket

        from repro.experiments.parallel import _init_worker

        previous = {
            sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)
        }
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        signal.signal(signal.SIGTERM, lambda *args: None)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        try:
            _init_worker()
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            assert signal.set_wakeup_fd(-1) == -1
        finally:
            signal.set_wakeup_fd(previous_fd)
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            reader.close()
            writer.close()


class TestJobValidation:
    def test_specs_validate_without_running(self, tmp_path):
        async def body():
            app = ServeApp(ResultStore(tmp_path))
            await app.scheduler.start()
            try:
                for bad in (
                    None,
                    {},
                    {"type": "simulation"},
                    {"type": "simulation", "benchmark": "gzip",
                     "scheme": "IQ_64_64", "scale": True},
                    {"type": "simulation", "benchmark": "gzip",
                     "scheme": "IQ_64_64", "kernel": "nope"},
                    {"type": "figures", "figures": []},
                    {"type": "figures", "figures": [2], "format": "xml"},
                    {"type": "exploration", "samples": 0},
                    {"type": "simulation", "benchmark": "gzip",
                     "scheme": "IQ_64_64", "sampling": "bogus=1"},
                ):
                    with pytest.raises(JobError):
                        app.jobs.parse(bad)
            finally:
                await app.scheduler.close()

        run(body())

    def test_exploration_values_pass_through_unconverted(self, tmp_path):
        # Valid JSON values reach ExplorationSettings as sent: a bool
        # stays a bool, an integer epsilon a number, a name list a tuple.
        async def body():
            app = ServeApp(ResultStore(tmp_path))
            await app.scheduler.start()
            try:
                return app.jobs.parse({
                    "type": "exploration", "samples": 3, "rounds": 0,
                    "scale": 1200, "benchmarks": ["gzip", "mcf"],
                    "aggregate": True, "epsilon": 1, "frontier_budget": 4,
                })["settings"]
            finally:
                await app.scheduler.close()

        settings = run(body())
        assert settings.benchmarks == ("gzip", "mcf")
        assert settings.aggregate is True
        assert (settings.samples, settings.rounds, settings.frontier_budget) == (
            3, 0, 4
        )
        assert settings.as_dict()["epsilon"] == 1.0

    def test_batch_signature_separates_incompatible_units(self):
        base = WorkUnit("gzip", IQ_64_64, SCALE)
        same = WorkUnit("mcf", IF_DISTR, SCALE)
        other_scale = WorkUnit(
            "gzip", IQ_64_64,
            RunScale(num_instructions=2400, warmup_instructions=600, seed=7),
        )
        other_kernel = WorkUnit("gzip", IQ_64_64, SCALE, kernel="naive")
        assert base.batch_signature() == same.batch_signature()
        assert base.batch_signature() != other_scale.batch_signature()
        assert base.batch_signature() != other_kernel.batch_signature()

    def test_a_missing_kernel_and_skip_fold_into_one_batch(self):
        unit = WorkUnit("gzip", IQ_64_64, RunScale(2000, 1000, 7))
        named = WorkUnit("gzip", IQ_64_64, RunScale(2000, 1000, 7), kernel="skip")
        assert unit.key() == named.key()
        assert unit.batch_signature() == named.batch_signature()

    def test_unit_key_is_the_store_key(self):
        from repro.common.config import default_config
        from repro.experiments.store import result_key
        from repro.workloads.suites import get_profile

        unit = WorkUnit("gzip", IQ_64_64, SCALE)
        assert unit.key() == result_key(
            default_config(IQ_64_64), get_profile("gzip"), SCALE
        )
        assert stable_fingerprint(SCALE) == stable_fingerprint(SCALE)
