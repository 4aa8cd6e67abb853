"""Tests for ``repro.obs``: the deterministic-safe observability layer.

Covers the metrics registry (counters, gauges, fixed-bucket histograms,
Prometheus rendering, snapshot/delta/merge), the span tracer (Chrome
``trace_event`` JSON + NDJSON sidecars), worker-merge across the
multiprocessing pool, the serve-side endpoints, and the headline
guarantee: tracing never changes an artifact byte.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.usefixtures("fresh_registry")


@pytest.fixture
def fresh_registry():
    """Swap in an empty registry and keep tracing off for each test."""
    previous = obs.get_registry()
    obs.set_registry(MetricsRegistry())
    obs.disable()
    try:
        yield
    finally:
        obs.disable()
        obs.set_registry(previous)


class TestMetricsRegistry:
    def test_counter_labels_and_negative_rejection(self):
        counter = obs.counter("repro_test_total", store="results")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # Same (name, labels) -> same series; different labels -> new one.
        assert obs.counter("repro_test_total", store="results").value == 5
        assert obs.counter("repro_test_total", store="kernels").value == 0
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_not_accumulates(self):
        gauge = obs.gauge("repro_test_pending")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_buckets_and_conflict(self):
        hist = obs.histogram("repro_test_seconds", buckets=(1, 10))
        for value in (0.5, 5, 50):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert hist.count == 3
        assert hist.sum == pytest.approx(55.5)
        with pytest.raises(ValueError):
            obs.histogram("repro_test_seconds", buckets=(2, 20))

    def test_snapshot_delta_merge_round_trip(self):
        registry = obs.get_registry()
        obs.counter("repro_a_total").inc(2)
        obs.histogram("repro_h", buckets=(10,)).observe(3)
        before = registry.snapshot()
        obs.counter("repro_a_total").inc(5)
        obs.counter("repro_b_total", k="x").inc(1)
        obs.gauge("repro_g").set(9)  # gauges never ride in deltas
        obs.histogram("repro_h", buckets=(10,)).observe(99)
        delta = registry.delta_since(before)
        assert "gauges" not in delta
        assert all("repro_g" not in key for key in delta["counters"])

        other = MetricsRegistry()
        other.counter("repro_a_total").inc(100)
        other.merge_delta(delta)
        assert other.counter("repro_a_total").value == 105
        assert other.counter("repro_b_total", k="x").value == 1
        merged = other.histogram("repro_h", buckets=(10,))
        assert merged.counts == [0, 1]
        assert merged.sum == pytest.approx(99)

    def test_delta_drops_untouched_series(self):
        obs.counter("repro_quiet_total").inc(3)
        before = obs.get_registry().snapshot()
        obs.counter("repro_loud_total").inc()
        delta = obs.get_registry().delta_since(before)
        assert all(
            "repro_quiet_total" not in key for key in delta["counters"]
        )
        assert any("repro_loud_total" in key for key in delta["counters"])

    def test_prometheus_rendering(self):
        obs.counter("repro_c_total", store="results").inc(2)
        obs.gauge("repro_g").set(4)
        obs.histogram("repro_h_seconds", buckets=(1, 10), span="x").observe(5)
        text = obs.get_registry().render_prometheus()
        assert '# TYPE repro_c_total counter' in text
        assert 'repro_c_total{store="results"} 2' in text
        assert '# TYPE repro_g gauge' in text
        assert 'repro_h_seconds_bucket{span="x",le="+Inf"} 1' in text
        assert 'repro_h_seconds_bucket{span="x",le="1"} 0' in text
        assert 'repro_h_seconds_count{span="x"} 1' in text
        assert text.endswith("\n")

    def test_kernel_delta_and_totals(self):
        delta = {
            "executed_cycles": 10,
            "skipped_cycles": 90,
            "skip_spans": 4,
        }
        obs.record_kernel_delta("skip", delta)
        obs.record_kernel_delta("naive", {**delta, "skipped_cycles": 0})
        totals = obs.kernel_totals()
        assert totals["executed_cycles"] == 20
        assert totals["skipped_cycles"] == 90
        assert totals["skip_spans"] == 8
        assert obs.counter(
            "repro_kernel_skipped_cycles_total", kernel="skip"
        ).value == 90


def _kernel_series(registry):
    """The deterministic-content series: kernel counters + run histograms
    (span-duration histograms, whose sums are wall-time, excluded)."""
    snap = registry.snapshot()
    series = {
        key: value
        for key, value in snap["counters"].items()
        if "repro_kernel_" in key
    }
    series.update(
        {
            key: state
            for key, state in snap["histograms"].items()
            if "repro_run_" in key
        }
    )
    return series


class TestWorkerMerge:
    PAIRS = None  # filled lazily to keep import cost out of collection

    def _run_matrix(self, workers):
        from repro.experiments import IF_DISTR, IQ_64_64
        from repro.experiments.parallel import simulate_matrix
        from repro.experiments.runner import RunScale

        scale = RunScale(num_instructions=1200, warmup_instructions=600, seed=7)
        pairs = [("gzip", IQ_64_64), ("gzip", IF_DISTR)]
        registry = MetricsRegistry()
        obs.set_registry(registry)
        results = simulate_matrix(pairs, scale, workers=workers)
        return results, registry

    def test_pool_merge_is_lossless_and_deterministic(self):
        serial_results, serial_registry = self._run_matrix(workers=1)
        pool_results, pool_registry = self._run_matrix(workers=2)
        assert [stats.to_dict() for stats in serial_results] == [
            stats.to_dict() for stats in pool_results
        ]
        serial_series = _kernel_series(serial_registry)
        assert serial_series  # the run did feed kernel metrics
        assert serial_series == _kernel_series(pool_registry)

    def test_pool_under_a_sigterm_handling_loop_finishes_silently(self):
        # repro.serve runs pool batches from an executor thread of a loop
        # that handles SIGTERM. Forked workers must neither survive the
        # pool's SIGTERM (the batch would hang) nor deliver it to that
        # loop's handler (the server would stop). A subprocess keeps a
        # hang from blocking the rest of the test run.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = subprocess.Popen(
            [sys.executable, "-c", _SIGTERM_PROBE],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = probe.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.communicate()
            pytest.fail("simulate_matrix hung under a loop's SIGTERM handler")
        assert probe.returncode == 0, err
        assert out.split() == ["handler", "calls:", "0"]


#: Four two-worker batches, each started from an executor thread of a
#: loop that handles SIGTERM, as ``ServeApp.serve_forever`` sets it up.
_SIGTERM_PROBE = """
import asyncio
import signal

from repro.experiments import IF_DISTR, IQ_64_64
from repro.experiments.parallel import simulate_matrix
from repro.experiments.runner import RunScale

PAIRS = [("gzip", IQ_64_64), ("gzip", IF_DISTR)]
SCALE = RunScale(num_instructions=600, warmup_instructions=300, seed=7)


async def main():
    loop = asyncio.get_running_loop()
    calls = []
    loop.add_signal_handler(signal.SIGTERM, calls.append, signal.SIGTERM)
    for _ in range(4):
        await loop.run_in_executor(None, simulate_matrix, PAIRS, SCALE, 2)
    await asyncio.sleep(0.2)  # let a stray wakeup byte reach the handler
    print("handler calls:", len(calls))


asyncio.run(main())
"""


class TestConcurrentAttribution:
    def test_overlapping_runs_record_only_their_own_cycles(self, monkeypatch):
        # Two runs in two threads, as serve's batch executor runs them;
        # the barrier holds each run's return until both have finished.
        from repro.core.engine import KernelTelemetry
        from repro.core.processor import Processor
        from repro.experiments import IF_DISTR, IQ_64_64
        from repro.experiments.runner import ExperimentRunner, RunScale

        barrier = threading.Barrier(2, timeout=60)
        processors = []
        original_run = Processor.run

        def run_then_wait(self, *args, **kwargs):
            stats = original_run(self, *args, **kwargs)
            processors.append(self)
            barrier.wait()
            return stats

        monkeypatch.setattr(Processor, "run", run_then_wait)
        scale = RunScale(num_instructions=1200, warmup_instructions=600, seed=7)
        errors = []

        def resolve(scheme):
            try:
                ExperimentRunner(scale, store=False).run("gzip", scheme)
            except BaseException as exc:  # reported below
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=resolve, args=(scheme,))
            for scheme in (IQ_64_64, IF_DISTR)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(processors) == 2

        total = KernelTelemetry()
        expected = MetricsRegistry()
        measured = obs.set_registry(expected)
        try:
            for processor in processors:
                total.merge(processor.kernel_telemetry)
                obs.record_kernel_delta(
                    processor.config.kernel, processor.kernel_telemetry.as_dict()
                )
        finally:
            obs.set_registry(measured)
        assert obs.kernel_totals() == total.as_dict()
        # Counters and per-run histograms alike: one observation per run,
        # each equal to that run's own cycles.
        assert _kernel_series(measured) == _kernel_series(expected)


class TestExecutePair:
    """``runner.execute_pair``, the one execution path of the serial
    runner and of every pool worker, records exactly its own run."""

    @staticmethod
    def _scale():
        from repro.experiments.runner import RunScale

        return RunScale(num_instructions=1200, warmup_instructions=600, seed=7)

    @staticmethod
    def _expected_series(kernel, telemetry):
        expected = MetricsRegistry()
        measured = obs.set_registry(expected)
        try:
            obs.record_kernel_delta(kernel, telemetry.as_dict())
        finally:
            obs.set_registry(measured)
        return _kernel_series(expected)

    @pytest.mark.parametrize("kernel", ("naive", "skip", "specialized"))
    def test_full_run_records_its_own_telemetry(self, kernel):
        from repro.experiments import IF_DISTR
        from repro.experiments.runner import execute_pair, simulate_pair

        stats, sampled = execute_pair(
            "gzip", IF_DISTR, self._scale(), kernel=kernel
        )
        assert sampled is None
        # simulate_pair records nothing, so the registry still holds only
        # the execute_pair run.
        reference, __, telemetry = simulate_pair(
            "gzip", IF_DISTR, self._scale(), kernel=kernel
        )
        assert stats.to_dict() == reference.to_dict()
        assert obs.kernel_totals() == telemetry.as_dict()
        assert _kernel_series(obs.get_registry()) == (
            self._expected_series(kernel, telemetry)
        )

    def test_sampled_run_records_detailed_telemetry_and_split(self):
        from repro.experiments import IF_DISTR
        from repro.experiments.runner import execute_pair, simulate_sampled_pair
        from repro.sampling import SamplingPlan

        plan = SamplingPlan(num_slices=3, slice_instructions=150,
                            warmup_instructions=100)
        scale = self._scale()
        stats, sampled = execute_pair(
            "gzip", IF_DISTR, scale, kernel="skip", sampling=plan
        )
        assert stats.to_dict() == sampled.stats.to_dict()
        reference, __, telemetry = simulate_sampled_pair(
            "gzip", IF_DISTR, scale, plan, kernel="skip"
        )
        assert sampled.to_dict() == reference.to_dict()
        assert obs.kernel_totals() == telemetry.as_dict()
        assert telemetry.executed_cycles == sampled.detailed_cycles
        detailed = obs.counter("repro_sampling_detailed_instructions_total").value
        ffwd = obs.counter("repro_sampling_ffwd_instructions_total").value
        assert detailed == sampled.detailed_instructions > 0
        assert detailed + ffwd == scale.num_instructions

    def test_pool_job_ships_stats_and_its_registry_delta(self, monkeypatch):
        import importlib

        from repro.experiments import IF_DISTR, parallel, runner
        from repro.experiments.runner import simulate_pair

        prewarm_module = importlib.import_module("repro.workloads.prewarm")
        monkeypatch.setattr(runner, "_TRACE_MEMO", {})
        monkeypatch.setattr(prewarm_module, "_WARM_STATE", {})
        obs.counter("repro_unrelated_total").inc()  # before the job: not shipped
        payload = parallel._run_job(
            ("gzip", IF_DISTR, self._scale(), "skip", None, None)
        )
        assert set(payload) == {"stats", "metrics", "warm_states"}
        # The job warmed gzip's caches, and it ships exactly that state.
        assert len(payload["warm_states"]) == 1
        assert payload["warm_states"] == prewarm_module._WARM_STATE
        reference, __, telemetry = simulate_pair(
            "gzip", IF_DISTR, self._scale(), kernel="skip"
        )
        assert payload["stats"] == reference.to_dict()
        shipped = MetricsRegistry()
        shipped.merge_delta(payload["metrics"])
        assert _kernel_series(shipped) == self._expected_series("skip", telemetry)
        assert all(
            "repro_unrelated_total" not in key for key in payload["metrics"]["counters"]
        )


class TestTracer:
    def test_span_files_are_valid_trace_event_json(self, tmp_path):
        trace_dir = tmp_path / "trace"
        obs.configure(trace_dir)
        assert obs.trace_enabled()
        with obs.span("unit.test", benchmark="gzip") as extra:
            extra["source"] = "memory"
        obs.instant("unit.marker", note=1)
        obs.flush()

        pid = os.getpid()
        trace_file = trace_dir / f"trace-{pid}.json"
        document = json.loads(trace_file.read_text())
        assert "traceEvents" in document
        events = document["traceEvents"]
        spans = [e for e in events if e["name"] == "unit.test"]
        assert len(spans) == 1
        span = spans[0]
        assert span["ph"] == "X"
        assert span["pid"] == pid
        assert span["dur"] >= 0
        assert span["args"] == {"benchmark": "gzip", "source": "memory"}

        ndjson = trace_dir / f"events-{pid}.ndjson"
        lines = [json.loads(line) for line in ndjson.read_text().splitlines()]
        assert any(line["name"] == "unit.marker" for line in lines)

        prom = trace_dir / f"metrics-{pid}.prom"
        assert "repro_span_seconds" in prom.read_text()

    def test_forked_child_leaves_the_inherited_tracer_alone(self, tmp_path):
        trace_dir = tmp_path / "trace"
        obs.configure(trace_dir)
        with obs.span("parent.span"):
            pass
        child = os.fork()
        if child == 0:
            try:
                obs.get_tracer()  # a fresh tracer for the child's pid
            finally:
                os._exit(0)
        os.waitpid(child, 0)
        # The parent has not flushed, and the child must not flush for it.
        assert not (trace_dir / f"trace-{os.getpid()}.json").exists()

    def test_threads_flush_at_once(self, tmp_path):
        obs.configure(tmp_path / "trace")
        errors = []

        def flush_often():
            try:
                for __ in range(50):
                    with obs.span("thread.span"):
                        pass
                    obs.flush()
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=flush_often) for __ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not list((tmp_path / "trace").glob("*.tmp-*"))

    def test_env_var_activates_and_disable_clears(self, tmp_path):
        os.environ[obs.ENV_VAR] = str(tmp_path / "envtrace")
        try:
            assert obs.trace_enabled()
            with obs.span("env.span"):
                pass
            obs.flush()
            assert (tmp_path / "envtrace").is_dir()
        finally:
            obs.disable()
        assert obs.ENV_VAR not in os.environ
        assert not obs.trace_enabled()

    def test_span_histogram_fed_even_when_disabled(self):
        with obs.span("quiet.span"):
            pass
        hist = obs.histogram(
            "repro_span_seconds", buckets=obs.SECONDS_BUCKETS, span="quiet.span"
        )
        assert hist.count == 1


class TestCampaignByteIdentity:
    def test_traced_campaign_artifact_is_byte_identical(self, tmp_path):
        from repro.experiments.campaign import main

        def run_campaign(tag, extra_args):
            out = tmp_path / f"campaign-{tag}.json"
            main(
                [
                    "--scale", "1000", "--figures", "2",
                    "--cache-dir", str(tmp_path / f"cache-{tag}"),
                    "--output", "json", "--output-path", str(out),
                ]
                + extra_args
            )
            return out.read_bytes()

        plain = run_campaign("plain", [])
        traced = run_campaign(
            "traced", ["--trace-out", str(tmp_path / "trace-out")]
        )
        assert plain == traced
        trace_files = list((tmp_path / "trace-out").glob("trace-*.json"))
        assert trace_files, "tracing produced no trace file"
        events = json.loads(trace_files[0].read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert "campaign.figure" in names
        assert "runner.resolve" in names


class TestServeEndpoints:
    def test_metrics_status_and_stats_surfaces(self, tmp_path):
        from repro.experiments.store import ResultStore
        from repro.serve import ServeApp

        async def request(port, method, path, payload=None):
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
            return int(head.split(b" ")[1]), head, rest

        async def body():
            app = ServeApp(ResultStore(tmp_path))
            port = await app.start("127.0.0.1", 0)
            try:
                spec = {
                    "type": "simulation", "benchmark": "gzip",
                    "scheme": "IQ_64_64", "scale": 1200, "seed": 7,
                }
                status, __, posted = await request(
                    port, "POST", "/v1/jobs", spec
                )
                assert status == 202
                job_id = json.loads(posted)["job"]
                while True:
                    status, __, raw = await request(
                        port, "GET", f"/v1/jobs/{job_id}"
                    )
                    if json.loads(raw)["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.05)

                status, head, metrics_blob = await request(
                    port, "GET", "/metrics"
                )
                assert status == 200
                assert b"text/plain" in head
                text = metrics_blob.decode("utf-8")
                assert "repro_serve_units_total 1" in text
                assert "repro_serve_jobs_total" in text
                assert "repro_serve_pending 0" in text

                status, head, page = await request(port, "GET", "/")
                assert status == 200
                assert b"text/html" in head
                html = page.decode("utf-8")
                assert "repro.serve" in html
                assert job_id in html
                assert "results stored: 1" in html

                status, __, raw = await request(port, "GET", "/v1/stats")
                stats = json.loads(raw)
                sched = stats["scheduler"]
                assert sched["queue_depth"] == 0
                assert sched["in_flight_batches"] == 0
                assert sched["waiters"] == sched["misses"] + sched["coalesced"]
                assert stats["store"]["results"] == 1

                status, __, __body = await request(port, "GET", "/nope")
                assert status == 404
            finally:
                await app.shutdown()

        asyncio.run(body())
