"""``serve_mix``: a seeded stream of simulation jobs against ``repro.serve``.

The server runs in its own process (:class:`Server`, started through
``perfbench.serve_boot``). This process is the client: one closed loop
over the job stream (:class:`Client`), where a job is ``POST /v1/jobs``,
polling ``GET /v1/jobs/<id>`` every ``POLL_SECONDS`` until it is done,
and ``GET /v1/jobs/<id>/artifact``.

A job's latency is the time from the POST to the server's ``finished``
timestamp (same host clock) plus the artifact download. It leaves out
the polling interval, which otherwise quantized a ~3 ms warm job into
modes 5 ms apart. Throughput leaves it out too: it divides by the
client's *busy* time, per event the span from its first POST to the
last ``finished`` plus its artifact downloads, not by wall time, which
includes the client's sleeps between polls.

Why one connection: with two independent closed loops, a warm hit met a
simulation holding the GIL in the server's batch thread about half the
time, and then took 2-20x longer, so warm p50 sat on the boundary between
the two populations and its spread over five seeds was 0.24-0.96 of the
median (2.26 with one connection kept always cold). One connection keeps
every warm hit clear of a simulation.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import inputs

ROOT = Path(__file__).resolve().parents[1]
_clock = time.perf_counter

#: Status polling interval. Latency and throughput come from the server's
#: timestamps, so the interval only paces the loop; each poll takes the GIL
#: from the simulation in the server's batch thread, so polls stay
#: infrequent. The ``/events`` stream sleeps 100 ms between server-side
#: checks instead.
POLL_SECONDS = 0.02
#: A job still unfinished after this long counts as failed.
JOB_TIMEOUT_SECONDS = 30.0
#: Scale of every served job (instructions per simulation; half warm-up).
SCALE = 2000
_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class ServeError(RuntimeError):
    """The server could not be started or stopped cleanly."""


class Server:
    """One ``repro.serve`` process with ``--workers 0`` over ``cache_dir``."""

    def __init__(self, cache_dir: Path, env: Dict[str, str],
                 totals_path: Optional[Path] = None) -> None:
        command = [
            sys.executable, "-m", "perfbench.serve_boot",
            str(totals_path) if totals_path else "-",
            "--port", "0", "--workers", "0", "--cache-dir", str(cache_dir),
        ]
        start = _clock()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            match = None
            while match is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise ServeError(f"server exited with {self.proc.wait()}")
                match = _LISTENING.search(line)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        #: Process start until the server listens.
        self.setup_s = _clock() - start
        self.port = int(match.group(2))
        # Keep reading so the server never blocks on a full stdout pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def peak_rss_kb(self) -> int:
        """The server's peak resident set so far (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="ascii")
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1))

    def stop(self) -> int:
        """SIGINT, then wait; returns the exit status (killed if it hangs)."""
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -signal.SIGKILL
        self._drain.join(timeout=5)
        self.proc.stdout.close()
        return code


def request(port: int, method: str, path: str, body: Optional[bytes] = None,
            timeout: float = JOB_TIMEOUT_SECONDS) -> Tuple[int, bytes]:
    """One HTTP exchange (the server closes every connection)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class _Job:
    __slots__ = ("kind", "pair", "id", "posted", "finished", "download",
                 "latency", "artifact", "provenance", "error")

    def __init__(self, kind: str, pair: inputs.Pair) -> None:
        self.kind = kind
        self.pair = pair
        self.id = None
        self.posted = 0.0
        self.finished = 0.0
        self.download = 0.0
        self.latency = 0.0
        self.artifact = b""
        self.provenance = None
        self.error = None


class Client:
    """One closed-loop connection over an event stream."""

    def __init__(self, port: int, events, tracer=None) -> None:
        self.port = port
        self.events = events
        self.tracer = tracer
        self.jobs: List[_Job] = []
        self.events_done = 0
        #: Seconds the client waited on the server, without polling overshoot.
        self.busy = 0.0

    def _span(self, entry: str, record: bool = True):
        return self.tracer.span(entry, record=record) if self.tracer else nullcontext()

    def _http(self, entry: str, method: str, path: str, body=None):
        with self._span(entry):
            return request(self.port, method, path, body)

    def _post(self, job: _Job) -> None:
        benchmark, scheme = job.pair
        body = json.dumps({"type": "simulation", "benchmark": benchmark,
                           "scheme": scheme, "scale": SCALE}).encode()
        job.posted = time.time()
        status, data = self._http("serve.post", "POST", "/v1/jobs", body)
        if status != 202:
            raise ServeError(f"POST answered {status}: {data[:200]!r}")
        job.id = json.loads(data)["job"]

    def _finish(self, job: _Job) -> None:
        deadline = job.posted + JOB_TIMEOUT_SECONDS
        while True:
            status, data = self._http("serve.status", "GET", f"/v1/jobs/{job.id}")
            summary = json.loads(data) if status == 200 else {}
            state = summary.get("state")
            if state == "done":
                job.provenance = summary["result"]["provenance"]
                job.finished = summary["finished"]
                break
            if state == "failed":
                raise ServeError(f"job failed: {summary.get('error')}")
            if time.time() > deadline:
                raise ServeError(f"job {job.id} timed out in state {state!r}")
            # Waiting on the server between polls is serve-layer time.
            with self._span("serve.poll_wait", record=False):
                time.sleep(POLL_SECONDS)
        start = _clock()
        status, data = self._http("serve.artifact", "GET", f"/v1/jobs/{job.id}/artifact")
        if status != 200:
            raise ServeError(f"artifact answered {status}")
        job.artifact = data
        job.download = _clock() - start
        job.latency = job.finished - job.posted + job.download

    def _run_event(self, kind: str, pair: inputs.Pair) -> float:
        """Post the event's jobs, then finish each; returns its busy seconds.

        Busy time is the span from the first POST to the last ``finished``
        plus the artifact downloads; an event with a failed job counts its
        whole client time.
        """
        jobs = [_Job(kind, pair) for __ in range(inputs.BURST_SIZE if kind == "burst" else 1)]
        self.jobs.extend(jobs)
        start = time.time()
        live = []
        for job in jobs:
            try:
                self._post(job)
                live.append(job)
            except (OSError, ServeError, ValueError, KeyError) as exc:
                job.error = f"{type(exc).__name__}: {exc}"
        for job in live:
            try:
                self._finish(job)
            except (OSError, ServeError, ValueError, KeyError) as exc:
                job.error = f"{type(exc).__name__}: {exc}"
        if any(job.error is not None for job in jobs):
            return time.time() - start
        return max(job.finished for job in jobs) - start + sum(job.download for job in jobs)

    def run(self, seconds: float, limit: Optional[int], calibrator) -> None:
        """Run events until ``limit`` of them, or for ``seconds`` of wall time.

        Between events, while the server is idle, ``calibrator`` samples
        the reference loop; that time is left out of the time box.
        """
        paused = 0.0
        start = _clock()
        for index, (kind, pair) in enumerate(self.events):
            if limit is not None:
                if index >= limit:
                    break
            elif _clock() - start - paused >= seconds:
                break
            if self.tracer is None:
                self.busy += self._run_event(kind, pair)
            else:
                calls = inputs.BURST_SIZE if kind == "burst" else 1
                with self.tracer.timeline(), self.tracer.op(index + 1, "serve_mix", calls):
                    self.busy += self._run_event(kind, pair)
            self.events_done += 1
            pause = _clock()
            calibrator.maybe_sample()
            paused += _clock() - pause


def check_jobs(jobs: List[_Job], stats: Dict, plant: bool, local_check) -> List[str]:
    """Output checks after the timed phase; returns one line per failure.

    Every job must have finished; every repeat and burst duplicate must
    return the first ask's artifact bytes; first asks must have been
    simulated and repeats served from the store; the scheduler must have
    simulated exactly one execution per unique key; and ``local_check``
    re-simulates a seeded handful of keys locally and returns the keys
    whose served statistics differ.
    """
    failures: Dict[int, str] = {}
    reference: Dict[inputs.Pair, bytes] = {}
    for index, job in enumerate(jobs):
        if job.error is not None:
            failures[index] = job.error
            continue
        reference.setdefault(job.pair, job.artifact)
        if job.artifact != reference[job.pair]:
            failures[index] = f"artifact of {job.pair} differs from its first ask"
        elif job.kind == "first" and job.provenance != "simulated":
            failures[index] = f"first ask of {job.pair} was {job.provenance}"
        elif job.kind == "repeat" and job.provenance != "store":
            failures[index] = f"repeat of {job.pair} was {job.provenance}"
    lines = list(failures.values())
    if stats["scheduler"]["simulated"] != len(reference):
        lines.append(
            f"scheduler simulated {stats['scheduler']['simulated']} for "
            f"{len(reference)} unique keys"
        )
    served = {pair: json.loads(data) for pair, data in reference.items()}
    if plant:
        for record in served.values():
            record["stats"]["planted"] = True
    for pair in local_check(served):
        lines.append(f"{pair} differs from a local simulate_pair")
    return lines
