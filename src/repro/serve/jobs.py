"""Job model and execution for the campaign server.

A *job* is one client request: a single simulation, a figure campaign,
or a design-space exploration. Jobs share nothing but the scheduler —
which is exactly the point: every simulation any job needs goes through
the same coalescing chokepoint, so concurrent jobs asking overlapping
questions pay for the union of their work, not the sum.

Lifecycle (all states are also streamed as events)::

    queued → running → batched → simulating → done
                                            ↘ failed

plus a per-unit provenance event (``store`` / ``coalesced`` /
``simulated``) for every work unit, so a client can see precisely which
parts of its request were answered warm.

Artifacts are written with the same atomic writers the CLIs use and are
**provenance-free**: N clients posting identical jobs receive
byte-identical artifact bytes, whether their units were simulated,
coalesced or served from the store.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.common.config import VALID_KERNELS, scheme_name
from repro.common.errors import ConfigurationError, ReproError
from repro.experiments import figures as fig_mod
from repro.experiments.campaign import ALL_FIGURES, export_campaign
from repro.experiments.runner import ExperimentRunner, RunScale
from repro.experiments.store import ResultStore
from repro.serve.scheduler import (
    CoalescingScheduler,
    ScheduledRunner,
    SchedulerShutdown,
)
from repro.serve.units import WorkUnit

__all__ = ["Job", "JobError", "JobService", "JOB_KINDS"]

JOB_KINDS = ("simulation", "figures", "exploration")

#: Job bodies (figure assembly, exploration drivers) that run at once.
JOB_THREADS = 4

#: Terminal job states.
_TERMINAL = ("done", "failed")


class JobError(ReproError):
    """A job spec the service cannot accept (HTTP 400)."""


def _scheme_registry() -> Dict[str, object]:
    """Paper-name → scheme config, from the full figure matrix.

    The same name set ``campaign --schemes`` accepts, so CLI and service
    speak one vocabulary.
    """
    return {
        scheme_name(scheme): scheme
        for __, scheme in fig_mod.required_runs(ALL_FIGURES)
    }


def _parse_scale(spec: Dict, default_scale: int = 4000) -> RunScale:
    """The job's ``RunScale`` from ``scale``/``seed`` keys (campaign rules:
    warm-up is half the run)."""
    scale = spec.pop("scale", default_scale)
    seed = spec.pop("seed", 11)
    if not isinstance(scale, int) or isinstance(scale, bool):
        raise JobError(f"scale must be an integer, got {scale!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise JobError(f"seed must be an integer, got {seed!r}")
    run_scale = RunScale(
        num_instructions=scale, warmup_instructions=scale // 2, seed=seed
    )
    try:
        run_scale.validate()
    except ValueError as exc:
        raise JobError(f"scale {scale}: {exc}") from exc
    return run_scale


def _parse_kernel(spec: Dict) -> Optional[str]:
    kernel = spec.pop("kernel", None)
    if kernel is not None and kernel not in VALID_KERNELS:
        raise JobError(
            f"unknown kernel {kernel!r}; valid: {', '.join(VALID_KERNELS)}"
        )
    return kernel


def _parse_sampling(spec: Dict, scale: RunScale):
    """The job's sampling plan, checked against its scale as
    ``campaign --sampling`` checks it, so a plan that cannot fit the
    measured region is a 400, not a failed job."""
    sampling = spec.pop("sampling", None)
    if sampling is None:
        return None
    if not isinstance(sampling, str):
        raise JobError("sampling must be a plan spec string (key=value,...)")
    from repro.sampling import SamplingPlan

    try:
        plan = SamplingPlan.from_spec(sampling)
        plan.slice_windows(scale.warmup_instructions, scale.num_instructions)
    except ConfigurationError as exc:
        raise JobError(f"sampling: {exc}") from exc
    return plan


def _reject_unknown_keys(spec: Dict, kind: str) -> None:
    if spec:
        raise JobError(
            f"unknown keys for a {kind} job: {', '.join(sorted(spec))}"
        )


class Job:
    """One accepted request, its event log and its artifacts."""

    def __init__(self, job_id: str, kind: str, spec: Dict) -> None:
        self.id = job_id
        self.kind = kind
        self.spec = spec
        self.state = "queued"
        self.created = obs.clock.wall_time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.error: Optional[str] = None
        self.result: Optional[Dict] = None
        self.events: List[Dict] = []
        self.provenance: Dict[str, int] = {}
        self.artifacts: Dict[str, Path] = {}
        self.task: Optional[asyncio.Task] = None
        self._seq = itertools.count()
        self.emit("queued")

    def emit(self, event: str, **detail) -> None:
        """Append one event to the job's log (loop thread only)."""
        record = {"seq": next(self._seq), "event": event}
        record.update(detail)
        self.events.append(record)

    def record_outcome(self, outcome) -> None:
        """File one unit outcome: a provenance event plus the tally."""
        payload = outcome.event_payload()
        self.provenance[outcome.provenance] = (
            self.provenance.get(outcome.provenance, 0) + 1
        )
        self.emit("unit", **payload)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def fail(self, error: str) -> None:
        self.state = "failed"
        self.error = error
        self.finished = obs.clock.wall_time()
        self.emit("failed", error=error)

    def summary(self) -> Dict:
        """The ``GET /v1/jobs/<id>`` status payload."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "spec": self.spec,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "result": self.result,
            "provenance": dict(self.provenance),
            "events": len(self.events),
            "artifacts": sorted(self.artifacts),
        }


class JobService:
    """Parses, runs and indexes jobs on top of the scheduler."""

    def __init__(
        self,
        store: ResultStore,
        scheduler: CoalescingScheduler,
        artifact_root: Path,
    ) -> None:
        self.store = store
        self.scheduler = scheduler
        self.artifact_root = Path(artifact_root)
        self.jobs: Dict[str, Job] = {}
        self.accepting = True
        self._counter = itertools.count(1)
        # Job bodies (figure assembly, exploration drivers) run here —
        # deliberately NOT the scheduler's batch pool, so a job waiting
        # on the scheduler can never starve the batch that would unblock
        # it.
        from concurrent.futures import ThreadPoolExecutor

        self._job_pool = ThreadPoolExecutor(
            max_workers=JOB_THREADS, thread_name_prefix="serve-job"
        )
        self._schemes = _scheme_registry()

    # ------------------------------------------------------------------
    # Spec parsing (raises JobError on anything malformed).
    # ------------------------------------------------------------------

    def parse(self, payload) -> Dict:
        """Validate and normalize a job spec; returns the parsed form."""
        if not isinstance(payload, dict):
            raise JobError("job spec must be a JSON object")
        spec = dict(payload)
        kind = spec.pop("type", None)
        if kind not in JOB_KINDS:
            raise JobError(
                f"job type must be one of {', '.join(JOB_KINDS)}; got {kind!r}"
            )
        parsed: Dict = {"type": kind}
        parsed["scale"] = _parse_scale(spec)
        parsed["kernel"] = _parse_kernel(spec)
        parsed["sampling"] = _parse_sampling(spec, parsed["scale"])
        if kind == "simulation":
            benchmark = spec.pop("benchmark", None)
            if not isinstance(benchmark, str):
                raise JobError("simulation jobs need a benchmark name")
            from repro.workloads.suites import get_profile

            try:
                get_profile(benchmark)  # the error names the known set
            except ReproError as exc:
                raise JobError(str(exc)) from exc
            scheme = spec.pop("scheme", None)
            if scheme not in self._schemes:
                raise JobError(
                    f"unknown scheme {scheme!r}; known: "
                    + ", ".join(sorted(self._schemes))
                )
            parsed["benchmark"] = benchmark
            parsed["scheme"] = scheme
        elif kind == "figures":
            numbers = spec.pop("figures", None)
            if not (
                isinstance(numbers, list)
                and numbers
                and all(
                    isinstance(n, int) and not isinstance(n, bool)
                    for n in numbers
                )
            ):
                raise JobError("figures jobs need a non-empty integer list")
            unknown = [n for n in numbers if n not in ALL_FIGURES]
            if unknown:
                raise JobError(
                    f"unknown figures {unknown}; known: {ALL_FIGURES}"
                )
            fmt = spec.pop("format", "json")
            if fmt not in ("json", "csv"):
                raise JobError(f"format must be json or csv, got {fmt!r}")
            parsed["figures"] = numbers
            parsed["format"] = fmt
        else:  # exploration
            from repro.explore.drivers import (
                ExplorationSettings,
                resolve_benchmarks,
            )

            benchmarks = spec.pop("benchmarks", "mini")
            if isinstance(benchmarks, list) and all(
                isinstance(name, str) for name in benchmarks
            ):
                benchmarks = ",".join(benchmarks)
            if not isinstance(benchmarks, str):
                raise JobError(
                    "benchmarks must be a group name or a list of names"
                )
            scale: RunScale = parsed["scale"]
            try:
                settings = ExplorationSettings(
                    samples=spec.pop("samples", 16),
                    rounds=spec.pop("rounds", 1),
                    seed=scale.seed,
                    strategy=spec.pop("strategy", "mixed"),
                    benchmarks=resolve_benchmarks(benchmarks),
                    neighbors_per_point=spec.pop("neighbors", 4),
                    num_instructions=scale.num_instructions,
                    workers=0,
                    kernel=parsed["kernel"],
                    aggregate=spec.pop("aggregate", False),
                    epsilon=spec.pop("epsilon", 0.0),
                    frontier_budget=spec.pop("frontier_budget", None),
                    sampling=parsed["sampling"],
                )
                settings.validate()
            except (ReproError, TypeError, ValueError) as exc:
                raise JobError(f"exploration settings: {exc}") from exc
            parsed["settings"] = settings
        _reject_unknown_keys(spec, kind)
        return parsed

    # ------------------------------------------------------------------
    # Submission and execution.
    # ------------------------------------------------------------------

    def submit(self, payload) -> Job:
        """Accept one job and start it; raises :class:`JobError` on a bad
        spec and :class:`SchedulerShutdown` while shutting down."""
        if not self.accepting:
            raise SchedulerShutdown("server shutting down")
        parsed = self.parse(payload)
        obs.counter("repro_serve_jobs_total", kind=parsed["type"]).inc()
        job_id = f"job-{next(self._counter):04d}-{uuid.uuid4().hex[:8]}"
        job = Job(job_id, parsed["type"], _displayable(parsed))
        job.parsed = parsed
        self.jobs[job_id] = job
        job.task = asyncio.ensure_future(self._run(job))
        return job

    async def _run(self, job: Job) -> None:
        if job.state != "queued":  # failed by shutdown before starting
            return
        job.state = "running"
        job.started = obs.clock.wall_time()
        job.emit("running")
        try:
            handler = {
                "simulation": self._run_simulation,
                "figures": self._run_figures,
                "exploration": self._run_exploration,
            }[job.kind]
            with obs.span("serve.job", job=job.id, kind=job.kind):
                job.result = await handler(job, job.parsed)
        except SchedulerShutdown as exc:
            job.fail(f"server shutting down: {exc}")
        except asyncio.CancelledError:
            job.fail("server shutting down: job cancelled")
            raise
        except Exception as exc:  # noqa: BLE001 — reported, not hidden
            job.fail(f"{type(exc).__name__}: {exc}")
        else:
            job.state = "done"
            job.finished = obs.clock.wall_time()
            job.emit("done", provenance=dict(job.provenance))

    def _job_dir(self, job: Job) -> Path:
        return self.artifact_root / job.id

    async def _resolve_units(self, job: Job, units: List[WorkUnit]):
        """Route units through the scheduler, narrating the lifecycle."""
        job.emit("batched", units=len(units))
        job.emit("simulating")
        outcomes = await self.scheduler.resolve(units)
        for outcome in outcomes:
            job.record_outcome(outcome)
        return outcomes

    async def _in_thread(self, func, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._job_pool, func, *args)

    async def _run_simulation(self, job: Job, parsed: Dict) -> Dict:
        from repro.explore.artifacts import write_json

        scheme = self._schemes[parsed["scheme"]]
        unit = WorkUnit(
            benchmark=parsed["benchmark"],
            scheme=scheme,
            scale=parsed["scale"],
            kernel=parsed["kernel"],
            sampling=parsed["sampling"],
        )
        (outcome,) = await self._resolve_units(job, [unit])
        # The artifact is provenance-free on purpose: coalesced, warm and
        # simulated askers of the same unit get byte-identical bytes.
        payload = {
            "benchmark": parsed["benchmark"],
            "scheme": parsed["scheme"],
            "scale": parsed["scale"].num_instructions,
            "seed": parsed["scale"].seed,
            "key": outcome.key,
            "stats": outcome.stats.to_dict(),
        }
        extra = await self._in_thread(self.store.load_with_extra, outcome.key)
        if extra is not None and extra[1] is not None:
            payload["sampled"] = extra[1]
        path = await self._in_thread(
            write_json, self._job_dir(job) / "result.json", payload
        )
        job.artifacts["result.json"] = Path(path)
        return {
            "key": outcome.key,
            "ipc": outcome.stats.ipc,
            "provenance": outcome.provenance,
        }

    async def _run_figures(self, job: Job, parsed: Dict) -> Dict:
        numbers = parsed["figures"]
        pairs = fig_mod.required_runs(numbers)
        units = [
            WorkUnit(
                benchmark=benchmark,
                scheme=scheme,
                scale=parsed["scale"],
                kernel=parsed["kernel"],
                sampling=parsed["sampling"],
            )
            for benchmark, scheme in pairs
        ]
        await self._resolve_units(job, units)
        job.emit("assembling", figures=numbers)
        # Every unit is now in the shared store, so this runner resolves
        # the whole matrix from disk — the export itself simulates
        # nothing and reuses the exact CLI code path (byte-identical
        # artifacts by construction).
        runner = ExperimentRunner(
            parsed["scale"],
            store=self.store,
            kernel=parsed["kernel"],
            sampling=parsed["sampling"],
        )
        fmt = parsed["format"]
        name = f"campaign.{fmt}"
        path = await self._in_thread(
            export_campaign, runner, numbers, fmt, str(self._job_dir(job) / name)
        )
        job.artifacts[name] = Path(path)
        return {
            "figures": numbers,
            "pairs": len(pairs),
            "cache": runner.cache_stats(),
        }

    async def _run_exploration(self, job: Job, parsed: Dict) -> Dict:
        from repro.explore.drivers import run_exploration, write_artifacts

        settings = parsed["settings"]
        loop = asyncio.get_running_loop()
        runner = ScheduledRunner(
            self.scheduler,
            scale=settings.scale(),
            kernel=settings.kernel,
            sampling=settings.sampling,
            # Outcomes surface from a worker thread; hop to the loop so
            # the event log stays single-threaded.
            on_outcome=lambda outcome: loop.call_soon_threadsafe(
                job.record_outcome, outcome
            ),
        )
        job.emit("batched", units="adaptive")
        job.emit("simulating")
        result = await self._in_thread(
            lambda: run_exploration(settings, runner=runner)
        )
        job.emit("assembling", artifacts=["frontier.json", "points.csv"])
        paths = await self._in_thread(
            write_artifacts, result, self._job_dir(job)
        )
        for name, path in paths.items():
            job.artifacts[Path(path).name] = Path(path)
        return {
            "points": len(result.scores),
            "frontier": len(result.frontier),
            "cache": result.cache_stats,
        }

    # ------------------------------------------------------------------
    # Shutdown.
    # ------------------------------------------------------------------

    async def shutdown(self, drain_timeout: float = 60.0) -> None:
        """Stop accepting work and settle every live job.

        Queued jobs fail immediately with a clear status; running jobs
        either complete (their batches drain) or fail when the scheduler
        refuses their next request. Job tasks are awaited so nothing is
        left dangling.
        """
        self.accepting = False
        for job in self.jobs.values():
            if job.state == "queued":
                job.fail("server shutting down before execution")
        tasks = [
            job.task
            for job in self.jobs.values()
            if job.task is not None and not job.task.done()
        ]
        if tasks:
            __, pending = await asyncio.wait(tasks, timeout=drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._job_pool.shutdown(wait=True)


def _displayable(parsed: Dict) -> Dict:
    """The spec echo in status payloads: JSON-safe, human-oriented."""
    display: Dict = {"type": parsed["type"]}
    scale: RunScale = parsed["scale"]
    display["scale"] = scale.num_instructions
    display["seed"] = scale.seed
    if parsed.get("kernel"):
        display["kernel"] = parsed["kernel"]
    if parsed.get("sampling") is not None:
        display["sampling"] = parsed["sampling"].as_dict()
    for key in ("benchmark", "scheme", "figures", "format"):
        if key in parsed:
            display[key] = parsed[key]
    if "settings" in parsed:
        display["settings"] = parsed["settings"].as_dict()
    return display
