"""Experiment runner: simulate (benchmark, scheme) pairs with caching.

Every figure reuses baseline runs, so results are resolved through a
three-layer cache::

    memory (this runner)  →  disk (ResultStore)  →  simulation

The memory layer keys on ``(benchmark, scheme_config)`` exactly as
before; the disk layer is content-addressed over the full processor
config, the benchmark profile, the :class:`RunScale` and the simulator
version tag (see :mod:`repro.experiments.store`), so a result computed by
any process at any time is reusable by every later one. Simulations that
do have to run can be fanned out across a ``multiprocessing`` pool
(:mod:`repro.experiments.parallel`) via :meth:`ExperimentRunner.run_many`
— the figure API (``run``/``ipc``/``ipc_loss_pct``) is unchanged and hits
the warmed memory cache.

``RunScale`` controls how big each simulation is; the defaults keep the
full benchmark harness in the minutes range on a laptop. The paper's
100M-instruction runs are out of reach for a pure-Python cycle simulator
— the scale knob is the honest way to trade fidelity for time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.common.config import (
    IssueSchemeConfig,
    ProcessorConfig,
    default_config,
    stable_fingerprint,
)
from repro.common.stats import SimulationStats
from repro.core.engine import KERNEL_SKIP, KernelTelemetry
from repro.core.processor import Processor
from repro.experiments.store import ResultStore, result_key
from repro.workloads import spill
from repro.workloads.generator import generate_trace
from repro.workloads.prewarm import prewarm
from repro.workloads.suites import get_profile
from repro.workloads.trace import Trace

__all__ = [
    "RunScale",
    "ExperimentRunner",
    "CacheTelemetry",
    "DEFAULT_SCALE",
    "SchemeOrConfig",
    "resolve_config",
    "scheme_label",
    "simulate_pair",
    "simulate_sampled_pair",
    "execute_pair",
    "resolve_trace",
]

#: Everywhere the experiments layer takes "what to simulate", it accepts
#: either a bare issue-scheme config (simulated inside the Table 1
#: processor, the common case) or a full :class:`ProcessorConfig` (the
#: exploration subsystem varies processor knobs too).
SchemeOrConfig = Union[IssueSchemeConfig, ProcessorConfig]


def resolve_config(scheme: SchemeOrConfig) -> ProcessorConfig:
    """Full processor config for a scheme-or-config simulation target."""
    if isinstance(scheme, ProcessorConfig):
        return scheme
    return default_config(scheme)


def scheme_label(scheme: SchemeOrConfig) -> str:
    """Short human label for a simulation target (telemetry only)."""
    if isinstance(scheme, ProcessorConfig):
        scheme = scheme.scheme
    return getattr(scheme, "name", None) or type(scheme).__name__


@dataclass(frozen=True)
class RunScale:
    """Size of one simulation."""

    num_instructions: int = 6000
    warmup_instructions: int = 3000
    seed: int = 11

    def validate(self) -> None:
        if self.num_instructions <= self.warmup_instructions:
            raise ValueError("need more instructions than warm-up")
        if self.num_instructions < 500:
            raise ValueError("runs this short are all warm-up noise")


DEFAULT_SCALE = RunScale()

#: Process-level trace memo, the sibling of the prewarm snapshot memo:
#: trace generation is deterministic in (profile, length, seed) and a
#: benchmark harness spins up many runners over the same few traces, so
#: generation (and the construction-time validation walk) runs once per
#: process. Keyed on the profile *fingerprint*, not its name, so editing
#: or re-registering a profile can never serve a stale stream.
_TRACE_MEMO: Dict[Tuple[str, int, int], Trace] = {}


def resolve_trace(
    benchmark: str, scale: RunScale, trace_dir: Optional[str] = None
) -> Trace:
    """The benchmark's trace at ``scale``: memo, spill file, or generation.

    The one trace lookup of the experiments layer. It tries the
    process memo first, then (when ``trace_dir`` is given) a spill file
    that :func:`repro.workloads.spill.materialize_trace` wrote, and
    generates the trace only when both miss. Whatever it finds is filed
    in the memo. Every path yields the same stream.
    """
    profile = get_profile(benchmark)
    key = (stable_fingerprint(profile), scale.num_instructions, scale.seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        if trace_dir is not None:
            trace = spill.load_trace(
                trace_dir, profile, scale.num_instructions, scale.seed
            )
        if trace is None:
            trace = generate_trace(profile, scale.num_instructions, seed=scale.seed)
        _TRACE_MEMO[key] = trace
    return trace


@dataclass
class CacheTelemetry:
    """Where this runner's results came from, cumulatively."""

    memory_hits: int = 0
    disk_hits: int = 0
    simulations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "simulations": self.simulations,
        }


def simulate_pair(
    benchmark: str,
    scheme: SchemeOrConfig,
    scale: RunScale,
    trace: Optional[Trace] = None,
    kernel: str = KERNEL_SKIP,
) -> Tuple[SimulationStats, Trace, KernelTelemetry]:
    """Simulate one (benchmark, scheme-or-config) pair from scratch.

    ``scheme`` is an :class:`IssueSchemeConfig` (run inside the Table 1
    processor) or a full :class:`ProcessorConfig`. Pass a previously
    generated ``trace`` to skip trace generation (traces are
    deterministic in (profile, length, seed), so a reused trace is
    indistinguishable from a fresh one). ``kernel`` names the simulation
    kernel — a wall-clock knob only, results are bit-identical either
    way. Returns the stats, the trace for reuse and the run's own kernel
    telemetry.
    """
    profile = get_profile(benchmark)
    if trace is None:
        trace = resolve_trace(benchmark, scale)
    processor = Processor(resolve_config(scheme), trace)
    prewarm(processor.hierarchy, profile, scale.seed)
    stats = processor.run(
        warmup_instructions=scale.warmup_instructions, kernel=kernel
    )
    return stats, trace, processor.kernel_telemetry


def simulate_sampled_pair(
    benchmark: str,
    scheme: SchemeOrConfig,
    scale: RunScale,
    sampling,
    trace: Optional[Trace] = None,
    kernel: str = KERNEL_SKIP,
):
    """Sampled-mode sibling of :func:`simulate_pair`.

    Runs the :func:`repro.core.engine.run_sampled` execution mode over
    the same trace and measured region a full run would use: detailed
    slices per ``sampling`` (a :class:`~repro.sampling.plan.SamplingPlan`)
    and in-memory functional fast-forward between them. Returns
    ``(sampled, trace, telemetry)`` where ``sampled`` is a
    :class:`~repro.sampling.estimator.SampledStats` — its ``.stats`` is
    the synthesized whole-run statistics object that caches and figure
    generators consume — and ``telemetry`` covers the detailed slices
    only.
    """
    from repro.core import engine
    from repro.sampling.estimator import estimate_sampled

    profile = get_profile(benchmark)
    if trace is None:
        trace = resolve_trace(benchmark, scale)
    config = resolve_config(scheme)
    windows, slices, telemetry = engine.run_sampled(
        config,
        trace,
        sampling,
        scale.warmup_instructions,
        scale.num_instructions,
        profile=profile,
        prewarm_seed=scale.seed,
        kernel=kernel,
    )
    sampled = estimate_sampled(
        sampling,
        config,
        windows,
        slices,
        scale.num_instructions - scale.warmup_instructions,
        telemetry.executed_cycles,
    )
    return sampled, trace, telemetry


def execute_pair(
    benchmark: str,
    scheme: SchemeOrConfig,
    scale: RunScale,
    kernel: Optional[str] = None,
    sampling=None,
    trace_dir: Optional[str] = None,
):
    """Simulate one uncached pair and record its telemetry.

    The one execution path: :class:`ExperimentRunner`'s serial path and
    every :mod:`~repro.experiments.parallel` pool worker call it. It
    takes the trace from :func:`resolve_trace` (pool workers pass the
    spill directory), runs :func:`simulate_pair`, or
    :func:`simulate_sampled_pair` when ``sampling`` is a plan, and
    records that run's own kernel telemetry into the ``repro.obs``
    registry, so runs overlapping in other threads never leak cycles
    into each other's counts. Returns ``(stats, sampled)``; ``sampled``
    is ``None`` for full runs.
    """
    kernel = kernel or KERNEL_SKIP
    with obs.span(
        "runner.simulate",
        benchmark=benchmark,
        scheme=scheme_label(scheme),
        kernel=kernel,
        mode="sampled" if sampling is not None else "full",
    ):
        trace = resolve_trace(benchmark, scale, trace_dir)
        if sampling is None:
            stats, __, telemetry = simulate_pair(
                benchmark, scheme, scale, trace=trace, kernel=kernel
            )
            sampled = None
        else:
            sampled, __, telemetry = simulate_sampled_pair(
                benchmark,
                scheme,
                scale,
                sampling,
                trace=trace,
                kernel=kernel,
            )
            stats = sampled.stats
    obs.record_kernel_delta(kernel, telemetry.as_dict())
    if sampled is not None:
        # The ffwd-vs-detailed split: how much of the instruction
        # stream went through functional fast-forward instead of
        # detailed simulation.
        detailed = int(sampled.detailed_instructions)
        obs.counter("repro_sampling_detailed_instructions_total").inc(detailed)
        obs.counter("repro_sampling_ffwd_instructions_total").inc(
            max(0, scale.num_instructions - detailed)
        )
    return stats, sampled


class ExperimentRunner:
    """Runs and caches simulations for the figure generators.

    ``store`` selects the disk layer: a :class:`ResultStore` uses that
    store, ``None`` (the default) uses ``$REPRO_CACHE_DIR`` if set and no
    disk cache otherwise, and ``False`` disables the disk layer outright.
    ``workers`` is the default pool size for :meth:`run_many` (0 = serial;
    individual calls may override it). ``kernel`` pins the simulation
    kernel for every run this runner executes (``None`` = ``skip``); it
    never affects cache keys because every kernel is bit-identical.

    ``sampling`` switches the runner to the sampled execution mode: a
    :class:`~repro.sampling.plan.SamplingPlan` makes every simulation a
    sampled run (detailed slices + functional fast-forward) whose
    statistics are error-bounded *estimates*. The plan hashes into
    every disk-cache key, so sampled and full results never alias and
    warm reruns of sampled campaigns replay with zero executions; the
    per-pair estimate record (confidence intervals included) is cached
    alongside the stats and available via :meth:`sampled_result`.
    """

    def __init__(
        self,
        scale: RunScale = DEFAULT_SCALE,
        store: Union[ResultStore, None, bool] = None,
        workers: int = 0,
        kernel: Optional[str] = None,
        sampling=None,
        key_salt: Optional[str] = None,
    ) -> None:
        scale.validate()
        self.scale = scale
        if sampling is not None:
            sampling.validate()
        self.sampling = sampling
        if store is None:
            self.store: Optional[ResultStore] = ResultStore.from_env()
        elif store is False:
            self.store = None
        else:
            self.store = store
        self.workers = workers
        self.kernel = kernel
        self.key_salt = key_salt
        self.telemetry = CacheTelemetry()
        #: Resolution provenance of the most recent ``_lookup`` hit
        #: ("memory"/"disk") — telemetry annotation only.
        self._last_source: Optional[str] = None
        self._result_cache: Dict[Tuple[str, SchemeOrConfig], SimulationStats] = {}
        #: Estimate records of sampled runs, keyed like the result cache.
        self._sampled_cache: Dict[Tuple[str, SchemeOrConfig], object] = {}
        #: Values derived from resolved results, such as figure data. A
        #: resolved pair never changes for this runner's life, so an entry
        #: stays valid if its key names every other input it read.
        self.derived: Dict[tuple, object] = {}

    def _trace_dir(self) -> Optional[str]:
        """Spill directory for worker-shared traces (disk cache root)."""
        if self.store is None:
            return None
        return str(self.store.root / "traces")

    def store_key(self, benchmark: str, scheme: SchemeOrConfig) -> str:
        """Content address of this pair's result at this runner's scale.

        With a sampling plan configured the plan is part of the address,
        so sampled estimates and full results occupy disjoint keys; a
        ``key_salt`` partitions this runner's results into their own
        namespace (differential oracles salt each leg so contractually
        bit-identical runs cannot serve each other's cache entries).
        """
        return result_key(
            resolve_config(scheme),
            get_profile(benchmark),
            self.scale,
            sampling=self.sampling,
            salt=self.key_salt,
        )

    def cache_stats(self) -> Dict[str, int]:
        """Cumulative memory-hit / disk-hit / simulation counts."""
        return self.telemetry.as_dict()

    def _lookup(
        self, benchmark: str, scheme: SchemeOrConfig
    ) -> Optional[SimulationStats]:
        """Memory then disk lookup; promotes disk hits into memory."""
        key = (benchmark, scheme)
        stats = self._result_cache.get(key)
        if stats is not None:
            self.telemetry.memory_hits += 1
            self._last_source = "memory"
            obs.counter("repro_runner_memory_hits_total").inc()
            return stats
        if self.store is not None:
            loaded = self.store.load_with_extra(self.store_key(benchmark, scheme))
            if loaded is not None:
                stats, extra = loaded
                if self.sampling is not None:
                    sampled = self._rebuild_sampled(extra, stats)
                    if sampled is None:
                        return None  # damaged estimate record: recompute
                    self._sampled_cache[key] = sampled
                self.telemetry.disk_hits += 1
                self._last_source = "disk"
                obs.counter("repro_runner_disk_hits_total").inc()
                self._result_cache[key] = stats
                return stats
        return None

    def _rebuild_sampled(self, extra, stats: SimulationStats):
        """Reconstruct a cached estimate record; ``None`` if damaged."""
        from repro.common.errors import ConfigurationError
        from repro.sampling.estimator import SampledStats

        if extra is None:
            return None
        try:
            return SampledStats.from_dict(extra, stats)
        except (KeyError, TypeError, ValueError, AttributeError,
                ConfigurationError):
            # ConfigurationError covers records whose embedded plan no
            # longer validates — damage, like the rest: a cache miss.
            return None

    def _record(
        self,
        benchmark: str,
        scheme: SchemeOrConfig,
        stats: SimulationStats,
        sampled=None,
    ) -> None:
        """File a freshly simulated result into memory and disk layers."""
        self.telemetry.simulations += 1
        obs.counter("repro_runner_simulations_total").inc()
        self._result_cache[(benchmark, scheme)] = stats
        if sampled is not None:
            self._sampled_cache[(benchmark, scheme)] = sampled
        if self.store is not None:
            self.store.save(
                self.store_key(benchmark, scheme),
                stats,
                extra=sampled.to_dict() if sampled is not None else None,
            )

    def _execute(self, benchmark: str, scheme: SchemeOrConfig) -> SimulationStats:
        """Simulate one uncached pair in process and file the result."""
        stats, sampled = execute_pair(
            benchmark,
            scheme,
            self.scale,
            kernel=self.kernel,
            sampling=self.sampling,
        )
        self._record(benchmark, scheme, stats, sampled)
        return stats

    def run(self, benchmark: str, scheme: SchemeOrConfig) -> SimulationStats:
        """Simulate one (benchmark, scheme-or-config) pair (cached)."""
        with obs.span(
            "runner.resolve",
            benchmark=benchmark,
            scheme=scheme_label(scheme),
        ) as info:
            stats = self._lookup(benchmark, scheme)
            if stats is not None:
                info["source"] = self._last_source
            else:
                info["source"] = "simulated"
                stats = self._execute(benchmark, scheme)
            if obs.trace_enabled():
                # Per-key provenance: which content address answered.
                info["key"] = self.store_key(benchmark, scheme)
        return stats

    def sampled_result(self, benchmark: str, scheme: SchemeOrConfig):
        """The pair's :class:`SampledStats` estimate record, or ``None``.

        Only populated when the runner has a sampling plan; :meth:`run`
        (or a prefetch) must have resolved the pair first. Cache-loaded
        records are bit-identical to freshly computed ones — floats
        round-trip exactly through the JSON payload.
        """
        if self.sampling is None:
            return None
        key = (benchmark, scheme)
        if key not in self._sampled_cache:
            self.run(benchmark, scheme)
        return self._sampled_cache.get(key)

    def pending_pairs(
        self, pairs: Sequence[Tuple[str, SchemeOrConfig]]
    ) -> List[Tuple[str, SchemeOrConfig]]:
        """Deduplicated pairs not resolvable from memory or disk, in order.

        This is the execution frontier of :meth:`run_many`: everything it
        returns genuinely needs a simulation (and, as a side effect, every
        cached pair has been promoted into the memory layer). The serve
        subsystem's scheduler-backed runner reuses it to route exactly
        these misses through the shared coalescing scheduler.
        """
        misses: List[Tuple[str, SchemeOrConfig]] = []
        for benchmark, scheme in pairs:
            if self._lookup(benchmark, scheme) is None:
                pair = (benchmark, scheme)
                if pair not in misses:
                    misses.append(pair)
        return misses

    def run_many(
        self,
        pairs: Sequence[Tuple[str, SchemeOrConfig]],
        workers: Optional[int] = None,
    ) -> List[SimulationStats]:
        """Resolve many pairs at once; results in input order.

        Cached pairs (memory or disk) never reach the pool. The remaining
        misses run on ``workers`` processes (default: the runner's own
        ``workers`` setting; 0 or 1 means in-process serial execution).
        Results are identical to serial :meth:`run` calls in any case —
        only wall-clock time changes.
        """
        workers = self.workers if workers is None else workers
        misses = self.pending_pairs(pairs)
        if misses:
            if workers and workers > 1:
                from repro.experiments.parallel import simulate_matrix

                results = simulate_matrix(
                    misses,
                    self.scale,
                    workers,
                    kernel=self.kernel,
                    trace_dir=self._trace_dir(),
                    sampling=self.sampling,
                )
                for (benchmark, scheme), result in zip(misses, results):
                    if self.sampling is not None:
                        self._record(benchmark, scheme, result.stats, result)
                    else:
                        self._record(benchmark, scheme, result)
            else:
                for benchmark, scheme in misses:
                    self._execute(benchmark, scheme)
        return [self._result_cache[(b, s)] for b, s in pairs]

    def prefetch(
        self,
        pairs: Sequence[Tuple[str, SchemeOrConfig]],
        workers: Optional[int] = None,
    ) -> None:
        """Warm the memory cache for ``pairs`` (parallel when configured).

        After a prefetch, figure generators calling :meth:`run`/:meth:`ipc`
        serially hit the memory layer only.
        """
        self.run_many(pairs, workers=workers)

    def ipc(self, benchmark: str, scheme: SchemeOrConfig) -> float:
        return self.run(benchmark, scheme).ipc

    def ipc_loss_pct(
        self, benchmark: str, scheme: SchemeOrConfig, baseline: SchemeOrConfig
    ) -> float:
        """IPC loss of ``scheme`` relative to ``baseline``, in percent."""
        base = self.ipc(benchmark, baseline)
        return 100.0 * (base - self.ipc(benchmark, scheme)) / base

    def average_loss_pct(
        self,
        benchmarks: Iterable[str],
        scheme: SchemeOrConfig,
        baseline: SchemeOrConfig,
    ) -> float:
        """Arithmetic-mean IPC loss across a suite, in percent."""
        losses: List[float] = [
            self.ipc_loss_pct(b, scheme, baseline) for b in benchmarks
        ]
        return sum(losses) / len(losses)
