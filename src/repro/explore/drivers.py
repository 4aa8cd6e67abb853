"""Exploration drivers: wire space → runner → objectives → frontier.

:func:`run_exploration` is the library entry point (the
``python -m repro.explore`` CLI is a thin argparse shim over it). It
executes every sampled point through the existing
:class:`~repro.experiments.runner.ExperimentRunner` memory → disk →
parallel stack, so a warm re-exploration resolves every simulation from
cache and refinement rounds only pay for genuinely new points — and all
runs stay bit-identical under every simulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.experiments.runner import ExperimentRunner, ResultStore, RunScale
from repro.explore.artifacts import (
    exploration_payload,
    exploration_rows,
    frontier_report,
    write_csv,
    write_json,
)
from repro.explore.objectives import (
    OBJECTIVES,
    ObjectiveScorer,
    PointScore,
    SuiteAggregator,
)
from repro.explore.pareto import pair_fronts, refine
from repro.explore.space import DesignSpace, default_space
from repro.workloads.suites import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    STRESS_BENCHMARKS,
    get_profile,
)

__all__ = [
    "DEFAULT_EXPLORE_BENCHMARKS",
    "ExplorationSettings",
    "ExplorationResult",
    "resolve_benchmarks",
    "run_exploration",
    "write_artifacts",
]

#: Default workload axis: the four stress scenarios plus one
#: representative of each paper regime (branchy int, memory-bound int,
#: streaming fp) — small enough for interactive runs, diverse enough
#: that the frontier is not one benchmark's opinion.
DEFAULT_EXPLORE_BENCHMARKS: Tuple[str, ...] = tuple(
    STRESS_BENCHMARKS + ["gzip", "mcf", "swim"]
)

_BENCHMARK_GROUPS = {
    "mini": DEFAULT_EXPLORE_BENCHMARKS,
    "stress": tuple(STRESS_BENCHMARKS),
    "int": tuple(INT_BENCHMARKS),
    "fp": tuple(FP_BENCHMARKS),
    "all": tuple(INT_BENCHMARKS + FP_BENCHMARKS + STRESS_BENCHMARKS),
}


def resolve_benchmarks(spec: str) -> Tuple[str, ...]:
    """Benchmark names for a ``--benchmarks`` spec.

    ``spec`` is a named group (``mini``, ``stress``, ``int``, ``fp``,
    ``all``) or a comma-separated list of profile names; unknown names
    raise the usual :class:`UnknownBenchmarkError` with the known set.
    """
    if spec in _BENCHMARK_GROUPS:
        return _BENCHMARK_GROUPS[spec]
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    if not names:
        raise ConfigurationError(f"empty benchmark spec {spec!r}")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate benchmark names in spec {spec!r}")
    for name in names:
        get_profile(name)  # raises UnknownBenchmarkError with the known set
    return names


@dataclass(frozen=True)
class ExplorationSettings:
    """Everything that determines an exploration (and its artifact).

    ``aggregate`` switches the workload mode: ``False`` (default) makes
    ``benchmarks`` a sampled axis (one point per (config, benchmark)
    pair); ``True`` makes it the aggregation *set* every point is
    scored across via :class:`~repro.explore.objectives.SuiteAggregator`.
    ``epsilon`` / ``frontier_budget`` tune the refinement loop's
    epsilon-dominance thinning and crowding-distance selection; their
    defaults disable both, and :meth:`as_dict` omits defaulted knobs so
    pre-existing artifacts stay byte-identical.

    ``sampling`` (a :class:`~repro.sampling.plan.SamplingPlan`) switches
    every simulation to the checkpointed sampled execution mode:
    objectives are scored from error-bounded estimates, confidence
    intervals ride into the artifacts, and — because warm-state
    checkpoints are scheme-independent — a big exploration pays the
    fast-forward once per benchmark, not once per point.
    """

    samples: int = 32
    rounds: int = 2
    seed: int = 11
    strategy: str = "mixed"
    benchmarks: Tuple[str, ...] = DEFAULT_EXPLORE_BENCHMARKS
    neighbors_per_point: int = 4
    num_instructions: int = 2000
    workers: int = 0
    kernel: Optional[str] = None
    aggregate: bool = False
    epsilon: float = 0.0
    frontier_budget: Optional[int] = None
    sampling: Optional[object] = None

    def validate(self) -> None:
        if self.samples < 1:
            raise ConfigurationError("need at least one sample")
        if self.rounds < 0:
            raise ConfigurationError("rounds cannot be negative")
        if self.neighbors_per_point < 1:
            raise ConfigurationError("need at least one neighbor per point")
        if not self.benchmarks:
            raise ConfigurationError("need at least one benchmark")
        if self.epsilon < 0:
            raise ConfigurationError("epsilon cannot be negative")
        if self.frontier_budget is not None and self.frontier_budget < 1:
            raise ConfigurationError("frontier budget must be at least 1")
        if self.sampling is not None:
            self.sampling.validate()
            # Fail before any simulation if the plan cannot fit the
            # exploration's actual measured region.
            scale = self.scale()
            self.sampling.slice_windows(
                scale.warmup_instructions, scale.num_instructions
            )

    def scale(self) -> RunScale:
        return RunScale(
            num_instructions=self.num_instructions,
            warmup_instructions=self.num_instructions // 2,
            seed=self.seed,
        )

    def as_dict(self) -> Dict[str, object]:
        settings: Dict[str, object] = {
            "samples": self.samples,
            "rounds": self.rounds,
            "seed": self.seed,
            "strategy": self.strategy,
            "benchmarks": list(self.benchmarks),
            "neighbors_per_point": self.neighbors_per_point,
            "num_instructions": self.num_instructions,
        }
        if self.aggregate:
            settings["aggregate"] = True
        if self.epsilon > 0:
            settings["epsilon"] = self.epsilon
        if self.frontier_budget is not None:
            settings["frontier_budget"] = self.frontier_budget
        if self.sampling is not None:
            settings["sampling"] = self.sampling.as_dict()
        return settings


@dataclass
class ExplorationResult:
    """Everything an exploration produced."""

    settings: ExplorationSettings
    space: DesignSpace
    scores: List[PointScore]
    frontier: List[PointScore]
    pair_fronts: Dict[str, List[PointScore]]
    rounds_log: List[Dict[str, int]]
    cache_stats: Dict[str, int]
    objective_names: Sequence[str] = OBJECTIVES

    def report(self) -> str:
        return frontier_report(self)


def run_exploration(
    settings: ExplorationSettings,
    space: Optional[DesignSpace] = None,
    store: Union[ResultStore, None, bool] = None,
    runner: Optional[ExperimentRunner] = None,
) -> ExplorationResult:
    """Sample, score and refine; returns the full result.

    ``space`` defaults to :func:`~repro.explore.space.default_space`
    over the settings' benchmarks (aggregated when ``settings.aggregate``
    is set). A custom space chooses the scorer: spaces declared with
    ``aggregate_benchmarks`` score through
    :class:`~repro.explore.objectives.SuiteAggregator` (one point per
    design, suite-wide objectives), others per (config, benchmark)
    pair. ``store`` selects the disk cache exactly as for
    :class:`ExperimentRunner` (``None`` = honour ``$REPRO_CACHE_DIR``,
    ``False`` = no disk layer).

    ``runner`` substitutes the execution stack itself: the campaign
    server passes its scheduler-backed runner here so exploration
    simulations coalesce with every other in-flight request. The runner
    must already embody the settings' scale and sampling plan (checked —
    the artifact's settings block must describe how points were actually
    simulated), and it owns the disk layer, so combining it with
    ``store`` is an error.
    """
    settings.validate()
    if runner is not None:
        if store is not None:
            raise ConfigurationError(
                "pass either store or runner, not both: a runner brings "
                "its own disk-cache layer"
            )
        from repro.common.config import stable_fingerprint

        expected = settings.scale()
        if stable_fingerprint(runner.scale) != stable_fingerprint(expected):
            raise ConfigurationError(
                f"runner scale {runner.scale} does not match the "
                f"settings' scale {expected}"
            )
        mismatched_sampling = (
            (runner.sampling is None) != (settings.sampling is None)
            or (
                runner.sampling is not None
                and stable_fingerprint(runner.sampling)
                != stable_fingerprint(settings.sampling)
            )
        )
        if mismatched_sampling:
            raise ConfigurationError(
                "runner sampling plan does not match settings.sampling"
            )
    if space is None:
        space = default_space(settings.benchmarks, aggregate=settings.aggregate)
    elif bool(space.aggregate_benchmarks) != settings.aggregate:
        # The artifact's settings block must describe how points were
        # actually scored; a custom space must agree with the flag.
        raise ConfigurationError(
            "settings.aggregate must match the space's workload mode: "
            f"aggregate={settings.aggregate} but the space "
            f"{'declares' if space.aggregate_benchmarks else 'lacks'} "
            "aggregate_benchmarks"
        )
    elif settings.aggregate and space.aggregate_benchmarks != tuple(
        settings.benchmarks
    ):
        # Same reason: scoring uses the space's suite, so the settings
        # must name that exact suite (in order).
        raise ConfigurationError(
            "settings.benchmarks must match the space's "
            f"aggregate_benchmarks: {tuple(settings.benchmarks)!r} vs "
            f"{space.aggregate_benchmarks!r}"
        )
    if runner is None:
        runner = ExperimentRunner(
            settings.scale(),
            store=store,
            workers=settings.workers,
            kernel=settings.kernel,
            sampling=settings.sampling,
        )
    if space.aggregate_benchmarks:
        scorer: ObjectiveScorer = SuiteAggregator(runner, space.aggregate_benchmarks)
    else:
        scorer = ObjectiveScorer(runner)
    assignments = space.sample(settings.strategy, settings.samples, settings.seed)
    points = space.expand(assignments)
    if not points:
        raise ConfigurationError("exploration sampled no valid points")
    scores = scorer.score_many(points)
    scores, rounds_log, frontier = refine(
        space,
        scorer.score_many,
        scores,
        rounds=settings.rounds,
        per_point=settings.neighbors_per_point,
        seed=settings.seed,
        epsilon=settings.epsilon,
        frontier_budget=settings.frontier_budget,
    )
    return ExplorationResult(
        settings=settings,
        space=space,
        scores=scores,
        frontier=frontier,
        pair_fronts=pair_fronts(scores),
        rounds_log=rounds_log,
        cache_stats=runner.cache_stats(),
    )


def write_artifacts(result: ExplorationResult, out_dir) -> Dict[str, Path]:
    """Write the frontier JSON and the per-point CSV; returns the paths."""
    out = Path(out_dir)
    return {
        "json": write_json(out / "frontier.json", exploration_payload(result)),
        "csv": write_csv(out / "points.csv", exploration_rows(result)),
    }
