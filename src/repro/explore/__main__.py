"""Design-space exploration CLI.

Command line::

    python -m repro.explore [--samples N] [--rounds K] [--seed S]
        [--strategy grid|random|mixed] [--benchmarks GROUP|a,b,c]
        [--aggregate [GROUP|a,b,c]] [--epsilon E] [--frontier-budget N]
        [--scale N] [--workers N] [--kernel naive|skip|specialized]
        [--sampling [SPEC]] [--neighbors N] [--out DIR]
        [--cache-dir DIR] [--no-cache] [--trace-out DIR]

Samples the scheme × geometry × processor × workload space, scores every
point on the paper's energy/performance objectives against the IQ_64_64
baseline in the same processor context, refines the Pareto frontier for
``--rounds`` adaptive rounds, prints a text report, and writes
``frontier.json`` + ``points.csv`` under ``--out``.

``--aggregate`` switches to suite-aggregated objectives: the workload
set (same specs as ``--benchmarks``; bare ``--aggregate`` means
``mini``) stops being a sampled axis and every design point is scored
*across the whole suite* — per-benchmark baselines calibrated
independently, geometric-mean aggregation, per-benchmark sub-scores in
the artifacts — so the frontier ranks suite-robust geometries, matching
the paper's cross-SPEC averages. ``--epsilon``/``--frontier-budget``
enable epsilon-dominance thinning and crowding-distance selection of
the refinement frontier.

``--sampling`` scores every point from the sampled execution mode
(:mod:`repro.sampling`): objectives become error-bounded estimates, and
the raw-metric confidence bounds ride into ``points.csv``
(``<metric>.ci_low``/``.ci_high`` columns) and the frontier JSON's
settings block. Each sampled simulation walks its own functional
fast-forward in memory. SPEC is the same ``key=value,...`` plan spec as
the campaign CLI.

Every simulation resolves through the campaign cache stack, so a second
invocation with the same seed reports 0 executions: the artifact is
byte-identical and the whole exploration replays from cache.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro import obs
from repro.common.config import VALID_KERNELS
from repro.common.errors import ConfigurationError, UnknownBenchmarkError
from repro.experiments.store import ResultStore, default_cache_dir
from repro.explore.drivers import (
    ExplorationSettings,
    resolve_benchmarks,
    run_exploration,
    write_artifacts,
)
from repro.explore.space import STRATEGIES

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--samples", type=int, default=32,
                        help="initial design points to sample (default 32)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="adaptive frontier-refinement rounds (default 2)")
    parser.add_argument("--seed", type=int, default=11,
                        help="master seed: fixes sampling, refinement and "
                             "simulation streams (default 11)")
    parser.add_argument("--strategy", choices=STRATEGIES,
                        default="mixed",
                        help="initial sampling strategy (default mixed: "
                             "half strided grid, half random)")
    parser.add_argument("--benchmarks", type=str, default="mini",
                        help="workload axis: mini|stress|int|fp|all or a "
                             "comma-separated list of profile names "
                             "(default mini: stress suite + gzip,mcf,swim)")
    parser.add_argument("--aggregate", type=str, nargs="?", const="mini",
                        default=None, metavar="GROUP",
                        help="suite-aggregated mode: score every design "
                             "point across this workload set (mini|stress|"
                             "int|fp|all or a comma list; bare --aggregate "
                             "= mini) instead of sampling benchmarks as an "
                             "axis; overrides --benchmarks")
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="epsilon-dominance thinning of the refinement "
                             "frontier, as a fraction of each objective's "
                             "frontier range (default 0: disabled)")
    parser.add_argument("--frontier-budget", type=int, default=None,
                        help="max frontier points expanded per refinement "
                             "round, chosen by crowding distance "
                             "(default: no cap)")
    parser.add_argument("--scale", type=int, default=2000,
                        help="dynamic instructions per run, half warm-up "
                             "(default 2000)")
    parser.add_argument("--workers", type=int, default=0,
                        help="simulation worker processes (0 = serial)")
    parser.add_argument("--kernel", choices=VALID_KERNELS, default=None,
                        help="simulation kernel override (results are "
                             "bit-identical under every kernel)")
    parser.add_argument("--sampling", type=str, nargs="?", const="",
                        default=None, metavar="SPEC",
                        help="sampled execution mode: score points from "
                             "error-bounded estimates (plan spec "
                             "key=value,... as in the campaign CLI; bare "
                             "--sampling = defaults). Confidence bounds "
                             "ride into the artifacts")
    parser.add_argument("--neighbors", type=int, default=4,
                        help="neighbourhood samples per frontier point and "
                             "refinement round (default 4)")
    parser.add_argument("--out", type=str, default="explore-out",
                        help="artifact directory for frontier.json and "
                             "points.csv (default ./explore-out)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="result-store directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-abella04)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result store (every point "
                             "simulates fresh and nothing persists)")
    parser.add_argument("--trace-out", type=str, default=None, metavar="DIR",
                        help="write observability sidecar files (Chrome "
                             "trace_event JSON, NDJSON event log, Prometheus "
                             "metrics snapshot) under DIR; artifacts stay "
                             "byte-identical (equivalent: REPRO_TRACE=DIR)")
    args = parser.parse_args(argv)
    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")

    try:
        benchmarks = resolve_benchmarks(args.aggregate or args.benchmarks)
    except (ConfigurationError, UnknownBenchmarkError) as exc:
        parser.error(str(exc))
    sampling = None
    if args.sampling is not None:
        from repro.sampling import SamplingPlan

        try:
            sampling = SamplingPlan.from_spec(args.sampling)
        except ConfigurationError as exc:
            parser.error(f"--sampling: {exc}")
    settings = ExplorationSettings(
        samples=args.samples,
        rounds=args.rounds,
        seed=args.seed,
        strategy=args.strategy,
        benchmarks=benchmarks,
        neighbors_per_point=args.neighbors,
        num_instructions=args.scale,
        workers=args.workers,
        kernel=args.kernel,
        aggregate=args.aggregate is not None,
        epsilon=args.epsilon,
        frontier_budget=args.frontier_budget,
        sampling=sampling,
    )
    try:
        settings.validate()
        settings.scale().validate()
    except (ConfigurationError, ValueError) as exc:
        parser.error(str(exc))
    if args.no_cache:
        store = False
    else:
        store = ResultStore(args.cache_dir) if args.cache_dir else ResultStore(
            default_cache_dir()
        )

    if args.trace_out:
        obs.configure(args.trace_out)
    started = obs.clock.perf_counter()
    try:
        with obs.span("explore", samples=args.samples, rounds=args.rounds):
            result = run_exploration(settings, store=store)
    finally:
        obs.flush()
    elapsed = obs.clock.perf_counter() - started
    paths = write_artifacts(result, args.out)

    print(result.report())
    print()
    print(f"artifacts: {paths['json']} {paths['csv']}")
    stats = result.cache_stats
    store_note = "" if args.no_cache else f" (store: {store.root})"
    print(
        f"explore: {len(result.scores)} points in {elapsed:.1f}s — "
        f"{stats['simulations']} executions, {stats['disk_hits']} disk hits, "
        f"{stats['memory_hits']} memory hits{store_note}"
    )


if __name__ == "__main__":
    main()
