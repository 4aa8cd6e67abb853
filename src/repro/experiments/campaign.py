"""Run the full figure campaign and render a text report.

Command line::

    python -m repro.experiments.campaign [--scale N] [--seed S]
        [--figures 2,3,8] [--schemes IQ_64_64,IF_distr] [--workers N]
        [--benchmarks int|fp|all]
        [--kernel naive|skip|specialized]
        [--sampling [SPEC]] [--sampling-validate] [--list] [--version-tag]
        [--cache-dir DIR] [--no-cache]
        [--output json|csv] [--output-path FILE] [--trace-out DIR]

This is the batch entry point behind the per-figure benchmarks: it
shares one cached runner across all figures, prefetches the whole
(benchmark, scheme) matrix — across ``--workers`` processes when asked —
and reuses any result already present in the on-disk store, so the whole
campaign costs one simulation per (benchmark, scheme) pair *ever*, not
per invocation. Pass ``--no-cache`` to force every simulation to run
fresh in this process (a cold run that also leaves the store untouched).

``--figures`` recomputes a single figure (or a few) without sweeping the
whole suite; ``--schemes`` narrows further to the named scheme
configurations (paper names, e.g. ``IQ_64_64`` or
``IssueFIFO_8x8_16x16``). Because a figure needs its *full* matrix to
render, a ``--schemes`` run is a warm-only sweep: it simulates (and
caches) exactly the selected pairs and reports what it did instead of
rendering — rerun with ``--figures`` alone afterwards to render from the
warm cache.

``--kernel`` selects the simulation loop: ``skip`` (default) jumps over
provably dead cycles, ``naive`` ticks every cycle, and ``specialized``
runs a per-configuration generated kernel (:mod:`repro.backends`).
Results are bit-identical across all three; the campaign footer reports
how many cycles were actually executed vs. skipped.

To profile a campaign, run it under :mod:`cProfile`:
``python -m cProfile -o campaign.prof -m repro.experiments.campaign ...``.

``--output json|csv`` additionally exports the rendered figures' *data*
(via the exploration subsystem's atomic artifact writers): JSON keeps
each figure's native mapping shape under ``figure_<n>`` keys; CSV
flattens every figure into ``(figure, title, series/column/row, value)``
records. ``--output-path`` overrides the default ``campaign.json`` /
``campaign.csv``.

``--sampling [SPEC]`` switches every simulation to the sampled
execution mode (:mod:`repro.sampling`): figures are computed
from error-bounded estimates at a fraction of the detailed cycles. SPEC
is ``key=value,...`` over ``mode, slices, slice, warmup, confidence,
seed, error`` (bare ``--sampling`` = plan defaults). Adding
``--sampling-validate`` instead runs every selected benchmark *both*
full and sampled under the Section 4 baseline and prints the
sampled-vs-full IPC error per benchmark against the plan's error bound
and confidence interval — exiting nonzero if any benchmark violates the
bound, which is the CI gate for the sampling contract.

``--list`` prints the campaign's catalog — benchmarks per suite, figure
numbers with titles, scheme names and simulation kernels — and exits;
``--version-tag`` prints the version tags and kernels as JSON (the
service's ``GET /v1/version``) and exits.

``--trace-out DIR`` (or ``REPRO_TRACE=DIR``) turns on the
:mod:`repro.obs` tracing sidecar: Chrome-``trace_event`` JSON, an NDJSON
event log and a Prometheus metrics snapshot land under ``DIR`` (one set
of pid-suffixed files per process, pool workers included). Telemetry is
strictly write-only: cache keys, simulated statistics and every artifact
are byte-identical with tracing on or off.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List

from repro import obs
from repro.common.config import scheme_name
from repro.common.errors import ConfigurationError
from repro.core import engine
from repro.experiments import figures as fig_mod
from repro.experiments.configs import IQ_64_64
from repro.experiments.report import (
    render_breakdown,
    render_listing,
    render_series,
    render_table,
)
from repro.experiments.runner import ExperimentRunner, RunScale
from repro.experiments.store import ResultStore
from repro.sampling import SamplingPlan
from repro.workloads.suites import FP_BENCHMARKS, INT_BENCHMARKS, STRESS_BENCHMARKS

__all__ = [
    "run_campaign",
    "main",
    "ALL_FIGURES",
    "figures_for_suite",
    "figure_data",
    "figure_rows",
    "export_campaign",
    "render_catalog",
    "sampling_validation",
    "version_payload",
]

_SERIES_FIGURES = {2, 3, 4, 6}
_TABLE_FIGURES = {7, 8, 12, 13, 14, 15}
_BREAKDOWN_FIGURES = {9, 10, 11}
ALL_FIGURES = sorted(_SERIES_FIGURES | _TABLE_FIGURES | _BREAKDOWN_FIGURES)

#: Figures whose matrix touches only one benchmark suite. Everything else
#: (the energy/efficiency figures) aggregates over both suites.
_INT_ONLY_FIGURES = {2, 7}
_FP_ONLY_FIGURES = {3, 4, 6, 8}

_TITLES = {
    2: "% IPC loss, IssueFIFO, SPECINT",
    3: "% IPC loss, IssueFIFO, SPECFP",
    4: "% IPC loss, LatFIFO, SPECFP",
    6: "% IPC loss, MixBUFF, SPECFP",
    7: "IPC SPECINT",
    8: "IPC SPECFP",
    9: "Energy breakdown IQ_64_64",
    10: "Energy breakdown IF_distr",
    11: "Energy breakdown MB_distr",
    12: "Normalized power",
    13: "Normalized energy",
    14: "Normalized energy x delay",
    15: "Normalized energy x delay^2",
}


def figures_for_suite(benchmarks: str) -> List[int]:
    """Figure numbers whose matrix fits the ``--benchmarks`` selection."""
    if benchmarks == "int":
        return sorted(_INT_ONLY_FIGURES)
    if benchmarks == "fp":
        return sorted(_FP_ONLY_FIGURES)
    return ALL_FIGURES


def figure_data(runner: ExperimentRunner, number: int) -> Dict:
    """Figure ``number``'s data, generated once per runner and suite set.

    The key names both suites: a caller may narrow ``figures.INT_BENCHMARKS``
    or ``figures.FP_BENCHMARKS`` on a runner that already rendered the figure.
    """
    key = ("figure", number,
           tuple(fig_mod.INT_BENCHMARKS), tuple(fig_mod.FP_BENCHMARKS))
    if key not in runner.derived:
        runner.derived[key] = getattr(fig_mod, f"figure{number}")(runner)
    return runner.derived[key]


def figure_rows(number: int, data: Dict) -> List[Dict]:
    """Flatten one figure's data into CSV-friendly records."""
    title = _TITLES[number]
    rows: List[Dict] = []
    if number in _SERIES_FIGURES:
        for series, value in data.items():
            rows.append({"figure": number, "title": title,
                         "series": series, "value": value})
    elif number in _BREAKDOWN_FIGURES:
        for suite, components in data.items():
            for component, value in components.items():
                rows.append({"figure": number, "title": title, "suite": suite,
                             "component": component, "value": value})
    else:
        for column, cells in data.items():
            for row, value in cells.items():
                rows.append({"figure": number, "title": title, "column": column,
                             "row": row, "value": value})
    return rows


def export_campaign(
    runner: ExperimentRunner, figure_numbers: List[int], fmt: str, path: str
) -> str:
    """Write the figures' data as a JSON or CSV artifact; returns the path.

    Reuses the exploration subsystem's atomic writers. The data comes
    from :func:`figure_data`, so a figure that ``run_campaign`` already
    rendered on this runner is not generated again; any other figure is
    generated once, from the runner's caches.
    """
    from repro.explore.artifacts import write_csv, write_json

    if fmt == "json":
        payload = {
            f"figure_{number}": {
                "title": _TITLES[number],
                "data": figure_data(runner, number),
            }
            for number in figure_numbers
        }
        return str(write_json(path, payload))
    rows: List[Dict] = []
    for number in figure_numbers:
        rows.extend(figure_rows(number, figure_data(runner, number)))
    return str(write_csv(path, rows))


def version_payload() -> Dict[str, object]:
    """Everything that identifies this simulator build's cache namespace.

    The source-derived version tags are the levers behind every
    "warm rerun = 0 simulations" guarantee, so cache debugging starts
    with comparing them between two processes. This payload is shared
    verbatim by ``campaign --version-tag`` and the service's
    ``GET /v1/version`` endpoint — byte-identical JSON from both, by
    construction, so CLI-vs-service cache mismatches are diagnosable
    with one diff.
    """
    from repro.experiments.store import SAMPLING_VERSION_TAG, SIMULATOR_VERSION_TAG

    return {
        "simulator_version_tag": SIMULATOR_VERSION_TAG,
        "sampling_version_tag": SAMPLING_VERSION_TAG,
        "kernels": list(engine.VALID_KERNELS),
    }


def render_catalog() -> str:
    """The campaign's discoverable inputs, as a deterministic listing.

    Scheme names are collected from the full figure matrix, so the list
    is exactly what ``--schemes`` accepts; the stress benchmarks are
    listed too because the shared profile registry (and the exploration
    CLI) accepts them even though no paper figure uses them.
    """
    schemes = sorted(
        {scheme_name(scheme) for __, scheme in fig_mod.required_runs(ALL_FIGURES)}
    )
    return render_listing(
        "Campaign catalog",
        {
            "benchmarks (int)": INT_BENCHMARKS,
            "benchmarks (fp)": FP_BENCHMARKS,
            "benchmarks (stress, exploration-only)": STRESS_BENCHMARKS,
            "figures": [f"{number}: {_TITLES[number]}" for number in ALL_FIGURES],
            "schemes": schemes,
            "kernels": list(engine.VALID_KERNELS),
            "execution modes": ["full (default)", "sampled (--sampling)"],
        },
    )


def sampling_validation(
    scale: RunScale,
    store,
    plan: SamplingPlan,
    benchmarks: List[str],
    workers: int = 0,
    kernel: str = None,
) -> Dict[str, Dict[str, float]]:
    """Sampled-vs-full error per benchmark under the Section 4 baseline.

    Runs each benchmark twice — full detailed simulation and the sampled
    execution mode — through two runners sharing the same store (the
    plan keeps their keys disjoint), and reports per benchmark: both
    IPCs, the relative error in percent, the reported confidence-
    interval halfwidth in percent, the plan's bound, and the fraction of
    instructions the sampled run simulated in detail.
    """
    full_runner = ExperimentRunner(scale, store=store, workers=workers, kernel=kernel)
    sampled_runner = ExperimentRunner(
        scale, store=store, workers=workers, kernel=kernel, sampling=plan
    )
    pairs = [(benchmark, IQ_64_64) for benchmark in benchmarks]
    full_runner.prefetch(pairs, workers=workers)
    sampled_runner.prefetch(pairs, workers=workers)
    table: Dict[str, Dict[str, float]] = {
        "full_ipc": {},
        "sampled_ipc": {},
        "err_pct": {},
        "ci_pct": {},
        "bound_pct": {},
        "detail_pct": {},
    }
    for benchmark in benchmarks:
        full = full_runner.run(benchmark, IQ_64_64)
        sampled = sampled_runner.sampled_result(benchmark, IQ_64_64)
        estimate = sampled.estimates["ipc"]
        table["full_ipc"][benchmark] = full.ipc
        table["sampled_ipc"][benchmark] = estimate.mean
        table["err_pct"][benchmark] = (
            100.0 * abs(estimate.mean - full.ipc) / full.ipc
        )
        table["ci_pct"][benchmark] = 100.0 * estimate.relative_halfwidth
        table["bound_pct"][benchmark] = 100.0 * plan.target_relative_error
        table["detail_pct"][benchmark] = (
            100.0 * sampled.detailed_instructions / scale.num_instructions
        )
    return table


def run_campaign(
    runner: ExperimentRunner,
    figure_numbers: List[int],
    workers: int = 0,
) -> Dict[int, str]:
    """Generate and render the requested figures; returns text per figure.

    The figures' full (benchmark, scheme) matrix is prefetched first —
    in parallel when ``workers > 1`` — so the generators themselves only
    read the warm cache.
    """
    for number in figure_numbers:
        if number not in _TITLES:
            raise ValueError(f"unknown figure {number}; known: {ALL_FIGURES}")
    runner.prefetch(fig_mod.required_runs(figure_numbers), workers=workers)
    rendered: Dict[int, str] = {}
    for number in figure_numbers:
        data = figure_data(runner, number)
        title = f"Figure {number}. {_TITLES[number]}"
        if number in _SERIES_FIGURES:
            rendered[number] = render_series(title, data)
        elif number in _BREAKDOWN_FIGURES:
            rendered[number] = render_breakdown(title, data)
        else:
            rendered[number] = render_table(title, data)
    return rendered


def main(argv: List[str] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=4000,
                        help="dynamic instructions per run (half is warm-up)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--figures", type=str, default=None,
                        help="comma-separated figure numbers (default: all "
                             "compatible with --benchmarks)")
    parser.add_argument("--schemes", type=str, default=None,
                        help="comma-separated scheme names (paper naming, "
                             "e.g. IQ_64_64,IF_distr): simulate only those "
                             "pairs of the selected figures and skip "
                             "rendering (a warm-only sweep)")
    parser.add_argument("--workers", type=int, default=0,
                        help="simulation worker processes (0 = serial)")
    parser.add_argument("--benchmarks", choices=("int", "fp", "all"),
                        default="all",
                        help="restrict the sweep to one SPEC suite "
                             "(int: figures 2,7; fp: figures 3,4,6,8)")
    parser.add_argument("--kernel", choices=engine.VALID_KERNELS,
                        default="skip",
                        help="simulation kernel: event-driven cycle "
                             "skipping (default), the naive per-cycle "
                             "loop, or the per-config generated "
                             "kernel; results are bit-identical")
    parser.add_argument("--sampling", type=str, nargs="?", const="",
                        default=None, metavar="SPEC",
                        help="sampled execution mode: statistics become "
                             "error-bounded estimates from detailed slices "
                             "+ functional fast-forward. SPEC is "
                             "key=value,... over mode,slices,slice,warmup,"
                             "confidence,seed,error (bare --sampling = "
                             "plan defaults)")
    parser.add_argument("--sampling-validate", action="store_true",
                        help="with --sampling: simulate every selected "
                             "benchmark full AND sampled under the "
                             "baseline scheme, print the per-benchmark "
                             "sampled-vs-full IPC error table, and exit "
                             "nonzero if any benchmark violates the "
                             "plan's relative-error bound")
    parser.add_argument("--list", action="store_true",
                        help="print available benchmarks, figures, schemes "
                             "and kernels, then exit")
    parser.add_argument("--version-tag", action="store_true",
                        help="print the simulator/sampling version tags and "
                             "the simulation kernels as JSON, then exit "
                             "(byte-identical to the service's GET "
                             "/v1/version — the cache-debugging parity "
                             "check between CLI and service)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="result-store directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-abella04)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result store entirely "
                             "(forces a cold, non-persisting run)")
    parser.add_argument("--output", choices=("json", "csv"), default=None,
                        help="also export the rendered figures' data as an "
                             "artifact (JSON keeps figure shapes, CSV "
                             "flattens to records)")
    parser.add_argument("--output-path", type=str, default=None,
                        help="artifact path for --output (default "
                             "campaign.json / campaign.csv)")
    parser.add_argument("--trace-out", type=str, default=None, metavar="DIR",
                        help="write observability sidecar files under DIR: "
                             "Chrome trace_event JSON (Perfetto-loadable), "
                             "an NDJSON event log and a Prometheus metrics "
                             "snapshot, pid-suffixed per process. Purely "
                             "additive: results and artifacts are "
                             "byte-identical with or without it "
                             "(equivalent: REPRO_TRACE=DIR)")
    args = parser.parse_args(argv)

    if args.list or args.version_tag:
        # --list and --version-tag are pure catalog queries; accepting
        # other flags next to them would silently ignore those flags (the
        # early return below never reaches the run path), so any other
        # non-default flag is an error.
        query = "--version-tag" if args.version_tag else "--list"
        other = (
            "scale", "seed", "figures", "schemes", "workers", "benchmarks",
            "kernel", "sampling", "sampling_validate", "cache_dir",
            "no_cache", "output", "output_path", "trace_out",
            "list" if args.version_tag else "version_tag",
        )
        ignored = [
            "--" + name.replace("_", "-")
            for name in other
            if getattr(args, name) != parser.get_default(name)
        ]
        if ignored:
            parser.error(
                f"{query} prints and exits; it cannot be combined "
                f"with other flags ({', '.join(ignored)})"
            )
        if args.version_tag:
            print(json.dumps(version_payload(), indent=2, sort_keys=True))
        else:
            print(render_catalog())
        return

    if args.output_path and not args.output:
        parser.error("--output-path requires --output json|csv")
    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")

    plan = None
    if args.sampling is not None:
        try:
            plan = SamplingPlan.from_spec(args.sampling)
        except ConfigurationError as exc:
            parser.error(f"--sampling: {exc}")
    if args.sampling_validate:
        if plan is None:
            parser.error("--sampling-validate requires --sampling")
        if args.schemes or args.output or args.figures:
            parser.error(
                "--sampling-validate is a standalone mode; it cannot be "
                "combined with --figures, --schemes or --output"
            )

    if args.figures:
        try:
            numbers = [int(x) for x in args.figures.split(",")]
        except ValueError:
            parser.error(
                f"--figures must be comma-separated numbers, got {args.figures!r}"
            )
        unknown = [n for n in numbers if n not in _TITLES]
        if unknown:
            parser.error(f"unknown figures {unknown}; known: {ALL_FIGURES}")
        allowed = set(figures_for_suite(args.benchmarks))
        bad = [n for n in numbers if n not in allowed]
        if bad:
            parser.error(
                f"figures {bad} need benchmarks outside --benchmarks={args.benchmarks}"
            )
    else:
        numbers = figures_for_suite(args.benchmarks)

    store = False if args.no_cache else ResultStore(args.cache_dir or None)
    scale = RunScale(num_instructions=args.scale,
                     warmup_instructions=args.scale // 2,
                     seed=args.seed)
    try:
        scale.validate()
    except ValueError as exc:
        parser.error(f"--scale {args.scale}: {exc}")
    if plan is not None:
        try:
            # Fail fast if the plan does not fit the actual run scale's
            # measured region (everything past the scale's warm-up).
            plan.slice_windows(scale.warmup_instructions, scale.num_instructions)
        except ConfigurationError as exc:
            parser.error(f"--sampling: {exc}")
    if args.trace_out:
        obs.configure(args.trace_out)
    try:
        _run_selected(args, parser, scale, store, plan, numbers)
    finally:
        obs.flush()


def _run_selected(args, parser, scale, store, plan, numbers) -> None:
    """Execute the selected campaign mode (after all argument vetting)."""
    # Footer telemetry is registry-backed: snapshot the per-kernel cycle
    # totals up front and report the growth.
    kernel_before = obs.kernel_totals()
    started = obs.clock.perf_counter()
    if args.sampling_validate:
        if args.benchmarks == "int":
            benchmarks = list(INT_BENCHMARKS)
        elif args.benchmarks == "fp":
            benchmarks = list(FP_BENCHMARKS)
        else:
            benchmarks = list(INT_BENCHMARKS) + list(FP_BENCHMARKS)
        table = sampling_validation(
            scale, store, plan, benchmarks,
            workers=args.workers, kernel=args.kernel,
        )
        print(render_table(
            "Sampled vs full IPC (baseline IQ_64_64)", table
        ))
        violations = [
            benchmark
            for benchmark in benchmarks
            if table["err_pct"][benchmark] > table["bound_pct"][benchmark]
        ]
        elapsed = obs.clock.perf_counter() - started
        print()
        if violations:
            print(
                f"error-bound VIOLATED on {len(violations)}/{len(benchmarks)} "
                f"benchmarks ({','.join(violations)}) in {elapsed:.1f}s"
            )
            raise SystemExit(1)
        print(
            f"error-bound OK: all {len(benchmarks)} benchmarks within "
            f"{100.0 * plan.target_relative_error:.1f}% in {elapsed:.1f}s"
        )
        return
    runner = ExperimentRunner(scale, store=store, workers=args.workers,
                              kernel=args.kernel, sampling=plan)
    if args.schemes and args.no_cache:
        parser.error(
            "--schemes is a warm-only sweep (it renders nothing); combining it "
            "with --no-cache would simulate and then discard every result"
        )
    if args.schemes and args.output:
        parser.error(
            "--schemes is a warm-only sweep (it renders no figures), so there "
            "is no figure data for --output to export"
        )
    if args.schemes:
        wanted = [name.strip() for name in args.schemes.split(",") if name.strip()]
        matrix = fig_mod.required_runs(numbers)
        known = sorted({scheme_name(scheme) for __, scheme in matrix})
        unknown = [name for name in wanted if name not in known]
        if unknown:
            parser.error(
                f"unknown schemes {unknown} for these figures; known: {known}"
            )
        pairs = [
            (benchmark, scheme)
            for benchmark, scheme in matrix
            if scheme_name(scheme) in wanted
        ]
        runner.prefetch(pairs, workers=args.workers)
        print(
            f"warmed {len(pairs)} (benchmark, scheme) pairs for schemes "
            f"{','.join(wanted)} of figures {','.join(map(str, numbers))}"
        )
    else:
        for number in numbers:
            with obs.span("campaign.figure", figure=number):
                print(run_campaign(runner, [number], workers=args.workers)[number])
            print()
        if args.output:
            path = args.output_path or f"campaign.{args.output}"
            written = export_campaign(runner, numbers, args.output, path)
            print(f"exported {len(numbers)} figures to {written}")
    elapsed = obs.clock.perf_counter() - started
    stats = runner.cache_stats()
    kernel_totals = obs.kernel_totals()
    kernel_tel = engine.KernelTelemetry(
        **{name: kernel_totals[name] - kernel_before[name]
           for name in kernel_totals}
    )
    print(
        f"campaign: {len(numbers)} figures in {elapsed:.1f}s — "
        f"{stats['simulations']} simulated, {stats['disk_hits']} disk hits, "
        f"{stats['memory_hits']} memory hits"
        + ("" if args.no_cache else f" (store: {runner.store.root})")
    )
    if kernel_tel.total_cycles:
        skipped_pct = 100.0 * kernel_tel.skipped_cycles / kernel_tel.total_cycles
        print(
            f"kernel [{args.kernel}]: {kernel_tel.executed_cycles} cycles "
            f"executed, {kernel_tel.skipped_cycles} skipped "
            f"({skipped_pct:.1f}%) in {kernel_tel.skip_spans} spans"
        )
    if plan is not None:
        detailed = sum(
            window.detail_end - window.detail_start
            for window in plan.slice_windows(
                scale.warmup_instructions, scale.num_instructions
            )
        )
        print(
            f"sampling [{plan.mode}]: {plan.num_slices} slices x "
            f"{plan.slice_instructions} (+{plan.warmup_instructions} warm-up) "
            f"per run — {detailed} of {args.scale} "
            f"instructions detailed, confidence {plan.confidence:.2f}, "
            f"target error {100.0 * plan.target_relative_error:.1f}%"
        )


if __name__ == "__main__":
    main()
