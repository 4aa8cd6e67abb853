"""One generator per table/figure of the paper's evaluation.

Each ``figureN`` function returns plain dictionaries with the same series
the paper plots; :mod:`repro.experiments.report` renders them as text.
All functions take an :class:`~repro.experiments.runner.ExperimentRunner`
so callers control the scale and share the run cache across figures.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.common.config import IssueSchemeConfig, default_config
from repro.common.stats import harmonic_mean
from repro.energy.breakdown import breakdown_fractions, energy_breakdown
from repro.energy.metrics import (
    EfficiencyMetrics,
    calibrate_rest_of_chip,
    compute_metrics,
)
from repro.energy.model import EnergyModel
from repro.experiments.configs import (
    BASELINE_UNBOUNDED,
    IF_DISTR,
    IQ_64_64,
    MB_DISTR,
    fig2_configs,
    fig3_configs,
    fig4_configs,
    fig6_configs,
)
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suites import FP_BENCHMARKS, INT_BENCHMARKS

__all__ = [
    "figure2",
    "figure3",
    "figure4",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "required_runs",
    "SCHEMES_SECTION4",
]

#: The three schemes Section 4 compares, in the paper's legend order.
SCHEMES_SECTION4: Mapping[str, IssueSchemeConfig] = {
    "IQ_64_64": IQ_64_64,
    "IF_distr": IF_DISTR,
    "MB_distr": MB_DISTR,
}


def _loss_sweep(
    runner: ExperimentRunner,
    configs: Mapping[str, IssueSchemeConfig],
    benchmarks: List[str],
) -> Dict[str, float]:
    """Average IPC loss (%) w.r.t. the unbounded baseline per config."""
    return {
        name: runner.average_loss_pct(benchmarks, scheme, BASELINE_UNBOUNDED)
        for name, scheme in configs.items()
    }


def figure2(runner: ExperimentRunner) -> Dict[str, float]:
    """IPC loss of IssueFIFO vs unbounded baseline, SPECINT."""
    return _loss_sweep(runner, fig2_configs(), INT_BENCHMARKS)


def figure3(runner: ExperimentRunner) -> Dict[str, float]:
    """IPC loss of IssueFIFO vs unbounded baseline, SPECFP."""
    return _loss_sweep(runner, fig3_configs(), FP_BENCHMARKS)


def figure4(runner: ExperimentRunner) -> Dict[str, float]:
    """IPC loss of LatFIFO vs unbounded baseline, SPECFP."""
    return _loss_sweep(runner, fig4_configs(), FP_BENCHMARKS)


def figure6(runner: ExperimentRunner) -> Dict[str, float]:
    """IPC loss of MixBUFF vs unbounded baseline, SPECFP."""
    return _loss_sweep(runner, fig6_configs(), FP_BENCHMARKS)


def _ipc_bars(runner: ExperimentRunner, benchmarks: List[str]) -> Dict[str, Dict[str, float]]:
    """Per-benchmark IPC for the three Section 4 schemes + HARMEAN."""
    result: Dict[str, Dict[str, float]] = {}
    for scheme_name, scheme in SCHEMES_SECTION4.items():
        per_bench = {b: runner.ipc(b, scheme) for b in benchmarks}
        per_bench["HARMEAN"] = harmonic_mean(per_bench.values())
        result[scheme_name] = per_bench
    return result


def figure7(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """IPC per integer benchmark: IQ_64_64 vs IF_distr vs MB_distr."""
    return _ipc_bars(runner, INT_BENCHMARKS)


def figure8(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """IPC per FP benchmark: IQ_64_64 vs IF_distr vs MB_distr."""
    return _ipc_bars(runner, FP_BENCHMARKS)


def _suite_breakdown(
    runner: ExperimentRunner, scheme: IssueSchemeConfig, benchmarks: List[str]
) -> Dict[str, float]:
    """Suite-aggregated issue-logic energy fractions per component."""
    model = EnergyModel(default_config(scheme))
    totals: Dict[str, float] = {}
    for benchmark in benchmarks:
        stats = runner.run(benchmark, scheme)
        for component, energy in energy_breakdown(model, stats.events.as_dict()).items():
            totals[component] = totals.get(component, 0.0) + energy
    return breakdown_fractions(totals)


def _breakdown_figure(
    runner: ExperimentRunner, scheme: IssueSchemeConfig
) -> Dict[str, Dict[str, float]]:
    return {
        "SPECINT": _suite_breakdown(runner, scheme, INT_BENCHMARKS),
        "SPECFP": _suite_breakdown(runner, scheme, FP_BENCHMARKS),
    }


def figure9(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Energy breakdown for the IQ_64_64 baseline."""
    return _breakdown_figure(runner, IQ_64_64)


def figure10(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Energy breakdown for IF_distr."""
    return _breakdown_figure(runner, IF_DISTR)


def figure11(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Energy breakdown for MB_distr."""
    return _breakdown_figure(runner, MB_DISTR)


def _efficiency(
    runner: ExperimentRunner, benchmark: str, models: Mapping[str, EnergyModel]
) -> Dict[str, EfficiencyMetrics]:
    """Efficiency metrics for the three schemes on one benchmark.

    The rest-of-chip model is calibrated per benchmark on the IQ_64_64
    baseline so that the issue queue is 23% of chip energy there.
    ``models`` holds each Section 4 scheme's energy model. Figures 12-15
    all read this table, so the runner keeps it per benchmark.
    """
    key = ("efficiency", benchmark)
    if key not in runner.derived:
        baseline_stats = runner.run(benchmark, IQ_64_64)
        rest = calibrate_rest_of_chip(
            models["IQ_64_64"].energy_pj(baseline_stats.events.as_dict()),
            baseline_stats.cycles,
            baseline_stats.committed_instructions,
        )
        runner.derived[key] = {
            scheme_name: compute_metrics(
                models[scheme_name], runner.run(benchmark, scheme), rest
            )
            for scheme_name, scheme in SCHEMES_SECTION4.items()
        }
    return runner.derived[key]


def _normalized_metric(runner: ExperimentRunner, metric: str) -> Dict[str, Dict[str, float]]:
    """Suite-averaged normalized metric per scheme (baseline = 1.0)."""
    models = {
        name: EnergyModel(default_config(scheme))
        for name, scheme in SCHEMES_SECTION4.items()
    }
    result: Dict[str, Dict[str, float]] = {}
    for suite_name, benchmarks in (("SPECINT", INT_BENCHMARKS), ("SPECFP", FP_BENCHMARKS)):
        sums = {name: 0.0 for name in SCHEMES_SECTION4}
        for benchmark in benchmarks:
            metrics = _efficiency(runner, benchmark, models)
            baseline = metrics["IQ_64_64"]
            for scheme_name, m in metrics.items():
                sums[scheme_name] += m.normalized_to(baseline)[metric]
        result[suite_name] = {
            name: total / len(benchmarks) for name, total in sums.items()
        }
    return result


def figure12(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Normalized issue-queue power dissipation."""
    return _normalized_metric(runner, "power")


def figure13(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Normalized issue-queue energy consumption."""
    return _normalized_metric(runner, "energy")


def figure14(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Normalized whole-chip energy·delay (IQ = 23% of chip power)."""
    return _normalized_metric(runner, "energy_delay")


def figure15(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Normalized whole-chip energy·delay²."""
    return _normalized_metric(runner, "energy_delay2")


def _figure_matrix(number: int) -> tuple:
    """(scheme configs, suites) one figure's generator will simulate."""
    section4 = list(SCHEMES_SECTION4.values())
    if number == 2:
        return [BASELINE_UNBOUNDED] + list(fig2_configs().values()), (INT_BENCHMARKS,)
    if number == 3:
        return [BASELINE_UNBOUNDED] + list(fig3_configs().values()), (FP_BENCHMARKS,)
    if number == 4:
        return [BASELINE_UNBOUNDED] + list(fig4_configs().values()), (FP_BENCHMARKS,)
    if number == 6:
        return [BASELINE_UNBOUNDED] + list(fig6_configs().values()), (FP_BENCHMARKS,)
    if number == 7:
        return section4, (INT_BENCHMARKS,)
    if number == 8:
        return section4, (FP_BENCHMARKS,)
    if number == 9:
        return [IQ_64_64], (INT_BENCHMARKS, FP_BENCHMARKS)
    if number == 10:
        return [IF_DISTR], (INT_BENCHMARKS, FP_BENCHMARKS)
    if number == 11:
        return [MB_DISTR], (INT_BENCHMARKS, FP_BENCHMARKS)
    if number in (12, 13, 14, 15):
        return section4, (INT_BENCHMARKS, FP_BENCHMARKS)
    raise ValueError(f"no simulation matrix for figure {number}")


def required_runs(figure_numbers) -> List:
    """Deduplicated (benchmark, scheme) pairs the given figures simulate.

    This is the fan-out frontier for a parallel campaign: prefetching
    these pairs (``ExperimentRunner.prefetch``) warms the memory cache so
    the figure generators themselves never trigger a simulation. The
    order is deterministic — figures in the given order, suites in paper
    order, schemes in legend order.
    """
    pairs: List = []
    seen = set()
    for number in figure_numbers:
        schemes, suites = _figure_matrix(number)
        for suite in suites:
            for benchmark in suite:
                for scheme in schemes:
                    pair = (benchmark, scheme)
                    if pair not in seen:
                        seen.add(pair)
                        pairs.append(pair)
    return pairs
