"""One-figure kernel smoke benchmark for CI.

Runs a single figure's (benchmark, scheme) matrix cold — no disk cache —
under every simulation kernel (``naive``, ``skip`` and ``specialized``)
and records wall time plus the simulated-vs-skipped cycle telemetry as a
``BENCH_kernel_smoke.json`` artifact. This is the recorded evidence that
(a) every kernel agrees bit-for-bit with ``naive`` on the whole matrix
and (b) how much wall clock each execution strategy saves.

Usage::

    PYTHONPATH=src python benchmarks/kernel_smoke.py [--figure 2]
        [--scale 2000] [--output BENCH_kernel_smoke.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro import obs
from repro.core.engine import VALID_KERNELS, KernelTelemetry
from repro.experiments import figures as fig_mod
from repro.experiments.runner import ExperimentRunner, RunScale, resolve_trace
from repro.workloads.prewarm import clear_prewarm_cache

#: naive first: it is the bit-identity reference for everything after it.
SMOKE_KERNELS = VALID_KERNELS


def run_smoke(figure: int, scale_instructions: int) -> dict:
    scale = RunScale(
        num_instructions=scale_instructions,
        warmup_instructions=scale_instructions // 2,
        seed=11,
    )
    pairs = fig_mod.required_runs([figure])
    # Generate the figure's traces before the first timed kernel: the
    # process memo then serves every kernel alike, so no kernel's wall
    # time includes trace generation.
    for benchmark in dict.fromkeys(benchmark for benchmark, __ in pairs):
        resolve_trace(benchmark, scale)
    report: dict = {
        "figure": figure,
        "scale": scale_instructions,
        "pairs": len(pairs),
        "python": platform.python_version(),
        "kernels": {},
    }
    payloads = {}
    for kernel in SMOKE_KERNELS:
        before = obs.kernel_totals()
        clear_prewarm_cache()
        runner = ExperimentRunner(scale, store=False, kernel=kernel)
        started = time.perf_counter()
        stats_list = runner.run_many(pairs)
        wall = time.perf_counter() - started
        telemetry = KernelTelemetry(**{
            name: value - before[name]
            for name, value in obs.kernel_totals().items()
        })
        payloads[kernel] = [stats.to_dict() for stats in stats_list]
        report["kernels"][kernel] = {
            "wall_time_s": round(wall, 3),
            "cycles_executed": telemetry.executed_cycles,
            "cycles_skipped": telemetry.skipped_cycles,
            "skip_spans": telemetry.skip_spans,
            "bit_identical_to_naive": payloads[kernel] == payloads["naive"],
        }
    naive = report["kernels"]["naive"]
    skip = report["kernels"]["skip"]
    report["bit_identical"] = all(
        entry["bit_identical_to_naive"] for entry in report["kernels"].values()
    )
    report["speedup_skip_vs_naive"] = round(
        naive["wall_time_s"] / max(skip["wall_time_s"], 1e-9), 3
    )
    for kernel in SMOKE_KERNELS:
        if kernel in ("naive", "skip"):
            continue
        report[f"speedup_{kernel}_vs_skip"] = round(
            skip["wall_time_s"]
            / max(report["kernels"][kernel]["wall_time_s"], 1e-9),
            3,
        )
    total = skip["cycles_executed"] + skip["cycles_skipped"]
    report["skipped_cycle_fraction"] = round(
        skip["cycles_skipped"] / max(total, 1), 4
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", type=int, default=2,
                        help="figure whose matrix to run (default: 2, the "
                             "SPECINT IssueFIFO sweep incl. memory-bound mcf)")
    parser.add_argument("--scale", type=int, default=2000,
                        help="dynamic instructions per run (half is warm-up)")
    parser.add_argument("--output", type=str, default="BENCH_kernel_smoke.json")
    args = parser.parse_args(argv)
    report = run_smoke(args.figure, args.scale)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["bit_identical"]:
        divergent = sorted(
            name
            for name, entry in report["kernels"].items()
            if not entry["bit_identical_to_naive"]
        )
        print(f"FATAL: kernels disagree with naive: {', '.join(divergent)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
