"""Measured child processes of the cold and warm workloads.

``python3 -m perfbench.child SPEC.json RESULT.json`` runs from the
repository root. SPEC (written by ``run.py``) names the kind of child
and holds every input it needs; the seed itself never reaches this
process. The child sets up, prints ``READY`` on stdout (the parent's
set-up clock stops there), runs its ops, writes RESULT and exits:

* ``cold_serial`` — one op is ``ExperimentRunner.run`` on one pair;
* ``cold_pool`` — one op is ``ExperimentRunner.run_many(workers=2)`` on
  one batch of pairs;
* ``warm_fill`` — fills the store the replays read (set-up only);
* ``warm_replay`` — one op is a fresh ``ResultStore`` and
  ``ExperimentRunner``, ``run_campaign`` over the figures and
  ``export_campaign`` to JSON.

Ops stop at the spec's exact ``ops`` count, or else once ``seconds`` have
passed and at least ``min_ops`` ran; the cold kinds start another pass
over their pairs, with a fresh runner over a fresh store, when a pass
ends first. Output checks run after the timed phase, and a mismatch
marks its op failed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, tracing  # noqa: E402

_clock = time.perf_counter


def _ready() -> None:
    print("READY", flush=True)


def _peak_rss_kb(include_children: bool) -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak


def run_ops(spec: Dict, count: int, run_op: Callable[[int], None], tracer) -> Dict:
    """Time ops ``0..count-1`` under the spec's stop rule.

    The reference loop is sampled between ops; its time is excluded
    from the phase's wall time and from the time box.
    """
    latencies: List[float] = []
    failures: Dict[int, str] = {}
    limit, seconds, min_ops = spec.get("ops"), spec["seconds"], spec["min_ops"]
    calibrator = calibrate.Calibrator()
    calibrator.sample()
    if tracer is not None:
        tracer.reset()
    paused = 0.0
    start_phase = _clock()
    for index in range(count):
        if limit is not None:
            if index >= limit:
                break
        elif index >= min_ops and _clock() - start_phase - paused >= seconds:
            break
        start = _clock()
        try:
            if tracer is None:
                run_op(index)
            else:
                with tracer.timeline(), tracer.op(index + 1, spec["kind"]):
                    run_op(index)
        except Exception as exc:  # noqa: BLE001 — a failed op, reported
            failures[index] = f"{type(exc).__name__}: {exc}"
        end = _clock()
        latencies.append(end - start)
        calibrator.maybe_sample()
        paused += _clock() - end
    wall = _clock() - start_phase - paused
    calibrator.sample()
    slowdown = calibrator.factor()
    result = {
        "latencies": latencies, "wall": wall, "failures": failures,
        "calibration": calibrator.samples, "slowdown": slowdown,
        "normalized_latencies": [latency / slowdown for latency in latencies],
        "normalized_wall": wall / slowdown,
    }
    if tracer is not None:
        summary = tracer.summary()
        summary["registry"] = tracer.registry_totals()
        result["trace"] = summary
        result["chrome_events"] = tracer.chrome_events()
        tracer.uninstall()
    return result


def cold(spec: Dict) -> Dict:
    from repro.common.config import scheme_name
    from repro.experiments import figures
    from repro.experiments.campaign import ALL_FIGURES
    from repro.experiments.runner import ExperimentRunner, RunScale, simulate_pair
    from repro.experiments.store import ResultStore

    schemes = {scheme_name(s): s for __, s in figures.required_runs(ALL_FIGURES)}
    scale = RunScale(spec["scale"], spec["scale"] // 2)
    batches = [[(b, schemes[s]) for b, s in batch] for batch in spec["batches"]]
    pool = spec["kind"] == "cold_pool"
    tracer = tracing.install() if spec["trace"] else None
    stores = [spec["store"]]

    def fresh_runner():
        return ExperimentRunner(
            scale, store=ResultStore(stores[-1]), workers=2 if pool else 0
        )

    runner = fresh_runner()
    _ready()
    if spec.get("setup_only"):
        return {}
    results: Dict[int, list] = {}

    def run_op(index: int) -> None:
        nonlocal runner
        cycle, position = divmod(index, len(batches))
        if position == 0 and cycle > 0:
            # Another pass over the pairs: a fresh store keeps every op cold.
            stores.append(f"{spec['store']}-{cycle}")
            runner = fresh_runner()
        batch = batches[position]
        if pool:
            results[index] = runner.run_many(batch)
        else:
            results[index] = [runner.run(*batch[0])]

    out = run_ops(spec, sys.maxsize, run_op, tracer)
    out["peak_rss_kb"] = _peak_rss_kb(include_children=pool)
    out["pairs_run"] = sum(len(batches[i % len(batches)]) for i in results)
    out["instructions"] = out["pairs_run"] * scale.num_instructions
    # Output check: a seeded handful of completed pairs, re-simulated
    # with the reference kernel, must give identical statistics.
    located = [
        (op, slot) for op, batch in enumerate(batches) for slot in range(len(batch))
    ]
    checked = 0
    for pair_index in spec["check_order"]:
        if checked >= spec["checks"]:
            break
        op, slot = located[pair_index]
        if op not in results:
            continue
        benchmark, scheme = batches[op][slot]
        got = results[op][slot].to_dict()
        if spec["plant"] and checked == 0:
            got["planted"] = True
        want = simulate_pair(benchmark, scheme, scale, kernel="naive")[0].to_dict()
        checked += 1
        if got != want:
            out["failures"][op] = (
                f"output mismatch: {benchmark}/{scheme_name(scheme)} differs "
                "from the naive kernel"
            )
    out["checked"] = checked
    out["spill_bytes"] = sum(
        f.stat().st_size
        for store in stores
        for f in (Path(store) / "traces").rglob("*")
        if f.is_file()
    )
    return out


def warm_fill(spec: Dict) -> Dict:
    from repro.experiments import figures
    from repro.experiments.runner import ExperimentRunner, RunScale
    from repro.experiments.store import ResultStore

    scale = RunScale(spec["scale"], spec["scale"] // 2)
    runner = ExperimentRunner(scale, store=ResultStore(spec["store"]))
    runner.run_many(figures.required_runs(spec["figures"]))
    _ready()
    return {"simulations": runner.cache_stats()["simulations"]}


def warm_replay(spec: Dict) -> Dict:
    from repro.experiments import campaign, figures
    from repro.experiments.runner import ExperimentRunner, RunScale
    from repro.experiments.store import ResultStore

    scale = RunScale(spec["scale"], spec["scale"] // 2)
    numbers = spec["figures"]
    export_dir = Path(spec["export_dir"])
    export_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.install() if spec["trace"] else None
    _ready()
    simulations: Dict[int, int] = {}

    def run_op(index: int) -> None:
        # Called through the module, so that traced runs reach the wrappers.
        runner = ExperimentRunner(scale, store=ResultStore(spec["store"]))
        campaign.run_campaign(runner, numbers)
        campaign.export_campaign(
            runner, numbers, "json", str(export_dir / f"op-{index}.json")
        )
        simulations[index] = runner.cache_stats()["simulations"]

    out = run_ops(spec, spec["max_ops"], run_op, tracer)
    out["peak_rss_kb"] = _peak_rss_kb(include_children=False)
    out["instructions"] = (
        len(simulations) * len(figures.required_runs(numbers)) * scale.num_instructions
    )
    # Output check: no replay simulates, and every export is the same bytes.
    reference = None
    for index in sorted(simulations):
        data = (export_dir / f"op-{index}.json").read_bytes()
        if spec["plant"] and index == 1:
            data += b" "
        if reference is None:
            reference = data
        if simulations[index]:
            out["failures"][index] = f"replay simulated {simulations[index]} pairs"
        elif data != reference:
            out["failures"][index] = "exported JSON differs from the first replay"
    return out


KINDS = {
    "cold_serial": cold,
    "cold_pool": cold,
    "warm_fill": warm_fill,
    "warm_replay": warm_replay,
}


def main(argv: List[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = KINDS[spec["kind"]](spec)
    from repro.experiments.store import SIMULATOR_VERSION_TAG

    result["version_tag"] = SIMULATOR_VERSION_TAG
    result["failures"] = {str(k): v for k, v in result.get("failures", {}).items()}
    tmp = f"{result_path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
