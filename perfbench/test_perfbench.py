"""Self-test of the benchmark: every workload at a tiny size.

Checks that each workload emits every declared metric with its unit,
that a planted output mismatch is counted as a failed op, that the
traced run's wrappers cover nearly all of its wall time and count what
ran in worker and server processes, and that ``BENCHMARK.json`` declares
exactly the metrics the code emits.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import inputs, metrics, run

ROOT = Path(__file__).resolve().parents[1]


def _tiny(workload: str, trace: int, plant: bool) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    if plant:
        command.append("--plant-mismatch")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _record(workload: str, trace: int) -> dict:
    """The full record a run wrote next to its result."""
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed7-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_results():
    cases = [(w, trace, not trace) for w in run.WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda case: _tiny(*case), cases))
    return {case[:2]: result for case, result in zip(cases, results)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_metrics_and_counts_a_planted_mismatch(
    tiny_results, workload
):
    result = tiny_results[(workload, 0)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: spec[0] for name, spec in metrics.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] >= 1 and not result["correct"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_layers_and_balances_its_wall_time(tiny_results, workload):
    result = tiny_results[(workload, 1)]
    assert result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: spec[0] for name, spec in metrics.PER_LAYER.items()
    }
    self_sum = sum(values[f"{layer}.self_s"] for layer in metrics.LAYERS)
    assert self_sum + values["unattributed_s"] == pytest.approx(
        values["traced_wall_s"], abs=1e-6
    )
    # Op code outside every wrapped entry point is unattributed: some
    # exists, but the wrappers cover nearly all of each op.
    assert 0 < values["unattributed_s"] < 0.05 * values["traced_wall_s"]
    # Totals from other processes arrive: pool workers, the server.
    if workload in ("cold_serial", "cold_pool"):
        assert values["core.runs"] == _record(workload, 1)["traced_pairs_run"] >= 1
        assert values["experiments.store_saves"] == values["core.runs"]
    if workload == "cold_pool":
        assert values["workloads.spill_load_s"] > 0
        assert values["experiments.pool_batches"] >= 1
        assert values["core.run_s"] > 0 and values["issue.select_calls"] > 0
    if workload == "warm_replay":
        assert values["core.runs"] == 0
        assert values["experiments.store_hit_ratio"] == 1.0
        assert values["experiments.export_s"] > 0
    if workload == "serve_mix":
        assert values["core.runs"] == values["serve.simulated"] >= 1
        assert values["serve.batch_run_s"] > 0


def test_benchmark_json_declares_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == metrics.PER_LAYER


def test_inputs_are_seeded_and_cover_the_campaign():
    matrix = run.figure_matrix()
    strata = [b for stratum in inputs.INT_STRATA + inputs.FP_STRATA for b in stratum]
    assert sorted(strata) == sorted({b for b, __ in matrix})
    assert inputs.cold_pairs(3, matrix) == inputs.cold_pairs(3, matrix)
    assert inputs.cold_pairs(3, matrix) != inputs.cold_pairs(4, matrix)
    events = inputs.serve_stream(3, matrix)
    assert events == inputs.serve_stream(3, matrix)
    firsts = [pair for kind, pair in events if kind != "repeat"]
    assert len(firsts) == len(set(firsts))
    asked = set()
    for kind, pair in events:
        assert (pair in asked) == (kind == "repeat")
        asked.add(pair)
