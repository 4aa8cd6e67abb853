"""Metric tables and the arithmetic that turns measurements into metrics.

``END_TO_END`` and ``PER_LAYER`` are the single list of names, units and
directions: ``run.py`` emits exactly these, and the self-test checks that
``BENCHMARK.json`` declares exactly these.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "sim_kips": ("kinst/s", "higher", 0.25),
    "ops_per_s": ("op/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: Layers whose self time the traced run sums (``<layer>.self_s``).
LAYERS = (
    "workloads", "core", "issue", "frontend", "memory", "backends",
    "energy", "experiments", "obs", "serve",
)

# Each per-layer metric: (name, unit, better, kind, entry). ``kind`` says
# what is read from the entry's totals: ``self`` seconds, ``total``
# seconds, ``calls``, ``mean_ms`` (total per call, in ms) or ``custom``
# (computed in :func:`per_layer`).
_PER_LAYER_SPEC: List[Tuple[str, str, str, str, str]] = [
    ("workloads.trace_gen_s", "s", "lower", "self", "workloads.trace_gen"),
    ("workloads.trace_gen_calls", "count", "lower", "calls", "workloads.trace_gen"),
    ("workloads.prewarm_s", "s", "lower", "self", "workloads.prewarm"),
    ("workloads.prewarm_calls", "count", "lower", "calls", "workloads.prewarm"),
    ("workloads.spill_write_s", "s", "lower", "self", "workloads.spill_write"),
    ("workloads.spill_load_s", "s", "lower", "self", "workloads.spill_load"),
    ("workloads.spill_bytes", "bytes", "lower", "custom", ""),
    ("core.init_s", "s", "lower", "self", "core.init"),
    ("core.run_s", "s", "lower", "self", "core.run"),
    ("core.runs", "count", "lower", "calls", "core.run"),
    ("core.cycles_executed", "count", "lower", "calls", "core.cycles_executed"),
    ("core.cycles_skipped", "count", "higher", "calls", "core.cycles_skipped"),
    ("core.us_per_cycle", "us", "lower", "custom", ""),
    ("core.commit_s", "s", "lower", "self", "core.commit"),
    ("issue.select_s", "s", "lower", "self", "issue.select"),
    ("issue.select_calls", "count", "lower", "calls", "issue.select"),
    ("issue.dispatch_s", "s", "lower", "self", "issue.dispatch"),
    ("issue.broadcast_s", "s", "lower", "self", "issue.broadcast"),
    ("frontend.fetch_s", "s", "lower", "self", "frontend.fetch"),
    ("frontend.decode_s", "s", "lower", "self", "frontend.decode"),
    ("frontend.resolve_s", "s", "lower", "self", "frontend.resolve"),
    ("memory.data_access_s", "s", "lower", "self", "memory.data_access"),
    ("memory.data_accesses", "count", "lower", "calls", "memory.data_access"),
    ("memory.ifetch_s", "s", "lower", "self", "memory.ifetch"),
    ("memory.ifetches", "count", "lower", "calls", "memory.ifetch"),
    ("backends.kernel_build_s", "s", "lower", "self", "backends.kernel_build"),
    ("backends.kernel_builds", "count", "lower", "calls", "backends.kernel_build"),
    ("energy.model_init_s", "s", "lower", "self", "energy.model_init"),
    ("energy.model_inits", "count", "lower", "calls", "energy.model_init"),
    ("energy.eval_s", "s", "lower", "self", "energy.eval"),
    ("energy.evals", "count", "lower", "calls", "energy.eval"),
    ("experiments.result_key_s", "s", "lower", "self", "experiments.result_key"),
    ("experiments.result_keys", "count", "lower", "calls", "experiments.result_key"),
    ("experiments.store_init_s", "s", "lower", "self", "experiments.store_init"),
    ("experiments.store_load_s", "s", "lower", "self", "experiments.store_load"),
    ("experiments.store_loads", "count", "lower", "calls", "experiments.store_load"),
    ("experiments.store_hit_ratio", "1", "higher", "custom", ""),
    ("experiments.store_save_s", "s", "lower", "self", "experiments.store_save"),
    ("experiments.store_saves", "count", "lower", "calls", "experiments.store_save"),
    ("experiments.figures_s", "s", "lower", "self", "experiments.figures"),
    ("experiments.export_s", "s", "lower", "self", "experiments.export"),
    ("experiments.pool_batch_s", "s", "lower", "self", "experiments.pool_batch"),
    ("experiments.pool_batches", "count", "lower", "calls", "experiments.pool_batch"),
    ("obs.bookkeeping_s", "s", "lower", "self", "obs.bookkeeping"),
    ("obs.calls", "count", "lower", "calls", "obs.bookkeeping"),
    ("serve.post_ms", "ms", "lower", "mean_ms", "serve.post"),
    ("serve.status_ms", "ms", "lower", "mean_ms", "serve.status"),
    ("serve.artifact_ms", "ms", "lower", "mean_ms", "serve.artifact"),
    ("serve.polls_per_job", "polls/job", "lower", "custom", ""),
    ("serve.resolve_s", "s", "lower", "total", "serve.resolve"),
    ("serve.batch_run_s", "s", "lower", "total", "serve.batch_run"),
    ("serve.queue_wait_ms", "ms", "lower", "mean_ms", "serve.queue_wait"),
    ("serve.units", "count", "lower", "custom", ""),
    ("serve.hits", "count", "higher", "custom", ""),
    ("serve.coalesced", "count", "higher", "custom", ""),
    ("serve.simulated", "count", "lower", "custom", ""),
    ("serve.batches", "count", "lower", "custom", ""),
    ("serve.coalesce_ratio", "1", "higher", "custom", ""),
] + [(f"{layer}.self_s", "s", "lower", "custom", "") for layer in LAYERS] + [
    ("traced_wall_s", "s", "lower", "custom", ""),
    ("unattributed_s", "s", "lower", "custom", ""),
    ("trace_overhead_s", "s", "lower", "custom", ""),
]

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    name: (unit, better) for name, unit, better, __, __ in _PER_LAYER_SPEC
}


def quantile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(
    setup_s: float,
    latencies: Sequence[float],
    completed: int,
    wall: float,
    instructions: int,
    peak_rss_kb: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Times come in already normalized for machine speed (see
    :mod:`perfbench.calibrate`); ``wall`` is the time the ops took.
    """
    latencies_ms = [1000.0 * value for value in latencies]
    return {
        "setup_s": setup_s,
        "sim_kips": instructions / wall / 1000.0,
        "ops_per_s": completed / wall,
        "op_p50_ms": quantile(latencies_ms, 0.5),
        "op_p90_ms": quantile(latencies_ms, 0.9),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def merge_entries(*sources: Dict[str, list]) -> Dict[str, list]:
    """Sum ``entry -> [calls, total, self]`` tables from several places."""
    merged: Dict[str, list] = {}
    for source in sources:
        for entry, values in source.items():
            acc = merged.setdefault(entry, [0, 0.0, 0.0])
            for slot in range(3):
                acc[slot] += values[slot]
    return merged


def per_layer(
    entries: Dict[str, list],
    layer_self: Dict[str, float],
    traced_wall: float,
    overhead: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from merged totals.

    ``layer_self`` and ``traced_wall`` come from the benchmark's own
    timeline only; ``entries`` also hold worker and server totals.
    ``extra`` supplies the values measured outside the wrappers
    (``workloads.spill_bytes``, ``serve.polls_per_job`` and the
    scheduler's ``/v1/stats`` counters).
    """
    zero = [0, 0.0, 0.0]
    out: Dict[str, float] = {}
    for name, __, __, kind, entry in _PER_LAYER_SPEC:
        calls, total, own = entries.get(entry, zero)
        if kind == "self":
            out[name] = own
        elif kind == "total":
            out[name] = total
        elif kind == "calls":
            out[name] = calls
        elif kind == "mean_ms":
            out[name] = 1000.0 * total / calls if calls else 0.0
    run = entries.get("core.run", zero)
    cycles = entries.get("core.cycles_executed", zero)[0]
    out["core.us_per_cycle"] = 1e6 * run[1] / cycles if cycles else 0.0
    loads = entries.get("experiments.store_load", zero)[0]
    hits = entries.get("experiments.store_hits", zero)[0]
    out["experiments.store_hit_ratio"] = hits / loads if loads else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["traced_wall_s"] = traced_wall
    # The op roots (``op.<workload>``) are in no layer: their self time,
    # the op's code that no entry point covers, stays unattributed.
    out["unattributed_s"] = traced_wall - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace_overhead_s"] = overhead
    for name in (
        "workloads.spill_bytes", "serve.polls_per_job", "serve.units", "serve.hits",
        "serve.coalesced", "serve.simulated", "serve.batches", "serve.coalesce_ratio",
    ):
        out[name] = extra.get(name, 0)
    return out
