"""Artifact writers shared by the exploration and campaign CLIs.

:func:`write_json` / :func:`write_csv` are generic, atomic writers (the
campaign CLI's ``--output`` reuses them); the ``exploration_*`` helpers
shape an :class:`~repro.explore.drivers.ExplorationResult` into the
frontier JSON artifact, flat CSV rows and the text report rendered with
:mod:`repro.experiments.report`.

The JSON artifact is deterministic for a fixed seed: it carries the
settings, the declared space, every scored point and the frontier ids —
but no wall-clock or cache telemetry — so cold and warm runs of the same
exploration produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.report import render_series, render_table
from repro.experiments.store import atomic_write

__all__ = [
    "write_json",
    "write_csv",
    "exploration_payload",
    "exploration_rows",
    "frontier_report",
]


def write_json(path: os.PathLike, payload) -> Path:
    """Atomically write ``payload`` as sorted, indented JSON."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return atomic_write(Path(path), text.encode("utf-8"))


def write_csv(
    path: os.PathLike,
    rows: Sequence[Mapping[str, object]],
    fieldnames: Optional[Sequence[str]] = None,
) -> Path:
    """Atomically write dict ``rows`` as CSV.

    Column order defaults to first-seen key order across all rows, so
    heterogeneous rows (e.g. different figure shapes) still land in one
    coherent table; missing cells stay empty.
    """
    if fieldnames is None:
        names: List[str] = []
        for row in rows:
            for key in row:
                if key not in names:
                    names.append(key)
        fieldnames = names
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return atomic_write(Path(path), buffer.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# Exploration-specific shaping.
# ---------------------------------------------------------------------------


def exploration_rows(result) -> List[Dict[str, object]]:
    """One flat record per scored point (assignment + objectives)."""
    frontier = {score.point.point_id for score in result.frontier}
    rows = []
    for score in result.scores:
        row = score.as_row()
        row["on_frontier"] = score.point.point_id in frontier
        rows.append(row)
    return rows


def exploration_payload(result) -> Dict[str, object]:
    """The JSON artifact: settings, space, points, fronts."""
    return {
        "subsystem": "repro.explore",
        "settings": result.settings.as_dict(),
        "space": result.space.describe(),
        "points": exploration_rows(result),
        "frontier": [score.point.point_id for score in result.frontier],
        "pair_fronts": {
            pair: [score.point.point_id for score in front]
            for pair, front in result.pair_fronts.items()
        },
        "refinement": result.rounds_log,
    }


def _display_labels(scores) -> Dict[str, str]:
    """Unique report label per point, keyed by point id.

    Point labels encode scheme/width/ROB/workload but not every
    dimension (e.g. distributed FUs), and in aggregate mode the
    workload suffix is the same suite token for every point — so
    distinct frontier points can share a label. Colliding labels get a
    ``#<point_id prefix>`` suffix to keep every table row visible.
    """
    counts: Dict[str, int] = {}
    for score in scores:
        counts[score.point.label] = counts.get(score.point.label, 0) + 1
    return {
        score.point.point_id: (
            score.point.label
            if counts[score.point.label] == 1
            else f"{score.point.label}#{score.point.point_id[:6]}"
        )
        for score in scores
    }


def frontier_report(result) -> str:
    """Text report of the frontier via the figure renderers.

    Suite-aggregated explorations append a per-benchmark IPC-loss
    breakdown of the frontier points, so robust geometries can be told
    apart from ones that merely average well.
    """
    sections = []
    labels = _display_labels(result.frontier)
    table = {
        name: {
            labels[score.point.point_id]: score.objectives[name]
            for score in result.frontier
        }
        for name in result.objective_names
    }
    sections.append(
        render_table(
            f"Pareto frontier ({len(result.frontier)} of "
            f"{len(result.scores)} points)",
            table,
        )
    )
    benchmarks = sorted(
        {bench for score in result.frontier for bench in (score.per_benchmark or {})}
    )
    if benchmarks:
        breakdown = {
            bench: {
                labels[score.point.point_id]: score.per_benchmark[bench]["ipc_loss_pct"]
                for score in result.frontier
                if score.per_benchmark and bench in score.per_benchmark
            }
            for bench in benchmarks
        }
        sections.append(
            render_table("Per-benchmark IPC loss (%) across the suite", breakdown)
        )
    pair_sizes = {
        pair: float(len(front)) for pair, front in result.pair_fronts.items()
    }
    sections.append(
        render_series("Non-dominated points per objective pair", pair_sizes, unit="")
    )
    if result.rounds_log:
        rounds = {
            f"round {entry['round']}": float(entry["evaluated"])
            for entry in result.rounds_log
        }
        sections.append(
            render_series("Refinement: new points evaluated", rounds, unit="")
        )
    return "\n\n".join(sections)
