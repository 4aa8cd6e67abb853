"""Self-contained HTML status page for the campaign server (``GET /``).

One static render per request — no JavaScript beyond a meta-refresh, no
external assets — so the page works from ``curl``, a CI artifact upload,
or an air-gapped browser alike. Everything shown is read from the same
payloads the JSON API serves (:meth:`ServeApp.stats_payload`,
:meth:`ServeApp.jobs_index`), so the page can never disagree with
``/v1/stats``.

Deterministic-safe by construction: the renderer reads no clocks (job
rows show the wall-clock stamps the job model already carries) and
touches nothing that feeds result keys or artifacts.
"""

from __future__ import annotations

import html
from typing import Dict, List

__all__ = ["render_status_page"]

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: left; }
th { background: #f0f0f0; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.state-done { color: #1a7f37; } .state-failed { color: #b42318; }
.state-running, .state-queued { color: #9a6700; }
code { background: #f6f6f6; padding: 0 0.25em; }
.muted { color: #777; font-size: 0.9em; }
"""


def _row(cells: List[str], numeric_from: int = 1) -> str:
    parts = []
    for index, cell in enumerate(cells):
        css = ' class="num"' if index >= numeric_from else ""
        parts.append(f"<td{css}>{cell}</td>")
    return "<tr>" + "".join(parts) + "</tr>"


def _counter_table(counters: Dict[str, int]) -> str:
    rows = "".join(
        _row([html.escape(name), str(counters[name])])
        for name in sorted(counters)
    )
    return (
        "<table><tr><th>counter</th><th>value</th></tr>" + rows + "</table>"
    )


def _jobs_table(jobs: List[Dict]) -> str:
    if not jobs:
        return '<p class="muted">no jobs accepted yet</p>'
    rows = []
    for job in jobs:
        state = html.escape(str(job["state"]))
        duration = ""
        if job.get("started") is not None and job.get("finished") is not None:
            duration = f"{job['finished'] - job['started']:.2f}s"
        provenance = ", ".join(
            f"{name}: {count}"
            for name, count in sorted(job.get("provenance", {}).items())
        )
        rows.append(
            "<tr>"
            f"<td><code>{html.escape(str(job['id']))}</code></td>"
            f"<td>{html.escape(str(job['kind']))}</td>"
            f'<td class="state-{state}">{state}</td>'
            f'<td class="num">{duration}</td>'
            f"<td>{html.escape(provenance)}</td>"
            f"<td>{html.escape(', '.join(job.get('artifacts', [])))}</td>"
            "</tr>"
        )
    return (
        "<table><tr><th>job</th><th>kind</th><th>state</th>"
        "<th>duration</th><th>provenance</th><th>artifacts</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def render_status_page(app) -> str:
    """Render the whole status page from a live :class:`ServeApp`."""
    stats = app.stats_payload()
    jobs = app.jobs_index()["jobs"]
    scheduler = stats["scheduler"]
    store = stats["store"]
    live = {
        "pending (queue depth)": scheduler["queue_depth"],
        "in flight units": scheduler["in_flight"],
        "in flight batches": scheduler["in_flight_batches"],
    }
    cumulative = {
        name: scheduler[name]
        for name in (
            "units",
            "hits",
            "coalesced",
            "misses",
            "simulated",
            "executor_disk_hits",
            "batches",
            "waiters",
        )
    }
    job_states = ", ".join(
        f"{state}: {count}"
        for state, count in sorted(stats["jobs"]["states"].items())
    ) or "none"
    body = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>repro.serve status</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>repro.serve — campaign server</h1>
<p>store <code>{html.escape(str(store['root']))}</code> &middot;
results stored: {store['results']} &middot;
jobs accepted: {stats['jobs']['accepted']} ({html.escape(job_states)}) &middot;
endpoints: <a href="/v1/stats">/v1/stats</a>,
<a href="/metrics">/metrics</a>, <a href="/v1/jobs">/v1/jobs</a></p>
<h2>Scheduler — live queue</h2>
{_counter_table(live)}
<h2>Scheduler — cumulative (coalescing)</h2>
{_counter_table(cumulative)}
<h2>Jobs</h2>
{_jobs_table(jobs)}
<p class="muted">auto-refreshes every 5 s &middot; numbers match
<code>GET /v1/stats</code> exactly</p>
</body>
</html>
"""
    return body
