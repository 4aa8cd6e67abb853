"""Smoke-test the campaign server end to end (cold and warm phases).

Starts a real :class:`repro.serve.ServeApp` on an ephemeral port, talks
to it over actual sockets, and checks the service's two headline
guarantees:

* **coalescing** — N duplicate concurrent simulation jobs cost exactly
  one simulation, and every asker downloads byte-identical artifacts;
* **warm restarts** — a fresh server over the same cache directory
  answers a replay of the whole workload with zero simulations.

Cold phase (default)::

    python examples/serve_smoke.py --cache-dir CACHE --out serve-out

posts three identical simulation jobs plus one figure-2 campaign job,
downloads the artifacts into ``--out`` (``result.json``,
``campaign.json`` — the latter byte-identical to
``campaign --figures 2 --output json``), and fails unless the duplicate
jobs resolved to exactly ``1 simulated``.

Warm phase (``--warm``) replays the same jobs against a new server over
the same cache and fails unless the scheduler reports ``0 simulated``
and the re-downloaded artifacts match the cold ones bit for bit.
"""

import argparse
import asyncio
import json
import sys
from pathlib import Path


async def _request(port, method, path, payload=None):
    """One HTTP exchange against the local server; returns (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: smoke\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, __, rest = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), rest


async def _await_job(port, job_id):
    while True:
        status, body = await _request(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, (status, body)
        summary = json.loads(body)
        if summary["state"] == "failed":
            raise SystemExit(f"job {job_id} failed: {summary['error']}")
        if summary["state"] == "done":
            return summary
        await asyncio.sleep(0.1)


async def _run_phase(args):
    from repro.experiments.store import ResultStore
    from repro.serve import ServeApp

    phase = "warm" if args.warm else "cold"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = ResultStore(args.cache_dir)
    app = ServeApp(store, workers=args.workers)
    port = await app.start("127.0.0.1", 0)
    print(f"serve-smoke[{phase}]: server on port {port}, store {store.root}")
    try:
        sim_spec = {
            "type": "simulation", "benchmark": "gzip", "scheme": "IQ_64_64",
            "scale": args.scale, "seed": args.seed,
        }
        posts = await asyncio.gather(
            *[_request(port, "POST", "/v1/jobs", sim_spec) for __ in range(3)]
        )
        ids = []
        for status, body in posts:
            assert status == 202, (status, body)
            ids.append(json.loads(body)["job"])
        summaries = [await _await_job(port, job_id) for job_id in ids]
        merged = {}
        for summary in summaries:
            for name, count in summary["provenance"].items():
                merged[name] = merged.get(name, 0) + count
        simulated = merged.get("simulated", 0)
        print(f"serve-smoke[{phase}]: 3 duplicate jobs -> "
              f"{simulated} simulated, {merged.get('coalesced', 0)} "
              f"coalesced, {merged.get('store', 0)} from store")
        artifacts = set()
        for job_id in ids:
            status, blob = await _request(
                port, "GET", f"/v1/jobs/{job_id}/artifact"
            )
            assert status == 200, (status, blob)
            artifacts.add(blob)
        if len(artifacts) != 1:
            raise SystemExit("duplicate jobs returned differing artifacts")
        (out_dir / "result.json").write_bytes(artifacts.pop())

        fig_spec = {
            "type": "figures", "figures": [2], "scale": args.scale,
            "seed": args.seed, "format": "json",
        }
        status, body = await _request(port, "POST", "/v1/jobs", fig_spec)
        assert status == 202, (status, body)
        fig_summary = await _await_job(port, json.loads(body)["job"])
        status, campaign = await _request(
            port, "GET", f"/v1/jobs/{fig_summary['id']}/artifact"
        )
        assert status == 200, (status, campaign)
        (out_dir / "campaign.json").write_bytes(campaign)
        print(f"serve-smoke[{phase}]: figure-2 job provenance "
              f"{json.dumps(fig_summary['provenance'], sort_keys=True)}")

        status, body = await _request(port, "GET", "/v1/stats")
        stats = json.loads(body)
        sched = stats["scheduler"]
        print(f"serve-smoke[{phase}]: scheduler totals -> "
              f"{sched['units']} units, {sched['simulated']} simulated, "
              f"{sched['coalesced']} coalesced, {sched['hits']} store hits; "
              f"queue depth {sched['queue_depth']}, "
              f"{sched['in_flight_batches']} batch(es) in flight; "
              f"store holds {stats['store']['results']} results")

        # Observability surfaces: Prometheus scrape + HTML status page.
        status, metrics = await _request(port, "GET", "/metrics")
        assert status == 200, (status, metrics)
        (out_dir / "metrics.prom").write_bytes(metrics)
        status, page = await _request(port, "GET", "/")
        assert status == 200, (status, page)
        (out_dir / "status.html").write_bytes(page)
        print(f"serve-smoke[{phase}]: scraped /metrics "
              f"({len(metrics)} bytes) and / ({len(page)} bytes)")
        if args.warm:
            if sched["simulated"] != 0:
                raise SystemExit(
                    f"warm replay simulated {sched['simulated']} units"
                )
        elif simulated != 1:
            raise SystemExit(
                f"expected exactly 1 simulation for the duplicates, "
                f"got {simulated}"
            )
    finally:
        await app.shutdown()
    print(f"serve-smoke[{phase}]: OK")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True,
                        help="result-store directory shared across phases")
    parser.add_argument("--out", default="serve-out",
                        help="where downloaded artifacts land")
    parser.add_argument("--scale", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--warm", action="store_true",
                        help="replay phase: require 0 simulations")
    args = parser.parse_args(argv)
    asyncio.run(_run_phase(args))


if __name__ == "__main__":
    sys.exit(main())
