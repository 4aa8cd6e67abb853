"""Command-line entry point for the campaign server.

Command line::

    python -m repro.serve [--host HOST] [--port PORT]
        [--cache-dir DIR] [--workers N] [--trace-out DIR]

Starts a long-lived asyncio HTTP service over the content-addressed
result store. Clients POST JSON job specs to ``/v1/jobs``::

    {"type": "simulation", "benchmark": "gzip", "scheme": "IQ_64_64",
     "scale": 2000, "seed": 11}
    {"type": "figures", "figures": [2], "scale": 2000, "format": "json"}
    {"type": "exploration", "samples": 8, "rounds": 1,
     "benchmarks": "stress", "scale": 1500}

and follow progress via ``GET /v1/jobs/<id>`` (status),
``/v1/jobs/<id>/events`` (chunked NDJSON stream) and
``/v1/jobs/<id>/artifact`` (the same byte-identical JSON/CSV artifacts
the CLIs emit). ``/v1/stats`` exposes coalescing counters and the
store's result count;
``/v1/version`` mirrors ``campaign --version-tag``. ``GET /metrics``
serves the observability registry in Prometheus text format and
``GET /`` a self-contained HTML status page; ``--trace-out DIR`` (or
``REPRO_TRACE=DIR``) additionally writes Chrome ``trace_event`` JSON
and NDJSON event sidecars — artifacts stay byte-identical either way.

Units that miss the store run in batches. A batch launches as soon as
one of the two batch slots is free and takes every compatible unit that
waited, so there is no batching interval to tune. ``--workers`` sizes
the per-batch ``multiprocessing`` fan-out (0 = run batches serially in
the executor thread). The store keeps the CLIs' layout, so the server
and the CLIs start warm on each other's cache directory. SIGINT/SIGTERM
shut down gracefully: in-flight batches drain, queued jobs fail with a
clear status, orphaned temp files are swept.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional

from repro import obs
from repro.experiments.store import ResultStore
from repro.serve.app import ServeApp


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", type=str, default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 = ephemeral; default 8642)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="result-store directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-abella04)")
    parser.add_argument("--workers", type=int, default=2,
                        help="simulation processes per batch (0 = serial "
                             "in-thread execution; default 2)")
    parser.add_argument("--trace-out", type=str, default=None, metavar="DIR",
                        help="write observability sidecar files (Chrome "
                             "trace_event JSON, NDJSON event log, Prometheus "
                             "metrics snapshot) under DIR; artifacts stay "
                             "byte-identical (equivalent: REPRO_TRACE=DIR)")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    app = ServeApp(
        ResultStore(args.cache_dir or None),
        workers=args.workers,
    )
    if args.trace_out:
        obs.configure(args.trace_out)
    try:
        asyncio.run(app.serve_forever(args.host, args.port))
    finally:
        obs.flush()


if __name__ == "__main__":
    main()
