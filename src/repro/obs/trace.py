"""Span tracer: Chrome ``trace_event`` JSON + an NDJSON event log.

Two files per traced process, both under the configured trace
directory and both suffixed with the pid so pool workers never clobber
the parent or each other:

* ``trace-<pid>.json`` — a ``{"traceEvents": [...]}`` document in the
  Chrome trace-event format (complete ``"X"`` events with microsecond
  ``ts``/``dur``), loadable directly in Perfetto or ``chrome://tracing``.
  Written whole on :meth:`Tracer.flush` (and at interpreter exit).
* ``events-<pid>.ndjson`` — the same events appended one JSON object
  per line *as they happen*, so a worker that is terminated mid-batch
  still leaves its spans behind.

The tracer is a pure sidecar: it observes, never steers. Nothing in it
may feed back into simulation state, cache keys or artifacts.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import clock

__all__ = ["NULL_TRACER", "NullTracer", "Tracer"]


class Tracer:
    """Collects trace events for one process; thread-safe."""

    enabled = True

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self._epoch = clock.perf_counter()
        self._events: List[Dict] = []
        self._lock = threading.Lock()
        self._ndjson = open(
            self.directory / f"events-{self.pid}.ndjson",
            "a",
            encoding="utf-8",
        )

    # -- emission ------------------------------------------------------

    def _emit(self, event: Dict) -> None:
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            self._events.append(event)
            self._ndjson.write(line + "\n")
            # Flush per event: spans are coarse (one per simulation, job
            # or batch), and an abruptly-killed worker keeps its log.
            self._ndjson.flush()

    def complete(
        self,
        name: str,
        start_perf: float,
        duration: float,
        args: Optional[Dict] = None,
        cat: str = "repro",
    ) -> None:
        """Record a finished span as a Chrome complete ("X") event."""
        self._emit(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": round((start_perf - self._epoch) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": self.pid,
                "tid": threading.get_ident(),
                "args": dict(args or {}),
            }
        )

    def instant(
        self, name: str, args: Optional[Dict] = None, cat: str = "repro"
    ) -> None:
        """Record a point event ("i", thread scope)."""
        self._emit(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": round((clock.perf_counter() - self._epoch) * 1e6, 3),
                "pid": self.pid,
                "tid": threading.get_ident(),
                "args": dict(args or {}),
            }
        )

    # -- persistence ---------------------------------------------------

    def flush(self) -> Path:
        """Write ``trace-<pid>.json`` atomically; returns its path."""
        with self._lock:
            events = list(self._events)
            self._ndjson.flush()
        path = self.directory / f"trace-{self.pid}.json"
        # Threads of one process may flush at once: one temp file each.
        tmp = path.with_suffix(f".tmp-{self.pid}-{threading.get_ident()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                fh,
                sort_keys=True,
            )
        os.replace(tmp, path)
        return path

    def close(self) -> None:
        self.flush()
        with self._lock:
            self._ndjson.close()


class NullTracer:
    """Disabled tracer: every operation is a no-op."""

    enabled = False
    pid = None

    def complete(self, *args, **kwargs) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()
