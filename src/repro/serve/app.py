"""Service assembly: store + scheduler + jobs + HTTP, one lifecycle.

:class:`ServeApp` owns every long-lived component of the campaign server
and sequences the one thing that is easy to get wrong in an async
service: shutdown. On SIGINT/SIGTERM (or :meth:`shutdown`):

1. the HTTP listener stops accepting connections and ``POST /v1/jobs``
   answers 503;
2. the scheduler drains — batches already executing in worker threads
   run to completion (their waiters get real results), while units still
   queued fail with a clear "server shutting down" status;
3. every job task is awaited, so each job ends ``done`` or ``failed``,
   never dangling;
4. orphaned atomic-write temp files under the cache root are swept
   (age threshold zero — with all writers drained, any ``*.tmp`` left is
   garbage by definition).
"""

from __future__ import annotations

import asyncio
import signal
from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.experiments.campaign import version_payload
from repro.experiments.store import ResultStore, sweep_stale_tmp
from repro.serve.jobs import JobService
from repro.serve.scheduler import CoalescingScheduler

__all__ = ["ServeApp"]


class ServeApp:
    """The campaign server: one store, one scheduler, one job index."""

    def __init__(self, store: ResultStore, workers: int = 0) -> None:
        self.store = store
        self.scheduler = CoalescingScheduler(store, workers=workers)
        self.jobs = JobService(
            store, self.scheduler, artifact_root=Path(store.root) / "serve"
        )
        from repro.serve.http import HttpFrontend

        self.http = HttpFrontend(self)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._shutdown_started = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Payloads shared by the HTTP front-end.
    # ------------------------------------------------------------------

    def version_payload(self) -> Dict:
        """``GET /v1/version`` — byte-identical to ``campaign --version-tag``."""
        return version_payload()

    def stats_payload(self) -> Dict:
        """``GET /v1/stats`` — scheduler and job counters, store size."""
        states: Dict[str, int] = {}
        for job in self.jobs.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "scheduler": self.scheduler.stats_payload(),
            "jobs": {"accepted": len(self.jobs.jobs), "states": states},
            "store": {"root": str(self.store.root), "results": len(self.store)},
        }

    def metrics_text(self) -> str:
        """``GET /metrics`` — the obs registry in Prometheus text format."""
        self.scheduler.update_gauges()
        return obs.get_registry().render_prometheus()

    def status_html(self) -> str:
        """``GET /`` — a self-contained HTML status page."""
        from repro.serve.status import render_status_page

        return render_status_page(self)

    def jobs_index(self) -> Dict:
        """``GET /v1/jobs`` — newest first, summaries only."""
        ordered = sorted(
            self.jobs.jobs.values(), key=lambda job: job.created, reverse=True
        )
        return {"jobs": [job.summary() for job in ordered]}

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start scheduler and listener; returns the bound port."""
        await self.scheduler.start()
        self.host, self.port = await self.http.start(host, port)
        return self.port

    async def shutdown(self) -> None:
        """Graceful stop; safe to call more than once."""
        if self._shutdown_started:
            await self._stopped.wait()
            return
        self._shutdown_started = True
        self.jobs.accepting = False
        await self.scheduler.close()
        await self.jobs.shutdown()
        await self.http.close()
        # All writers are drained: any temp file still staged under the
        # cache tree is an orphan, whatever its age.  The sweep walks the
        # store tree on disk, so it runs on the loop's default executor —
        # late job-failure statuses keep streaming while it scans.
        loop = asyncio.get_running_loop()
        swept = await loop.run_in_executor(
            None, lambda: sweep_stale_tmp(self.store.root, max_age=0.0)
        )
        if swept:
            print(f"serve: swept {swept} orphaned temp file(s)")
        self._stopped.set()

    async def serve_forever(self, host: str, port: int) -> None:
        """Run until SIGINT/SIGTERM, then shut down gracefully."""
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        bound_port = await self.start(host, port)
        print(
            f"repro.serve: listening on http://{self.host}:{bound_port} "
            f"(store {self.store.root}, workers {self.scheduler.workers})",
            flush=True,
        )
        try:
            await stop.wait()
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(signum)
            print("repro.serve: shutting down (draining in-flight batches)")
            await self.shutdown()
            print("repro.serve: stopped")
