"""Start ``repro.serve`` for ``serve_mix``, with the tracing wrappers if asked.

``python3 -m perfbench.serve_boot TOTALS|- [repro.serve arguments...]``

With ``-`` this only calls ``repro.serve.__main__.main``. With a path it
first installs the benchmark's wrappers, plus two server-side ones:

* ``CoalescingScheduler.resolve`` — how long each job awaited its units
  (``serve.resolve``), and when each unit was first asked for;
* ``ExperimentRunner.run_many`` in the batch thread — the batch's run
  time (``serve.batch_run``) and each unit's wait from its first ask to
  the start of its batch (``serve.queue_wait``);

and writes the process's totals and span events to the path once the
server has shut down.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402


def _install_server_wrappers(tracer: tracing.Tracer) -> None:
    from repro.experiments.runner import ExperimentRunner
    from repro.serve.scheduler import CoalescingScheduler

    lock = threading.Lock()
    first_asked = {}
    resolve = CoalescingScheduler.resolve

    @functools.wraps(resolve)
    async def timed_resolve(self, units):
        start = time.perf_counter()
        with lock:
            for unit in units:
                first_asked.setdefault((unit.benchmark, unit.scheme), start)
        try:
            return await resolve(self, units)
        finally:
            tracer.add("serve.resolve", seconds=time.perf_counter() - start)

    timed_run_many = tracer.timed(
        "serve.batch_run", ExperimentRunner.run_many, record=True
    )

    @functools.wraps(ExperimentRunner.run_many)
    def run_many(self, pairs, workers=None):
        now = time.perf_counter()
        with lock:
            waits = [now - first_asked.pop(pair) for pair in pairs if pair in first_asked]
        tracer.add("serve.queue_wait", calls=len(waits), seconds=sum(waits))
        return timed_run_many(self, pairs, workers)

    tracer._patch(CoalescingScheduler, "resolve", timed_resolve)
    tracer._patch(ExperimentRunner, "run_many", run_many)


def main(argv: List[str]) -> int:
    totals_path, server_args = argv[0], argv[1:]
    tracer = None
    if totals_path != "-":
        tracer = tracing.install()
        _install_server_wrappers(tracer)
    from repro.serve.__main__ import main as serve_main

    try:
        serve_main(server_args)
    finally:
        if tracer is not None:
            with open(totals_path, "w", encoding="utf-8") as fh:
                json.dump({"trace": tracer.summary(),
                           "chrome_events": tracer.chrome_events()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
