"""Simulation-as-a-service: the async campaign server (`repro.serve`).

The CLIs answer one invocation at a time; this package turns the same
cached runner stack into a long-lived, multi-user service. Three ideas,
all riding on the content-addressed result store:

* **request coalescing** — every unit of work is keyed on the store's
  ``result_key`` fingerprint, so N concurrent askers of the same
  (config, profile, scale, kernel) share one execution and warm keys are
  answered with zero simulations (:mod:`repro.serve.scheduler`);
* **batched execution** — whenever one of the two batch slots is free,
  every compatible pending unit folds into one ``run_many`` campaign,
  fanned out over a process pool off the event loop;
* **jobs over HTTP** — simulation, figure-campaign and exploration
  requests are JSON jobs with status, a chunked progress stream carrying
  per-unit cache/coalescing provenance, and artifacts byte-identical to
  the CLI outputs (:mod:`repro.serve.jobs`, :mod:`repro.serve.http`).

Start it with ``python -m repro.serve --port 8642 --cache-dir DIR
--workers 4``; see :mod:`repro.serve.__main__` for the endpoint map.
"""

from __future__ import annotations

from repro.serve.app import ServeApp
from repro.serve.jobs import Job, JobError, JobService
from repro.serve.scheduler import (
    CoalescingScheduler,
    ScheduledRunner,
    SchedulerShutdown,
    ServeCounters,
)
from repro.serve.units import (
    PROVENANCE_COALESCED,
    PROVENANCE_SIMULATED,
    PROVENANCE_STORE,
    UnitOutcome,
    WorkUnit,
)

__all__ = [
    "ServeApp",
    "Job",
    "JobError",
    "JobService",
    "CoalescingScheduler",
    "ScheduledRunner",
    "SchedulerShutdown",
    "ServeCounters",
    "WorkUnit",
    "UnitOutcome",
    "PROVENANCE_STORE",
    "PROVENANCE_COALESCED",
    "PROVENANCE_SIMULATED",
]
