"""Deterministic-safe observability: metrics registry + span tracer.

``repro.obs`` is the stack's telemetry sidecar. It is stdlib-only,
imports nothing from the rest of ``repro`` (so any layer may import it
without cycles), and deliberately stays **outside the version-tag
closure**: enabling tracing rotates no cache key, invalidates nothing,
and every artifact stays byte-identical with telemetry on or off.

Two enforcement points keep it honest:

* version-tagged packages (the simulator closure) must not import this
  package — the kernel/engine layers expose plain counters instead and
  the untagged experiment/serve layers absorb them into the registry;
* all wall-clock access anywhere under ``repro`` funnels through
  :mod:`repro.obs.clock`.

Both are machine-checked by ``repro.analysis``: a tagged module's
``repro.obs`` import is a ``version-tag-coverage`` finding, and a clock
read is a ``determinism`` finding in the tagged core and a
``telemetry-hygiene`` finding everywhere else outside ``repro.obs``.
"""

from repro.obs import clock
from repro.obs.metrics import (
    CYCLE_BUCKETS,
    SECONDS_BUCKETS,
    SPAN_COUNT_BUCKETS,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    kernel_totals,
    record_kernel_delta,
    set_registry,
)
from repro.obs.runtime import (
    ENV_VAR,
    configure,
    disable,
    flush,
    get_tracer,
    instant,
    span,
    trace_enabled,
)

__all__ = [
    "CYCLE_BUCKETS",
    "ENV_VAR",
    "SECONDS_BUCKETS",
    "SPAN_COUNT_BUCKETS",
    "MetricsRegistry",
    "clock",
    "configure",
    "counter",
    "disable",
    "flush",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "instant",
    "kernel_totals",
    "record_kernel_delta",
    "set_registry",
    "span",
    "trace_enabled",
]
