"""Tracing runtime: activation, the ``span()`` context manager, flush.

Activation is a sidecar switch with two equivalent spellings:

* ``--trace-out DIR`` on the campaign/explore/discover CLIs and
  ``python -m repro.serve`` (which call :func:`configure`), or
* the environment variable ``REPRO_TRACE=DIR``.

:func:`configure` also *exports* ``REPRO_TRACE``, so multiprocessing
pool workers forked afterwards pick tracing up automatically and write
their own pid-suffixed files into the same directory.
:func:`get_tracer` re-checks the pid on every call, so a forked child
that inherited the parent's tracer object transparently gets a fresh
one instead of appending to the parent's files.

``span()`` always feeds the duration histogram
``repro_span_seconds{span=...}`` in the metrics registry (cheap, and it
makes ``GET /metrics`` useful without tracing); trace *files* are only
written when tracing is configured.
"""

from __future__ import annotations

import atexit
import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.obs import clock, metrics
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ENV_VAR",
    "configure",
    "disable",
    "flush",
    "get_tracer",
    "instant",
    "span",
    "trace_enabled",
]

ENV_VAR = "REPRO_TRACE"

_TRACER: Optional[Tracer] = None
_ATEXIT_REGISTERED = False


def configure(trace_dir: os.PathLike) -> Tracer:
    """Enable tracing into ``trace_dir`` for this process and its workers."""
    global _TRACER, _ATEXIT_REGISTERED
    if _TRACER is not None and _TRACER.pid == os.getpid():
        # A forked child leaves the tracer it inherited alone: those
        # files are its parent's to write.
        _TRACER.close()
    _TRACER = Tracer(trace_dir)
    os.environ[ENV_VAR] = str(trace_dir)
    if not _ATEXIT_REGISTERED:
        _ATEXIT_REGISTERED = True
        atexit.register(flush)
    return _TRACER


def disable() -> None:
    """Flush and turn tracing off (tests; also clears ``REPRO_TRACE``)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None
    os.environ.pop(ENV_VAR, None)


def get_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer, or the shared no-op tracer when disabled."""
    global _TRACER
    if _TRACER is not None and _TRACER.pid == os.getpid():
        return _TRACER
    env = os.environ.get(ENV_VAR)
    if env:
        # Either first use under REPRO_TRACE, or a forked worker whose
        # inherited tracer belongs to the parent pid: (re)configure so
        # this process writes its own pid-suffixed files.
        return configure(env)
    return NULL_TRACER


def trace_enabled() -> bool:
    return get_tracer().enabled


@contextmanager
def span(name: str, **args: object) -> Iterator[Dict[str, object]]:
    """Time a block; yields a dict for provenance added mid-span.

    The duration always lands in ``repro_span_seconds{span=name}``;
    a trace event is emitted only when tracing is active.
    """
    tracer = get_tracer()
    extra: Dict[str, object] = {str(k): v for k, v in args.items()}
    start = clock.perf_counter()
    try:
        yield extra
    finally:
        duration = clock.perf_counter() - start
        metrics.histogram(
            "repro_span_seconds", buckets=metrics.SECONDS_BUCKETS, span=name
        ).observe(duration)
        if tracer.enabled:
            tracer.complete(name, start, duration, extra)


def instant(name: str, **args: object) -> None:
    """Point event in the trace (no-op when tracing is off)."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant(name, dict(args))


def flush() -> None:
    """Persist trace + metrics files for this process (no-op if off)."""
    tracer = get_tracer()
    if not tracer.enabled:
        return
    tracer.flush()
    prom = tracer.directory / f"metrics-{tracer.pid}.prom"
    tmp = prom.with_suffix(f".tmp-{tracer.pid}-{threading.get_ident()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(metrics.get_registry().render_prometheus())
    os.replace(tmp, prom)
