"""Process-local metrics registry: counters, gauges, histograms.

The registry is the one sink for every quantitative signal the stack
emits — cache hits, simulated cycles, queue depths, span durations.
Design constraints, in order:

* **Sidecar only.** Nothing here is ever consulted by simulation code;
  values flow *out* of the registry (Prometheus text, snapshots, the
  campaign footer) and never back into a ``result_key``, fingerprint or
  artifact.
* **Mergeable.** Counters and histograms are monotone accumulators, so
  a worker process can snapshot the registry before a job, compute the
  delta afterwards, and ship it to the parent where
  :meth:`MetricsRegistry.merge_delta` folds it in losslessly — the same
  content whether the matrix ran serially or across a pool.
* **Deterministic rendering.** Snapshots and the Prometheus exposition
  sort by series identity, so two registries with equal contents render
  byte-identically.

Gauges are point-in-time readings (queue depth, in-flight batches);
they are deliberately excluded from deltas and merges.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CYCLE_BUCKETS",
    "SECONDS_BUCKETS",
    "SPAN_COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "kernel_totals",
    "record_kernel_delta",
    "set_registry",
]

# Fixed bucket boundaries (upper bounds, exclusive of +Inf). Fixed so
# every process buckets identically and worker deltas merge bucket by
# bucket without resampling.
CYCLE_BUCKETS: Tuple[float, ...] = (
    100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0
)
SPAN_COUNT_BUCKETS: Tuple[float, ...] = (1.0, 10.0, 100.0, 1_000.0, 10_000.0)
SECONDS_BUCKETS: Tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0)

_KERNEL_FIELDS = ("executed_cycles", "skipped_cycles", "skip_spans")
_KERNEL_RUN_BUCKETS = {
    "executed_cycles": CYCLE_BUCKETS,
    "skipped_cycles": CYCLE_BUCKETS,
    "skip_spans": SPAN_COUNT_BUCKETS,
}


def _series_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical, reversible series identity (used in snapshots)."""
    return json.dumps([name, sorted(labels.items())], separators=(",", ":"))


def _parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    name, items = json.loads(key)
    return name, dict(items)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = sorted(labels.items()) + list(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        value = int(value)
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotone accumulator."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Point-in-time reading; excluded from deltas and merges."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram (per-bucket counts + sum + count)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self, name: str, labels: Dict[str, str], buckets: Tuple[float, ...]
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs sorted, non-empty buckets")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last bin is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def merge_raw(self, counts: Iterable[int], total: float, count: int) -> None:
        counts = list(counts)
        if len(counts) != len(self.counts):
            raise ValueError(f"histogram {self.name}: bucket count mismatch")
        for i, c in enumerate(counts):
            self.counts[i] += c
        self.sum += total
        self.count += count


class MetricsRegistry:
    """Thread-safe registry of named, labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Repeat requests, ``(name, *labels as passed)`` (histograms add
        # their buckets after the name), to the handle a miss resolved.
        # The series key stays the identity: it is computed on a miss,
        # under the lock, where these are filled.
        self._counter_handles: Dict[tuple, Counter] = {}
        self._histogram_handles: Dict[tuple, Histogram] = {}

    # -- metric handles ------------------------------------------------

    @staticmethod
    def _labelled(labels: Dict[str, object]) -> Dict[str, str]:
        return {str(k): str(v) for k, v in labels.items()}

    @staticmethod
    def _reusable(labels: Dict[str, object]) -> bool:
        """Whether a request may be answered by its ``==``-equal repeat.

        Only all-``str`` labels qualify: ``1``, ``1.0`` and ``True``
        compare equal yet name three series.
        """
        return all(type(v) is str for v in labels.values())

    def counter(self, name: str, **labels: object) -> Counter:
        request = (name, *labels.items())
        metric = self._counter_handles.get(request)
        if metric is not None:
            return metric
        labelled = self._labelled(labels)
        key = _series_key(name, labelled)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, labelled)
            if self._reusable(labels):
                self._counter_handles[request] = metric
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        labelled = self._labelled(labels)
        key = _series_key(name, labelled)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, labelled)
        return metric

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = SECONDS_BUCKETS,
        **labels: object,
    ) -> Histogram:
        request = (name, buckets, *labels.items())
        metric = self._histogram_handles.get(request)
        if metric is not None:
            return metric
        labelled = self._labelled(labels)
        key = _series_key(name, labelled)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(
                    name, labelled, buckets
                )
            if metric.buckets != tuple(float(b) for b in buckets):
                raise ValueError(f"histogram {name}: conflicting bucket bounds")
            if self._reusable(labels):
                self._histogram_handles[request] = metric
        return metric

    # -- snapshots, deltas, merges ------------------------------------

    def snapshot(self) -> Dict:
        """Deep, JSON-able copy of the current state (sorted keys)."""
        with self._lock:
            return {
                "counters": {
                    key: metric.value
                    for key, metric in sorted(self._counters.items())
                },
                "gauges": {
                    key: metric.value
                    for key, metric in sorted(self._gauges.items())
                },
                "histograms": {
                    key: {
                        "buckets": list(metric.buckets),
                        "counts": list(metric.counts),
                        "sum": metric.sum,
                        "count": metric.count,
                    }
                    for key, metric in sorted(self._histograms.items())
                },
            }

    def delta_since(self, before: Dict) -> Dict:
        """Counter/histogram growth since ``before`` (a snapshot).

        Gauges are point-in-time and excluded. Zero deltas are dropped,
        so a worker that did nothing ships an empty payload.
        """
        now = self.snapshot()
        prior_counters = before.get("counters", {})
        counters = {
            key: value - prior_counters.get(key, 0)
            for key, value in now["counters"].items()
            if value != prior_counters.get(key, 0)
        }
        prior_hists = before.get("histograms", {})
        histograms = {}
        for key, state in now["histograms"].items():
            prior = prior_hists.get(key)
            if prior is None:
                if state["count"]:
                    histograms[key] = state
                continue
            if state["count"] == prior["count"]:
                continue
            histograms[key] = {
                "buckets": state["buckets"],
                "counts": [
                    a - b for a, b in zip(state["counts"], prior["counts"])
                ],
                "sum": state["sum"] - prior["sum"],
                "count": state["count"] - prior["count"],
            }
        return {"counters": counters, "histograms": histograms}

    def merge_delta(self, delta: Optional[Dict]) -> None:
        """Fold a worker's :meth:`delta_since` payload into this registry."""
        if not delta:
            return
        for key, amount in delta.get("counters", {}).items():
            name, labels = _parse_series_key(key)
            self.counter(name, **labels).inc(amount)
        for key, state in delta.get("histograms", {}).items():
            name, labels = _parse_series_key(key)
            metric = self.histogram(
                name, buckets=tuple(state["buckets"]), **labels
            )
            with self._lock:
                metric.merge_raw(state["counts"], state["sum"], state["count"])

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._counter_handles.clear()
            self._histogram_handles.clear()

    # -- rendering -----------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4), sorted and stable."""
        lines: List[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        seen_type: set = set()

        def header(name: str, kind: str) -> None:
            if name not in seen_type:
                seen_type.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for __, metric in counters:
            header(metric.name, "counter")
            lines.append(
                f"{metric.name}{_render_labels(metric.labels)}"
                f" {_format_value(metric.value)}"
            )
        for __, metric in gauges:
            header(metric.name, "gauge")
            lines.append(
                f"{metric.name}{_render_labels(metric.labels)}"
                f" {_format_value(metric.value)}"
            )
        for __, metric in histograms:
            header(metric.name, "histogram")
            cumulative = 0
            for bound, count in zip(metric.buckets, metric.counts):
                cumulative += count
                labels = _render_labels(
                    metric.labels, (("le", _format_value(bound)),)
                )
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
            labels = _render_labels(metric.labels, (("le", "+Inf"),))
            lines.append(f"{metric.name}_bucket{labels} {metric.count}")
            bare = _render_labels(metric.labels)
            lines.append(f"{metric.name}_sum{bare} {_format_value(metric.sum)}")
            lines.append(f"{metric.name}_count{bare} {metric.count}")
        return "\n".join(lines) + "\n"


# The process-global registry. Call sites go through the module-level
# helpers below (never the bare binding) so tests can swap a fresh
# registry in with :func:`set_registry`.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process registry; returns the old one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def counter(name: str, **labels: object) -> Counter:
    return get_registry().counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    return get_registry().gauge(name, **labels)


def histogram(
    name: str, buckets: Tuple[float, ...] = SECONDS_BUCKETS, **labels: object
) -> Histogram:
    return get_registry().histogram(name, buckets=buckets, **labels)


def record_kernel_delta(kernel: str, delta: Dict[str, int]) -> None:
    """Absorb one run's ``KernelTelemetry`` growth into the registry.

    Feeds both the per-kernel lifetime counters
    (``repro_kernel_<field>_total{kernel=...}``) and the per-run
    distribution histograms (``repro_run_<field>{kernel=...}``).
    """
    registry = get_registry()
    for field in _KERNEL_FIELDS:
        amount = int(delta.get(field, 0))
        if amount:
            registry.counter(
                f"repro_kernel_{field}_total", kernel=kernel
            ).inc(amount)
        registry.histogram(
            f"repro_run_{field}",
            buckets=_KERNEL_RUN_BUCKETS[field],
            kernel=kernel,
        ).observe(amount)


def kernel_totals() -> Dict[str, int]:
    """Kernel-cycle totals summed across kernels, ``KernelTelemetry`` shape."""
    totals = {field: 0 for field in _KERNEL_FIELDS}
    snap = get_registry().snapshot()["counters"]
    for key, value in snap.items():
        name, __ = _parse_series_key(key)
        if name.startswith("repro_kernel_") and name.endswith("_total"):
            field = name[len("repro_kernel_"):-len("_total")]
            if field in totals:
                totals[field] += value
    return totals
