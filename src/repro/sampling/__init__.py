"""Statistical sampling (SMARTS-style sampled simulation).

Full detailed simulation pays cycle-accurate cost for every committed
instruction; this subsystem measures only systematically (or seeded-
randomly) chosen slices, keeps architectural state warm between them
with in-memory functional fast-forward, and reports whole-run
statistics as point estimates with explicit confidence intervals:

* :mod:`repro.sampling.plan` — the declarative :class:`SamplingPlan`
  (slice selection, lengths, confidence, error bound) and its CLI spec
  parser;
* :mod:`repro.sampling.ffwd` — functional fast-forward of caches and
  branch predictor between slices;
* :mod:`repro.sampling.estimator` — Student-t interval estimation and
  the synthesized whole-run stats downstream consumers score from.

The execution loop itself is :func:`repro.core.engine.run_sampled`; the
experiments layer plumbs plans through
:class:`~repro.experiments.runner.ExperimentRunner` (``sampling=...``),
the campaign CLI (``--sampling``) and exploration
(:class:`~repro.explore.drivers.ExplorationSettings`).
"""

from repro.sampling.estimator import (
    ESTIMATED_METRICS,
    MetricEstimate,
    SampledStats,
    estimate_sampled,
    student_t_critical,
)
from repro.sampling.ffwd import FunctionalWarmer, WarmState, slice_trace
from repro.sampling.plan import (
    MODE_RANDOM,
    MODE_SYSTEMATIC,
    SUPPORTED_CONFIDENCES,
    VALID_SAMPLING_MODES,
    SamplingPlan,
    SliceWindow,
)

__all__ = [
    "SamplingPlan",
    "SliceWindow",
    "MODE_SYSTEMATIC",
    "MODE_RANDOM",
    "VALID_SAMPLING_MODES",
    "SUPPORTED_CONFIDENCES",
    "SampledStats",
    "MetricEstimate",
    "ESTIMATED_METRICS",
    "estimate_sampled",
    "student_t_critical",
    "FunctionalWarmer",
    "WarmState",
    "slice_trace",
]
