# repro-fixture-module: repro.core.bad_fixture
"""Known-bad fixture for the version-tag-coverage rule: a module hashed
into SIMULATOR_VERSION_TAG importing behaviour from packages outside
the digest source list, and importing repro.obs — the telemetry
back-edge into the hashed closure that would let tracing perturb cached
results."""

from repro import obs
from repro.explore.pareto import ParetoFrontier


def count_something():
    obs.counter("repro_bad_total").inc()


def lazy_edge():
    import repro.obs.metrics as metrics
    import repro.serve.jobs as jobs

    return jobs, metrics, ParetoFrontier
