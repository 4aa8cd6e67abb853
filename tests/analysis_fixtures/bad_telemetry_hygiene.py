# repro-fixture-module: repro.experiments.bad_fixture
"""Known-bad fixture for the telemetry-hygiene rule: an orchestration
module reading the wall clock directly instead of through
repro.obs.clock, the one audited clock site."""

import time


def stamp() -> float:
    return time.time()
