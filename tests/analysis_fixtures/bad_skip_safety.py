# repro-fixture-module: repro.issue.bad_fixture
"""Known-bad fixture for the skip-safety rule.

``BadSide.step`` mutates per-cycle state with no
``next_activity_cycle()``-family contract anywhere in its MRO, and
``try_place`` accrues a counter on the component itself instead of in
the processor's events, so skipped spans never replay it.
"""


class BadSide:
    def __init__(self) -> None:
        self.dispatch_stalls = 0
        self.busy_cycles = 0

    def step(self, cycle: int) -> None:
        # Per-cycle mutation, no next_* contract: invisible to the skip
        # kernel's quiescence proof.
        self.busy_cycles += 1

    def try_place(self, inst) -> bool:
        # Counter accrued on the dispatch path, outside the interval
        # accounting.
        self.dispatch_stalls += 1
        return False
