"""The scheduler's unit of work: one content-addressed simulation.

Every request the service accepts — a single pair, a figure campaign's
whole matrix, an exploration round — decomposes into :class:`WorkUnit`\\ s,
and every unit is identified by the *same* ``result_key`` fingerprint the
disk store uses. That shared address is what makes coalescing sound: two
requests whose units hash alike are, by the store's own contract, asking
for bit-identical results, so one execution can answer both.

The simulation kernel is deliberately *not* part of the key (all kernels
are bit-identical by contract, and no config holds a kernel), but it *is*
part of the batch signature: a batch maps onto one
``ExperimentRunner.run_many`` call, which takes a single scale / kernel /
sampling plan for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.config import stable_fingerprint
from repro.experiments.runner import RunScale, SchemeOrConfig, resolve_config
from repro.experiments.store import result_key
from repro.workloads.suites import get_profile

__all__ = [
    "WorkUnit",
    "UnitOutcome",
    "PROVENANCE_STORE",
    "PROVENANCE_COALESCED",
    "PROVENANCE_SIMULATED",
]

#: The unit was answered from the warm result store — zero simulations.
PROVENANCE_STORE = "store"
#: The unit joined an identical in-flight unit — zero *extra* simulations.
PROVENANCE_COALESCED = "coalesced"
#: The unit was the first asker and triggered the execution.
PROVENANCE_SIMULATED = "simulated"


@dataclass(frozen=True)
class WorkUnit:
    """One (benchmark, scheme-or-config) simulation at a given scale."""

    benchmark: str
    scheme: SchemeOrConfig
    scale: RunScale
    kernel: Optional[str] = None
    sampling: Optional[object] = None

    def key(self) -> str:
        """The unit's content address — identical to the store's key."""
        return result_key(
            resolve_config(self.scheme),
            get_profile(self.benchmark),
            self.scale,
            sampling=self.sampling,
        )

    def batch_signature(self) -> Tuple[str, str, str]:
        """Units sharing this signature fold into one ``run_many`` call."""
        return (
            stable_fingerprint(self.scale),
            self.kernel or "",
            stable_fingerprint(self.sampling) if self.sampling is not None else "",
        )


@dataclass(frozen=True)
class UnitOutcome:
    """How one unit was answered: its result plus provenance."""

    unit: WorkUnit
    key: str
    provenance: str
    stats: object  # SimulationStats

    def event_payload(self) -> dict:
        """The per-unit provenance record streamed to job watchers."""
        from repro.common.config import scheme_name, IssueSchemeConfig

        scheme = self.unit.scheme
        return {
            "benchmark": self.unit.benchmark,
            "scheme": (
                scheme_name(scheme)
                if isinstance(scheme, IssueSchemeConfig)
                else stable_fingerprint(scheme)[:12]
            ),
            "key": self.key,
            "provenance": self.provenance,
        }
