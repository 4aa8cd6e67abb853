"""Issue-queue organizations: the paper's contribution and its baselines."""

from repro.common.config import (
    SCHEME_CONVENTIONAL,
    SCHEME_ISSUEFIFO,
    SCHEME_LATFIFO,
    SCHEME_MIXBUFF,
    ProcessorConfig,
)
from repro.common.stats import StatCounters
from repro.issue.base import IssueContext, IssueScheme
from repro.issue.conventional import ConventionalIssueQueue
from repro.issue.fifo_side import FifoSide
from repro.issue.issuefifo import IssueFifoScheme
from repro.issue.latency_estimator import IssueTimeEstimator
from repro.issue.latfifo import LatencyPlacedFifoSide, LatFifoScheme
from repro.issue.mapping import QueueRenameTable
from repro.issue.mixbuff import MixBuffScheme, MixBuffSide
from repro.issue.selection import (
    CODE_FINISHED,
    CODE_FINISHES_NEXT_CYCLE,
    CODE_NOT_READY,
    SelectableEntry,
    latency_code,
    select_entry,
    selection_key,
)

__all__ = [
    "CODE_FINISHED",
    "CODE_FINISHES_NEXT_CYCLE",
    "CODE_NOT_READY",
    "ConventionalIssueQueue",
    "FifoSide",
    "IssueContext",
    "IssueFifoScheme",
    "IssueScheme",
    "IssueTimeEstimator",
    "LatFifoScheme",
    "LatencyPlacedFifoSide",
    "MixBuffScheme",
    "MixBuffSide",
    "QueueRenameTable",
    "SelectableEntry",
    "build_scheme",
    "latency_code",
    "select_entry",
    "selection_key",
]


def build_scheme(config: ProcessorConfig, events: StatCounters) -> IssueScheme:
    """Instantiate the issue scheme named by ``config.scheme.kind``."""
    kind = config.scheme.kind
    if kind == SCHEME_CONVENTIONAL:
        return ConventionalIssueQueue(config, events)
    if kind == SCHEME_ISSUEFIFO:
        return IssueFifoScheme(config, events)
    if kind == SCHEME_LATFIFO:
        return LatFifoScheme(config, events)
    if kind == SCHEME_MIXBUFF:
        return MixBuffScheme(config, events)
    raise ValueError(f"unknown scheme kind {kind!r}")
