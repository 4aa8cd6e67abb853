"""Contract-verification static analysis for the repro tree.

The dynamic nets (goldens, differential oracles, fault injection) catch
an invariant violation only when a workload exercises it; this package
proves the same contracts at the source level — skip-safety,
determinism, fingerprint/version-tag completeness, warm-state
cycle-freedom, serve async hygiene, telemetry hygiene.

Entry points: ``python -m repro.analysis`` (CLI) and
:func:`run_analysis` (library).
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisReport,
    default_root,
    run_analysis,
)
from repro.analysis.framework import Finding, Project, Rule, SourceFile
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, resolve_rules

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "AnalysisReport",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "default_root",
    "resolve_rules",
    "run_analysis",
]
