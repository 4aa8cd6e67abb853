"""Analysis orchestration: discovery, suppression, reporting.

``run_analysis`` walks the target tree once, runs every applicable rule
on every file, applies suppressions and assembles a deterministic
report whose JSON form is byte-identical between two runs over the same
tree.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.framework import (
    RULE_PARSE_ERROR,
    Finding,
    Project,
    Rule,
    SourceFile,
    apply_suppressions,
)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID

REPORT_SCHEMA = "repro-analysis-report-v1"


def default_root() -> Path:
    """The installed ``repro`` package tree (``src/repro`` in-repo)."""
    return Path(__file__).resolve().parent.parent


@dataclass
class AnalysisReport:
    """Everything one run produced, ready to render."""

    findings: List[Finding]  # unsuppressed (the gate)
    suppressed: List[Finding]
    rules: List[str]
    files_analyzed: int
    file_relpaths: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_json_payload(self) -> Dict[str, object]:
        """Deterministic payload: no timestamps, no absolute paths — a
        rerun over the same tree must reproduce the bytes exactly."""
        return {
            "files": self.file_relpaths,
            "files_analyzed": self.files_analyzed,
            "findings": [f.to_dict() for f in self.findings],
            "rules": self.rules,
            "schema": REPORT_SCHEMA,
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_payload(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = [
            f"{f.path}:{f.line}:{f.col + 1}: {f.rule}: {f.message}"
            for f in self.findings
        ]
        lines.append(
            f"analysis: {self.files_analyzed} files, "
            f"{len(self.findings)} findings "
            f"({len(self.suppressed)} suppressed)"
        )
        return "\n".join(lines)


def discover_files(targets: Sequence[Path], base: Path) -> List[SourceFile]:
    seen: Set[Path] = set()
    out: List[SourceFile] = []
    for target in targets:
        target = Path(target)
        paths = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for path in paths:
            path = path.resolve()
            if path in seen or "__pycache__" in path.parts:
                continue
            seen.add(path)
            relpath = Path(os.path.relpath(path, base)).as_posix()
            out.append(
                SourceFile(
                    path=path,
                    relpath=relpath,
                    module=_module_for(path, base),
                    text=path.read_text(encoding="utf-8"),
                )
            )
    return out


def _module_for(path: Path, base: Path) -> Optional[str]:
    """Dotted module for files under ``<base>/repro``; fixture files
    elsewhere fall back to their ``repro-fixture-module`` pragma."""
    try:
        rel = path.resolve().relative_to(Path(base).resolve())
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def run_analysis(
    targets: Optional[Sequence[Path]] = None,
    *,
    base: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisReport:
    if targets is None:
        targets = [default_root()]
        if base is None:
            base = default_root().parent
    if base is None:
        base = Path.cwd()
    if rules is None:
        rules = ALL_RULES

    project = Project(discover_files(targets, base), base)

    raw: List[Finding] = []
    for sf in project.files:
        if sf.tree is None:
            raw.append(
                Finding(
                    path=sf.relpath,
                    line=1,
                    col=0,
                    rule=RULE_PARSE_ERROR,
                    message=f"cannot parse: {sf.parse_error}",
                )
            )
            continue
        for rule in rules:
            if rule.applies(sf, project):
                raw.extend(rule.check(sf, project))

    outcome = apply_suppressions(project, raw, RULES_BY_ID.keys())

    return AnalysisReport(
        findings=sorted(outcome.active + outcome.meta),
        suppressed=outcome.suppressed,
        rules=[rule.id for rule in rules],
        files_analyzed=len(project.files),
        file_relpaths=[sf.relpath for sf in project.files],
    )
