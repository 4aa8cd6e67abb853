"""Warm-state cycle-freedom (ROADMAP "Invariants").

Warm states are functional-only: positions, table contents, histories —
never cycle numbers.  A sampled slice restores its warm state into a
fresh ``Processor`` that runs from cycle 0, so any cycle-number-typed
payload is stale on arrival.  This rule inspects ``state_snapshot``
payloads and warm-state dataclasses for cycle/tick/timestamp-named
fields.  (Its id keeps the older name, ``checkpoint-cycle-free``.)
"""

from __future__ import annotations

import ast
import re
from typing import List

from repro.analysis.framework import TAGGED, Finding, Project, Rule, SourceFile

# Names that denote a point on the cycle axis rather than a functional
# position.  Matched against whole underscore-separated words.
CYCLE_WORD_RE = re.compile(
    r"(^|_)(cycle|cycles|tick|ticks|timestamp|wallclock|clock)(_|$)"
)

SNAPSHOT_CLASS_RE = re.compile(r"(State|Snapshot|Checkpoint)$")
SNAPSHOT_METHOD = "state_snapshot"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


class CheckpointCycleFreeRule(Rule):
    id = "checkpoint-cycle-free"
    summary = (
        "state_snapshot payloads and warm-state dataclasses must not "
        "carry cycle-number-typed fields"
    )
    rationale = (
        "Warm states restore into a fresh Processor at cycle 0; a "
        "smuggled cycle number is stale on restore."
    )

    def applies(self, source: SourceFile, project: Project) -> bool:
        return source.in_package(TAGGED)

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == SNAPSHOT_METHOD:
                findings.extend(self._check_snapshot(source, node))
            elif isinstance(node, ast.ClassDef) and SNAPSHOT_CLASS_RE.search(node.name):
                if _is_dataclass(node):
                    findings.extend(self._check_state_class(source, node))
        return findings

    def _check_snapshot(
        self, source: SourceFile, func: ast.FunctionDef
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and CYCLE_WORD_RE.search(key.value)
                    ):
                        findings.append(
                            self.finding(
                                source,
                                key,
                                (
                                    f"state_snapshot payload key "
                                    f"'{key.value}' carries a cycle-typed "
                                    f"value — warm states must be "
                                    f"functional-only"
                                ),
                                symbol=f"{SNAPSHOT_METHOD}.{key.value}",
                            )
                        )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if CYCLE_WORD_RE.search(node.attr):
                    findings.append(
                        self.finding(
                            source,
                            node,
                            (
                                f"state_snapshot reads '.{node.attr}' — a "
                                f"cycle-typed value must not flow into a "
                                f"warm-state payload"
                            ),
                            symbol=f"{SNAPSHOT_METHOD}.{node.attr}",
                        )
                    )
        return findings

    def _check_state_class(
        self, source: SourceFile, node: ast.ClassDef
    ) -> List[Finding]:
        findings: List[Finding] = []
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                if CYCLE_WORD_RE.search(item.target.id):
                    findings.append(
                        self.finding(
                            source,
                            item,
                            (
                                f"warm-state field "
                                f"'{node.name}.{item.target.id}' is "
                                f"cycle-typed — warm states restore at "
                                f"cycle 0, so the value is stale on arrival"
                            ),
                            symbol=f"{node.name}.{item.target.id}",
                        )
                    )
        return findings
