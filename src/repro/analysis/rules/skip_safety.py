"""Skip-safety contracts (ROADMAP "Invariants").

The skip kernel proves quiescence and jumps over idle spans, so any
per-cycle behaviour must either declare its next cycle-number-dependent
boundary through the ``next_activity_cycle()`` contract family, or be a
pure counter accrual that the interval accounting replays — which means
the counter must be registered in ``idle_counters()`` /
``apply_idle_counters()``.  A class that mutates state on the step path
without either contract silently diverges from the naive kernel the
first time a skip span covers its activity.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.framework import (
    Finding,
    Project,
    Rule,
    SourceFile,
    root_name,
)

# Packages whose classes sit on the per-cycle simulation path.
SCOPE = ("repro.core", "repro.issue", "repro.frontend", "repro.memory")

# Methods invoked every detailed cycle by the kernels.
STEP_METHODS = frozenset({"step", "fetch_cycle", "on_cycle_end"})

# The contract family: defining (or inheriting) any of these declares
# the class's cycle-number-dependent boundaries to the skip kernel.
NEXT_FAMILY = frozenset(
    {
        "next_activity_cycle",
        "next_dispatch_activity_cycle",
        "next_code_boundary",
        "next_event_cycle",
    }
)

# Methods that accrue per-cycle/per-attempt counters which the idle
# accounting must replay over skipped spans.
COUNTER_METHODS = frozenset(
    {"on_cycle_end", "try_dispatch", "try_place", "place_by_estimate", "_choose_queue"}
)

IDLE_REGISTRY_METHODS = ("idle_counters", "apply_idle_counters")


def _self_mutations(func: ast.AST) -> List[ast.AST]:
    """Statements that write a direct ``self.<attr>`` inside ``func``,
    excluding nested function/class bodies."""
    out: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign) else [child.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and root_name(target) == "self"
                    ):
                        out.append(child)
            visit(child)

    visit(func)
    return out


def _simple_counter_augassigns(func: ast.AST) -> List[ast.AugAssign]:
    """``self.<name> += ...`` with a one-level attribute target.

    Subscripted or chained targets (``self.rev[side] += 1``,
    ``self.side.x += 1``) are structural state resolved by other
    contracts, not interval counters."""
    out: List[ast.AugAssign] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.AugAssign):
                target = child.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.append(child)
            visit(child)

    visit(func)
    return out


def _is_trivial(func: ast.FunctionDef) -> bool:
    """Docstring-only / ``pass`` / bare-constant-return bodies carry no
    per-cycle behaviour (the no-op base-class hooks)."""
    body = [
        stmt
        for stmt in func.body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    if not body:
        return True
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Return)
            and (stmt.value is None or isinstance(stmt.value, ast.Constant))
        )
        for stmt in body
    )


def _registered_names(project: Project, class_name: str) -> Set[str]:
    """Names mentioned in ``idle_counters``/``apply_idle_counters``
    anywhere in the class's resolvable MRO — as ``self.<name>``
    attributes or as string keys."""
    names: Set[str] = set()
    for info in project.resolve_mro(class_name):
        for item in info.node.body:
            if (
                isinstance(item, ast.FunctionDef)
                and item.name in IDLE_REGISTRY_METHODS
            ):
                for node in ast.walk(item):
                    if isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        names.add(node.value)
    return names


def _mro_defines(project: Project, class_name: str, methods: frozenset) -> bool:
    for info in project.resolve_mro(class_name):
        for item in info.node.body:
            if isinstance(item, ast.FunctionDef) and item.name in methods:
                return True
    return False


class SkipSafetyRule(Rule):
    id = "skip-safety"
    summary = (
        "per-cycle mutation requires a next_activity_cycle()-family "
        "contract; per-cycle counters must be registered for idle accounting"
    )
    rationale = (
        "The skip kernel jumps over proven-idle spans; unreported "
        "cycle-dependent behaviour or unregistered counters silently "
        "diverge from the naive kernel."
    )

    def applies(self, source: SourceFile, project: Project) -> bool:
        return source.in_package(SCOPE)

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                symbol = f"{node.name}.{item.name}"
                if (
                    item.name in STEP_METHODS
                    and not _is_trivial(item)
                    and _self_mutations(item)
                    and not _mro_defines(project, node.name, NEXT_FAMILY)
                ):
                    findings.append(
                        self.finding(
                            source,
                            item,
                            (
                                f"{symbol} mutates state on the per-cycle path "
                                f"but the class defines/inherits none of "
                                f"{sorted(NEXT_FAMILY)} — the skip kernel "
                                f"cannot see its activity boundaries"
                            ),
                            symbol=symbol,
                        )
                    )
                if item.name in COUNTER_METHODS:
                    registered = None
                    for aug in _simple_counter_augassigns(item):
                        counter = aug.target.attr  # type: ignore[union-attr]
                        if registered is None:
                            registered = _registered_names(project, node.name)
                        if counter not in registered:
                            findings.append(
                                self.finding(
                                    source,
                                    aug,
                                    (
                                        f"counter 'self.{counter}' accrued in "
                                        f"{symbol} is not registered in "
                                        f"idle_counters()/apply_idle_counters() "
                                        f"— skipped spans drop its increments"
                                    ),
                                    symbol=f"{symbol}.{counter}",
                                )
                            )
        return findings
