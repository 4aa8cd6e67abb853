"""Fingerprint completeness for cache-key dataclasses.

``stable_fingerprint`` canonicalizes a config dataclass to sorted JSON
and drops fields named in ``_FINGERPRINT_EXCLUDE`` via
``payload.pop(name, None)`` — which is *silent* when the name is stale
or misspelled, so a typo quietly re-includes (or never excludes) a
field and either poisons cache keys or aliases distinct configs.  This
rule makes the exclusion list, the dataclass decorator, and the
JSON-stability of every field machine-checked.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.framework import (
    Finding,
    Project,
    Rule,
    SourceFile,
    terminal_name,
)

# Dataclasses fingerprinted by call sites rather than via the
# _Fingerprinted mixin (profile/scale halves of every result key).
FINGERPRINTED_ROOTS = frozenset(
    {
        "BranchBehavior",
        "MemoryBehavior",
        "OperationMix",
        "RunScale",
        "WorkloadProfile",
    }
)

MIXIN = "_Fingerprinted"
EXCLUDE_ATTR = "_FINGERPRINT_EXCLUDE"

# Annotations whose canonical JSON is unstable (unordered, identity-
# based, or unserializable) — they have no business in a cache key.
UNSTABLE_ANNOTATIONS = frozenset(
    {
        "AbstractSet",
        "Any",
        "Callable",
        "FrozenSet",
        "MutableSet",
        "Set",
        "bytearray",
        "bytes",
        "complex",
        "frozenset",
        "object",
        "set",
    }
)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if terminal_name(target) == "dataclass":
            return True
    return False


def _field_names(node: ast.ClassDef) -> Set[str]:
    return {
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _exclude_assignment(node: ast.ClassDef) -> Optional[ast.Assign]:
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == EXCLUDE_ATTR:
                    return item
    return None


class FingerprintCompletenessRule(Rule):
    id = "fingerprint-completeness"
    summary = (
        "cache-key dataclasses: every field JSON-stable, every "
        "_FINGERPRINT_EXCLUDE entry a real declared field"
    )
    rationale = (
        "stable_fingerprint drops excluded fields with a silent "
        "dict.pop — a stale name re-includes the field and corrupts "
        "content-addressed cache keys without any runtime signal."
    )

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name == MIXIN:
                continue
            if not self._is_fingerprinted(node, project):
                continue
            findings.extend(self._check_class(source, node, project))
        return findings

    def _is_fingerprinted(self, node: ast.ClassDef, project: Project) -> bool:
        if node.name in FINGERPRINTED_ROOTS:
            return True
        if _exclude_assignment(node) is not None:
            return True
        return any(
            info.name == MIXIN for info in project.resolve_mro(node.name)
        )

    def _check_class(
        self, source: SourceFile, node: ast.ClassDef, project: Project
    ) -> List[Finding]:
        findings: List[Finding] = []
        if not _is_dataclass_decorated(node):
            findings.append(
                self.finding(
                    source,
                    node,
                    (
                        f"{node.name} is fingerprinted for cache keys but is "
                        f"not a @dataclass — stable_fingerprint only "
                        f"canonicalizes dataclass fields"
                    ),
                    symbol=node.name,
                )
            )
            return findings

        # Fields visible to asdict(): own plus resolvable bases'.
        all_fields = _field_names(node)
        for info in project.resolve_mro(node.name):
            all_fields |= _field_names(info.node)

        exclude = _exclude_assignment(node)
        if exclude is not None:
            value = exclude.value
            if not isinstance(value, (ast.Tuple, ast.List)) or not all(
                isinstance(el, ast.Constant) and isinstance(el.value, str)
                for el in value.elts
            ):
                findings.append(
                    self.finding(
                        source,
                        exclude,
                        (
                            f"{node.name}.{EXCLUDE_ATTR} must be a literal "
                            f"tuple of field-name strings"
                        ),
                        symbol=f"{node.name}.{EXCLUDE_ATTR}",
                    )
                )
            else:
                for el in value.elts:
                    if el.value not in all_fields:
                        findings.append(
                            self.finding(
                                source,
                                el,
                                (
                                    f"{EXCLUDE_ATTR} names '{el.value}' which "
                                    f"is not a declared field of {node.name} — "
                                    f"the silent dict.pop hides the typo and "
                                    f"the field stays in the cache key"
                                ),
                                symbol=f"{node.name}.{EXCLUDE_ATTR}",
                            )
                        )

        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or not isinstance(
                item.target, ast.Name
            ):
                continue
            bad = _unstable_annotation(item.annotation)
            if bad is not None:
                findings.append(
                    self.finding(
                        source,
                        item,
                        (
                            f"field '{node.name}.{item.target.id}' is "
                            f"annotated with '{bad}', whose canonical JSON "
                            f"is not stable — cache keys built from it are "
                            f"not reproducible"
                        ),
                        symbol=f"{node.name}.{item.target.id}",
                    )
                )
        return findings


def _unstable_annotation(annotation: ast.AST) -> Optional[str]:
    for node in ast.walk(annotation):
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotation fragment: match bare forbidden tokens.
            if node.value in UNSTABLE_ANNOTATIONS:
                name = node.value
        if name in UNSTABLE_ANNOTATIONS:
            return name
    return None
