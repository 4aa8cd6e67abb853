"""Fingerprint completeness for cache-key dataclasses.

``stable_fingerprint`` canonicalizes every field of a config dataclass
to sorted JSON and caches that rendering on a frozen instance. Both are
sound only for a frozen dataclass whose fields render stably and cannot
change in place, so this rule requires ``@dataclass(frozen=True)`` and
rejects fields annotated with an unstable type or a mutable container.
"""

from __future__ import annotations

import ast
from typing import List, Optional

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


# Annotations of containers that can change in place: a cached
# fingerprint of an instance holding one could go stale.
MUTABLE_ANNOTATIONS = frozenset(
    {"Dict", "List", "MutableMapping", "MutableSequence", "dict", "list"}
)


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if terminal_name(target) == "dataclass":
            return dec
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in decorator.keywords
    )


class FingerprintCompletenessRule(Rule):
    id = "fingerprint-completeness"
    summary = (
        "cache-key dataclasses: frozen, every field JSON-stable and "
        "immutable"
    )
    rationale = (
        "stable_fingerprint renders every field into content-addressed "
        "cache keys — an unstable rendering makes keys irreproducible — "
        "and caches each frozen instance's rendering, which an in-place "
        "change would leave stale."
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
            findings.extend(self._check_class(source, node))
        return findings

    def _is_fingerprinted(self, node: ast.ClassDef, project: Project) -> bool:
        if node.name in FINGERPRINTED_ROOTS:
            return True
        return any(
            info.name == MIXIN for info in project.resolve_mro(node.name)
        )

    def _check_class(self, source: SourceFile, node: ast.ClassDef) -> List[Finding]:
        findings: List[Finding] = []
        decorator = _dataclass_decorator(node)
        if decorator is None:
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
        if not _is_frozen(decorator):
            findings.append(
                self.finding(
                    source,
                    node,
                    (
                        f"{node.name} is fingerprinted for cache keys but is "
                        f"not @dataclass(frozen=True) — a fingerprint taken "
                        f"before a field assignment would address the old "
                        f"content"
                    ),
                    symbol=node.name,
                )
            )

        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or not isinstance(
                item.target, ast.Name
            ):
                continue
            symbol = f"{node.name}.{item.target.id}"
            bad = _annotation_token(item.annotation, UNSTABLE_ANNOTATIONS)
            if bad is not None:
                findings.append(
                    self.finding(
                        source,
                        item,
                        (
                            f"field '{symbol}' is "
                            f"annotated with '{bad}', whose canonical JSON "
                            f"is not stable — cache keys built from it are "
                            f"not reproducible"
                        ),
                        symbol=symbol,
                    )
                )
            mutable = _annotation_token(item.annotation, MUTABLE_ANNOTATIONS)
            if mutable is not None:
                findings.append(
                    self.finding(
                        source,
                        item,
                        (
                            f"field '{symbol}' is annotated with '{mutable}', "
                            f"a mutable container — changed in place, it "
                            f"would leave the instance's cached fingerprint "
                            f"stale; use a tuple or a frozen dataclass"
                        ),
                        symbol=symbol,
                    )
                )
        return findings


def _annotation_token(annotation: ast.AST, names: frozenset) -> Optional[str]:
    """The first name of ``names`` that ``annotation`` mentions, if any."""
    for node in ast.walk(annotation):
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotation fragment: match bare forbidden tokens.
            if node.value in names:
                name = node.value
        if name in names:
            return name
    return None
