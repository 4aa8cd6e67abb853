"""Version-tag coverage for the content-addressed result store.

Cached results are keyed on ``SIMULATOR_VERSION_TAG`` — a digest of the
packages listed in ``_SIMULATOR_PACKAGES`` — so a behaviour edit
self-invalidates stale entries.  That guarantee breaks the moment a
hashed module imports simulation behaviour from a package *outside* the
digest list: editing the un-hashed module changes simulated statistics
while the tag (and therefore every cache key) stays put, silently
serving stale results.  This rule checks every import edge out of the
hashed closure.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.framework import Finding, Project, Rule, SourceFile

STORE_MODULE = "repro.experiments.store"

# Modules outside the digest that hashed code may import: pure
# persistence/digest helpers whose behaviour cannot change a simulated
# statistic (results flow *into* the store, never out of it into the
# simulation).
EXEMPT_TARGETS = frozenset({STORE_MODULE})

# Mirror of the digest lists in repro.experiments.store, used when the
# store module itself is not part of the analyzed file set (fixture
# runs).  When the store *is* analyzed, the parsed lists are
# authoritative and a mismatch against this mirror is itself reported,
# so the two cannot drift apart silently.
FALLBACK_COVERED = frozenset(
    {
        "backends",
        "common",
        "core",
        "energy",
        "frontend",
        "isa",
        "issue",
        "memory",
        "sampling",
        "workloads",
    }
)


def _parse_covered(store: SourceFile) -> Optional[Tuple[Set[str], ast.AST]]:
    """Union of the package tuples digested into the version tags:
    ``_SIMULATOR_PACKAGES`` plus every ``package_sources_digest((...))``
    literal (the sampling/energy tag)."""
    tree = store.tree
    if tree is None:
        return None
    covered: Set[str] = set()
    anchor: Optional[ast.AST] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "_SIMULATOR_PACKAGES":
                    anchor = node
                    covered |= _string_elements(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "package_sources_digest":
                for arg in node.args:
                    covered |= _string_elements(arg)
    if anchor is None:
        return None
    return covered, anchor


def _string_elements(node: ast.AST) -> Set[str]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return {
            el.value
            for el in node.elts
            if isinstance(el, ast.Constant) and isinstance(el.value, str)
        }
    return set()


def _import_edges(tree: ast.AST) -> Iterable[Tuple[ast.AST, str]]:
    """(node, dotted target) for every repro-internal import, at any
    nesting depth — lazy function-level imports count the same."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro":
                for alias in node.names:
                    yield node, f"repro.{alias.name}"
            elif node.module.startswith("repro."):
                # `from repro.pkg import name` may bind a submodule or an
                # attribute; checking the module prefix covers both, and
                # `from repro.experiments import store` resolves to the
                # exempt module through the joined candidate.
                yield node, node.module


class VersionTagCoverageRule(Rule):
    id = "version-tag-coverage"
    summary = (
        "modules hashed into the version tags must not import simulator "
        "behaviour from outside the digest source list"
    )
    rationale = (
        "An import edge out of the hashed closure lets a behaviour edit "
        "change results while SIMULATOR_VERSION_TAG stays put — cached "
        "entries go stale with no invalidation signal."
    )

    def _covered(self, project: Project) -> Set[str]:
        store = project.by_module.get(STORE_MODULE)
        if store is not None:
            parsed = _parse_covered(store)
            if parsed is not None:
                return parsed[0]
        return set(FALLBACK_COVERED)

    def applies(self, source: SourceFile, project: Project) -> bool:
        if source.module == STORE_MODULE:
            return True
        return self._in_covered(source, project)

    def _in_covered(self, source: SourceFile, project: Project) -> bool:
        if source.module is None or not source.module.startswith("repro."):
            return False
        top = source.module.split(".")[1]
        return top in self._covered(project)

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings

        if source.module == STORE_MODULE:
            parsed = _parse_covered(source)
            if parsed is None:
                findings.append(
                    self.finding(
                        source,
                        tree,
                        (
                            "_SIMULATOR_PACKAGES tuple not found — the "
                            "version-tag-coverage rule can no longer read "
                            "the digest source list"
                        ),
                    )
                )
            elif parsed[0] != FALLBACK_COVERED:
                findings.append(
                    self.finding(
                        source,
                        parsed[1],
                        (
                            f"digest package list {sorted(parsed[0])} differs "
                            f"from the rule's mirror "
                            f"{sorted(FALLBACK_COVERED)} — update "
                            f"FALLBACK_COVERED in "
                            f"repro.analysis.rules.version_tags and re-audit "
                            f"import edges"
                        ),
                    )
                )
            if not self._in_covered(source, project):
                return findings

        covered = self._covered(project)
        for node, target in _import_edges(tree):
            parts = target.split(".")
            if len(parts) < 2:
                continue
            if parts[1] in covered:
                continue
            if target in EXEMPT_TARGETS or any(
                target.startswith(exempt + ".") for exempt in EXEMPT_TARGETS
            ):
                continue
            if isinstance(node, ast.ImportFrom):
                # Join candidates: exempt when every imported name lands
                # inside an exempt module (`from repro.experiments import
                # store`).
                names = [alias.name for alias in node.names]
                if names and all(
                    f"{target}.{name}" in EXEMPT_TARGETS for name in names
                ):
                    continue
            findings.append(
                self.finding(
                    source,
                    node,
                    (
                        f"{source.module} is hashed into the simulator/"
                        f"sampling version tag but imports '{target}', which "
                        f"is outside the digest source list — edits there "
                        f"would change behaviour without invalidating cached "
                        f"results"
                    ),
                    symbol=target,
                )
            )
        return findings
