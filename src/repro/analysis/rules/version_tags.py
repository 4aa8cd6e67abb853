"""Version-tag coverage for the content-addressed result store.

Cached results are keyed on ``SIMULATOR_VERSION_TAG`` and
``SAMPLING_VERSION_TAG``, digests of the packages that
``repro.experiments.store`` declares in ``TAGGED_PACKAGES``, so a
behaviour edit self-invalidates stale entries.  That guarantee breaks
the moment a hashed module imports from a package *outside* the
digests: editing the un-hashed module changes simulated statistics
while the tags (and therefore every cache key) stay put, silently
serving stale results.  This rule checks every import edge out of the
hashed closure, ``repro.obs`` included: telemetry stays outside the
closure, so enabling tracing can never rotate a cache key.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from repro.analysis.framework import (
    TAGGED,
    Finding,
    Project,
    Rule,
    SourceFile,
    in_packages,
)

# Modules outside the digest that hashed code may import: pure
# persistence/digest helpers whose behaviour cannot change a simulated
# statistic (results flow *into* the store, never out of it into the
# simulation).
EXEMPT_TARGETS = ("repro.experiments.store",)


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
        "modules hashed into the version tags must not import from outside "
        "the digest source list, repro.obs included"
    )
    rationale = (
        "An import edge out of the hashed closure lets a behaviour edit "
        "change results while SIMULATOR_VERSION_TAG stays put — cached "
        "entries go stale with no invalidation signal — and a back-edge "
        "into repro.obs would let telemetry perturb cached results."
    )

    def applies(self, source: SourceFile, project: Project) -> bool:
        return source.in_package(TAGGED)

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings
        for node, target in _import_edges(tree):
            if in_packages(target, TAGGED + EXEMPT_TARGETS):
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
