"""Telemetry hygiene: wall clocks are read only inside ``repro.obs``.

``repro.obs`` (metrics registry, tracer, clock) deliberately lives
*outside* the version-tag closure, so enabling tracing can never rotate
a cache key or perturb an artifact. The ``version-tag-coverage`` rule
keeps tagged modules from importing it; this rule keeps the other half
of the sidecar contract, the **wall-clock quarantine**:
``repro.obs.clock`` is the only place in the ``repro`` tree allowed to
read wall clocks.

The ``determinism`` rule already bans clock reads in the version-tagged
core (``repro.experiments.store.TAGGED_PACKAGES``), so this rule checks
the complement: every other module outside ``repro.obs`` — the
orchestration layers (experiments, explore, discover, serve, analysis)
and the package root — where a stray ``time.time()`` would not corrupt
results but *would* scatter unquarantined nondeterminism that the next
refactor can silently move into something cached. Between the two
rules, every ``repro`` module except ``repro.obs`` is covered exactly
once.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.framework import (
    TAGGED,
    Finding,
    Project,
    Rule,
    SourceFile,
    dotted_name,
)
from repro.analysis.rules.determinism import (
    TIME_FUNCS,
    WALL_CLOCK_CALLS,
    _from_imports,
)

OBS_PACKAGE = "repro.obs"


class TelemetryHygieneRule(Rule):
    id = "telemetry-hygiene"
    summary = (
        "modules outside the version-tagged core read wall clocks only "
        "through repro.obs"
    )
    rationale = (
        "Observability is a sidecar: wall-clock reads outside "
        "repro.obs.clock scatter unquarantined nondeterminism through the "
        "orchestration layers."
    )

    def applies(self, source: SourceFile, project: Project) -> bool:
        # The tagged core is the determinism rule's, and obs is the
        # quarantine zone itself.
        return source.in_package(("repro",)) and not source.in_package(
            TAGGED + (OBS_PACKAGE,)
        )

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings
        from_imports = _from_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            bare = node.func.id if isinstance(node.func, ast.Name) else None
            origin = from_imports.get(bare or "")
            if dotted in WALL_CLOCK_CALLS or (
                origin == "time" and bare in TIME_FUNCS
            ):
                findings.append(
                    self.finding(
                        source,
                        node,
                        (
                            f"wall-clock read '{dotted or bare}()' outside "
                            f"repro.obs — route it through repro.obs.clock "
                            f"so every clock read is quarantined in one "
                            f"audited module"
                        ),
                    )
                )
        return findings
