"""Telemetry hygiene: observability must stay a sidecar.

``repro.obs`` (metrics registry, tracer, clock) deliberately lives
*outside* the version-tag closure, so enabling tracing can never rotate
a cache key or perturb an artifact. Two source-level contracts keep it
that way:

1. **No back-edges** — modules hashed into the simulator/sampling
   version tags must never import ``repro.obs``. If they did, an edit
   to the (un-hashed) observability layer could change simulated
   behaviour without invalidating cached results, and telemetry state
   could leak into statistics. Tagged code that wants a counter keeps
   plain per-run counters (``processor.kernel_telemetry``) for the
   untagged layer to record.

2. **Wall-clock quarantine** — ``repro.obs.clock`` is the only place in
   the ``repro`` tree allowed to read wall clocks. The deterministic
   core is already policed by the ``determinism`` rule, so this rule
   checks the complement: the orchestration layers (experiments,
   explore, discover, serve, analysis), where a stray ``time.time()``
   would not corrupt results but *would* scatter unquarantined
   nondeterminism that the next refactor can silently move into
   something cached. Between the two rules, every ``repro`` package
   except ``repro.obs`` is covered exactly once.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.framework import Finding, Project, Rule, SourceFile, dotted_name
from repro.analysis.rules.determinism import (
    TIME_FUNCS,
    WALL_CLOCK_CALLS,
    _from_imports,
)
from repro.analysis.rules.version_tags import FALLBACK_COVERED, _import_edges

OBS_PACKAGE = "repro.obs"


class TelemetryHygieneRule(Rule):
    id = "telemetry-hygiene"
    summary = (
        "version-tagged packages must not import repro.obs, and repro.obs "
        "is the only package allowed to read wall clocks"
    )
    rationale = (
        "Observability is a sidecar: a back-edge from the hashed closure "
        "into repro.obs would let telemetry perturb cached results, and "
        "wall-clock reads outside repro.obs.clock scatter unquarantined "
        "nondeterminism through the orchestration layers."
    )

    def applies(self, source: SourceFile, project: Project) -> bool:
        if source.module is None or not source.module.startswith("repro."):
            return False
        # The quarantine zone itself: obs may read clocks and obviously
        # imports obs.
        return not source.in_package((OBS_PACKAGE,))

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings

        top = source.module.split(".")[1] if source.module else ""
        if top in FALLBACK_COVERED:
            # Tagged module: the determinism rule already bans its clock
            # reads; this rule adds the telemetry back-edge check.
            for node, target in _import_edges(tree):
                if target == OBS_PACKAGE or target.startswith(OBS_PACKAGE + "."):
                    findings.append(
                        self.finding(
                            source,
                            node,
                            (
                                f"{source.module} is hashed into a version "
                                f"tag but imports '{target}' — telemetry "
                                f"must stay outside the closure so enabling "
                                f"tracing never rotates a cache key"
                            ),
                            symbol=target,
                        )
                    )
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
