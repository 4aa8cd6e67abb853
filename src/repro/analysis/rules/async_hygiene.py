"""Async hygiene for the serve layer.

``repro.serve`` multiplexes every request on one event loop; a blocking
simulation or store call executed *directly* inside a coroutine stalls
the whole server (heartbeats, progress streams, shutdown) for its
duration.  Blocking work must route through the thread-pool shims
(``_in_thread`` / ``loop.run_in_executor``) — where the callable is
passed as a value, not called, so this rule only flags *call*
expressions lexically inside ``async def`` bodies.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.framework import Finding, Project, Rule, SourceFile, terminal_name

SCOPE = ("repro.serve",)

# Methods of ExperimentRunner / ResultStore / scheduler facades that
# block on simulation or disk I/O.
BLOCKING_CALLS = frozenset(
    {
        "execute_pair",
        "export_campaign",
        "load",
        "load_with_extra",
        "prefetch",
        "resolve_sync",
        "run",
        "run_exploration",
        "run_many",
        "sampled_result",
        "save",
        "simulate_matrix",
        "simulate_pair",
        "simulate_sampled_pair",
        "sweep_stale_tmp",
    }
)


class ServeAsyncHygieneRule(Rule):
    id = "serve-async-hygiene"
    summary = (
        "no blocking runner/store calls directly inside repro.serve "
        "coroutines — route through the thread-pool shims"
    )
    rationale = (
        "One blocking call on the event loop stalls every job's "
        "heartbeat, stream, and shutdown handling until it returns."
    )

    def applies(self, source: SourceFile, project: Project) -> bool:
        return source.in_package(SCOPE)

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings.extend(self._check_coroutine(source, node))
        return findings

    def _check_coroutine(
        self, source: SourceFile, func: ast.AsyncFunctionDef
    ) -> List[Finding]:
        findings: List[Finding] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                # A nested def/lambda is a new execution context — its
                # body runs wherever it is invoked (typically handed to
                # the executor as a value), not on this coroutine.
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(child, ast.Call):
                    name = terminal_name(child.func)
                    if name in BLOCKING_CALLS:
                        findings.append(
                            self.finding(
                                source,
                                child,
                                (
                                    f"blocking call '{name}()' directly "
                                    f"inside coroutine '{func.name}' stalls "
                                    f"the event loop — route it through "
                                    f"_in_thread()/run_in_executor"
                                ),
                                symbol=f"{func.name}.{name}",
                            )
                        )
                visit(child)

        visit(func)
        return findings
