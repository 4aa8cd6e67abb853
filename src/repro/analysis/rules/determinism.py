"""Bit-identical determinism (ROADMAP "Invariants").

Simulated statistics must be a pure function of (config, profile,
scale): wall-clock reads, unseeded module-level randomness, and
iteration in filesystem or set order are the three ways host state
leaks into results — the EnergyModel ordering bug class.  Seeded
``random.Random`` instances (``repro.common.rng``) are the sanctioned
randomness path; ``sorted()`` is the sanctioned way to consume an
unordered source.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.framework import (
    TAGGED,
    Finding,
    Project,
    Rule,
    SourceFile,
    dotted_name,
    terminal_name,
)

WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)
TIME_FUNCS = frozenset(name.split(".", 1)[1] for name in WALL_CLOCK_CALLS if name.startswith("time."))

# Module-level random functions share hidden global state seeded from
# the OS; random.Random(seed) instances are fine, SystemRandom never is.
MODULE_RANDOM = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

FS_ORDER_ATTRS = frozenset({"glob", "iglob", "iterdir", "listdir", "rglob", "scandir"})


class DeterminismRule(Rule):
    id = "determinism"
    summary = (
        "no wall-clock reads, unseeded module-level randomness, or "
        "filesystem/set-order iteration in the deterministic core"
    )
    rationale = (
        "Simulated statistics must be a pure function of (config, "
        "profile, scale); host state leaking in breaks the bit-identity "
        "net and poisons content-addressed caches."
    )

    def applies(self, source: SourceFile, project: Project) -> bool:
        # The deterministic core is everything hashed into the version
        # tags; the orchestration layers read clocks through repro.obs.
        return source.in_package(TAGGED)

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        tree = source.tree
        if tree is None:
            return findings

        from_imports = _from_imports(tree)
        parents = _parent_map(tree)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(source, node, from_imports, parents))
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_node = node.iter
                if _is_set_expr(iter_node) and not _sorted_wrapped(iter_node, parents):
                    findings.append(
                        self.finding(
                            source,
                            iter_node,
                            (
                                "iteration over a set has arbitrary order — "
                                "wrap in sorted() before it can feed stats "
                                "or float accumulation"
                            ),
                        )
                    )
        return findings

    def _check_call(
        self,
        source: SourceFile,
        node: ast.Call,
        from_imports: Dict[str, str],
        parents: Dict[int, ast.AST],
    ) -> List[Finding]:
        findings: List[Finding] = []
        dotted = dotted_name(node.func)
        bare = node.func.id if isinstance(node.func, ast.Name) else None
        origin = from_imports.get(bare or "")

        if dotted in WALL_CLOCK_CALLS or (origin == "time" and bare in TIME_FUNCS):
            findings.append(
                self.finding(
                    source,
                    node,
                    f"wall-clock read '{dotted or bare}()' in the deterministic core",
                )
            )
        elif dotted is not None and dotted.startswith("random."):
            attr = dotted.split(".", 1)[1]
            if attr in MODULE_RANDOM:
                findings.append(
                    self.finding(
                        source,
                        node,
                        (
                            f"module-level '{dotted}()' uses hidden global "
                            f"RNG state — derive a seeded random.Random via "
                            f"repro.common.rng instead"
                        ),
                    )
                )
        elif origin == "random" and bare in MODULE_RANDOM:
            findings.append(
                self.finding(
                    source,
                    node,
                    (
                        f"'from random import {bare}' calls the hidden "
                        f"global RNG — derive a seeded random.Random via "
                        f"repro.common.rng instead"
                    ),
                )
            )
        elif terminal_name(node.func) == "SystemRandom":
            findings.append(
                self.finding(
                    source, node, "SystemRandom is OS-entropy-backed, never reproducible"
                )
            )
        elif dotted is not None and (".random." in dotted or dotted.startswith("random.")):
            # numpy-style module RNG: np.random.shuffle etc.
            tail = dotted.rsplit(".", 1)[1]
            if tail in MODULE_RANDOM:
                findings.append(
                    self.finding(
                        source,
                        node,
                        f"module-level '{dotted}()' uses hidden global RNG state",
                    )
                )
        if (
            terminal_name(node.func) in FS_ORDER_ATTRS
            and not _sorted_wrapped(node, parents)
        ) or (
            bare is not None
            and origin in ("os", "glob")
            and bare in FS_ORDER_ATTRS
            and not _sorted_wrapped(node, parents)
        ):
            name = dotted or bare
            findings.append(
                self.finding(
                    source,
                    node,
                    (
                        f"'{name}()' yields filesystem order — wrap in "
                        f"sorted() before results can depend on it"
                    ),
                )
            )
        return findings


def _from_imports(tree: ast.AST) -> Dict[str, str]:
    """bare name -> source module, for ``from X import name`` bindings."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def _parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _sorted_wrapped(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """True when ``node`` sits (within a couple of hops) inside a
    ``sorted(...)`` / ``len(...)`` call — order laundered or irrelevant."""
    current: Optional[ast.AST] = node
    for _ in range(3):
        parent = parents.get(id(current))
        if parent is None:
            return False
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            if parent.func.id in ("sorted", "len") and current in parent.args:
                return True
        current = parent
    return False


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False
