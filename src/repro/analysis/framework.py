"""Core data model for the contract-verification static analysis pass.

The dynamic nets (goldens, differential oracles, fault injection) only
catch an invariant violation when a workload happens to exercise it.
This package checks the same contracts *at the source level*: each
:class:`Rule` walks a file's AST and reports :class:`Finding` objects,
which the engine (``repro.analysis.engine``) collects into a report.

Suppressions
------------
A finding is silenced by a ``# repro: allow[<rule-id>]`` comment either on
the offending line or on a comment line directly above it.  Every
suppression must name a known rule id and must match at least one raw
finding — unknown ids and unused suppressions are themselves reported
(as ``unknown-suppression`` / ``unused-suppression``), so stale allows
cannot linger after the code they excused is gone.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.store import TAGGED_PACKAGES

#: Module prefixes of the version-tagged core, read from the store's one
#: declaration: the determinism, warm-state and import-closure rules
#: scope by it, and the telemetry rule covers the rest of the tree.
TAGGED = tuple(f"repro.{package}" for package in TAGGED_PACKAGES)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

# Meta rule ids emitted by the framework itself (never suppressible — a
# suppression that suppressed its own bookkeeping would be unsound).
RULE_PARSE_ERROR = "parse-error"
RULE_UNKNOWN_SUPPRESSION = "unknown-suppression"
RULE_UNUSED_SUPPRESSION = "unused-suppression"
META_RULES = (RULE_PARSE_ERROR, RULE_UNKNOWN_SUPPRESSION, RULE_UNUSED_SUPPRESSION)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # repo-relative posix path
    line: int
    col: int
    rule: str
    message: str
    symbol: str = ""
    severity: str = SEVERITY_ERROR

    def fingerprint(self) -> str:
        """Stable id in the JSON report: survives line drift, not rewording."""
        raw = "|".join((self.rule, self.path, self.symbol, self.message))
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        return {
            "col": self.col,
            "fingerprint": self.fingerprint(),
            "line": self.line,
            "message": self.message,
            "path": self.path,
            "rule": self.rule,
            "severity": self.severity,
            "symbol": self.symbol,
        }


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-, ]+)\]")
_PRAGMA_MODULE_RE = re.compile(r"#\s*repro-fixture-module:\s*([A-Za-z0-9_.]+)")


@dataclass
class Suppression:
    """One parsed ``# repro: allow[<rule-id>]`` comment."""

    comment_line: int
    target_line: int
    rule_id: str
    used: bool = False


def _comment_only(line: str) -> bool:
    stripped = line.strip()
    return stripped.startswith("#")


def _blank_or_comment(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def parse_suppressions(lines: Sequence[str]) -> List[Suppression]:
    """Extract suppressions; a comment-only allow binds to the next code line."""
    out: List[Suppression] = []
    for idx, line in enumerate(lines, start=1):
        for match in _ALLOW_RE.finditer(line):
            if _comment_only(line):
                target = idx + 1
                while target <= len(lines) and _blank_or_comment(lines[target - 1]):
                    target += 1
            else:
                target = idx
            for rule_id in match.group(1).split(","):
                rule_id = rule_id.strip()
                if rule_id:
                    out.append(Suppression(idx, target, rule_id))
    return out


class SourceFile:
    """A lazily parsed source file plus its identity inside the project."""

    def __init__(self, path: Path, relpath: str, module: Optional[str], text: str):
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.module = module if module is not None else self._pragma_module()
        self.suppressions = parse_suppressions(self.lines)
        self._tree: Optional[ast.AST] = None
        self.parse_error: Optional[str] = None
        self._parsed = False

    def _pragma_module(self) -> Optional[str]:
        """Fixture files impersonate in-scope modules via a pragma comment."""
        for line in self.lines[:10]:
            match = _PRAGMA_MODULE_RE.search(line)
            if match:
                return match.group(1)
        return None

    @property
    def tree(self) -> Optional[ast.AST]:
        if not self._parsed:
            self._parsed = True
            try:
                self._tree = ast.parse(self.text, filename=self.relpath)
            except SyntaxError as exc:  # surfaced as a parse-error finding
                self.parse_error = f"{exc.msg} (line {exc.lineno})"
        return self._tree

    def in_package(self, packages: Iterable[str]) -> bool:
        return in_packages(self.module, packages)


def in_packages(module: Optional[str], packages: Iterable[str]) -> bool:
    """True when ``module`` is one of ``packages`` or a submodule of one."""
    if module is None:
        return False
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


@dataclass
class ClassInfo:
    """Cross-file class index entry used to resolve inherited contracts."""

    name: str
    bases: Tuple[str, ...]
    node: ast.ClassDef
    source: "SourceFile"


class Project:
    """All files under analysis plus lazily built cross-file indexes."""

    def __init__(self, files: Sequence[SourceFile], base: Path):
        self.files = sorted(files, key=lambda sf: sf.relpath)
        self.base = base
        self.by_module: Dict[str, SourceFile] = {
            sf.module: sf for sf in self.files if sf.module
        }
        self._class_index: Optional[Dict[str, ClassInfo]] = None

    @property
    def class_index(self) -> Dict[str, ClassInfo]:
        if self._class_index is None:
            index: Dict[str, ClassInfo] = {}
            for sf in self.files:
                tree = sf.tree
                if tree is None:
                    continue
                for node in ast.walk(tree):
                    if isinstance(node, ast.ClassDef) and node.name not in index:
                        index[node.name] = ClassInfo(
                            name=node.name,
                            bases=tuple(
                                base_name
                                for base in node.bases
                                if (base_name := terminal_name(base))
                            ),
                            node=node,
                            source=sf,
                        )
            self._class_index = index
        return self._class_index

    def resolve_mro(self, class_name: str) -> List[ClassInfo]:
        """Breadth-first base resolution by bare name; unknown bases are
        skipped (imported-from-outside classes can't carry contracts we
        can see anyway)."""
        out: List[ClassInfo] = []
        seen = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.class_index.get(name)
            if info is None:
                continue
            out.append(info)
            queue.extend(info.bases)
        return out


class Rule:
    """Base class for analysis rules.

    Subclasses set ``id``, ``summary`` and ``rationale``, and implement
    :meth:`check`.
    """

    id: str = ""
    severity: str = SEVERITY_ERROR
    summary: str = ""
    rationale: str = ""

    def applies(self, source: SourceFile, project: Project) -> bool:
        return source.module is not None

    def check(self, source: SourceFile, project: Project) -> List[Finding]:
        raise NotImplementedError

    def finding(
        self,
        source: SourceFile,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            path=source.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            symbol=symbol,
            severity=self.severity,
        )


def terminal_name(node: ast.AST) -> Optional[str]:
    """`a.b.C` -> `C`; `C` -> `C`; anything else -> None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """`a.b.c()` -> `a`; `a` -> `a`; anything else -> None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """`a.b.c` -> \"a.b.c\" when the chain is pure Name/Attribute."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class SuppressionOutcome:
    active: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    meta: List[Finding] = field(default_factory=list)


def apply_suppressions(
    project: Project,
    findings: Sequence[Finding],
    known_rule_ids: Iterable[str],
) -> SuppressionOutcome:
    """Partition raw findings by the per-line allow comments.

    A suppression silences findings of *its* rule id on *its* target
    line only — one comment, one line, one rule.  Unknown rule ids and
    suppressions that matched nothing become findings themselves.
    """
    known = set(known_rule_ids)
    outcome = SuppressionOutcome()
    by_file: Dict[str, SourceFile] = {sf.relpath: sf for sf in project.files}
    for finding in sorted(findings):
        suppressed = False
        sf = by_file.get(finding.path)
        if sf is not None and finding.rule not in META_RULES:
            for supp in sf.suppressions:
                if supp.rule_id == finding.rule and supp.target_line == finding.line:
                    supp.used = True
                    suppressed = True
        (outcome.suppressed if suppressed else outcome.active).append(finding)
    for sf in project.files:
        for supp in sf.suppressions:
            if supp.rule_id not in known or supp.rule_id in META_RULES:
                outcome.meta.append(
                    Finding(
                        path=sf.relpath,
                        line=supp.comment_line,
                        col=0,
                        rule=RULE_UNKNOWN_SUPPRESSION,
                        message=(
                            f"suppression names unknown rule id "
                            f"'{supp.rule_id}' (see --list-rules)"
                        ),
                    )
                )
            elif not supp.used:
                outcome.meta.append(
                    Finding(
                        path=sf.relpath,
                        line=supp.comment_line,
                        col=0,
                        rule=RULE_UNUSED_SUPPRESSION,
                        message=(
                            f"suppression for '{supp.rule_id}' matched no "
                            f"finding — remove the stale allow comment"
                        ),
                    )
                )
    outcome.meta.sort()
    return outcome
