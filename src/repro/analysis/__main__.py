"""CLI for the contract-verification static analysis pass.

Examples::

    python -m repro.analysis                      # whole tree, all rules
    python -m repro.analysis --list-rules
    python -m repro.analysis --rules skip-safety,determinism
    python -m repro.analysis path/to/file.py
    python -m repro.analysis --out report.json    # deterministic JSON

Exit status: 0 when no unsuppressed findings, 1 otherwise, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import run_analysis
from repro.analysis.rules import ALL_RULES, resolve_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Contract-verification static analysis over the repro tree.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the installed repro tree)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default: text)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        width = max(len(rule.id) for rule in ALL_RULES)
        for rule in ALL_RULES:
            print(f"{rule.id:<{width}}  [{rule.severity}]  {rule.summary}")
        return 0

    try:
        rules = resolve_rules(
            [r.strip() for r in args.rules.split(",") if r.strip()]
            if args.rules
            else None
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    report = run_analysis(
        args.targets or None,
        base=Path.cwd() if args.targets else None,
        rules=rules,
    )

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report.to_json())

    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
