"""CLI for divergence-discovery campaigns: ``python -m repro.discover``.

Runs a budgeted campaign over the discovery design space, prints a
per-round log plus cache telemetry, persists the minimized witness
corpus under the result store, and (with ``--out``) writes the
deterministic ``findings.json`` artifact. Exit status is 1 when the
campaign found divergences and 0 on a clean sweep, so CI can gate on
it directly.

``--inject`` arms a named contract fault (:mod:`repro.common.faults`)
for the duration of the run — the self-test mode: a campaign that
cannot find a deliberately injected bug is not finding real ones
either. Faulty results are cache-keyed separately from clean ones, so
injection never poisons the shared cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.common import faults
from repro.common.errors import ConfigurationError
from repro.discover.campaign import DiscoverySettings, run_discovery
from repro.discover.oracles import ORACLES, resolve_oracles
from repro.experiments.store import ResultStore
from repro.explore.artifacts import write_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.discover",
        description=(
            "Hunt simulator bugs with differential and invariant oracles; "
            "generalize and minimize every divergence into a replayable "
            "witness."
        ),
    )
    parser.add_argument(
        "--rounds", type=int, default=2, help="sampling rounds (default 2)"
    )
    parser.add_argument(
        "--per-round",
        type=int,
        default=6,
        help="random design points sampled per round (default 6)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=1500,
        help="instructions per discovery run (default 1500; half warms up)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="campaign sampling seed"
    )
    parser.add_argument(
        "--oracles",
        default=None,
        metavar="A,B",
        help=f"comma-separated oracle filter (default all: {','.join(ORACLES)})",
    )
    parser.add_argument(
        "--list-oracles",
        action="store_true",
        help="print the oracle catalog and exit",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for batched runs (0 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-store root (default: the shared campaign cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run without a disk cache (witness corpus is not persisted)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write the findings.json artifact into DIR",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help=(
            "write observability sidecar files (Chrome trace_event JSON, "
            "NDJSON event log, Prometheus metrics snapshot) under DIR; "
            "artifacts stay byte-identical (equivalent: REPRO_TRACE=DIR)"
        ),
    )
    parser.add_argument(
        "--inject",
        default=None,
        metavar="FAULT",
        help=(
            "arm a named contract fault for this run (self-test); known: "
            f"{', '.join(sorted(faults.KNOWN_FAULTS))}"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_oracles:
        print("Discovery oracles:")
        for name, oracle in ORACLES.items():
            print(f"  {name}: {oracle.description}")
        return 0
    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    try:
        oracles = resolve_oracles(args.oracles)
        settings = DiscoverySettings(
            rounds=args.rounds,
            per_round=args.per_round,
            scale=args.scale,
            seed=args.seed,
            oracles=tuple(oracle.name for oracle in oracles),
        )
        settings.validate()
    except (ConfigurationError, ValueError) as exc:
        parser.error(str(exc))
    # Fault state is process-global; remember and restore it so in-process
    # callers (the test suite) never leak an armed fault.
    previous_faults = os.environ.get(faults.ENV_VAR)
    try:
        if args.inject is not None:
            try:
                faults.activate([args.inject])
            except ConfigurationError as exc:
                parser.error(str(exc))
        store = False if args.no_cache else ResultStore(args.cache_dir or None)
        armed = faults.active_faults()
        if armed:
            print(f"armed fault(s): {', '.join(armed)}")
        if args.trace_out:
            obs.configure(args.trace_out)
        try:
            with obs.span(
                "discover", rounds=settings.rounds, per_round=settings.per_round
            ):
                report = run_discovery(
                    settings,
                    store=store,
                    oracles=oracles,
                    workers=args.workers,
                    progress=print,
                )
        finally:
            obs.flush()
    finally:
        if previous_faults is None:
            os.environ.pop(faults.ENV_VAR, None)
        else:
            os.environ[faults.ENV_VAR] = previous_faults
    if args.out:
        path = write_json(Path(args.out) / "findings.json", report.payload())
        print(f"wrote {path}")
    telemetry = report.context.cache_stats()
    total_points = sum(entry["points"] for entry in report.rounds_log)
    print(
        f"discover: {settings.rounds} round(s), {total_points} point(s), "
        f"{len(report.witnesses)} finding(s), "
        f"{telemetry['simulations']} simulated, "
        f"{telemetry['disk_hits']} disk hit(s), "
        f"{telemetry['memory_hits']} memory hit(s)"
    )
    return 1 if report.witnesses else 0


if __name__ == "__main__":
    sys.exit(main())
