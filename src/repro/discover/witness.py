"""Content-addressed witness corpus: minimized, replayable failures.

A *witness* is the JSON record of one minimized oracle violation —
everything needed to reproduce it: the oracle name, the design-space
assignment, the run scale, and the fault set that was armed when it was
found. Witnesses are content-addressed by :func:`witness_key` over
exactly those reproduction inputs — deliberately *excluding* the
simulator version tag and the diagnostic detail, so a witness keeps its
identity across simulator fixes (rediscovering the same bug lands on
the same file; a fixed bug's witness replays clean instead of
vanishing).

The corpus lives under ``<result-store root>/witnesses/<key[:2]>/
<key>.json``, next to the result cache whose runs produced it. Saving a
witness there *is* regression registration: :func:`load_corpus` +
:func:`replay_witness` re-check every recorded failure through the
normal cached runner stack, so the test suite and CI replay the corpus
without re-running discovery.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List

from repro.common import faults
from repro.common.errors import ConfigurationError
from repro.discover.oracles import ORACLES
from repro.experiments.runner import RunScale
from repro.explore.artifacts import write_json
from repro.explore.space import default_space

__all__ = [
    "WITNESS_FORMAT",
    "witness_key",
    "build_witness",
    "save_witness",
    "load_corpus",
    "replay_witness",
]

WITNESS_FORMAT = 1


def witness_key(payload: Dict[str, object]) -> str:
    """Content address over a witness's reproduction inputs.

    Hashes (oracle, assignment, scale, faults) only — the fields that
    determine what gets re-run on replay. Diagnostic detail and the
    simulator version are provenance, not identity (see module
    docstring).
    """
    material = {
        "oracle": payload["oracle"],
        "assignment": payload["assignment"],
        "scale": payload["scale"],
        "faults": payload["faults"],
    }
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode("utf-8")
    ).hexdigest()


def build_witness(
    oracle_name: str,
    point,
    scale: RunScale,
    detail,
    discovered: Dict[str, object],
    generalization: List[Dict[str, object]],
    minimization: Dict[str, object],
) -> Dict[str, object]:
    """Assemble the JSON witness record for one minimized finding.

    Deterministic for a fixed campaign configuration — no wall-clock,
    no cache telemetry — so warm reruns emit byte-identical artifacts.
    """
    from repro.experiments.store import SIMULATOR_VERSION_TAG

    payload: Dict[str, object] = {
        "format": WITNESS_FORMAT,
        "oracle": oracle_name,
        "assignment": dict(point.assignment),
        "benchmark": point.benchmark,
        "label": point.label,
        "point_id": point.point_id,
        "scale": {
            "num_instructions": scale.num_instructions,
            "warmup_instructions": scale.warmup_instructions,
            "seed": scale.seed,
        },
        "faults": list(faults.active_faults()),
        "detail": list(detail),
        "discovered": discovered,
        "generalization": generalization,
        "minimization": minimization,
        # Provenance only — excluded from the key on purpose.
        "simulator_version": SIMULATOR_VERSION_TAG,
    }
    payload["witness_key"] = witness_key(payload)
    return payload


def _corpus_dir(root: os.PathLike) -> Path:
    return Path(root) / "witnesses"


def save_witness(witness: Dict[str, object], root: os.PathLike) -> Path:
    """Persist one witness into the corpus under ``root`` (store root)."""
    key = witness["witness_key"]
    return write_json(_corpus_dir(root) / key[:2] / f"{key}.json", witness)


def load_corpus(root: os.PathLike) -> List[Dict[str, object]]:
    """Every witness under ``root``, ordered by key.

    Unreadable or mis-shaped files, and witnesses of an oracle that no
    longer exists, are skipped (corpus hygiene mirrors the result store:
    damage is never fatal, only invisible).
    """
    corpus: List[Dict[str, object]] = []
    directory = _corpus_dir(root)
    if not directory.is_dir():
        return corpus
    for path in sorted(directory.glob("*/*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                witness = json.load(fh)
        except (OSError, ValueError):
            continue
        if (
            isinstance(witness, dict)
            and witness.get("format") == WITNESS_FORMAT
            and witness.get("oracle") in ORACLES
        ):
            corpus.append(witness)
    return corpus


def replay_witness(
    witness: Dict[str, object],
    store=False,
    workers: int = 0,
) -> List[str]:
    """Re-check one witness; the violation detail, or ``[]`` if it passes.

    Rebuilds the design point from the recorded assignment, re-runs the
    recorded oracle at the recorded scale through a fresh
    :class:`~repro.discover.campaign.DiscoveryContext` (``store`` as in
    :class:`~repro.experiments.runner.ExperimentRunner`: a
    :class:`~repro.experiments.store.ResultStore`, ``False`` for no disk
    cache), and returns the failure detail. The caller owns the fault
    state: replaying with the witness's recorded faults armed must fail
    until the underlying bug is fixed; replaying disarmed must pass.
    Raises :class:`~repro.common.errors.ConfigurationError` for a
    witness whose oracle no longer exists.
    """
    from repro.discover.campaign import DiscoveryContext

    oracle = ORACLES.get(witness["oracle"])
    if oracle is None:
        raise ConfigurationError(
            f"unknown oracle {witness['oracle']!r}; known: {sorted(ORACLES)}"
        )
    space = default_space([witness["benchmark"]])
    point = space.build_point(witness["assignment"])
    raw = witness["scale"]
    scale = RunScale(
        num_instructions=int(raw["num_instructions"]),
        warmup_instructions=int(raw["warmup_instructions"]),
        seed=int(raw["seed"]),
    )
    ctx = DiscoveryContext(store=store, workers=workers)
    findings = oracle.run(ctx, [point], scale)
    return list(findings[0].detail) if findings else []
