"""Trace spill files: generate once, share across worker processes.

A campaign simulates every benchmark under many schemes; the trace is
identical for all of them, yet multiprocessing workers used to regenerate
it from the profile in every worker process. This module materializes a
trace once to a content-addressed spill file (by default under
``$REPRO_CACHE_DIR/traces/``) so workers — and later campaigns at the
same scale — deserialize it instead of re-running the generator.

The spill key hashes the workload profile, the trace length, the RNG
seed and the simulator version tag (which itself hashes the simulator
sources, including the trace generator), so a stale spill can never leak
across behaviour changes. Files are written atomically and any
unreadable or mismatching file is treated as a miss: the trace is simply
regenerated, never trusted.

On-disk format (version 1)::

    8 bytes   magic  b"RPROTRC\\0"
    2 bytes   format version, big-endian unsigned
    payload   zlib-compressed UTF-8 JSON

The payload is plain JSON — instruction rows of ints, strings and nulls
— rather than pickle, so a spill written by one Python version reads
back identically under any other. A magic or version mismatch (old
pickle spills included) reads as a miss and the trace is regenerated
under the current format.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import List, Optional

from repro.common.config import stable_fingerprint
from repro.isa.instructions import Instruction, RegisterRef
from repro.isa.opcodes import OpClass
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import Trace

__all__ = [
    "SPILL_MAGIC",
    "SPILL_FORMAT_VERSION",
    "trace_spill_key",
    "trace_spill_path",
    "materialize_trace",
    "load_trace",
]

#: Leading bytes of every spill file; anything else is not a spill.
SPILL_MAGIC = b"RPROTRC\0"

#: Bumped whenever the payload encoding changes shape. Readers reject
#: any other version, so stale spills invalidate themselves.
SPILL_FORMAT_VERSION = 1


def trace_spill_key(profile: WorkloadProfile, num_instructions: int, seed: int) -> str:
    """Content address of one generated trace."""
    from repro.experiments.store import SIMULATOR_VERSION_TAG

    material = json.dumps(
        {
            "version": SIMULATOR_VERSION_TAG,
            "profile": stable_fingerprint(profile),
            "num_instructions": num_instructions,
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def trace_spill_path(
    trace_dir: os.PathLike, profile: WorkloadProfile, num_instructions: int, seed: int
) -> Path:
    return Path(trace_dir) / f"{trace_spill_key(profile, num_instructions, seed)}.trace"


# ---------------------------------------------------------------------------
# Payload encoding: every field is JSON-native, nothing depends on the
# Python version or on pickle opcodes.
# ---------------------------------------------------------------------------


def _encode_ref(ref: Optional[RegisterRef]) -> Optional[List[int]]:
    if ref is None:
        return None
    return [1 if ref.is_fp else 0, ref.index]


def _decode_ref(row: Optional[List[int]]) -> Optional[RegisterRef]:
    if row is None:
        return None
    is_fp, index = row
    return RegisterRef(bool(is_fp), index)


def _encode_trace(trace: Trace) -> bytes:
    rows = []
    for inst in trace.instructions:
        rows.append(
            [
                inst.pc,
                inst.op.value,
                [_encode_ref(src) for src in inst.srcs],
                _encode_ref(inst.dest),
                inst.mem_addr,
                inst.taken,
                inst.target,
            ]
        )
    payload = {
        "name": trace.name,
        "profile_name": trace.profile_name,
        "seed": trace.seed,
        "instructions": rows,
    }
    raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    header = SPILL_MAGIC + SPILL_FORMAT_VERSION.to_bytes(2, "big")
    return header + zlib.compress(raw, 6)


def _decode_trace(blob: bytes) -> Optional[Trace]:
    """Parse a spill blob; ``None`` on any magic/version/shape mismatch."""
    header_len = len(SPILL_MAGIC) + 2
    if len(blob) < header_len or not blob.startswith(SPILL_MAGIC):
        return None
    version = int.from_bytes(blob[len(SPILL_MAGIC) : header_len], "big")
    if version != SPILL_FORMAT_VERSION:
        return None
    try:
        payload = json.loads(zlib.decompress(blob[header_len:]).decode("utf-8"))
        instructions = [
            Instruction(
                seq=seq,
                pc=row[0],
                op=OpClass(row[1]),
                srcs=tuple(_decode_ref(src) for src in row[2]),
                dest=_decode_ref(row[3]),
                mem_addr=row[4],
                taken=row[5],
                target=row[6],
            )
            for seq, row in enumerate(payload["instructions"])
        ]
        return Trace(
            name=payload["name"],
            instructions=instructions,
            profile_name=payload["profile_name"],
            seed=payload["seed"],
        )
    except (zlib.error, ValueError, KeyError, TypeError, IndexError):
        return None


def load_trace(
    trace_dir: os.PathLike, profile: WorkloadProfile, num_instructions: int, seed: int
) -> Optional[Trace]:
    """The spilled trace, or ``None`` on any kind of miss.

    A missing or truncated file, a foreign or stale header (wrong magic
    bytes or format version — pre-versioning pickle spills land here), an
    undecodable payload, or metadata that does not match the request all
    read as a miss; callers regenerate.
    """
    path = trace_spill_path(trace_dir, profile, num_instructions, seed)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    trace = _decode_trace(blob)
    if (
        trace is None
        or trace.profile_name != profile.name
        or trace.seed != seed
        or len(trace) != num_instructions
    ):
        return None
    return trace


def materialize_trace(
    trace_dir: os.PathLike, profile: WorkloadProfile, num_instructions: int, seed: int
) -> Trace:
    """Load the spilled trace, generating and spilling it if absent.

    Safe under concurrent callers: the file is written through
    :func:`repro.experiments.store.atomic_write`, so racers at worst
    regenerate redundantly and the file is always complete.
    """
    from repro.experiments.store import atomic_write

    trace = load_trace(trace_dir, profile, num_instructions, seed)
    if trace is not None:
        return trace
    trace = generate_trace(profile, num_instructions, seed=seed)
    atomic_write(
        trace_spill_path(trace_dir, profile, num_instructions, seed),
        _encode_trace(trace),
    )
    return trace
