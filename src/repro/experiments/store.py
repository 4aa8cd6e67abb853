"""Content-addressed on-disk cache for simulation results.

A campaign sweeps the same (benchmark, scheme) matrix over and over —
across pytest invocations, CLI sweeps and figure regenerations — and the
simulator is deterministic, so a result computed once is valid forever
*for that exact input*. The store therefore addresses each result by a
SHA-256 over everything that determines it:

* the full :class:`~repro.common.config.ProcessorConfig` (which nests the
  issue-scheme config — Table 1 knobs and queue geometry alike),
* the :class:`~repro.workloads.profiles.WorkloadProfile` of the benchmark
  (so editing a profile invalidates its cached runs),
* the :class:`~repro.experiments.runner.RunScale` (instructions, warm-up,
  seed),
* the version tags, digests of the sources of ``TAGGED_PACKAGES``, so
  any edit there invalidates the results it could change.

Results live under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-abella04``) as ``<key[:2]>/<key>.json``. Files are
written atomically (temp file + ``os.replace``), and any unreadable,
corrupted or version-mismatched file is treated as a miss — the result is
simply recomputed and rewritten, never trusted.

To force a cold run: delete the cache directory, point
``REPRO_CACHE_DIR`` somewhere fresh, or pass ``--no-cache`` to the
campaign CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.common import faults
from repro.common.config import ProcessorConfig, stable_fingerprint
from repro.common.stats import SimulationStats
from repro.obs import clock, metrics
from repro.workloads.profiles import WorkloadProfile

__all__ = [
    "ResultStore",
    "SIMULATOR_PACKAGES",
    "SAMPLING_PACKAGES",
    "TAGGED_PACKAGES",
    "SIMULATOR_VERSION_TAG",
    "SAMPLING_VERSION_TAG",
    "STALE_TMP_AGE_SECONDS",
    "result_key",
    "default_cache_dir",
    "simulator_sources_digest",
    "package_sources_digest",
    "atomic_write",
    "atomic_write_json",
    "sweep_stale_tmp",
]

#: Telemetry series per result-store event, all labelled ``store="results"``.
_CACHE_EVENT_METRICS = {
    "hit": "repro_store_hits_total",
    "miss": "repro_store_misses_total",
    "corrupt": "repro_store_corrupt_reads_total",
    "write": "repro_store_writes_total",
}


def atomic_write(path: Path, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``.

    Temp file + ``os.replace`` in the destination directory, cleaned up
    on any failure — the one crash-safe write path of the tree (results,
    trace spills, exported artifacts), so a future hardening (fsync,
    permissions) lands in one place.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    # The temp name carries the writer's pid on top of mkstemp's random
    # component: two processes racing to save the same key can never
    # collide on the staging file, so a reader only ever observes either
    # the old complete file or the new complete file — never a torn mix.
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{os.getpid()}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: Path, payload: dict) -> Path:
    """Atomically persist ``payload`` as sorted JSON at ``path``."""
    return atomic_write(path, json.dumps(payload, sort_keys=True).encode("utf-8"))


#: A ``*.tmp`` file this old is an orphan, not a live write. Atomic
#: writes hold their temp file for milliseconds; an hour of slack keeps
#: the sweep unable to race even a worker wedged mid-write on a
#: pathologically loaded machine.
STALE_TMP_AGE_SECONDS = 3600.0

#: Absolute store roots this process has already swept at construction.
_SWEPT_ROOTS: set = set()


def sweep_stale_tmp(root: os.PathLike, max_age: float = STALE_TMP_AGE_SECONDS) -> int:
    """Best-effort removal of orphaned atomic-write temp files.

    Every atomic write in the tree (results, trace spills, artifacts)
    stages through :func:`atomic_write`, which unlinks its temp file on
    failure — but a SIGKILLed worker unlinks nothing, so orphans
    accumulate under ``$REPRO_CACHE_DIR`` forever. This sweep deletes
    ``*.tmp`` files older than ``max_age`` seconds anywhere under
    ``root`` and returns the count removed.

    It cannot race a live writer (young temp files are skipped, and a
    writer that somehow loses its file to the sweep fails loudly at
    ``os.replace`` rather than corrupting anything) and it never raises:
    cache hygiene must not take down the run — every OS error skips the
    file, a failing directory walk just ends the sweep early.
    """
    removed = 0
    try:
        root = Path(root)
        if not root.is_dir():
            return 0
        now = clock.wall_time()
        for path in root.rglob("*.tmp"):
            try:
                if now - path.stat().st_mtime >= max_age:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
    except OSError:
        pass
    return removed


#: Packages whose sources determine simulated behaviour. Anything that
#: can change a statistic — pipeline timing, the ISA's op classes and
#: latencies, issue schemes, the memory hierarchy, trace generation,
#: even the counter plumbing — lives here. (The energy and experiments
#: layers post-process cached stats and are deliberately excluded.)
SIMULATOR_PACKAGES = (
    "backends",
    "common",
    "core",
    "frontend",
    "isa",
    "issue",
    "memory",
    "workloads",
)

#: Packages hashed into ``SAMPLING_VERSION_TAG`` (see below).
SAMPLING_PACKAGES = ("sampling", "energy")

#: The version-tagged core: every package whose sources either tag
#: digests. This is the one declaration of that set; the static
#: analysis scopes its determinism, warm-state and import-closure rules
#: by it.
TAGGED_PACKAGES = SIMULATOR_PACKAGES + SAMPLING_PACKAGES


def package_sources_digest(packages) -> str:
    """SHA-256 over the named ``src/repro`` packages' sources.

    Hashes the relative path and the bytes of each ``*.py`` file, in a
    stable order, so *any* edit produces a new digest (renames and moves
    included, since the path is part of the material).
    """
    package_root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.sha256()
    for package in packages:
        for path in sorted((package_root / package).rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def simulator_sources_digest() -> str:
    """SHA-256 over every simulator source file (see module docstring)."""
    return package_sources_digest(SIMULATOR_PACKAGES)


#: Stamped into every cache file and hashed into every key. Derived from
#: a hash of the simulator sources, so the disk cache can never serve a
#: result computed by different simulated behaviour — no manual bump to
#: forget. (Experiments-layer refactors that cannot change statistics do
#: not invalidate the cache; that is the point of hashing only the
#: simulator packages.)
SIMULATOR_VERSION_TAG = f"abella04-sim-src-{simulator_sources_digest()[:16]}"

#: Hashed into keys of *sampled* results only: slice selection, the
#: functional fast-forward walk and the estimator live in
#: ``repro.sampling``, and the estimator additionally bakes
#: ``repro.energy`` prices into the cached estimate record (full-run
#: results store raw events and re-price at read time, which is why
#: ``energy`` stays out of the simulator tag). Edits to either package
#: must therefore invalidate sampled cache entries — and only those.
SAMPLING_VERSION_TAG = (
    f"abella04-sampling-src-{package_sources_digest(SAMPLING_PACKAGES)[:16]}"
)

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-abella04``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-abella04"


def result_key(
    config: ProcessorConfig,
    profile: WorkloadProfile,
    scale,
    sampling=None,
    salt: Optional[str] = None,
) -> str:
    """Content address of one simulation result.

    ``scale`` is a :class:`~repro.experiments.runner.RunScale` and
    ``sampling`` an optional :class:`~repro.sampling.plan.SamplingPlan`
    (both taken untyped to avoid circular imports). Any field change
    anywhere in the inputs — nested config, profile knob, scale,
    sampling plan, simulator version — produces a different key; in
    particular a sampled result can never alias the full-run result of
    the same pair, and keys without a salt or armed fault are
    byte-for-byte what they were before those inputs existed.

    ``salt`` partitions the key space on purpose. The simulation kernel
    is no part of the key (every kernel is bit-identical *by contract*),
    so a differential oracle that re-ran one pair under each kernel
    through the normal cache would hit the first kernel's entry for the
    second and never see a divergence — it must salt each leg into its
    own namespace.

    Armed faults (:mod:`repro.common.faults`) are *always* part of the
    material: a fault changes simulated behaviour at runtime, invisibly
    to the source-derived version tag, so a faulty result must never be
    stored under — or served for — a clean key.
    """
    material = {
        "version": SIMULATOR_VERSION_TAG,
        "config": stable_fingerprint(config),
        "profile": stable_fingerprint(profile),
        "scale": stable_fingerprint(scale),
    }
    if sampling is not None:
        material["sampling"] = stable_fingerprint(sampling)
        material["sampling_version"] = SAMPLING_VERSION_TAG
    if salt is not None:
        material["salt"] = salt
    active = faults.active_faults()
    if active:
        material["faults"] = list(active)
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode("utf-8")
    ).hexdigest()


class ResultStore:
    """Directory of JSON-serialized :class:`SimulationStats`, by key.

    Every result lives at ``<root>/<key[:2]>/<key>.json``: the two-level
    fan-out keeps directories small for big sweeps, and the server and
    the CLIs share this one layout, so each starts warm on a cache the
    other filled.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # Cache hygiene: reap temp files orphaned by SIGKILLed writers.
        # The sweep covers the whole tree (results and traces) and only
        # touches files old enough that no live writer can still own
        # them. It walks every file, so it runs once per process and
        # root: a warm replay builds a store per campaign.
        root_id = os.path.abspath(self.root)
        if root_id not in _SWEPT_ROOTS:
            _SWEPT_ROOTS.add(root_id)
            sweep_stale_tmp(self.root)

    @classmethod
    def from_env(cls) -> Optional["ResultStore"]:
        """A store at ``$REPRO_CACHE_DIR``, or ``None`` if unset.

        This is the library default: hermetic unless the user opts in.
        The benchmark harness and the campaign CLI opt in explicitly via
        :func:`default_cache_dir`.
        """
        if os.environ.get(_ENV_VAR):
            return cls()
        return None

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[SimulationStats]:
        """Cached stats for ``key``, or ``None`` on any kind of miss.

        A missing file, unparsable JSON, a payload with missing/mistyped
        fields, and a simulator version-tag mismatch all read as misses;
        the caller recomputes and overwrites.
        """
        loaded = self.load_with_extra(key)
        return loaded[0] if loaded is not None else None

    def load_with_extra(self, key: str):
        """``(stats, extra)`` for ``key``, or ``None`` on any miss.

        ``extra`` is the optional side payload :meth:`save` stored (the
        sampled-estimate record), or ``None`` for plain results. Exactly
        like :meth:`load`, *every* failure mode — truncated file, binary
        garbage, wrong JSON shape, mis-typed stats or extra fields,
        version mismatch — reads as a miss, never an exception.
        """
        loaded = self._read_payload(self._path(key))
        self._count("hit" if loaded is not None else "miss")
        return loaded

    def _count(self, event: str) -> None:
        """Count one store event in the obs registry; telemetry only."""
        metrics.counter(_CACHE_EVENT_METRICS[event], store="results").inc()

    def _read_payload(self, path: Path):
        try:
            raw = path.read_bytes()
        except OSError:
            return None  # missing or unreadable file: a plain miss
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
            if payload.get("version") != SIMULATOR_VERSION_TAG:
                # Expected after a source edit rotates the tag: stale,
                # not damaged — don't count it as a corrupt read.
                return None
            stats = SimulationStats.from_dict(payload["stats"])
            extra = payload.get("sampled")
            if extra is not None and not isinstance(extra, dict):
                raise ValueError("mis-typed sampled record")
            return stats, extra
        except (ValueError, KeyError, TypeError, AttributeError):
            # The file existed but could not be trusted: torn write,
            # binary garbage, wrong shape. Still a miss to the caller.
            self._count("corrupt")
            return None

    def save(self, key: str, stats: SimulationStats, extra: Optional[dict] = None) -> Path:
        """Atomically persist ``stats`` under ``key``; returns the path.

        ``extra`` is an optional JSON-serializable side payload stored
        alongside the stats (sampled runs keep their estimate record
        there) and returned by :meth:`load_with_extra`.
        """
        payload = {"version": SIMULATOR_VERSION_TAG, "key": key, "stats": stats.to_dict()}
        if extra is not None:
            payload["sampled"] = extra
        path = atomic_write_json(self._path(key), payload)
        self._count("write")
        return path

    def __len__(self) -> int:
        """Number of cached results on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
