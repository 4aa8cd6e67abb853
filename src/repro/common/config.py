"""Processor and scheme configuration objects.

:class:`ProcessorConfig` encodes Table 1 of the paper; the issue-scheme
configs encode the ``IssueFIFO_AxB_CxD`` style naming used throughout
Section 3 (A integer queues of B entries, C FP queues of D entries).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Optional

from repro.common.errors import ConfigurationError

__all__ = [
    "CacheConfig",
    "MemoryConfig",
    "BranchPredictorConfig",
    "FunctionalUnitConfig",
    "IssueSchemeConfig",
    "ProcessorConfig",
    "KERNEL_NAIVE",
    "KERNEL_SKIP",
    "KERNEL_SPECIALIZED",
    "VALID_KERNELS",
    "default_config",
    "scheme_name",
    "stable_fingerprint",
]


def stable_fingerprint(obj) -> str:
    """Canonical JSON rendering of a (possibly nested) config dataclass.

    Field order is normalized by sorting keys, so the fingerprint — and
    anything hashed from it — is stable across processes and Python
    versions. Every config field is a str/int/float/bool/None, which JSON
    renders deterministically.

    Fields named in the class's ``_FINGERPRINT_EXCLUDE`` tuple are left
    out: they select an execution strategy (e.g. the simulation kernel)
    whose results are bit-identical by contract, so they must not split
    the content-addressed result cache.
    """
    if not is_dataclass(obj):
        raise TypeError(f"can only fingerprint dataclasses, got {type(obj).__name__}")
    payload = {"__type__": type(obj).__name__, **asdict(obj)}
    for name in getattr(type(obj), "_FINGERPRINT_EXCLUDE", ()):
        payload.pop(name, None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Fingerprinted:
    """Mixin giving every config dataclass a content-addressed key."""

    def cache_key(self) -> str:
        """SHA-256 over the canonical field rendering of this config.

        Two configs share a key iff every (nested) field is equal, so the
        key is safe to use as an on-disk cache address: changing any knob
        — queue geometry, latencies, scheme kind, ... — changes the key.
        """
        return hashlib.sha256(stable_fingerprint(self).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CacheConfig(_Fingerprinted):
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int
    hit_latency: int
    ports: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an inconsistent geometry."""
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigurationError(f"{self.name}: sizes must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigurationError(
                f"{self.name}: size must be a multiple of associativity * line size"
            )
        sets = self.num_sets
        if sets & (sets - 1):
            raise ConfigurationError(f"{self.name}: number of sets must be a power of two")
        if self.hit_latency < 1:
            raise ConfigurationError(f"{self.name}: hit latency must be >= 1 cycle")
        if self.ports < 1:
            raise ConfigurationError(f"{self.name}: needs at least one port")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig(_Fingerprinted):
    """Main-memory timing: 100 cycles for the first chunk, 2 inter-chunk."""

    first_chunk_latency: int = 100
    inter_chunk_latency: int = 2
    chunk_bytes: int = 64

    def validate(self) -> None:
        if self.first_chunk_latency < 1 or self.inter_chunk_latency < 0:
            raise ConfigurationError("memory latencies must be positive")
        if self.chunk_bytes < 1:
            raise ConfigurationError("memory chunk size must be positive")

    def access_latency(self, bytes_needed: int) -> int:
        """Latency to transfer ``bytes_needed`` bytes from main memory."""
        if bytes_needed <= 0:
            raise ConfigurationError("bytes_needed must be positive")
        extra_chunks = (bytes_needed - 1) // self.chunk_bytes
        return self.first_chunk_latency + extra_chunks * self.inter_chunk_latency


@dataclass(frozen=True)
class BranchPredictorConfig(_Fingerprinted):
    """Hybrid predictor: 2K gshare + 2K bimodal + 1K selector, 2048x4 BTB."""

    gshare_entries: int = 2048
    bimodal_entries: int = 2048
    selector_entries: int = 1024
    btb_entries: int = 2048
    btb_associativity: int = 4
    history_bits: int = 11

    def validate(self) -> None:
        for label, value in (
            ("gshare_entries", self.gshare_entries),
            ("bimodal_entries", self.bimodal_entries),
            ("selector_entries", self.selector_entries),
            ("btb_entries", self.btb_entries),
        ):
            if value <= 0 or value & (value - 1):
                raise ConfigurationError(f"{label} must be a positive power of two")
        if self.btb_entries % self.btb_associativity:
            raise ConfigurationError("btb_entries must be divisible by associativity")
        if not 1 <= self.history_bits <= 30:
            raise ConfigurationError("history_bits out of range")


@dataclass(frozen=True)
class FunctionalUnitConfig(_Fingerprinted):
    """Counts and latencies of the functional units (Table 1).

    Multiplies are pipelined; divides occupy their unit for the full
    latency (unpipelined), which is the conventional SimpleScalar model.
    """

    int_alu_count: int = 8
    int_muldiv_count: int = 4
    fp_alu_count: int = 4
    fp_muldiv_count: int = 4

    int_alu_latency: int = 1
    int_mul_latency: int = 3
    int_div_latency: int = 20
    fp_alu_latency: int = 2
    fp_mul_latency: int = 4
    fp_div_latency: int = 12
    address_latency: int = 1

    def validate(self) -> None:
        counts = (
            self.int_alu_count,
            self.int_muldiv_count,
            self.fp_alu_count,
            self.fp_muldiv_count,
        )
        if any(c < 1 for c in counts):
            raise ConfigurationError("all functional-unit counts must be >= 1")
        latencies = (
            self.int_alu_latency,
            self.int_mul_latency,
            self.int_div_latency,
            self.fp_alu_latency,
            self.fp_mul_latency,
            self.fp_div_latency,
            self.address_latency,
        )
        if any(latency < 1 for latency in latencies):
            raise ConfigurationError("all latencies must be >= 1 cycle")


# Simulation-kernel constants (see repro.core.engine and repro.backends).
# The kernel is an execution strategy, not simulated behaviour: every
# kernel must produce bit-identical SimulationStats for every input.
# ``naive``/``skip`` are the built-in engine loops; ``specialized`` runs
# a per-config generated kernel from :mod:`repro.backends`.
KERNEL_NAIVE = "naive"
KERNEL_SKIP = "skip"
KERNEL_SPECIALIZED = "specialized"
VALID_KERNELS = (KERNEL_NAIVE, KERNEL_SKIP, KERNEL_SPECIALIZED)

# Scheme kind constants (strings keep configs printable and hashable).
SCHEME_CONVENTIONAL = "conventional"
SCHEME_ISSUEFIFO = "issuefifo"
SCHEME_LATFIFO = "latfifo"
SCHEME_MIXBUFF = "mixbuff"

_VALID_KINDS = (
    SCHEME_CONVENTIONAL,
    SCHEME_ISSUEFIFO,
    SCHEME_LATFIFO,
    SCHEME_MIXBUFF,
)


@dataclass(frozen=True)
class IssueSchemeConfig(_Fingerprinted):
    """Which issue organization to simulate, and its geometry.

    For the multi-queue schemes the geometry follows the paper's
    ``<kind>_AxB_CxD`` naming: ``int_queues`` x ``int_queue_entries`` for
    the integer side and ``fp_queues`` x ``fp_queue_entries`` for the FP
    side. For the conventional scheme only ``int_queue_entries`` /
    ``fp_queue_entries`` matter (one queue per side); ``unbounded=True``
    gives each side as many entries as the reorder buffer, which is the
    Section 3 baseline.

    ``distributed_fus`` binds functional units to queues per Section 3.3:
    one integer ALU per integer queue, one integer mul/div per *pair* of
    integer queues, and one FP adder plus one FP mul/div per pair of FP
    queues. ``max_chains_per_queue`` only applies to MixBUFF (``None``
    means unbounded chains, as in the Section 3.2 study).
    """

    kind: str = SCHEME_CONVENTIONAL
    int_queues: int = 1
    int_queue_entries: int = 64
    fp_queues: int = 1
    fp_queue_entries: int = 64
    unbounded: bool = False
    distributed_fus: bool = False
    max_chains_per_queue: Optional[int] = None
    # Integer side of LatFIFO and MixBUFF behaves exactly like IssueFIFO
    # (the paper's proposals only change the FP side).

    def validate(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ConfigurationError(f"unknown issue scheme kind: {self.kind!r}")
        if self.int_queues < 1 or self.fp_queues < 1:
            raise ConfigurationError("need at least one queue per side")
        if self.int_queue_entries < 1 or self.fp_queue_entries < 1:
            raise ConfigurationError("queues need at least one entry")
        if self.kind == SCHEME_CONVENTIONAL and (self.int_queues != 1 or self.fp_queues != 1):
            raise ConfigurationError("conventional scheme has one queue per side")
        if self.max_chains_per_queue is not None:
            if self.kind != SCHEME_MIXBUFF:
                raise ConfigurationError("max_chains_per_queue only applies to MixBUFF")
            if self.max_chains_per_queue < 1:
                raise ConfigurationError("max_chains_per_queue must be >= 1")
        if self.distributed_fus and self.kind == SCHEME_CONVENTIONAL:
            raise ConfigurationError("distributed FUs require multiple queues")


def scheme_name(cfg: IssueSchemeConfig) -> str:
    """Render a scheme config in the paper's naming convention.

    >>> scheme_name(IssueSchemeConfig(kind="issuefifo", int_queues=8,
    ...     int_queue_entries=8, fp_queues=16, fp_queue_entries=16))
    'IssueFIFO_8x8_16x16'
    """
    pretty = {
        SCHEME_CONVENTIONAL: "IQ",
        SCHEME_ISSUEFIFO: "IssueFIFO",
        SCHEME_LATFIFO: "LatFIFO",
        SCHEME_MIXBUFF: "MixBUFF",
    }[cfg.kind]
    if cfg.kind == SCHEME_CONVENTIONAL:
        if cfg.unbounded:
            return "IQ_unbounded"
        return f"IQ_{cfg.int_queue_entries}_{cfg.fp_queue_entries}"
    name = (
        f"{pretty}_{cfg.int_queues}x{cfg.int_queue_entries}"
        f"_{cfg.fp_queues}x{cfg.fp_queue_entries}"
    )
    if cfg.distributed_fus:
        name += "_distr"
    return name


@dataclass(frozen=True)
class ProcessorConfig(_Fingerprinted):
    """Full processor configuration (Table 1 of the paper)."""

    fetch_width: int = 8
    decode_width: int = 8
    commit_width: int = 8
    int_issue_width: int = 8
    fp_issue_width: int = 8
    fetch_queue_entries: int = 64
    rob_entries: int = 256
    int_phys_regs: int = 160
    fp_phys_regs: int = 160
    num_arch_int_regs: int = 32
    num_arch_fp_regs: int = 32
    mispredict_redirect_penalty: int = 1

    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 64 * 1024, 2, 32, 1)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 4, 32, 2, ports=4)
    )
    l2cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 512 * 1024, 4, 64, 10)
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    fus: FunctionalUnitConfig = field(default_factory=FunctionalUnitConfig)
    scheme: IssueSchemeConfig = field(default_factory=IssueSchemeConfig)
    technology_um: float = 0.10
    #: Simulation kernel: "skip" (event-driven cycle skipping, the
    #: default) or "naive" (tick every cycle). Both are bit-identical in
    #: every reported statistic — the knob only trades wall-clock time —
    #: so the field is excluded from cache fingerprints below.
    kernel: str = KERNEL_SKIP

    # Execution-strategy fields that must not split the result cache.
    _FINGERPRINT_EXCLUDE = ("kernel",)

    def validate(self) -> None:
        """Validate every nested configuration object."""
        widths = (
            self.fetch_width,
            self.decode_width,
            self.commit_width,
            self.int_issue_width,
            self.fp_issue_width,
        )
        if any(w < 1 for w in widths):
            raise ConfigurationError("pipeline widths must be >= 1")
        if self.fetch_queue_entries < self.fetch_width:
            raise ConfigurationError("fetch queue must hold at least one fetch group")
        if self.rob_entries < self.commit_width:
            raise ConfigurationError("ROB must hold at least one commit group")
        if self.int_phys_regs <= self.num_arch_int_regs:
            raise ConfigurationError("need more INT physical than architectural registers")
        if self.fp_phys_regs <= self.num_arch_fp_regs:
            raise ConfigurationError("need more FP physical than architectural registers")
        if self.mispredict_redirect_penalty < 0:
            raise ConfigurationError("redirect penalty cannot be negative")
        if self.kernel not in VALID_KERNELS:
            raise ConfigurationError(
                f"unknown simulation kernel {self.kernel!r}; valid: {VALID_KERNELS}"
            )
        if not 0.01 <= self.technology_um <= 1.0:
            raise ConfigurationError("technology node out of supported range")
        self.icache.validate()
        self.dcache.validate()
        self.l2cache.validate()
        self.memory.validate()
        self.branch.validate()
        self.fus.validate()
        self.scheme.validate()

    def with_scheme(self, scheme: IssueSchemeConfig) -> "ProcessorConfig":
        """Return a copy of this config with a different issue scheme."""
        return replace(self, scheme=scheme)

    def with_kernel(self, kernel: str) -> "ProcessorConfig":
        """Return a copy of this config with a different simulation kernel."""
        return replace(self, kernel=kernel)


def default_config(scheme: Optional[IssueSchemeConfig] = None) -> ProcessorConfig:
    """Return the Table 1 configuration, optionally with a given scheme."""
    cfg = ProcessorConfig()
    if scheme is not None:
        cfg = cfg.with_scheme(scheme)
    cfg.validate()
    return cfg
