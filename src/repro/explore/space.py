"""Declarative parameter spaces over scheme geometry, processor knobs
and workloads.

A :class:`DesignSpace` is a list of named :class:`Dimension`\\ s — issue
scheme kind, queue counts and depths, distributed-FU binding, MixBUFF
chain caps, issue width, ROB size, and the benchmark axis — plus the
expansion logic that turns an *assignment* (one value per dimension)
into a concrete :class:`DesignPoint`: a validated
:class:`~repro.common.config.ProcessorConfig` paired with a workload.

The workload enters the space in one of two modes. In the default
*axis* mode ``benchmark`` is a dimension like any other and each point
is one (config, benchmark) pair — the frontier then rewards
per-workload winners. With ``DesignSpace(aggregate_benchmarks=...)``
the benchmark dimension disappears and every point instead carries the
whole declared workload *set*: one design is one point, scored across
the suite (see :class:`~repro.explore.objectives.SuiteAggregator`), so
the frontier ranks suite-robust geometries the way the paper's
cross-SPEC averages do.

Assignments are *repaired* rather than rejected where the paper's
structural rules make a combination meaningless (a conventional queue
has one queue per side, only MixBUFF caps chains, distributed FUs need
multiple queues), so every sampled assignment lands on a simulable
point and near-duplicate assignments collapse onto the same
content-addressed point id.

Sampling is deterministic: grid enumeration walks dimensions in
declaration order, and random/mixed sampling draws from
:func:`repro.common.rng.make_rng` streams derived from the caller's
seed, so a fixed seed always explores the same points.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.config import (
    SCHEME_CONVENTIONAL,
    SCHEME_MIXBUFF,
    IssueSchemeConfig,
    ProcessorConfig,
    scheme_name,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng

__all__ = ["STRATEGIES", "Dimension", "DesignPoint", "DesignSpace", "default_space"]

#: Initial sampling strategies accepted by :meth:`DesignSpace.sample`.
STRATEGIES = ("grid", "random", "mixed")


@dataclass(frozen=True)
class Dimension:
    """One axis of the search space.

    ``values`` is the ordered domain. ``ordinal`` dimensions (sizes,
    widths) treat adjacent values as neighbours during refinement;
    categorical dimensions (scheme kind, benchmark) treat every other
    value as a neighbour, since there is no metric between them.
    """

    name: str
    values: Tuple[Any, ...]
    ordinal: bool = True

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(f"dimension {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigurationError(f"dimension {self.name!r} has duplicate values")

    def sample(self, rng) -> Any:
        """One uniformly drawn value."""
        return self.values[rng.randrange(len(self.values))]

    def neighbors(self, value: Any) -> Tuple[Any, ...]:
        """Values adjacent to ``value`` for frontier refinement.

        A value outside the declared domain (produced by assignment
        repair) has no neighbours — refinement then perturbs the other
        dimensions instead.
        """
        try:
            index = self.values.index(value)
        except ValueError:
            return ()
        if not self.ordinal:
            return tuple(v for v in self.values if v != value)
        out = []
        if index > 0:
            out.append(self.values[index - 1])
        if index + 1 < len(self.values):
            out.append(self.values[index + 1])
        return tuple(out)


@dataclass(frozen=True)
class DesignPoint:
    """One concrete, simulable (config, workload) pair.

    ``assignment`` keeps the *raw* sampled values (hashable item tuple)
    so refinement can perturb them dimension-wise; ``config`` is the
    repaired, validated processor configuration the assignment expands
    to. ``point_id`` is content-addressed over the config and the
    benchmark, so assignments that repair to the same machine collapse.

    In aggregate mode ``benchmarks`` names the whole workload set the
    point is scored across and ``benchmark`` is a short deterministic
    suite token (used in labels, rows and the point id); in axis mode
    ``benchmarks`` is empty and ``benchmark`` is the sampled workload.
    """

    assignment: Tuple[Tuple[str, Any], ...]
    benchmark: str
    config: ProcessorConfig
    label: str
    point_id: str
    benchmarks: Tuple[str, ...] = ()

    @property
    def assignment_dict(self) -> Dict[str, Any]:
        return dict(self.assignment)


#: Dimension names with structural meaning to the expansion logic.
_KNOWN_DIMENSIONS = (
    "kind",
    "int_queues",
    "int_entries",
    "fp_queues",
    "fp_entries",
    "distributed_fus",
    "max_chains",
    "issue_width",
    "rob_entries",
    "benchmark",
)


def _suite_token(benchmarks: Sequence[str]) -> str:
    """Short deterministic token naming an aggregation set."""
    joined = "+".join(benchmarks)
    if len(joined) <= 40:
        return f"suite:{joined}"
    digest = hashlib.sha256(joined.encode("ascii")).hexdigest()[:8]
    return f"suite:{len(benchmarks)}bench-{digest}"


class DesignSpace:
    """A declared set of dimensions plus assignment-expansion logic.

    ``aggregate_benchmarks`` switches the workload mode: when given, the
    space has no ``benchmark`` dimension and every expanded point
    carries the whole set (scored suite-wide); when ``None`` (default),
    ``benchmark`` must be a declared dimension and each point is one
    (config, benchmark) pair.
    """

    def __init__(
        self,
        dimensions: Sequence[Dimension],
        aggregate_benchmarks: Optional[Sequence[str]] = None,
    ) -> None:
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate dimension names in design space")
        unknown = [n for n in names if n not in _KNOWN_DIMENSIONS]
        if unknown:
            raise ConfigurationError(
                f"unknown dimensions {unknown}; known: {list(_KNOWN_DIMENSIONS)}"
            )
        if aggregate_benchmarks is not None:
            if not aggregate_benchmarks:
                raise ConfigurationError("aggregate_benchmarks cannot be empty")
            if len(set(aggregate_benchmarks)) != len(tuple(aggregate_benchmarks)):
                raise ConfigurationError("duplicate names in aggregate_benchmarks")
            if "benchmark" in names:
                raise ConfigurationError(
                    "an aggregated space scores every point across its "
                    "benchmark set; drop the 'benchmark' dimension"
                )
            self.aggregate_benchmarks: Tuple[str, ...] = tuple(aggregate_benchmarks)
        else:
            if "benchmark" not in names:
                raise ConfigurationError(
                    "a design space needs a 'benchmark' dimension "
                    "(or aggregate_benchmarks=...)"
                )
            self.aggregate_benchmarks = ()
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self._by_name: Dict[str, Dimension] = {d.name: d for d in dimensions}

    # -- declaration ---------------------------------------------------
    def __len__(self) -> int:
        """Number of assignments in the full Cartesian grid."""
        total = 1
        for dim in self.dimensions:
            total *= len(dim.values)
        return total

    def describe(self) -> Dict[str, List[Any]]:
        """JSON-friendly rendering of the declared space."""
        described = {d.name: list(d.values) for d in self.dimensions}
        if self.aggregate_benchmarks:
            described["aggregate_benchmarks"] = list(self.aggregate_benchmarks)
        return described

    def _get(self, assignment: Mapping[str, Any], name: str, fallback: Any) -> Any:
        dim = self._by_name.get(name)
        if name in assignment:
            return assignment[name]
        if dim is not None:
            return dim.values[0]
        return fallback

    # -- expansion -----------------------------------------------------
    def build_point(self, assignment: Mapping[str, Any]) -> DesignPoint:
        """Expand one assignment into a validated :class:`DesignPoint`.

        Structural repairs (see module docstring) are applied here, so
        the caller may sample dimensions independently.
        """
        kind = self._get(assignment, "kind", SCHEME_CONVENTIONAL)
        int_queues = self._get(assignment, "int_queues", 8)
        int_entries = self._get(assignment, "int_entries", 8)
        fp_queues = self._get(assignment, "fp_queues", 8)
        fp_entries = self._get(assignment, "fp_entries", 16)
        distributed = self._get(assignment, "distributed_fus", False)
        max_chains = self._get(assignment, "max_chains", None)
        issue_width = self._get(assignment, "issue_width", 8)
        rob_entries = self._get(assignment, "rob_entries", 256)
        if self.aggregate_benchmarks:
            benchmark = _suite_token(self.aggregate_benchmarks)
        else:
            benchmark = assignment["benchmark"]

        if kind == SCHEME_CONVENTIONAL:
            # One monolithic queue per side with the *same total capacity*
            # as the sampled multi-queue geometry, so conventional and
            # FIFO points of one assignment neighbourhood are storage-
            # equivalent and the comparison isolates the organization.
            scheme = IssueSchemeConfig(
                kind=kind,
                int_queue_entries=int_queues * int_entries,
                fp_queue_entries=fp_queues * fp_entries,
            )
        else:
            if int_queues < 2 or fp_queues < 2:
                distributed = False  # distributed FUs need multiple queues
            scheme = IssueSchemeConfig(
                kind=kind,
                int_queues=int_queues,
                int_queue_entries=int_entries,
                fp_queues=fp_queues,
                fp_queue_entries=fp_entries,
                distributed_fus=distributed,
                max_chains_per_queue=(
                    max_chains if kind == SCHEME_MIXBUFF else None
                ),
            )
        config = replace(
            ProcessorConfig(),
            int_issue_width=issue_width,
            fp_issue_width=issue_width,
            rob_entries=rob_entries,
            scheme=scheme,
        )
        config.validate()
        label = f"{scheme_name(scheme)}_w{issue_width}_rob{rob_entries}@{benchmark}"
        point_id = hashlib.sha256(
            f"{config.cache_key()}:{benchmark}".encode("ascii")
        ).hexdigest()[:12]
        items = tuple(sorted(assignment.items(), key=lambda kv: kv[0]))
        return DesignPoint(
            assignment=items,
            benchmark=benchmark,
            config=config,
            label=label,
            point_id=point_id,
            benchmarks=self.aggregate_benchmarks,
        )

    def expand(self, assignments: Iterable[Mapping[str, Any]]) -> List[DesignPoint]:
        """Unique, valid points for ``assignments`` (first-seen order)."""
        points: List[DesignPoint] = []
        seen = set()
        for assignment in assignments:
            try:
                point = self.build_point(assignment)
            except ConfigurationError:
                continue  # unrepairable corner of the grid
            if point.point_id not in seen:
                seen.add(point.point_id)
                points.append(point)
        return points

    # -- sampling ------------------------------------------------------
    def _decode_grid_index(self, index: int) -> Dict[str, Any]:
        """Assignment at ``index`` of the Cartesian grid.

        Mixed-radix decoding in :func:`itertools.product` order (last
        dimension varies fastest), so ``_decode_grid_index(i)`` equals
        the ``i``-th element of the full product without walking it.
        """
        values: List[Any] = []
        for dim in reversed(self.dimensions):
            index, digit = divmod(index, len(dim.values))
            values.append(dim.values[digit])
        values.reverse()
        return {d.name: v for d, v in zip(self.dimensions, values)}

    def grid_assignments(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The Cartesian grid, evenly strided down to ``limit`` entries.

        A bounded request decodes the ``limit`` strided indices directly
        (O(limit · dims)) instead of enumerating the whole product —
        a 12-sample request over a million-point space touches exactly
        12 grid indices.
        """
        total = len(self)
        names = [d.name for d in self.dimensions]
        if limit is None or limit >= total:
            product = itertools.product(*(d.values for d in self.dimensions))
            return [dict(zip(names, combo)) for combo in product]
        if limit <= 0:
            return []
        # i * total // limit is strictly increasing for limit <= total,
        # so the strided indices are already distinct and sorted.
        return [
            self._decode_grid_index(i * total // limit) for i in range(limit)
        ]

    def random_assignments(self, n: int, seed: int) -> List[Dict[str, Any]]:
        """``n`` independent uniform draws (deterministic in ``seed``)."""
        rng = make_rng(seed, "explore.space.random")
        return [
            {d.name: d.sample(rng) for d in self.dimensions} for _ in range(n)
        ]

    def sample(self, strategy: str, n: int, seed: int) -> List[Dict[str, Any]]:
        """Sample ``n`` assignments: ``grid``, ``random`` or ``mixed``.

        ``mixed`` takes half from an even stride of the grid (structured
        coverage of the corners) and half at random (unbiased interior
        coverage).
        """
        if strategy == "grid":
            return self.grid_assignments(n)
        if strategy == "random":
            return self.random_assignments(n, seed)
        if strategy == "mixed":
            half = n // 2
            return self.grid_assignments(half) + self.random_assignments(
                n - half, seed
            )
        raise ConfigurationError(
            f"unknown sampling strategy {strategy!r}; valid: "
            + ", ".join(STRATEGIES)
        )

    # -- refinement ----------------------------------------------------
    def neighborhood(
        self, assignment: Mapping[str, Any], limit: int, rng
    ) -> List[Dict[str, Any]]:
        """Single-dimension perturbations of ``assignment``.

        Every (dimension, neighbour-value) variant is generated, then the
        list is deterministically shuffled with ``rng`` and truncated to
        ``limit`` — so refinement pressure spreads across dimensions
        instead of always mutating the first ones.
        """
        variants: List[Dict[str, Any]] = []
        for dim in self.dimensions:
            if dim.name not in assignment:
                continue
            for value in dim.neighbors(assignment[dim.name]):
                variant = dict(assignment)
                variant[dim.name] = value
                variants.append(variant)
        rng.shuffle(variants)
        return variants[:limit] if limit else variants


def default_space(benchmarks: Sequence[str], aggregate: bool = False) -> DesignSpace:
    """The standard exploration space over the paper's design axes.

    Scheme kind and geometry span (and exceed) the Section 3/4 sweeps;
    issue width and ROB size probe the processor context; ``benchmarks``
    provides the workload axis — or, with ``aggregate=True``, the
    workload *set* every point is scored across (the paper's cross-suite
    averaging; see :class:`~repro.explore.objectives.SuiteAggregator`).
    """
    if not benchmarks:
        raise ConfigurationError("default_space needs at least one benchmark")
    dimensions = [
        Dimension(
            "kind",
            ("conventional", "issuefifo", "latfifo", "mixbuff"),
            ordinal=False,
        ),
        Dimension("int_queues", (4, 8, 12, 16)),
        Dimension("int_entries", (4, 8, 16)),
        Dimension("fp_queues", (4, 8, 12, 16)),
        Dimension("fp_entries", (8, 16)),
        Dimension("distributed_fus", (False, True), ordinal=False),
        Dimension("max_chains", (None, 4, 8), ordinal=False),
        Dimension("issue_width", (4, 8)),
        Dimension("rob_entries", (128, 256)),
    ]
    if aggregate:
        return DesignSpace(dimensions, aggregate_benchmarks=tuple(benchmarks))
    dimensions.append(Dimension("benchmark", tuple(benchmarks), ordinal=False))
    return DesignSpace(dimensions)
