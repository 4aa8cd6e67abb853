"""Seeded inputs: the cold workloads' pairs and ``serve_mix``'s job streams.

Everything here is a pure function of the seed and of the figure matrix
(``figures.required_runs(ALL_FIGURES)`` rendered as ``(benchmark,
scheme name)`` pairs), so the same seed always yields the same inputs and
the program under test only ever sees the generated pairs and job specs.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

Pair = Tuple[str, str]

#: Each suite's benchmarks in cost strata: cold host time per
#: figure-matrix pair at scale 2000, cheapest stratum first (measured on a
#: 2-CPU x86-64 container, Python 3.11: 87-120 ms, 115-133 ms, 123-154 ms;
#: mcf and art, the costliest at ~170-200 ms, are strata of their own). A
#: subset takes one benchmark per stratum, so every seed runs a mix of
#: comparable cost and a seed change does not read as a speed change.
INT_STRATA = (
    ("twolf", "gzip", "bzip2", "crafty"),
    ("eon", "vpr", "vortex", "gcc"),
    ("parser", "perlbmk", "gap"),
    ("mcf",),
)
FP_STRATA = (
    ("sixtrack", "mgrid", "mesa", "swim"),
    ("wupwise", "apsi", "lucas", "equake"),
    ("facerec", "ammp", "galgel", "applu", "fma3d"),
    ("art",),
)

#: One block of the ``serve_mix`` stream: 4 first asks, one burst of 4
#: duplicate first asks and 28 repeats, so 8 of 36 jobs (22%) pay cold
#: latency and the p50/p90 split falls inside the warm and the cold
#: population respectively.
SERVE_BLOCK = ("first",) * 4 + ("burst",) + ("repeat",) * 28
BURST_SIZE = 4


def benchmark_subset(seed: int, strata: int = 4) -> List[str]:
    """One benchmark from each of the ``strata`` cheapest strata per suite."""
    rng = random.Random(f"subset-{seed}")
    return [
        rng.choice(stratum) for stratum in INT_STRATA[:strata] + FP_STRATA[:strata]
    ]


def cold_pairs(seed: int, matrix: Sequence[Pair], strata: int = 4) -> List[Pair]:
    """Every matrix pair of the seed's subset, in a seeded order.

    The order is shuffled so that the prefix a time-boxed run completes
    is a fair sample of the whole subset.
    """
    chosen = set(benchmark_subset(seed, strata))
    pairs = [pair for pair in matrix if pair[0] in chosen]
    random.Random(f"order-{seed}").shuffle(pairs)
    return pairs


def batched(pairs: Sequence[Pair], size: int) -> List[List[Pair]]:
    """``pairs`` cut into consecutive batches of ``size`` (the last may be short)."""
    return [list(pairs[start:start + size]) for start in range(0, len(pairs), size)]


def check_order(seed: int, length: int) -> List[int]:
    """Seeded order in which completed ops are picked for output checks."""
    order = list(range(length))
    random.Random(f"check-{seed}").shuffle(order)
    return order


def serve_stream(seed: int, matrix: Sequence[Pair], blocks: int = 100) -> List[Tuple[str, Pair]]:
    """The ``serve_mix`` job stream: ``(kind, pair)`` events.

    ``kind`` is ``first`` (a key not asked before), ``burst`` (a new key
    posted ``BURST_SIZE`` times back to back, so all but one coalesce) or
    ``repeat`` (a key asked before, so a store hit). The stream ends early
    if the matrix runs out of new keys.
    """
    rng = random.Random(f"serve-{seed}")
    fresh = iter(rng.sample(list(matrix), len(matrix)))
    asked: List[Pair] = []
    events: List[Tuple[str, Pair]] = []
    for __ in range(blocks):
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "repeat" and asked:
                events.append((kind, rng.choice(asked)))
                continue
            pair = next(fresh, None)
            if pair is None:
                return events
            asked.append(pair)
            events.append(("first" if kind == "repeat" else kind, pair))
    return events
