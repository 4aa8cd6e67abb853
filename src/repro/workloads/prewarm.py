"""Cache pre-warming: bring the memory hierarchy to steady state.

The paper simulates 100M instructions per benchmark *after skipping the
initialization part*, so its caches are warm and the measured miss rates
are the programs' recurrent (capacity/conflict) miss rates. A
pure-Python cycle simulator runs 10³–10⁵ instructions, far too few for
random access patterns to cover their regions: without help, nearly every
random access would be a compulsory miss and every benchmark would look
memory bound.

:func:`prewarm` replays the profile's *address distribution* (not the
trace's actual future addresses) through the caches until they reach
steady state: every stream region is touched in full, and the random
regions are sampled several times over. The measured run then sees
exactly the recurrent misses a long-running program would: streams hit,
random accesses miss at the rate set by the region-size/cache-size
ratio.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Tuple

from repro.common.config import stable_fingerprint
from repro.common.rng import make_rng
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.generator import StaticProgram, build_static_program
from repro.workloads.profiles import WorkloadProfile

__all__ = [
    "prewarm",
    "clear_prewarm_cache",
    "warm_state_keys",
    "warm_states_since",
    "adopt_warm_states",
]

_SAMPLES_PER_LINE = 4  # random-region oversampling factor

#: Warmed-cache state memo, keyed on everything that determines it. A
#: campaign replays the same benchmark under many schemes, and the cache
#: geometry is scheme-independent, so the (deterministic) warming walk
#: runs once per benchmark per process; later calls restore the snapshot.
#: Pool workers hand the states they compute back to the parent
#: (:func:`warm_states_since`, :func:`adopt_warm_states`), so the
#: workers it forks later inherit them.
_WARM_STATE: Dict[Tuple, tuple] = {}


def clear_prewarm_cache() -> None:
    """Drop memoized warm states (tests that count accesses use this)."""
    _WARM_STATE.clear()


def warm_state_keys() -> FrozenSet[Tuple]:
    """Keys of the memoized warm states, to pass to :func:`warm_states_since`."""
    return frozenset(_WARM_STATE)


def warm_states_since(keys: AbstractSet[Tuple]) -> Dict[Tuple, tuple]:
    """The memoized warm states whose keys are not in ``keys``."""
    # Iterate a copy: a prewarm in another thread may add an entry meanwhile.
    items = list(_WARM_STATE.items())
    return {key: state for key, state in items if key not in keys}


def adopt_warm_states(states: Dict[Tuple, tuple]) -> None:
    """File warm states another process computed into this process's memo.

    A state is deterministic in its key, so an adopted state restores
    exactly what the walk here would have built.
    """
    _WARM_STATE.update(states)


def prewarm(
    hierarchy: MemoryHierarchy,
    profile: WorkloadProfile,
    seed: int,
    num_int_regs: int = 32,
    num_fp_regs: int = 32,
) -> None:
    """Warm the caches of ``hierarchy`` for a run of ``profile``.

    Must be called with the same ``seed`` the trace was generated with so
    the static program (and hence the set of stream regions) matches.
    Cache statistics are reset afterwards, so the warming accesses never
    appear in any reported counter.

    The resulting cache state is deterministic in (profile, seed,
    register counts, cache geometry), so it is memoized per process:
    repeat calls restore a snapshot instead of replaying the access walk
    — bit-identical, since the snapshot captures the complete tag/LRU
    state and the statistics are reset either way.
    """
    memo_key = (
        stable_fingerprint(profile),
        seed,
        num_int_regs,
        num_fp_regs,
        hierarchy.config.icache.cache_key(),
        hierarchy.config.dcache.cache_key(),
        hierarchy.config.l2cache.cache_key(),
    )
    warmed = _WARM_STATE.get(memo_key)
    if warmed is not None:
        hierarchy.restore_state(warmed)
        return
    program: StaticProgram = build_static_program(
        profile, seed, num_int_regs, num_fp_regs
    )
    rng = make_rng(seed, f"prewarm:{profile.name}")
    line = hierarchy.config.dcache.line_bytes
    ws = profile.memory.working_set_bytes
    stream_region = min(profile.memory.stream_region_bytes, ws)
    random_region = min(profile.memory.random_region_bytes, ws)

    # Instruction lines: every body PC, in layout order.
    for body_index, body in enumerate(program.bodies):
        for slot in range(len(body)):
            hierarchy.instruction_fetch_latency(program.body_pc(body_index, slot))

    # Stream regions: touch every line each stream will revisit.
    for body in program.bodies:
        for static in body:
            if not static.op.is_memory or static.addr_random:
                continue
            base = program.data_base + static.addr_offset
            for offset in range(0, stream_region, line):
                hierarchy.data_access_latency(base + offset)

    # Random regions: sample to steady state. Touching each line a few
    # times in random order leaves the LRU stacks in the stationary
    # distribution of a uniform reference stream.
    region_lines = max(1, random_region // line)
    has_random = any(
        static.addr_random
        for body in program.bodies
        for static in body
        if static.op.is_memory
    )
    if has_random:
        # For regions much larger than L2 the caches saturate long before
        # every line is touched; cap the work (steady state only needs
        # the LRU stacks filled with a random resident subset).
        samples = min(_SAMPLES_PER_LINE * region_lines, 50_000)
        for __ in range(samples):
            hierarchy.data_access_latency(
                program.data_base + rng.randrange(0, random_region, 4)
            )

    # Re-touch the streams last: their steady-state residency beats the
    # random churn because they are re-referenced every iteration.
    for body in program.bodies:
        for static in body:
            if not static.op.is_memory or static.addr_random:
                continue
            base = program.data_base + static.addr_offset
            for offset in range(0, stream_region, line):
                hierarchy.data_access_latency(base + offset)

    hierarchy.icache.reset_statistics()
    hierarchy.dcache.reset_statistics()
    hierarchy.l2.reset_statistics()
    _WARM_STATE[memo_key] = hierarchy.state_snapshot()
