"""MixBUFF per-queue selection logic (Section 3.2.1, Figure 5).

Every cycle each queue's chain-latency table is read, each entry's count
is compressed to two bits —

* ``00`` — the chain's last issued instruction finishes *next* cycle
  (its dependent is being considered for the first time, back-to-back),
* ``01`` — it has already finished,
* ``11`` — it needs two or more cycles,

— and each queue entry concatenates its chain's pair of bits with its age
identifier. The selection logic picks the minimum, i.e. the oldest
instruction in the highest priority class; ``11`` entries are not
candidates. First-time-ready instructions (code ``00`` — their chain
predecessor finishes next cycle, so this is their first chance) thereby
beat instructions whose issue was already delayed (code ``01``), the
paper's anti-starvation heuristic. The key is exactly the concatenation
the paper's Figure 5 shows: ``(code, age)`` — no additional state. An
entry whose issue failed is not marked: once its chain has finished, its
code reads ``01`` by itself. MixBUFF passes an instruction's trace
``seq`` as its age (see :mod:`repro.core.rob`).

The module is pure (no pipeline dependencies) so the Figure 5 worked
example can be reproduced directly in tests and benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

__all__ = ["latency_code", "selection_key", "select_entry", "SelectableEntry"]

CODE_FINISHES_NEXT_CYCLE = 0b00
CODE_FINISHED = 0b01
CODE_NOT_READY = 0b11


class SelectableEntry:
    """Minimal view of a queue entry the selector needs."""

    __slots__ = ("chain", "age", "payload")

    def __init__(self, chain: int, age: int, payload=None) -> None:
        self.chain = chain
        self.age = age
        self.payload = payload


def latency_code(chain_completion_cycle: int, cycle: int) -> int:
    """Compress a chain's completion cycle into the paper's 2-bit code.

    ``chain_completion_cycle`` is the cycle at which the chain's last
    issued instruction's result is available; ``cycle`` is the current
    cycle. The hardware stores a down-counter; comparing absolute cycles
    is equivalent.
    """
    remaining = chain_completion_cycle - cycle
    if remaining <= 0:
        return CODE_FINISHED
    if remaining == 1:
        return CODE_FINISHES_NEXT_CYCLE
    return CODE_NOT_READY


def selection_key(code: int, age: int) -> Tuple[int, int]:
    """Priority key: smaller wins.

    The 2-bit code orders ``00 < 01 < 11`` (finishing-next-cycle
    first-timers beat already-finished/delayed entries); the age
    identifier breaks ties, oldest first. This is the bit concatenation
    of the paper's Figure 5.
    """
    return (code, age)


def select_entry(
    entries: Iterable[SelectableEntry],
    chain_completion: Dict[int, int],
    cycle: int,
) -> Optional[SelectableEntry]:
    """Pick the entry to issue from one queue, or None.

    ``chain_completion`` maps chain id → absolute completion cycle of the
    chain's last issued instruction (0 if none issued yet).
    """
    best: Optional[SelectableEntry] = None
    best_key: Optional[Tuple[int, int]] = None
    for entry in entries:
        code = latency_code(chain_completion.get(entry.chain, 0), cycle)
        if code == CODE_NOT_READY:
            continue
        key = selection_key(code, entry.age)
        if best_key is None or key < best_key:
            best = entry
            best_key = key
    return best
