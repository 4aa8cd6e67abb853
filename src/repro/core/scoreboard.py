"""Physical-register readiness scoreboard.

This is the "table that stores just one bit per physical register
indicating whether it is available" of the FIFO schemes, generalized: it
stores the *cycle* at which each physical register's value is available,
which lets any scheme answer "ready at cycle t?" exactly. Initial
architectural state is available at cycle 0.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["Scoreboard", "NEVER"]

# Sentinel ready-cycle for a register whose producer has not issued yet.
NEVER = 1 << 60
_NEVER = NEVER


class Scoreboard:
    """Ready cycles for both physical register files.

    The accessors unpack ``(is_fp, index)`` tuples inline and select the
    bank with a conditional expression rather than a helper call — these
    run in the wakeup/select inner loops, where a Python-level call per
    operand is measurable.
    """

    __slots__ = ("_int", "_fp", "_version")

    def __init__(self, num_phys_int: int, num_phys_fp: int, num_arch_int: int, num_arch_fp: int) -> None:
        self._int: List[int] = [_NEVER] * num_phys_int
        self._fp: List[int] = [_NEVER] * num_phys_fp
        # Bumped on every readiness mutation; consumers may cache any
        # quantity derived from ready cycles and revalidate by version.
        self._version = 0
        # Initial architectural mappings (phys i holds arch i) are live-in
        # values, ready from the start.
        for i in range(num_arch_int):
            self._int[i] = 0
        for i in range(num_arch_fp):
            self._fp[i] = 0

    @property
    def version(self) -> int:
        """Monotonic counter of readiness mutations.

        While the version is unchanged, every ``ready_cycle`` answer is
        frozen, so a cached bound like "no operand set in queue Q can be
        fully ready before cycle c" stays exact.
        """
        return self._version

    def mark_pending(self, phys: Tuple[bool, int]) -> None:
        """Destination allocated: value not available until set_ready."""
        is_fp, index = phys
        (self._fp if is_fp else self._int)[index] = _NEVER
        self._version += 1

    def set_ready(self, phys: Tuple[bool, int], cycle: int) -> None:
        """Value of ``phys`` becomes available at ``cycle``."""
        is_fp, index = phys
        (self._fp if is_fp else self._int)[index] = cycle
        self._version += 1

    def ready_cycle(self, phys: Tuple[bool, int]) -> int:
        """Cycle at which ``phys`` is (or will be) available."""
        is_fp, index = phys
        return (self._fp if is_fp else self._int)[index]

    def is_ready(self, phys: Tuple[bool, int], cycle: int) -> bool:
        """True if the value is available to an instruction issuing at ``cycle``."""
        is_fp, index = phys
        return (self._fp if is_fp else self._int)[index] <= cycle

    def all_ready(self, phys_list, cycle: int) -> bool:
        """True if every register in ``phys_list`` is available at ``cycle``."""
        fp, intb = self._fp, self._int
        for is_fp, index in phys_list:
            if (fp if is_fp else intb)[index] > cycle:
                return False
        return True

    def is_scheduled(self, phys: Tuple[bool, int]) -> bool:
        """True once the producer has issued (ready cycle is known)."""
        is_fp, index = phys
        return (self._fp if is_fp else self._int)[index] < _NEVER
