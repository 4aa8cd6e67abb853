"""Register renaming: architectural → physical mapping with free lists.

The trace-driven pipeline has no wrong path, so the renamer never rolls
back; it still models the *resource* behaviour that matters — dispatch
stalls when the 160-entry physical register files run out, and registers
are recycled only when the next writer of the same architectural register
commits (the standard R10K scheme).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.errors import SimulationError
from repro.isa.instructions import RegisterRef

__all__ = ["RenameMap"]


class _RegisterFile:
    """Free list + mapping for one register class.

    ``is_free[i]`` says whether physical register ``i`` is on the free
    list; it changes together with the list, so a double free is caught
    without scanning the list.
    """

    def __init__(self, num_arch: int, num_phys: int) -> None:
        # Architectural register i starts mapped to physical register i.
        self.map: List[int] = list(range(num_arch))
        self.free: Deque[int] = deque(range(num_arch, num_phys))
        self.is_free: List[bool] = [False] * num_arch + [True] * (num_phys - num_arch)

    @property
    def free_count(self) -> int:
        return len(self.free)


class RenameMap:
    """Renamer for both register classes.

    ``rename`` translates one instruction's registers; the caller must
    check :meth:`can_rename` first (dispatch-stage stall condition).
    """

    def __init__(
        self,
        num_arch_int: int,
        num_arch_fp: int,
        num_phys_int: int,
        num_phys_fp: int,
    ) -> None:
        self._int = _RegisterFile(num_arch_int, num_phys_int)
        self._fp = _RegisterFile(num_arch_fp, num_phys_fp)

    def _file(self, is_fp: bool) -> _RegisterFile:
        return self._fp if is_fp else self._int

    def free_registers(self, is_fp: bool) -> int:
        """Number of free physical registers of one class."""
        return self._file(is_fp).free_count

    def can_rename(self, dest: Optional[RegisterRef]) -> bool:
        """True if a destination register can be allocated (or none needed)."""
        if dest is None:
            return True
        return self._file(dest.is_fp).free_count > 0

    def lookup(self, ref: RegisterRef) -> int:
        """Current physical register holding architectural ``ref``."""
        return self._file(ref.is_fp).map[ref.index]

    def rename(self, srcs, dest: Optional[RegisterRef]) -> tuple:
        """Rename one instruction.

        Returns ``(src_phys, dest_phys, prev_phys)``: the sources'
        physical registers (each paired with its class), the new
        destination register and the one previously mapped to the
        destination, to be freed when this instruction commits. Raises
        :class:`SimulationError` if no register is free — callers must
        stall instead.
        """
        src_phys = [(ref.is_fp, self.lookup(ref)) for ref in srcs]
        dest_phys = None
        prev_phys = None
        if dest is not None:
            regfile = self._file(dest.is_fp)
            if not regfile.free:
                raise SimulationError("rename called with empty free list")
            prev_phys = (dest.is_fp, regfile.map[dest.index])
            new_phys = regfile.free.popleft()
            regfile.is_free[new_phys] = False
            regfile.map[dest.index] = new_phys
            dest_phys = (dest.is_fp, new_phys)
        return src_phys, dest_phys, prev_phys

    def release(self, phys: Optional[tuple]) -> None:
        """Return a physical register to the free list (at commit)."""
        if phys is None:
            return
        is_fp, index = phys
        regfile = self._file(is_fp)
        if regfile.is_free[index]:
            raise SimulationError(f"double free of physical register {index}")
        regfile.is_free[index] = True
        regfile.free.append(index)
