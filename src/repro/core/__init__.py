"""Out-of-order core substrate and the top-level processor model."""

from repro.core.engine import KERNEL_NAIVE, KERNEL_SKIP, KernelTelemetry
from repro.core.functional_units import FunctionalUnit, FuPool
from repro.core.lsq import LoadStoreQueue
from repro.core.processor import Processor
from repro.core.rename import RenameMap
from repro.core.rob import ReorderBuffer
from repro.core.scoreboard import Scoreboard
from repro.core.uop import InFlight

__all__ = [
    "FuPool",
    "FunctionalUnit",
    "InFlight",
    "KERNEL_NAIVE",
    "KERNEL_SKIP",
    "KernelTelemetry",
    "LoadStoreQueue",
    "Processor",
    "RenameMap",
    "ReorderBuffer",
    "Scoreboard",
]
