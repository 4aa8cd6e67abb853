# repro-fixture-module: repro.common.bad_fixture
"""Known-bad fixture for the fingerprint-completeness rule: a typo'd
``_FINGERPRINT_EXCLUDE`` entry (the silent ``dict.pop`` hazard), an
unstable ``set`` field annotation, a fingerprinted class that is not a
dataclass, one that is a dataclass but not frozen, and a ``List`` field
that could change under a cached fingerprint."""

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class BadConfig:
    size: int = 64
    flags: set = field(default_factory=set)
    sizes: List[int] = field(default_factory=list)

    _FINGERPRINT_EXCLUDE = ("siez",)  # typo: field is 'size'


class AlsoBadConfig:
    _FINGERPRINT_EXCLUDE = ("kernel",)

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel


@dataclass
class ThawedConfig:
    kernel: str = "skip"

    _FINGERPRINT_EXCLUDE = ("kernel",)
