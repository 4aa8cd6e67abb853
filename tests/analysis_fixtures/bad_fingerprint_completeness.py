# repro-fixture-module: repro.common.bad_fixture
"""Known-bad fixture for the fingerprint-completeness rule: an unstable
``set`` field annotation, a fingerprinted class that is not a dataclass,
one that is a dataclass but not frozen, and a ``List`` field that could
change under a cached fingerprint."""

from dataclasses import dataclass, field
from typing import List


class _Fingerprinted:
    """Stand-in for the config mixin that marks a class as a cache key."""


@dataclass(frozen=True)
class BadConfig(_Fingerprinted):
    size: int = 64
    flags: set = field(default_factory=set)
    sizes: List[int] = field(default_factory=list)


class AlsoBadConfig(_Fingerprinted):
    def __init__(self, size: int) -> None:
        self.size = size


@dataclass
class ThawedConfig(_Fingerprinted):
    size: int = 64
