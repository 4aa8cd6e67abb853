"""Hybrid branch predictor of Table 1.

2K-entry gshare + 2K-entry bimodal, arbitrated by a 1K-entry selector of
2-bit counters, plus a 2048-entry 4-way BTB for targets. All tables use
standard 2-bit saturating counters. Direction prediction is what matters
to the pipeline (a taken branch without a BTB hit is also a redirect); we
count both direction and target mispredictions.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import BranchPredictorConfig

__all__ = ["SaturatingCounter", "BranchTargetBuffer", "HybridBranchPredictor"]


class SaturatingCounter:
    """A classic 2-bit saturating counter."""

    __slots__ = ("value",)

    WEAK_NOT_TAKEN = 1
    WEAK_TAKEN = 2

    def __init__(self, value: int = WEAK_NOT_TAKEN) -> None:
        if not 0 <= value <= 3:
            raise ValueError("2-bit counter value out of range")
        self.value = value

    @property
    def taken(self) -> bool:
        return self.value >= 2

    def update(self, outcome: bool) -> None:
        if outcome:
            self.value = min(3, self.value + 1)
        else:
            self.value = max(0, self.value - 1)


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement."""

    def __init__(self, entries: int, associativity: int) -> None:
        self.num_sets = entries // associativity
        self.associativity = associativity
        # Each set: list of (tag, target), most recently used last.
        self._sets: List[List[tuple]] = [[] for __ in range(self.num_sets)]

    def _index_tag(self, pc: int) -> tuple:
        word = pc >> 2
        return word % self.num_sets, word // self.num_sets

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for ``pc`` or None on a BTB miss."""
        index, tag = self._index_tag(pc)
        ways = self._sets[index]
        for i, (entry_tag, target) in enumerate(ways):
            if entry_tag == tag:
                ways.append(ways.pop(i))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target of a taken branch."""
        index, tag = self._index_tag(pc)
        ways = self._sets[index]
        for i, (entry_tag, __) in enumerate(ways):
            if entry_tag == tag:
                ways.pop(i)
                break
        ways.append((tag, target))
        if len(ways) > self.associativity:
            ways.pop(0)

    def state_snapshot(self) -> List[List[list]]:
        """JSON-friendly copy of the tag/target/LRU state."""
        return [[[tag, target] for tag, target in ways] for ways in self._sets]

    def restore_state(self, snapshot: List[List[list]]) -> None:
        """Restore from :meth:`state_snapshot`."""
        self._sets = [
            [(int(tag), int(target)) for tag, target in ways] for ways in snapshot
        ]


class HybridBranchPredictor:
    """Gshare/bimodal hybrid with a per-branch selector.

    The selector counter is trained towards the component that was
    correct (and left alone when both agree in correctness), the standard
    McFarling tournament update rule.
    """

    def __init__(self, config: BranchPredictorConfig) -> None:
        config.validate()
        self.config = config
        self._gshare = [SaturatingCounter() for __ in range(config.gshare_entries)]
        self._bimodal = [SaturatingCounter() for __ in range(config.bimodal_entries)]
        # Selector: >=2 means "use gshare".
        self._selector = [SaturatingCounter(2) for __ in range(config.selector_entries)]
        self._history = 0
        self._history_mask = (1 << config.history_bits) - 1
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_associativity)
        self.predictions = 0
        self.direction_mispredictions = 0
        self.target_mispredictions = 0

    def _indices(self, pc: int) -> tuple:
        word = pc >> 2
        gshare_idx = (word ^ self._history) % self.config.gshare_entries
        bimodal_idx = word % self.config.bimodal_entries
        selector_idx = word % self.config.selector_entries
        return gshare_idx, bimodal_idx, selector_idx

    def predict(self, pc: int) -> tuple:
        """Return (direction, target-or-None) without updating state."""
        gshare_idx, bimodal_idx, selector_idx = self._indices(pc)
        use_gshare = self._selector[selector_idx].taken
        direction = (
            self._gshare[gshare_idx].taken if use_gshare else self._bimodal[bimodal_idx].taken
        )
        target = self.btb.lookup(pc) if direction else None
        return direction, target

    def update(self, pc: int, taken: bool, target: Optional[int]) -> None:
        """Train all tables with the resolved outcome."""
        gshare_idx, bimodal_idx, selector_idx = self._indices(pc)
        gshare_correct = self._gshare[gshare_idx].taken == taken
        bimodal_correct = self._bimodal[bimodal_idx].taken == taken
        if gshare_correct != bimodal_correct:
            self._selector[selector_idx].update(gshare_correct)
        self._gshare[gshare_idx].update(taken)
        self._bimodal[bimodal_idx].update(taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        if taken and target is not None:
            self.btb.update(pc, target)

    def predict_and_update(self, pc: int, taken: bool, target: Optional[int]) -> bool:
        """One-shot predict+train; returns True if prediction was correct.

        A branch is considered mispredicted if the direction is wrong, or
        if it is taken and the BTB had no (or the wrong) target — both
        force a front-end redirect.
        """
        direction, predicted_target = self.predict(pc)
        self.predictions += 1
        correct = direction == taken
        if not correct:
            self.direction_mispredictions += 1
        elif taken and predicted_target != target:
            self.target_mispredictions += 1
            correct = False
        self.update(pc, taken, target)
        return correct

    def state_snapshot(self) -> dict:
        """JSON-friendly copy of every prediction-relevant table.

        Captures the gshare/bimodal/selector counters, the global
        history register and the BTB contents — everything a later
        prediction depends on — but *not* the accuracy counters, so
        restoring warmed state into a fresh predictor leaves its
        statistics at zero (the sampled-simulation contract).
        """
        return {
            "gshare": [c.value for c in self._gshare],
            "bimodal": [c.value for c in self._bimodal],
            "selector": [c.value for c in self._selector],
            "history": self._history,
            "btb": self.btb.state_snapshot(),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Restore tables from :meth:`state_snapshot` (counters untouched)."""
        self._gshare = [SaturatingCounter(int(v)) for v in snapshot["gshare"]]
        self._bimodal = [SaturatingCounter(int(v)) for v in snapshot["bimodal"]]
        self._selector = [SaturatingCounter(int(v)) for v in snapshot["selector"]]
        self._history = int(snapshot["history"])
        self.btb.restore_state(snapshot["btb"])

    @property
    def mispredictions(self) -> int:
        return self.direction_mispredictions + self.target_mispredictions

    @property
    def accuracy(self) -> float:
        if self.predictions == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions
