"""A test-only sink whose state depends on the order chunks arrive in.

Every library sink is mergeable, so none of them can show that a sweep
folds its chunks in scenario order: a merge would hide a reordering.
:class:`OrderRecordingSink` has no ``snapshot`` / ``merge`` — sharded
executors must reject it — and its state is the arrival sequence itself,
so two sweeps agree only if they folded the same chunks in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import IRDropSink


class OrderRecordingSink(IRDropSink):
    """Record each chunk's scenario offset and per-scenario worst drop."""

    def __init__(self) -> None:
        super().__init__()
        self.offsets: list[int] = []
        self._worst: list[np.ndarray] = []

    def _consume_drops(self, drops: np.ndarray, scenario_offset: int) -> None:
        self.offsets.append(scenario_offset)
        self._worst.append(drops.max(axis=1))

    def result(self) -> np.ndarray:
        """Per-scenario worst drop, concatenated in arrival order."""
        self._require_bound()
        return np.concatenate(self._worst) if self._worst else np.empty(0)
