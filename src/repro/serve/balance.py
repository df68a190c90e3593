"""Balance monitoring: decide when the daemon should repartition online.

Watches two signals after every append, either of which can cross the
``--rebalance-threshold``:

* **skew** — ``(max - min) / mean`` of the per-partition record counts.
  Catches load imbalance from hash/range routing over a shifting key
  distribution.
* **drift** — the fraction of the log the current generation has *not*
  been rebuilt over.  Catches the cases count-skew cannot: cyclic dealing
  keeps counts perfectly level while the incrementally-routed tail diverges
  ever further from the exact cold-batch placement, and mixed-schema tail
  chunks accumulate until a rebuild folds them in.

The monitor is pure decision logic — the server owns scheduling the
background rebuild and the atomic swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.serve.state import ServeState

#: default --rebalance-threshold (both skew and drift are ratios in [0, ~])
DEFAULT_THRESHOLD = 0.5


@dataclass
class BalanceDecision:
    """Why (or why not) a rebalance should run now."""

    #: ``"skew"`` or ``"drift"`` when a rebalance is due, else ``None``
    reason: Optional[str]
    skew: float
    drift: float

    @property
    def due(self) -> bool:
        """True when either signal crossed the threshold."""
        return self.reason is not None


class BalanceMonitor:
    """Tracks partition balance and drift against one threshold."""

    def __init__(self, threshold: float = DEFAULT_THRESHOLD) -> None:
        if threshold <= 0:
            raise ValueError(f"rebalance threshold must be > 0, got {threshold!r}")
        self.threshold = threshold

    @staticmethod
    def skew(counts: np.ndarray) -> float:
        """Relative spread ``(max - min) / mean`` of partition counts."""
        counts = counts.tolist()  # a few partitions: Python ints beat numpy calls
        total = sum(counts)
        if total == 0:
            return 0.0
        return (max(counts) - min(counts)) / (total / len(counts))

    def check(self, state: ServeState) -> BalanceDecision:
        """Evaluate both signals against the current state."""
        if state.current is None:
            return BalanceDecision(reason=None, skew=0.0, drift=0.0)
        skew = self.skew(state.current.counts)
        drift = state.drift_fraction
        reason = None
        if skew > self.threshold:
            reason = "skew"
        elif drift > self.threshold:
            reason = "drift"
        return BalanceDecision(reason=reason, skew=skew, drift=drift)


__all__ = ["BalanceDecision", "BalanceMonitor", "DEFAULT_THRESHOLD"]
