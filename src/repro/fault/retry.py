"""Bounded retries with exponential backoff and deterministic jitter.

Backoff is priced, not slept: the run's fault report carries the total as
``backoff_s`` and a cluster model adds it to the simulated time as one line
item, exactly like a real re-submission delay would — without sleeping any
wall-clock time.  The one exception is the process backend's gang-restart
(``execute_with_recovery(wall_clock=True)``), where workers really died and
the same delays are slept for real.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import FaultToleranceError


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run a failed execution, and how long to wait."""

    #: total attempts, including the first (1 = no retries)
    max_attempts: int = 5
    #: seconds of backoff after the first failure
    base_delay_s: float = 0.1
    #: backoff ceiling (seconds)
    max_delay_s: float = 30.0
    #: exponential growth factor per failed attempt
    backoff_factor: float = 2.0
    #: jitter amplitude as a fraction of the raw delay (0 = none)
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultToleranceError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise FaultToleranceError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise FaultToleranceError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not (0.0 <= self.jitter <= 1.0):
            raise FaultToleranceError(f"jitter must be in [0, 1], got {self.jitter!r}")

    def should_retry(self, attempt: int) -> bool:
        """True when attempt number ``attempt`` (1-based) may be followed."""
        return attempt < self.max_attempts

    def delay_s(self, attempt: int, seed: int = 0) -> float:
        """Backoff seconds after failed attempt ``attempt`` (1-based).

        Deterministic for a given ``(policy, attempt, seed)``: the jitter
        draw is keyed, not sampled from global state.
        """
        raw = min(
            self.base_delay_s * self.backoff_factor ** (attempt - 1), self.max_delay_s
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        u = random.Random(f"papar-backoff:{seed}:{attempt}").random()
        return raw * (1.0 + self.jitter * u)


__all__ = ["RetryPolicy"]
