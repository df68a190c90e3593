"""The deterministic, seeded fault-injection engine.

One :class:`FaultInjector` drives one :class:`~repro.fault.schedule.FaultSchedule`
through a whole fault-tolerant execution, *including* its retry attempts:
firing caps (``FaultSpec.times``) persist across attempts so a bounded retry
loop always converges, while the per-message random draws are re-keyed per
attempt so a retried run is not doomed to replay the same probabilistic
faults.

Determinism: every decision is a pure function of
``(seed, spec index, attempt, link, per-link message index)``.  Message
order on one link is the sender's program order, so the decision sequence
does not depend on thread scheduling.

Hook points (all no-ops when the runtime has no injector):

* :meth:`on_deliver` — called by :meth:`repro.mpi.fabric.Fabric.deliver`
  for every message; returns the list of copies to deposit (possibly
  empty for a drop, two for a duplicate) with payload/checksum corrupted
  as scheduled, and tallies the seconds of every fired delay
  (:attr:`delayed_s`, priced as a line item of the run).
* :meth:`check_crash` — called by the runtimes at each job boundary;
  raises :class:`~repro.errors.InjectedFault` when a crash is due.

A straggler needs no hook: the driver prices its rank's compute at the
schedule's :attr:`~repro.fault.schedule.FaultSchedule.slowdowns`.
"""

from __future__ import annotations

import itertools
import random
import threading
import zlib
from dataclasses import replace as _dc_replace
from typing import Any

from repro.errors import InjectedFault
from repro.fault.schedule import FaultSchedule, FaultSpec


def _payload_bytes(payload: Any) -> bytes:
    """Raw bytes of a message payload (pickled bytes or numpy buffer)."""
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    tobytes = getattr(payload, "tobytes", None)
    if tobytes is not None:
        return tobytes()
    return repr(payload).encode()


def checksum_of(payload: Any) -> int:
    """The transport checksum the fabric verifies on receive."""
    return zlib.crc32(_payload_bytes(payload))


class FaultInjector:
    """Fires a :class:`FaultSchedule` deterministically from a seed."""

    def __init__(self, schedule: FaultSchedule, seed: int = 0) -> None:
        self.schedule = schedule
        self.seed = seed
        self._lock = threading.Lock()
        #: spec index -> number of firings so far (across all attempts)
        self._fired: dict[int, int] = {}
        #: (src, dst) -> messages seen on the link this attempt
        self._link_counts: dict[tuple[int, int], int] = {}
        #: transport-level sequence numbers (for duplicate suppression)
        self._seq = itertools.count(1)
        self.attempt = 0
        #: kind -> total firings (plus ``duplicates_suppressed`` from the fabric)
        self.counts: dict[str, int] = {}
        #: human-readable log of fired faults, in firing order
        self.fired_log: list[str] = []
        #: seconds of every delay fired so far (across all attempts)
        self.delayed_s = 0.0

    # -- bookkeeping ---------------------------------------------------------

    def begin_attempt(self) -> int:
        """Start a new execution attempt; resets the per-link draw streams."""
        with self._lock:
            self.attempt += 1
            self._link_counts.clear()
            return self.attempt

    def _exhausted(self, index: int, spec: FaultSpec) -> bool:
        return spec.times > 0 and self._fired.get(index, 0) >= spec.times

    def _fire(self, index: int, spec: FaultSpec, detail: str) -> None:
        self._fired[index] = self._fired.get(index, 0) + 1
        self.counts[spec.kind] = self.counts.get(spec.kind, 0) + 1
        self.fired_log.append(f"attempt {self.attempt}: {spec.kind} {detail}")

    def _roll(self, index: int, src: int, dst: int, count: int) -> float:
        """Deterministic uniform draw for one (spec, link, message) decision."""
        key = f"papar-fault:{self.seed}:{index}:{self.attempt}:{src}:{dst}:{count}"
        return random.Random(key).random()

    def count_suppressed_duplicate(self) -> None:
        """The fabric's dedup layer dropped a duplicated copy."""
        with self._lock:
            self.counts["duplicates_suppressed"] = (
                self.counts.get("duplicates_suppressed", 0) + 1
            )

    def summary(self) -> dict[str, Any]:
        """Counters plus the firing log, for ``PartitionResult.extra['fault']``."""
        with self._lock:
            return {
                "seed": self.seed,
                "attempts": self.attempt,
                "counts": dict(self.counts),
                "fired": list(self.fired_log),
                "delayed_s": self.delayed_s,
            }

    # -- fabric hook: message faults -------------------------------------------

    def on_deliver(self, src: int, dst: int, msg: Any) -> list[Any]:
        """Decide the fate of one message; returns the copies to deposit.

        ``msg`` is a :class:`repro.mpi.fabric.Message`; the injector assigns
        its transport sequence number and may drop it, duplicate it, delay
        it (tallied in :attr:`delayed_s`), or corrupt its payload (recording
        the honest checksum so the receiver detects the damage).
        """
        with self._lock:
            count = self._link_counts.get((src, dst), 0)
            self._link_counts[(src, dst)] = count + 1
            msg.seq = next(self._seq)
            deliveries = [msg]
            for index, spec in self.schedule.message_specs:
                if not spec.matches_link(src, dst):
                    continue
                if self._exhausted(index, spec):
                    continue
                if self._roll(index, src, dst, count) >= spec.probability:
                    continue
                detail = f"link {src}->{dst} tag {msg.tag} (message #{count})"
                if spec.kind == "drop":
                    self._fire(index, spec, detail)
                    return []
                if spec.kind == "duplicate":
                    self._fire(index, spec, detail)
                    deliveries.append(_dc_replace(msg))
                elif spec.kind == "delay":
                    self._fire(index, spec, f"{detail} +{spec.delay_s}s")
                    self.delayed_s += spec.delay_s
                elif spec.kind == "corrupt":
                    self._fire(index, spec, detail)
                    self._corrupt(msg)
            return deliveries

    @staticmethod
    def _corrupt(msg: Any) -> None:
        """Damage the payload; keep the honest checksum so receive detects it."""
        msg.checksum = checksum_of(msg.payload)
        if isinstance(msg.payload, (bytes, bytearray)) and len(msg.payload) > 0:
            damaged = bytearray(msg.payload)
            damaged[len(damaged) // 2] ^= 0xFF
            msg.payload = bytes(damaged)
        else:
            # numpy buffers: poison the checksum instead of flipping raw
            # bytes (structured dtypes don't always reinterpret cleanly)
            msg.checksum ^= 0xA5A5A5A5

    # -- runtime hook: rank crashes ---------------------------------------------

    def check_crash(self, rank: int, job_index: int, when: str) -> None:
        """Raise :class:`InjectedFault` if a crash is scheduled here."""
        with self._lock:
            for index, spec in self.schedule.crash_specs:
                if spec.rank is not None and spec.rank != rank:
                    continue
                if (spec.job if spec.job is not None else 0) != job_index:
                    continue
                if spec.when != when:
                    continue
                if self._exhausted(index, spec):
                    continue
                detail = f"rank {rank} {when} job {job_index}"
                self._fire(index, spec, detail)
                raise InjectedFault(f"injected crash: {detail}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(seed={self.seed}, attempt={self.attempt}, "
            f"specs={len(self.schedule)}, fired={sum(self._fired.values())})"
        )


__all__ = ["FaultInjector", "checksum_of"]
