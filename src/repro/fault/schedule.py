"""Declarative fault schedules.

A :class:`FaultSchedule` is an ordered collection of :class:`FaultSpec`
entries.  Each spec names one fault *kind* plus its targeting parameters:

========== ======================================================================
kind        meaning
========== ======================================================================
crash       rank ``rank`` raises :class:`~repro.errors.InjectedFault`
            ``when`` (``before``/``after``) job ``job`` commits
drop        a message on link ``src -> dst`` vanishes (receiver deadlocks
            until the fabric's ``deadlock_grace`` fires a DeadlockError)
duplicate   a message is delivered twice; the transport's sequence-number
            dedup suppresses the second copy
delay       a message arrives ``delay_s`` seconds late (priced time)
corrupt     a message's payload fails its transport checksum on receive
straggler   rank ``rank``'s compute is slowed by ``factor`` (priced time)
========== ======================================================================

``probability`` gates message faults per message (1.0 = the first matching
message), ``times`` caps total firings across all retry attempts (default 1,
``0`` = unlimited) so that bounded retries always converge on a surviving
run.  Specs are parseable from compact CLI strings, e.g.::

    crash:rank=1,job=0,when=after
    drop:src=0,dst=2,p=0.5,times=2
    delay:p=0.1,seconds=0.25
    straggler:rank=3,factor=4
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

from repro.errors import FaultToleranceError

#: fault kinds that act on individual messages in the fabric
MESSAGE_KINDS = ("drop", "duplicate", "delay", "corrupt")
#: all recognised fault kinds
KINDS = ("crash",) + MESSAGE_KINDS + ("straggler",)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject; see the module docstring for the kinds."""

    kind: str
    #: target rank for ``crash``/``straggler`` (``None`` = any rank)
    rank: Optional[int] = None
    #: job index a ``crash`` is anchored to (``None`` = job 0)
    job: Optional[int] = None
    #: ``before`` or ``after`` the job for ``crash`` faults
    when: str = "before"
    #: source rank filter for message faults (``None`` = any)
    src: Optional[int] = None
    #: destination rank filter for message faults (``None`` = any)
    dst: Optional[int] = None
    #: per-message firing probability for message faults
    probability: float = 1.0
    #: priced seconds added by a ``delay`` fault
    delay_s: float = 0.05
    #: compute slowdown multiplier for ``straggler`` faults
    factor: float = 2.0
    #: max firings across the whole run including retries (0 = unlimited)
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultToleranceError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.when not in ("before", "after"):
            raise FaultToleranceError(
                f"crash 'when' must be 'before' or 'after', got {self.when!r}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise FaultToleranceError(
                f"fault probability must be in [0, 1], got {self.probability!r}"
            )
        if self.times < 0:
            raise FaultToleranceError(f"fault times must be >= 0, got {self.times!r}")
        if self.factor <= 0:
            raise FaultToleranceError(f"straggler factor must be > 0, got {self.factor!r}")

    @property
    def is_message_fault(self) -> bool:
        """Whether this fault fires at the fabric (drop/duplicate/delay/corrupt)."""
        return self.kind in MESSAGE_KINDS

    def matches_link(self, src: int, dst: int) -> bool:
        """True when this message fault applies to the ``src -> dst`` link."""
        if not self.is_message_fault:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


_SPEC_FIELD_ALIASES = {
    "p": "probability",
    "prob": "probability",
    "seconds": "delay_s",
    "delay": "delay_s",
}
_INT_FIELDS = {"rank", "job", "src", "dst", "times"}
_FLOAT_FIELDS = {"probability", "delay_s", "factor"}


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one compact spec string, e.g. ``"drop:src=0,dst=1,p=0.5"``."""
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in KINDS:
        raise FaultToleranceError(
            f"unknown fault kind in {text!r}; expected one of {KINDS}"
        )
    fields: dict[str, object] = {}
    if rest.strip():
        for item in rest.split(","):
            if "=" not in item:
                raise FaultToleranceError(
                    f"fault spec field {item!r} in {text!r} must look like name=value"
                )
            name, value = (s.strip() for s in item.split("=", 1))
            name = _SPEC_FIELD_ALIASES.get(name, name)
            if name in _INT_FIELDS:
                fields[name] = int(value)
            elif name in _FLOAT_FIELDS:
                fields[name] = float(value)
            elif name == "when":
                fields[name] = value
            else:
                raise FaultToleranceError(
                    f"unknown fault spec field {name!r} in {text!r}"
                )
    try:
        return FaultSpec(kind=kind, **fields)  # type: ignore[arg-type]
    except TypeError as exc:
        raise FaultToleranceError(f"invalid fault spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of faults to inject into one run."""

    specs: tuple[FaultSpec, ...] = ()

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    @property
    def message_specs(self) -> tuple[tuple[int, FaultSpec], ...]:
        """(index, spec) pairs for the fabric-level message faults."""
        return tuple((i, s) for i, s in enumerate(self.specs) if s.is_message_fault)

    @property
    def crash_specs(self) -> tuple[tuple[int, FaultSpec], ...]:
        """(index, spec) pairs for the rank-crash faults."""
        return tuple((i, s) for i, s in enumerate(self.specs) if s.kind == "crash")

    @property
    def straggler_specs(self) -> tuple[tuple[int, FaultSpec], ...]:
        """(index, spec) pairs for the compute-slowdown faults."""
        return tuple((i, s) for i, s in enumerate(self.specs) if s.kind == "straggler")

    @property
    def slowdowns(self) -> dict[int, float]:
        """Rank -> the product of the factors of its stragglers."""
        factors: dict[int, float] = {}
        for _, spec in self.straggler_specs:
            if spec.rank is not None:
                factors[spec.rank] = factors.get(spec.rank, 1.0) * spec.factor
        return factors

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "FaultSchedule":
        """Build a schedule from CLI-style spec strings."""
        return cls(specs=tuple(parse_fault_spec(t) for t in texts))

    @classmethod
    def coerce(
        cls, value: Union[None, "FaultSchedule", FaultSpec, str, Sequence]
    ) -> Optional["FaultSchedule"]:
        """Accept a schedule, a single spec, spec string(s), or ``None``."""
        if value is None:
            return None
        if isinstance(value, FaultSchedule):
            return value
        if isinstance(value, FaultSpec):
            return cls(specs=(value,))
        if isinstance(value, str):
            return cls.parse([value])
        specs: list[FaultSpec] = []
        for item in value:
            specs.append(item if isinstance(item, FaultSpec) else parse_fault_spec(item))
        return cls(specs=tuple(specs))

    @classmethod
    def random(
        cls,
        seed: int,
        size: int,
        num_jobs: int = 2,
        max_faults: int = 3,
        kinds: Sequence[str] = KINDS,
    ) -> "FaultSchedule":
        """A seeded chaos schedule whose faults are all individually survivable.

        Every generated spec has a finite ``times`` cap, so a run wrapped in a
        :class:`~repro.fault.retry.RetryPolicy` with enough attempts always
        converges on a fault-free execution.
        """
        # string seeds hash deterministically (sha512) across processes,
        # unlike tuple seeds which go through PYTHONHASHSEED-salted hash()
        rng = random.Random(f"papar-chaos:{seed}:{size}:{num_jobs}")
        n = rng.randint(1, max(1, max_faults))
        specs: list[FaultSpec] = []
        for _ in range(n):
            kind = rng.choice(list(kinds))
            if kind == "crash":
                specs.append(
                    FaultSpec(
                        kind="crash",
                        rank=rng.randrange(size),
                        job=rng.randrange(max(1, num_jobs)),
                        when=rng.choice(("before", "after")),
                    )
                )
            elif kind == "straggler":
                specs.append(
                    FaultSpec(
                        kind="straggler",
                        rank=rng.randrange(size),
                        factor=rng.choice((1.5, 2.0, 4.0, 8.0)),
                    )
                )
            else:
                spec = FaultSpec(
                    kind=kind,
                    src=rng.randrange(size) if rng.random() < 0.5 else None,
                    dst=rng.randrange(size) if rng.random() < 0.5 else None,
                    probability=rng.choice((0.25, 0.5, 1.0)),
                    times=rng.randint(1, 2),
                )
                if kind == "delay":
                    spec = replace(spec, delay_s=rng.choice((0.01, 0.1, 1.0)))
                specs.append(spec)
        return cls(specs=tuple(specs))
