"""The per-rank memory budget of the out-of-core subsystem.

A :class:`MemoryBudget` is a hard byte ceiling on the working set one
simulated rank may hold while streaming a dataset: chunk sizes, spill
buffer flush points and merge fan-ins are all derived from it.  The
budget string grammar (``"64MB"``, ``"512KiB"``, ``"1048576"``) follows
the block-size-as-a-tunable design of Cantini et al. — the chunk size is
an explicit knob, not a compile-time constant.

The budget sizes the working set; it does not meter it.  That the sizing
holds is measured from outside, by ``benchmarks/bench_ooc_extsort.py``,
which asserts the external sort's ``tracemalloc`` peak stays under the
ceiling times a small constant for transient numpy copies.
"""

from __future__ import annotations

import re
from typing import Union

from repro.errors import PaParError


class MemoryBudgetError(PaParError):
    """An invalid memory-budget specification."""


#: recognised unit suffixes, case-insensitive; decimal and IEC spellings
#: both mean the binary (1024-based) quantity, matching how operators size
#: buffers in practice
_UNITS = {
    "": 1,
    "b": 1,
    "k": 1 << 10,
    "kb": 1 << 10,
    "kib": 1 << 10,
    "m": 1 << 20,
    "mb": 1 << 20,
    "mib": 1 << 20,
    "g": 1 << 30,
    "gb": 1 << 30,
    "gib": 1 << 30,
}

_BUDGET_RE = re.compile(r"^\s*(?P<number>\d+(?:\.\d+)?)\s*(?P<unit>[a-zA-Z]*)\s*$")


def parse_memory_budget(spec: Union[str, int, float]) -> int:
    """Parse a budget spec (``"64MB"``, ``"512KiB"``, ``65536``) into bytes."""
    if isinstance(spec, bool):
        raise MemoryBudgetError(f"memory budget must be a size, got {spec!r}")
    if isinstance(spec, (int, float)):
        nbytes = int(spec)
        if nbytes <= 0:
            raise MemoryBudgetError(f"memory budget must be positive, got {spec!r}")
        return nbytes
    m = _BUDGET_RE.match(str(spec))
    if m is None:
        raise MemoryBudgetError(
            f"cannot parse memory budget {spec!r}; expected e.g. '64MB', '512KiB', '1048576'"
        )
    unit = m.group("unit").lower()
    if unit not in _UNITS:
        raise MemoryBudgetError(
            f"unknown memory-budget unit {m.group('unit')!r} in {spec!r}; "
            f"use one of {sorted(u for u in _UNITS if u)}"
        )
    nbytes = int(float(m.group("number")) * _UNITS[unit])
    if nbytes <= 0:
        raise MemoryBudgetError(f"memory budget must be positive, got {spec!r}")
    return nbytes


def format_budget(nbytes: int) -> str:
    """Render a byte count in the budget grammar (``65536 -> '64KB'``)."""
    for unit, scale in (("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10)):
        if nbytes % scale == 0 and nbytes >= scale:
            return f"{nbytes // scale}{unit}"
    return str(nbytes)


class MemoryBudget:
    """A hard per-rank byte ceiling and the chunk size derived from it.

    ``chunk_bytes`` — the streaming granularity — defaults to a quarter of
    the limit so an input chunk, its bucketized slices and an output frame
    can coexist under the ceiling.
    """

    def __init__(self, limit: Union[int, str], chunk_fraction: float = 0.25) -> None:
        self.limit = int(parse_memory_budget(limit) if isinstance(limit, str) else limit)
        #: fraction of the limit one streamed chunk may occupy
        self.chunk_fraction = chunk_fraction
        if self.limit <= 0:
            raise MemoryBudgetError(f"memory budget must be positive, got {self.limit}")
        if not 0 < self.chunk_fraction <= 1:
            raise MemoryBudgetError(
                f"chunk_fraction must be in (0, 1], got {self.chunk_fraction}"
            )

    @classmethod
    def coerce(cls, value: Union["MemoryBudget", str, int, None]) -> "MemoryBudget | None":
        """Normalize a user-facing budget value (spec string, bytes, or None)."""
        if value is None or isinstance(value, MemoryBudget):
            return value
        return cls(parse_memory_budget(value))

    @property
    def chunk_bytes(self) -> int:
        """Bytes one streamed chunk may occupy (at least one record's worth)."""
        return max(1, int(self.limit * self.chunk_fraction))

    def chunk_records(self, itemsize: int) -> int:
        """Records per streamed chunk for ``itemsize``-byte records (>= 1)."""
        if itemsize <= 0:
            raise MemoryBudgetError(f"itemsize must be positive, got {itemsize}")
        return max(1, self.chunk_bytes // itemsize)

    def exceeds(self, nbytes: int) -> bool:
        """Whether holding ``nbytes`` at once would break the ceiling."""
        return nbytes > self.limit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemoryBudget({format_budget(self.limit)})"
