"""Out-of-core execution: memory budgets, run files, external sort, spill.

This package is what the runtimes reach for when a memory budget is set.  A
:class:`~repro.ooc.budget.MemoryBudget` bounds the working set;
:class:`~repro.ooc.chunked.ChunkedDataset` streams inputs in
budget-sized chunks; :mod:`~repro.ooc.extsort` sorts datasets larger
than memory through crc32-framed run files
(:mod:`~repro.ooc.runfile`); and :mod:`~repro.ooc.spill` /
:mod:`~repro.ooc.exchange` are the run-file halves of the distributed
exchanges, taken by the SPMD executor when the budget demands it.

Nothing in the rest of the framework imports this package unless a
``memory_budget`` is actually set — the unbudgeted fast path never pays
for (or even loads) the machinery (tested with a fresh interpreter).
"""

from repro.ooc.budget import MemoryBudget, MemoryBudgetError, parse_memory_budget
from repro.ooc.chunked import ChunkedDataset, iter_dataset_chunks
from repro.ooc.extsort import ExternalSorter, external_sort_chunks
from repro.ooc.runfile import (
    Frame,
    RunCorruptionError,
    RunFileError,
    RunReader,
    RunWriter,
    SpillManifest,
    SpillStats,
    read_run,
)
from repro.ooc.spill import OOCContext, SpillableShuffle

__all__ = [
    "ChunkedDataset",
    "ExternalSorter",
    "Frame",
    "MemoryBudget",
    "MemoryBudgetError",
    "OOCContext",
    "RunCorruptionError",
    "RunFileError",
    "RunReader",
    "RunWriter",
    "SpillManifest",
    "SpillStats",
    "SpillableShuffle",
    "external_sort_chunks",
    "iter_dataset_chunks",
    "parse_memory_budget",
    "read_run",
]
