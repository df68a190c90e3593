"""Out-of-core execution: memory budgets, run files, external sort, spill.

This package is what the runtimes reach for when a memory budget is set.  A
:class:`~repro.ooc.budget.MemoryBudget` bounds the working set;
:class:`~repro.ooc.chunked.ChunkedDataset` streams inputs in
budget-sized chunks; :mod:`~repro.ooc.extsort` sorts datasets larger
than memory through crc32-framed run files
(:mod:`~repro.ooc.runfile`); and :mod:`~repro.ooc.spill` is the run-file
outbox an SPMD exchange fills instead of in-memory lists when the budget
demands it — the exchanges themselves are the executor's own, one loop
each with or without a budget.

Nothing in the rest of the framework imports this package unless a
``memory_budget`` is actually set — the unbudgeted fast path never pays
for (or even loads) the machinery (tested with a fresh interpreter).

The public names are re-exported lazily (PEP 562): the ``serve`` wire
format shares :mod:`~repro.ooc.runfile`'s frame helpers, and importing that
one module must not load the sorter and the spill machinery behind it.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.ooc.budget": ("MemoryBudget", "MemoryBudgetError", "parse_memory_budget"),
    "repro.ooc.chunked": ("ChunkedDataset", "iter_dataset_chunks"),
    "repro.ooc.extsort": ("ExternalSorter", "external_sort_chunks"),
    "repro.ooc.runfile": (
        "Frame", "RunCorruptionError", "RunFileError", "RunReader", "RunWriter",
        "SpillManifest", "read_run",
    ),
    "repro.ooc.spill": ("OOCContext", "SpillableShuffle", "SpillStats"),
})
