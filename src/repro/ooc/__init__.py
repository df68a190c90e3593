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

The public names are re-exported lazily (PEP 562): the ``serve`` wire
format shares :mod:`~repro.ooc.runfile`'s frame helpers, and importing that
one module must not load the sorter and the spill machinery behind it.
"""

from __future__ import annotations

_LAZY = {
    "MemoryBudget": "repro.ooc.budget",
    "MemoryBudgetError": "repro.ooc.budget",
    "parse_memory_budget": "repro.ooc.budget",
    "ChunkedDataset": "repro.ooc.chunked",
    "iter_dataset_chunks": "repro.ooc.chunked",
    "ExternalSorter": "repro.ooc.extsort",
    "external_sort_chunks": "repro.ooc.extsort",
    "Frame": "repro.ooc.runfile",
    "RunCorruptionError": "repro.ooc.runfile",
    "RunFileError": "repro.ooc.runfile",
    "RunReader": "repro.ooc.runfile",
    "RunWriter": "repro.ooc.runfile",
    "SpillManifest": "repro.ooc.runfile",
    "SpillStats": "repro.ooc.runfile",
    "read_run": "repro.ooc.runfile",
    "OOCContext": "repro.ooc.spill",
    "SpillableShuffle": "repro.ooc.spill",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
