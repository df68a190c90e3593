"""What only the ablation benchmarks run: the ASPaS sort and the CSC form.

Neither is on the partitioner's run path, and no configuration reaches
either; they exist to measure two of the paper's claims against the
product's own kernels.

* **ASPaS** (Section IV-B: "even on a single compute node, PaPar is faster,
  thanks to ASPaS", Hou et al., ICS 2015) — a framework generating SIMD
  sort/merge kernels: data is cut into blocks, each block sorted with
  vector kernels, then blocks are merged.  numpy's kernels play the SIMD
  role here; :func:`aspas_argsort` contributes the blocked sort + pairwise
  merge *structure*, a stable argsort identical to
  ``np.argsort(kind="stable")``.  ``bench_aspas_sort.py`` races it against
  :func:`repro.order.stable_order`, the sort operator's kernel.
* **CSC compression** (Section III-D, "Data Compression") — the packed
  format repeats the group key inside every record; :class:`CSCBlock` stores
  it once per group next to the offsets, and leaves the value columns
  uncompressed ("we do not compress the value array to keep the
  generality").  ``bench_compression_ablation.py`` measures the byte saving
  on the hybrid-cut intermediate (the paper observed up to 13%).

Benchmarks import this module from their own directory; tests load it by
path (``sys.path.insert(0, <repo>/benchmarks)``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, OperatorError
from repro.formats.packed import PackedRecords
from repro.formats.records import RecordSchema

DEFAULT_BLOCK = 1 << 16


# -- ASPaS-style blocked mergesort ----------------------------------------------


def _merge_two(keys: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stable merge of two index runs ordered by ``keys`` (vectorized).

    ``np.searchsorted`` computes, for every element of ``right``, how many
    elements of ``left`` precede it (ties keep ``left`` first — stability),
    which yields both runs' final positions without a Python-level loop.
    """
    right_into_left = np.searchsorted(keys[left], keys[right], side="right")
    out = np.empty(len(left) + len(right), dtype=np.int64)
    right_pos = right_into_left + np.arange(len(right), dtype=np.int64)
    out[right_pos] = right
    mask = np.ones(len(out), dtype=bool)
    mask[right_pos] = False
    out[mask] = left
    return out


def aspas_argsort(keys: np.ndarray, block: int = DEFAULT_BLOCK) -> np.ndarray:
    """Stable blocked mergesort: sort cache-sized blocks, then merge pairwise.

    Equivalent to ``np.argsort(keys, kind="stable")``.
    """
    if block < 2:
        raise OperatorError(f"block size must be >= 2, got {block!r}")
    keys = np.asarray(keys)
    n = len(keys)
    if n <= block:
        return np.argsort(keys, kind="stable")
    # phase 1: sort each block with the vector kernel
    runs = []
    for start in range(0, n, block):
        idx = np.arange(start, min(start + block, n), dtype=np.int64)
        runs.append(idx[np.argsort(keys[idx], kind="stable")])
    # phase 2: balanced pairwise merge tree (adjacent pairs keep stability)
    while len(runs) > 1:
        merged = [_merge_two(keys, runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)]
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]


def aspas_sort(keys: np.ndarray, block: int = DEFAULT_BLOCK) -> np.ndarray:
    """Sorted copy of ``keys`` via :func:`aspas_argsort`."""
    return np.asarray(keys)[aspas_argsort(keys, block=block)]


# -- CSC-compressed packed records ---------------------------------------------


class CSCBlock:
    """CSC-compressed packed records.

    Mirrors the paper's example ``{0, {2, 3, 4, 5}, {4, 4, 4, 4}}``: a start
    pointer (generalized here to the full ``indptr`` offsets array), the
    per-record value columns, and the group keys stored once each.
    """

    def __init__(self, schema: RecordSchema, key_field: str, keys: np.ndarray,
                 indptr: np.ndarray, values: np.ndarray) -> None:
        self.schema = schema
        self.key_field = key_field
        self.keys = keys
        self.indptr = indptr
        #: structured array of non-key columns, uncompressed
        self.values = values
        if len(self.indptr) != len(self.keys) + 1:
            raise FormatError(
                f"indptr must have {len(self.keys) + 1} entries, got {len(self.indptr)}"
            )
        if len(self.values) != (self.indptr[-1] if len(self.indptr) else 0):
            raise FormatError("values length does not match indptr[-1]")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")

    @property
    def num_groups(self) -> int:
        return len(self.keys)

    @property
    def num_records(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """Wire size of the compressed representation."""
        return self.keys.nbytes + self.indptr.nbytes + self.values.nbytes

    def to_packed(self) -> PackedRecords:
        """Decompress back to the packed format (lossless round trip)."""
        records = np.empty(len(self.values), dtype=self.schema.dtype)
        records[self.key_field] = np.repeat(self.keys, np.diff(self.indptr))
        for name in self.values.dtype.names:
            records[name] = self.values[name]
        return PackedRecords(
            schema=self.schema, key_field=self.key_field,
            records=records, indptr=self.indptr,
        )


def to_csc(packed: PackedRecords) -> CSCBlock:
    """Compress: store each group key once, keep the value columns verbatim."""
    names = [n for n in packed.schema.field_names if n != packed.key_field]
    values = np.empty(len(packed.records), dtype=[(n, packed.records.dtype[n]) for n in names])
    for name in names:
        values[name] = packed.records[name]
    return CSCBlock(schema=packed.schema, key_field=packed.key_field,
                    keys=packed.keys, indptr=packed.indptr, values=values)


def compression_ratio(packed: PackedRecords) -> float:
    """Fraction of bytes saved by CSC compression: ``1 - csc/packed``."""
    base = packed.nbytes
    if base == 0:
        return 0.0
    return 1.0 - to_csc(packed).nbytes / base
