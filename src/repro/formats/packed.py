"""Packed record format (paper Section III-D).

The ``pack`` format operator turns a reducer's grouped output into *packed
entries*: all records sharing a group key stored as one entry.  In memory
that is a CSR layout — one structured array holding the records in group
order plus an offsets array, so every operator over packed data is a fixed
number of numpy calls whatever the group count.

The packed layout is redundant — the group key (and any per-group add-on
attribute, such as the in-degree) repeats inside every record of the group.
The paper's "Data Compression" optimization stores the key once per group
in a CSC layout; that form is measured by the compression ablation
(``benchmarks/_ablations.py``) and is not on the run path.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import FormatError
from repro.formats.records import RecordSchema
from repro.order import stable_order


class PackedRecords:
    """Grouped records in the (uncompressed) packed format, held as CSR.

    ``records`` holds the *full* records (each still carrying the redundant
    key field) with every group contiguous; group ``g`` is
    ``records[indptr[g]:indptr[g + 1]]``.  Groups are never empty: a group's
    key is read from its first record.
    """

    def __init__(self, schema: RecordSchema, key_field: str, records: np.ndarray,
                 indptr: np.ndarray) -> None:
        if not schema.has_field(key_field):
            raise FormatError(f"key field {key_field!r} not in schema {schema.id!r}")
        self.schema = schema
        self.key_field = key_field
        self.records = records
        self.indptr = indptr = np.asarray(indptr, dtype=np.int64)
        if (
            indptr.ndim != 1
            or not len(indptr)
            or indptr[0] != 0
            or indptr[-1] != len(self.records)
            or np.any(self.counts <= 0)
        ):
            raise FormatError(
                f"indptr must rise strictly from 0 to the record count ({len(self.records)})"
            )
        keys = self.keys
        wrong = np.flatnonzero(self.records[self.key_field] != np.repeat(keys, self.counts))
        if len(wrong):
            group = int(np.searchsorted(indptr, wrong[0], side="right")) - 1
            raise FormatError(
                f"packed group {keys[group]!r} contains records with a different key"
            )

    def column(self, name: str) -> np.ndarray:
        """Field ``name`` of each group's first record (uniform for the key
        and for add-on attributes)."""
        return self.records[name][self.indptr[:-1]]

    @property
    def keys(self) -> np.ndarray:
        """One key per group, in group order."""
        return self.column(self.key_field)

    @property
    def counts(self) -> np.ndarray:
        """Records per group."""
        return np.diff(self.indptr)

    @property
    def groups(self) -> list[tuple[Any, np.ndarray]]:
        """``(key, rows)`` per group, rows as views — for tests and debugging."""
        bounds = self.indptr.tolist()
        return [
            (key, self.records[lo:hi])
            for key, lo, hi in zip(self.keys, bounds, bounds[1:])
        ]

    @property
    def num_groups(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def nbytes(self) -> int:
        """Wire size of the packed representation (full records, keys repeated)."""
        return self.records.nbytes

    def unpack(self) -> np.ndarray:
        """Back to a flat record array (the ``unpack`` format operator)."""
        return self.records

    def take(self, indices: np.ndarray) -> "PackedRecords":
        """The groups at ``indices``, in that order (a range-gather)."""
        indices = np.asarray(indices, dtype=np.int64)
        counts = self.counts[indices]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        # record i of the output sits (i - its group's new start) past its
        # group's old start
        gather = np.repeat(self.indptr[:-1][indices] - indptr[:-1], counts)
        gather += np.arange(indptr[-1])
        return PackedRecords(
            schema=self.schema, key_field=self.key_field,
            records=self.records[gather], indptr=indptr,
        )


def pack(records: np.ndarray, schema: RecordSchema, key_field: str) -> PackedRecords:
    """The ``pack`` format operator: group a record array by ``key_field``.

    Groups appear in ascending key order (the deterministic order reducers
    produce after a keyed shuffle); records keep their input order inside a
    group.
    """
    if records.dtype != schema.dtype:
        raise FormatError(
            f"records dtype {records.dtype} does not match schema {schema.id!r}"
        )
    if not schema.has_field(key_field):
        raise FormatError(f"key field {key_field!r} not in schema {schema.id!r}")
    ordered = records[stable_order(records[key_field])]
    _, starts = np.unique(ordered[key_field], return_index=True)
    return PackedRecords(
        schema=schema, key_field=key_field, records=ordered,
        indptr=np.concatenate((starts, [len(ordered)])),
    )


def unpack(packed: PackedRecords) -> np.ndarray:
    """The ``unpack`` format operator (module-level convenience)."""
    return packed.unpack()
