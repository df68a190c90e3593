"""Packed record format and CSR/CSC compression (paper Section III-D).

The ``pack`` format operator turns a reducer's grouped output into *packed
entries*: all records sharing a group key stored as one entry.  In memory
that is a CSR layout — one structured array holding the records in group
order plus an offsets array, so every operator over packed data is a fixed
number of numpy calls whatever the group count.

The packed layout is redundant — the group key (and any per-group add-on
attribute, such as the in-degree) repeats inside every record of the group.
The paper's "Data Compression" optimization stores the redundant key column
in a Compressed Sparse Column (CSC) layout instead: one key per group plus
the offsets array, while the *value array is deliberately left
uncompressed* ("the value array may include different values ... we do not
compress the value array to keep the generality").

``PackedRecords`` is the uncompressed packed format; ``CSCBlock`` is its
key-compressed wire form.  Both round-trip losslessly, and both report
``nbytes`` so the communication saving can be measured (the paper observed
up to 13% on its graph datasets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import FormatError
from repro.formats.records import RecordSchema
from repro.order import stable_order


def _schema_without(schema: RecordSchema, field: str) -> np.dtype:
    """Structured dtype of a record with ``field`` removed."""
    return np.dtype([(f.name, f.numpy_dtype) for f in schema.fields if f.name != field])


@dataclass
class PackedRecords:
    """Grouped records in the (uncompressed) packed format, held as CSR.

    ``records`` holds the *full* records (each still carrying the redundant
    key field) with every group contiguous; group ``g`` is
    ``records[indptr[g]:indptr[g + 1]]``.  Groups are never empty: a group's
    key is read from its first record.
    """

    schema: RecordSchema
    key_field: str
    records: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        if not self.schema.has_field(self.key_field):
            raise FormatError(
                f"key field {self.key_field!r} not in schema {self.schema.id!r}"
            )
        self.indptr = indptr = np.asarray(self.indptr, dtype=np.int64)
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

    def to_csc(self) -> "CSCBlock":
        """Compress: store each group key once, keep value columns verbatim."""
        values = np.empty(len(self.records), dtype=_schema_without(self.schema, self.key_field))
        for name in values.dtype.names:
            values[name] = self.records[name]
        return CSCBlock(
            schema=self.schema, key_field=self.key_field,
            keys=self.keys, indptr=self.indptr, values=values,
        )


@dataclass
class CSCBlock:
    """CSC-compressed packed records.

    Mirrors the paper's example ``{0, {2, 3, 4, 5}, {4, 4, 4, 4}}``: a start
    pointer (generalized here to the full ``indptr`` offsets array), the
    per-record value columns, and the group keys stored once each.
    """

    schema: RecordSchema
    key_field: str
    keys: np.ndarray
    indptr: np.ndarray
    values: np.ndarray  # structured array of non-key columns, uncompressed

    def __post_init__(self) -> None:
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


def compression_ratio(packed: PackedRecords) -> float:
    """Fraction of bytes saved by CSC compression: ``1 - csc/packed``."""
    base = packed.nbytes
    if base == 0:
        return 0.0
    return 1.0 - packed.to_csc().nbytes / base
