"""The in-memory dataset the operators transform.

A :class:`Dataset` couples a :class:`~repro.formats.records.RecordSchema`
with its records in one of the two layouts the paper's format operators move
between: *flat* (a numpy structured array, the ``orig`` format) or *packed*
(grouped records, :class:`~repro.formats.packed.PackedRecords`).  The paper
requires in-memory datasets explicitly: "the framework also needs to support
the in-memory data partitioning, because the intermediate data may need
repartitioning and redistribution at runtime."

:class:`SortedView` is the flat dataset a plain ``Sort`` returns: the
unsorted records plus their stable order as narrow row ids, gathered only
when someone reads them — or never, when the consumer is a deal
that gathers each partition's share itself (:meth:`Dataset.select`).  The
records may be a read-only mapping of the input file: a sort then reads
only its key column, and each partition's records are fetched from the
file once, by row id.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

import numpy as np

from repro.errors import FormatError
from repro.formats.records import RecordSchema

if TYPE_CHECKING:  # pragma: no cover - loaded by whoever packs (to_packed)
    from repro.formats.packed import PackedRecords


class Dataset:
    """Records plus their schema, in flat or packed layout."""

    def __init__(self, schema: RecordSchema, records: Optional[np.ndarray] = None,
                 packed: Optional[PackedRecords] = None) -> None:
        self.schema = schema
        self.records = records
        self.packed = packed
        if (self.records is None) == (self.packed is None):
            raise FormatError("Dataset needs exactly one of records / packed")
        if self.records is not None and self.records.dtype != self.schema.dtype:
            raise FormatError(
                f"records dtype {self.records.dtype} != schema {self.schema.id!r} dtype"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: RecordSchema, rows: Sequence[Sequence[Any]]) -> "Dataset":
        """Build a flat dataset from row tuples."""
        return cls(schema=schema, records=schema.to_structured(rows))

    @classmethod
    def from_array(cls, schema: RecordSchema, records: np.ndarray) -> "Dataset":
        """Wrap an existing structured array."""
        return cls(schema=schema, records=records)

    @classmethod
    def from_packed(cls, packed: PackedRecords) -> "Dataset":
        """Wrap packed records."""
        return cls(schema=packed.schema, packed=packed)

    # -- introspection ----------------------------------------------------------

    @property
    def is_packed(self) -> bool:
        return self.packed is not None

    def __len__(self) -> int:
        """Number of *entries*: records when flat, groups when packed."""
        if self.packed is not None:
            return self.packed.num_groups
        return len(self.records)

    @property
    def num_records(self) -> int:
        """Underlying record count regardless of layout."""
        if self.packed is not None:
            return self.packed.num_records
        return len(self)

    @property
    def nbytes(self) -> int:
        if self.packed is not None:
            return self.packed.nbytes
        return len(self) * self.schema.itemsize

    def column(self, name: str) -> np.ndarray:
        """A field column; for packed data, one value per group (taken from
        the group's first record — uniform for key and add-on fields)."""
        if self.packed is not None:
            return self.packed.column(name)
        return self.records[name]

    # -- layout changes -----------------------------------------------------------

    def to_flat(self) -> "Dataset":
        """The ``unpack`` view of this dataset (no-op when already flat)."""
        if self.packed is None:
            return self
        return Dataset(schema=self.schema, records=self.packed.unpack())

    def to_packed(self, key_field: str) -> "Dataset":
        """The ``pack`` view of this dataset grouped by ``key_field``."""
        if self.packed is not None:
            if self.packed.key_field != key_field:
                raise FormatError(
                    f"dataset already packed by {self.packed.key_field!r}, not {key_field!r}"
                )
            return self
        from repro.formats.packed import pack

        return Dataset(schema=self.schema, packed=pack(self.records, self.schema, key_field))

    def take(self, indices: Union[np.ndarray, Sequence[int]]) -> "Dataset":
        """Entry selection: records when flat, groups when packed."""
        if self.packed is not None:
            return Dataset(schema=self.schema, packed=self.packed.take(indices))
        return Dataset(schema=self.schema, records=self.records[np.asarray(indices)])

    def select(self, where: Union[slice, np.ndarray]) -> "Dataset":
        """The entries at the positions ``where``, copied out.

        One piece of a deal (:func:`~repro.ops.distribute.deal_into`):
        ``where`` is the strided (cyclic) or contiguous (block) slice the
        policy's rule assigns a partition, or the index array a
        permutation-defined policy does.
        """
        if self.packed is not None:
            if isinstance(where, slice):
                where = np.arange(*where.indices(len(self)))
            return self.take(where)
        return Dataset(schema=self.schema, records=self.records[where].copy())

    def indexed_rows(self) -> Optional[tuple[np.ndarray, Optional[np.ndarray]]]:
        """``(rows, ids)``: entry ``i`` is ``rows[ids[i]]`` (``rows[i]`` when
        ``ids`` is ``None``) — how a narrow sort reads a source whose rows
        can be fetched by index.  ``None`` for packed groups."""
        if self.packed is not None:
            return None
        return self.records, None

    def rows(self) -> list[tuple]:
        """Flat records as plain tuples (test/debug convenience)."""
        return [tuple(r) for r in self.to_flat().records]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        layout = f"packed[{self.packed.num_groups} groups]" if self.is_packed else "flat"
        return f"Dataset({self.schema.id!r}, {self.num_records} records, {layout})"


def row_id_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every row id below ``n``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


class SortedView(Dataset):
    """A flat dataset in sorted order whose records are not gathered yet.

    Holds ``(source, order)``: the sorted records are ``source[order]``,
    ``order`` being row ids into ``source`` (a sort of this view composes
    its order into them — :meth:`indexed_rows`).
    :meth:`select` gathers a slice or an index array of them straight from
    the pair — a deal, which only ever asks for ``select(where)``, never
    builds the sorted copy.  Any other read goes through :attr:`records`,
    which gathers once and drops the pair, so from then on (and to every caller
    that does not know about the pair) this is a plain sorted dataset;
    pickling — a checkpoint, the fabric codec — writes it as one.
    """

    def __init__(self, schema: RecordSchema, source: np.ndarray, order: np.ndarray) -> None:
        self.schema = schema
        self.packed = None
        self._pending: Optional[tuple[np.ndarray, np.ndarray]] = (source, order)
        self._records: Optional[np.ndarray] = None
        self._len = len(order)

    @property
    def records(self) -> np.ndarray:
        """The sorted records (the first read gathers them)."""
        pending = self._pending
        if pending is not None:
            source, order = pending
            # published before the pair is dropped: a rank thread that still
            # sees the pair gathers the same array again, never reads None
            self._records = source[order]
            self._pending = None
        return self._records

    def __len__(self) -> int:
        return self._len

    def to_flat(self) -> Dataset:
        return Dataset(schema=self.schema, records=self.records)

    def select(self, where: Union[slice, np.ndarray]) -> Dataset:
        pending = self._pending
        if pending is None:
            return super().select(where)
        source, order = pending
        return Dataset(schema=self.schema, records=source[order[where]])

    def indexed_rows(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        pending = self._pending
        return pending if pending is not None else (self._records, None)

    def __reduce__(self) -> tuple:
        return Dataset, (self.schema, self.records)


def resident(source: Any) -> Any:
    """``source`` as in-memory data: a file-backed source or an out-of-core
    view is materialized; in-memory datasets and lists of split outputs
    pass through."""
    materialize = getattr(source, "materialize", None)
    return source if materialize is None else materialize()


def concat(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenate flat datasets sharing one schema."""
    if not datasets:
        raise FormatError("cannot concatenate zero datasets")
    schemas = {ds.schema.id for ds in datasets}
    if len(schemas) > 1:
        raise FormatError(f"cannot concatenate mixed schemas {sorted(schemas)}")
    flats = [ds.to_flat().records for ds in datasets]
    return Dataset(schema=datasets[0].schema, records=np.concatenate(flats))
