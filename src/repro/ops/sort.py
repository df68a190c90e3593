"""The Sort basic operator (Table I).

``Sort(inputPath, outputPath, inputFormat, outputFormat, key, flag, addOn)``
— sort entries by a key field.  The muBLASTP workflow sorts the index by
``seq_size`` ascending (Figures 1, 8, 9).

The sort is *stable*, which matters for bit-exact reproduction of Figure 9:
two sequences with equal ``seq_size`` keep their input order, which decides
which partition each lands on under the subsequent cyclic distribution.

The order comes from :func:`repro.order.stable_order`:
integer keys whose range and index fit one 64-bit word together are sorted
packed, by numpy's vectorized sort; floats, strings and wider ranges fall
back to numpy's stable ``argsort`` — the result is the same either way.

The sort is also *lazy* and *narrow*: on flat records with no add-on,
``apply_local`` reads only the key column of a source whose rows can be
fetched by index (``indexed_rows``: an in-memory dataset, a read-only
mapping of a fixed-width input file, another sort's view) and returns a
:class:`~repro.core.dataset.SortedView` — the unsorted rows and their order
as row ids of the narrowest unsigned dtype.  A sort of a sort's view
composes the row ids and moves no record.  ``Distribute`` under a built-in
policy (and the SPMD deal) gathers each partition straight from that pair;
anything else that reads the result — ``.records``, ``column``, ``take``,
``to_flat``, pickling, the partition writer when the sort ends the plan —
gathers the sorted copy once and the view is a plain dataset from then on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import OperatorError
from repro.ops.base import AddOnOperator, BasicOperator, register_basic

if TYPE_CHECKING:  # pragma: no cover - the kernels import these where they run
    import numpy as np

    from repro.core.dataset import Dataset

#: Table I flag values ("-1: ascending, 1: descending")
ASCENDING = -1
DESCENDING = 1


@register_basic
class Sort(BasicOperator):
    """Sort a dataset by one key field."""

    name = "Sort"

    def __init__(
        self,
        key: str,
        ascending: bool = True,
        addon: Optional[AddOnOperator] = None,
        addon_attr: Optional[str] = None,
        addon_field: Optional[str] = None,
    ) -> None:
        if not key:
            raise OperatorError("Sort requires a key field")
        self.key = key
        self.ascending = ascending
        self.addon = addon
        self.addon_attr = addon_attr
        self.addon_field = addon_field

    def sort_indices(self, keys: np.ndarray) -> np.ndarray:
        """Stable order of entries by key (descending keeps ties stable too)."""
        from repro.order import sort_key_array, stable_order

        return stable_order(sort_key_array(keys, self.ascending))

    def apply_local(self, data: Dataset) -> Dataset:
        """Sort this rank's local entries (records, or packed groups)."""
        from repro.core.dataset import Dataset, SortedView

        if not data.schema.has_field(self.key) and not self._is_packed_key(data):
            raise OperatorError(
                f"Sort key {self.key!r} not in schema {data.schema.id!r}"
            )
        indexed = getattr(data, "indexed_rows", None)
        indexed = indexed() if indexed is not None and self.addon is None else None
        if indexed is not None:
            rows, ids = indexed
            return SortedView(data.schema, rows, self.order_rows(rows, ids))
        order = self.sort_indices(data.column(self.key))
        out = data.take(order)
        if self.addon is not None:
            packed = out.to_packed(self.key).packed
            out = Dataset.from_packed(
                self.addon.apply(packed, self.addon_attr, self.addon_field)
            )
        return out

    def order_rows(self, rows: np.ndarray, ids: Optional[np.ndarray]) -> np.ndarray:
        """Row ids of ``rows`` in this sort's order, for the entries
        ``rows[ids]`` (``rows`` itself when ``ids`` is ``None``).

        Reads the key column only — through a mapping, only its pages.
        """
        from repro.core.dataset import row_id_dtype
        from repro.order import packed_row_ids, packs_rows

        column = rows[self.key]
        id_dtype = row_id_dtype(len(rows))
        if packs_rows(column.dtype, id_dtype):
            return packed_row_ids(column, ids, not self.ascending, id_dtype)
        order = self.sort_indices(column if ids is None else column[ids])
        if ids is not None:
            order = ids[order]
        return order.astype(id_dtype, copy=False)

    def narrow_bytes(self, n: int, rows: np.ndarray, composed: bool) -> int:
        """What :meth:`order_rows` holds at its peak for ``n`` entries of
        ``rows``, plus the ``n`` row ids it composes into when ``composed``
        — the figure a memory budget weighs the narrow sort at.

        Packed: one 8-byte word per entry, and a chunk of int64 keys, index
        column and gathered keys.  Otherwise the sort key's copy, numpy's
        int64 order, one more int64 pass of it (the packed index column, or
        the merge buffer and the cast) and the row ids.
        ``tests/core/test_narrow_sort.py`` pins both against ``tracemalloc``.
        """
        from repro.core.dataset import row_id_dtype
        from repro.order import ROW_STEP, packs_rows, sort_key_dtype

        field = rows.dtype[self.key]
        id_dtype = row_id_dtype(len(rows))
        held = n * id_dtype.itemsize if composed else 0
        if packs_rows(field, id_dtype):
            return n * 8 + min(n, ROW_STEP) * 24 + held
        key_bytes = sort_key_dtype(field, self.ascending).itemsize
        return n * (key_bytes + 16 + id_dtype.itemsize) + held

    def _is_packed_key(self, data: Dataset) -> bool:
        return data.is_packed and data.packed.key_field == self.key
