"""The Sort basic operator (Table I).

``Sort(inputPath, outputPath, inputFormat, outputFormat, key, flag, addOn)``
— sort entries by a key field.  The muBLASTP workflow sorts the index by
``seq_size`` ascending (Figures 1, 8, 9).

The sort is *stable*, which matters for bit-exact reproduction of Figure 9:
two sequences with equal ``seq_size`` keep their input order, which decides
which partition each lands on under the subsequent cyclic distribution.

The order comes from :func:`repro.order.stable_order` (re-exported here):
integer keys whose range and index fit one 64-bit word together are sorted
packed, by numpy's vectorized sort; floats, strings and wider ranges fall
back to numpy's stable ``argsort`` — the result is the same either way.

The sort is also *lazy*: on flat records with no add-on, ``apply_local``
returns a :class:`~repro.core.dataset.SortedView` — the unsorted records
and their order.  ``Distribute`` under a built-in policy (and the SPMD
deal) gathers each partition straight from that pair; anything else that
reads the result — ``.records``, ``column``, ``take``, ``to_flat``,
pickling, the partition writer when the sort ends the plan — gathers the
sorted copy once and the view is a plain dataset from then on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.dataset import Dataset, SortedView
from repro.errors import OperatorError
from repro.ops.base import AddOnOperator, BasicOperator, register_basic
from repro.order import stable_order

#: Table I flag values ("-1: ascending, 1: descending")
ASCENDING = -1
DESCENDING = 1


def sort_key_array(column: np.ndarray, ascending: bool) -> np.ndarray:
    """The comparable key a stable ascending argsort orders ``column`` by.

    Descending sorts negate the key instead of reversing the result, which
    keeps ties in input order.  Integer columns are widened to int64 first:
    negating the dtype minimum in place wraps back onto itself (``-2**31``
    stays ``-2**31`` in int32) and would sort it first instead of last.
    Every sort in the repo — the local kernel, the range exchanges, the
    external merge — derives its key here, so they agree bit for bit.
    """
    if ascending:
        return column
    if column.dtype.kind in "iu":
        return -column.astype(np.int64, copy=False)
    return -column


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
        kernel: str = "numpy",
    ) -> None:
        if not key:
            raise OperatorError("Sort requires a key field")
        if kernel not in ("numpy", "aspas"):
            raise OperatorError(f"unknown sort kernel {kernel!r}; use 'numpy' or 'aspas'")
        self.key = key
        self.ascending = ascending
        self.addon = addon
        self.addon_attr = addon_attr
        self.addon_field = addon_field
        #: local sort kernel: the packed kernel with its numpy fallback, or the
        #: ASPaS-style blocked mergesort the paper credits for single-node
        #: speed (results identical)
        self.kernel = kernel

    @classmethod
    def from_flag(cls, key: str, flag: int = ASCENDING, **kwargs) -> "Sort":
        """Table I calling convention: ``flag`` -1 ascending / 1 descending."""
        if flag not in (ASCENDING, DESCENDING):
            raise OperatorError(f"sort flag must be -1 or 1, got {flag!r}")
        return cls(key, ascending=(flag == ASCENDING), **kwargs)

    def sort_indices(self, keys: np.ndarray) -> np.ndarray:
        """Stable order of entries by key (descending keeps ties stable too)."""
        if self.kernel == "aspas":
            from repro.ops.aspas import aspas_argsort as argsort
        else:
            argsort = stable_order
        return argsort(sort_key_array(keys, self.ascending))

    def apply_local(self, data: Dataset) -> Dataset:
        """Sort this rank's local entries (records, or packed groups)."""
        if not data.schema.has_field(self.key) and not self._is_packed_key(data):
            raise OperatorError(
                f"Sort key {self.key!r} not in schema {data.schema.id!r}"
            )
        order = self.sort_indices(data.column(self.key))
        if self.addon is None and not data.is_packed:
            return SortedView(data.schema, data.records, order)
        out = data.take(order)
        if self.addon is not None:
            packed = out.to_packed(self.key).packed
            out = Dataset.from_packed(
                self.addon.apply(packed, self.addon_attr, self.addon_field)
            )
        return out

    def _is_packed_key(self, data: Dataset) -> bool:
        return data.is_packed and data.packed.key_field == self.key
