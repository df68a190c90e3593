"""Add-on operators: count, max, min, mean, sum (Table I).

Each computes one aggregate per key group and appends it as a new attribute
on every record of the group — e.g. the hybrid-cut workflow's
``<addon operator="count" key="vertex_b" attr="indegree"/>`` turns each edge
``(vertex_a, vertex_b)`` into ``(vertex_a, vertex_b, indegree)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ops.base import AddOnOperator, register_addon


def _segment_reduce(
    ufunc: np.ufunc, records: np.ndarray, indptr: np.ndarray, field: Optional[str]
) -> np.ndarray:
    """``ufunc`` reduced over each group's ``field`` values (groups are non-empty)."""
    column = records[field]
    if column.dtype.kind == "i" and ufunc is np.add:
        column = column.astype(np.int64)  # as ndarray.sum() accumulates, so no wrap
    return ufunc.reduceat(column, indptr[:-1])


@register_addon
class Count(AddOnOperator):
    """Number of elements with the specific key."""

    name = "count"
    attr_type = "long"
    needs_field = False

    def compute_groups(self, records, indptr, field):
        return np.diff(indptr)


@register_addon
class Max(AddOnOperator):
    """Maximum of the specific value field within the group."""

    name = "max"
    attr_type = "double"

    def compute_groups(self, records, indptr, field):
        return _segment_reduce(np.maximum, records, indptr, field)


@register_addon
class Min(AddOnOperator):
    """Minimum of the specific value field within the group."""

    name = "min"
    attr_type = "double"

    def compute_groups(self, records, indptr, field):
        return _segment_reduce(np.minimum, records, indptr, field)


@register_addon
class Mean(AddOnOperator):
    """Average of the specific value field within the group."""

    name = "mean"
    attr_type = "double"

    def compute_groups(self, records, indptr, field):
        sums = _segment_reduce(np.add, records, indptr, field)
        # float32 sums divide in float32, as ndarray.mean() does; the rest in float64
        return sums / np.diff(indptr).astype(np.result_type(sums.dtype, np.float32))


@register_addon
class Sum(AddOnOperator):
    """Sum of the specific value field within the group."""

    name = "sum"
    attr_type = "double"

    def compute_groups(self, records, indptr, field):
        return _segment_reduce(np.add, records, indptr, field)
