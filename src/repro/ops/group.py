"""The Group basic operator (Table I).

``Group(inputPath, outputPath, inputFormat, outputFormat, key, addOn)`` —
group entries by a key field.  The hybrid-cut workflow groups edges by the
in-vertex ``vertex_b``, lets the ``count`` add-on append the ``indegree``
attribute, and packs the output (Figure 11 steps 1-3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import OperatorError
from repro.ops.base import AddOnOperator, BasicOperator, register_basic

if TYPE_CHECKING:  # pragma: no cover - the kernel imports it where it runs
    from repro.core.dataset import Dataset


@register_basic
class Group(BasicOperator):
    """Group a dataset by one key field, optionally applying add-ons."""

    name = "Group"

    def __init__(
        self,
        key: str,
        addons: Sequence[tuple[AddOnOperator, str, Optional[str]]] = (),
        output_format: str = "pack",
    ) -> None:
        if not key:
            raise OperatorError("Group requires a key field")
        if output_format not in ("pack", "orig"):
            raise OperatorError(
                f"Group output format must be 'pack' or 'orig', got {output_format!r}"
            )
        self.key = key
        #: each add-on is (operator instance, attr name, aggregated field or None)
        self.addons = list(addons)
        self.output_format = output_format

    def apply_local(self, data: Dataset) -> Dataset:
        """Group this rank's local entries and apply the add-ons."""
        from repro.core.dataset import Dataset

        if not data.schema.has_field(self.key):
            raise OperatorError(
                f"Group key {self.key!r} not in schema {data.schema.id!r}"
            )
        packed = data.to_packed(self.key).packed
        for addon, attr, fieldname in self.addons:
            packed = addon.apply(packed, attr, fieldname)
        out = Dataset.from_packed(packed)
        if self.output_format == "orig" and not data.is_packed:
            out = out.to_flat()
        return out
