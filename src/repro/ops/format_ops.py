"""Format operators: orig, pack, unpack (Table I).

Format operators change the layout only — they never reorder entries or
add/delete attributes.  ``orig`` keeps whatever layout the data is in,
``pack`` groups records by a key field, ``unpack`` flattens packed groups
back to records (Figure 11 steps 3 and 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import OperatorError
from repro.ops.base import FormatOperator, register_format

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dataset import Dataset


@register_format
class Orig(FormatOperator):
    """(default) Output data with the input format."""

    name = "orig"

    def apply(self, data: Dataset, key_field: Optional[str] = None) -> Dataset:
        return data


@register_format
class Pack(FormatOperator):
    """Output data with the packed format (grouped by ``key_field``)."""

    name = "pack"

    def apply(self, data: Dataset, key_field: Optional[str] = None) -> Dataset:
        if data.is_packed:
            return data
        if key_field is None:
            raise OperatorError("pack requires a key field")
        return data.to_packed(key_field)


@register_format
class Unpack(FormatOperator):
    """Output data with the unpacked (flat) format."""

    name = "unpack"

    def apply(self, data: Dataset, key_field: Optional[str] = None) -> Dataset:
        return data.to_flat()
