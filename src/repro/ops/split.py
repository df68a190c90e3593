"""The Split basic operator (Table I).

``Split(inputPath, outputPathList, inputFormat, outputFormat, key, policy,
addOn)`` — route each entry to one of several outputs according to a
:class:`~repro.policies.split_policy.SplitPolicy` evaluated on a key field.
The hybrid-cut workflow splits packed groups by the ``indegree`` attribute
into a high-degree output (``unpack`` format) and a low-degree output
(``orig``, i.e. stays packed) — Figure 11 steps 4-5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import OperatorError
from repro.ops.base import BasicOperator, get_format, register_basic

if TYPE_CHECKING:  # pragma: no cover - the kernel and the planner import these where they run
    from repro.core.dataset import Dataset
    from repro.policies.split_policy import SplitPolicy


@register_basic
class Split(BasicOperator):
    """Split a dataset into ``policy.num_outputs`` datasets by key ranges."""

    name = "Split"

    def __init__(
        self,
        key: str,
        policy: SplitPolicy,
        output_formats: Sequence[str] = (),
    ) -> None:
        if not key:
            raise OperatorError("Split requires a key field")
        self.key = key
        self.policy = policy
        if output_formats and len(output_formats) != policy.num_outputs:
            raise OperatorError(
                f"{policy.num_outputs} split outputs but {len(output_formats)} formats"
            )
        self.output_formats = [
            get_format(f) for f in (output_formats or ["orig"] * policy.num_outputs)
        ]

    def apply_local(self, data: Dataset) -> list[Dataset]:
        """Route local entries; returns one dataset per output path."""
        import numpy as np

        if not data.schema.has_field(self.key):
            raise OperatorError(
                f"Split key {self.key!r} not in schema {data.schema.id!r}"
            )
        keys = data.column(self.key)
        routes = self.policy.route(keys)
        outputs = []
        for i, fmt in enumerate(self.output_formats):
            selected = data.take(np.flatnonzero(routes == i))
            outputs.append(fmt.apply(selected, key_field=self.key))
        return outputs
