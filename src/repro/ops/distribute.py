"""The Distribute basic operator (Table I).

``Distribute(inputPath, outputPath, inputFormat, outputFormat, policy,
numPartitions, addOn)`` — the one operator that does not follow the
key-value concept.  The paper formalizes the policy as a permutation matrix
``L_m^{km}`` generated at runtime from ``policy`` and ``numPartitions``
(Section III-B): the operator's code is fixed, only the permutation changes.

The operator accepts either a single dataset or a list of datasets (the
split outputs of the hybrid-cut workflow); each stream is permuted
independently — Figure 11 generates ``L_3^4`` for the high-degree stream and
``L_3^3`` for the low-degree stream — and partition ``p``'s final output
concatenates every stream's ``p``-th chunk, unpacked ("as the distribute is
the last step in the workflow, all data will be unpacked").  An entry is a
record of a flat stream or a group of a packed one.

The code that deals is one loop, :func:`repro.order.deal_into` (loaded
when a deal runs, so planning a workflow compiles no dealer): each window of a
stream's global positions — the whole stream here, a budget's window or a
rank's share in the executor — is cut into the pieces the policy's
:meth:`~repro.policies.distr.DistributionPolicy.pieces` names, each
gathered by one :meth:`~repro.core.dataset.Dataset.select` (on a lazy
``Sort`` result, ``records[order[where]]``: the sorted copy is never built)
and handed to a sink — this operator's partitions, a part file, or an
owner's outbox.  A source that streams is dealt a window at a time, never
resident.

The literal 0/1 matrix of Section III-B, built from each policy's definition
and multiplied into the entry-index vector, lives in the test oracle
(``tests/integration/_oracle.py``), which checks this operator against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Union

from repro.errors import OperatorError
from repro.ops.base import BasicOperator, register_basic
from repro.policies.distr import DistributionPolicy, get_policy

if TYPE_CHECKING:  # pragma: no cover - the kernel imports it where it runs
    from repro.core.dataset import Dataset


@register_basic
class Distribute(BasicOperator):
    """Deal a dataset (or list of split streams) into output partitions."""

    name = "Distribute"

    def __init__(
        self,
        policy: Union[str, DistributionPolicy],
        num_partitions: int,
    ) -> None:
        if num_partitions < 1:
            raise OperatorError(f"numPartitions must be >= 1, got {num_partitions!r}")
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.num_partitions = num_partitions

    def apply_local(self, data: Any) -> list[Dataset]:
        """Distribute local entries; returns ``num_partitions`` flat datasets.

        ``data`` is one stream or a list of them; a stream is a dataset or
        anything flat that yields its records through ``chunks()`` (an
        out-of-core input view, a spilled sort's sorted runs), which is
        dealt as it streams.  A piece that is a whole partition gathered
        into a buffer of its own (packed groups, an index array's entries)
        becomes it with no further copy; any other piece is a view of its
        window or of the resident stream, copied once into a partition
        allocated from the policy's counts, so at most one window of input
        is held beyond the output.
        """
        import numpy as np

        from repro.core.dataset import Dataset, concat
        from repro.order import deal_into

        streams = list(data) if isinstance(data, (list, tuple)) else [data]
        if not streams:
            raise OperatorError("Distribute received no input streams")
        per_stream = []
        for stream in streams:
            counts = self.policy.counts(len(stream), self.num_partitions)
            parts = [np.empty(0, dtype=stream.schema.dtype)] * self.num_partitions

            def put(p: int, slot: int, piece: Dataset) -> None:
                records = piece.to_flat().records
                # a gather (packed groups, an index array's) owns its buffer
                if len(piece) == counts[p] and (piece.is_packed or records.base is None):
                    parts[p] = records
                    return
                if len(parts[p]) != counts[p]:
                    parts[p] = np.empty(counts[p], dtype=records.dtype)
                parts[p][slot : slot + len(piece)] = records

            deal_into(self, stream, put, np.zeros(self.num_partitions, dtype=np.int64),
                      copy=False)
            per_stream.append([Dataset(schema=stream.schema, records=r) for r in parts])
        if len(per_stream) == 1:
            return per_stream[0]
        return [concat(chunks) for chunks in zip(*per_stream)]
