"""The Distribute basic operator (Table I).

``Distribute(inputPath, outputPath, inputFormat, outputFormat, policy,
numPartitions, addOn)`` — the one operator that does not follow the
key-value concept.  The policy is formalized as a permutation matrix
``L_m^{km}`` generated at runtime from ``policy`` and ``numPartitions``
(Section III-B): the operator's code is fixed, only the matrix changes.

The operator accepts either a single dataset or a list of datasets (the
split outputs of the hybrid-cut workflow); each stream is permuted
independently — Figure 11 generates ``L_3^4`` for the high-degree stream and
``L_3^3`` for the low-degree stream — and partition ``p``'s final output
concatenates every stream's ``p``-th chunk, unpacked ("as the distribute is
the last step in the workflow, all data will be unpacked").

Flat records under a policy that states its positional rule
(:attr:`~repro.policies.distr.DistributionPolicy.deals_by_position` — every
built-in one) are not gathered through the permutation vector but dealt by
position, which applies the same permutation in its index form: a record at
global position ``g`` goes to partition ``g mod P``, slot ``g // P``
(cyclic), or to a contiguous range (block).  The rule is the policy's
:meth:`~repro.policies.distr.DistributionPolicy.pieces`, for any window of
global positions — the whole stream here, a rank's ``[offset, offset + n)``
share in the SPMD executor.  An in-memory dataset is dealt with one
:meth:`~repro.core.dataset.Dataset.select` per partition; when it is a lazy
``Sort`` result (:class:`~repro.core.dataset.SortedView`) that select is
``records[order[p::P]]``, so the sorted copy is never built.  A source that
streams — an out-of-core input view, a spilled sort's sorted runs — is dealt
chunk by chunk without ever being resident.  Packed streams, the
``use_matrix`` ablation and permutation-defined policies keep the permutation
path, which reads (and so materializes) a lazy sort result.
"""

from __future__ import annotations

from typing import Any, Iterable, Union

import numpy as np

from repro.core.dataset import Dataset, concat
from repro.errors import OperatorError
from repro.ops.base import BasicOperator, register_basic
from repro.policies.distr import DistributionPolicy, get_policy
from repro.policies.permutation import (
    apply_permutation_matrix,
    stride_permutation_matrix,
)


@register_basic
class Distribute(BasicOperator):
    """Deal a dataset (or list of split streams) into output partitions."""

    name = "Distribute"

    def __init__(
        self,
        policy: Union[str, DistributionPolicy],
        num_partitions: int,
        use_matrix: bool = False,
    ) -> None:
        if num_partitions < 1:
            raise OperatorError(f"numPartitions must be >= 1, got {num_partitions!r}")
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.num_partitions = num_partitions
        #: apply the literal matrix-vector multiplication instead of the O(n)
        #: index form (ablation switch; results are identical)
        self.use_matrix = use_matrix

    def _permute_entries(self, n: int) -> np.ndarray:
        """Entry order with each partition's entries contiguous."""
        if self.use_matrix and n > 0 and n % self.num_partitions == 0:
            # cyclic dealing into P partitions gathers at stride P, which is
            # the stride permutation L_{n/P}^n in the paper's L_m^{km} notation
            matrix = stride_permutation_matrix(n, n // self.num_partitions)
            return apply_permutation_matrix(matrix, np.arange(n, dtype=np.int64))
        return self.policy.permutation(n, self.num_partitions)

    def partition_one(self, data: Any) -> list[Dataset]:
        """Partition one stream; entry = record (flat) or group (packed)."""
        n = len(data)
        # flat records under a policy that states its positional rule are
        # dealt by position; packed streams, the matrix ablation and
        # permutation-defined policies go through the permutation
        if not self.use_matrix and not data.is_packed and self.policy.deals_by_position:
            if hasattr(data, "chunks"):
                return self._deal_strided(
                    data.schema, (chunk.records for chunk in data.chunks()), n
                )
            # resident: the one window covers the stream, so every piece is
            # a whole partition and one select (a lazy sort's only gather)
            # builds it
            wheres = {
                p: where
                for p, _, where in self.policy.pieces(n, self.num_partitions, 0, n)
            }
            return [
                data.select(wheres.get(p, slice(0, 0)))
                for p in range(self.num_partitions)
            ]
        if hasattr(data, "materialize"):
            # the permutation gathers by index: a streamed source turns resident
            data = data.materialize()
        perm = self._permute_entries(n)
        counts = self.policy.counts(n, self.num_partitions)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return [
            data.take(perm[offsets[p] : offsets[p + 1]])
            for p in range(self.num_partitions)
        ]

    def _deal_strided(
        self, schema: Any, chunks: Iterable[np.ndarray], n: int
    ) -> list[Dataset]:
        """Deal ``n`` records arriving as consecutive chunks, no permutation.

        A record's target follows from its global position ``g`` alone —
        partition ``g mod P`` at slot ``g // P`` when dealing cyclically, a
        contiguous range per partition under ``block`` — so each chunk is
        copied by a handful of slice assignments into partitions sized up
        front from the policy's counts.
        """
        counts = self.policy.counts(n, self.num_partitions)
        parts = [np.empty(count, dtype=schema.dtype) for count in counts]
        g0 = 0
        for records in chunks:
            m = len(records)
            for p, slot, where in self.policy.pieces(n, self.num_partitions, g0, m):
                piece = records[where]
                parts[p][slot : slot + len(piece)] = piece
            g0 += m
        return [Dataset(schema=schema, records=part) for part in parts]

    def apply_local(self, data: Any) -> list[Dataset]:
        """Distribute local entries; returns ``num_partitions`` flat datasets.

        ``data`` is one stream or a list of them; a stream is a dataset or
        anything flat that yields its records through ``chunks()`` (an
        out-of-core input view, a spilled sort's sorted runs), which is
        dealt as it streams.
        """
        streams = [data] if hasattr(data, "schema") else list(data)
        if not streams:
            raise OperatorError("Distribute received no input streams")
        per_stream = [self.partition_one(s) for s in streams]
        out = []
        for p in range(self.num_partitions):
            chunks = [per_stream[s][p].to_flat() for s in range(len(streams))]
            out.append(concat(chunks) if len(chunks) > 1 else chunks[0])
        return out
