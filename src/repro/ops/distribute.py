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
chunk by chunk without ever being resident.  Packed streams and
permutation-defined policies keep the permutation path, which reads (and so
materializes) a lazy sort result.

Either path applies the permutation in its O(n) index form.  The literal 0/1
matrix of Section III-B, built from each policy's definition and multiplied
into the entry-index vector, lives in the test oracle
(``tests/integration/_oracle.py``), which checks this operator against it.

:func:`deal_pieces` is that positional deal as a stream of pieces — each a
partition, its first slot, its first global position and the entries to put
there — for any window of a stream's positions: what this operator
assembles partitions from, what the runtimes write into the part files in
place, and what the SPMD executor ships to the partitions' owners.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.errors import OperatorError
from repro.ops.base import BasicOperator, register_basic
from repro.policies.distr import DistributionPolicy, get_policy

if TYPE_CHECKING:  # pragma: no cover - the kernels import these where they run
    import numpy as np

    from repro.core.dataset import Dataset


def deal_pieces(
    stream: Any,
    policy: DistributionPolicy,
    total: int,
    num_partitions: int,
    offset: int = 0,
    window: Optional[int] = None,
) -> Iterator[tuple[int, int, int, Dataset]]:
    """Deal a stream's entries by position: ``(partition, first slot, first
    global position, entries)`` pieces, in position order.

    The stream holds the global positions ``[offset, offset + len(stream))``
    of a stream of ``total`` entries.  One that streams (``chunks()``) is
    dealt a chunk at a time — consecutive chunks joined up to ``window``
    records, when given, so that small merge frames do not each cost a
    piece per partition; a dataset is dealt ``window`` positions at a time
    (all at once when ``None``), each piece gathered by one
    :meth:`~repro.core.dataset.Dataset.select` — from a sort's row ids
    when the dataset is a lazy sort result, as groups when it is packed.
    """
    from repro.core.dataset import Dataset

    if hasattr(stream, "chunks"):
        g0 = offset
        for records in _joined(stream.chunks(), window):
            m = len(records)
            for p, slot, where in policy.pieces(total, num_partitions, g0, m):
                piece = Dataset(schema=stream.schema, records=records[where])
                yield p, slot, g0 + where.indices(m)[0], piece
            g0 += m
        return
    n = len(stream)
    step = max(1, n if window is None else window)
    for w0 in range(0, n, step):
        m = min(step, n - w0)
        for p, slot, where in policy.pieces(total, num_partitions, offset + w0, m):
            start, stop, stride = where.indices(m)
            first = w0 + start
            yield p, slot, offset + first, stream.select(slice(first, w0 + stop, stride))


def _joined(chunks: Iterator[Any], window: Optional[int]) -> Iterator[np.ndarray]:
    """The chunks' records, consecutive chunks joined up to ``window``."""
    import numpy as np

    held: list[np.ndarray] = []
    count = 0
    for chunk in chunks:
        held.append(chunk.records)
        count += len(chunk.records)
        if window is None or count >= window:
            yield np.concatenate(held) if len(held) > 1 else held[0]
            held, count = [], 0
    if held:
        yield np.concatenate(held) if len(held) > 1 else held[0]


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

    def partition_one(self, data: Any) -> list[Dataset]:
        """Partition one stream; entry = record (flat) or group (packed)."""
        import numpy as np

        from repro.core.dataset import Dataset

        n = len(data)
        # flat records under a policy that states its positional rule are
        # dealt by position; packed streams and permutation-defined policies
        # go through the permutation
        if not data.is_packed and self.policy.deals_by_position:
            if hasattr(data, "chunks"):
                return self._deal_strided(data, n)
            # resident: the one window covers the stream, so every piece is
            # a whole partition and one select (a lazy sort's only gather)
            # builds it
            parts = {
                p: piece.records
                for p, _, _, piece in deal_pieces(data, self.policy, n, self.num_partitions)
            }
            empty = np.empty(0, dtype=data.schema.dtype)
            return [
                Dataset(schema=data.schema, records=parts.get(p, empty))
                for p in range(self.num_partitions)
            ]
        if hasattr(data, "materialize"):
            # the permutation gathers by index: a streamed source turns resident
            data = data.materialize()
        perm = self.policy.permutation(n, self.num_partitions)
        counts = self.policy.counts(n, self.num_partitions)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return [
            data.take(perm[offsets[p] : offsets[p + 1]])
            for p in range(self.num_partitions)
        ]

    def _deal_strided(self, data: Any, n: int) -> list[Dataset]:
        """Deal ``n`` records arriving as consecutive chunks, no permutation.

        A record's target follows from its global position ``g`` alone —
        partition ``g mod P`` at slot ``g // P`` when dealing cyclically, a
        contiguous range per partition under ``block`` — so each chunk is
        copied by a handful of slice assignments into partitions sized up
        front from the policy's counts.
        """
        import numpy as np

        from repro.core.dataset import Dataset

        counts = self.policy.counts(n, self.num_partitions)
        parts = [np.empty(count, dtype=data.schema.dtype) for count in counts]
        for p, slot, _, piece in deal_pieces(data, self.policy, n, self.num_partitions):
            parts[p][slot : slot + len(piece)] = piece.records
        return [Dataset(schema=data.schema, records=part) for part in parts]

    def apply_local(self, data: Any) -> list[Dataset]:
        """Distribute local entries; returns ``num_partitions`` flat datasets.

        ``data`` is one stream or a list of them; a stream is a dataset or
        anything flat that yields its records through ``chunks()`` (an
        out-of-core input view, a spilled sort's sorted runs), which is
        dealt as it streams.
        """
        from repro.core.dataset import concat

        streams = [data] if hasattr(data, "schema") else list(data)
        if not streams:
            raise OperatorError("Distribute received no input streams")
        per_stream = [self.partition_one(s) for s in streams]
        out = []
        for p in range(self.num_partitions):
            chunks = [per_stream[s][p].to_flat() for s in range(len(streams))]
            out.append(concat(chunks) if len(chunks) > 1 else chunks[0])
        return out
