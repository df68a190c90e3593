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

The code that deals is one loop, :func:`deal_into`: each window of a
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

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Union

from repro.errors import OperatorError
from repro.ops.base import BasicOperator, register_basic
from repro.policies.distr import DistributionPolicy, get_policy

if TYPE_CHECKING:  # pragma: no cover - the kernels import these where they run
    import numpy as np

    from repro.core.dataset import Dataset
    from repro.core.perf import PerfCounters


def deal_into(
    op: Distribute,
    stream: Any,
    sink: Callable[[int, int, Dataset], None],
    base: np.ndarray,
    offset: int = 0,
    total: Optional[int] = None,
    window: Optional[int] = None,
    perf: Optional[PerfCounters] = None,
) -> None:
    """Deal one stream's entries into ``sink(partition, slot, piece)``.

    The stream holds global positions ``[offset, offset + len(stream))`` of
    ``total``; a piece for slot ``s`` of partition ``p`` goes to slot
    ``base[p] + s`` — ``base`` being what the earlier streams put there,
    advanced past this stream on return — ``window`` positions at a time
    (all at once when ``None``).  A stream is made resident only when it
    cannot stream or its policy is permutation-defined: the base class
    states that one's pieces for the whole stream, in one window.
    """
    from repro.core.dataset import resident

    policy, num_p = op.policy, op.num_partitions
    positional = policy.deals_by_position
    # the base class's rule, whatever positional form a subclass inherits
    pieces = policy.pieces if positional else partial(DistributionPolicy.pieces, policy)
    window = window if positional else None
    streams = positional and hasattr(stream, "chunks")
    stream = stream if streams else resident(stream)
    total = len(stream) if total is None else total
    g0 = offset
    for source, w0, m in _windows(stream, streams, window):
        for p, slot, where in pieces(total, num_p, g0, m):
            # a slice is window-relative; an index array's window is the stream
            if isinstance(where, slice):
                start, stop, stride = where.indices(m)
                where = slice(w0 + start, w0 + stop, stride)
            piece = source.select(where)
            if perf is not None:
                perf.count_move(len(piece), piece.nbytes)
            sink(p, int(base[p]) + slot, piece)
        g0 += m
    base += policy.counts(total, num_p)


def _windows(stream: Any, streams: bool, window: Optional[int]) -> Iterator[tuple[Any, int, int]]:
    """``(source, first, length)`` of each window of ``stream`` in position
    order: the window is ``source``'s entries ``[first, first + length)`` —
    a chunk's (consecutive chunks joined up to ``window``), or the resident
    stream's, ``window`` at a time (all at once when ``None``)."""
    from repro.core.dataset import Dataset

    if streams:
        for records in _joined(stream.chunks(), window):
            yield Dataset(schema=stream.schema, records=records), 0, len(records)
        return
    n = len(stream)
    step = max(1, n if window is None else window)
    for w0 in range(0, n, step):
        yield stream, w0, min(step, n - w0)


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

    def apply_local(self, data: Any) -> list[Dataset]:
        """Distribute local entries; returns ``num_partitions`` flat datasets.

        ``data`` is one stream or a list of them; a stream is a dataset or
        anything flat that yields its records through ``chunks()`` (an
        out-of-core input view, a spilled sort's sorted runs), which is
        dealt as it streams.  A piece that is a whole partition — every
        piece of a resident stream, packed or flat — becomes it with no
        further copy; a streamed one's pieces are copied into partitions
        allocated from the policy's counts, so at most one window of input
        is held beyond the output.
        """
        import numpy as np

        from repro.core.dataset import Dataset, concat

        streams = list(data) if isinstance(data, (list, tuple)) else [data]
        if not streams:
            raise OperatorError("Distribute received no input streams")
        per_stream = []
        for stream in streams:
            counts = self.policy.counts(len(stream), self.num_partitions)
            parts = [np.empty(0, dtype=stream.schema.dtype)] * self.num_partitions

            def put(p: int, slot: int, piece: Dataset) -> None:
                if len(piece) == counts[p]:
                    parts[p] = piece.to_flat().records
                    return
                if len(parts[p]) != counts[p]:
                    parts[p] = np.empty(counts[p], dtype=piece.records.dtype)
                parts[p][slot : slot + len(piece)] = piece.records

            deal_into(self, stream, put, np.zeros(self.num_partitions, dtype=np.int64))
            per_stream.append([Dataset(schema=stream.schema, records=r) for r in parts])
        if len(per_stream) == 1:
            return per_stream[0]
        return [concat(chunks) for chunks in zip(*per_stream)]
