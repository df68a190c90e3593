"""Static exchange-volume estimation over the plan-IR.

The SPMD runtimes charge every sort/group exchange the *full* payload of
the stream being redistributed (a sample + range shuffle moves each record
to its owner, rank-local records included) and every distribute exchange
the full stream again (the global position permutation).  That makes the
static model simple and honest: per exchange, ``bytes ≈ rows × in-memory
record width``, with rows coming from the real input file when it exists
(via the exact counts of :class:`~repro.ooc.chunked.ChunkedDataset`), from
``--assume-records``, or staying unknown.

This is the cost half of ROADMAP item 2: the numbers ``papar explain``
prints, the threshold PAP084 fires on, and the savings PAP083 reports all
come from here — and they are checked against the ``comm`` bytes a
``--stats`` run actually measures (the 20%-accuracy contract in the
tests).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.dataflow import (
    CardinalityAnalysis,
    CardValue,
    LivenessAnalysis,
    SchemaAnalysis,
    SchemaValue,
    node_column_uses,
    run_dataflow,
)
from repro.analysis.ir import PlanIR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.model import LintContext
    from repro.formats.records import RecordSchema
    from repro.ooc.chunked import ChunkedDataset

#: sample size of the distinct-key probe behind group output estimates
SAMPLE_ROWS = 4096

#: budget of the row-counting reader; counting needs offsets, not memory
_COUNT_BUDGET = 1 << 20


def field_width(type_name: str) -> int:
    """In-memory bytes of one field of config type ``type_name``.

    Text-format string fields have no fixed width; 8 bytes is the pointer-
    sized stand-in the estimates use (and flag as approximate).
    """
    from repro.formats.records import _BINARY_TYPES

    dtype = _BINARY_TYPES.get(type_name)
    return int(dtype.itemsize) if dtype is not None else 8


def record_bytes(schema: "RecordSchema") -> int:
    """In-memory width of one record of ``schema``; unlike
    ``schema.itemsize`` it prices a text schema's string fields too."""
    return sum(field_width(f.type) for f in schema.fields)


def schema_row_bytes(value: SchemaValue) -> Optional[int]:
    """In-memory structured width of one record of an inferred schema."""
    if not value.is_known:
        return None
    return sum(field_width(ftype) for _, ftype in value.fields)


def _probe_input(path: Optional[str], schema: "RecordSchema") -> Optional["ChunkedDataset"]:
    """A counting view of an existing input file, else ``None``.

    Binary files are offset arithmetic; text files cost one streaming pass
    (the same pass :class:`ChunkedDataset` needs anyway for random access),
    so callers that want both the count and a sample share one probe.
    """
    if not path or not os.path.isfile(path):
        return None
    try:
        from repro.ooc.budget import MemoryBudget
        from repro.ooc.chunked import ChunkedDataset

        return ChunkedDataset(path, schema, MemoryBudget(_COUNT_BUDGET))
    except Exception:
        return None


def _group_ratio(probe: Optional["ChunkedDataset"], key: Optional[str]) -> Optional[float]:
    """Distinct-key fraction of ``probe``'s head sample (``None`` if unavailable)."""
    if probe is None or not key or not probe.schema.has_field(key):
        return None
    n = min(SAMPLE_ROWS, probe.num_records)
    if n == 0:
        return None
    try:
        import numpy as np

        return float(len(np.unique(probe.read_rows(0, n)[key])) / n)
    except Exception:
        return None


def estimate_input_rows(path: str, schema: "RecordSchema") -> Optional[int]:
    """Exact record count of an existing input file, else ``None``."""
    probe = _probe_input(path, schema)
    return None if probe is None else int(probe.num_records)


def sample_group_ratio(
    path: str, schema: "RecordSchema", key: Optional[str]
) -> Optional[float]:
    """Distinct-key fraction from a head sample of the real input.

    Drives the group operator's output entry estimate; ``None`` when the
    file or the key is unavailable (the estimate then conservatively keeps
    the input entry count).
    """
    return _group_ratio(_probe_input(path, schema), key)


@dataclass
class ExchangeEstimate:
    """The modeled cost of one exchange stage."""

    #: operator performing the exchange
    op_id: str
    #: "range" (sort/group sample shuffle) or "position" (distribute)
    kind: str
    #: estimated records entering the exchange (None = unknown)
    rows: Optional[float]
    #: estimated payload bytes the shuffle moves (None = unknown)
    est_bytes: Optional[float]
    #: in-memory record width the byte estimate used
    row_bytes: Optional[float]
    #: True when rows came from a real file count rather than an assumption
    measured: bool = False


@dataclass
class PlanCost:
    """All per-exchange estimates plus the liveness-based pruning numbers."""

    exchanges: list[ExchangeEstimate] = field(default_factory=list)
    #: schema fields no operator's key or add-on ever reads
    unused_columns: list[str] = field(default_factory=list)
    #: bytes the exchanges would stop moving if unused columns were pruned
    prunable_bytes: Optional[float] = None

    @property
    def total_bytes(self) -> Optional[float]:
        """Summed payload across exchanges (None while any is unknown)."""
        if not self.exchanges or any(e.est_bytes is None for e in self.exchanges):
            return None
        return sum(e.est_bytes for e in self.exchanges)  # type: ignore[misc]

    def exchange(self, op_id: str) -> Optional[ExchangeEstimate]:
        """The estimate of operator ``op_id``'s exchange, if it has one."""
        for e in self.exchanges:
            if e.op_id == op_id:
                return e
        return None


@dataclass
class AnalyzedPlan:
    """One bundle of the IR plus every fixed-point result over it.

    This is what the PAP08x rules and ``papar explain`` consume: build it
    once per lint pass (see :meth:`LintContext.analyzed`), read it many
    times.
    """

    ir: PlanIR
    #: per-node inferred schema (SchemaAnalysis output values)
    schema_of: dict[str, SchemaValue]
    #: per-node live columns on the *input* side (LivenessAnalysis)
    live_of: dict[str, frozenset]
    #: per-node input cardinality (CardinalityAnalysis input values)
    card_of: dict[str, Optional[CardValue]]
    cost: PlanCost


def _input_file(ctx: "LintContext") -> tuple[Optional[str], Optional["RecordSchema"]]:
    """The workflow's resolved input path and its record schema, if known."""
    schema, arg = ctx.input_schema()
    if ctx.model is None or arg is None:
        return None, schema
    value = ctx.args.get(arg.name, arg.value)
    ir = ctx.ir()
    if ir is not None and value:
        value = ir.env.resolve(value)[0]
    return value, schema


def analyze_plan(ctx: "LintContext") -> Optional[AnalyzedPlan]:
    """Run all three dataflow analyses and the cost model over the IR."""
    ir = ctx.ir()
    if ir is None:
        return None
    input_path, schema = _input_file(ctx)
    input_fields = (
        tuple((f.name, f.type) for f in schema.fields) if schema is not None else None
    )

    schema_res = run_dataflow(ir, SchemaAnalysis(input_fields))
    live_res = run_dataflow(ir, LivenessAnalysis())

    rows: Optional[float] = None
    measured = False
    # one probe (one scan of a text input) serves the count and the sample
    probe = _probe_input(input_path, schema) if schema is not None else None
    if probe is not None:
        rows = float(probe.num_records)
        measured = True
    if rows is None and ctx.assume_records is not None:
        rows = float(ctx.assume_records)

    row_bytes = float(record_bytes(schema)) if schema is not None else None
    group_ratio = None
    addon_bytes: dict[str, float] = {}
    for node in ir.nodes:
        if node.kind != "group":
            continue
        extra = 0.0
        for addon in node.op.addons:
            from repro.analysis.rules.schema_flow import _addon_attr_type

            extra += field_width(_addon_attr_type(addon.operator))
        if extra:
            addon_bytes[node.op_id] = extra
        if group_ratio is None:
            group_ratio = _group_ratio(probe, node.param_value("key", "keyId"))
    card_res = run_dataflow(
        ir,
        CardinalityAnalysis(
            input_rows=rows,
            input_row_bytes=row_bytes,
            group_ratio=group_ratio,
            addon_bytes=addon_bytes,
        ),
    )

    cost = PlanCost()
    for node in ir.exchange_nodes():
        card = card_res.input_of.get(node.op_id)
        inferred = schema_res.input_of.get(node.op_id, SchemaValue())
        width = schema_row_bytes(inferred)
        if width is None and card is not None:
            width = card.row_bytes
        n_rows = card.rows if card is not None else None
        est = None
        if n_rows is not None and width is not None:
            est = n_rows * width
        cost.exchanges.append(
            ExchangeEstimate(
                op_id=node.op_id,
                kind=node.exchange or "",
                rows=n_rows,
                est_bytes=est,
                row_bytes=width,
                measured=measured,
            )
        )

    # liveness-based pruning: input-schema fields nothing ever reads
    if schema is not None:
        used: set[str] = set()
        for node in ir.nodes:
            used |= node_column_uses(node)
        unused = [f.name for f in schema.fields if f.name not in used]
        if unused and len(unused) < len(schema.fields):
            cost.unused_columns = unused
            saved_per_row = sum(field_width(f.type) for f in schema.fields if f.name in unused)
            if rows is not None:
                # only exchanges before the final materialization can shed
                # the columns; the last stage must write whole records
                final = ir.final
                n_early = sum(
                    1
                    for e in cost.exchanges
                    if final is None or e.op_id != final.op_id
                )
                if n_early:
                    cost.prunable_bytes = rows * saved_per_row * n_early

    return AnalyzedPlan(
        ir=ir,
        schema_of=schema_res.output_of,
        # backward analysis: output_of holds live-IN (needed at this stage)
        live_of=live_res.output_of,
        card_of=card_res.input_of,
        cost=cost,
    )
