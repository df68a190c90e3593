"""The physical plan: :func:`physical_plan` maps every planned job to its
:class:`Physical` choice (the exchange, what a memory budget spills, the
final deal's tail) before the first job runs.  The runtimes dispatch on it,
``lint`` and ``explain`` read it; ``plan`` never loads this module.
"""

from __future__ import annotations

from typing import Optional

from repro.core.planner import PlannedJob, WorkflowPlan
from repro.errors import Record
from repro.formats.records import RecordSchema
from repro.ops.base import is_basic
from repro.ops.distribute import Distribute
from repro.ops.sort import Sort


class Physical(Record):
    """How one planned job runs (:func:`physical_plan`)."""

    #: what crosses the fabric: ``"none"`` (serial, a split, a deal written
    #: in place), ``"cut"`` (each rank cuts its own range of the input: no
    #: record moves) or ``"records"``
    exchange: str = "none"
    #: what the job holds its entries as, so what a memory budget spills:
    #: ``"narrow"`` (sort key + row id) or ``"records"`` (a packed stream
    #: stays in memory); ``None`` for a job that never spills
    spill: Optional[str] = None
    #: the final deal's tail: ``"in place"`` or ``"gathered"``
    tail: Optional[str] = None
    #: why the deal is gathered: ``"in-memory run"``, ``"text output"``,
    #: ``"packed stream"`` or ``"added attributes"``
    reason: Optional[str] = None
    #: bytes one record the job reads holds: what a record exchange ships
    #: (``None``: a text string field has no fixed width)
    width: Optional[int] = 0

    @property
    def path(self) -> Optional[str]:
        """What the job's kernel reports in ``extra["perf"]["paths"]``."""
        if self.tail is not None:
            return self.tail if self.reason is None else f"gathered ({self.reason})"
        return self.exchange if self.exchange != "none" else self.spill

    def wire_bytes(self, records: int) -> Optional[int]:
        """Record bytes this job puts on the wire for ``records`` input
        records: none for a cut or an in-place deal."""
        if self.exchange != "records":
            return 0
        return None if self.width is None else records * self.width


class _Stream(Record):
    """What the planner knows about one stream a job reads."""

    schema: RecordSchema
    packed: bool = False
    #: rows fetchable by row id (the input of a narrow sort)
    indexed: bool = True


def _packs_rows(schema: RecordSchema, key: str) -> bool:
    """Whether the narrow sort packs ``key`` with a 32-bit row id in one
    word (:func:`repro.order.packs_rows`): ``integer`` is the one integer
    type of at most 32 bits."""
    return schema.fields[schema.index_of(key)].type == "integer"


def _widened(schema: RecordSchema, addons: list) -> RecordSchema:
    """``schema`` with the attribute each ``(add-on, attr)`` appends."""
    for addon, attr in addons:
        if not schema.has_field(attr):
            schema = schema.with_field(attr, addon.attr_type)
    return schema


def _choose(
    job: PlannedJob, streams: list[_Stream], whole: _Stream, spmd: bool,
    records: Optional[int], output: str,
) -> tuple[Physical, list[_Stream]]:
    """One job's choice and the streams it writes, from the streams it reads."""
    op, first = job.operator, streams[0]
    if isinstance(op, Sort):
        width = first.schema.width
        if op.addon is None and first.indexed and first.schema.has_field(op.key) and (
            not spmd or (
                job.source is None and width is not None
                and _packs_rows(first.schema, op.key)
                and (records is None or records <= 1 << 32)
            )
        ):
            return (Physical("cut" if spmd else "none", "narrow", width=width),
                    [_Stream(first.schema)])
        packed = first.packed or op.addon is not None
        schema = _widened(first.schema, [(op.addon, op.addon_attr)] if op.addon else [])
        # what a records sort leaves may be runs of whole records: not indexed
        return (Physical("records" if spmd else "none", "records", width=width),
                [_Stream(schema, packed, indexed=False)])
    if is_basic(op, "group"):
        packed = op.output_format == "pack" or first.packed
        schema = _widened(first.schema, [(addon, attr) for addon, attr, _ in op.addons])
        choice = Physical("records", "records", width=first.schema.width) if spmd else Physical()
        return choice, [_Stream(schema, packed, not packed)]
    if is_basic(op, "split"):
        outs = []
        for fmt in op.output_formats:
            packed = {"pack": True, "unpack": False}.get(fmt.name, first.packed)
            outs.append(_Stream(first.schema, packed, not packed))
        return Physical(), outs
    if isinstance(op, Distribute):
        widths = [s.schema.width for s in streams]
        width = None if None in widths else max(widths)
        if output == "memory":
            reason: Optional[str] = "in-memory run"
        elif output == "text":
            reason = "text output"
        elif any(s.packed for s in streams):
            reason = "packed stream"
        elif any(s.schema != whole.schema for s in streams):
            reason = "added attributes"
        else:
            return Physical(tail="in place", width=width), []
        if not spmd:
            return Physical(tail="gathered", reason=reason, width=width), []
        return Physical("records", "records", "gathered", reason, width), []
    # a user-registered basic operator: a local kernel over its input
    return Physical(), [first]


def physical_plan(
    plan: WorkflowPlan,
    schema: RecordSchema,
    *,
    spmd: bool,
    streamed: bool = False,
    records: Optional[int] = None,
    output: str = "memory",
) -> dict[str, Physical]:
    """Every planned job's :class:`Physical` choice, by ``op_id``: the one
    decision of how each job runs (``docs/plan-ir.md``, "The physical
    plan"), from facts known before the first job does — the plan's
    operators; the input's ``schema``, whether it is ``streamed`` (a
    chunked view) or resident, its ``records`` (``None``: unknown);
    ``spmd`` (one answer for every SPMD backend and rank count); and the
    ``output``: ``"binary"`` or ``"text"`` part files, or ``"memory"``.
    A memory budget decides only whether a planned spill happens.
    """
    whole = _Stream(schema, indexed=not (streamed and schema.input_format == "text"))
    written: dict[str, list[_Stream]] = {}
    choices: dict[str, Physical] = {}
    for job in plan.jobs:
        if job.source is None:
            streams = [whole]
        else:
            outs = written[job.source]
            streams = [outs[k] for k in job.source_outputs] if job.source_outputs else outs
        final = output if job is plan.final_job else "memory"
        choices[job.op_id], written[job.op_id] = _choose(
            job, streams or [whole], whole, spmd, records, final)
    return choices
