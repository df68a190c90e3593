"""File-based end-to-end partitioning.

The paper's generated partitioner is a program from input *files* to
partition *files* (``part-00000`` style, one per partition).  This module
adds that layer on top of the runtimes: resolve the workflow's input path
argument, open it through the registered schema, execute the plan, and
leave one output file per partition in the input's own format ("all data
will be unpacked to make sure the output has the same format of input").

A fixed-width binary input is not read here: the run gets a file-backed
source, so each rank reads its own byte range (the serial backend's sort
reads only the key column, through a read-only mapping), and a
:class:`~repro.formats.binary.PartWriter`, so the deal can write its pieces
of the partitions in place — on every rank of an SPMD run, and on the one
rank of a serial run.  When the physical plan has the deal write in place
(:func:`~repro.core.physical.physical_plan`), this module has nothing left
to write; otherwise (text output, packed streams, records widened by add-on
attributes) it writes the partitions the run returned.
"""

from __future__ import annotations

import os
import re
from typing import Any, Optional, Union

from repro.config.workflow import WorkflowSpec, parse_workflow_config
from repro.core.planner import Planner, WorkflowPlan
from repro.core.runtime import PartitionResult, execute_plan
from repro.errors import FormatError, WorkflowError
from repro.formats.records import RecordSchema

PathLike = Union[str, os.PathLike]

#: the name of a part file (``part-00000``) and its partition index
_PART_NAME = re.compile(r"part-([0-9]{5,})")

#: the most partitions a file-to-file run writes.  Each one is a part file
#: and a row of every rank's per-partition tables, so a larger count (lint
#: takes any ``integer``, up to 2**31 - 1) is refused before either exists
MAX_PARTITIONS = 1 << 20


class FilePartitionResult:
    """A :class:`PartitionResult` plus the files it was written to."""

    def __init__(self, result: PartitionResult, output_paths: Optional[list[str]] = None) -> None:
        self.result = result
        self.output_paths = [] if output_paths is None else output_paths

    @property
    def partitions(self):
        return self.result.partitions

    @property
    def num_partitions(self) -> int:
        return self.result.num_partitions


def find_io_arguments(spec: WorkflowSpec) -> tuple[str, str]:
    """Names of the workflow's input and output path arguments.

    Convention of the paper's configs: the argument with a ``format``
    attribute whose name starts with ``input`` is the input file, and the one
    starting with ``output`` is the output directory.
    """
    input_arg = output_arg = None
    for name, ps in spec.arguments.items():
        if name.lower().startswith("input"):
            input_arg = name
        elif name.lower().startswith("output"):
            output_arg = name
    if input_arg is None or output_arg is None:
        raise WorkflowError(
            f"workflow {spec.id!r} does not declare input/output path arguments"
        )
    return input_arg, output_arg


def load_input_dataset(
    schemas: Any,
    spec: WorkflowSpec,
    args: dict[str, Any],
    schema_id: Optional[str] = None,
    memory_budget: Any = None,
    file_backed: bool = False,
) -> tuple[Any, RecordSchema]:
    """Resolve and read the workflow's input file as ``(dataset, schema)``.

    The input path comes from the spec's ``input*`` argument (the paper's
    config convention); with a ``memory_budget`` the file is opened as a
    streamed :class:`~repro.ooc.ChunkedDataset` (the input-file view plus
    budget-sized chunks) instead of read into memory.
    Shared by :func:`partition_files` and the daemon's warm start, which
    must agree on how bytes become records.  ``schemas.schema(id)`` is the
    input schema (a :class:`~repro.config.schema.Schemas`, or a ``PaPar``).

    ``file_backed`` (what :func:`partition_files` asks for) leaves a binary
    file unread: the dataset is a validated
    :class:`~repro.formats.binary.InputFileView` that whoever executes the
    plan materializes — whole, or one rank's byte range at a time.
    """
    input_arg, _ = find_io_arguments(spec)
    if input_arg not in args:
        raise WorkflowError(f"workflow {spec.id!r} needs {input_arg!r} in args")
    fmt_id = schema_id or spec.arguments[input_arg].format
    if not fmt_id:
        raise WorkflowError(
            f"argument {input_arg!r} declares no input format and no schema_id given"
        )
    schema = schemas.schema(fmt_id)
    try:
        # a missing or unreadable input (or a directory) is one error line,
        # whichever reader would have tripped over it first
        open(args[input_arg], "rb").close()
    except OSError as exc:
        raise FormatError(
            f"cannot read input file {os.fspath(args[input_arg])!r}: {exc.strerror}"
        ) from None
    if memory_budget is not None:
        from repro.ooc.budget import MemoryBudget
        from repro.ooc.chunked import ChunkedDataset

        return ChunkedDataset(args[input_arg], schema, MemoryBudget.coerce(memory_budget)), schema
    if file_backed and schema.input_format == "binary":
        from repro.formats.binary import InputFileView

        return InputFileView(args[input_arg], schema), schema
    from repro.core.dataset import Dataset

    if schema.input_format == "binary":
        from repro.formats.binary import read_binary

        return Dataset.from_array(schema, read_binary(args[input_arg], schema)), schema
    from repro.formats.text import read_text_array

    return Dataset.from_array(schema, read_text_array(args[input_arg], schema)), schema


def write_partition_files(
    output_dir: PathLike,
    result: PartitionResult,
    schema: RecordSchema,
) -> list[str]:
    """Write one ``part-NNNNN`` file per partition in the schema's format."""
    os.makedirs(output_dir, exist_ok=True)
    flats = [p.to_flat() for p in result.partitions]
    if schema.input_format == "binary":
        from repro.formats.binary import write_partitions

        # partitions may carry added attributes; write them with their own
        # schema but keep the input header convention
        part_schema = flats[0].schema if flats else schema
        header = b"\x00" * part_schema.start_position
        return write_partitions(
            output_dir, [p.records for p in flats], part_schema, header=header
        )
    from repro.formats.text import write_text_array

    paths = []
    for i, part in enumerate(flats):
        path = os.path.join(os.fspath(output_dir), f"part-{i:05d}")
        write_text_array(path, part.records, part.schema)
        paths.append(path)
    return paths


def _remove_stale_parts(output_dir: PathLike, num_partitions: int) -> None:
    """Remove the ``part-NNNNN`` files of index ``num_partitions`` and up:
    an earlier run's partitions beyond this run's, which a reader of
    ``part-*`` would otherwise take for this run's."""
    for name in os.listdir(output_dir):
        match = _PART_NAME.fullmatch(name)
        if match is not None and int(match.group(1)) >= num_partitions:
            os.remove(os.path.join(output_dir, name))


def check_partition_counts(plan: WorkflowPlan) -> None:
    """Refuse a plan that deals into more than :data:`MAX_PARTITIONS` parts."""
    for job in plan.jobs:
        count = getattr(job.operator, "num_partitions", None)
        if count is not None and count > MAX_PARTITIONS:
            raise WorkflowError(
                f"operator {job.op_id!r}: numPartitions is {count}, but a run "
                f"writes at most {MAX_PARTITIONS} part files"
            )


def partition_files(
    schemas: Any,
    workflow: Union[WorkflowSpec, WorkflowPlan, str],
    args: dict[str, Any],
    backend: str = "serial",
    num_ranks: int = 1,
    cluster: Optional[Any] = None,
    schema_id: Optional[str] = None,
    memory_budget: Any = None,
    **fault_tolerance: Any,
) -> FilePartitionResult:
    """Read the input file, run the workflow, write the partition files.

    ``args`` must bind the workflow's input path argument to a real file and
    its output path argument to a directory.  ``fault_tolerance`` keywords
    (``faults``, ``checkpoint``, ``retry``, ``chaos_seed``,
    ``deadlock_grace``, plus an observability ``recorder``) are forwarded
    to :func:`~repro.core.runtime.execute_plan`; ``schemas`` are the registered
    input schemas.

    With a ``memory_budget``, the input file is *not* read into memory:
    it is opened as a :class:`~repro.ooc.ChunkedDataset` and streamed in
    budget-sized chunks by the runtimes, spilling oversized exchanges to
    run files.

    On the SPMD backends the ranks of a binary run read their own byte
    ranges and, when the final deal allows it, write the part files
    themselves (``result.extra["perf"]["output"]`` records which way it
    went); the serial backend does the same with one rank, under a budget
    too.  ``result.partitions`` are then read-only views of those files.

    Once the new parts are in place, the ``part-NNNNN`` files an earlier
    run into the same directory left beyond them are removed.

    A :class:`~repro.core.planner.WorkflowPlan` (the CLI's, checked by the
    lint gate) runs as planned; a spec or XML text is planned first.  A plan
    that deals into more than :data:`MAX_PARTITIONS` parts is refused
    before the input is read or the output directory exists.
    """
    if isinstance(workflow, str):
        workflow = parse_workflow_config(workflow)
    spec = workflow.spec if isinstance(workflow, WorkflowPlan) else workflow
    input_arg, output_arg = find_io_arguments(spec)
    if input_arg not in args or output_arg not in args:
        raise WorkflowError(
            f"partition_files needs {input_arg!r} and {output_arg!r} in args"
        )
    plan = workflow if isinstance(workflow, WorkflowPlan) else Planner().plan(spec, args, schemas)
    check_partition_counts(plan)
    data, schema = load_input_dataset(
        schemas, spec, args, schema_id=schema_id, memory_budget=memory_budget,
        file_backed=True,
    )
    writer = None
    if schema.input_format == "binary":
        from repro.formats.binary import PartWriter

        writer = PartWriter(
            args[output_arg], schema, header=b"\x00" * schema.start_position
        )
    result = execute_plan(
        plan,
        data,
        backend=backend,
        num_ranks=num_ranks,
        cluster=cluster,
        memory_budget=memory_budget,
        part_writer=writer,
        output=None if writer is not None else "text",
        **fault_tolerance,
    )
    if result.extra["perf"]["output"]["mode"] == "in_place":
        paths = writer.published
    else:
        # gathered, for the reason the plan gave: the driver writes the parts
        paths = write_partition_files(args[output_arg], result, schema)
    _remove_stale_parts(args[output_arg], len(paths))
    return FilePartitionResult(result=result, output_paths=paths)
