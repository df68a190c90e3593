"""File-based end-to-end partitioning.

The paper's generated partitioner is a program from input *files* to
partition *files* (``part-00000`` style, one per partition).  This module
adds that layer on top of the runtimes: resolve the workflow's input path
argument, open it through the registered schema, execute the plan, and
leave one output file per partition in the input's own format ("all data
will be unpacked to make sure the output has the same format of input").

A fixed-width binary input is not read here: the run gets a file-backed
source, so each rank reads its own byte range, and a
:class:`~repro.formats.binary.PartWriter`, so the SPMD ranks can write
their pieces of the partitions in place.  When they did, this module has
nothing left to write; otherwise (serial, text or packed streams, records
widened by add-on attributes, a memory budget) it writes the partitions the
run returned.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.config.workflow import WorkflowSpec
from repro.core.runtime import PartitionResult
from repro.errors import FormatError, WorkflowError
from repro.formats.binary import (
    BinaryInputFormat,
    PartWriter,
    partition_paths,
    write_partitions,
)
from repro.formats.records import RecordSchema
from repro.formats.text import write_text_array

PathLike = Union[str, os.PathLike]


@dataclass
class FilePartitionResult:
    """A :class:`PartitionResult` plus the files it was written to."""

    result: PartitionResult
    output_paths: list[str] = field(default_factory=list)

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
    papar: Any,
    spec: WorkflowSpec,
    args: dict[str, Any],
    schema_id: Optional[str] = None,
    memory_budget: Any = None,
    file_backed: bool = False,
) -> tuple[Any, RecordSchema]:
    """Resolve and read the workflow's input file as ``(dataset, schema)``.

    The input path comes from the spec's ``input*`` argument (the paper's
    config convention); with a ``memory_budget`` the file is opened as a
    streamed :class:`~repro.ooc.ChunkedDataset` instead of read into memory.
    Shared by :func:`partition_files` and the daemon's warm start, which
    must agree on how bytes become records.

    ``file_backed`` (what :func:`partition_files` asks for) leaves a binary
    file unread: the dataset is a validated
    :class:`~repro.formats.binary.BinaryInputFormat` that whoever executes
    the plan materializes — whole, or one rank's byte range at a time.
    """
    input_arg, _ = find_io_arguments(spec)
    if input_arg not in args:
        raise WorkflowError(f"workflow {spec.id!r} needs {input_arg!r} in args")
    fmt_id = schema_id or spec.arguments[input_arg].format
    if not fmt_id:
        raise WorkflowError(
            f"argument {input_arg!r} declares no input format and no schema_id given"
        )
    schema = papar.schema(fmt_id)
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

        data: Any = ChunkedDataset(
            args[input_arg], schema, MemoryBudget.coerce(memory_budget)
        )
    elif file_backed and schema.input_format == "binary":
        data = BinaryInputFormat(args[input_arg], schema)
    else:
        data = papar.load_dataset(args[input_arg], fmt_id)
    return data, schema


def write_partition_files(
    output_dir: PathLike,
    result: PartitionResult,
    schema: RecordSchema,
) -> list[str]:
    """Write one ``part-NNNNN`` file per partition in the schema's format."""
    os.makedirs(output_dir, exist_ok=True)
    flats = [p.to_flat() for p in result.partitions]
    if schema.input_format == "binary":
        # partitions may carry added attributes; write them with their own
        # schema but keep the input header convention
        part_schema = flats[0].schema if flats else schema
        header = b"\x00" * part_schema.start_position
        return write_partitions(
            output_dir, [p.records for p in flats], part_schema, header=header
        )
    paths = []
    for i, part in enumerate(flats):
        path = os.path.join(os.fspath(output_dir), f"part-{i:05d}")
        write_text_array(path, part.records, part.schema)
        paths.append(path)
    return paths


def partition_files(
    papar: Any,
    workflow: Union[WorkflowSpec, str],
    args: dict[str, Any],
    backend: str = "serial",
    num_ranks: int = 1,
    cluster: Optional[Any] = None,
    schema_id: Optional[str] = None,
    memory_budget: Any = None,
    optimize: bool = False,
    **fault_tolerance: Any,
) -> FilePartitionResult:
    """Read the input file, run the workflow, write the partition files.

    ``args`` must bind the workflow's input path argument to a real file and
    its output path argument to a directory.  ``fault_tolerance`` keywords
    (``faults``, ``checkpoint``, ``retry``, ``chaos_seed``,
    ``deadlock_grace``, plus an observability ``recorder``) are forwarded
    to :meth:`repro.PaPar.run`.

    ``optimize=True`` runs the PAP080-081 rewrite passes first (see
    ``docs/optimizer.md``) and then runs the rewritten workflow like any
    other, in place where a plain run would be; the part files are
    bit-identical either way.

    With a ``memory_budget``, the input file is *not* read into memory:
    it is opened as a :class:`~repro.ooc.ChunkedDataset` and streamed in
    budget-sized chunks by the runtimes, spilling oversized exchanges to
    run files.

    On the SPMD backends the ranks of a binary run read their own byte
    ranges and, when the final deal allows it, write the part files
    themselves; ``result.partitions`` are then read-only views of those
    files, and ``result.extra["perf"]["output"]`` records which way it went.
    """
    spec = papar.load_workflow(workflow) if isinstance(workflow, str) else workflow
    input_arg, output_arg = find_io_arguments(spec)
    if input_arg not in args or output_arg not in args:
        raise WorkflowError(
            f"partition_files needs {input_arg!r} and {output_arg!r} in args"
        )
    data, schema = load_input_dataset(
        papar, spec, args, schema_id=schema_id, memory_budget=memory_budget,
        file_backed=True,
    )
    writer = None
    if schema.input_format == "binary":
        writer = PartWriter(
            args[output_arg], schema, header=b"\x00" * schema.start_position
        )
    result = papar.run(
        spec,
        args,
        data=data,
        backend=backend,
        num_ranks=num_ranks,
        cluster=cluster,
        memory_budget=memory_budget,
        optimize=optimize,
        part_writer=writer,
        **fault_tolerance,
    )
    perf = result.extra["perf"]
    if perf.get("output", {}).get("mode") == "in_place":
        paths = partition_paths(args[output_arg], result.num_partitions)
    else:
        if writer is None and backend != "serial":
            # ranks had no fixed-width layout to write into
            perf["output"] = {"mode": "gathered", "reason": "text output"}
        paths = write_partition_files(args[output_arg], result, schema)
    return FilePartitionResult(result=result, output_paths=paths)
