"""Fixed-width binary record files (the muBLASTP index format).

A binary input per Figure 4: an opaque header of ``start_position`` bytes,
then back-to-back fixed-width records.  The reader implements the Hadoop
``InputFormat`` contract — ``get_splits`` carves the byte range on record
boundaries, ``get_record_reader`` yields structured numpy rows — so mappers
can each read their own slice, which is what lets PaPar's partitioner scale
out while muBLASTP's own partitioner is stuck on one node (Section IV-B).
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence, Union

import numpy as np

from repro.errors import FormatError
from repro.formats.records import RecordSchema
from repro.mapreduce.hadoop import InputFormat, InputSplit, RecordReader

PathLike = Union[str, os.PathLike]


def write_binary(
    path: PathLike,
    data: np.ndarray,
    schema: RecordSchema,
    header: bytes = b"",
) -> None:
    """Write structured records to ``path`` in the schema's binary layout.

    ``header`` must be exactly ``schema.start_position`` bytes (the BLAST
    index reserves 32 bytes of metadata that the partitioner skips).
    """
    if schema.input_format != "binary":
        raise FormatError(f"schema {schema.id!r} is not a binary schema")
    if len(header) != schema.start_position:
        raise FormatError(
            f"header must be exactly start_position={schema.start_position} bytes, "
            f"got {len(header)}"
        )
    if data.dtype != schema.dtype:
        data = data.astype(schema.dtype)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_binary(path: PathLike, schema: RecordSchema) -> np.ndarray:
    """Read the whole record section of a binary file into a structured array."""
    if schema.input_format != "binary":
        raise FormatError(f"schema {schema.id!r} is not a binary schema")
    size = os.path.getsize(path)
    body = size - schema.start_position
    if body < 0:
        raise FormatError(
            f"{path}: file smaller ({size} B) than start_position ({schema.start_position} B)"
        )
    if body % schema.itemsize != 0:
        raise FormatError(
            f"{path}: body of {body} B is not a multiple of the {schema.itemsize} B record size"
        )
    return read_records(path, schema.start_position, body // schema.itemsize, schema.dtype)


def read_records(path: PathLike, start: int, count: int, dtype: np.dtype) -> np.ndarray:
    """``count`` records from byte ``start`` of ``path``, read straight into
    the array that is returned (one copy; a short read is a ``FormatError``)."""
    out = np.empty(count, dtype=dtype)
    with open(path, "rb") as fh:
        fh.seek(start)
        got = fh.readinto(out.view(np.uint8))
    if got != out.nbytes:
        raise FormatError(
            f"{path}: expected {count} records at byte {start}, "
            f"found {got // out.itemsize}"
        )
    return out


class _BinaryRecordReader(RecordReader):
    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def __iter__(self) -> Iterator[np.void]:
        return iter(self.rows)


class BinaryInputFormat(InputFormat):
    """Hadoop-style reader over a fixed-width binary file."""

    def __init__(self, path: PathLike, schema: RecordSchema) -> None:
        if schema.input_format != "binary":
            raise FormatError(f"schema {schema.id!r} is not a binary schema")
        self.path = os.fspath(path)
        self.schema = schema
        body = os.path.getsize(self.path) - schema.start_position
        if body < 0 or body % schema.itemsize != 0:
            raise FormatError(
                f"{self.path}: not a valid {schema.id!r} file "
                f"(body {body} B, record {schema.itemsize} B)"
            )
        self.num_records = body // schema.itemsize

    def get_splits(self, num_splits: int) -> list[InputSplit]:
        """Record-aligned byte ranges, one per mapper."""
        if num_splits < 1:
            raise FormatError(f"num_splits must be >= 1, got {num_splits!r}")
        base, extra = divmod(self.num_records, num_splits)
        splits = []
        record_start = 0
        for i in range(num_splits):
            count = base + (1 if i < extra else 0)
            splits.append(
                InputSplit(
                    source=self.path,
                    start=self.schema.start_position + record_start * self.schema.itemsize,
                    length=count * self.schema.itemsize,
                )
            )
            record_start += count
        return splits

    def get_record_reader(self, split: InputSplit) -> RecordReader:
        return _BinaryRecordReader(self.read_split(split))

    def read_split(self, split: InputSplit) -> np.ndarray:
        """The whole split as one structured array (the vectorized path)."""
        if split.length % self.schema.itemsize != 0:
            raise FormatError(
                f"split length {split.length} not aligned to record size {self.schema.itemsize}"
            )
        return read_records(
            self.path, split.start, split.length // self.schema.itemsize, self.schema.dtype
        )


def partition_paths(output_path: PathLike, num_partitions: int) -> list[str]:
    """Per-partition output file names, mirroring Hadoop's ``part-00000`` style."""
    if num_partitions < 1:
        raise FormatError(f"num_partitions must be >= 1, got {num_partitions!r}")
    return [os.path.join(os.fspath(output_path), f"part-{i:05d}") for i in range(num_partitions)]


def write_partitions(
    output_path: PathLike,
    partitions: Sequence[np.ndarray],
    schema: RecordSchema,
    header: bytes = b"",
) -> list[str]:
    """Write one binary file per partition under ``output_path``."""
    os.makedirs(output_path, exist_ok=True)
    paths = partition_paths(output_path, len(partitions))
    for path, part in zip(paths, partitions):
        write_binary(path, np.asarray(part, dtype=schema.dtype), schema, header=header)
    return paths
