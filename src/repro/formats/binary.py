"""Fixed-width binary record files (the muBLASTP index format).

A binary input per Figure 4: an opaque header of ``start_position`` bytes,
then back-to-back fixed-width records.  The reader implements the Hadoop
``InputFormat`` contract — ``get_splits`` carves the byte range on record
boundaries, ``get_record_reader`` yields structured numpy rows — so mappers
can each read their own slice, which is what lets PaPar's partitioner scale
out while muBLASTP's own partitioner is stuck on one node (Section IV-B).

Both ends of a file-to-file run are addressed by offset.
:class:`BinaryInputFormat` doubles as the *file-backed source* the runtimes
execute over: a row range of the file that knows its schema and size and
reads its records only when a rank asks (``slice_view`` + ``materialize``),
so every rank reads its own byte range.  :class:`PartWriter` owns the
``part-NNNNN`` layout: slot ``s`` of partition ``p`` lives at byte
``start_position + s * itemsize``, so whoever holds a piece of a partition
``pwrite``s it where it belongs, and the parts appear under their final
names only when the run publishes them.
"""

from __future__ import annotations

import copy
import os
from typing import Any, Iterator, Sequence, Union

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
    _check_header(schema, header)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_raw_bytes(data, schema.dtype))


def _check_header(schema: RecordSchema, header: bytes) -> None:
    """What every writer of a binary file requires of its schema and header."""
    if schema.input_format != "binary":
        raise FormatError(f"schema {schema.id!r} is not a binary schema")
    if len(header) != schema.start_position:
        raise FormatError(
            f"header must be exactly start_position={schema.start_position} bytes, "
            f"got {len(header)}"
        )


def _raw_bytes(data: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``data``'s own buffer as bytes, for a file write (a copy is made only
    to convert the dtype or to make a strided array contiguous)."""
    return np.ascontiguousarray(data, dtype=dtype).reshape(-1).view(np.uint8)


def _count_records(path: PathLike, schema: RecordSchema) -> int:
    """How many records the body of ``path`` holds; a file that cannot be a
    whole number of them after its header is a ``FormatError``."""
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
    return body // schema.itemsize


def read_binary(path: PathLike, schema: RecordSchema) -> np.ndarray:
    """Read the whole record section of a binary file into a structured array."""
    count = _count_records(path, schema)
    return read_records(path, schema.start_position, count, schema.dtype)


def map_binary(path: PathLike, schema: RecordSchema) -> np.ndarray:
    """The record section of a binary file as a read-only ``np.memmap``
    (an empty array for a header-only file, which cannot be mapped)."""
    count = _count_records(path, schema)
    if count == 0:
        return np.empty(0, dtype=schema.dtype)
    return np.memmap(
        path, dtype=schema.dtype, mode="r", offset=schema.start_position, shape=(count,)
    )


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
    """Hadoop-style reader over a fixed-width binary file.

    Also the file-backed source of a file-to-file run: it answers
    ``schema`` / ``len`` / ``nbytes`` like a flat dataset without holding a
    record, :meth:`slice_view` narrows it to a row range (a rank's block)
    and :meth:`materialize` reads that range — the surface the runtimes
    already duck-type for an out-of-core input view.  The file is validated
    here, once, exactly as :func:`read_binary` validates it.
    """

    #: a file-backed source is always a flat record stream
    is_packed = False

    def __init__(self, path: PathLike, schema: RecordSchema) -> None:
        self.path = os.fspath(path)
        self.schema = schema
        #: the row range of the file this view covers
        self.first_record = 0
        self.num_records = _count_records(self.path, schema)

    def __len__(self) -> int:
        return self.num_records

    @property
    def nbytes(self) -> int:
        """In-memory size of this view's records (matches ``Dataset.nbytes``)."""
        return self.num_records * self.schema.itemsize

    def slice_view(self, start: int, length: int) -> "BinaryInputFormat":
        """A narrower view of rows ``[start, start + length)`` of this view."""
        if start < 0 or length < 0 or start + length > self.num_records:
            raise FormatError(
                f"slice [{start}, {start + length}) outside view of "
                f"{self.num_records} records"
            )
        view = copy.copy(self)
        view.first_record = self.first_record + start
        view.num_records = length
        return view

    def materialize(self) -> Any:
        """This view's records as one in-memory dataset: a single
        :func:`read_records` of its own byte range."""
        from repro.core.dataset import Dataset  # core.dataset imports this package

        (whole,) = self.get_splits(1)
        return Dataset(schema=self.schema, records=self.read_split(whole))

    def get_splits(self, num_splits: int) -> list[InputSplit]:
        """Record-aligned byte ranges, one per mapper."""
        if num_splits < 1:
            raise FormatError(f"num_splits must be >= 1, got {num_splits!r}")
        base, extra = divmod(self.num_records, num_splits)
        splits = []
        record_start = self.first_record
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


class PartWriter:
    """Offset-addressed writer of the ``part-NNNNN`` files of one run.

    The file layout lives here and nowhere else: a partition's header, then
    its records by slot.  :meth:`write` places any piece of any partition,
    from any thread or (forked) process holding the writer, without seeing
    the rest of it; :meth:`finish` seals a part once its record count is
    known.  Parts are built under a temporary name beside the final one;
    the driver calls :meth:`publish` (one rename each) when every writer
    reported success and :meth:`discard` otherwise, so a failed run
    never leaves a half-written ``part-*`` and never touches the previous
    run's.  Offset writes are idempotent: a retried attempt rewrites the
    same bytes at the same places.
    """

    def __init__(
        self, output_path: PathLike, schema: RecordSchema, header: bytes = b""
    ) -> None:
        _check_header(schema, header)
        os.makedirs(output_path, exist_ok=True)
        self.output_path = os.fspath(output_path)
        self.schema = schema
        self.header = header
        self._suffix = f".{os.getpid():x}{os.urandom(4).hex()}.tmp"

    def _tmp_path(self, partition: int) -> str:
        return os.path.join(self.output_path, f".part-{partition:05d}{self._suffix}")

    def _open(self, partition: int) -> int:
        return os.open(self._tmp_path(partition), os.O_WRONLY | os.O_CREAT, 0o666)

    @staticmethod
    def _pwrite(fd: int, data: Any, offset: int) -> None:
        view = memoryview(data)
        while len(view):
            written = os.pwrite(fd, view, offset)
            view = view[written:]
            offset += written

    def write(self, partition: int, slot: int, records: np.ndarray) -> None:
        """Place ``records`` at slots ``[slot, slot + len(records))`` of a part."""
        fd = self._open(partition)
        try:
            self._pwrite(
                fd,
                _raw_bytes(records, self.schema.dtype),
                self.schema.start_position + slot * self.schema.itemsize,
            )
        finally:
            os.close(fd)

    def finish(self, partition: int, count: int) -> None:
        """Seal a part of ``count`` records: write its header and cut the
        file to its exact size (a part nobody wrote to is created here)."""
        fd = self._open(partition)
        try:
            self._pwrite(fd, self.header, 0)
            os.ftruncate(fd, self.schema.start_position + count * self.schema.itemsize)
        finally:
            os.close(fd)

    def publish(self, num_partitions: int) -> list[str]:
        """Rename parts ``0 .. num_partitions - 1`` to their final names."""
        paths = partition_paths(self.output_path, num_partitions)
        for p, path in enumerate(paths):
            os.replace(self._tmp_path(p), path)
        return paths

    def discard(self) -> None:
        """Remove whatever this writer left under its temporary names."""
        for name in os.listdir(self.output_path):
            if name.endswith(self._suffix):
                try:
                    os.unlink(os.path.join(self.output_path, name))
                except FileNotFoundError:
                    pass


def write_partitions(
    output_path: PathLike,
    partitions: Sequence[np.ndarray],
    schema: RecordSchema,
    header: bytes = b"",
) -> list[str]:
    """Write one binary file per partition under ``output_path``.

    Whole partitions through the :class:`PartWriter`, published together:
    a failure part-way leaves the directory's previous parts as they were.
    """
    writer = PartWriter(output_path, schema, header=header)
    try:
        for p, part in enumerate(partitions):
            writer.write(p, 0, part)
            writer.finish(p, len(part))
        return writer.publish(len(partitions))
    except BaseException:
        writer.discard()
        raise
