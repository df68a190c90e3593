"""Hadoop-style ``InputFormat`` interface (paper Section III-A).

Hadoop asks users to subclass ``InputFormat`` and implement ``getSplits``
(carve the input file into blocks, one per mapper) and ``getRecordReader``
(iterate records of one split).  PaPar *supports* this programmatic interface
but prefers the programming-free input-data configuration file; the
config-driven formats in :mod:`repro.formats` implement this interface, so
both interfaces are the same machinery underneath.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import MapReduceError, Record


class InputSplit(Record):
    """One mapper's slice of the input: ``[start, start + length)`` in units
    meaningful to the format (bytes for binary files, record index for
    in-memory data); immutable."""

    source: Any
    start: int
    length: int

    def __init__(self, source: Any, start: int, length: int) -> None:
        if start < 0 or length < 0:
            raise MapReduceError(f"invalid split [{start}, +{length})")
        vars(self).update(source=source, start=start, length=length)


class RecordReader:
    """Iterates the records of one split, yielding mapper inputs."""

    def __iter__(self) -> Iterator[Any]:
        raise NotImplementedError


class InputFormat:
    """Base class: split the input and read records of each split."""

    def get_splits(self, num_splits: int) -> list[InputSplit]:
        raise NotImplementedError

    def get_record_reader(self, split: InputSplit) -> RecordReader:
        raise NotImplementedError
