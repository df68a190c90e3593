"""A Hadoop-style local job runner with a disk-based shuffle.

The paper's first backend mapping: "On Hadoop, we implement the interfaces
of processing structured data by inheriting InputFormat class.  We implement
those operators in Java, and generate Hadoop jobs for the workflow."

This engine reproduces Hadoop's execution structure in one process:

* the job input is an :class:`InputFormat` (Hadoop's programmatic input
  interface, Section III-A): ``get_splits`` carves it into one
  :class:`InputSplit` per map task, ``get_record_reader`` iterates one;
* each **map task** runs the mapper over its split and *spills* its output
  to disk, one spill file per reducer (the map-side partition);
* each **reduce task** pulls its spill files from every map task (mapper
  order), optionally sorts by key, groups, reduces, and writes a
  ``part-NNNNN`` output file.

The workflow backends do not run through it: ``backend="mapreduce"`` is
the MR-MPI mapping of the same operators (:mod:`repro.core.mr_runtime`),
and a run reads its input through the configured schema
(:class:`repro.formats.binary.InputFileView`), PaPar's programming-free
alternative to the interface.  (Hadoop's speculative task re-execution is
a fault-tolerance mechanism with no effect on results; it is out of scope
here.)  Only ``bench_backends_ablation.py`` runs it, next to the backends
it is compared with; :class:`ListInputFormat` feeds it in-memory rows.

Benchmarks import this module from their own directory; tests load it by
path (``sys.path.insert(0, <repo>/benchmarks)``).
"""

from __future__ import annotations

import os
import pickle
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.errors import MapReduceError, Record
from repro.mapreduce.partitioner import HashPartitioner, Partitioner

PathLike = Union[str, os.PathLike]

KV = tuple[Any, Any]
#: ``map_fn(item, emit)`` — calls ``emit(key, value)`` zero or more times.
MapFn = Callable[[Any, Callable[[Any, Any], None]], None]
#: ``reduce_fn(key, values, emit)`` — calls ``emit(key, value)``.
ReduceFn = Callable[[Any, list[Any], Callable[[Any, Any], None]], None]


class InputSplit(Record):
    """One mapper's slice of the input: ``[start, start + length)`` in units
    meaningful to the format (the record index of in-memory data);
    immutable."""

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
    """Hadoop's input interface: split the input, read each split's records."""

    def get_splits(self, num_splits: int) -> list[InputSplit]:
        raise NotImplementedError

    def get_record_reader(self, split: InputSplit) -> RecordReader:
        raise NotImplementedError


def identity_reduce(key: Any, values: list[Any], emit: Callable[[Any, Any], None]) -> None:
    """Reduce function that re-emits every value under its key."""
    for v in values:
        emit(key, v)


@dataclass
class JobCounters:
    """Hadoop-style job counters."""

    map_tasks: int = 0
    reduce_tasks: int = 0
    map_input_records: int = 0
    map_output_records: int = 0
    reduce_input_groups: int = 0
    reduce_output_records: int = 0
    spilled_bytes: int = 0


@dataclass
class HadoopJobResult:
    """Output of one job: per-reducer output files plus counters."""

    output_dir: str
    part_files: list[str] = field(default_factory=list)
    counters: JobCounters = field(default_factory=JobCounters)

    def read_output(self) -> list[KV]:
        """All output pairs, in reducer order."""
        out: list[KV] = []
        for path in self.part_files:
            with open(path, "rb") as fh:
                out.extend(pickle.load(fh))
        return out


class HadoopCluster:
    """A single-process Hadoop stand-in rooted at a working directory."""

    def __init__(self, work_dir: PathLike, num_mappers: int = 4) -> None:
        if num_mappers < 1:
            raise MapReduceError(f"num_mappers must be >= 1, got {num_mappers!r}")
        self.work_dir = os.fspath(work_dir)
        self.num_mappers = num_mappers
        self._job_seq = 0
        os.makedirs(self.work_dir, exist_ok=True)

    # -- job submission --------------------------------------------------------

    def run_job(
        self,
        input_format: InputFormat,
        map_fn: MapFn,
        reduce_fn: ReduceFn,
        partitioner: Optional[Partitioner] = None,
        num_reducers: int = 2,
        sort_keys: bool = False,
        descending: bool = False,
        combiner: Optional[ReduceFn] = None,
        job_name: str = "job",
    ) -> HadoopJobResult:
        """Run one MapReduce job end to end through the disk shuffle."""
        if num_reducers < 1:
            raise MapReduceError(f"num_reducers must be >= 1, got {num_reducers!r}")
        if partitioner is None:
            partitioner = HashPartitioner(num_reducers)
        if partitioner.num_reducers != num_reducers:
            raise MapReduceError(
                f"partitioner targets {partitioner.num_reducers} reducers, job wants {num_reducers}"
            )
        self._job_seq += 1
        job_dir = os.path.join(self.work_dir, f"{job_name}-{self._job_seq:04d}")
        spill_dir = os.path.join(job_dir, "spills")
        output_dir = os.path.join(job_dir, "output")
        os.makedirs(spill_dir, exist_ok=True)
        os.makedirs(output_dir, exist_ok=True)
        counters = JobCounters()

        # -- map phase: one task per split, spill per reducer ----------------
        splits = input_format.get_splits(self.num_mappers)
        for task_id, split in enumerate(splits):
            self._run_map_task(
                task_id, input_format, split, map_fn, partitioner, spill_dir, counters,
                combiner=combiner,
            )

        # -- reduce phase: one task per reducer --------------------------------
        part_files = []
        for reducer in range(num_reducers):
            part_files.append(
                self._run_reduce_task(
                    reducer,
                    len(splits),
                    reduce_fn,
                    spill_dir,
                    output_dir,
                    counters,
                    sort_keys=sort_keys,
                    descending=descending,
                )
            )
        return HadoopJobResult(output_dir=output_dir, part_files=part_files, counters=counters)

    # -- tasks -------------------------------------------------------------------

    def _run_map_task(
        self,
        task_id: int,
        input_format: InputFormat,
        split,
        map_fn: MapFn,
        partitioner: Partitioner,
        spill_dir: str,
        counters: JobCounters,
        combiner: Optional[ReduceFn] = None,
    ) -> None:
        counters.map_tasks += 1
        outputs: list[list[KV]] = [[] for _ in range(partitioner.num_reducers)]

        def emit(k: Any, v: Any) -> None:
            outputs[partitioner(k)].append((k, v))
            counters.map_output_records += 1

        for record in input_format.get_record_reader(split):
            counters.map_input_records += 1
            map_fn(record, emit)
        if combiner is not None:
            # map-side combine: pre-reduce each spill before it hits disk
            for reducer, pairs in enumerate(outputs):
                grouped: dict[Any, list[Any]] = {}
                for k, v in pairs:
                    grouped.setdefault(k, []).append(v)
                combined: list[KV] = []
                c_emit = combined.append
                for k, values in grouped.items():
                    combiner(k, values, lambda ck, cv: c_emit((ck, cv)))
                outputs[reducer] = combined
        for reducer, pairs in enumerate(outputs):
            path = self._spill_path(spill_dir, task_id, reducer)
            payload = pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)
            counters.spilled_bytes += len(payload)
            with open(path, "wb") as fh:
                fh.write(payload)

    def _run_reduce_task(
        self,
        reducer: int,
        num_map_tasks: int,
        reduce_fn: ReduceFn,
        spill_dir: str,
        output_dir: str,
        counters: JobCounters,
        sort_keys: bool,
        descending: bool,
    ) -> str:
        counters.reduce_tasks += 1
        # shuffle fetch: pull this reducer's spill from every mapper, in order
        pairs: list[KV] = []
        for task_id in range(num_map_tasks):
            with open(self._spill_path(spill_dir, task_id, reducer), "rb") as fh:
                pairs.extend(pickle.load(fh))
        if sort_keys:
            pairs.sort(key=lambda kv: kv[0], reverse=descending)
        groups: dict[Any, list[Any]] = {}
        for k, v in pairs:
            groups.setdefault(k, []).append(v)
        counters.reduce_input_groups += len(groups)
        out: list[KV] = []

        def emit(k: Any, v: Any) -> None:
            out.append((k, v))
            counters.reduce_output_records += 1

        for k, values in groups.items():
            reduce_fn(k, values, emit)
        path = os.path.join(output_dir, f"part-{reducer:05d}")
        with open(path, "wb") as fh:
            pickle.dump(out, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    @staticmethod
    def _spill_path(spill_dir: str, task_id: int, reducer: int) -> str:
        return os.path.join(spill_dir, f"map-{task_id:04d}-r{reducer:04d}.spill")

    # -- chaining ------------------------------------------------------------------

    def chain_input(self, result: HadoopJobResult) -> InputFormat:
        """The output of one job as the input of the next (job pipelines)."""
        return ListInputFormat(result.read_output())

    def cleanup(self) -> None:
        """Remove all job directories."""
        shutil.rmtree(self.work_dir, ignore_errors=True)


class _ListRecordReader(RecordReader):
    def __init__(self, items: Sequence[Any]) -> None:
        self._items = items

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


class ListInputFormat(InputFormat):
    """In-memory input: the paper requires supporting in-memory repartitioning
    of intermediate data, not only file inputs."""

    def __init__(self, items: Sequence[Any]) -> None:
        self._items = list(items)

    def get_splits(self, num_splits: int) -> list[InputSplit]:
        if num_splits < 1:
            raise MapReduceError(f"num_splits must be >= 1, got {num_splits!r}")
        n = len(self._items)
        base, extra = divmod(n, num_splits)
        splits = []
        start = 0
        for i in range(num_splits):
            length = base + (1 if i < extra else 0)
            splits.append(InputSplit(source=None, start=start, length=length))
            start += length
        return splits

    def get_record_reader(self, split: InputSplit) -> RecordReader:
        return _ListRecordReader(self._items[split.start : split.start + split.length])
