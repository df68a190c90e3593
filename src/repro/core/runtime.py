"""Workflow execution: one executor, four launchers.

One rank program (:meth:`MPIRuntime._rank_program`) runs every backend,
mirroring the paper's mapping of the formalization onto MPI / MR-MPI:
sort and group jobs are one *range exchange* (sample + range-shuffle +
local kernel, Figures 9 and 11), distribute jobs compute global entry
positions with an exclusive scan and deal each rank's window of them by
position (the policy's
:meth:`~repro.policies.distr.DistributionPolicy.pieces`) to the partition
owners.  What differs between the backends is data on a subclass — the
backend label, the reducer count, the cost profile
(:class:`~repro.core.mr_runtime.MapReduceRuntime`) and the launcher:
``mpi`` runs the rank program on the simulated MPI runtime's rank threads,
``process`` on forked processes
(:class:`~repro.core.process_runtime.ProcessRuntime`), and ``serial``
(:class:`SerialRuntime`) in the calling thread on one rank
(:class:`OneRank`), where nothing crosses a fabric.

Every backend produces identical partitions (tested).  How each job runs
is decided before the first one does, by the physical plan
(:func:`~repro.core.physical.physical_plan`; ``spmd=False`` on one rank,
where every job is local); the executor dispatches on its choices and
reports the path each kernel ran in ``extra["perf"]["paths"]``.  On the
SPMD backends a flat sort with no add-on of the run's *own* input (rows fetchable by index), keyed by an integer of at most 32
bits, is a ``cut`` and exchanges nothing: each rank cuts its own range
of the input in one key scan (:mod:`repro.core.word_exchange`) and the deal
gathers the records from the input.  Every other sort — chained or
wide-keyed — and every group is the range exchange, which ships the
records: keys cut by a
:class:`~repro.mapreduce.partitioner.RangePartitioner`, bucketized through
:func:`repro.mapreduce.columnar.bucketize`.  On one rank every sort is
local: ``narrow`` (key column + row ids of rows fetchable by index, chained
and wide-keyed sorts included) or ``records``.  Every backend threads a
:class:`~repro.core.perf.PerfCounters` through
``PartitionResult.extra["perf"]`` (``python -m repro run --stats``).

Simulated time: each rank counts, per job, the records its local kernels
ran over, and its communicator tallies what it sent where.  With a cluster
model the driver prices those counts (:func:`repro.cluster.model.price`)
into ``PartitionResult.elapsed``, on every backend alike; without one
nothing is priced and ``elapsed`` is 0.0.  The same tallies, summed, are
``PartitionResult.bytes_moved`` and ``messages``: what crossed a fabric is
counted once, by the sending rank's communicator.

File-to-file runs (:func:`repro.core.files.partition_files`): the input is
a file-backed source (:class:`~repro.formats.binary.InputFileView`; under
a budget its chunked subclass, :class:`~repro.ooc.chunked.ChunkedDataset`),
so every rank reads its own row range, and the executor is handed a
:class:`~repro.formats.binary.PartWriter`.  When the final ``Distribute``
deals flat streams of the schema being written, each rank ``pwrite``s its
pieces where they belong in the part files — no second exchange, nothing
gathered to the driver; otherwise (a packed stream, or records widened by
group add-ons) the deal ships its pieces to the partitions' owners and the
driver writes what they return (``extra["perf"]["output"]`` says which tail
the plan chose, and why).  On one rank the in-place tail is the same deal
into every part file.

Out-of-core (see :mod:`repro.ooc`): a ``memory_budget`` changes no path,
only where bytes wait.  The sort of the input spills its own range's
(key, row id) words when they outweigh the budget; an exchange asks one
collective question — does any rank's working set exceed the budget? —
and its outbox is in-memory lists or run files accordingly; a deal goes a
budget's window of positions at a time.  Without a budget ``repro.ooc`` is
never imported.

Fault tolerance (see :mod:`repro.fault`): the SPMD backends accept a fault
schedule, a checkpoint store, and a retry policy; failed attempts are
retried, resuming from the last job every rank checkpointed, and the report
lands in ``PartitionResult.extra["fault"]``.  Observability (see
:mod:`repro.obs`): with a ``recorder`` the driver replays what each rank's
perf counters stamped as a span tree (plan → per-rank jobs → exchanges and
writes) in ``PartitionResult.extra["obs"]``.  Without those arguments none
of that code runs.
"""

from __future__ import annotations

import importlib
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.core.dataset import Dataset, concat, resident
from repro.core.perf import JobCounts, PerfCounters
from repro.core.physical import Physical, physical_plan
from repro.core.planner import PlannedJob, WorkflowPlan
from repro.errors import WorkflowError
from repro.ops.base import is_basic
from repro.ops.distribute import Distribute
from repro.ops.sort import Sort
from repro.order import deal_into, sort_key_array

if TYPE_CHECKING:  # pragma: no cover - typing only: a serial run never loads
    # the MPI runtime, the fault layer, the cluster model or obs
    from repro.cluster.model import ClusterModel
    from repro.fault.checkpoint import CheckpointStore
    from repro.fault.injector import FaultInjector
    from repro.fault.retry import RetryPolicy
    from repro.formats.binary import PartWriter
    from repro.mpi.comm import Communicator
    from repro.mpi.launcher import MPIRun
    from repro.obs.span import Recorder

#: boundary-sample keys per rank (range exchange), per reducer (sort of the input)
KEY_SAMPLE_SIZE = 512


class PartitionResult:
    """Output of one workflow execution."""

    def __init__(self, partitions: list[Dataset], elapsed: float = 0.0, bytes_moved: int = 0,
                 messages: int = 0, extra: Optional[dict[str, Any]] = None) -> None:
        self.partitions = partitions
        #: simulated seconds priced from the run's counts (0.0 when no
        #: cluster model was attached)
        self.elapsed = elapsed
        #: bytes every rank sent to another, summed over the ranks' per-job
        #: traffic tallies (the counts the run is priced on, jobs restored
        #: from a checkpoint included); 0 on one rank
        self.bytes_moved = bytes_moved
        #: messages every rank sent, from the same tallies
        self.messages = messages
        self.extra = {} if extra is None else extra

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def perf(self) -> Optional[dict[str, Any]]:
        """The perf-counter summary, when the backend recorded one."""
        return self.extra.get("perf")

    @property
    def observability(self) -> Optional["Recorder"]:
        """The :class:`~repro.obs.span.Recorder` that observed this run.

        ``None`` unless a recorder was passed to the backend; exporters in
        :mod:`repro.obs` turn it into a Chrome trace, a metrics JSON, or a
        terminal timeline.
        """
        return self.extra.get("obs")


def _block(n: int, rank: int, size: int) -> tuple[int, int]:
    """``(start, length)`` of ``rank``'s contiguous block of ``n`` entries."""
    base, extra = divmod(n, size)
    return rank * base + min(rank, extra), base + (1 if rank < extra else 0)


def _dataset_rows_per_rank(data: Dataset, rank: int, size: int) -> Dataset:
    """Contiguous block decomposition preserving global entry order; one
    rank's block is the input itself."""
    if size == 1:
        return data
    start, length = _block(len(data), rank, size)
    if hasattr(data, "slice_view"):
        # a file-backed input view: hand the rank a row-range view instead
        # of materializing its block (duck-typed so repro.ooc is never
        # imported on the in-memory path)
        return data.slice_view(start, length)
    if data.is_packed:
        return data.take(np.arange(start, start + length))
    # flat records: a slice view, no index vector and no copy per rank
    return Dataset(schema=data.schema, records=data.records[start : start + length])


def run_plan(
    plan: WorkflowPlan, input_data: Any, spmd: bool, part_writer: Optional[PartWriter],
    output: Optional[str] = None,
) -> dict[str, Physical]:
    """The physical plan of one run of ``plan`` over ``input_data``
    (:func:`~repro.core.physical.physical_plan`): its output is ``output``
    (``"text"`` part files the caller writes), else binary part files with
    a ``part_writer``, else the partitions in memory."""
    return physical_plan(
        plan, input_data.schema, spmd=spmd, streamed=hasattr(input_data, "chunks"),
        records=len(input_data),
        output=output or ("binary" if part_writer is not None else "memory"),
    )


def _tail_output(choice: Physical, counts: Any, part_writer: Optional[PartWriter]) -> dict:
    """``extra["perf"]["output"]`` of a run whose final deal was planned as
    ``choice`` and returned ``counts`` (``{partition: record count}`` when
    written in place).  Only a file-to-file run has an output to report on."""
    if choice.tail == "in place":
        return {"mode": "in_place", "parts": len(counts),
                "bytes": sum(counts.values()) * part_writer.schema.itemsize}
    if choice.reason == "in-memory run":
        return {}
    return {"mode": "gathered", "reason": choice.reason}


def _internal(job: PlannedJob, choice: Physical, source: str) -> WorkflowError:
    """The error of a job whose planned path meets a source it cannot take."""
    return WorkflowError(
        f"internal error: job {job.op_id!r} was planned as {choice.path!r} "
        f"but reads {source}"
    )


def job_input(job: PlannedJob, outputs: dict[str, Any], input_data: Dataset) -> Any:
    """What ``job`` consumes: the input, or (selected outputs of) its source job."""
    if job.source is None:
        return input_data
    val = outputs[job.source]
    if isinstance(val, list) and job.source_outputs:
        picked = [val[i] for i in job.source_outputs]
        return picked if len(picked) > 1 else picked[0]
    return val


def _alltoall(
    comm: Communicator, perf: PerfCounters, outboxes: list, span_name: str,
    attrs: dict[str, Any], runs: Any = None,
) -> list:
    """The exchange collective of ``outboxes`` — or, when the exchange
    spilled into ``runs``, of their manifests — stamped on the current job
    (category ``shuffle``, or ``spill`` as ``spill-<span_name>``)."""
    category = "shuffle"
    if runs is not None:
        outboxes, span_name, category = runs.finish(), f"spill-{span_name}", "spill"
    with perf.timed(span_name, category, attrs):
        return comm.alltoall(outboxes)


def _flat(datasets: list, schema: Any) -> Dataset:
    """``datasets`` of ``schema`` concatenated in order as one flat dataset."""
    flats = [d.to_flat() for d in datasets if len(d)]
    if not flats:
        return Dataset(schema=schema, records=np.empty(0, dtype=schema.dtype))
    return concat(flats) if len(flats) > 1 else flats[0]


def _key_sample(source: Any, key: str) -> np.ndarray:
    """The keys a range exchange samples its cut from: the whole column of
    a resident source, every ``stride``-th key of one that streams — about
    four times the :data:`KEY_SAMPLE_SIZE` the cut draws from anyway."""
    if not hasattr(source, "chunks"):
        return np.asarray(source.column(key))
    stride = max(1, len(source) // (4 * KEY_SAMPLE_SIZE))
    parts = [np.empty(0, dtype=source.schema.dtype[key])]
    pos = 0
    for chunk in source.chunks():
        column = chunk.records[key]
        parts.append(column[(-pos) % stride :: stride])
        pos += len(column)
    return np.concatenate(parts)


def bucketize(owners: np.ndarray, num_buckets: int) -> list[np.ndarray]:
    """:func:`repro.mapreduce.columnar.bucketize`, imported by the first
    exchange of records: a run that exchanges none never loads the kernels."""
    from repro.mapreduce.columnar import bucketize as kernel

    return kernel(owners, num_buckets)


def _reduce_received(op: Any, inbox: list, schema: Any, ctx: Any) -> Any:
    """The operator's local kernel over what a range exchange received, in
    source-rank order: datasets, or — ``ctx`` given — the manifests of
    spilled run files.

    A plain sort whose received runs exceed the budget too is an external
    merge sort — one frame per run plus one output block resident —
    filling the one array the next job reads.  Everything else
    materializes what arrived first: a sort with an add-on packs its
    output, and a group's pack is pointer-rich, not fixed-width — there the
    budget bounds the *exchange*, which dominates.
    """
    if ctx is None:
        return op.apply_local(_flat(inbox, schema))
    from repro.ooc.spill import concat_manifest_values, drain_frames

    nbytes = sum(m.nbytes for m in inbox if m is not None)
    if isinstance(op, Sort) and op.addon is None and ctx.should_spill(nbytes):
        from repro.ooc.extsort import external_sort_records

        frames = (frame.values for frame in drain_frames(inbox))
        return external_sort_records(frames, op.key, op.ascending, ctx, schema).materialize()
    return op.apply_local(
        Dataset(schema=schema, records=concat_manifest_values(inbox, schema.dtype))
    )


def _local_sort(job: PlannedJob, choice: Physical, source: Any, ctx: Any) -> Any:
    """A sort on one rank, where nothing is exchanged, as ``choice.spill``
    says; ``ctx`` is the budget's ``OOCContext`` or ``None``.

    A ``narrow`` sort reads only its key column of rows fetchable by index
    (an in-memory dataset, a fixed-width input file through a read-only
    mapping, another sort's view or spilled runs) and returns row ids; under
    a budget it spills narrow (key, row id) runs only when its own peak
    (``Sort.narrow_bytes``) exceeds it.  A ``records`` sort spills whole
    records under a budget, unless its input is packed or it has an add-on.
    """
    op = job.operator
    from_runs = hasattr(source, "row_ids")  # a spilled sort's runs
    if choice.spill == "narrow":
        got = (source.rows, None) if from_runs else source.indexed_rows()
        if got is None or got[0] is None:
            raise _internal(job, choice, "rows it cannot fetch by row id")
        rows, ids = got
        weight = source.nbytes if from_runs else op.narrow_bytes(
            len(source), rows, composed=ids is not None)
        if ctx is None or not ctx.should_spill(weight):
            return op.apply_local(resident(source) if from_runs else source)
        from repro.ooc.extsort import external_sort_rows

        ids = source.row_ids() if from_runs else ids
        return external_sort_rows(rows, ids, op.key, op.ascending, ctx, source.schema)
    if (ctx is None or source.is_packed or op.addon is not None
            or not ctx.should_spill(source.nbytes)):
        return op.apply_local(resident(source))
    from repro.ooc.chunked import iter_dataset_chunks
    from repro.ooc.extsort import external_sort_records

    schema = source.schema
    chunks = iter_dataset_chunks(source, ctx.chunk_records(schema.itemsize))
    return external_sort_records(
        (chunk.records for chunk in chunks), op.key, op.ascending, ctx, schema
    )


def _records(source: Any) -> int:
    """The records in ``source``, a packed stream's groups' included (a
    spilled sort's runs count only their length)."""
    return source.num_records if hasattr(source, "num_records") else len(source)


def _positions(comm: Communicator, n_local: int) -> tuple[int, int]:
    """``(first global position, total)`` of a stream whose entries are
    ``n_local`` on this rank: an exclusive scan and a sum over the ranks,
    which one rank answers alone."""
    if comm.size == 1:
        return 0, n_local
    from repro.mpi import SUM

    return comm.exscan(n_local, SUM, identity=0), comm.allreduce(n_local, SUM)


class MPIRuntime:
    """Execution of a plan: the rank program every backend runs.

    ``mpi`` runs it on the simulated MPI runtime's rank threads; subclasses
    change only what the class attributes and the hooks below expose —
    :meth:`_reducers` and the cost model for ``mapreduce``, :meth:`_launch`
    for ``process`` and ``serial``.
    """

    #: backend label recorded on the plan span
    backend_name = "mpi"
    #: whether the physical plan is the SPMD one (jobs exchange across
    #: ranks) or the one-rank plan, where every job is local
    spmd = True
    #: whether retry backoff is slept for real instead of priced (true when
    #: ranks are real processes that really die)
    wall_clock_recovery = False
    #: the module :meth:`_launch` runs the ranks on, imported before the plan
    #: span opens (its first import is start-up, not launch); ``None`` when
    #: the ranks need no substrate
    substrate: Optional[str] = "repro.mpi.launcher"

    def __init__(
        self,
        num_ranks: int,
        cluster: Optional[ClusterModel] = None,
        *,
        faults: Any = None,
        chaos_seed: int = 0,
        checkpoint: Optional[CheckpointStore] = None,
        retry: Optional[RetryPolicy] = None,
        deadlock_grace: Optional[float] = None,
        recorder: Optional["Recorder"] = None,
        memory_budget: Any = None,
    ) -> None:
        if cluster is not None and cluster.size != num_ranks:
            raise WorkflowError(
                f"cluster model has {cluster.size} ranks, runtime asked for {num_ranks}"
            )
        self.num_ranks = num_ranks
        self.cluster = cluster
        #: normalized fault schedule (``None`` when no faults were configured)
        self.faults = None
        if faults is not None:
            from repro.fault.schedule import FaultSchedule

            self.faults = FaultSchedule.coerce(faults)
        self.chaos_seed = chaos_seed
        self.checkpoint = checkpoint
        self.retry = retry
        self.deadlock_grace = deadlock_grace
        #: optional span/metrics recorder, written by the driver alone
        self.recorder = recorder
        #: raw memory-budget spec ("64MB" / bytes / MemoryBudget / None);
        #: parsed lazily so repro.ooc is never imported when it is None
        self.memory_budget = memory_budget

    @property
    def fault_tolerant(self) -> bool:
        """True when any fault-tolerance feature was configured."""
        return (
            bool(self.faults) or self.checkpoint is not None or self.retry is not None
        )

    # -- driver side ----------------------------------------------------------

    def execute(
        self,
        plan: WorkflowPlan,
        input_data: Dataset,
        part_writer: Optional[PartWriter] = None,
        output: Optional[str] = None,
    ) -> PartitionResult:
        """Run ``plan`` over ``input_data`` on :attr:`num_ranks` ranks.

        With a ``part_writer`` (a file-to-file run) the ranks write the
        partitions in place when the final deal is planned to; the returned
        partitions are then read-only views of the published part files.
        ``output="text"`` marks a run whose caller writes text part files.
        """
        choices = run_plan(plan, input_data, self.spmd, part_writer, output)
        for job in plan.jobs:
            if self.spmd and isinstance(job.operator, Distribute):
                # every rank deals its own window of positions: refuse a
                # permutation-defined policy here, before anything is launched
                job.operator.policy.require_positional()
        rank_kwargs: dict[str, Any] = {"choices": choices}
        spill_dir: Optional[str] = None
        if self.memory_budget is not None:
            import tempfile

            from repro.ooc.budget import MemoryBudget

            # run files are execution-scoped: every rank spills into one
            # directory the driver removes on the way out
            spill_dir = tempfile.mkdtemp(prefix="papar-spill-")
            rank_kwargs["ooc_spec"] = (MemoryBudget.coerce(self.memory_budget), spill_dir)
        if part_writer is not None:
            rank_kwargs["part_writer"] = part_writer
        # the launcher and a fault-tolerant run's recovery layer load before
        # the plan span opens: the span times the run, not its imports
        if self.substrate is not None:
            importlib.import_module(self.substrate)
        recovery = self._recovery(plan, input_data) if self.fault_tolerant else None
        plan_span = (
            self.recorder.span(
                f"plan:{plan.workflow_id}",
                category="plan",
                attrs={"backend": self.backend_name, "ranks": self.num_ranks},
            )
            if self.recorder is not None
            else nullcontext()
        )
        try:
            with plan_span as root:
                run, fault_report = self._execute_spmd(plan, input_data, rank_kwargs, recovery)
            # each rank returns ({partition_id: Dataset, or its record count
            # when the ranks wrote the parts in place}, its perf counters)
            merged: dict[int, Any] = {}
            for rank_out, _perf in run.results:
                merged.update(rank_out)
            perfs = [perf for _out, perf in run.results]
            perf = PerfCounters.merge_ranks(perfs)
            perf.output = _tail_output(choices[plan.final_job.op_id], merged, part_writer)
            if perf.output.get("mode") == "in_place":
                # every rank reported ok: the parts appear, all at once, and
                # the partitions are read-only views of the files
                from repro.formats.binary import map_binary

                schema = part_writer.schema
                partitions = [Dataset(schema=schema, records=map_binary(path, schema))
                              for path in part_writer.publish(len(merged))]
            else:
                partitions = [merged[p] for p in sorted(merged)]
        except BaseException:
            if part_writer is not None:
                part_writer.discard()
            raise
        finally:
            if spill_dir is not None:
                import shutil

                shutil.rmtree(spill_dir, ignore_errors=True)
        extra: dict[str, Any] = {"perf": perf.summary()}
        transport = run.extra.get("transport")
        if transport is not None:
            extra["perf"]["transport"] = transport
        elapsed = 0.0
        if self.cluster is not None:
            elapsed = self._price([list(job) for job in zip(*(p.jobs for p in perfs))],
                                  fault_report)
        if fault_report is not None:
            extra["fault"] = fault_report
        if self.recorder is not None:
            from repro.obs.adapters import record_fault_report, record_perf, record_ranks

            record_ranks(self.recorder, root, plan.jobs, perfs)
            record_perf(self.recorder, extra["perf"])
            record_fault_report(self.recorder, fault_report)
            extra["obs"] = self.recorder
        sent = [slot for p in perfs for job in p.jobs for slot in job.sent.values()]
        return PartitionResult(
            partitions=partitions,
            elapsed=elapsed,
            bytes_moved=sum(nbytes for nbytes, _messages in sent),
            messages=sum(messages for _nbytes, messages in sent),
            extra=extra,
        )

    def _price(self, jobs: list[list[JobCounts]], fault_report: Optional[dict[str, Any]]) -> float:
        """The simulated seconds of a run whose rank ``r`` counted
        ``jobs[i][r]`` in job ``i``: a straggler's counts carry its
        slowdown, and the retry backoff and the fired message delays are
        line items after the jobs."""
        from repro.cluster.model import price

        slowdowns = self.faults.slowdowns if self.faults else {}
        for job in jobs:
            for rank, factor in slowdowns.items():
                if rank < len(job):
                    job[rank].slowdown = factor
        report = fault_report or {}
        items = [report.get("backoff_s", 0.0), report.get("injected", {}).get("delayed_s", 0.0)]
        return price(jobs + items, self._cost_model())

    def _cost_model(self) -> ClusterModel:
        """The cluster model the run is priced on: the one it was given."""
        return self.cluster

    def _recovery(self, plan: WorkflowPlan, input_data: Dataset) -> tuple[Any, Any, str]:
        """The recovery loop, the fault injector (or ``None``) and the plan's
        checkpoint fingerprint of a fault-tolerant run."""
        from repro.fault.checkpoint import plan_fingerprint
        from repro.fault.injector import FaultInjector
        from repro.fault.runner import execute_with_recovery

        injector = FaultInjector(self.faults, seed=self.chaos_seed) if self.faults else None
        return execute_with_recovery, injector, plan_fingerprint(plan, input_data, self.num_ranks)

    def _execute_spmd(
        self,
        plan: WorkflowPlan,
        input_data: Dataset,
        rank_kwargs: dict[str, Any],
        recovery: Optional[tuple[Any, Any, str]] = None,
    ) -> tuple[MPIRun, Optional[dict[str, Any]]]:
        """Launch the rank program, under :meth:`_recovery`'s loop when given.

        Returns ``(run, fault_report)``; the report is ``None`` for a plain
        run, which goes straight to :meth:`_launch`.
        """
        if recovery is None:
            return self._launch(plan, input_data, rank_kwargs), None
        execute_with_recovery, injector, fingerprint = recovery

        def attempt(resume: int) -> MPIRun:
            return self._launch(
                plan,
                input_data,
                {
                    **rank_kwargs,
                    "checkpoint": self.checkpoint,
                    "resume": resume,
                    "fingerprint": fingerprint,
                },
                fault_injector=injector,
            )

        return execute_with_recovery(
            attempt,
            plan=plan,
            fingerprint=fingerprint,
            size=self.num_ranks,
            store=self.checkpoint,
            retry=self.retry,
            injector=injector,
            seed=self.chaos_seed,
            recorder=self.recorder,
            wall_clock=self.wall_clock_recovery,
        )

    def _launch(
        self,
        plan: WorkflowPlan,
        input_data: Dataset,
        rank_kwargs: dict[str, Any],
        fault_injector: Optional[FaultInjector] = None,
    ) -> MPIRun:
        """One SPMD attempt: :meth:`_rank_program` on every rank (threads here)."""
        from repro.mpi import run_mpi

        return run_mpi(
            self._rank_program,
            self.num_ranks,
            args=(plan, input_data),
            kwargs=rank_kwargs,
            fault_injector=fault_injector,
            deadlock_grace=self.deadlock_grace,
        )

    # -- per-rank program ------------------------------------------------------

    def _rank_program(
        self,
        comm: Communicator,
        plan: WorkflowPlan,
        input_data: Dataset,
        checkpoint: Optional[CheckpointStore] = None,
        resume: int = 0,
        fingerprint: str = "",
        ooc_spec: Any = None,
        part_writer: Optional[PartWriter] = None,
        choices: Optional[dict[str, Physical]] = None,
    ) -> tuple[dict[int, Any], PerfCounters]:
        perf = PerfCounters()
        if checkpoint is not None:
            from repro.fault.checkpoint import job_key
        ctx = None
        if ooc_spec is not None:
            from repro.ooc.spill import OOCContext

            budget, spill_dir = ooc_spec
            ctx = OOCContext(budget, spill_dir, rank=comm.rank)
        local: Any = _dataset_rows_per_rank(input_data, comm.rank, comm.size)
        outputs: dict[str, Any] = {}
        final: Any = None
        for i, job in enumerate(plan.jobs):
            if i < resume:
                # job fully committed by a previous attempt: restore its
                # output and its counts instead of recomputing
                saved = checkpoint.load(job_key(fingerprint, i, job.op_id, comm.rank))
                final = saved["output"]
                outputs[job.op_id] = final
                perf.restore(saved["counts"])
                continue
            source = job_input(job, outputs, local)
            whole = input_data if source is local else None
            comm.check_fault(i, "before")
            job_mark = ctx.manifest_mark() if ctx is not None else 0
            with perf.job(job.operator_name.lower()) as counts:
                final = self._run_job(
                    comm, job, choices[job.op_id], source, perf, ctx,
                    part_writer if job is plan.final_job else None, whole,
                )
            counts.sent, counts.packed = comm.take_traffic()
            outputs[job.op_id] = final
            # an "after" crash fires before the checkpoint commits, so the
            # next attempt re-runs this job on every rank
            comm.check_fault(i, "after")
            # a deal written in place is not checkpointed: its output is the
            # part files, and offset writes are idempotent, so a restart
            # redoes it from the previous job's checkpoint
            if checkpoint is not None and choices[job.op_id].tail != "in place":
                payload = {"output": final, "counts": counts}
                if ctx is not None:
                    payload["ooc"] = {"manifests": ctx.manifests_since(job_mark)}
                checkpoint.save(
                    job_key(fingerprint, i, job.op_id, comm.rank), payload
                )
        if not isinstance(final, dict):
            if self.spmd:
                raise WorkflowError(
                    f"workflow {plan.workflow_id!r} must end with a Distribute job"
                )
            # one rank may end in a sort, a group or a split: its output
            # (read before the spill directory goes) is the partitions
            final = resident(final)
            final = dict(enumerate([final] if isinstance(final, Dataset) else final))
        if ctx is not None:
            ctx.fold_into(perf)
        return final, perf

    def _run_job(
        self,
        comm: Communicator,
        job: PlannedJob,
        choice: Physical,
        source: Any,
        perf: PerfCounters,
        ctx: Any,
        part_writer: Optional[PartWriter] = None,
        whole: Any = None,
    ) -> Any:
        """One job on one rank, down the path ``choice`` names; ``ctx`` is
        the rank's ``OOCContext`` or ``None``, ``part_writer`` the run's
        output files when ``job`` is the final one of a file-to-file run,
        ``whole`` the run's input when ``source`` is this rank's block of it."""
        op = job.operator
        if choice.exchange == "cut":
            from repro.core.word_exchange import word_sort

            indexed = getattr(whole, "indexed_rows", None)
            indexed = indexed() if indexed is not None else None
            if indexed is None or indexed[1] is not None:
                raise _internal(job, choice, "an input it cannot cut")
            view = word_sort(
                comm, op, indexed[0], whole.schema, self._reducers(job, comm), perf, ctx
            )
            perf.paths[job.op_id] = "cut"
            perf.count_kernel("sort", len(view))
            return view
        if choice.tail == "gathered" and choice.exchange == "none":
            # one rank holds every stream: the operator's own deal, which
            # takes a permutation-defined policy too; what streams is dealt
            # as it streams
            perf.paths[job.op_id] = choice.path
            streams = source if isinstance(source, (list, tuple)) else [source]
            perf.count_kernel("stream", sum(_records(s) for s in streams))
            return dict(enumerate(op.apply_local(source)))
        if isinstance(op, Distribute):
            return self._distribute_job(comm, job, choice, source, perf, ctx, part_writer)
        if choice.exchange == "records":
            sort = isinstance(op, Sort)
            out = self._range_job(
                comm, op, source, perf, ctx, op.ascending if sort else True,
                self._reducers(job, comm), kernel="sort" if sort else "hash_group",
            )
            perf.paths[job.op_id] = "records"
            return out
        if choice.spill is not None:  # a sort on one rank: nothing to exchange
            perf.paths[job.op_id] = choice.spill
            perf.count_kernel("sort", _records(source))
            return _local_sort(job, choice, source, ctx)
        data = resident(source)
        if is_basic(op, "split"):
            # a map-only job: routing is local, no exchange
            perf.count_kernel("stream", data.num_records)
        elif is_basic(op, "group"):  # a group on one rank
            perf.count_kernel("hash_group", data.num_records)
        # Split, a group on one rank, or a user-registered basic operator:
        # run the local kernel
        return op.apply_local(data)

    def _reducers(self, job: PlannedJob, comm: Communicator) -> int:
        """Reducer count of a range exchange: one per rank.

        The raw-MPI mapping has no reducer notion, so a workflow's
        ``num_reducers`` is ignored here (with the shipped value of 3 a
        2-rank run would otherwise split its data 2/3 : 1/3).
        """
        return comm.size

    @staticmethod
    def _spills(comm: Communicator, ctx: Any, source: Any, kind: str) -> Any:
        """The run files an exchange's outbox is instead of in-memory lists,
        or ``None`` — decided collectively, so every rank takes the same
        path: does any rank's working set exceed the budget?

        Always ``None`` without a budget.  Packed streams cannot be framed
        as fixed-width records, so they stay in memory without asking.
        """
        if ctx is None or source.is_packed:
            return None
        from repro.mpi import MAX

        if comm.allreduce(int(source.nbytes), MAX) <= ctx.budget.limit:
            return None
        from repro.ooc.spill import SpillableShuffle

        return SpillableShuffle(ctx, comm.size, source.schema.dtype, kind=kind)

    # -- range exchange: Sort (Figure 9, job 1) and Group (Figure 11, job 1) ----

    def _range_job(
        self,
        comm: Communicator,
        op: Any,
        source: Any,
        perf: PerfCounters,
        ctx: Any,
        ascending: bool,
        reducers: int,
        kernel: str,
    ) -> Dataset:
        """Sample key ranges, shuffle each entry to its range's owner, run
        the operator's local kernel on what arrived.

        Key *ranges* (not hashes) also route Group: they keep the global
        group order ascending by key — the canonical order the serial
        ``pack`` kernel produces — so the final partitions are identical for
        every rank count (the paper's correctness requirement).  Reducers
        map onto ranks contiguously, so rank-major order stays globally
        sorted for any reducer count.  A resident source is one chunk, one
        that streams is bucketized a chunk at a time; either way each
        destination's pieces wait in memory or in its run file
        (:meth:`_spills`).  Bit-identity holds either way: bucketization is
        stable and chunks keep input order, and the cut only steers
        placement — the partitions depend on global order alone.
        """
        from repro.mapreduce.partitioner import RangePartitioner

        chunked = hasattr(source, "chunks")
        source = source if chunked else resident(source)
        sample = sort_key_array(_key_sample(source, op.key), ascending)
        cut = RangePartitioner.sampled(comm, sample, reducers, KEY_SAMPLE_SIZE)
        runs = self._spills(comm, ctx, source, "range")
        boxes: list[list[Dataset]] = [[] for _ in range(comm.size)]
        for chunk in source.chunks() if chunked else [source]:
            sort_keys = sort_key_array(np.asarray(chunk.column(op.key)), ascending)
            owners = cut.partition_array(sort_keys) * comm.size // reducers
            for dest, idx in enumerate(bucketize(owners, comm.size)):
                piece = chunk.take(idx)
                perf.count_move(len(piece), piece.nbytes)
                if runs is None:
                    boxes[dest].append(piece)
                else:
                    runs.append(dest, piece.records)
        inbox = _alltoall(
            comm, perf, [box[0] if len(box) == 1 else _flat(box, source.schema) for box in boxes],
            "shuffle", {"records": len(source), "nbytes": source.nbytes}, runs,
        )
        perf.count_kernel(kernel, sum(box.num_records for box in inbox if box is not None))
        return _reduce_received(op, inbox, source.schema, None if runs is None else ctx)

    # -- distribute (Figures 9/11, last job) -----------------------------------

    def _distribute_job(
        self,
        comm: Communicator,
        job: PlannedJob,
        choice: Physical,
        source: Any,
        perf: PerfCounters,
        ctx: Any,
        part_writer: Optional[PartWriter] = None,
    ) -> dict[int, Any]:
        """Deal every stream's entries to their partitions.

        Each rank cuts its window of a stream's global positions into
        pieces with the policy's rule (:func:`deal_into`, a budget's window
        at a time).  Planned ``in place`` (see
        :func:`~repro.core.physical.physical_plan`), a piece is written
        straight to its slot of its part, the partition's owner rank
        (``p % size``) seals the file, and the job returns ``{partition:
        record count}``.

        Planned ``gathered``, the partition id is the temporary reduce-key
        ("the reducer id is used as the reduce-key"): each stream is
        exchanged on its own — its outbox in memory or in run files
        (:meth:`_spills`) — as ``(partition, entries)`` pieces, and each
        owner returns ``{partition: Dataset}``, the pieces concatenated as
        they arrived.  That is position order: ranks hold ascending windows,
        a rank deals its own in position order, and the exchange keeps
        source-rank and append order.
        """
        op = job.operator
        streams = list(source) if isinstance(source, (list, tuple)) else [source]
        num_p = op.num_partitions
        in_place = choice.tail == "in place"
        if in_place and part_writer is None:
            raise _internal(job, choice, "no part files to write into")

        def write(p: int, slot: int, piece: Dataset) -> None:
            part_writer.write(p, slot, piece.records)

        base = np.zeros(num_p, dtype=np.int64)
        per_partition: dict[int, list[Dataset]] = {}
        for stream_idx, stream in enumerate(streams):
            n_local = len(stream)
            offset, total = _positions(comm, n_local)
            window = ctx.chunk_records(stream.schema.itemsize) if ctx is not None else None
            if in_place:
                with perf.timed("write", "io", {"stream": stream_idx, "records": n_local}):
                    deal_into(op, stream, write, base, offset, total, window, perf)
                continue
            runs = self._spills(comm, ctx, stream, "dist")
            boxes: list[list[tuple[int, Dataset]]] = [[] for _ in range(comm.size)]

            def put(p: int, _slot: int, piece: Dataset) -> None:
                if runs is None:
                    boxes[p % comm.size].append((p, piece))
                else:  # a keyless frame: the partition rides in the tag
                    runs.append(p % comm.size, piece.records, tag=p)

            deal_into(op, stream, put, base, offset, total, window, perf)
            inbox = _alltoall(
                comm, perf, boxes, "distribute-shuffle",
                {"stream": stream_idx, "records": n_local, "nbytes": stream.nbytes}, runs,
            )
            if runs is None:
                arrived = [entry for box in inbox for entry in box]
            else:
                from repro.ooc.spill import drain_frames

                arrived = [
                    (f.tag, Dataset(schema=stream.schema, records=f.values))
                    for f in drain_frames(inbox)
                ]
            for p, chunk in arrived:
                per_partition.setdefault(p, []).append(chunk)
        owned = range(comm.rank, num_p, comm.size)
        perf.paths[job.op_id] = "in place" if in_place else f"gathered ({choice.reason})"
        if in_place:
            counts = {p: int(base[p]) for p in owned}
            for p, count in counts.items():
                part_writer.finish(p, count)
            return counts
        result: dict[int, Dataset] = {}
        for p in owned:
            chunks = per_partition.get(p, [])
            perf.count_kernel("stream", sum(c.num_records for c in chunks))
            result[p] = _flat(chunks, streams[0].schema)
        return result


class OneRank:
    """The communicator of a run on one rank, in the calling thread.

    There is no one to exchange with: the one-rank physical plan exchanges
    nothing, and what the rank program asks every rank (:func:`_positions`)
    one rank answers alone.  No traffic is tallied and no fault fires.
    """

    rank = 0
    size = 1

    def check_fault(self, job_index: int, when: str) -> None:
        """No fault is scheduled on one rank."""

    def take_traffic(self) -> tuple[dict[int, list[int]], int]:
        """Nothing was sent."""
        return {}, 0


class _InlineRun:
    """What :meth:`MPIRuntime.execute` reads of a launch, for one rank run
    inline: its result, and no launcher report."""

    def __init__(self, results: list) -> None:
        self.results = results
        self.extra: dict[str, Any] = {}


class SerialRuntime(MPIRuntime):
    """The rank program on one rank, run in the calling thread.

    No thread, no fabric and no ``repro.mpi``; the plan is the one-rank
    physical plan (``spmd=False``), so a sort of any key is local — narrow
    wherever rows are fetchable by index — and a gathered deal is the
    operator's own, which also takes a permutation-defined policy.  It
    runs one rank: a rank count other than 1 (or a cluster model of more
    ranks) is refused, as is fault tolerance; a one-rank cluster model
    prices the run like any backend's.  The chaos seed and the deadlock
    grace :meth:`repro.PaPar.run` hands every backend mean nothing here.
    """

    backend_name = "serial"
    spmd = False
    substrate = None

    def __init__(
        self,
        recorder: Optional["Recorder"] = None,
        memory_budget: Any = None,
        *,
        num_ranks: int = 1,
        cluster: Any = None,
        faults: Any = None,
        checkpoint: Any = None,
        retry: Any = None,
        **_spmd_options: Any,
    ) -> None:
        if num_ranks != 1:
            raise WorkflowError(
                f"the serial backend runs one rank, got {num_ranks} rank(s); "
                "use 'mpi' for simulated ranks"
            )
        if faults is not None or checkpoint is not None or retry is not None:
            raise WorkflowError(
                "fault tolerance needs an SPMD backend; use 'mpi' or "
                "'mapreduce' (or 'process' for checkpoint/retry recovery)"
            )
        super().__init__(1, cluster, recorder=recorder, memory_budget=memory_budget)

    def _launch(
        self,
        plan: WorkflowPlan,
        input_data: Dataset,
        rank_kwargs: dict[str, Any],
        fault_injector: Optional[FaultInjector] = None,
    ) -> MPIRun:
        """The rank program, here, on :class:`OneRank`."""
        return _InlineRun([self._rank_program(OneRank(), plan, input_data, **rank_kwargs)])


#: where each backend's runtime class lives; imported on selection, so a
#: backend never loads another's machinery (pinned by fresh-interpreter tests)
_RUNTIMES = {
    "serial": ("repro.core.runtime", "SerialRuntime"),
    "mpi": ("repro.core.runtime", "MPIRuntime"),
    "mapreduce": ("repro.core.mr_runtime", "MapReduceRuntime"),
    "process": ("repro.core.process_runtime", "ProcessRuntime"),
}


def execute_plan(
    plan: WorkflowPlan,
    data: Any,
    backend: str = "serial",
    num_ranks: int = 1,
    part_writer: Optional[PartWriter] = None,
    output: Optional[str] = None,
    **options: Any,
) -> PartitionResult:
    """Execute ``plan`` over ``data`` on ``backend`` (``repro run``, ``serve``
    and :meth:`repro.PaPar.run`, which documents the runtime ``options``)."""
    if backend not in _RUNTIMES:
        raise WorkflowError(
            f"unknown backend {backend!r}; use 'serial', 'mpi', 'mapreduce' or 'process'"
        )
    module, class_name = _RUNTIMES[backend]
    runtime_class = getattr(importlib.import_module(module), class_name)
    return runtime_class(num_ranks=num_ranks, **options).execute(
        plan, data, part_writer=part_writer, output=output
    )
