"""Workflow execution backends.

Two executors run the same :class:`~repro.core.planner.WorkflowPlan`:

* :class:`SerialRuntime` — single-process reference execution: each job's
  kernel is applied to the whole dataset.  Used for correctness baselines
  and by generated single-node partitioners.
* :class:`MPIRuntime` — the SPMD plan executor.  One rank program serves
  the ``mpi``, ``mapreduce`` and ``process`` backends, mirroring the paper's
  mapping of the formalization onto MPI / MR-MPI: sort and group jobs are
  one *range exchange* (sample + range-shuffle + local kernel, Figures 9
  and 11), distribute jobs compute global entry positions with an exclusive
  scan and deal each rank's window of them by position (the policy's
  :meth:`~repro.policies.distr.DistributionPolicy.pieces`) to the partition
  owners.
  What differs between the backends is data on a subclass — the backend
  label, the reducer count, the cost profile
  (:class:`~repro.core.mr_runtime.MapReduceRuntime`) and the launcher
  (:class:`~repro.core.process_runtime.ProcessRuntime`).

Every backend produces identical partitions (tested); the SPMD backends
additionally report simulated time and shuffle volume when a cluster model
is attached.  The range exchange cuts keys with a
:class:`~repro.mapreduce.partitioner.RangePartitioner` and bucketizes through
:func:`repro.mapreduce.columnar.bucketize` — one stable order instead of a
per-destination ``flatnonzero`` scan — and every backend threads a
:class:`~repro.mapreduce.columnar.PerfCounters` through
``PartitionResult.extra["perf"]`` (``python -m repro run --stats``).

File-to-file runs (:func:`repro.core.files.partition_files`): the input is
a file-backed source (:class:`~repro.formats.binary.BinaryInputFormat`), so
every rank reads its own byte range, and the SPMD executor is handed a
:class:`~repro.formats.binary.PartWriter`.  When the final ``Distribute``
deals flat streams of the schema being written, each rank ``pwrite``s its
pieces where they belong in the part files — no second exchange, nothing
gathered to the driver; otherwise (a memory budget, a packed stream, or
records widened by group add-ons) the deal ships its pieces to the
partitions' owners and the driver writes what they return
(``extra["perf"]["output"]`` says which tail ran, and why).

Out-of-core (see :mod:`repro.ooc`): with a ``memory_budget`` each exchange
asks one collective question — does any rank's working set exceed the
budget? — and then moves either ``Dataset`` chunks through ``alltoall`` or
run files through :mod:`repro.ooc.exchange`.  Both strategies feed the same
local kernels and the same partition assembly.  Without a budget
``repro.ooc`` is never imported.

Fault tolerance (see :mod:`repro.fault`): the SPMD backends accept a fault
schedule, a checkpoint store, and a retry policy.  Failed attempts (injected
crashes, lost/corrupted messages, deadlocks) are retried with virtual-time
backoff, resuming from the last job every rank checkpointed; the recovery
report lands in ``PartitionResult.extra["fault"]``.  Without any of those
arguments the execution path is byte-for-byte the plain one — a fault-free
run pays nothing.

Observability (see :mod:`repro.obs`): every backend accepts a ``recorder``.
When one is attached the run is recorded as a span tree (plan → per-rank
job spans → shuffle spans, with virtual *and* wall time), the communicator
charge points feed idle/byte counters, and the recorder lands in
``PartitionResult.extra["obs"]`` for export (``--trace`` / ``--metrics`` /
``--timeline`` on the CLI).  Without a recorder none of this code runs.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.core.dataset import Dataset, concat
from repro.core.planner import PlannedJob, WorkflowPlan
from repro.errors import WorkflowError
from repro.mapreduce.columnar import PerfCounters, bucketize
from repro.ops.distribute import Distribute
from repro.ops.group import Group
from repro.ops.sort import Sort, sort_key_array
from repro.ops.split import Split

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


@dataclass
class PartitionResult:
    """Output of one workflow execution."""

    partitions: list[Dataset]
    #: simulated seconds (0.0 when no cluster model was attached)
    elapsed: float = 0.0
    #: bytes moved through the fabric (MPI backend only)
    bytes_moved: int = 0
    messages: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

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


def _dataset_rows_per_rank(data: Dataset, rank: int, size: int) -> Dataset:
    """Contiguous block decomposition preserving global entry order."""
    n = len(data)
    base, extra = divmod(n, size)
    start = rank * base + min(rank, extra)
    length = base + (1 if rank < extra else 0)
    if hasattr(data, "slice_view"):
        # an out-of-core ChunkedDataset: hand the rank a row-range view
        # instead of materializing its block (duck-typed so repro.ooc is
        # never imported on the in-memory path)
        return data.slice_view(start, length)
    if data.is_packed:
        return data.take(np.arange(start, start + length))
    # flat records: a slice view, no index vector and no copy per rank
    return Dataset(schema=data.schema, records=data.records[start : start + length])


def resident(source: Any) -> Any:
    """``source`` as in-memory data: an out-of-core view is materialized.

    Duck-typed like :func:`_dataset_rows_per_rank`; in-memory datasets and
    lists of split outputs pass through.
    """
    materialize = getattr(source, "materialize", None)
    return source if materialize is None else materialize()


def job_input(
    job: PlannedJob,
    index: int,
    plan: WorkflowPlan,
    outputs: dict[str, Any],
    input_data: Dataset,
) -> Any:
    """What ``job`` consumes: the input, or (selected outputs of) its source job."""
    if job.source is None:
        if index != 0 and outputs:
            # fall back to chaining from the previous job
            prev = plan.jobs[index - 1].op_id
            return outputs[prev]
        return input_data
    val = outputs[job.source]
    if isinstance(val, list) and job.source_outputs:
        picked = [val[i] for i in job.source_outputs]
        return picked if len(picked) > 1 else picked[0]
    return val


class SerialRuntime:
    """Single-process reference execution of a plan."""

    def __init__(
        self,
        recorder: Optional["Recorder"] = None,
        memory_budget: Any = None,
    ) -> None:
        self.recorder = recorder
        #: raw memory-budget spec; parsed lazily (repro.ooc stays unimported
        #: when it is None)
        self.memory_budget = memory_budget

    def execute(self, plan: WorkflowPlan, input_data: Dataset) -> PartitionResult:
        perf = PerfCounters()
        rec = self.recorder
        ctx = spill_dir = None
        if self.memory_budget is not None:
            import tempfile

            from repro.ooc.budget import MemoryBudget
            from repro.ooc.spill import OOCContext

            spill_dir = tempfile.mkdtemp(prefix="papar-spill-")
            ctx = OOCContext(MemoryBudget.coerce(self.memory_budget), spill_dir)
        if ctx is None:
            # a file-backed source is read here, whole, in one go
            input_data = resident(input_data)
        try:
            outputs: dict[str, Any] = {}
            with (
                rec.span(f"plan:{plan.workflow_id}", category="plan",
                         attrs={"backend": "serial", "ranks": 1})
                if rec is not None
                else nullcontext()
            ) as root:
                for i, job in enumerate(plan.jobs):
                    source = job_input(job, i, plan, outputs, input_data)
                    span = (
                        rec.span(job.op_id, category="job", rank=0, parent=root,
                                 attrs={"job_index": i,
                                        "operator": job.operator_name.lower()})
                        if rec is not None
                        else nullcontext()
                    )
                    with perf.phase(job.operator_name.lower()), span:
                        if ctx is not None:
                            outputs[job.op_id] = self._apply_ooc(
                                job.operator, source, ctx
                            )
                        else:
                            outputs[job.op_id] = job.operator.apply_local(source)
            # a sort that ends the plan leaves a sorted-runs view: read it
            # before the spill directory goes
            final = resident(outputs[plan.final_job.op_id])
            if isinstance(final, Dataset):
                final = [final]
            if ctx is not None:
                ctx.fold_into(perf)
            extra: dict[str, Any] = {"perf": perf.summary()}
            if rec is not None:
                from repro.obs.adapters import record_perf

                record_perf(rec, extra["perf"])
                extra["obs"] = rec
            return PartitionResult(partitions=list(final), extra=extra)
        finally:
            if spill_dir is not None:
                import shutil

                shutil.rmtree(spill_dir, ignore_errors=True)

    @staticmethod
    def _apply_ooc(op: Any, source: Any, ctx: Any) -> Any:
        """Run one operator under a budget.

        A sort that must spill forms its runs here and returns them as a
        lazy sorted-runs view; ``Distribute`` deals whatever streams
        (that view, or a chunked input) without materializing it; every
        other operator gets its input resident.
        """
        if isinstance(op, Distribute):
            return op.apply_local(source)
        spillable = (
            isinstance(op, Sort)
            and op.addon is None
            and not bool(getattr(source, "is_packed", False))
            and ctx.should_spill(source.nbytes)
        )
        if not spillable:
            return op.apply_local(resident(source))
        from repro.ooc.chunked import iter_dataset_chunks
        from repro.ooc.extsort import external_sort_records

        schema = source.schema
        chunks = iter_dataset_chunks(source, ctx.chunk_records(schema.itemsize))
        return external_sort_records(
            (chunk.records for chunk in chunks), op.key, op.ascending, ctx, schema
        )


def _alltoall(
    comm: Communicator, outboxes: list, span_name: str, attrs: dict[str, Any]
) -> list:
    """The exchange collective, inside a shuffle span when a recorder is attached."""
    if comm.recorder is None:
        return comm.alltoall(outboxes)
    with comm.recorder.span(
        span_name, category="shuffle", rank=comm.rank, clock=comm.clock, attrs=attrs
    ):
        return comm.alltoall(outboxes)


def _write_span(comm: Communicator, stream_idx: int, records: int) -> Any:
    """The span around a rank's in-place part writes (a no-op without a recorder)."""
    if comm.recorder is None:
        return nullcontext()
    return comm.recorder.span(
        "write", category="io", rank=comm.rank, clock=comm.clock,
        attrs={"stream": stream_idx, "records": records},
    )


class MPIRuntime:
    """SPMD execution of a plan: the rank program every parallel backend runs.

    ``mpi`` runs it on the simulated MPI runtime's rank threads; subclasses
    change only what the class attributes and the two hooks below expose —
    :meth:`_reducers` and the cost profile for ``mapreduce``, :meth:`_launch`
    for ``process``.
    """

    #: backend label recorded on the plan span
    backend_name = "mpi"
    #: whether local kernels charge the cost model's sort / hash / stream
    #: time on top of the fixed per-job overhead every backend pays
    charges_kernels = True
    #: whether retry backoff is slept for real instead of charged to the
    #: virtual clock (true when ranks are real processes that really die)
    wall_clock_recovery = False

    def __init__(
        self,
        num_ranks: int,
        cluster: Optional[ClusterModel] = None,
        sample_size: int = 512,
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
        self.sample_size = sample_size
        #: normalized fault schedule (``None`` when no faults were configured)
        self.faults = None
        if faults is not None:
            from repro.fault.schedule import FaultSchedule

            self.faults = FaultSchedule.coerce(faults)
        self.chaos_seed = chaos_seed
        self.checkpoint = checkpoint
        self.retry = retry
        self.deadlock_grace = deadlock_grace
        #: optional span/metrics recorder threaded through every rank thread
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
    ) -> PartitionResult:
        """Run ``plan`` over ``input_data`` on :attr:`num_ranks` ranks.

        With a ``part_writer`` (a file-to-file run) the ranks write the
        partitions in place when the final deal allows it; the returned
        partitions are then read-only views of the published part files.
        """
        for job in plan.jobs:
            if isinstance(job.operator, Distribute):
                # every rank deals its own window of positions: refuse a
                # permutation-defined policy here, before anything is launched
                job.operator.policy.require_positional()
        rank_kwargs: dict[str, Any] = {}
        spill_dir: Optional[str] = None
        if self.memory_budget is not None:
            import tempfile

            from repro.ooc.budget import MemoryBudget

            # run files are execution-scoped: every rank spills into one
            # directory the driver removes on the way out
            spill_dir = tempfile.mkdtemp(prefix="papar-spill-")
            limit = MemoryBudget.coerce(self.memory_budget).limit
            rank_kwargs["ooc_spec"] = (limit, spill_dir)
        if part_writer is not None:
            rank_kwargs["part_writer"] = part_writer
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
                if self.recorder is not None:
                    rank_kwargs.update(recorder=self.recorder, obs_root=root)
                run, fault_report = self._execute_spmd(plan, input_data, rank_kwargs)
            # each rank returns ({partition_id: Dataset, or its record count
            # when the ranks wrote the parts in place}, its perf counters)
            merged: dict[int, Any] = {}
            for rank_out, _perf in run.results:
                merged.update(rank_out)
            perf = PerfCounters.merge_ranks([perf for _out, perf in run.results])
            if perf.output.get("mode") == "in_place":
                from repro.formats.binary import map_binary

                # every rank reported ok: the parts appear, all at once
                schema = part_writer.schema
                partitions = [
                    Dataset(schema=schema, records=map_binary(path, schema))
                    for path in part_writer.publish(len(merged))
                ]
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
        if fault_report is not None:
            extra["fault"] = fault_report
        if self.recorder is not None:
            from repro.obs.adapters import record_fault_report, record_perf

            record_perf(self.recorder, extra["perf"])
            record_fault_report(self.recorder, fault_report)
            extra["obs"] = self.recorder
        return PartitionResult(
            partitions=partitions,
            elapsed=run.elapsed,
            bytes_moved=run.bytes_moved,
            messages=run.messages,
            extra=extra,
        )

    def _execute_spmd(
        self, plan: WorkflowPlan, input_data: Dataset, rank_kwargs: dict[str, Any]
    ) -> tuple[MPIRun, Optional[dict[str, Any]]]:
        """Launch the rank program, under the recovery loop when configured.

        Returns ``(run, fault_report)``; the report is ``None`` for a plain
        run, which goes straight to :meth:`_launch`.
        """
        if not self.fault_tolerant:
            return self._launch(plan, input_data, rank_kwargs), None
        from repro.fault.checkpoint import plan_fingerprint
        from repro.fault.injector import FaultInjector
        from repro.fault.runner import execute_with_recovery

        injector = (
            FaultInjector(self.faults, seed=self.chaos_seed) if self.faults else None
        )
        fingerprint = plan_fingerprint(plan, input_data, self.num_ranks)

        def attempt(resume: int, start_time: float) -> MPIRun:
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
                start_time=start_time,
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
        start_time: float = 0.0,
    ) -> MPIRun:
        """One SPMD attempt: :meth:`_rank_program` on every rank (threads here)."""
        from repro.mpi import run_mpi

        return run_mpi(
            self._rank_program,
            self.num_ranks,
            cluster=self.cluster,
            args=(plan, input_data),
            kwargs=rank_kwargs,
            fault_injector=fault_injector,
            deadlock_grace=self.deadlock_grace,
            start_time=start_time,
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
        recorder: Optional["Recorder"] = None,
        obs_root: Any = None,
        ooc_spec: Any = None,
        part_writer: Optional[PartWriter] = None,
    ) -> tuple[dict[int, Any], PerfCounters]:
        perf = PerfCounters()
        comm.recorder = recorder
        if checkpoint is not None:
            from repro.fault.checkpoint import job_key
        ctx = None
        if ooc_spec is not None:
            from repro.ooc.budget import MemoryBudget
            from repro.ooc.spill import OOCContext

            limit, spill_dir = ooc_spec
            ctx = OOCContext(MemoryBudget(limit), spill_dir, rank=comm.rank)
        local: Any = _dataset_rows_per_rank(input_data, comm.rank, comm.size)
        outputs: dict[str, Any] = {}
        final: Any = None
        for i, job in enumerate(plan.jobs):
            if i < resume:
                # job fully committed by a previous attempt: restore instead
                # of recomputing (and advance to the checkpointed clock)
                saved = checkpoint.load(job_key(fingerprint, i, job.op_id, comm.rank))
                final = saved["output"]
                outputs[job.op_id] = final
                comm.clock.merge(saved["clock"])
                if recorder is not None:
                    recorder.instant(
                        f"restored:{job.op_id}", category="checkpoint",
                        rank=comm.rank, clock=comm.clock,
                    )
                continue
            source = job_input(job, i, plan, outputs, local)
            comm.check_fault(i, "before")
            job_mark = ctx.manifest_mark() if ctx is not None else 0
            span = (
                recorder.span(
                    job.op_id, category="job", rank=comm.rank, clock=comm.clock,
                    parent=obs_root,
                    attrs={"job_index": i, "operator": job.operator_name.lower()},
                )
                if recorder is not None
                else nullcontext()
            )
            with perf.phase(job.operator_name.lower(), clock=comm.clock), span:
                if comm.cluster is not None:
                    # fixed per-job scheduling cost (mapper/reducer launch)
                    comm.charge_compute(comm.cluster.cost.job_overhead)
                final = self._run_job(
                    comm, job, source, perf, ctx,
                    part_writer if job is plan.final_job else None,
                )
            outputs[job.op_id] = final
            # an "after" crash fires before the checkpoint commits, so the
            # next attempt re-runs this job on every rank
            comm.check_fault(i, "after")
            # a deal written in place is not checkpointed: its output is the
            # part files, and offset writes are idempotent, so a restart
            # redoes it from the previous job's checkpoint
            if checkpoint is not None and perf.output.get("mode") != "in_place":
                payload = {"output": final, "clock": comm.clock.now}
                if ctx is not None:
                    payload["ooc"] = {"manifests": ctx.manifests_since(job_mark)}
                checkpoint.save(
                    job_key(fingerprint, i, job.op_id, comm.rank), payload
                )
        if ctx is not None:
            ctx.fold_into(perf)
        if not isinstance(final, dict):
            raise WorkflowError(
                f"workflow {plan.workflow_id!r} must end with a Distribute job"
            )
        return final, perf

    def _run_job(
        self,
        comm: Communicator,
        job: PlannedJob,
        source: Any,
        perf: PerfCounters,
        ctx: Any,
        part_writer: Optional[PartWriter] = None,
    ) -> Any:
        """One job on one rank; ``ctx`` is the rank's ``OOCContext`` or
        ``None``, ``part_writer`` the run's output files when ``job`` is the
        final one of a file-to-file run."""
        op = job.operator
        if isinstance(op, Sort):
            return self._range_job(
                comm, op, source, perf, ctx, op.ascending, self._reducers(job, comm),
                kernel="sort",
            )
        if isinstance(op, Group):
            return self._range_job(
                comm, op, source, perf, ctx, True, self._reducers(job, comm),
                kernel="hash_group",
            )
        if isinstance(op, Distribute):
            return self._distribute_job(comm, op, source, perf, ctx, part_writer)
        data = resident(source)
        if isinstance(op, Split):
            # a map-only job: routing is local, no exchange
            self._charge(comm, "stream", data.num_records)
        # Split, or a user-registered basic operator: run the local kernel
        return op.apply_local(data)

    def _reducers(self, job: PlannedJob, comm: Communicator) -> int:
        """Reducer count of a range exchange: one per rank.

        The raw-MPI mapping has no reducer notion, so a workflow's
        ``num_reducers`` is ignored here (with the shipped value of 3 a
        2-rank run would otherwise split its data 2/3 : 1/3).
        """
        return comm.size

    def _charge(self, comm: Communicator, kernel: str, n: int) -> None:
        """Charge a local kernel over ``n`` records (``kernel`` names a
        :class:`~repro.cluster.model.CostModel` method)."""
        if self.charges_kernels and comm.cluster is not None:
            cost = getattr(comm.cluster.cost, kernel)(n)
            comm.charge_compute(comm.cluster.compute(cost))

    @staticmethod
    def _spills(comm: Communicator, ctx: Any, source: Any) -> bool:
        """Whether this exchange goes through run files — decided collectively.

        Always false without a budget.  Packed streams cannot be framed as
        fixed-width records, so they take the in-memory exchange without
        asking.
        """
        if ctx is None or bool(getattr(source, "is_packed", False)):
            return False
        from repro.ooc.exchange import uniform_spill_decision

        return uniform_spill_decision(comm, ctx, source.nbytes)

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
        sorted for any reducer count.
        """
        if self._spills(comm, ctx, source):
            from repro.ooc.exchange import reduce_received, spilled_range_exchange

            inbox = spilled_range_exchange(
                comm, source, op.key, ascending, reducers, ctx, perf, self.sample_size
            )
            self._charge(
                comm, kernel, sum(m.num_records for m in inbox if m is not None)
            )
            return reduce_received(op, inbox, source.schema, ctx)
        from repro.mapreduce.partitioner import RangePartitioner

        data = resident(source)
        sort_keys = sort_key_array(np.asarray(data.column(op.key)), ascending)
        reducer_of = RangePartitioner.sampled(
            comm, sort_keys, reducers, self.sample_size
        ).partition_array(sort_keys)
        received = self._exchange_entries(
            comm, data, (reducer_of * comm.size) // reducers, perf
        )
        self._charge(comm, kernel, len(received))
        return op.apply_local(received)

    @staticmethod
    def _exchange_entries(
        comm: Communicator, data: Dataset, owners: np.ndarray, perf: PerfCounters
    ) -> Dataset:
        """Ship each entry to ``owners[i]``; receive in source-rank order."""
        outboxes = [data.take(idx) for idx in bucketize(owners, comm.size)]
        nbytes = sum(b.nbytes for b in outboxes)
        perf.count_move(len(owners), nbytes)
        inboxes = _alltoall(
            comm, outboxes, "shuffle", {"records": len(owners), "nbytes": nbytes}
        )
        flats = [b.to_flat() for b in inboxes if len(b)]
        if not flats:
            return data.take(np.empty(0, dtype=np.int64)).to_flat()
        return concat(flats) if len(flats) > 1 else flats[0]

    # -- distribute (Figures 9/11, last job) -----------------------------------

    @staticmethod
    def _why_gathered(
        part_writer: Optional[PartWriter], ctx: Any, streams: list
    ) -> Optional[str]:
        """Why the dealt pieces must go through the partitions' owners to the
        driver, or ``None`` when each rank can write its own in place: every
        stream is then fixed-width records of the very schema the part files
        hold, so a piece's bytes and its offset in the file are both known
        where the piece is.  Read from the run itself — the same on every
        rank, and nothing a user sets.  ``--optimize`` changes none of it:
        the rewritten workflow deals the same records as the original."""
        if part_writer is None:
            return "in-memory run"
        if ctx is not None:
            return "memory budget"
        if any(stream.is_packed for stream in streams):
            return "packed stream"
        if any(stream.schema != part_writer.schema for stream in streams):
            return "added attributes"
        return None

    def _distribute_job(
        self,
        comm: Communicator,
        op: Distribute,
        source: Any,
        perf: PerfCounters,
        ctx: Any,
        part_writer: Optional[PartWriter] = None,
    ) -> dict[int, Any]:
        """Deal every stream's entries to their partitions.

        Each rank cuts its window of a stream's global positions into
        pieces with the policy's positional rule.  In place (see
        :meth:`_why_gathered`) a piece is written straight to slot
        ``base[p] + slot`` of part ``p`` — ``base`` being what the earlier
        streams put there — the partition's owner rank (``p % size``) seals
        the file, and the job returns ``{partition: record count}``.

        Otherwise the partition id is the temporary reduce-key ("the reducer
        id is used as the reduce-key"): each stream is exchanged on its own
        — in memory or through run files — as ``(partition, first global
        index, entries)`` chunks, which the owners order by ``(stream, first
        index)`` and return as ``{partition: Dataset}``.
        """
        from repro.mpi import SUM

        streams = list(source) if isinstance(source, (list, tuple)) else [source]
        num_p = op.num_partitions
        gathered = self._why_gathered(part_writer, ctx, streams)
        in_place = gathered is None
        base = np.zeros(num_p, dtype=np.int64)
        per_partition: dict[int, list[tuple[int, int, Dataset]]] = {}
        for stream_idx, stream in enumerate(streams):
            n_local = len(stream)
            offset = comm.exscan(n_local, SUM, identity=0)
            total = comm.allreduce(n_local, SUM)
            if self._spills(comm, ctx, stream):
                from repro.ooc.exchange import spilled_distribute_stream

                arrived = spilled_distribute_stream(
                    comm, op, stream, offset, total, ctx, perf
                )
            else:
                stream = resident(stream)
                # deal by position: this rank holds the global entries
                # [offset, offset + n_local), so each partition's share is
                # one slice of them — gathered straight from (records,
                # order) when the stream is a lazy sort result
                outboxes: list[list[tuple[int, int, Any]]] = [
                    [] for _ in range(comm.size)
                ]
                span = _write_span(comm, stream_idx, n_local) if in_place else nullcontext()
                with span:
                    for p, slot, where in op.policy.pieces(total, num_p, offset, n_local):
                        chunk = stream.select(where)
                        perf.count_move(len(chunk), chunk.nbytes)
                        if in_place:
                            part_writer.write(p, int(base[p]) + slot, chunk.records)
                        else:
                            first = offset + where.indices(n_local)[0]
                            outboxes[p % comm.size].append((p, first, chunk))
                if in_place:
                    # the next stream's pieces land behind this one's
                    base += op.policy.counts(total, num_p)
                    continue
                inboxes = _alltoall(
                    comm, outboxes, "distribute-shuffle",
                    {"stream": stream_idx, "records": n_local},
                )
                arrived = [entry for box in inboxes for entry in box]
            for p, first_idx, chunk in arrived:
                per_partition.setdefault(p, []).append((stream_idx, first_idx, chunk))
        owned = range(comm.rank, num_p, comm.size)
        if in_place:
            counts = {p: int(base[p]) for p in owned}
            for p, count in counts.items():
                part_writer.finish(p, count)
            perf.output = {
                "mode": "in_place",
                "parts": len(counts),
                "bytes": sum(counts.values()) * part_writer.schema.itemsize,
            }
            return counts
        if part_writer is not None:
            # only a file-to-file run has an output to report on
            perf.output = {"mode": "gathered", "reason": gathered}
        result: dict[int, Dataset] = {}
        if not owned:
            # this rank owns no partitions (num_p < comm.size): nothing to
            # assemble, so skip building the empty-sentinel dataset too
            return result
        empty: Optional[Dataset] = None
        for p in owned:
            chunks = per_partition.get(p)
            if not chunks:
                if empty is None:
                    schema = streams[0].schema
                    empty = Dataset(
                        schema=schema, records=np.empty(0, dtype=schema.dtype)
                    )
                result[p] = empty
                continue
            chunks.sort(key=lambda t: (t[0], t[1]))
            flat = [c.to_flat() for _, _, c in chunks]
            self._charge(comm, "stream", sum(len(f) for f in flat))
            result[p] = concat(flat) if len(flat) > 1 else flat[0]
        return result
