"""The PaPar facade: configuration in, partitions (or generated code) out.

Usage mirrors the paper's Figure 3 architecture::

    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)          # input-data config
    wf = papar.load_workflow(BLAST_WORKFLOW_XML)    # workflow config
    plan = papar.plan(wf, {"input_path": "...", "output_path": "...",
                           "num_partitions": 16})
    source = papar.generate_code(plan)              # codegen path
    result = papar.run(wf, args=..., data=dataset,  # or execute directly
                       backend="mpi", num_ranks=32, cluster=testbed)
"""

from __future__ import annotations

import importlib
import os
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.config.schema import load_input_config, parse_input_config
from repro.config.workflow import WorkflowSpec, load_workflow_config, parse_workflow_config
from repro.core.dataset import Dataset
from repro.core.planner import Planner, WorkflowPlan
from repro.errors import ConfigError, WorkflowError
from repro.formats.records import RecordSchema

if TYPE_CHECKING:  # pragma: no cover - typing only: codegen, the runtimes
    # and the codecs are imported where they are called, so a command loads
    # only what it runs (``tools/startup_budget.py``)
    from repro.cluster.model import ClusterModel
    from repro.core.runtime import PartitionResult

#: where each SPMD backend's runtime class lives; imported on selection, so a
#: backend never loads another's machinery (pinned by fresh-interpreter tests)
_SPMD_RUNTIMES = {
    "mpi": ("repro.core.runtime", "MPIRuntime"),
    "mapreduce": ("repro.core.mr_runtime", "MapReduceRuntime"),
    "process": ("repro.core.process_runtime", "ProcessRuntime"),
}


class PaPar:
    """The parallel data partitioning framework."""

    def __init__(self) -> None:
        self._schemas: dict[str, RecordSchema] = {}
        self._planner = Planner()

    # -- input-data configurations -----------------------------------------

    def register_input(self, xml: str) -> RecordSchema:
        """Register an input-data configuration (Figure 4/5 XML text)."""
        schema = parse_input_config(xml)
        self._schemas[schema.id] = schema
        return schema

    def register_input_file(self, path: Union[str, os.PathLike]) -> RecordSchema:
        """Register an input-data configuration from disk."""
        schema = load_input_config(path)
        self._schemas[schema.id] = schema
        return schema

    def register_schema(self, schema: RecordSchema) -> RecordSchema:
        """Register a programmatically built schema."""
        self._schemas[schema.id] = schema
        return schema

    def schema(self, schema_id: str) -> RecordSchema:
        """Look up a registered schema by its ``input id``."""
        if schema_id not in self._schemas:
            raise ConfigError(
                f"no input schema {schema_id!r} registered; known: {sorted(self._schemas)}"
            )
        return self._schemas[schema_id]

    # -- workflow configurations ----------------------------------------------

    @staticmethod
    def load_workflow(xml: str) -> WorkflowSpec:
        """Parse a workflow configuration (Figure 8/10 XML text)."""
        return parse_workflow_config(xml)

    @staticmethod
    def load_workflow_file(path: Union[str, os.PathLike]) -> WorkflowSpec:
        """Parse a workflow configuration from disk."""
        return load_workflow_config(path)

    # -- static analysis -----------------------------------------------------------

    def lint(
        self,
        workflow: Union[WorkflowSpec, str],
        args: Optional[dict[str, Any]] = None,
        inputs: Any = (),
        ranks: Optional[int] = None,
        do_plan: bool = True,
        memory_budget: Optional[str] = None,
        assume_records: Optional[int] = None,
        backend: Optional[str] = None,
        faults: bool = False,
        checkpoint: bool = False,
        serve: bool = False,
    ):
        """Statically analyze a workflow configuration without executing it.

        Returns a :class:`~repro.analysis.diagnostics.LintResult` holding
        *every* finding (stable ``PAPnnn`` codes, severities, source
        locations, suggested fixes — see ``docs/lint-rules.md``).  Schemas
        registered on this instance participate in the type-flow rules;
        ``inputs`` adds extra input-config XML texts for this call only.
        A declared ``memory_budget`` (plus an optional ``assume_records``
        input size) enables the out-of-core sizing rules (PAP06x).
        """
        from repro.analysis.engine import Linter
        from repro.config.serialize import workflow_to_xml

        if isinstance(workflow, WorkflowSpec):
            xml = workflow_to_xml(workflow)
            filename = workflow.source_file or "<workflow>"
        else:
            xml = workflow
            filename = "<workflow>"
        return Linter(
            schemas=self._schemas, ranks=ranks,
            memory_budget=memory_budget, assume_records=assume_records,
            backend=backend, faults=faults, checkpoint=checkpoint,
            serve=serve,
        ).lint(
            xml,
            filename=filename,
            inputs=[(text, None) for text in inputs],
            args=args,
            do_plan=do_plan,
        )

    def lint_files(
        self,
        workflow_path: Union[str, os.PathLike],
        input_paths: Any = (),
        args: Optional[dict[str, Any]] = None,
        ranks: Optional[int] = None,
        do_plan: bool = True,
        memory_budget: Optional[str] = None,
        assume_records: Optional[int] = None,
        backend: Optional[str] = None,
        faults: bool = False,
        checkpoint: bool = False,
        serve: bool = False,
        errors_only: bool = False,
    ):
        """Statically analyze configuration files (see :meth:`lint`).

        ``errors_only`` asks only whether the configuration has errors —
        the question the ``plan`` / ``run`` / ``serve`` gate acts on — and
        runs only the rules that can answer it (see ``docs/lint-rules.md``).
        """
        from repro.analysis.engine import Linter

        return Linter(
            schemas=self._schemas, ranks=ranks,
            memory_budget=memory_budget, assume_records=assume_records,
            backend=backend, faults=faults, checkpoint=checkpoint,
            serve=serve, errors_only=errors_only,
        ).lint_paths(
            os.fspath(workflow_path),
            [os.fspath(p) for p in input_paths],
            args=args,
            do_plan=do_plan,
        )

    def optimize(
        self,
        workflow: Union[WorkflowSpec, str],
        args: Optional[dict[str, Any]] = None,
        ranks: Optional[int] = None,
        assume_records: Optional[int] = None,
    ):
        """Apply the PAP080-081 rewrite passes and return the optimized plan.

        Returns an :class:`~repro.analysis.optimize.OptimizedPlan`: the
        rewritten :class:`WorkflowSpec` plus the audit trail (rewrites
        applied, rewrites refused and why, and the cost-model estimates).
        Schemas registered on this instance drive the liveness and width
        analyses.  See ``docs/optimizer.md``.
        """
        from repro.analysis.optimize import optimize_spec

        spec = self.load_workflow(workflow) if isinstance(workflow, str) else workflow
        return optimize_spec(
            spec,
            args=args,
            schemas=self._schemas,
            ranks=ranks,
            assume_records=assume_records,
            filename=spec.source_file,
        )

    # -- planning and code generation ----------------------------------------------

    def plan(
        self,
        workflow: Union[WorkflowSpec, str],
        args: Optional[dict[str, Any]] = None,
    ) -> WorkflowPlan:
        """Resolve arguments and build the executable job sequence.

        When the workflow's input format is a registered schema, every
        operator key is validated against the fields available at that stage
        (input fields plus attributes earlier add-ons introduced), so typos
        fail at plan time instead of mid-run.
        """
        spec = self.load_workflow(workflow) if isinstance(workflow, str) else workflow
        plan = self._planner.plan(spec, args)
        if plan.input_format_id in self._schemas:
            self._validate_keys(plan, self._schemas[plan.input_format_id])
        return plan

    @staticmethod
    def _validate_keys(plan: WorkflowPlan, schema: RecordSchema) -> None:
        from repro.ops.group import Group
        from repro.ops.sort import Sort
        from repro.ops.split import Split

        available = set(schema.field_names)
        for job in plan.jobs:
            op = job.operator
            key = getattr(op, "key", None)
            if isinstance(op, (Sort, Group, Split)) and key not in available:
                raise WorkflowError(
                    f"operator {job.op_id!r} keys on {key!r}, which is not "
                    f"available at this stage; known fields: {sorted(available)}"
                )
            if isinstance(op, Group):
                available |= set(op.added_attrs)

    def generate_code(self, plan: WorkflowPlan) -> str:
        """Emit the standalone Python partitioner for ``plan``."""
        from repro.core.codegen import generate_partitioner_source

        return generate_partitioner_source(plan)

    def compile(self, plan: WorkflowPlan):
        """Generate and import the partitioner module (has a ``run`` function)."""
        from repro.core.codegen import compile_partitioner

        return compile_partitioner(plan)

    # -- data loading --------------------------------------------------------------

    def load_dataset(self, path: Union[str, os.PathLike], schema_id: str) -> Dataset:
        """Read an input file through its registered schema."""
        schema = self.schema(schema_id)
        if schema.input_format == "binary":
            from repro.formats.binary import read_binary

            return Dataset.from_array(schema, read_binary(path, schema))
        from repro.formats.text import read_text_array

        return Dataset.from_array(schema, read_text_array(path, schema))

    def input_format(self, path: Union[str, os.PathLike], schema_id: str):
        """A Hadoop-style InputFormat over ``path`` (binary schemas)."""
        from repro.formats.binary import BinaryInputFormat

        return BinaryInputFormat(path, self.schema(schema_id))

    def partition_files(
        self,
        workflow: Union[WorkflowSpec, str],
        args: dict[str, Any],
        backend: str = "serial",
        num_ranks: int = 1,
        cluster: Optional[ClusterModel] = None,
        schema_id: Optional[str] = None,
        optimize: bool = False,
        **fault_tolerance: Any,
    ):
        """End-to-end: read the input file, partition, write part-NNNNN files.

        Extra keyword arguments (``faults``, ``checkpoint``, ``retry``,
        ``chaos_seed``, ``deadlock_grace``) configure fault tolerance, as in
        :meth:`run`; ``memory_budget`` streams the input out-of-core
        instead of loading it (see :meth:`run`); ``optimize`` applies the
        PAP080-081 rewrite passes before planning (see :meth:`optimize`).
        """
        from repro.core.files import partition_files as _partition_files

        return _partition_files(
            self,
            workflow,
            args,
            backend=backend,
            num_ranks=num_ranks,
            cluster=cluster,
            schema_id=schema_id,
            optimize=optimize,
            **fault_tolerance,
        )

    def warm_start(
        self,
        workflow: Union[WorkflowSpec, str],
        args: dict[str, Any],
        backend: str = "serial",
        num_ranks: int = 1,
        cluster: Optional[ClusterModel] = None,
        schema_id: Optional[str] = None,
        recorder: Any = None,
    ) -> tuple[WorkflowSpec, RecordSchema, Dataset, PartitionResult]:
        """Load the input file and partition it **in memory** — no part files.

        The file-less twin of :meth:`partition_files`, built for long-lived
        consumers (the ``serve`` daemon) that keep the partitions hot
        instead of materializing them: returns ``(spec, input schema,
        input dataset, result)`` so the caller owns both the raw records
        (the daemon's append-log seed) and the partitioned output.
        """
        from repro.core.files import load_input_dataset

        spec = self.load_workflow(workflow) if isinstance(workflow, str) else workflow
        data, schema = load_input_dataset(self, spec, args, schema_id=schema_id)
        result = self.run(
            spec,
            args,
            data=data,
            backend=backend,
            num_ranks=num_ranks,
            cluster=cluster,
            recorder=recorder,
        )
        return spec, schema, data, result

    # -- execution ---------------------------------------------------------------------

    def run(
        self,
        workflow: Union[WorkflowSpec, WorkflowPlan, str],
        args: Optional[dict[str, Any]] = None,
        data: Optional[Dataset] = None,
        backend: str = "serial",
        num_ranks: int = 1,
        cluster: Optional[ClusterModel] = None,
        faults: Any = None,
        checkpoint: Any = None,
        retry: Any = None,
        chaos_seed: int = 0,
        deadlock_grace: Optional[float] = None,
        recorder: Any = None,
        memory_budget: Any = None,
        optimize: bool = False,
        part_writer: Any = None,
    ) -> PartitionResult:
        """Plan (if needed) and execute a workflow over ``data``.

        With ``optimize=True`` the workflow first runs through the PAP080-081
        rewrite passes (:meth:`optimize`): the rewritten job DAG executes
        instead, exactly as a plain run of that DAG would, and the result
        carries an ``optimizer`` section in :attr:`PartitionResult.extra`
        (passes fired, exchanges removed, estimated vs. measured bytes).
        Outputs are bit-identical to the unoptimized run on every backend.

        Fault tolerance (SPMD backends only — see :mod:`repro.fault`):
        ``faults`` takes a :class:`~repro.fault.FaultSchedule` (or CLI-style
        spec strings), ``checkpoint`` a
        :class:`~repro.fault.CheckpointStore`, ``retry`` a
        :class:`~repro.fault.RetryPolicy`; ``chaos_seed`` seeds the
        injector's deterministic draws and the backoff jitter, and
        ``deadlock_grace`` bounds blocked waits before
        :class:`~repro.errors.DeadlockError`.

        Observability: pass a :class:`~repro.obs.Recorder` as ``recorder``
        to collect the span tree, metrics, and trace events for this run
        (works on every backend; exposed on
        :attr:`PartitionResult.observability`).

        Out-of-core: pass ``memory_budget`` (e.g. ``"64MB"`` or a byte
        count) to bound every rank's working set; oversized exchanges spill
        to run files and are merged back streaming (see
        ``docs/out-of-core.md``).  ``None`` (the default) keeps the
        in-memory fast path untouched.
        """
        from repro.core.runtime import SerialRuntime

        optimized = None
        if optimize:
            if isinstance(workflow, WorkflowPlan):
                raise WorkflowError(
                    "optimize=True needs the workflow configuration, not an "
                    "already-planned WorkflowPlan"
                )
            optimized = self.optimize(workflow, args, ranks=num_ranks)
            workflow = optimized.workflow
        if isinstance(workflow, WorkflowPlan):
            plan = workflow
        else:
            plan = self.plan(workflow, args)
        if data is None:
            raise WorkflowError("run() needs an in-memory Dataset via data=...")
        if backend == "serial":
            if faults is not None or checkpoint is not None or retry is not None:
                raise WorkflowError(
                    "fault tolerance needs an SPMD backend; use 'mpi' or "
                    "'mapreduce' (or 'process' for checkpoint/retry recovery)"
                )
            result = SerialRuntime(
                recorder=recorder, memory_budget=memory_budget
            ).execute(plan, data)
        elif backend in _SPMD_RUNTIMES:
            module, class_name = _SPMD_RUNTIMES[backend]
            runtime_class = getattr(importlib.import_module(module), class_name)
            result = runtime_class(
                num_ranks=num_ranks,
                cluster=cluster,
                faults=faults,
                checkpoint=checkpoint,
                retry=retry,
                chaos_seed=chaos_seed,
                deadlock_grace=deadlock_grace,
                recorder=recorder,
                memory_budget=memory_budget,
            ).execute(plan, data, part_writer=part_writer)
        else:
            raise WorkflowError(
                f"unknown backend {backend!r}; "
                "use 'serial', 'mpi', 'mapreduce' or 'process'"
            )
        if optimized is not None:
            summary = optimized.summary()
            perf = result.extra.get("perf") or {}
            summary["measured_bytes_moved"] = perf.get(
                "bytes_moved", result.bytes_moved
            )
            result.extra["optimizer"] = summary
            if recorder is not None:
                from repro.obs.adapters import record_optimizer

                record_optimizer(recorder, summary)
        return result
