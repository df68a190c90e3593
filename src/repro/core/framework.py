"""The PaPar facade: configuration in, partitions (or generated code) out.

The Python API over what the CLI calls directly: :mod:`repro.config`,
the ``Planner``, :func:`~repro.core.runtime.execute_plan` and ``files``.

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

import os
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.config.schema import Schemas, load_input_config, parse_input_config
from repro.config.workflow import WorkflowSpec, load_workflow_config, parse_workflow_config
from repro.core.planner import Planner, WorkflowPlan
from repro.errors import WorkflowError
from repro.formats.records import RecordSchema

if TYPE_CHECKING:  # pragma: no cover - typing only: codegen, the runtimes
    # and the codecs are imported where they are called, so a command loads
    # only what it runs (``tools/startup_budget.py``)
    from repro.cluster.model import ClusterModel
    from repro.core.dataset import Dataset
    from repro.core.runtime import PartitionResult

class PaPar:
    """The parallel data partitioning framework."""

    def __init__(self) -> None:
        self._schemas = Schemas()
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
        return self._schemas.schema(schema_id)

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

        linter = Linter(
            schemas=self._schemas, ranks=ranks,
            memory_budget=memory_budget, assume_records=assume_records,
            backend=backend, faults=faults, checkpoint=checkpoint,
            serve=serve,
        )
        # a spec is linted as its own model, with the lines of its file
        spec_file = workflow.source_file if isinstance(workflow, WorkflowSpec) else None
        filename = spec_file or "<workflow>"
        return linter.lint(workflow, filename, [(text, None) for text in inputs], args, do_plan)

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
        from repro.analysis.engine import Linter, read_configs

        return Linter(
            schemas=self._schemas, ranks=ranks,
            memory_budget=memory_budget, assume_records=assume_records,
            backend=backend, faults=faults, checkpoint=checkpoint,
            serve=serve, errors_only=errors_only,
        ).lint(**read_configs(workflow_path, input_paths), args=args, do_plan=do_plan)

    def optimize(self, workflow, args=None, ranks=None, assume_records=None):
        """The jobs the planner drops from ``workflow``'s plan
        (:attr:`WorkflowPlan.elided`); kept for callers that still probe
        this name.  ``ranks`` and ``assume_records`` are ignored."""
        return self.plan(workflow, args).elided

    # -- planning and code generation ----------------------------------------------

    def plan(
        self,
        workflow: Union[WorkflowSpec, str],
        args: Optional[dict[str, Any]] = None,
    ) -> WorkflowPlan:
        """Resolve arguments and build the executable job sequence.

        When the workflow's input format is a registered schema, every
        operator key is checked against the fields available at that stage
        (input fields plus attributes earlier add-ons introduced) by the
        lint rule PAP020, so typos fail at plan time instead of mid-run.
        """
        spec = self.load_workflow(workflow) if isinstance(workflow, str) else workflow
        return self._planner.plan(spec, args, self._schemas)

    def generate_code(self, plan: WorkflowPlan) -> str:
        """Emit the standalone Python partitioner for ``plan``."""
        from repro.core.codegen import generate_partitioner_source

        return generate_partitioner_source(plan)

    def compile(self, plan: WorkflowPlan):
        """Generate and import the partitioner module (has a ``run`` function)."""
        from repro.core.codegen import compile_partitioner

        return compile_partitioner(plan)

    # -- file to file --------------------------------------------------------------

    def partition_files(
        self,
        workflow: Union[WorkflowSpec, WorkflowPlan, str],
        args: dict[str, Any],
        backend: str = "serial",
        num_ranks: int = 1,
        cluster: Optional[ClusterModel] = None,
        schema_id: Optional[str] = None,
        **fault_tolerance: Any,
    ):
        """End-to-end: read the input file, partition, write part-NNNNN files.

        Extra keyword arguments (``faults``, ``checkpoint``, ``retry``,
        ``chaos_seed``, ``deadlock_grace``) configure fault tolerance, as in
        :meth:`run`; ``memory_budget`` streams the input out-of-core
        instead of loading it (see :meth:`run`).  A :class:`WorkflowPlan`
        runs as planned.
        """
        from repro.core.files import partition_files as _partition_files

        return _partition_files(
            self._schemas,
            workflow,
            args,
            backend=backend,
            num_ranks=num_ranks,
            cluster=cluster,
            schema_id=schema_id,
            **fault_tolerance,
        )

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
        part_writer: Any = None,
        output: Optional[str] = None,
    ) -> PartitionResult:
        """Plan (if needed) and execute a workflow over ``data``.

        The plan is minimal (see :mod:`repro.core.planner`): jobs the final
        job does not need never run.  A :class:`WorkflowPlan` runs as
        planned.

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

        Output: the partitions stay in memory, unless a ``part_writer``
        (binary part files, written in place when the plan says so) is
        given, or ``output="text"`` says the caller writes text part files.
        """
        plan = workflow if isinstance(workflow, WorkflowPlan) else self.plan(workflow, args)
        if data is None:
            raise WorkflowError("run() needs an in-memory Dataset via data=...")
        from repro.core.runtime import execute_plan

        return execute_plan(
            plan,
            data,
            backend=backend,
            num_ranks=num_ranks,
            part_writer=part_writer,
            output=output,
            cluster=cluster,
            faults=faults,
            checkpoint=checkpoint,
            retry=retry,
            chaos_seed=chaos_seed,
            deadlock_grace=deadlock_grace,
            recorder=recorder,
            memory_budget=memory_budget,
        )
