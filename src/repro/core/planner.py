"""Workflow planning: configuration -> an executable job sequence.

The planner resolves every ``$variable``, instantiates the operator objects,
and wires the dataflow between jobs.  The paper's operators communicate
through paths (``$sort.outputPath``); :func:`repro.config.workflow.wire`
decides what each job reads from those paths — the analyzer's plan-IR asks
it the same question — including the hybrid-cut case where the
``distribute`` job's ``inputPath`` is the *directory* ``/tmp/split/``
holding both split outputs, meaning "consume every output of the split job".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.locate import format_location
from repro.config.workflow import (
    Bindings, JobIO, OperatorSpec, WorkflowSpec, bind_arguments, wire,
)
from repro.errors import WorkflowError
from repro.ops.base import get_addon
from repro.ops.distribute import Distribute
from repro.ops.group import Group
from repro.ops.sort import Sort
from repro.ops.split import Split
from repro.policies.split_policy import SplitPolicy


@dataclass
class PlannedJob:
    """One runnable stage of the workflow."""

    op_id: str
    operator_name: str
    operator: Any
    #: op_id of the producing job; None reads the workflow input
    source: Optional[str]
    #: which outputs of the source to consume (for multi-output sources)
    source_outputs: list[int] = field(default_factory=list)
    #: resolved output path(s)
    output_paths: list[str] = field(default_factory=list)
    #: resolved operator parameters (for code generation)
    resolved_params: dict[str, Any] = field(default_factory=dict)
    num_reducers: Optional[int] = None


@dataclass
class WorkflowPlan:
    """The planned job sequence plus the final binding environment."""

    workflow_id: str
    jobs: list[PlannedJob]
    env: Bindings
    input_format_id: Optional[str] = None
    #: the spec this plan was planned from (None for a hand-built plan)
    spec: Optional[WorkflowSpec] = field(default=None, compare=False, repr=False)

    @property
    def final_job(self) -> PlannedJob:
        return self.jobs[-1]

    def job(self, op_id: str) -> PlannedJob:
        for j in self.jobs:
            if j.op_id == op_id:
                return j
        raise WorkflowError(f"plan has no job {op_id!r}")


def _resolved_params(spec: OperatorSpec, env: Bindings) -> dict[str, Any]:
    out = {}
    for name, ps in spec.params.items():
        out[name] = ps.coerce(env.resolve(ps.value))
    return out


def _first_param(params: dict[str, Any], *names: str) -> Any:
    for n in names:
        if n in params and params[n] is not None:
            return params[n]
    return None


def sort_ascending(flag: Any, ascending: Any) -> bool:
    """A sort's direction from its coerced ``flag`` and ``ascending`` values.

    ``flag`` (Figure 8: ``-1`` = ascending, any other integer descending)
    is read first; an ``ascending`` value overrides it.  ``None`` means the
    parameter is absent.
    """
    result = True
    if flag is not None:
        result = int(flag) == -1
    if ascending is not None:
        result = ascending if isinstance(ascending, bool) else str(ascending).lower() == "true"
    return result


class Planner:
    """Turns a :class:`~repro.config.workflow.WorkflowSpec` into a plan."""

    def plan(
        self, spec: WorkflowSpec, args: Optional[dict[str, Any]] = None
    ) -> WorkflowPlan:
        env = bind_arguments(spec, args)
        jobs: list[PlannedJob] = []
        wired: list[JobIO] = []
        for op_spec in spec.operators:
            params = _resolved_params(op_spec, env)
            io = wire(op_spec, params, wired)
            job = self._plan_operator(op_spec, params, env, io.outputs)
            if io.error is not None:
                line = op_spec.params[io.input_param].line if io.input_param else op_spec.line
                raise WorkflowError(f"{io.error} [{format_location(spec.source_file, line)}]")
            read = [e for e in io.edges if e.src is not None]
            if read:
                job.source = read[0].src
                job.source_outputs = [e.src_output for e in read]
            wired.append(io)
            env.bind(f"{job.op_id}.outputPath", job.output_paths[0])
            if len(job.output_paths) > 1:
                env.bind(f"{job.op_id}.outputPathList", job.output_paths)
            jobs.append(job)

        if not jobs:
            raise WorkflowError(f"workflow {spec.id!r} planned no jobs")
        input_fmt = None
        for ps in spec.arguments.values():
            if ps.format and ps.name.lower().startswith("input"):
                input_fmt = ps.format
        return WorkflowPlan(
            workflow_id=spec.id, jobs=jobs, env=env, input_format_id=input_fmt,
            spec=spec,
        )

    # -- per-operator planning -------------------------------------------------

    def _plan_operator(
        self, spec: OperatorSpec, params: dict[str, Any], env: Bindings, outputs: list[str]
    ) -> PlannedJob:
        planners = {"sort": self._plan_sort, "group": self._plan_group,
                    "split": self._plan_split, "distribute": self._plan_distribute}
        if spec.kind not in planners:
            raise WorkflowError(
                f"operator {spec.id!r} uses unknown operator type {spec.operator!r}"
            )
        op = planners[spec.kind](spec, params, env, outputs)
        return PlannedJob(
            op_id=spec.id,
            operator_name=type(op).__name__,
            operator=op,
            source=None,
            output_paths=outputs,
            resolved_params=params,
            num_reducers=self._num_reducers(spec, env),
        )

    def _num_reducers(self, spec: OperatorSpec, env: Bindings) -> Optional[int]:
        raw = spec.attrs.get("num_reducers")
        if raw is None:
            return None
        return int(env.resolve(raw))

    def _plan_sort(self, spec, params, env, outputs) -> Sort:
        key = _first_param(params, "key", "keyId")
        if not key:
            raise WorkflowError(f"sort operator {spec.id!r} declares no key")
        ascending = sort_ascending(
            _first_param(params, "flag"), _first_param(params, "ascending")
        )
        return Sort(key=str(key), ascending=ascending)

    def _plan_group(self, spec, params, env, outputs) -> Group:
        key = _first_param(params, "key", "keyId")
        if not key:
            raise WorkflowError(f"group operator {spec.id!r} declares no key")
        addons = []
        for a in spec.addons:
            addon_op = get_addon(a.operator)
            attr = a.attr or a.operator
            value_field = a.value
            addons.append((addon_op, attr, value_field))
            # expose the attribute for later `$opid.$attr` references
            env.bind(f"{spec.id}.{attr}", attr)
        out_param = spec.params.get("outputPath")
        output_format = (out_param.format if out_param else None) or "orig"
        return Group(key=str(key), addons=addons, output_format=output_format)

    def _plan_split(self, spec, params, env, outputs) -> Split:
        key = _first_param(params, "key", "keyId")
        if not key:
            raise WorkflowError(f"split operator {spec.id!r} declares no key")
        policy_text = _first_param(params, "policy", "splitPolicy")
        if not policy_text:
            raise WorkflowError(f"split operator {spec.id!r} declares no policy")
        policy = SplitPolicy.parse(str(policy_text))
        paths_param = spec.params.get("outputPathList")
        if not outputs:
            raise WorkflowError(f"split operator {spec.id!r} declares no outputPathList")
        formats = []
        if paths_param is not None and paths_param.format:
            formats = [f.strip() for f in paths_param.format.split(",")]
        if len(outputs) != policy.num_outputs:
            raise WorkflowError(
                f"split operator {spec.id!r}: {policy.num_outputs} conditions but "
                f"{len(outputs)} output paths"
            )
        return Split(key=str(key), policy=policy, output_formats=formats)

    def _plan_distribute(self, spec, params, env, outputs) -> Distribute:
        policy = _first_param(params, "distrPolicy", "policy") or "cyclic"
        nparts = _first_param(params, "numPartitions", "num_partitions")
        if nparts is None:
            raise WorkflowError(
                f"distribute operator {spec.id!r} declares no numPartitions"
            )
        return Distribute(policy=str(policy), num_partitions=int(nparts))
