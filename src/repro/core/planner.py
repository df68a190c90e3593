"""Workflow planning: configuration -> an executable job sequence.

The planner resolves every ``$variable``, instantiates the operator objects,
and wires the dataflow between jobs.  The paper's operators communicate
through paths (``$sort.outputPath``); the planner recovers the dataflow graph
from those paths — including the hybrid-cut case where the ``distribute``
job's ``inputPath`` is the *directory* ``/tmp/split/`` holding both split
outputs, meaning "consume every output of the split job".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.config.workflow import Bindings, OperatorSpec, WorkflowSpec, bind_arguments
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
    #: op_id of the producing job, or None to read the workflow input
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
        # path -> (op_id, output index) for dataflow wiring
        produced: dict[str, tuple[str, int]] = {}

        for op_spec in spec.operators:
            params = _resolved_params(op_spec, env)
            job = self._plan_operator(op_spec, params, env)
            self._wire_input(job, params, produced)
            for idx, path in enumerate(job.output_paths):
                produced[path] = (job.op_id, idx)
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
            workflow_id=spec.id, jobs=jobs, env=env, input_format_id=input_fmt
        )

    # -- per-operator planning -------------------------------------------------

    def _plan_operator(
        self, spec: OperatorSpec, params: dict[str, Any], env: Bindings
    ) -> PlannedJob:
        kind = spec.operator.strip().lower()
        if kind == "sort":
            return self._plan_sort(spec, params, env)
        if kind == "group":
            return self._plan_group(spec, params, env)
        if kind == "split":
            return self._plan_split(spec, params, env)
        if kind == "distribute":
            return self._plan_distribute(spec, params, env)
        raise WorkflowError(
            f"operator {spec.id!r} uses unknown operator type {spec.operator!r}"
        )

    def _num_reducers(self, spec: OperatorSpec, env: Bindings) -> Optional[int]:
        raw = spec.attrs.get("num_reducers")
        if raw is None:
            return None
        return int(env.resolve(raw))

    def _plan_sort(self, spec, params, env) -> PlannedJob:
        key = _first_param(params, "key", "keyId")
        if not key:
            raise WorkflowError(f"sort operator {spec.id!r} declares no key")
        ascending = sort_ascending(
            _first_param(params, "flag"), _first_param(params, "ascending")
        )
        op = Sort(key=str(key), ascending=ascending)
        out = _first_param(params, "outputPath", "ouputPath") or f"/tmp/{spec.id}"
        return PlannedJob(
            op_id=spec.id,
            operator_name="Sort",
            operator=op,
            source=None,
            output_paths=[str(out)],
            resolved_params=params,
            num_reducers=self._num_reducers(spec, env),
        )

    def _plan_group(self, spec, params, env) -> PlannedJob:
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
        op = Group(key=str(key), addons=addons, output_format=output_format)
        out = _first_param(params, "outputPath", "ouputPath") or f"/tmp/{spec.id}"
        return PlannedJob(
            op_id=spec.id,
            operator_name="Group",
            operator=op,
            source=None,
            output_paths=[str(out)],
            resolved_params=params,
            num_reducers=self._num_reducers(spec, env),
        )

    def _plan_split(self, spec, params, env) -> PlannedJob:
        key = _first_param(params, "key", "keyId")
        if not key:
            raise WorkflowError(f"split operator {spec.id!r} declares no key")
        policy_text = _first_param(params, "policy", "splitPolicy")
        if not policy_text:
            raise WorkflowError(f"split operator {spec.id!r} declares no policy")
        policy = SplitPolicy.parse(str(policy_text))
        paths_param = spec.params.get("outputPathList")
        paths = params.get("outputPathList")
        if not paths:
            raise WorkflowError(f"split operator {spec.id!r} declares no outputPathList")
        formats = []
        if paths_param is not None and paths_param.format:
            formats = [f.strip() for f in paths_param.format.split(",")]
        if len(paths) != policy.num_outputs:
            raise WorkflowError(
                f"split operator {spec.id!r}: {policy.num_outputs} conditions but "
                f"{len(paths)} output paths"
            )
        op = Split(key=str(key), policy=policy, output_formats=formats)
        return PlannedJob(
            op_id=spec.id,
            operator_name="Split",
            operator=op,
            source=None,
            output_paths=[str(p) for p in paths],
            resolved_params=params,
            num_reducers=self._num_reducers(spec, env),
        )

    def _plan_distribute(self, spec, params, env) -> PlannedJob:
        policy = _first_param(params, "distrPolicy", "policy") or "cyclic"
        nparts = _first_param(params, "numPartitions", "num_partitions")
        if nparts is None:
            raise WorkflowError(
                f"distribute operator {spec.id!r} declares no numPartitions"
            )
        op = Distribute(policy=str(policy), num_partitions=int(nparts))
        out = _first_param(params, "outputPath", "ouputPath") or f"/tmp/{spec.id}"
        return PlannedJob(
            op_id=spec.id,
            operator_name="Distribute",
            operator=op,
            source=None,
            output_paths=[str(out)],
            resolved_params=params,
            num_reducers=self._num_reducers(spec, env),
        )

    # -- dataflow wiring ----------------------------------------------------------

    def _wire_input(
        self,
        job: PlannedJob,
        params: dict[str, Any],
        produced: dict[str, tuple[str, int]],
    ) -> None:
        input_path = _first_param(params, "inputPath", "input", "inputPathList")
        if input_path is None or not produced:
            job.source = None
            return
        input_path = str(input_path)
        if input_path in produced:
            op_id, idx = produced[input_path]
            job.source = op_id
            job.source_outputs = [idx]
            return
        # directory prefix: consume every matching output (hybrid-cut distribute)
        matches = [
            (op_id, idx)
            for path, (op_id, idx) in produced.items()
            if path.startswith(input_path.rstrip("/") + "/") or path.startswith(input_path)
        ]
        if matches:
            sources = {op_id for op_id, _ in matches}
            if len(sources) > 1:
                raise WorkflowError(
                    f"job {job.op_id!r}: input {input_path!r} matches outputs of "
                    f"multiple jobs {sorted(sources)}"
                )
            job.source = matches[0][0]
            job.source_outputs = sorted(idx for _, idx in matches)
            return
        # unmatched: reads the workflow input (first job, or an external path)
        job.source = None
