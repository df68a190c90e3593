"""Workflow planning: configuration -> an executable job sequence.

The planner resolves every ``$variable``, instantiates the operator objects,
and wires the dataflow between jobs.  The paper's operators communicate
through paths (``$sort.outputPath``); :func:`repro.config.workflow.wire`
decides what each job reads from those paths — the analyzer's plan-IR asks
it the same question — including the hybrid-cut case where the
``distribute`` job's ``inputPath`` is the *directory* ``/tmp/split/``
holding both split outputs, meaning "consume every output of the split job".

The plan it returns is minimal: a job the final job does not read
(directly or through other jobs) is dropped, and so is an exchange the
adjacent exchange provably recreates byte for byte.  Each drop is
recorded on :attr:`WorkflowPlan.elided` with the lint code that reports it
(PAP080 dead, PAP081 redundant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.locate import format_location
from repro.config.workflow import (
    BOOLEAN_FALSE_LITERALS, BOOLEAN_TRUE_LITERALS, Bindings, JobIO, OperatorSpec,
    WorkflowSpec, bind_arguments, wire,
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


@dataclass(frozen=True)
class ElidedJob:
    """A job of the workflow the plan does not run, and why."""

    op_id: str
    #: the lint code that reports it: PAP080 (dead) or PAP081 (redundant)
    code: str
    reason: str


@dataclass
class WorkflowPlan:
    """The planned job sequence plus the final binding environment."""

    workflow_id: str
    jobs: list[PlannedJob]
    env: Bindings
    input_format_id: Optional[str] = None
    #: the spec this plan was planned from (None for a hand-built plan)
    spec: Optional[WorkflowSpec] = field(default=None, compare=False, repr=False)
    #: the workflow's jobs the planner dropped, in document order
    elided: list[ElidedJob] = field(default_factory=list)

    @property
    def final_job(self) -> PlannedJob:
        return self.jobs[-1]

    def job(self, op_id: str) -> PlannedJob:
        for j in self.jobs:
            if j.op_id == op_id:
                return j
        raise WorkflowError(f"plan has no job {op_id!r}")


def _resolved_params(
    spec: OperatorSpec, env: Bindings, source_file: Optional[str]
) -> dict[str, Any]:
    out = {}
    for name, ps in spec.params.items():
        raw = env.resolve(ps.value)
        try:
            out[name] = ps.coerce(raw)
        except WorkflowError as exc:  # located, and naming the operator
            raise WorkflowError(
                f"operator {spec.id!r}: {exc} [{format_location(source_file, ps.line)}]"
            ) from exc
    return out


def _first_param(params: dict[str, Any], *names: str) -> Any:
    for n in names:
        if n in params and params[n] is not None:
            return params[n]
    return None


def _direction(name: str, value: Any) -> Optional[bool]:
    """Whether one direction parameter says ascending; None for a value it
    cannot mean."""
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if name == "ascending":
        known = text in BOOLEAN_TRUE_LITERALS or text in BOOLEAN_FALSE_LITERALS
        return text in BOOLEAN_TRUE_LITERALS if known else None
    try:
        return int(text) == -1
    except ValueError:
        return None


def sort_ascending(
    spec: OperatorSpec, params: dict[str, Any], source_file: Optional[str]
) -> bool:
    """A sort's direction from its coerced ``flag`` and ``ascending`` values.

    ``flag`` (Figure 8: ``-1`` = ascending, any other integer descending)
    is read first; an ``ascending`` value (one of the
    :data:`~repro.config.workflow.BOOLEAN_TRUE_LITERALS` or
    ``BOOLEAN_FALSE_LITERALS``) overrides it.  Any other value is a located
    :class:`WorkflowError` naming the operator, the parameter and the value.
    """
    result = True
    for name in ("flag", "ascending"):
        if params.get(name) is None:
            continue
        direction = _direction(name, params[name])
        if direction is None:
            wanted = "an integer (-1 = ascending)" if name == "flag" else (
                f"a boolean literal {sorted(BOOLEAN_TRUE_LITERALS | BOOLEAN_FALSE_LITERALS)}")
            raise WorkflowError(
                f"sort operator {spec.id!r}: parameter {name!r} is {params[name]!r}, "
                f"not {wanted} [{format_location(source_file, spec.params[name].line)}]"
            )
        result = direction
    return result


_DEAD = ("the final job does not read its outputs, directly or through other "
         "jobs, so the whole stage (and its exchange) is wasted work")


def _recreated(
    first: PlannedJob, second: PlannedJob
) -> Optional[tuple[PlannedJob, str]]:
    """The job of an adjacent exchange pair the other recreates byte for
    byte, with the reason, or None.

    Every runtime sorts stably, and a group emits ascending key groups
    with input order inside each group; so within equal keys each shape
    below keeps the order the dropped job would have kept.  Different keys
    are refused: the first stage decides tie order under the second.
    """
    a, b = first.operator, second.operator
    if getattr(a, "key", None) != getattr(b, "key", None):
        return None
    if isinstance(a, Sort) and isinstance(b, Sort) and a.ascending == b.ascending:
        return first, ("the second sort re-ranges every record; the first "
                       "sort's exchange is discarded")
    if isinstance(a, Sort) and isinstance(b, Group):
        return first, ("the group stage re-ranges every record by its own key; "
                       "the sort's exchange is discarded")
    flat = isinstance(a, Group) and a.output_format != "pack"
    if flat and isinstance(b, Sort) and b.ascending:
        return second, ("group output is already range-partitioned and ordered "
                        "by that key; the ascending sort re-shuffles it for nothing")
    return None


def _minimal(plan: WorkflowPlan) -> WorkflowPlan:
    """``plan`` without the jobs its final job does not need: the dead ones
    (PAP080), then each exchange its neighbour recreates (PAP081)."""
    by_id = {job.op_id: job for job in plan.jobs}
    # every job reads one source, so what the final job needs is one chain
    chain = [plan.final_job]
    while chain[-1].source is not None:
        chain.append(by_id[chain[-1].source])
    live = {job.op_id for job in chain}
    elided = {job.op_id: ElidedJob(job.op_id, "PAP080", _DEAD)
              for job in plan.jobs if job.op_id not in live}
    kept: list[PlannedJob] = []
    for job in reversed(chain):
        if job.source in elided:  # it reads an exchange dropped as redundant
            dropped = by_id[job.source]
            job.source, job.source_outputs = dropped.source, dropped.source_outputs
        while kept and job.source == kept[-1].op_id:
            drop = _recreated(kept[-1], job)
            if drop is None:
                break
            dropped, reason = drop
            elided[dropped.op_id] = ElidedJob(dropped.op_id, "PAP081", reason)
            if dropped is job:
                break
            kept.pop()
            job.source, job.source_outputs = dropped.source, dropped.source_outputs
        if job.op_id not in elided:
            kept.append(job)
    plan.jobs = kept
    plan.elided = [elided[op_id] for op_id in by_id if op_id in elided]
    return plan


class Planner:
    """Turns a :class:`~repro.config.workflow.WorkflowSpec` into a plan."""

    def plan(
        self, spec: WorkflowSpec, args: Optional[dict[str, Any]] = None
    ) -> WorkflowPlan:
        """The minimal plan of ``spec`` (see the module docstring)."""
        return _minimal(self._plan_every_job(spec, args))

    def _plan_every_job(
        self, spec: WorkflowSpec, args: Optional[dict[str, Any]] = None
    ) -> WorkflowPlan:
        """Every operator of ``spec`` as a job, wired as declared."""
        env = bind_arguments(spec, args)
        jobs: list[PlannedJob] = []
        wired: list[JobIO] = []
        for op_spec in spec.operators:
            params = _resolved_params(op_spec, env, spec.source_file)
            io = wire(op_spec, params, wired)
            job = self._plan_operator(op_spec, params, env, io.outputs, spec.source_file)
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
        self, spec: OperatorSpec, params: dict[str, Any], env: Bindings, outputs: list[str],
        source_file: Optional[str],
    ) -> PlannedJob:
        planners = {"group": self._plan_group, "split": self._plan_split,
                    "distribute": self._plan_distribute}
        if spec.kind == "sort":
            op = self._plan_sort(spec, params, source_file)
        elif spec.kind in planners:
            op = planners[spec.kind](spec, params, env, outputs)
        else:
            raise WorkflowError(
                f"operator {spec.id!r} uses unknown operator type {spec.operator!r}"
            )
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

    def _plan_sort(self, spec, params, source_file) -> Sort:
        key = _first_param(params, "key", "keyId")
        if not key:
            raise WorkflowError(f"sort operator {spec.id!r} declares no key")
        return Sort(key=str(key), ascending=sort_ascending(spec, params, source_file))

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
