"""Workflow configuration files (paper Section III-B/C, Figures 8 and 10).

A workflow names its arguments and a sequence of operators; ``$name``
references pull values from the arguments, and ``$opid.param`` /
``$opid.$attr`` references pull intermediate values produced by earlier
operators (e.g. ``$sort.outputPath``, ``$group.$indegree``).
"""

from __future__ import annotations

import os
import re
from typing import Any, Optional, Union

from repro.analysis.locate import XMLLocationError, format_location, parse_located, read_config
from repro.errors import ConfigError, Record, WorkflowError

PathLike = Union[str, os.PathLike]

_REF_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*(?:\.\$?[A-Za-z_][A-Za-z0-9_]*)*)")

#: string literals accepted by boolean parameter coercion
BOOLEAN_TRUE_LITERALS = frozenset({"true", "1", "yes", "on"})
BOOLEAN_FALSE_LITERALS = frozenset({"false", "0", "no", "off"})


class ParamSpec(Record):
    """One ``<param>`` declaration (immutable; ``line`` is not compared)."""

    name: str
    type: str
    value: Optional[str]
    format: Optional[str]
    #: 1-based source line of the declaration (when parsed from a file)
    line: Optional[int]

    def __init__(self, name: str, type: str = "String", value: Optional[str] = None,
                 format: Optional[str] = None, line: Optional[int] = None) -> None:
        vars(self).update(name=name, type=type, value=value, format=format, line=line)

    def _compared(self) -> tuple:
        return self.name, self.type, self.value, self.format

    def coerce(self, raw: Any) -> Any:
        """Convert a resolved raw value to this parameter's declared type."""
        if raw is None:
            return None
        t = self.type.lower()
        try:
            if t in ("integer", "int", "long"):
                return int(raw)
            if t in ("float", "double"):
                return float(raw)
            if t in ("boolean", "bool"):
                if isinstance(raw, bool):
                    return raw
                text = str(raw).strip().lower()
                if text in BOOLEAN_TRUE_LITERALS:
                    return True
                if text in BOOLEAN_FALSE_LITERALS:
                    return False
                raise WorkflowError(
                    f"parameter {self.name!r}: {raw!r} is not a boolean literal; "
                    f"use one of {sorted(BOOLEAN_TRUE_LITERALS)} or "
                    f"{sorted(BOOLEAN_FALSE_LITERALS)}"
                )
            if t == "stringlist":
                if isinstance(raw, (list, tuple)):
                    return list(raw)
                return [s.strip() for s in str(raw).split(",")]
        except (TypeError, ValueError) as exc:
            raise WorkflowError(
                f"parameter {self.name!r}: cannot coerce {raw!r} to {self.type}"
            ) from exc
        return raw


class AddOnSpec(Record):
    """One ``<addon>`` attached to a basic operator (e.g. ``count``);
    immutable, and ``line`` is not compared."""

    operator: str
    key: Optional[str]
    attr: Optional[str]
    value: Optional[str]
    #: 1-based source line of the declaration (when parsed from a file)
    line: Optional[int]

    def __init__(self, operator: str, key: Optional[str] = None, attr: Optional[str] = None,
                 value: Optional[str] = None, line: Optional[int] = None) -> None:
        vars(self).update(operator=operator, key=key, attr=attr, value=value, line=line)

    def _compared(self) -> tuple:
        return self.operator, self.key, self.attr, self.value


class OperatorSpec:
    """One ``<operator>`` stage of the workflow (``line`` is not compared)."""

    id: str
    operator: str
    params: dict[str, ParamSpec]
    addons: list[AddOnSpec]
    attrs: dict[str, str]
    #: 1-based source line of the ``<operator>`` tag (when parsed from a file)
    line: Optional[int]

    def __init__(self, id: str, operator: str, params: Optional[dict[str, ParamSpec]] = None,
                 addons: Optional[list[AddOnSpec]] = None,
                 attrs: Optional[dict[str, str]] = None, line: Optional[int] = None) -> None:
        self.id = id
        self.operator = operator
        self.params = {} if params is None else params
        self.addons = [] if addons is None else addons
        self.attrs = {} if attrs is None else attrs
        self.line = line

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.id, self.operator, self.params, self.addons, self.attrs) == (
            other.id, other.operator, other.params, other.addons, other.attrs)

    @property
    def kind(self) -> str:
        """The operator name, normalized for case-insensitive matching."""
        return self.operator.strip().lower()

    def param(self, *names: str) -> Optional[ParamSpec]:
        """First declared parameter among ``names`` (in name priority order)."""
        return next((self.params[n] for n in names if n in self.params), None)

    def param_value(self, *names: str) -> Optional[str]:
        """Value of the first declared parameter among ``names``."""
        spec = self.param(*names)
        return spec.value if spec is not None else None


class WorkflowSpec:
    """A parsed workflow: arguments plus an ordered operator sequence
    (``source_file`` and ``line`` are not compared)."""

    id: str
    name: str
    arguments: dict[str, ParamSpec]
    operators: list[OperatorSpec]
    #: originating file (when parsed from disk) for diagnostics
    source_file: Optional[str]
    #: 1-based source line of the ``<workflow>`` tag (when parsed from a file)
    line: Optional[int]

    def __init__(self, id: str, name: str, arguments: Optional[dict[str, ParamSpec]] = None,
                 operators: Optional[list[OperatorSpec]] = None,
                 source_file: Optional[str] = None, line: Optional[int] = None) -> None:
        self.id = id
        self.name = name
        self.arguments = {} if arguments is None else arguments
        self.operators = [] if operators is None else operators
        self.source_file = source_file
        self.line = line

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.id, self.name, self.arguments, self.operators) == (
            other.id, other.name, other.arguments, other.operators)

    def operator_index(self, op_id: str) -> Optional[int]:
        """Position of operator ``op_id`` in document order, if present."""
        return next((i for i, op in enumerate(self.operators) if op.id == op_id), None)

    def operator(self, op_id: str) -> OperatorSpec:
        index = self.operator_index(op_id)
        if index is None:
            raise WorkflowError(f"workflow {self.id!r} has no operator {op_id!r}")
        return self.operators[index]


def parse_workflow_config(source: str, filename: Optional[str] = None) -> WorkflowSpec:
    """Parse one ``<workflow>`` document (XML text).

    The static analyzer's located model
    (:func:`repro.analysis.model.build_workflow_model`) is the one reader
    of workflow XML and builds this spec: it is returned as built, or
    raised as a :class:`ConfigError` at the model's first error in
    document order.
    ``filename`` (when given) is recorded on the spec and woven into error
    messages as ``file:line`` so configuration mistakes are locatable.
    """
    from repro.analysis.model import build_workflow_model, first_error

    try:
        tree = parse_located(source)
    except XMLLocationError as exc:
        raise ConfigError(
            f"malformed workflow configuration XML: {exc} "
            f"[{format_location(filename, exc.line)}]"
        ) from exc
    model, diags = build_workflow_model(tree, filename)
    error = first_error(diags)
    if error is not None:
        raise ConfigError(f"{error.message} [{format_location(filename, error.line)}]")
    return model


def load_workflow_config(path: PathLike) -> WorkflowSpec:
    """Parse a workflow configuration file from disk."""
    return parse_workflow_config(read_config(path), filename=os.fspath(path))


class Bindings:
    """The ``$variable`` environment used while planning a workflow.

    Names resolve in two namespaces:

    * plain ``$name`` — workflow arguments (user-supplied or defaulted);
    * dotted ``$opid.param`` / ``$opid.$attr`` — values produced by earlier
      operators (output paths, add-on attributes).
    """

    def __init__(self, values: Optional[dict[str, Any]] = None) -> None:
        self._values: dict[str, Any] = dict(values or {})

    def bind(self, name: str, value: Any) -> None:
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return self._normalize(name) in self._values

    @staticmethod
    def _normalize(ref: str) -> str:
        # "$group.$indegree" and "group.indegree" address the same binding
        return ref.replace("$", "")

    def lookup(self, ref: str) -> Any:
        key = self._normalize(ref)
        if key not in self._values:
            raise WorkflowError(
                f"unresolved reference ${key}; known: {sorted(self._values)}"
            )
        return self._values[key]

    def resolve(self, raw: Any) -> Any:
        """Substitute every ``$ref`` in ``raw``.

        When the whole string is a single reference the bound value is
        returned with its native type; otherwise references are substituted
        textually (for composite values like ``"{>=, $threshold}"``).
        """
        if raw is None or not isinstance(raw, str):
            return raw
        whole = _REF_RE.fullmatch(raw.strip())
        if whole:
            return self.lookup(whole.group(1))
        return _REF_RE.sub(lambda m: str(self.lookup(m.group(1))), raw)


#: parameters naming a job's input path, in priority order
INPUT_PARAMS = ("inputPath", "input", "inputPathList")
#: parameters naming a job's output path (``ouputPath`` is Figure 8's spelling)
OUTPUT_PARAMS = ("outputPath", "ouputPath")
#: the parameter listing a split's output paths, one per condition
OUTPUT_LIST_PARAM = "outputPathList"


class Edge(Record):
    """One dataflow edge: output ``src_output`` of job ``src`` read by job
    ``dst``.  ``src is None`` is the workflow input."""

    src: Optional[str]
    src_output: int
    dst: str
    #: the producer's output path, or the path read from the workflow input
    path: str


class JobIO:
    """A job's paths as :func:`wire` reads them, and what it reads."""

    def __init__(self, op_id: str, kind: str, input: Optional[str],
                 input_param: Optional[str], outputs: list[str],
                 output_param: Optional[str], edges: list[Edge],
                 error: Optional[str] = None) -> None:
        self.op_id = op_id
        self.kind = kind
        #: the declared input path (None: no input parameter)
        self.input = input
        self.input_param = input_param
        #: output paths; splits have one per condition
        self.outputs = outputs
        self.output_param = output_param
        #: the edges feeding this job, in (producer, output slot) order
        self.edges = edges
        #: why the input cannot be wired (the edges are then only a best guess)
        self.error = error


def _first_value(params: dict[str, Any], names: tuple[str, ...]) -> tuple[Any, Optional[str]]:
    return next(((params[n], n) for n in names if params.get(n) is not None), (None, None))


def wire(op: OperatorSpec, params: dict[str, Any], earlier: list[JobIO]) -> JobIO:
    """Decide what ``op`` reads and writes, given its resolved ``params``
    (resolved by the planner, or symbolically by the analyzer) and the
    :class:`JobIO` of every job before it.

    * A job with no input parameter reads every output of the previous job
      (the first job reads the workflow input).
    * An input path reads each earlier output it names exactly, or as a
      directory on a ``/`` boundary (``/tmp/split/`` reads both outputs of
      a split writing under it).
    * An input path that names no earlier output reads the workflow input.
    * A path naming outputs of two jobs, and any read of a Distribute's
      output (the partitions are the workflow's product), is an error.

    A job without an output parameter writes ``/tmp/<id>``.
    """
    if op.kind == "split":
        raw, out_param = _first_value(params, (OUTPUT_LIST_PARAM,))
        listed = raw if isinstance(raw, (list, tuple)) else str(raw or "").split(",")
        outputs = [str(p).strip() for p in listed if str(p).strip()]
    else:
        raw, out_param = _first_value(params, OUTPUT_PARAMS)
        outputs = [str(raw or f"/tmp/{op.id}")]
    value, in_param = _first_value(params, INPUT_PARAMS)
    if isinstance(value, (list, tuple)):
        value = ",".join(map(str, value))
    path = None if value is None else str(value)
    io = JobIO(op.id, op.kind, path, in_param, outputs, out_param, edges=[])
    if path is None:
        matches = [(earlier[-1], k) for k in range(len(earlier[-1].outputs))] if earlier else []
    else:
        prefix = path.rstrip("/") + "/"
        matches = [
            (job, k) for job in earlier for k, out in enumerate(job.outputs)
            if out == path or out.startswith(prefix)
        ]
    if not matches:
        io.edges = [Edge(None, 0, op.id, path or "")]
        return io
    io.edges = [Edge(job.op_id, k, op.id, job.outputs[k]) for job, k in matches]
    sources = list(dict.fromkeys(job.op_id for job, _ in matches))
    reads = f"input {path!r}" if path is not None else "implicit input"
    if len(sources) > 1:
        io.error = (f"operator {op.id!r}: {reads} matches outputs of "
                    f"{len(sources)} jobs {sources}; name one job's output")
    elif matches[0][0].kind == "distribute":
        io.error = (f"operator {op.id!r}: {reads} reads the partitions of "
                    f"distribute {sources[0]!r}; a Distribute's output is the "
                    "workflow's product, and no later job can consume it")
    return io


def bind_arguments(
    spec: WorkflowSpec, user_args: Optional[dict[str, Any]] = None
) -> Bindings:
    """Build the initial environment from workflow arguments.

    ``user_args`` override config-file defaults; an argument without either
    is an error (the paper's runtime reads them from the command line).
    """
    user_args = dict(user_args or {})
    unknown = set(user_args) - set(spec.arguments)
    if unknown:
        raise WorkflowError(
            f"unknown workflow argument(s) {sorted(unknown)}; "
            f"declared: {sorted(spec.arguments)}"
        )
    env = Bindings()
    for name, ps in spec.arguments.items():
        if name in user_args:
            env.bind(name, ps.coerce(user_args[name]))
        elif ps.value is not None:
            env.bind(name, ps.coerce(ps.value))
        else:
            raise WorkflowError(f"workflow argument {name!r} has no value")
    return env
