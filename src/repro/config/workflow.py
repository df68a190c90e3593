"""Workflow configuration files (paper Section III-B/C, Figures 8 and 10).

A workflow names its arguments and a sequence of operators; ``$name``
references pull values from the arguments, and ``$opid.param`` /
``$opid.$attr`` references pull intermediate values produced by earlier
operators (e.g. ``$sort.outputPath``, ``$group.$indegree``).
"""

from __future__ import annotations

import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.analysis.locate import XMLLocationError, format_location, parse_located, read_config
from repro.errors import ConfigError, WorkflowError

PathLike = Union[str, os.PathLike]

_REF_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*(?:\.\$?[A-Za-z_][A-Za-z0-9_]*)*)")

#: string literals accepted by boolean parameter coercion
BOOLEAN_TRUE_LITERALS = frozenset({"true", "1", "yes", "on"})
BOOLEAN_FALSE_LITERALS = frozenset({"false", "0", "no", "off"})


@dataclass(frozen=True)
class ParamSpec:
    """One ``<param>`` declaration."""

    name: str
    type: str = "String"
    value: Optional[str] = None
    format: Optional[str] = None
    #: 1-based source line of the declaration (when parsed from a file)
    line: Optional[int] = field(default=None, compare=False, repr=False)

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


@dataclass(frozen=True)
class AddOnSpec:
    """One ``<addon>`` attached to a basic operator (e.g. ``count``)."""

    operator: str
    key: Optional[str] = None
    attr: Optional[str] = None
    value: Optional[str] = None
    #: 1-based source line of the declaration (when parsed from a file)
    line: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass
class OperatorSpec:
    """One ``<operator>`` stage of the workflow."""

    id: str
    operator: str
    params: dict[str, ParamSpec] = field(default_factory=dict)
    addons: list[AddOnSpec] = field(default_factory=list)
    attrs: dict[str, str] = field(default_factory=dict)
    #: 1-based source line of the ``<operator>`` tag (when parsed from a file)
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def param_value(self, name: str) -> Optional[str]:
        spec = self.params.get(name)
        return spec.value if spec is not None else None


@dataclass
class WorkflowSpec:
    """A parsed workflow: arguments plus an ordered operator sequence."""

    id: str
    name: str
    arguments: dict[str, ParamSpec] = field(default_factory=dict)
    operators: list[OperatorSpec] = field(default_factory=list)
    #: originating file (when parsed from disk) for diagnostics
    source_file: Optional[str] = field(default=None, compare=False, repr=False)

    def operator(self, op_id: str) -> OperatorSpec:
        for op in self.operators:
            if op.id == op_id:
                return op
        raise WorkflowError(f"workflow {self.id!r} has no operator {op_id!r}")


def _parse_param(node: ET.Element, line: Optional[int], where: str) -> ParamSpec:
    name = node.get("name")
    if not name:
        raise ConfigError(f"<param> requires a 'name' attribute [{where}]")
    return ParamSpec(
        name=name,
        type=node.get("type", "String"),
        value=node.get("value"),
        format=node.get("format"),
        line=line,
    )


def parse_workflow_config(source: str, filename: Optional[str] = None) -> WorkflowSpec:
    """Parse one ``<workflow>`` document (XML text).

    ``filename`` (when given) is recorded on the spec and woven into error
    messages as ``file:line`` so configuration mistakes are locatable.
    """
    try:
        tree = parse_located(source)
    except XMLLocationError as exc:
        raise ConfigError(
            f"malformed workflow configuration XML: {exc} "
            f"[{format_location(filename, exc.line)}]"
        ) from exc
    root = tree.root

    def where(node: ET.Element) -> str:
        return format_location(filename, tree.line(node))

    if root.tag != "workflow":
        raise ConfigError(
            f"expected <workflow> root element, found <{root.tag}> [{where(root)}]"
        )
    wf_id = root.get("id")
    if not wf_id:
        raise ConfigError(f"<workflow> requires an 'id' attribute [{where(root)}]")
    spec = WorkflowSpec(id=wf_id, name=root.get("name", wf_id), source_file=filename)

    args_node = root.find("arguments")
    if args_node is not None:
        for p in args_node.findall("param"):
            ps = _parse_param(p, tree.line(p), where(p))
            if ps.name in spec.arguments:
                raise ConfigError(
                    f"duplicate workflow argument {ps.name!r} [{where(p)}]"
                )
            spec.arguments[ps.name] = ps

    ops_node = root.find("operators")
    if ops_node is None or not list(ops_node):
        raise ConfigError(
            f"workflow {wf_id!r} declares no operators [{where(root)}]"
        )
    seen_ids: set[str] = set()
    for op_node in ops_node.findall("operator"):
        op_id = op_node.get("id")
        op_name = op_node.get("operator")
        if not op_id or not op_name:
            raise ConfigError(
                f"<operator> requires 'id' and 'operator' attributes [{where(op_node)}]"
            )
        if op_id in seen_ids:
            raise ConfigError(f"duplicate operator id {op_id!r} [{where(op_node)}]")
        seen_ids.add(op_id)
        op = OperatorSpec(
            id=op_id,
            operator=op_name,
            attrs={
                k: v for k, v in op_node.attrib.items() if k not in ("id", "operator")
            },
            line=tree.line(op_node),
        )
        for p in op_node.findall("param"):
            ps = _parse_param(p, tree.line(p), where(p))
            op.params[ps.name] = ps
        for a in op_node.findall("addon"):
            op.addons.append(
                AddOnSpec(
                    operator=a.get("operator", ""),
                    key=a.get("key"),
                    attr=a.get("attr"),
                    value=a.get("value"),
                    line=tree.line(a),
                )
            )
            if not op.addons[-1].operator:
                raise ConfigError(
                    f"<addon> in operator {op_id!r} requires 'operator' [{where(a)}]"
                )
        spec.operators.append(op)
    return spec


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
