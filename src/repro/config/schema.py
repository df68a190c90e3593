"""Input-data configuration files (paper Section III-A, Figures 4 and 5).

PaPar's programming-free alternative to subclassing Hadoop's ``InputFormat``:
an XML file describing the input layout.  Example (Figure 4)::

    <input id="blast_db" name="BLAST Database file">
      <input_format>binary</input_format>
      <start_position>32</start_position>
      <element>
        <value name="seq_start" type="integer"/>
        <value name="seq_size"  type="integer"/>
        <value name="desc_start" type="integer"/>
        <value name="desc_size"  type="integer"/>
      </element>
    </input>

Text formats interleave ``<delimiter value="\\t"/>`` tags between values
(Figure 5).  Nested ``<element>`` groups are flattened with dotted prefixes
(the paper: "for derived data types, users may need to declare the nested
elements").
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from typing import Optional, Union

from repro.analysis.locate import (
    LocatedTree,
    XMLLocationError,
    format_location,
    parse_located,
    read_config,
)
from repro.errors import ConfigError, SchemaError
from repro.formats.records import Field, RecordSchema

PathLike = Union[str, os.PathLike]

_ESCAPES = {"\\t": "\t", "\\n": "\n", "\\r": "\r", "\\0": "\0"}

#: accepted aliases for field types (the paper capitalizes "String")
_TYPE_ALIASES = {
    "int": "integer",
    "integer": "integer",
    "long": "long",
    "float": "float",
    "double": "double",
    "string": "string",
}


def _unescape(delim: str) -> str:
    return _ESCAPES.get(delim, delim)


def _normalize_type(raw: str) -> str:
    t = _TYPE_ALIASES.get(raw.strip().lower())
    if t is None:
        raise SchemaError(f"unknown field type {raw!r}")
    return t


def _walk_element(
    elem: ET.Element,
    prefix: str,
    tree: Optional[LocatedTree] = None,
    filename: Optional[str] = None,
) -> tuple[list[Field], list[str]]:
    """Flatten ``<value>``/``<delimiter>``/nested ``<element>`` children."""

    def where(node: ET.Element) -> str:
        line = tree.line(node) if tree is not None else None
        return format_location(filename, line)

    fields: list[Field] = []
    delims: list[str] = []
    for child in elem:
        if child.tag == "value":
            name = child.get("name")
            type_ = child.get("type")
            if name is None or type_ is None:
                raise ConfigError(
                    f"<value> requires 'name' and 'type' attributes [{where(child)}]"
                )
            full_name = f"{prefix}{name}" if prefix else name
            fields.append(Field(full_name.replace(".", "__"), _normalize_type(type_)))
        elif child.tag == "delimiter":
            value = child.get("value")
            if value is None:
                raise ConfigError(
                    f"<delimiter> requires a 'value' attribute [{where(child)}]"
                )
            delims.append(_unescape(value))
        elif child.tag == "element":
            name = child.get("name", "")
            sub_prefix = f"{prefix}{name}." if name else prefix
            sub_fields, sub_delims = _walk_element(child, sub_prefix, tree, filename)
            fields.extend(sub_fields)
            delims.extend(sub_delims)
        else:
            raise ConfigError(
                f"unexpected tag <{child.tag}> inside <element> [{where(child)}]"
            )
    return fields, delims


def parse_input_config(source: str, filename: Optional[str] = None) -> RecordSchema:
    """Parse one ``<input>`` document (XML text) into a :class:`RecordSchema`.

    ``filename`` (when given) is woven into error messages as ``file:line``.
    """
    try:
        tree = parse_located(source)
    except XMLLocationError as exc:
        raise ConfigError(
            f"malformed input configuration XML: {exc} "
            f"[{format_location(filename, exc.line)}]"
        ) from exc
    root = tree.root

    def where(node: ET.Element) -> str:
        return format_location(filename, tree.line(node))

    if root.tag != "input":
        raise ConfigError(
            f"expected <input> root element, found <{root.tag}> [{where(root)}]"
        )
    input_id = root.get("id")
    if not input_id:
        raise ConfigError(f"<input> requires an 'id' attribute [{where(root)}]")

    fmt_node = root.find("input_format")
    input_format = (fmt_node.text or "").strip() if fmt_node is not None else "binary"
    if input_format not in ("binary", "text"):
        raise ConfigError(
            f"input_format must be 'binary' or 'text', got {input_format!r} "
            f"[{where(fmt_node if fmt_node is not None else root)}]"
        )

    start_node = root.find("start_position")
    start_position = 0
    if start_node is not None:
        try:
            start_position = int((start_node.text or "").strip())
        except ValueError as exc:
            raise ConfigError(
                f"start_position must be an integer: {start_node.text!r} "
                f"[{where(start_node)}]"
            ) from exc

    elem = root.find("element")
    if elem is None:
        raise ConfigError(f"input {input_id!r} declares no <element> [{where(root)}]")
    fields, delims = _walk_element(elem, "", tree, filename)

    return RecordSchema(
        id=input_id,
        fields=tuple(fields),
        input_format=input_format,
        start_position=start_position,
        delimiters=tuple(delims),
    )


def load_input_config(path: PathLike) -> RecordSchema:
    """Parse an input-data configuration file from disk."""
    return parse_input_config(read_config(path), filename=os.fspath(path))


class Schemas(dict):
    """The registered input schemas, by ``input id``."""

    def schema(self, schema_id: str) -> RecordSchema:
        """The schema registered as ``schema_id``."""
        if schema_id not in self:
            raise ConfigError(
                f"no input schema {schema_id!r} registered; known: {sorted(self)}"
            )
        return self[schema_id]


#: XML text of the paper's Figure 4 (BLAST index) configuration.
BLAST_INPUT_XML = """\
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>
"""

#: XML text of the paper's Figure 5 (edge list) configuration, with numeric
#: vertex ids (SNAP edge lists are integer ids; the paper types them String
#: only because its C++ parser reads raw tokens).
EDGE_INPUT_XML = """\
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="long"/>
    <delimiter value="\\t"/>
    <value name="vertex_b" type="long"/>
    <delimiter value="\\n"/>
  </element>
</input>
"""
