"""Record schemas: the typed element layout described by input-data configs.

The paper's input configuration (Figures 4 and 5) declares an ``element`` as
an ordered list of typed ``value`` fields, optionally with delimiters (text
format) or a byte offset (binary format).  A :class:`RecordSchema` is the
in-memory form of that declaration; numeric schemas map onto numpy structured
dtypes so record batches live in contiguous arrays (the HPC fast path used by
the operators).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Sequence

import numpy as np

from repro.errors import FormatError, SchemaError

#: config type name -> numpy dtype for fixed-width binary fields
_BINARY_TYPES: dict[str, np.dtype] = {
    "integer": np.dtype("<i4"),  # the paper: "4 bytes/integer"
    "long": np.dtype("<i8"),
    "float": np.dtype("<f4"),
    "double": np.dtype("<f8"),
}

#: the values an integer field holds, from its binary width
_INT_RANGES: dict[str, tuple[int, int]] = {
    name: (int(np.iinfo(dt).min), int(np.iinfo(dt).max))
    for name, dt in _BINARY_TYPES.items()
    if dt.kind == "i"
}

#: type names that are also valid in text format (parsed from strings)
_TEXT_TYPES = set(_BINARY_TYPES) | {"string"}


@dataclass(frozen=True)
class Field:
    """One typed value inside an element."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"field name {self.name!r} is not a valid identifier")
        if self.type not in _TEXT_TYPES:
            raise SchemaError(
                f"field {self.name!r} has unknown type {self.type!r}; "
                f"expected one of {sorted(_TEXT_TYPES)}"
            )

    @property
    def numpy_dtype(self) -> np.dtype:
        if self.type == "string":
            raise SchemaError(
                f"field {self.name!r}: string fields have no fixed binary width"
            )
        return _BINARY_TYPES[self.type]

    def parse_text(self, token: str) -> Any:
        """Convert one text token to this field's Python value.

        ``ValueError`` for a token that is not a number; ``FormatError`` for
        an integer outside the field's binary width.
        """
        if self.type == "string":
            return token
        if self.type in _INT_RANGES:
            value = int(token)
            low, high = _INT_RANGES[self.type]
            if not low <= value <= high:
                raise FormatError(f"{token!r} is out of range for {self.type} field {self.name!r}")
            return value
        return float(token)


@dataclass(frozen=True)
class RecordSchema:
    """An ordered, named, typed record layout.

    Parameters
    ----------
    id:
        The ``input id`` from the configuration file.
    fields:
        Ordered fields of one element.
    input_format:
        ``"binary"`` (fixed-width records) or ``"text"`` (delimited lines).
    start_position:
        Bytes to skip at the head of a binary file (the BLAST index starts at
        byte 32 in Figure 4).
    delimiters:
        For text format: the separator after each field (defaults to a tab
        between fields and a newline after the last, as in Figure 5).
    """

    id: str
    fields: tuple[Field, ...]
    input_format: str = "binary"
    start_position: int = 0
    delimiters: tuple[str, ...] = dc_field(default=())

    def __post_init__(self) -> None:
        if not self.fields:
            raise SchemaError(f"schema {self.id!r} declares no fields")
        if self.input_format not in ("binary", "text"):
            raise SchemaError(
                f"schema {self.id!r}: input_format must be 'binary' or 'text', "
                f"got {self.input_format!r}"
            )
        if self.start_position < 0:
            raise SchemaError(f"schema {self.id!r}: start_position must be >= 0")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema {self.id!r}: duplicate field names in {names}")
        if self.input_format == "binary":
            for f in self.fields:
                if f.type == "string":
                    raise SchemaError(
                        f"schema {self.id!r}: binary format cannot hold "
                        f"variable-width string field {f.name!r}"
                    )
            if self.delimiters:
                raise SchemaError(f"schema {self.id!r}: binary format takes no delimiters")
        else:
            if self.start_position:
                raise SchemaError(f"schema {self.id!r}: text format takes no start_position")
            if self.delimiters and len(self.delimiters) != len(self.fields):
                raise SchemaError(
                    f"schema {self.id!r}: need one delimiter per field "
                    f"({len(self.fields)}), got {len(self.delimiters)}"
                )

    # -- numpy interop -------------------------------------------------------

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @property
    def dtype(self) -> np.dtype:
        """Structured dtype of one element (binary / numeric schemas only)."""
        return np.dtype([(f.name, f.numpy_dtype) for f in self.fields])

    @property
    def itemsize(self) -> int:
        """Bytes per record in the binary layout."""
        return self.dtype.itemsize

    def index_of(self, name: str) -> int:
        """Position of field ``name`` within the element."""
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        raise SchemaError(f"schema {self.id!r} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def to_structured(self, rows: Sequence[Sequence[Any]]) -> np.ndarray:
        """Build a structured array from row tuples."""
        return np.array([tuple(r) for r in rows], dtype=self.dtype)

    def effective_delimiters(self) -> tuple[str, ...]:
        """Delimiters with the Figure 5 default (tabs, trailing newline)."""
        if self.delimiters:
            return self.delimiters
        n = len(self.fields)
        return ("\t",) * (n - 1) + ("\n",)

    # -- schema algebra used by add-on operators --------------------------------

    def with_field(self, name: str, type: str = "long") -> "RecordSchema":
        """A new schema with an appended attribute (add-on operators add
        attributes, e.g. ``indegree`` in the hybrid-cut workflow)."""
        if self.has_field(name):
            raise SchemaError(f"schema {self.id!r} already has a field {name!r}")
        new_delims = ()
        if self.input_format == "text":
            base = self.effective_delimiters()
            new_delims = base[:-1] + ("\t", base[-1])
        return RecordSchema(
            id=self.id,
            fields=self.fields + (Field(name, type),),
            input_format=self.input_format,
            start_position=self.start_position,
            delimiters=new_delims,
        )

    def without_field(self, name: str) -> "RecordSchema":
        """A new schema with ``name`` removed (add-ons may delete attributes)."""
        idx = self.index_of(name)
        new_delims = ()
        if self.input_format == "text" and self.delimiters:
            new_delims = tuple(d for i, d in enumerate(self.delimiters) if i != idx)
            # keep a line terminator if we dropped the last field
            if new_delims and not new_delims[-1].endswith("\n"):
                new_delims = new_delims[:-1] + ("\n",)
        return RecordSchema(
            id=self.id,
            fields=tuple(f for f in self.fields if f.name != name),
            input_format=self.input_format,
            start_position=self.start_position,
            delimiters=new_delims,
        )


#: Schema of the muBLASTP four-tuple index (Figures 1, 4).
BLAST_INDEX_SCHEMA = RecordSchema(
    id="blast_db",
    fields=(
        Field("seq_start", "integer"),
        Field("seq_size", "integer"),
        Field("desc_start", "integer"),
        Field("desc_size", "integer"),
    ),
    input_format="binary",
    start_position=32,
)

#: Schema of an edge-list line ``vertex_a \t vertex_b \n`` (Figure 5).
EDGE_LIST_SCHEMA = RecordSchema(
    id="graph_edge",
    fields=(Field("vertex_a", "long"), Field("vertex_b", "long")),
    input_format="text",
    delimiters=("\t", "\n"),
)
