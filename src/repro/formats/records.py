"""Record schemas: the typed element layout described by input-data configs.

The paper's input configuration (Figures 4 and 5) declares an ``element`` as
an ordered list of typed ``value`` fields, optionally with delimiters (text
format) or a byte offset (binary format).  A :class:`RecordSchema` is the
in-memory form of that declaration; numeric schemas map onto numpy structured
dtypes so record batches live in contiguous arrays (the HPC fast path used by
the operators).  Widths come from a table of the config types, so only the
first dtype imports numpy.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.errors import FormatError, Record, SchemaError

if TYPE_CHECKING:  # pragma: no cover - numpy loads with the first record
    import numpy as np

#: config type name -> bytes of one field in the binary layout (the paper:
#: "4 bytes/integer"); a text ``string`` field has no fixed width
_WIDTHS: dict[str, Optional[int]] = {
    "integer": 4, "long": 8, "float": 4, "double": 8, "string": None,
}

#: the values an integer field holds, from its width (the others are floats)
_INT_RANGES: dict[str, tuple[int, int]] = {
    name: (-(1 << (8 * _WIDTHS[name] - 1)), (1 << (8 * _WIDTHS[name] - 1)) - 1)
    for name in ("integer", "long")
}


class Field(Record):
    """One typed value inside an element (immutable)."""

    name: str
    type: str

    def __init__(self, name: str, type: str) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"field name {name!r} is not a valid identifier")
        if type not in _WIDTHS:
            raise SchemaError(
                f"field {name!r} has unknown type {type!r}; "
                f"expected one of {sorted(_WIDTHS)}"
            )
        vars(self).update(name=name, type=type)

    @property
    def width(self) -> Optional[int]:
        """Bytes of this field in the binary layout (``None`` for a string)."""
        return _WIDTHS[self.type]

    @property
    def numpy_dtype(self) -> np.dtype:
        if self.width is None:
            raise SchemaError(
                f"field {self.name!r}: string fields have no fixed binary width"
            )
        import numpy as np

        return np.dtype(f"<{'i' if self.type in _INT_RANGES else 'f'}{self.width}")

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


class RecordSchema(Record):
    """An ordered, named, typed record layout (immutable).

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
    input_format: str
    start_position: int
    delimiters: tuple[str, ...]

    def __init__(self, id: str, fields: tuple[Field, ...], input_format: str = "binary",
                 start_position: int = 0, delimiters: tuple[str, ...] = ()) -> None:
        vars(self).update(id=id, fields=fields, input_format=input_format,
                          start_position=start_position, delimiters=delimiters)
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

    @cached_property
    def dtype(self) -> np.dtype:
        """Structured dtype of one element (numeric schemas only), built once."""
        import numpy as np

        return np.dtype([(f.name, f.numpy_dtype) for f in self.fields])

    def __getstate__(self) -> dict[str, Any]:
        # a pickle carries the declaration only; the copy rebuilds its dtype
        return {k: v for k, v in self.__dict__.items() if k != "dtype"}

    @property
    def width(self) -> Optional[int]:
        """Bytes per record; ``None`` with a text string field."""
        widths = [f.width for f in self.fields]
        return None if None in widths else sum(widths)

    @property
    def itemsize(self) -> int:
        """Bytes per record in the binary layout (the packed dtype's itemsize)."""
        if self.width is None:
            raise SchemaError(f"schema {self.id!r}: string fields have no fixed binary width")
        return self.width

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
        import numpy as np

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
