"""Operator base classes and registries (paper Section III-B, Table I).

Three operator families, distinguished by what they do to the data:

* **Basic** operators (sort, group, split, distribute) reorder entries but
  never add, delete or mutate attributes.  A single basic operator can be a
  whole workflow.
* **Add-on** operators (count, max, min, mean, sum) add or delete attributes.
  They cannot form a job alone; they ride on a basic operator.
* **Format** operators (orig, pack, unpack) change the data layout without
  reordering entries or touching attributes.

Users register custom operators by inheriting one of these classes and
describing the class in a registration file (Figure 7,
:mod:`repro.config.operators`).
"""

from __future__ import annotations

import abc
import importlib
from typing import TYPE_CHECKING, Any, ClassVar, Optional

from repro.errors import OperatorError
from repro.ops import BUILTINS

if TYPE_CHECKING:  # pragma: no cover - the kernels import these where they run
    import numpy as np

    from repro.core.dataset import Dataset
    from repro.formats.packed import PackedRecords


class Operator(abc.ABC):
    """Root of the operator hierarchy."""

    #: the name used in workflow configuration files
    name: ClassVar[str] = "abstract"


class BasicOperator(Operator):
    """Reorders entries; never changes attributes.

    ``apply_local`` is the single-node kernel: it transforms one rank's local
    dataset.  The distributed runtime composes kernels with shuffles; the
    serial backend just calls the kernel on the whole input.
    """

    @abc.abstractmethod
    def apply_local(self, data: Any) -> Any:
        """Transform local data (a Dataset, or operator-specific input)."""


class AddOnOperator(Operator):
    """Adds one attribute per record, computed over each key group.

    User add-ons implement :meth:`compute_group`, the per-group aggregate;
    the built-ins implement :meth:`compute_groups`, the same aggregate over
    every group of a CSR-packed array at once.
    """

    #: dtype of the attribute the add-on appends
    attr_type: ClassVar[str] = "long"
    #: whether the add-on needs a ``value`` field to aggregate (count does not)
    needs_field: ClassVar[bool] = True

    def compute_group(self, rows: np.ndarray, field: Optional[str]) -> Any:
        """Aggregate one group's rows into the attribute value."""
        raise NotImplementedError(
            f"add-on {self.name!r} implements neither compute_group nor compute_groups"
        )

    def compute_groups(
        self, records: np.ndarray, indptr: np.ndarray, field: Optional[str]
    ) -> np.ndarray:
        """One aggregate per group; group ``g`` is ``records[indptr[g]:indptr[g+1]]``.

        This fallback calls :meth:`compute_group` once per group.
        """
        import numpy as np

        bounds = indptr.tolist()
        return np.array(
            [self.compute_group(records[lo:hi], field) for lo, hi in zip(bounds, bounds[1:])]
        )

    def apply(
        self, packed: PackedRecords, attr: str, field: Optional[str] = None
    ) -> PackedRecords:
        """Append attribute ``attr`` to every record of every group."""
        if self.needs_field and field is None:
            raise OperatorError(f"add-on {self.name!r} requires a value field")
        if self.needs_field and field is not None and not packed.schema.has_field(field):
            raise OperatorError(
                f"add-on {self.name!r}: schema {packed.schema.id!r} has no field {field!r}"
            )
        import numpy as np

        from repro.formats.packed import PackedRecords

        new_schema = packed.schema.with_field(attr, self.attr_type)
        extended = np.empty(packed.num_records, dtype=new_schema.dtype)
        for name in packed.schema.field_names:
            extended[name] = packed.records[name]
        values = self.compute_groups(packed.records, packed.indptr, field)
        extended[attr] = np.repeat(values, packed.counts)
        return PackedRecords(
            schema=new_schema, key_field=packed.key_field,
            records=extended, indptr=packed.indptr,
        )


class FormatOperator(Operator):
    """Changes the data layout (orig / pack / unpack)."""

    @abc.abstractmethod
    def apply(self, data: Dataset, key_field: Optional[str] = None) -> Dataset:
        """Re-lay-out the dataset."""


# -- registries ----------------------------------------------------------------

_REGISTRIES: dict[str, dict[str, type]] = {"basic": {}, "addon": {}, "format": {}}


def _lookup(family: str, name: str) -> Optional[type]:
    """The class registered as ``name`` in ``family``; a built-in operator's
    module (:data:`repro.ops.BUILTINS`) loads on its first lookup."""
    key = name.strip().lower()
    registry = _REGISTRIES[family]
    if key not in registry and key in BUILTINS[family]:
        importlib.import_module(BUILTINS[family][key])
    return registry.get(key)


def _register(family: str, cls: type, kind: str) -> type:
    # a built-in of the same name loads first, so it is refused as before
    if _lookup(family, cls.name) not in (None, cls):
        raise OperatorError(f"{kind} operator {cls.name!r} is already registered")
    _REGISTRIES[family][cls.name.strip().lower()] = cls
    return cls


def _known(family: str) -> list[str]:
    """Every name registered in ``family``, the built-ins loaded first."""
    for module in set(BUILTINS[family].values()):
        importlib.import_module(module)
    return sorted(_REGISTRIES[family])


def register_basic(cls: type[BasicOperator]) -> type[BasicOperator]:
    """Class decorator adding a basic operator to the registry."""
    return _register("basic", cls, "basic")


def register_addon(cls: type[AddOnOperator]) -> type[AddOnOperator]:
    """Class decorator adding an add-on operator to the registry."""
    return _register("addon", cls, "add-on")


def register_format(cls: type[FormatOperator]) -> type[FormatOperator]:
    """Class decorator adding a format operator to the registry."""
    return _register("format", cls, "format")


def get_basic(name: str) -> type[BasicOperator]:
    """Look up a basic operator class by configuration name."""
    cls = _lookup("basic", name)
    if cls is None:
        raise OperatorError(f"unknown basic operator {name!r}; known: {_known('basic')}")
    return cls


def get_addon(name: str) -> AddOnOperator:
    """Instantiate an add-on operator by configuration name."""
    cls = _lookup("addon", name)
    if cls is None:
        raise OperatorError(f"unknown add-on operator {name!r}; known: {_known('addon')}")
    return cls()


def get_format(name: str) -> FormatOperator:
    """Instantiate a format operator by configuration name."""
    cls = _lookup("format", name)
    if cls is None:
        raise OperatorError(f"unknown format operator {name!r}; known: {_known('format')}")
    return cls()


def addon_signature(name: str) -> tuple[str, bool]:
    """``(attr_type, needs_field)`` of an add-on, read off its registered
    class without instantiating it; ``("long", False)`` for an unknown name."""
    cls = _lookup("addon", name)
    return (cls.attr_type, cls.needs_field) if cls is not None else ("long", False)


def registered_names() -> dict[str, list[str]]:
    """All registered operator names by family (Table I introspection)."""
    return {family: _known(family) for family in _REGISTRIES}


def is_basic(op: object, *names: str) -> bool:
    """Whether ``op`` is an instance of one of the basic operators ``names``
    (``"group"``...), loading none of them: an operator's class registers
    as its module loads, and no instance exists before that."""
    registry = _REGISTRIES["basic"]
    return any(isinstance(op, registry[name]) for name in names if name in registry)
