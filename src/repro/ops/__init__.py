"""The operator building blocks of PaPar workflows (Table I).

Importing this package registers the standard operators:

* basic: ``Sort``, ``Group``, ``Split``, ``Distribute``;
* add-on: ``count``, ``max``, ``min``, ``mean``, ``sum``;
* format: ``orig``, ``pack``, ``unpack``.

Custom operators inherit the base classes in :mod:`repro.ops.base` and are
either registered programmatically (``register_basic`` et al.) or described
in a Figure-7-style registration file (:mod:`repro.config.operators`).
"""

from repro._lazy import lazy_exports

# names bind on first use; the built-in operators register as their modules
# load, so the package loads them all below (none imports numpy before its
# kernel runs)
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.ops.base": (
        "Operator", "BasicOperator", "AddOnOperator", "FormatOperator",
        "register_basic", "register_addon", "register_format",
        "get_basic", "get_addon", "get_format", "registered_names",
    ),
    "repro.ops.sort": ("Sort", "ASCENDING", "DESCENDING"),
    "repro.ops.group": ("Group",),
    "repro.ops.split": ("Split",),
    "repro.ops.distribute": ("Distribute",),
    "repro.ops.addons": ("Count", "Max", "Min", "Mean", "Sum"),
    "repro.ops.format_ops": ("Orig", "Pack", "Unpack"),
})

from repro.ops import addons, distribute, format_ops, group, sort, split  # noqa: E402,F401
