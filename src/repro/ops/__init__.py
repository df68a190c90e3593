"""The operator building blocks of PaPar workflows (Table I).

The standard operators register as their modules load:

* basic: ``Sort``, ``Group``, ``Split``, ``Distribute``;
* add-on: ``count``, ``max``, ``min``, ``mean``, ``sum``;
* format: ``orig``, ``pack``, ``unpack``.

A lookup by name (:func:`~repro.ops.base.get_basic` et al.) loads the
module of a built-in operator (:data:`BUILTINS`), so a workflow compiles
only the operators it names.  Custom operators inherit the base classes in
:mod:`repro.ops.base` and are either registered programmatically
(``register_basic`` et al.) or described in a Figure-7-style registration
file (:mod:`repro.config.operators`).
"""

from repro._lazy import lazy_exports

#: family -> built-in operator name (lower case) -> the module registering it
BUILTINS: dict[str, dict[str, str]] = {
    "basic": {"sort": "repro.ops.sort", "group": "repro.ops.group",
              "split": "repro.ops.split", "distribute": "repro.ops.distribute"},
    "addon": dict.fromkeys(("count", "max", "min", "mean", "sum"), "repro.ops.addons"),
    "format": dict.fromkeys(("orig", "pack", "unpack"), "repro.ops.format_ops"),
}

# names bind on first use (none of the modules imports numpy before its
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
