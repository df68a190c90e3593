"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package that re-exports its submodules' public names eagerly makes every
``import repro.<package>.<module>`` pay for all of its siblings; these
packages instead resolve a name on first use, so a command imports only
the modules it calls (``tools/startup_budget.py`` measures it).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` of a package whose ``namespace``
    re-exports ``exports`` (defining module -> names) on first use."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return sorted(home), __getattr__, __dir__
