"""Every name a lazily re-exporting package lists in ``__all__`` resolves.

``repro/_lazy.py`` maps each re-exported name to its defining module and
imports that module on first use, so a stale entry — a deleted module, a
renamed class — passes ``import`` and ruff and fails only when a caller
first touches the name.  This resolves them all.
"""

import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent.parent / "src"


def _lazy_packages():
    """Dotted names of the packages whose ``__init__`` calls ``lazy_exports``."""
    return sorted(
        ".".join(init.parent.relative_to(SRC).parts)
        for init in SRC.rglob("__init__.py")
        if "lazy_exports(" in init.read_text(encoding="utf-8")
    )


def test_the_scan_finds_the_lazy_packages():
    assert {"repro", "repro.core", "repro.mapreduce"} <= set(_lazy_packages())


@pytest.mark.parametrize("package", _lazy_packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    unresolved = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except (AttributeError, ImportError) as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved, f"{package}.__all__ has stale entries: {unresolved}"
