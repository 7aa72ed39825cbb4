"""Every name a ybion module lists in __all__ must exist in that module.

A star import raises AttributeError on a stale entry, and readers take
__all__ as the public API; a class or function deleted without its entry
would otherwise go unnoticed.
"""

import importlib
import pkgutil
import types

import ybion


def stale_exports(modules):
    """'module.name' of each __all__ entry that its module lacks."""
    return [f"{module.__name__}.{name}" for module in modules
            for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"ybion.{info.name}")
               for info in pkgutil.iter_modules(ybion.__path__)]
    assert len(modules) > 1
    assert stale_exports(modules) == []


def test_a_stale_export_is_named():
    kept = types.ModuleType("kept")
    kept.__all__ = ["present"]
    kept.present = object()
    stale = types.ModuleType("stale")
    stale.__all__ = ["present", "deleted"]
    stale.present = object()
    assert stale_exports([kept, stale]) == ["stale.deleted"]
