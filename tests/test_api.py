"""The public names that the package and its modules export exist."""

import importlib
import pkgutil

import pinchext


def test_every_exported_name_resolves():
    # a name left in an ``__all__`` after its definition is removed
    # breaks ``from pinchext import *``; this names every such export
    modules = [pinchext] + [
        importlib.import_module(f"pinchext.{info.name}")
        for info in pkgutil.iter_modules(pinchext.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
