"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import hitmin


def test_every_exported_name_resolves():
    modules = [hitmin] + [importlib.import_module(f"hitmin.{m.name}")
                          for m in pkgutil.iter_modules(hitmin.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
