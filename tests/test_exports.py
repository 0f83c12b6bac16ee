import importlib
import pkgutil

import qsc


def test_every_exported_name_resolves():
    modules = [qsc] + [importlib.import_module(f"qsc.{info.name}")
                       for info in pkgutil.iter_modules(qsc.__path__)
                       if not info.name.startswith("_")]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    namespace = {}
    exec("from qsc import *", namespace)
    assert set(qsc.__all__) <= set(namespace)
