import importlib
import pkgutil
from pathlib import Path

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


def test_readme_library_example_runs():
    # the README's Library code block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("\n## Library\n"):]
    code = section[section.index("```python\n") + 10:]
    code = code[:code.index("\n```")]
    namespace = {}
    exec(code, namespace)
    assert 1.0 <= namespace["mfs"] <= namespace["gfs"]
    assert namespace["report"].cfs >= namespace["mfs"]
