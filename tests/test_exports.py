"""The package's public names: each module's ``__all__``, the package-level
re-exports, and the functions the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import llglab

ROOT = Path(__file__).resolve().parents[1]


def test_all_entries_resolve_and_reexports_are_listed():
    unresolved = []
    for info in pkgutil.iter_modules(llglab.__path__):
        mod = importlib.import_module(f"llglab.{info.name}")
        unresolved += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                       if not hasattr(mod, name)]
    assert not unresolved, f"__all__ entries that do not resolve: {unresolved}"
    # every ``from .submodule import name`` of the package names a public name there
    tree = ast.parse(Path(llglab.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    unlisted = [f"{module}.{name}" for module, name in reexports
                if name not in importlib.import_module(f"llglab.{module}").__all__]
    assert not unlisted, f"llglab re-exports names missing from their module's __all__: {unlisted}"


def test_traced_functions_exist():
    # bench/ lies outside testpaths; without this, a traced function deleted
    # from src/ breaks the benchmark and no test here
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(f"llglab.{layer}"), name)]
    assert not missing, f"bench/tracer.py traces functions llglab lacks: {missing}"
