"""Guards on the package surface: exported names resolve and have a caller
outside the tests, and every demo (the library's callers outside the tests)
still runs."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import glfock

SRC = Path(glfock.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))
PERFBENCH = sorted((SRC.parent / "perfbench").rglob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(glfock.__path__))


@pytest.mark.parametrize("name", ["", *MODULES], ids=lambda name: name or "glfock")
def test_all_names_resolve(name):
    # the package itself re-exports names that load their module on first use
    mod = importlib.import_module(f"glfock.{name}" if name else "glfock")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []
    for n in getattr(mod, "__all__", []):
        obj = getattr(mod, n)
        assert getattr(sys.modules[obj.__module__], n) is obj
    if hasattr(mod, "__all__"):
        star = {}
        exec(f"from {mod.__name__} import *", star)
        assert sorted(star.keys() - {"__builtins__"}) == sorted(mod.__all__)
        assert set(mod.__all__) <= set(dir(mod))
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_name")


def test_import_loads_no_submodule():
    probe = "import sys, glfock; print(sorted(m for m in sys.modules if m.startswith('glfock.')))"
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr


def _used_names(paths) -> set:
    """Identifiers read as a name or an attribute anywhere in the files; a
    def or class line and a string in __all__ are not reads."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_public_names_have_a_caller():
    # the package __init__ only re-exports, so it does not count as a caller
    library = _used_names(p for p in (SRC / "glfock").glob("*.py") if p.name != "__init__.py")
    outside = _used_names(DEMOS + PERFBENCH)
    orphans = [f"{name}.{n}" for name in MODULES
               for n in getattr(importlib.import_module(f"glfock.{name}"), "__all__", [])
               if n not in library and n not in outside]
    assert orphans == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert r.returncode == 0, r.stderr
