"""Guards on the package surface: exported names resolve and have a caller
outside the tests, and every demo (the library's callers outside the tests)
still runs."""

import ast
import importlib
import inspect
import math
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
# the library's callers: the package __init__ holds only __version__, so it is not one
CALLERS = sorted(p for p in (SRC / "glfock").glob("*.py") if p.name != "__init__.py") \
    + DEMOS + PERFBENCH


@pytest.mark.parametrize("name", ["", *MODULES], ids=lambda name: name or "glfock")
def test_all_names_resolve(name):
    # the package itself has no __all__: each name is imported from its module
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
    probe = ("import sys, glfock; print(sorted(m for m in sys.modules if m.startswith('glfock.'))"
             " + [n for n in dir(glfock) if not n.startswith('_')])")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr


def test_frames_import_loads_no_fock_or_weierstrass():
    # frame-sweep's cold import scope: frames takes node arrays and reads
    # the weight kernel it is given, so it needs neither module
    probe = "import sys, glfock.frames; print(sorted(sys.modules.keys() & " \
            "{'glfock.fock', 'glfock.weierstrass'}))"
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
    used = _used_names(CALLERS)
    orphans = [f"{name}.{n}" for name in MODULES
               for n in getattr(importlib.import_module(f"glfock.{name}"), "__all__", [])
               if n not in used]
    assert orphans == []


def _private_definitions(tree):
    """(name, node) for each private name the module binds at top level by
    def, class or assignment; a dunder name is not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node


def test_private_names_have_a_library_caller():
    # the library holds no code that only the tests call: every private
    # top-level name of glfock is read by library code outside its own
    # definition, as a name, an attribute or an imported alias
    trees = {p: ast.parse(p.read_text()) for p in sorted((SRC / "glfock").glob("*.py"))}
    reads = {p: [(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                  else n.name, id(n)) for n in ast.walk(tree)
                 if isinstance(n, (ast.Name, ast.Attribute, ast.alias))]
             for p, tree in trees.items()}
    defined, orphans = 0, []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            defined += 1
            own = {id(n) for n in ast.walk(node)}
            if not any(r == name and (p != path or i not in own)
                       for p, rs in reads.items() for r, i in rs):
                orphans.append(f"{path.stem}.{name}")
    assert defined > 50 and orphans == []


def _set_parameters(paths) -> dict:
    """Callee name -> (largest positional count, keywords named) over every
    call in the files; a *args call passes every position, a **kwargs call
    names every keyword."""
    seen = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            n_pos, names = seen.get(name, (0, set()))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            n_pos = max(n_pos, math.inf if star else len(node.args))
            names |= {k.arg for k in node.keywords}
            seen[name] = (n_pos, names)
    return seen


# defaulted parameters allowed to go unset by every caller outside the tests
UNSET_ALLOWED: set[str] = set()


def test_defaulted_parameters_have_a_caller():
    seen = _set_parameters(CALLERS)
    unset = []
    for name in MODULES:
        mod = importlib.import_module(f"glfock.{name}")
        for n in getattr(mod, "__all__", []):
            fn = getattr(mod, n)
            if not inspect.isfunction(fn):
                continue
            n_pos, names = seen.get(n, (0, set()))
            for i, p in enumerate(inspect.signature(fn).parameters.values()):
                if p.default is p.empty:
                    continue
                positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                if not (p.name in names or None in names or (positional and n_pos > i)):
                    unset.append(f"{name}.{n}.{p.name}")
    assert sorted(set(unset) - UNSET_ALLOWED) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # each demo as a cold process: exit 0, output, and nothing on stderr (no
    # warning, no traceback); weierstrass_lattice is the one caller of g_fn
    # and two_sided_diag at N = 60
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout
