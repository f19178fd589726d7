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


def _reads(node) -> set:
    """Identifiers the node reads as a name, an attribute or an imported alias."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def _definitions(tree):
    """(name, node) for each name the module binds at top level by def,
    class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def _private_definitions(tree):
    """(name, node) for each private name of _definitions; a dunder name is
    not private."""
    for name, node in _definitions(tree):
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            yield name, node


# public names no command reaches yet, each with what calls it (a demo, perfbench
# or a test) and the ROADMAP item that plans its CLI row or its removal
NOT_REACHED_FROM_CLI = {
    # bargmann
    "bargmann_sample",        # demos/bargmann_roundtrip.py; item 9 plans its row
    # fock
    "QuadratureScheme",       # default_quadrature's return type; item 23's fock group
    "default_quadrature",     # wrapped by perfbench's tracer (tracing.py); item 23
    "inner_product_fock",     # demos/weight_moments.py and test_fock; item 9 plans its row
    # frames
    "frame_bounds",           # demos/sampling_frames.py and test_frames; item 4
    "kernel_atoms",           # demos/sampling_frames.py and test_frames; item 4
    "canonical_dual",         # perfbench's canonical_dual op; item 4's row (d)
    # weierstrass
    "PerturbedLattice",       # perfbench's two_sided op; items 14 and 17
    "g_fn",                   # demos/weierstrass_lattice.py; item 2's lattice suite
    "log_g_fn",               # perfbench's tracer (log_g_fn.ns_per_pair); item 2
    "two_sided_diag",         # perfbench's two_sided op; item 2's criterion 07 row
    "winding_zero_count",     # perfbench's winding op; item 2's criterion 06 row
}


def test_public_names_reached_from_the_cli():
    # ROADMAP item 23: every public name is reached from glfock.cli, following
    # the names cli.py reads through the top-level definitions of every
    # module (merged by identifier), or is on the list above; a name that
    # a command comes to reach must leave the list
    defs = {}
    for path in sorted((SRC / "glfock").glob("*.py")):
        for name, node in _definitions(ast.parse(path.read_text())):
            defs.setdefault(name, []).append(node)
    reached, todo = set(), _reads(ast.parse((SRC / "glfock" / "cli.py").read_text()))
    while todo:
        reached |= todo
        todo = set().union(*(_reads(node) for n in todo for node in defs.get(n, []))) - reached
    public = {n for name in MODULES
              for n in getattr(importlib.import_module(f"glfock.{name}"), "__all__", [])}
    assert sorted(public - reached - NOT_REACHED_FROM_CLI) == []
    assert sorted(NOT_REACHED_FROM_CLI - (public - reached)) == []


def test_unreached_names_have_a_caller_outside_the_tests():
    # each name on the list is read by a demo or perfbench (as a name, an
    # attribute or a "module.name" key of perfbench's tracer), or is the
    # annotated return type of a function on the list, so the list holds no
    # name that only the tests call
    keys = {n.value.split(".")[1] for path in PERFBENCH for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value.count(".") == 1 and n.value.split(".")[0] in MODULES}
    returns = {ast.unparse(node.returns).strip("'\"")
               for path in sorted((SRC / "glfock").glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name in NOT_REACHED_FROM_CLI
               and node.returns is not None}
    assert sorted(NOT_REACHED_FROM_CLI - _used_names(DEMOS + PERFBENCH) - keys - returns) == []


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
