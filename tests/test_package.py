"""Guards on the package surface: exported names resolve, and every demo
(the library's callers outside the tests) still runs."""

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
MODULES = sorted(m.name for m in pkgutil.iter_modules(glfock.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"glfock.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert r.returncode == 0, r.stderr
