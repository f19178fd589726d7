import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = str(BENCH.parent / "src")
sys.path[:0] = [str(BENCH), SRC]
# CLI children import glfock from the checkout, as run.main arranges
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
