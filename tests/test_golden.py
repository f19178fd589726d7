"""Byte-identity gate for the default (exponential) CLI output.

`golden_exp_cli.json` maps each command line to the sha256 of its stdout.
The exponential family integrates with Gauss-Laguerre, so no change to the
other quadrature paths may move these bytes.  A change that alters them on
purpose records new digests and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from glfock.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_exp_cli.json").read_text())


@pytest.mark.parametrize("cmdline", sorted(GOLDEN))
def test_exponential_cli_bytes(capsys, cmdline):
    rc = main(cmdline.split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[cmdline]
