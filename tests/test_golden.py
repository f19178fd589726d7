"""Byte-identity gates for CLI output.

`golden_exp_cli.json` maps each default (exponential) command line, and the
window-1 and M = 0 frame sweeps, once as CSV and once with `--format json`,
to the sha256 of its stdout.  Every
family integrates radially with the same exp-sinh rule (the planar
integrals take their ring means in closed form, with no angular rule), so
a change to it moves the `check --suite moments` and
`check --suite reproduce` bytes here too.

`golden_family_cli.json` does the same for the non-exponential families in
`FAMILIES`; its keys are "<family> <command line>", and the command runs with
`--config` pointing at a file that holds only that family's `phi`.  Every
command in it exits 0.

A change that alters any of these bytes on purpose records new digests and
says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from glfock.cli import main

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_exp_cli.json").read_text())
FAMILY_GOLDEN = json.loads((HERE / "golden_family_cli.json").read_text())

FAMILIES = {
    "GD(1)": {"family": "gamma_deriv", "params": {"n": 1}},
    "GD(2)": {"family": "gamma_deriv", "params": {"n": 2}},
    "GD(3)": {"family": "gamma_deriv", "params": {"n": 3}},
    "ML(2,1)": {"family": "mittag_leffler", "params": {"rho": 2.0, "mu": 1.0}},
}


def _digest(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("cmdline", sorted(GOLDEN))
def test_exponential_cli_bytes(capsys, cmdline):
    assert _digest(capsys, cmdline.split()) == GOLDEN[cmdline]


@pytest.mark.parametrize("key", sorted(FAMILY_GOLDEN))
def test_family_cli_bytes(capsys, tmp_path, key):
    family, cmdline = key.split(" ", 1)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"phi": FAMILIES[family]}))
    argv = cmdline.split() + ["--config", str(cfg)]
    assert _digest(capsys, argv) == FAMILY_GOLDEN[key]
