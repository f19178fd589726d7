"""Tests of the benchmark itself: oracles, tiny workloads, error counting
and tracing.  Run with ``python -m pytest perfbench/tests`` from the root."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import oracles
import run
import tracing
import workloads
from glfock import core, fock


# -- oracles -----------------------------------------------------------------

def test_horner_matches_polyval():
    c = [1.0 - 2.0j, 0.5, 3.0j, -1.25]
    z = 0.7 - 0.4j
    assert oracles.horner(c, z) == pytest.approx(np.polyval(c[::-1], z), abs=1e-14)


@pytest.mark.parametrize("radius, count", [(1.0, 1), (1.5, 9), (2.5, 21)])
def test_lattice_count(radius, count):
    assert oracles.lattice_count(radius) == count


def test_sigma_square_classical_properties():
    z = 0.3 + 0.2j
    assert abs(oracles.sigma_square(1e-4) / 1e-4 - 1) < 1e-8       # sigma(z) ~ z
    assert abs(oracles.sigma_square(1.0)) < 1e-12                   # zero at a node
    assert oracles.sigma_square(1j * z) == pytest.approx(1j * oracles.sigma_square(z), rel=1e-12)
    assert oracles.sigma_square(-z) == pytest.approx(-oracles.sigma_square(z), rel=1e-12)


def test_phi_coeff_closed_forms():
    assert oracles.phi_coeff("exponential", {}, 5) == pytest.approx(1 / 120, rel=1e-15)
    assert oracles.phi_coeff("mittag_leffler", {"rho": 2.0, "mu": 1.0}, 2) == pytest.approx(1.0)
    assert oracles.phi_coeff("gamma_deriv", {"n": 1}, 0) == pytest.approx(-1 / float(mpmath.euler))


def test_frame_bounds_exp_is_a_frame_below_critical_density():
    A, B = oracles.frame_bounds_exp(0.5, 8, 6)
    assert 0 < A <= B


# -- tiny workloads ----------------------------------------------------------

def _tiny_reproduce(seed=3):
    return workloads.reproduce_ops(seed, workloads.setup_reproduce(tiny=True))


def test_reproduce_smoke():
    p = run.run_passes(_tiny_reproduce(), 2)
    assert (p.n, p.attempted, p.failed) == (2, 12, 0)
    assert max(p.worst) < workloads.REPRODUCE_TOL


def test_reproduce_ops_depend_only_on_seed():
    a, b = _tiny_reproduce(5), _tiny_reproduce(5)
    assert [op.run() for op in a] == [op.run() for op in b]


def test_lattice_smoke():
    ops = workloads.lattice_ops(1, workloads.setup_lattice(tiny=True))
    p = run.run_passes(ops, 1)
    assert p.failed == 0, p.failures
    assert p.attempted == len(ops) == 6


def test_cli_smoke():
    ops = workloads.cli_ops(1, workloads.setup_cli(tiny=True))
    p = run.run_passes(ops, 1)
    assert p.failed == 0, p.failures
    # the duality suite's residuals feed accuracy_digits
    assert 0 < p.worst[2] <= 1e-12


def test_check_suite_needs_every_row():
    header = "check,residual,status\n"
    rows = [["duality_0", "1e-15", "pass"], ["duality_1", "3e-14", "pass"]]
    assert workloads._check_suite_error(rows, 2) == 3e-14
    assert workloads._check_suite_error(rows, 20) == math.inf
    assert workloads._check_suite_error(workloads._rows(header), 20) == math.inf
    assert workloads._check_suite_error([rows[0], ["duality_1", "1e-3", "FAIL"]], 2) == math.inf


def test_accuracy_digits_moves_with_every_op():
    ops = [workloads.Op("a", None, None, 1e-6), workloads.Op("b", None, None, 1e-9),
           workloads.Op("exact", None, None, 0.0)]
    assert run.accuracy_digits(ops, [1e-12, 1e-14, 0.0]) == pytest.approx(13.0)
    # op b loses 7 orders of accuracy while still within its tolerance
    assert run.accuracy_digits(ops, [1e-12, 1e-10, 0.0]) == pytest.approx(11.0)


def test_wrong_oracle_value_counts_as_failure():
    ops = _tiny_reproduce()
    # compare the first op against an oracle value shifted by 1
    ops[0] = dataclasses.replace(ops[0], check=lambda got, check=ops[0].check: check(got + 1.0))
    p = run.run_passes(ops, 1)
    assert (p.attempted, p.failed) == (6, 1)
    assert p.failed / p.attempted == pytest.approx(1 / 6)


def test_passes_scale_to_reference_host_speed():
    r0 = run.HOST_TICK_S
    # op 0 was faster in pass 1, but pass 1 ran on a host twice as fast
    p = run.Passes([[1.0, 0.6], [3.0, 2.0]], [None, None], [0.0, 0.0],
                   [[r0, r0 / 2], [r0, r0 / 2]], n=2)
    assert p.fastest() == [1.0, 3.0]
    assert p.wall() == 4.0


def test_pass_count_is_fixed_by_seconds():
    assert [run.n_passes(w, 20) for w in ("reproduce", "lattice", "cli")] == [5, 6, 2]
    assert run.n_passes("cli", 1) == 1


def test_raising_op_counts_as_failure():
    def boom():
        raise ValueError("boom")

    ops = [workloads.Op("boom", boom, lambda out: 0.0, 0.0)]
    p = run.run_passes(ops, 1)
    assert (p.attempted, p.failed) == (1, 1)


def test_failed_verdict_counts_under_infinite_tolerance():
    ops = [workloads.Op("check", lambda: None, lambda out: math.inf, math.inf)]
    p = run.run_passes(ops, 1)
    assert (p.attempted, p.failed) == (1, 1)


# -- tracing -----------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores():
    original = core.phi_eval
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fock.phi_eval is core.phi_eval is not original
        ops = _tiny_reproduce()
        for seq, op in enumerate(ops):
            tracer.call(seq, op.run)
    finally:
        tracer.uninstall()
    assert fock.phi_eval is core.phi_eval is original
    names = [s[0] for s in tracer.spans]
    phi = names.index("core.phi_eval")
    assert tracer.spans[tracer.spans[phi][3]][0] == "fock.reproduce"
    m = tracing.layer_metrics(tracer.spans, set(range(len(ops))), 1, "other")
    assert m["fock.reproduce.calls"] == len(ops)
    assert m["fock.reproduce.integrand_evals"] > 0
    shares = sum(v for k, v in m.items() if k.startswith("share."))
    assert shares == pytest.approx(1.0)


def test_layer_metrics_self_time_and_shares():
    spans = [["op", 0.0, 10.0, -1, 0, None],
             ["fock.reproduce", 1.0, 9.0, 0, 0, "adaptive_tail"],
             ["core.phi_eval", 2.0, 6.0, 1, 0, (3, 4)]]
    m = tracing.layer_metrics(spans, {0}, 1, "other")
    assert m["fock.reproduce.self_s"] == pytest.approx(4.0)
    assert m["core.phi_eval.ns_per_term"] == pytest.approx(4.0 / 12 * 1e9)
    assert m["share.fock"] == pytest.approx(0.4)
    assert m["share.core.phi_eval"] == pytest.approx(0.4)
    assert m["share.other"] == pytest.approx(0.2)


# -- entry point ---------------------------------------------------------------

def test_run_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice",
                          "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_per_layer_names_match_benchmark_json():
    import probe

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = set(probe.imports()) | set(tracing.layer_metrics([], set(), 1, "other"))
    names |= set(run._sigma_errors()) | set(run._cli_metrics([], run.Passes([], [], [], []), 0.0))
    names.add("trace.overhead_s")
    assert names == {m["name"] for m in spec["per_layer"]}
