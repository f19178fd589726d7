import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glfock
from glfock import weierstrass
from glfock.cli import CONFIG_KEYS, ConfigError, load_config, main
from glfock.core import PhiDescriptor
from glfock.special import log_gamma_deriv
from mp_oracles import remainder_max_on_unit_circle
from test_weierstrass import rounding_scale


def run_cli(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.desc.family == "exponential"
    assert cfg.series_N == 80 and cfg.basis_N == 12 and cfg.seed == 0


def test_load_config_fields(tmp_path):
    p = write_cfg(tmp_path, {
        "phi": {"family": "dunkl", "params": {"kappa": 0.5}, "normalized": True},
        "truncation": {"series_N": 40, "basis_N": 6},
        "seed": 11,
        "output": {"format": "json"},
    })
    cfg = load_config(p)
    assert cfg.desc.family == "dunkl" and cfg.desc.normalized
    assert cfg.series_N == 40 and cfg.basis_N == 6 and cfg.seed == 11
    assert cfg.out_format == "json"


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, {"phi": {"family": "nope", "params": {}}}))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, {"truncation": {"series_N": -3}}))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, {"seed": -1}))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, {"output": {"format": "xml"}}))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, {"quadrature": {"radial": "monte_carlo"}}))
    with pytest.raises(ConfigError):  # the exp-sinh rule has no split point
        load_config(write_cfg(tmp_path, {"quadrature": {"cut": 10.0}}))


# ---------------------------------------------------------------------------
# phi-info
# ---------------------------------------------------------------------------

def test_phi_info_json(capsys):
    rc, out, _ = run_cli(capsys, ["phi-info", "--format", "json"])
    assert rc == 0
    info = json.loads(out)
    assert info["family"] == "exponential"
    assert info["psi1"] == 1.0 and info["psi2"] == 0.5
    assert info["r_lower"] == 1.5 and info["upper_flag"] == "unbounded-trend"
    assert abs(info["rho_hat"] - 1.0) < 0.05
    assert info["phi_coeffs"][3] == pytest.approx(1 / 6, abs=1e-16)


def test_phi_info_csv(capsys):
    rc, out, _ = run_cli(capsys, ["phi-info"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "family,exponential"
    assert any(line.startswith("psi1,1.0") for line in lines)


def test_phi_info_non_entire(capsys, tmp_path):
    p = write_cfg(tmp_path, {"phi": {"family": "backward_shift", "params": {}}})
    rc, out, _ = run_cli(capsys, ["phi-info", "--config", p, "--format", "json"])
    assert rc == 0
    info = json.loads(out)
    assert info["rho_hat"] is None  # order fit refuses radius-1 families
    assert info["r_lower"] == 1.0 and info["r_upper"] == 1.0


def test_phi_info_gamma_deriv_170(capsys, tmp_path):
    # phi_k = 1/Gamma^(170)(k+1) at the order cap, against a 30-digit mpmath
    # quadrature of the defining integral; phi_9 is positive, as the
    # integrand t^9 e^-t (ln t)^170 is
    p = write_cfg(tmp_path, {"phi": {"family": "gamma_deriv", "params": {"n": 170}}})
    rc, out, _ = run_cli(capsys, ["phi-info", "--config", p, "--format", "json"])
    assert rc == 0
    phi = json.loads(out)["phi_coeffs"]
    for got, want in ((phi[8], 2.0638927515837095e-144), (phi[9], 1.3779010828900428e-136)):
        assert abs(got - want) <= 1e-12 * want, (got, want)


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["moments", "duality", "bargmann",
                                   "weierstrass", "reproduce"])
def test_check_suites_exponential(capsys, suite):
    rc, out, err = run_cli(capsys, ["check", "--suite", suite, "--format", "json"])
    assert rc == 0, err
    rep = json.loads(out)
    assert rep["passed"] is True
    assert all(r["pass"] for r in rep["rows"])


def test_check_suite_ml(capsys, tmp_path):
    p = write_cfg(tmp_path, {"phi": {"family": "mittag_leffler",
                                     "params": {"rho": 2.0, "mu": 1.0}}})
    for suite in ("moments", "bargmann", "duality"):
        rc, _, err = run_cli(capsys, ["check", "--suite", suite, "--config", p])
        assert rc == 0, (suite, err)


def test_check_csv_status_column(capsys):
    rc, out, _ = run_cli(capsys, ["check", "--suite", "duality"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "check,residual,status"
    assert len(lines) == 21
    assert all(line.endswith(",pass") for line in lines[1:])


@pytest.mark.parametrize("kappa", [5, 100])
def test_check_weierstrass_dunkl_rounding(capsys, tmp_path, kappa):
    # |1 - E| = |z|^3 |Omega| <= |Omega| on the disk, equal on |z| = 1, so
    # the gap is rounding relative to |Omega|, and the printed residual is
    # absolute.  Both sides read the same E: the gap is the rounding of z^3
    # (two complex products), of the quotient, of the two moduli and of
    # |z| <= 1, below 16 eps max|Omega|.  max|Omega| is at z = -1: 1.5e19
    # (kappa 5) and 4.4e189 (kappa 100), where the residual reads 1-2 eps
    p = write_cfg(tmp_path, {"phi": {"family": "dunkl", "params": {"kappa": kappa}}})
    rc, out, err = run_cli(capsys, ["check", "--suite", "weierstrass", "--config", p])
    assert rc == 0, err
    rows = dict(line.split(",", 1) for line in out.splitlines())
    residual, status = rows["E_inequality_grid"].split(",")
    omega_max = remainder_max_on_unit_circle("dunkl", {"kappa": kappa}, 360)
    assert status == "pass"
    assert float(residual) <= 16 * sys.float_info.epsilon * omega_max


@pytest.mark.parametrize("phi", [{}, {"family": "dunkl", "params": {"kappa": 5}}])
def test_check_weierstrass_fails_on_violation(capsys, tmp_path, monkeypatch, phi):
    # an omega of half the true size breaks |1 - E| <= |Omega| on |z| = 1
    from glfock import weierstrass
    true_omega = weierstrass.omega
    monkeypatch.setattr(weierstrass, "omega", lambda *a: 0.5 * true_omega(*a))
    p = write_cfg(tmp_path, {"phi": phi} if phi else {})
    rc, _, err = run_cli(capsys, ["check", "--suite", "weierstrass", "--config", p])
    assert rc == 1 and err.startswith("FAILED: E_inequality_grid")


def test_weierstrass_table_builds_one_window_table(capsys, monkeypatch, tmp_path):
    # the far radius and the far series of a cold run read one window
    # table; EXP's closed form builds no Phi/E table, ML(2, 1)'s one, for
    # the window table
    from glfock import weierstrass
    callers, build = [], weierstrass._phi_table

    def spy(d, N):
        callers.append(sys._getframe(1).f_code.co_name)
        return build(d, N)

    monkeypatch.setattr(weierstrass, "_phi_table", spy)
    ml = write_cfg(tmp_path, {"phi": {"family": "mittag_leffler",
                                      "params": {"rho": 2.0, "mu": 1.0}}})
    for args, want in ((["weierstrass-table"], []),
                       (["weierstrass-table", "--config", ml], ["_window_series"])):
        weierstrass._window_series.cache_clear()
        callers.clear()
        rc, _, _ = run_cli(capsys, args)
        assert rc == 0 and weierstrass._window_series.cache_info().misses == 1
        assert callers == want


def test_weierstrass_table_past_doubles_is_a_config_error(capsys, tmp_path):
    # SG(1e-4, 1) at N = 80: psi1 = 1e4, so a coefficient of the far-field
    # table is not a double; that is a config error, not a non-convergence
    p = write_cfg(tmp_path, {"phi": {"family": "stretched_gamma", "params": {"a": 1e-4, "b": 1.0}}})
    rc, out, err = run_cli(capsys, ["weierstrass-table", "--config", p])
    assert (rc, out) == (2, "")
    assert err.startswith("config error:") and "outside double range" in err


def test_weierstrass_table_zero_weight_is_a_config_error(capsys):
    # the EXP weight e^-|z|^2 underflows to 0 at the corners of extent 28
    rc, out, err = run_cli(capsys, ["weierstrass-table", "--extent", "28"])
    assert (rc, out) == (2, "")
    assert err.startswith("config error: weight is 0 at grid point")


# lhs of the default weierstrass-table (N = 80, M = 12, 16 x 16 grid of
# extent 2) at two rows per family, as printed when sigma's far series read
# a table of log E_N of its own; the GD rows move most where sigma's near
# disk shrinks, the ML(2,1) rows where the far coefficients change
FAR_TABLE_ROWS = {
    "GD(1)": ({"family": "gamma_deriv", "params": {"n": 1}},
              {(-1.875, 1.625): 11536956003.912437, (-1.625, 1.625): 440615484.47009605}),
    "GD(2)": ({"family": "gamma_deriv", "params": {"n": 2}},
              {(1.875, 1.875): 5835940.39137748, (1.875, -1.625): 698377.9056144478}),
    "GD(3)": ({"family": "gamma_deriv", "params": {"n": 3}},
              {(-1.875, -1.375): 10939143.934312122, (-1.875, -1.625): 482963805.2623112}),
    "ML(2,1)": ({"family": "mittag_leffler", "params": {"rho": 2.0, "mu": 1.0}},
                {(1.375, 1.375): 4.397314778875099e-06, (-1.375, -1.375): 4.397314778875101e-06}),
}


def log_sigma_rounding(desc, zs, z, N=80):
    """eps times the sizes that rounding in log|sigma(z)| scales with, for
    sigma_fn at degree N over the points zs (lam = 1): rounding_scale over
    the near nodes (each factor's Horner condition number and |log E|, to
    first order), and (K/2 + 2) sum |l_k T_k z^k| for the far series, a
    K/4-term Horner in z^4 whose coefficients take one product each."""
    d = desc.normalize()
    r, ell = weierstrass._window_series(d, N)
    R2 = int((max(abs(zs)) / (weierstrass._FAR_RATIO * r)) ** 2)
    R, tau, near = weierstrass._lattice_tail(0, R2)
    k = np.arange(4, 4 * tau.size + 1, 4)
    far = np.abs(ell[k] * tau) @ (abs(z) / R) ** k
    return (rounding_scale(d, np.array([z]), near, near, N)[0]
            + (2 * tau.size + 2) * sys.float_info.epsilon * far)


@pytest.mark.parametrize("name", sorted(FAR_TABLE_ROWS))
def test_weierstrass_table_far_table_moves_lhs_by_rounding(capsys, tmp_path, name):
    # the far coefficients are those of another table, and sigma moves by
    # rounding only: |log lhs - log want| within log_sigma_rounding, plus
    # 8 eps for W, |z| and exp.  The moves reach 0.2 of it, most of them in
    # the near factors' Horner (ML(2,1) at (1.375, 1.375): cond 2.5e3)
    phi, want = FAR_TABLE_ROWS[name]
    p = write_cfg(tmp_path, {"phi": phi})
    rc, out, _ = run_cli(capsys, ["weierstrass-table", "--format", "json", "--config", p])
    assert rc == 0
    rows = {(r["z_re"], r["z_im"]): r["lhs"] for r in json.loads(out)["rows"]}
    zs = np.array([complex(*z) for z in rows])
    desc = PhiDescriptor.from_dict(phi)
    for z, lhs in want.items():
        tol = log_sigma_rounding(desc, zs, complex(*z)) + 8 * sys.float_info.epsilon
        assert abs(math.log(rows[z] / lhs)) <= tol, z


ML_MU_003 = {"phi": {"family": "mittag_leffler", "params": {"rho": 1.0, "mu": 0.03}}}


def test_check_failure_exit_code(capsys, tmp_path):
    # the ML(1, 0.03) weight x^-0.97 e^-x is too singular at 0 for the
    # exp-sinh rule to reach 1e-8 on moment 0, though it converges
    p = write_cfg(tmp_path, ML_MU_003)
    rc, _, err = run_cli(capsys, ["check", "--suite", "moments", "--config", p])
    assert rc == 1
    assert err.startswith("FAILED: moment_0 residual")


def test_check_nonconvergence_exit_code(capsys, tmp_path):
    # the ML(1, 0.01) weight x^-0.99 e^-x defeats the exp-sinh rule at 0:
    # its levels never agree within the tolerance
    p = write_cfg(tmp_path, {"phi": {"family": "mittag_leffler",
                                     "params": {"rho": 1.0, "mu": 0.01}}})
    rc, out, err = run_cli(capsys, ["check", "--suite", "moments", "--config", p])
    assert rc == 3
    assert "non-convergence" in err and out == ""


def test_normalized_weight_needs_unit_phi0(capsys, tmp_path):
    # the registered weight's moments are 1/phi_n of the unnormalized
    # family; normalized SG(1,2) has phi_0 = 2/sqrt(pi), so no weight fits
    p = write_cfg(tmp_path, {"phi": {"family": "stretched_gamma",
                                     "params": {"a": 1.0, "b": 2.0}, "normalized": True}})
    rc, out, err = run_cli(capsys, ["check", "--suite", "reproduce", "--config", p])
    assert rc == 2
    assert "config error" in err and out == ""


def test_unverified_weight_exit_code(tmp_path):
    # the ML(1, 0.03) weight fails its moment gate at n = 0 (see
    # test_check_failure_exit_code): exit 1 with a one-line message, not a
    # traceback
    p = write_cfg(tmp_path, ML_MU_003)
    src = str(Path(glfock.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-m", "glfock.cli", "check", "--suite", "reproduce",
                        "--config", p], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr == "unverified weight: weight ml failed moment check at n=[0]\n"
    assert r.stdout == ""


def test_check_non_entire_rejected(capsys, tmp_path):
    p = write_cfg(tmp_path, {"phi": {"family": "backward_shift", "params": {}}})
    for suite in ("moments", "bargmann", "reproduce"):
        rc, _, err = run_cli(capsys, ["check", "--suite", suite, "--config", p])
        assert rc == 2
        assert "config error" in err


def test_bargmann_roundtrip_non_entire_rejected(capsys, tmp_path):
    p = write_cfg(tmp_path, {"phi": {"family": "backward_shift", "params": {}}})
    rc, out, err = run_cli(capsys, ["bargmann-roundtrip", "--config", p])
    assert (rc, out) == (2, "")
    assert err == "config error: bargmann-roundtrip rejects non-entire families\n"


@pytest.mark.parametrize("obj, where", [
    ([1, 2], "config root"),
    ({"truncation": 5}, "field 'truncation'"),
], ids=["root", "truncation"])
def test_config_object_not_an_object(capsys, tmp_path, obj, where):
    rc, out, err = run_cli(capsys, ["phi-info", "--config", write_cfg(tmp_path, obj)])
    assert (rc, out) == (2, "")
    assert err == f"config error: {where}: expected an object\n"


def test_bad_config_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, _, err = run_cli(capsys, ["phi-info", "--config", str(bad)])
    assert rc == 2 and "config error" in err
    rc, _, err = run_cli(capsys, ["check", "--suite", "duality", "--seed", "-4"])
    assert rc == 2


OUT_OF_RANGE = [
    (["density", "--trunc-m", "-3"], None),
    (["density", "--lam", "0"], None),
    (["density", "--radii", "20,10"], None),
    (["density", "--radii", "30"], None),
    (["weierstrass-table", "--grid-n", "0"], None),
    (["weierstrass-table", "--lam", "-1"], None),
    (["weierstrass-table", "--lam", "nan"], None),
    (["weierstrass-table", "--lam", "inf"], None),
    (["weierstrass-table", "--extent", "nan"], None),
    (["weierstrass-table", "--extent", "inf"], None),
    (["weierstrass-table", "--extent", "-1"], None),
    (["density", "--lam", "nan"], None),
    (["density", "--lam", "inf"], None),
    (["density", "--radii", "nan"], None),
    (["frames-sweep", "--s-max", "inf"], None),
    (["bargmann-roundtrip", "--degree", "-1"], None),
    (["bargmann-roundtrip", "--trials", "-2"], None),
    (["frames-sweep", "--lattice-m", "-1"], None),
    (["frames-sweep", "--window-n", "-1"], None),
    (["phi-info"], {"seed": True}),
    (["phi-info"], {"truncation": {"lattice_M": True}}),
    (["phi-info"], {"phi": {"family": "exponential", "normalized": "false"}}),
    (["phi-info"], {"phi": {"family": "gamma_deriv", "params": {"n": 2.5}}}),
    (["phi-info"], {"phi": {"family": "gamma_deriv", "params": {"n": True}}}),
    (["phi-info"], {"phi": {"family": "gamma_deriv", "params": {"n": 171}}}),
    (["phi-info"], {"phi": {"family": "gamma_deriv", "params": {"n": 200}}}),
    (["check", "--suite", "moments"], {"phi": {"family": "gamma_deriv", "params": {"n": 171}}}),
    (["check", "--suite", "moments"], {"phi": {"family": "gamma_deriv", "params": {"n": 200}}}),
    (["phi-info"], {"phi": {"family": "mittag_leffler", "params": {"rho": True, "mu": True}}}),
    (["phi-info"], {"phi": {"family": "dunkl", "params": {"kappa": "0.5"}}}),
    # kappa past 1e3: log phi_k cancels, and at 1e306 it is nan
    (["phi-info"], {"phi": {"family": "dunkl", "params": {"kappa": 1e306}}}),
    (["phi-info"], {"phi": {"family": "stretched_gamma", "params": {"a": math.nan, "b": 2.0}}}),
    (["phi-info"], {"phi": {"family": "mittag_leffler", "params": {"rho": 2.0, "mu": math.inf}}}),
    (["check", "--suite", "reproduce"], {"quadrature": {"angular_nodes": 64.5}}),
    (["check", "--suite", "reproduce"], {"quadrature": {"radial_nodes": 80.5}}),
    (["phi-info"], {"output": {"path": 5}}),
    # valid parameters whose phi_1 leaves the double range: no OverflowError
    # or ZeroDivisionError traceback, no nan residuals and no exit 3 from the
    # moment gate
    *[(argv, {"phi": phi}) for phi in ({"family": "mittag_leffler", "params": {"rho": 1e-3, "mu": 1.0}},
                                       {"family": "stretched_gamma", "params": {"a": 1e-300, "b": 1.0}})
      for argv in (["phi-info"], ["check", "--suite", "weierstrass"], ["weierstrass-table"],
                   ["check", "--suite", "duality"], ["check", "--suite", "bargmann"],
                   ["bargmann-roundtrip"], ["check", "--suite", "moments"],
                   ["check", "--suite", "reproduce"], ["frames-sweep"])],
    # phi_1 in range, but log phi_4 = -863 for ML(0.02, 1), below the
    # degrees these commands use
    *[(argv, {"phi": {"family": "mittag_leffler", "params": {"rho": 0.02, "mu": 1.0}}})
      for argv in (["check", "--suite", "duality"], ["check", "--suite", "bargmann"],
                   ["bargmann-roundtrip"], ["check", "--suite", "moments"])],
    # log phi_11 = 742 for normalized SG(1e30, 1): the lattice factors raise
    *[(argv, {"phi": {"family": "stretched_gamma", "params": {"a": 1e30, "b": 1.0}}})
      for argv in (["check", "--suite", "weierstrass"], ["weierstrass-table"])],
    # phi_n underflows to 0 where psi1^n overflows, so phi_n psi1^n in the
    # series of E is nan: an error, not lhs = ratio = 0 or nan residuals
    (["weierstrass-table"], {"phi": {"family": "stretched_gamma", "params": {"a": 1e-5, "b": 1.0}}}),
    *[(["check", "--suite", "weierstrass"], {"phi": phi})
      for phi in ({"family": "mittag_leffler", "params": {"rho": 0.02, "mu": 1.0}},
                  {"family": "stretched_gamma", "params": {"a": 1e-30, "b": 1.0}})],
    # a misspelt or unused key selects nothing: an error, not a run on the
    # defaults
    *[(["phi-info"], config) for config in (
        {"truncaton": {"series_N": 40}},
        {"truncation": {"seriesN": 40}},
        {"output": {"paht": "out.csv"}},
        {"phi": {"family": "mittag_leffler", "params": {"rho": 2.0, "mu": 1.0, "sigma": 1.0}}},
        {"phi": {"family": "exponential", "params": {"rho": 1.0}}},
        {"weight": "exp"},
        {"phi": {"family": "mittag_leffler", "params": {"rho": 2.0, "mu": 1.0}}, "weight": "ml"})],
]


@pytest.mark.parametrize("argv, config", OUT_OF_RANGE,
                         ids=[" ".join(a) + (f" {json.dumps(c)}" if c else "")
                              for a, c in OUT_OF_RANGE])
def test_out_of_range_arguments_exit_2(capsys, tmp_path, argv, config):
    if config is not None:
        argv = argv + ["--config", write_cfg(tmp_path, config)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


def test_readme_lists_the_config_keys():
    # the README's config-key list is the one load_config enforces
    readme = (Path(glfock.__file__).resolve().parents[2] / "README.md").read_text()
    listed = {}
    for line in readme.split("### Config keys\n", 1)[1].splitlines():
        if not line.startswith("- "):
            if listed:
                break
            continue
        section, keys = line[2:].split(":", 1)
        section = "" if section == "top level" else section.strip("`")
        listed[section] = set(re.findall(r"`(\w+)`", keys))
    assert listed == {s: set(k) for s, k in CONFIG_KEYS.items()}


# ---------------------------------------------------------------------------
# table commands
# ---------------------------------------------------------------------------

def test_density_command(capsys):
    rc, out, _ = run_cli(capsys, ["density", "--trunc-m", "12"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "r,n_min,n_max,d_minus,d_plus"
    assert lines[1] == "10.0,100,100,0.15915494309189535,0.15915494309189535"
    assert lines[2] == "20.0,400,400,0.15915494309189535,0.15915494309189535"
    rc, out, _ = run_cli(capsys, ["density", "--trunc-m", "12", "--format", "json"])
    assert json.loads(out)["d_plus"] == pytest.approx(0.15915494309189535, abs=1e-16)
    rc, _, err = run_cli(capsys, ["density", "--radii", "10;20"])
    assert rc == 2


def test_weierstrass_table(capsys, tmp_path):
    p = write_cfg(tmp_path, {"truncation": {"series_N": 60, "lattice_M": 10}})
    rc, out, _ = run_cli(capsys, ["weierstrass-table", "--config", p,
                                  "--grid-n", "6", "--extent", "1.5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "z_re,z_im,lhs,rhs,ratio"
    assert len(lines) == 37          # 6x6 grid plus header
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(r > 0 for r in ratios)
    rc, _, err = run_cli(capsys, ["weierstrass-table", "--grid-n", "3",
                                  "--extent", "1.5"])
    assert rc == 2 and "lattice node" in err


@pytest.mark.parametrize("n, argv, message", [
    (1, ["weierstrass-table"], "signed weight in sigma_lower_diag; using |W|"),
    (3, ["check", "--suite", "moments"], "weight form log{'n': 3} is signed on part of the "
                                         "axis; treat moment results as signed-measure data"),
], ids=["GD(1) weierstrass-table", "GD(3) check --suite moments"])
def test_warning_is_one_stderr_line(capsys, tmp_path, n, argv, message):
    # no source path, line number or source text; stdout keeps its golden bytes
    golden = json.loads((Path(__file__).parent / "golden_family_cli.json").read_text())
    p = write_cfg(tmp_path, {"phi": {"family": "gamma_deriv", "params": {"n": n}}})
    rc, out, err = run_cli(capsys, argv + ["--config", p])
    assert rc == 0 and err == f"warning: {message}\n"
    assert hashlib.sha256(out.encode()).hexdigest() == golden[f"GD({n}) {' '.join(argv)}"]


def test_frames_sweep_header_only(capsys):
    rc, out, _ = run_cli(capsys, ["frames-sweep", "--steps", "0"])
    assert rc == 0
    assert out == "s,A,B,condition,basis_dim,stability,status\n"
    rc, out, _ = run_cli(capsys, ["frames-sweep", "--steps", "0", "--format", "json"])
    assert rc == 0
    assert out == '{\n  "reports": [],\n  "s": []\n}\n'
    rc, out, _ = run_cli(capsys, ["frames-sweep", "--steps", "1",
                                  "--s-min", "0.7", "--s-max", "0.9"])
    assert rc == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].split(",")[0] == "0.7" and rows[0].endswith(",ok")
    rc, _, _ = run_cli(capsys, ["frames-sweep", "--steps", "-1"])
    assert rc == 2
    rc, _, _ = run_cli(capsys, ["frames-sweep", "--s-min", "0"])
    assert rc == 2


def test_frames_sweep_rows(capsys, tmp_path):
    p = write_cfg(tmp_path, {"truncation": {"basis_N": 8}})
    rc, out, _ = run_cli(capsys, ["frames-sweep", "--config", p, "--steps", "3",
                                  "--s-min", "0.5", "--s-max", "2.0",
                                  "--lattice-m", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[-1] == "ok"
    assert float(first[1]) > 0      # A(0.5) healthy on the oversampled side


# ---------------------------------------------------------------------------
# determinism and entry points
# ---------------------------------------------------------------------------

def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_frames_sweep_deterministic(tmp_path):
    args = ["frames-sweep", "--steps", "3", "--s-min", "0.5", "--s-max", "2.0",
            "--lattice-m", "4"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        r = subprocess.run([sys.executable, "-m", "glfock.cli", *args,
                            "--out", str(p)], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
    assert _digest(p1) == _digest(p2)
    assert p1.read_text().startswith("s,A,B,")


def test_bargmann_roundtrip_deterministic(tmp_path):
    args = ["bargmann-roundtrip", "--degree", "8", "--trials", "3"]
    outs = []
    for name, seed in (("a.csv", "5"), ("b.csv", "5"), ("c.csv", "6")):
        p = tmp_path / name
        r = subprocess.run([sys.executable, "-m", "glfock.cli", *args,
                            "--seed", seed, "--out", str(p)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(p)
    assert _digest(outs[0]) == _digest(outs[1])
    assert _digest(outs[0]) != _digest(outs[2])  # seed actually feeds the draw
    lines = outs[0].read_text().splitlines()
    assert lines[0] == "trial,roundtrip_err,res_lower,res_raise"
    assert len(lines) == 4


def _load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _assert_phi_info_json(exe, env=None):
    r = subprocess.run([exe, "phi-info", "--format", "json"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["family"] == "exponential"


def test_console_script_installed(tmp_path):
    # Install the declared console script from this tree the way an installer
    # would, so the test runs the code under test and not whatever glfock
    # happens to be on PATH.
    src = Path(glfock.__file__).resolve().parents[1]
    scripts = _load_toml(src.parent / "pyproject.toml")["project"]["scripts"]
    assert scripts.get("glfock") == "glfock.cli:main"
    module, func = scripts["glfock"].split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    wrapper = bindir / "glfock"
    wrapper.write_text(f"#!{sys.executable}\n"
                       "import sys\n"
                       f"from {module} import {func}\n"
                       f"sys.exit({func}())\n")
    wrapper.chmod(0o755)
    env = dict(os.environ)
    for var, first in (("PATH", bindir), ("PYTHONPATH", src)):
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
    exe = shutil.which("glfock", path=env["PATH"])
    assert exe == str(wrapper)
    _assert_phi_info_json(exe, env)
    # the script's exit status is main()'s return value (2: configuration error)
    r = subprocess.run([exe, "phi-info", "--config", str(tmp_path / "missing.json")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 2
    assert "config error" in r.stderr


def _fresh_python(probe, *args):
    """Run `probe` in a fresh interpreter that imports glfock from this tree;
    return the JSON its last stdout line holds."""
    src = Path(glfock.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    where, *rest = json.loads(r.stdout.splitlines()[-1])
    assert Path(where).resolve().is_relative_to(src)
    return rest


def _loaded_after(tmp_path, argv=None, phi=None):
    """Run `import glfock.cli` and then main(argv) in a fresh interpreter and
    return (exit code, {package: its modules left in sys.modules}) for
    scipy, numpy.polynomial and glfock."""
    if phi is not None:
        argv = argv + ["--config", write_cfg(tmp_path, {"phi": phi})]
    probe = ("import contextlib, io, json, sys, glfock.cli\n"
             "argv = json.loads(sys.argv[1])\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    rc = 0 if argv is None else glfock.cli.main(argv)\n"
             "print(json.dumps([glfock.cli.__file__, rc, {\n"
             "    p: sorted(m for m in sys.modules if m == p or m.startswith(p + '.'))\n"
             "    for p in ('scipy', 'numpy.polynomial', 'glfock')}]))")
    return tuple(_fresh_python(probe, json.dumps(argv)))


def test_cli_import_skips_scipy(tmp_path):
    # the Gauss-Hermite rule imports numpy.polynomial where it is built
    rc, loaded = _loaded_after(tmp_path)
    assert (rc, loaded["scipy"], loaded["numpy.polynomial"]) == (0, [], [])


@pytest.mark.parametrize("argv", [["check", "--suite", "moments"], ["frames-sweep"]],
                         ids=["check --suite moments", "frames-sweep"])
def test_radial_rule_skips_numpy_polynomial(tmp_path, argv):
    # every weight, the exponential default too, takes the exp-sinh rule,
    # which needs no Laguerre nodes
    rc, loaded = _loaded_after(tmp_path, argv)
    assert (rc, loaded["numpy.polynomial"]) == (0, [])


IMPORT_ALONE = {"glfock", "glfock.cli", "glfock.core", "glfock.errors", "glfock.special"}
COMMAND_MODULES = [
    (None, set()),
    *[(["check", "--suite", s], {"fock"}) for s in ("moments", "duality", "reproduce")],
    (["check", "--suite", "bargmann"], {"bargmann"}),
    (["bargmann-roundtrip"], {"bargmann"}),
    (["phi-info"], {"weierstrass"}),
    (["check", "--suite", "weierstrass"], {"weierstrass"}),
    (["weierstrass-table"], {"fock", "weierstrass"}),
    (["density"], {"frames", "weierstrass"}),
    (["frames-sweep"], {"fock", "frames"}),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[" ".join(a) if a else "import" for a, _ in COMMAND_MODULES])
def test_cli_command_loads_only_its_modules(tmp_path, argv, modules):
    # a cold process compiles every module it imports
    rc, loaded = _loaded_after(tmp_path, argv)
    assert rc == 0
    assert set(loaded["glfock"]) == IMPORT_ALONE | {f"glfock.{m}" for m in modules}


GD = {n: {"family": "gamma_deriv", "params": {"n": n}} for n in (1, 2, 3)}


@pytest.mark.parametrize("argv, phi", [
    (["check", "--suite", "moments"], None),
    (["check", "--suite", "moments"], {"family": "mittag_leffler", "params": {"rho": 2.0, "mu": 1.0}}),
    *[(argv, GD[n]) for n in (1, 2, 3) for argv in (["phi-info"], ["check", "--suite", "weierstrass"])],
], ids=["exp", "ml21", *[f"gd{n}-{cmd}" for n in (1, 2, 3) for cmd in ("phi-info", "weierstrass")]])
def test_cli_run_skips_scipy(tmp_path, argv, phi):
    # the gamma-derivative family too: log_gamma_deriv needs numpy alone
    rc, loaded = _loaded_after(tmp_path, argv, phi)
    assert (rc, loaded["scipy"]) == (0, [])


def test_gamma_deriv_runs_with_scipy_unimportable(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    x = [0.05, 0.5, 1.0, 1.4616, 2.5, 10.0, 123.25, 2e8, 1e18]
    probe = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "import contextlib, io, json, glfock.cli\n"
             "from glfock.special import log_gamma_deriv\n"
             "s, l = log_gamma_deriv(3, json.loads(sys.argv[1]))\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    rc = glfock.cli.main(['check', '--suite', 'weierstrass', '--config', sys.argv[2]])\n"
             "print(json.dumps([glfock.cli.__file__, rc, s.tolist(), l.tolist()]))")
    rc, s, l = _fresh_python(probe, json.dumps(x), write_cfg(tmp_path, {"phi": GD[3]}))
    want = log_gamma_deriv(3, x)
    assert rc == 0 and s == want[0].tolist() and l == want[1].tolist()


@pytest.mark.skipif(shutil.which("glfock") is None,
                    reason="no glfock console script on PATH")
def test_console_script_on_path():
    _assert_phi_info_json(shutil.which("glfock"))


def test_output_file_writing(tmp_path, capsys):
    p = tmp_path / "out.json"
    rc, out, _ = run_cli(capsys, ["phi-info", "--format", "json", "--out", str(p)])
    assert rc == 0 and out == ""
    assert json.loads(p.read_text())["psi2"] == 0.5


@pytest.mark.parametrize("via", ["--out", "output.path"])
def test_unopenable_output_path_exit_2(capsys, tmp_path, via):
    path = str(tmp_path / "missing" / "out.csv")
    argv = (["phi-info", "--out", path] if via == "--out" else
            ["phi-info", "--config", write_cfg(tmp_path, {"output": {"path": path}})])
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
