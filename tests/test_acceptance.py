"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and time budgets are pinned in the asserts.
"""

import hashlib
import math
import subprocess
import sys
import time
import warnings

import numpy as np

from glfock.bargmann import (HermiteCoeffs, bargmann_forward, bargmann_inverse,
                             intertwine_residuals)
from glfock.cli import _random_series
from glfock.core import PhiDescriptor
from glfock.fock import (duality_check, moment_check, registered_weight,
                         reproduce, verified_weight)
from glfock.frames import frame_sweep
from glfock.weierstrass import (LatticeSpec, PerturbedLattice, omega,
                                omega_bound, psi_pair, radius_bounds, sigma_fn,
                                two_sided_diag, weierstrass_factor,
                                winding_zero_count)

EXP = PhiDescriptor.exponential(normalized=True)
ML21 = PhiDescriptor.mittag_leffler(2, 1, normalized=True)
SG12 = PhiDescriptor.stretched_gamma(1.0, 2.0, normalized=True)
GD1 = PhiDescriptor.gamma_deriv(1, normalized=True)
DK05 = PhiDescriptor.dunkl(0.5, normalized=True)
BS = PhiDescriptor.backward_shift(normalized=True)

ALL_FAMILIES = (EXP, ML21, SG12, GD1, DK05, BS)
ENTIRE_FAMILIES = (EXP, ML21, SG12, GD1, DK05)


def _report(num, name, ok, t, budget):
    status = "PASS" if ok and t < budget else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({t:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert t < budget, f"criterion {num} ({name}) exceeded {budget}s: {t:.2f}s"


def test_criterion_01_weight_moments():
    t0 = time.time()
    dexp = PhiDescriptor.exponential()
    dml = PhiDescriptor.mittag_leffler(2, 1)
    rep_exp = moment_check(dexp, registered_weight(dexp), n_max=15, tol=1e-8)
    rep_ml = moment_check(dml, registered_weight(dml), n_max=8, tol=1e-6)
    ok = rep_exp.passed and rep_ml.passed
    _report(1, "weight kernel moments", ok, time.time() - t0, 10.0)


def test_criterion_02_duality():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for desc in ALL_FAMILIES:
        for _ in range(100):
            deg = int(rng.integers(1, 21))
            f = _random_series(desc, rng, deg)
            g = _random_series(desc, rng, deg)
            worst = max(worst, duality_check(desc, f, g))
    _report(2, f"derivative/multiplier duality (max {worst:.2e})",
            worst <= 1e-12, time.time() - t0, 1.0)


def test_criterion_03_bargmann_roundtrip_intertwine():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_rt, worst_iw = 0.0, 0.0
    for desc in ENTIRE_FAMILIES:
        for _ in range(5):
            h = HermiteCoeffs(rng.standard_normal(16) + 1j * rng.standard_normal(16))
            back = bargmann_inverse(desc, bargmann_forward(desc, h))
            rel = float(np.max(np.abs(back.coeffs - h.coeffs)))
            worst_rt = max(worst_rt, rel / float(np.max(np.abs(h.coeffs))))
            rl, rr = intertwine_residuals(desc, h)
            worst_iw = max(worst_iw, rl, rr)
    # roundtrip is a pure rescale-unscale: only rounding, no truncation error
    ok = worst_rt <= 1e-15 and worst_iw <= 1e-13
    _report(3, f"transform roundtrip (max rel {worst_rt:.2e}) and ladder "
               f"intertwining (max {worst_iw:.2e})", ok, time.time() - t0, 1.0)


def test_criterion_04_psi_and_radius():
    t0 = time.time()
    ok = True
    ps = psi_pair(EXP)
    ok &= ps.psi1 == 1.0 and ps.psi2 == 0.5
    ok &= radius_bounds(EXP).r_lower == 1.5
    # radius-1 family: the cubic-remainder factor degenerates to 1 identically
    xs = np.linspace(-0.7, 0.7, 15)
    zz = (xs[:, None] + 1j * xs[None, :]).ravel()
    zz = zz[np.abs(zz) <= 0.7]
    ok &= float(np.max(np.abs(weierstrass_factor(BS, zz, N=200) - 1.0))) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok &= float(np.max(np.abs(omega(BS, zz, N=200)))) <= 1e-12
    rb = radius_bounds(BS)
    ok &= rb.r_lower == 1.0 and rb.r_upper == 1.0
    # closed forms via gamma-function ratios, recomputed here independently
    g = math.gamma
    psi1 = g(1.5) / g(1.0)
    psi2 = psi1 - g(1.5) ** 3 / (g(2.0) * g(1.0) ** 2)
    ps = psi_pair(ML21)
    ok &= abs(ps.psi1 - psi1) <= 1e-12 and abs(ps.psi2 - psi2) <= 1e-12
    ok &= abs(radius_bounds(ML21).r_lower - (2 * psi1 - psi1 ** 3)) <= 1e-12
    _report(4, "psi coefficients and radius bounds", bool(ok), time.time() - t0, 1.0)


def test_criterion_05_factor_inequality():
    t0 = time.time()
    xs = np.linspace(-1.0, 1.0, 41)
    zz = (xs[:, None] + 1j * xs[None, :]).ravel()
    zz = zz[np.abs(zz) <= 1.0]
    ok = True
    for desc in (EXP, ML21, DK05, SG12):
        E = weierstrass_factor(desc, zz)
        Om = omega(desc, zz)
        ok &= float(np.max(np.abs(1.0 - E) - np.abs(Om))) <= 1e-10
        ok &= float(np.max(np.abs(Om))) <= omega_bound(desc) * (1 + 1e-12)
    _report(5, "unit-disk factor inequality and omega bound", bool(ok),
            time.time() - t0, 5.0)


def test_criterion_06_sigma_zero_count():
    t0 = time.time()
    lat = LatticeSpec(1.0, 12)
    expected = int(np.sum(np.abs(lat.points()) < 2.5))
    n = winding_zero_count(lambda z: sigma_fn(EXP, z, lat), 2.5)
    _report(6, f"sigma zero count inside |z| <= 2.5 ({n} vs {expected} nodes)",
            n == expected == 21, time.time() - t0, 10.0)


def test_criterion_07_two_sided_bounds():
    t0 = time.time()
    wk = verified_weight(PhiDescriptor.exponential())
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.1, seed=7)
    xs = np.linspace(-2.0, 2.0, 20)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel() + (0.25 + 0.125j)
    grid = grid[gam.dist(grid) > 1e-6]
    rep = two_sided_diag(EXP, wk, gam, grid, N=80)
    ok = (rep.feasible and rep.c1 > 0 and math.isfinite(rep.c2)
          and bool(np.all(rep.ratio <= 1 + 1e-9)))
    _report(7, f"two-sided lattice bounds (c1 {rep.c1:.3f}, c2 {rep.c2:.3f})",
            bool(ok), time.time() - t0, 30.0)


def test_criterion_08_frame_sweep():
    t0 = time.time()
    wk = verified_weight(PhiDescriptor.exponential())
    rep = frame_sweep(EXP, wk, 0, [0.5], 12, 10)[0]
    ok = rep.A > 0 and rep.stability < 0.05
    a8 = frame_sweep(EXP, wk, 0, [2.0], 8, 10)[0].A
    a14 = frame_sweep(EXP, wk, 0, [2.0], 14, 10)[0].A
    ok = ok and (a14 < 1e-2 * a8)  # lower bound collapses past the critical size
    _report(8, f"frame sweep (A(0.5) {rep.A:.3f}, A(2.0): {a8:.2e} -> {a14:.2e})",
            bool(ok), time.time() - t0, 120.0)


def test_criterion_09_reproducing_property():
    t0 = time.time()
    rng = np.random.default_rng(909)
    worst = 0.0
    for desc, raw in ((EXP, PhiDescriptor.exponential()),
                      (ML21, PhiDescriptor.mittag_leffler(2, 1))):
        wk = verified_weight(raw)
        for _ in range(20):
            deg = int(rng.integers(0, 11))
            f = _random_series(desc, rng, deg)
            for _ in range(10):
                z = complex(*rng.uniform(-1.2, 1.2, size=2))
                worst = max(worst, abs(reproduce(desc, wk, f, z) - f(z)))
    _report(9, f"kernel reproducing property (max {worst:.2e})",
            worst <= 1e-6, time.time() - t0, 30.0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()

    def digest(argv, path):
        r = subprocess.run([sys.executable, "-m", "glfock.cli", *argv,
                            "--out", str(path)], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return hashlib.sha256(path.read_bytes()).hexdigest()

    sweep = ["frames-sweep", "--steps", "3", "--s-min", "0.5", "--s-max", "2.0",
             "--lattice-m", "4", "--format", "csv"]
    rt = ["bargmann-roundtrip", "--degree", "8", "--trials", "3", "--seed", "5",
          "--format", "csv"]
    ok = (digest(sweep, tmp_path / "s1.csv") == digest(sweep, tmp_path / "s2.csv")
          and digest(rt, tmp_path / "r1.csv") == digest(rt, tmp_path / "r2.csv"))
    _report(10, "CLI output determinism", bool(ok), time.time() - t0, 120.0)
