import contextlib
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glfock import core, fock
from glfock.bargmann import sqrt_phi
from glfock.core import PhiDescriptor, TruncatedSeries, phi_coeffs, signs_logs
from glfock.errors import ConvergenceError, DivergenceError, UnverifiedWeightError
from glfock.fock import (duality_check, inner_product_fock, inner_product_l2phi,
                         moment, moment_check, registered_weight, reproduce,
                         verified_weight)

EXP = PhiDescriptor.exponential()
ML21 = PhiDescriptor.mittag_leffler(2, 1)
GD1 = PhiDescriptor.gamma_deriv(1)
DK = PhiDescriptor.dunkl(0.5)
BS = PhiDescriptor.backward_shift()
SG12 = PhiDescriptor.stretched_gamma(1.0, 2.0)
GD2 = PhiDescriptor.gamma_deriv(2)
ML_HALF = PhiDescriptor.mittag_leffler(0.5, 0.5)


def unit_series(desc, rng, deg):
    """Random combination of the unit vectors sqrt(phi_k) z^k.

    Keeps both sides of every pairing O(1); raw monomial draws would let
    1/phi_k amplify rounding by k! and measure conditioning, not algebra.
    """
    _, l = signs_logs(desc, deg)
    a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return TruncatedSeries(a * np.exp(0.5 * l[: deg + 1]))


def test_moment_exponential():
    wk = registered_weight(EXP)
    assert abs(moment(wk, 4) - 24.0) <= 1e-10
    assert abs(moment(wk, 0) - 1.0) <= 1e-12


def test_moment_order_must_be_an_integer():
    # np.arange(3.5) == 2.5 holds nowhere, so a fractional n would read 0.0
    wk = registered_weight(EXP)
    for n in (2.5, True, -1):
        with pytest.raises(ValueError, match="integer n >= 0"):
            moment(wk, n)
    assert abs(moment(wk, np.int64(3)) - 6.0) <= 1e-10


def test_moment_stretched_exp():
    wk = registered_weight(PhiDescriptor.stretched_gamma(1.0, 2.0))
    # int x^2 e^{-x^2} dx = sqrt(pi)/4
    assert abs(moment(wk, 2) - 0.443113462726379) <= 1e-9


def test_moment_check_registered_pairs():
    rep = moment_check(EXP, registered_weight(EXP), 15, 1e-8)
    assert rep.passed and not rep.failures
    rep = moment_check(ML21, registered_weight(ML21), 8, 1e-6)
    assert rep.passed
    assert all(set(r) == {"n", "moment", "target", "residual"} for r in rep.rows)


def test_moment_check_mismatched_pair_fails():
    wrong = registered_weight(PhiDescriptor.stretched_gamma(2.0, 1.0))
    rep = moment_check(EXP, wrong, 3, 1e-8)
    assert not rep.passed
    assert rep.failures[0] == 0  # total mass is 1/2, not 1


def test_verified_weight_gate():
    wk = verified_weight(EXP)
    assert wk.verified
    f = TruncatedSeries([1.0, 0.5])
    with pytest.raises(UnverifiedWeightError):
        inner_product_fock(registered_weight(EXP), f, f)
    with pytest.raises(ValueError):
        registered_weight(BS)


def test_log_weight_is_signed():
    wk = registered_weight(GD1)
    assert wk.form == "log"
    assert not wk.is_positive
    with pytest.warns(UserWarning):
        moment(wk, 1)


# int_0^inf x^n W(x) dx in closed form, independent of phi and of the rule
MOMENT_ORACLES = {
    "EXP": (EXP, lambda mp, n: mp.factorial(n)),
    "ML(2,1)": (PhiDescriptor.mittag_leffler(2, 1), lambda mp, n: mp.gamma(1 + mp.mpf(n) / 2)),
    "ML(0.5,1.5)": (PhiDescriptor.mittag_leffler(0.5, 1.5), lambda mp, n: mp.gamma(1.5 + 2 * n)),
    # W ~ x^(rho mu - 1) at 0: the nodes must reach far enough left for x^0.25 and x^0.1
    "ML(0.5,0.5)": (ML_HALF,
                    lambda mp, n: mp.gamma(mp.mpf("0.5") + 2 * n)),
    "ML(1,0.1)": (PhiDescriptor.mittag_leffler(1, 0.1),
                  lambda mp, n: mp.gamma(mp.mpf("0.1") + n)),
    # x^15 overflows where exp(-x^8) underflows: those far nodes carry no weight
    "ML(8,2)": (PhiDescriptor.mittag_leffler(8, 2), lambda mp, n: mp.gamma(2 + mp.mpf(n) / 8)),
    "SG(1,2)": (PhiDescriptor.stretched_gamma(1.0, 2.0),
                lambda mp, n: mp.gamma(mp.mpf(n + 1) / 2) / 2),
    "SG(2.5,0.7)": (PhiDescriptor.stretched_gamma(2.5, 0.7),
                    lambda mp, n: mp.gamma((n + 1) / mp.mpf("0.7"))
                    / (mp.mpf("0.7") * mp.mpf("2.5") ** ((n + 1) / mp.mpf("0.7")))),
    "GD(1)": (GD1, lambda mp, n: mp.diff(mp.gamma, n + 1, 1)),
    "GD(3)": (PhiDescriptor.gamma_deriv(3), lambda mp, n: mp.diff(mp.gamma, n + 1, 3)),
}


@pytest.mark.parametrize("name", sorted(MOMENT_ORACLES))
def test_moments_match_closed_forms(name):
    mp = pytest.importorskip("mpmath")
    desc, exact = MOMENT_ORACLES[name]
    wk = registered_weight(desc)
    signed = pytest.warns(UserWarning) if not wk.is_positive else contextlib.nullcontext()
    with signed:
        got = [moment(wk, n) for n in range(31)]
    with mp.workdps(30):
        want = [float(exact(mp, n)) for n in range(31)]
    for n, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-13 * abs(w), (name, n, g, w)


# The bits of moment(wk, n), n = 0..10.  The radial rule alone sets them:
# a change to the planar (angular) rule must leave every one in place.
MOMENT_BITS = {
    EXP: (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1",
        "0x1.8000000000000p+2", "0x1.8000000000000p+4", "0x1.e000000000000p+6",
        "0x1.6800000000000p+9", "0x1.3b00000000000p+12", "0x1.3b00000000000p+15",
        "0x1.6260000000000p+18", "0x1.baf8000000000p+21",
    ),
    ML21: (
        "0x1.0000000000000p+0", "0x1.c5bf891b4ef6ap-1", "0x1.0000000000000p+0",
        "0x1.544fa6d47b390p+0", "0x1.0000000000000p+1", "0x1.a96390899a074p+1",
        "0x1.8000000000000p+2", "0x1.74371e7866c66p+3", "0x1.8000000000000p+4",
        "0x1.a2be0247739f2p+5", "0x1.e000000000000p+6",
    ),
    SG12: (
        "0x1.c5bf891b4ef6bp-1", "0x1.0000000000000p-1", "0x1.c5bf891b4ef6ap-2",
        "0x1.0000000000000p-1", "0x1.544fa6d47b390p-1", "0x1.0000000000000p+0",
        "0x1.a96390899a074p+0", "0x1.8000000000000p+1", "0x1.74371e7866c66p+2",
        "0x1.8000000000000p+3", "0x1.a2be0247739f2p+4",
    ),
    GD2: (
        "0x1.fa658c23b1578p+0", "0x1.a5b978b96bebfp-1", "0x1.3f18547938454p+1",
        "0x1.65700b692b5b8p+3", "0x1.de066473dc394p+5", "0x1.730f2b4dc212ap+8",
        "0x1.497a5c4da8d34p+11", "0x1.4a6e4da2752cep+14", "0x1.721d22e526724p+17",
        "0x1.ca859c847c862p+20", "0x1.378339c8518aep+24",
    ),
}


@pytest.mark.parametrize("desc", list(MOMENT_BITS), ids=["EXP", "ML(2,1)", "SG(1,2)", "GD(2)"])
def test_moment_bits(desc):
    wk = registered_weight(desc)
    assert tuple(moment(wk, n).hex() for n in range(11)) == MOMENT_BITS[desc]


# The bits of registered_weight(desc).weight(x) at WEIGHT_XS: the closed
# forms as written, so a change to how a kernel picks its formula must leave
# every one in place.
WEIGHT_XS = (1e-12, 0.3, 1.0, 7.5, 40.0)
WEIGHT_BITS = {
    "EXP": (EXP, ("0x1.fffffffffdcd1p-1", "0x1.7b4c869c37c05p-1", "0x1.78b56362cef38p-2",
                  "0x1.21f9ba40f31d5p-11", "0x1.39792499b1a24p-58")),
    "ML(2,1)": (ML21, ("0x1.19799812dea11p-39", "0x1.18c27915d7617p-1", "0x1.78b56362cef38p-1",
                       "0x1.b01f34fa17f65p-78", "0x0.0p+0")),
    "ML(0.5,0.5)": (PhiDescriptor.mittag_leffler(0.5, 0.5),
                    ("0x1.dcd630c001062p+28", "0x1.6d32341a7cdf9p-1", "0x1.78b56362cef38p-3",
                     "0x1.d38230e370731p-8", "0x1.d87e3941281cep-15")),
    "SG(1,2)": (SG12, ("0x1.0000000000000p+0", "0x1.d3eec9cf11a26p-1", "0x1.78b56362cef38p-2",
                       "0x1.ccee1660198f4p-82", "0x0.0p+0")),
    "GD(1)": (GD1, ("-0x1.ba18a998fe13fp+4", "-0x1.c8aa6472a72b8p-1", "0x0.0p+0",
                    "0x1.2422e185145e5p-10", "0x1.21175a8aa8382p-56")),
    "GD(2)": (GD2, ("0x1.7dbc960246d7ap+9", "0x1.12e80efc2c544p+0", "0x0.0p+0",
                    "0x1.265027f956433p-9", "0x1.0a9b0d36438a5p-54")),
}


@pytest.mark.parametrize("name", list(WEIGHT_BITS))
def test_weight_bits(name):
    desc, bits = WEIGHT_BITS[name]
    wk = registered_weight(desc)
    assert tuple(float(w).hex() for w in wk.weight(np.array(WEIGHT_XS))) == bits
    assert tuple(float(wk.weight(x)).hex() for x in WEIGHT_XS) == bits


def test_gamma_deriv_weight_sign():
    # ln(x)^n is negative on x < 1 for odd n only
    assert [registered_weight(PhiDescriptor.gamma_deriv(n)).is_positive
            for n in range(1, 5)] == [False, True, False, True]


def test_inner_product_l2phi_values():
    z2 = TruncatedSeries([0, 0, 1.0])
    assert inner_product_l2phi(EXP, z2, z2) == 2.0
    zero = TruncatedSeries([0.0])
    f = TruncatedSeries([1.0, 2.0, 3.0])
    assert inner_product_l2phi(DK, f, zero) == 0.0
    z1 = TruncatedSeries([0, 1.0])
    # 1/phi_1 = 2 for kappa = 1/2 (Pochhammer oracle)
    assert abs(inner_product_l2phi(DK, z1, z1) - 2.0) <= 1e-14


def test_inner_product_l2phi_past_double_range():
    # ML(1/2,1/2) at degree 100: 1/phi_k overflows for k >= 86, where |f_k|^2
    # is subnormal (k <= 88) or 0; against the same double terms in mpmath
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(100)
    f, g = unit_series(ML_HALF, rng, 100), unit_series(ML_HALF, rng, 100)
    s, l = signs_logs(ML_HALF, 100)
    assert (-l[86:] > np.log(np.finfo(float).max)).all() and -l[85] < 709.0
    eps = np.finfo(float).eps
    for a, b in ((f, f), (f, g), (g, f)):
        got = inner_product_l2phi(ML_HALF, a, b)
        c = np.conj(a.coeffs) * b.coeffs
        with mp.workdps(40):
            terms = [mp.mpc(ck.real, ck.imag) * sk * mp.exp(-mp.mpf(lk))
                     for ck, sk, lk in zip(c.tolist(), s.tolist(), l.tolist())]
            want = complex(mp.fsum(terms))
            # exp(log|p| - log|phi_k|) rounds its argument: eps per unit of each log
            bound = float(mp.fsum(2 * eps * abs(t) * (2 + abs(lk) + abs(mp.log(abs(t))))
                                  for t, lk in zip(terms, l.tolist()) if t != 0))
        assert np.isfinite(got.real) and np.isfinite(got.imag)
        assert abs(got - want) <= bound
    # a zero product adds 0 where 1/phi_k overflows: the pairing of e_0 with
    # a full series is its degree-0 term, to the bit
    e0 = TruncatedSeries(np.r_[1.0, np.zeros(100)])
    assert inner_product_l2phi(ML_HALF, e0, g) == inner_product_l2phi(
        ML_HALF, TruncatedSeries([1.0]), TruncatedSeries(g.coeffs[:1]))


def test_inner_product_positivity():
    rng = np.random.default_rng(4)
    for desc in (EXP, ML21, DK):
        f = unit_series(desc, rng, 10)
        v = inner_product_l2phi(desc, f, f)
        assert abs(v.imag) <= 1e-14 * abs(v)
        assert v.real > 0
    zero = TruncatedSeries(np.zeros(5))
    assert inner_product_l2phi(EXP, zero, zero) == 0.0


def test_inner_product_fock_values():
    wk = verified_weight(EXP)
    z3 = TruncatedSeries([0, 0, 0, 1.0])
    z2 = TruncatedSeries([0, 0, 1.0])
    assert abs(inner_product_fock(wk, z3, z3) - 6.0) <= 1e-9
    assert abs(inner_product_fock(wk, z2, z3)) <= 1e-12
    wk_ml = verified_weight(ML21)
    z1 = TruncatedSeries([0, 1.0])
    assert abs(inner_product_fock(wk_ml, z1, z1) - 0.886226925452758) <= 1e-7


def test_relation_identity_monomials():
    # planar pairing == coefficient pairing on monomial pairs k, n <= 12
    pairs = [(EXP, verified_weight(EXP)),
             (ML21, verified_weight(ML21)),
             (PhiDescriptor.stretched_gamma(1.0, 2.0),
              verified_weight(PhiDescriptor.stretched_gamma(1.0, 2.0)))]
    for desc, wk in pairs:
        inv_phi_max = 1.0 / min(phi_coeffs(desc, 12))
        for k in range(0, 13, 3):
            for n in range(0, 13, 4):
                f = TruncatedSeries([0.0] * k + [1.0])
                g = TruncatedSeries([0.0] * n + [1.0])
                a = inner_product_fock(wk, f, g)
                b = inner_product_l2phi(desc, f, g)
                assert abs(a - b) <= 1e-7 * inv_phi_max


def test_basis_orthonormality_quadrature():
    wk = verified_weight(EXP)
    sq = sqrt_phi(EXP, 15)
    for k in range(0, 16, 5):
        for n in range(0, 16, 3):
            ek = TruncatedSeries([0.0] * k + [sq[k]])
            en = TruncatedSeries([0.0] * n + [sq[n]])
            v = inner_product_fock(wk, ek, en)
            assert abs(v - (1.0 if k == n else 0.0)) <= 1e-7
    wk_ml = verified_weight(ML21)
    sq = sqrt_phi(ML21, 8)
    for n in range(9):
        en = TruncatedSeries([0.0] * n + [sq[n]])
        v = inner_product_fock(wk_ml, en, en)
        assert abs(v - 1.0) <= 1e-6


def test_reproduce_values():
    wk = verified_weight(EXP)
    f = TruncatedSeries([1.0, 0.0, 1.0])  # 1 + z^2
    z = 0.7 + 0.2j
    assert abs(reproduce(EXP, wk, f, z) - f(z)) <= 1e-9
    zero = TruncatedSeries([0.0])
    assert abs(reproduce(EXP, wk, zero, z)) <= 1e-12
    wk_ml = verified_weight(ML21)
    z1 = TruncatedSeries([0.0, 1.0])
    assert abs(reproduce(ML21, wk_ml, z1, 1.0) - 1.0) <= 1e-6


def test_reproduce_random_polys():
    rng = np.random.default_rng(5)
    for desc in (EXP, ML21):
        wk = verified_weight(desc)
        for _ in range(5):
            deg = int(rng.integers(0, 11))
            f = unit_series(desc, rng, deg)
            z = complex(*rng.uniform(-1.5 / 1.5, 1.5 / 1.5, 2)) * 1.5
            assert abs(reproduce(desc, wk, f, z) - f(z)) <= 1e-6


def test_reproduce_backward_shift_diverges():
    # the radius-1 kernel cannot reach the radial nodes past |w| = 1/|z|
    wk = verified_weight(EXP)
    for deg in (0, 1, 4):
        with pytest.raises(DivergenceError):
            reproduce(BS, wk, TruncatedSeries(np.ones(deg + 1)), 0.5)
        # |z|^2 x stays below 1 at every node: the series converges, ~ f(0)
        for z in (0.0, 1e-25):
            assert abs(reproduce(BS, wk, TruncatedSeries(np.ones(deg + 1)), z) - 1.0) <= 1e-12


def reference_exp_sinh_levels(wk):
    """Per level, the exp-sinh nodes x = exp(pi/2 sinh t) at t = k h that it
    adds (every k at level 0, odd k after that) with dx/dt * W(x), built here
    from W alone and untrimmed: only the products that are 0, inf or nan,
    which stand for a zero weight, are left out."""
    levels = []
    for level in range(fock._DE_LEVELS):
        h = fock._DE_H0 / 2 ** level
        k = np.arange(round(fock._DE_T_MIN / h), round(fock._DE_T_MAX / h) + 1)
        t = k[k % 2 == 1] * h if level else k * h
        x = np.exp(0.5 * np.pi * np.sinh(t))
        with np.errstate(over="ignore", invalid="ignore"):
            ww = 0.5 * np.pi * np.cosh(t) * x * wk.weight(x)
        keep = np.isfinite(ww) & (ww != 0.0)
        levels.append((x[keep], ww[keep]))
    return levels


def reference_polar_integral(wk, deg, integrand):
    """The planar rule kept as the loop reference: 2 deg + 2 angular nodes,
    and one integrand call per level of the untrimmed exp-sinh rule."""
    A = 2 * deg + 2
    theta = 2.0 * np.pi * np.arange(A) / A
    ephase = np.exp(1j * theta)

    def fn(x):
        r = np.sqrt(np.asarray(x, dtype=float))
        return np.asarray(np.mean(integrand(r[:, None] * ephase[None, :]), axis=1), dtype=complex)

    total, magnitude = 0.0j, 0.0
    for level, (x, ww) in enumerate(reference_exp_sinh_levels(wk)):
        terms = ww * fn(x)
        total += np.sum(terms)
        magnitude += float(np.sum(np.abs(terms)))
        h = fock._DE_H0 / 2 ** level
        val = complex(h * total)
        if level:
            err = max(abs(val - prev), np.finfo(float).eps * h * magnitude)
            if err <= 10.0 * max(fock._DE_TOL, fock._DE_TOL * abs(val)):
                return val
        prev = val
    raise ConvergenceError(f"radial quadrature error {err:.2e} exceeds tolerance")


# |rule - reference| <= REFERENCE_C * eps * scale, with scale max(1, sum |f_k||z|^k)
# for reproduce and max(1, ||f|| ||g||) (Cauchy-Schwarz) for the pairing.
# The largest ratio measured is 1.9 (reproduce, SG(1,2)), pairing 1.7 (ML(2,1)).
REFERENCE_C = 64


@pytest.mark.parametrize("desc", [EXP, ML21, SG12, GD2], ids=["EXP", "ML(2,1)", "SG(1,2)", "GD(2)"])
def test_planar_rule_against_reference(desc):
    # EXP against its exact values: Horner f(z) and sum conj(f_k) g_k k!
    wk = verified_weight(desc)
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for deg in range(13):
        phi = np.abs(phi_coeffs(desc, deg))
        f, g = unit_series(desc, rng, deg), unit_series(desc, rng, deg)
        z = complex(*rng.uniform(-1.2, 1.2, 2))
        if desc == EXP:
            want = 0j
            for c in f.coeffs[::-1].tolist():
                want = want * z + c
        else:
            want = reference_polar_integral(
                wk, deg, lambda w: core.phi_eval(desc, z * np.conj(w), deg) * f(w))
        scale = max(1.0, float(np.sum(np.abs(f.coeffs) * abs(z) ** np.arange(deg + 1))))
        assert abs(reproduce(desc, wk, f, z) - want) <= REFERENCE_C * eps * scale, deg
        if desc == EXP:
            want = complex(np.sum(np.conj(f.coeffs) * g.coeffs
                                  * [float(math.factorial(k)) for k in range(deg + 1)]))
        else:
            want = reference_polar_integral(wk, deg, lambda w: np.conj(f(w)) * g(w))
        scale = max(1.0, float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2 / phi)
                                       * np.sum(np.abs(g.coeffs) ** 2 / phi))))
        assert abs(inner_product_fock(wk, f, g) - want) <= REFERENCE_C * eps * scale, deg


# The range grid: each family at RANGE_DEGREES, with unit-scale series.
# reproduce is checked against Horner f(z) and inner_product_fock against
# inner_product_l2phi.  The outcome of each is "ok" within REFERENCE_C eps of
# its scale, "off" for a finite value outside that bound, or the class of the
# error raised; RANGE_OUTCOMES lists the cases that are not ("ok", "ok").  At
# the high degrees |f_k|^2 x^k peaks far out: no level of the rule meets the
# tolerance.
RANGE_FAMILIES = {"EXP": EXP, "ML(2,1)": ML21, "ML(1/2,1/2)": ML_HALF, "SG(1,2)": SG12, "GD(2)": GD2}
RANGE_DEGREES = (0, 12, 40, 60, 100, 120, 160, 200)
RANGE_OUTCOMES = {
    ("EXP", 200): ("ok", "ConvergenceError"),
    ("ML(1/2,1/2)", 100): ("ok", "ConvergenceError"),
    ("ML(1/2,1/2)", 120): ("ok", "ConvergenceError"),
    ("ML(1/2,1/2)", 160): ("ok", "ConvergenceError"),
    ("ML(1/2,1/2)", 200): ("ok", "ConvergenceError"),
    ("GD(2)", 200): ("ok", "ConvergenceError"),
}


@pytest.mark.parametrize("deg", RANGE_DEGREES)
@pytest.mark.parametrize("name", list(RANGE_FAMILIES))
def test_planar_range(name, deg):
    desc = RANGE_FAMILIES[name]
    wk = verified_weight(desc)
    rng = np.random.default_rng(deg)
    f, g = unit_series(desc, rng, deg), unit_series(desc, rng, deg)
    z = complex(*rng.uniform(-1.2, 1.2, 2))
    eps = np.finfo(float).eps
    want = 0j
    for c in f.coeffs[::-1].tolist():
        want = want * z + c
    cases = (
        (lambda: reproduce(desc, wk, f, z), want,
         max(1.0, float(np.sum(np.abs(f.coeffs) * abs(z) ** np.arange(deg + 1))))),
        (lambda: inner_product_fock(wk, f, g), inner_product_l2phi(desc, f, g),
         max(1.0, math.sqrt(inner_product_l2phi(desc, f, f).real
                            * inner_product_l2phi(desc, g, g).real))),
    )
    outcomes = []
    for run, exact, scale in cases:
        try:
            got = run()
        except (ConvergenceError, DivergenceError, OverflowError) as err:
            outcomes.append(type(err).__name__)
            continue
        assert np.isfinite(got.real) and np.isfinite(got.imag)
        outcomes.append("ok" if abs(got - exact) <= REFERENCE_C * eps * scale else "off")
    assert tuple(outcomes) == RANGE_OUTCOMES.get((name, deg), ("ok", "ok")), outcomes


@pytest.mark.parametrize("name", sorted(MOMENT_ORACLES))
def test_exp_sinh_trim(name):
    # each level of the rule is its untrimmed level less the nodes left of one
    # cut; every dropped node has x < 1, their |dx/dt W| summed over all levels
    # is at most eps * h * (the same sum over the whole rule), h = 1/128, and
    # the cut is the largest that keeps both
    wk = registered_weight(MOMENT_ORACLES[name][0])
    full, rule = reference_exp_sinh_levels(wk), fock._exp_sinh_rule(wk.desc)[0]
    cuts = [x.size - xr.size for (x, _), (xr, _) in zip(full, rule)]
    for (x, ww), (xr, wr), cut in zip(full, rule, cuts):
        assert np.array_equal(x[cut:], xr) and np.array_equal(ww[cut:], wr)
    x_out = np.concatenate([x[:cut] for (x, _), cut in zip(full, cuts)])
    m_out = sum(float(np.abs(ww[:cut]).sum()) for (_, ww), cut in zip(full, cuts))
    bound = (np.finfo(float).eps * fock._DE_H0 / 2 ** (fock._DE_LEVELS - 1)
             * sum(float(np.abs(ww).sum()) for _, ww in full))
    x_in, w_in = min((x[0], ww[0]) for x, ww in rule)  # the first kept node
    assert x_out.size and x_out.max() < min(1.0, x_in)  # one cut for every level
    assert m_out <= bound
    assert x_in >= 1.0 or m_out + abs(w_in) > bound


def test_radial_integral_levels(monkeypatch):
    # x^2 against ML(2,1) converges at level 1: its value is that level's
    # table entry, and levels 2 and 3 are not read
    wk = registered_weight(ML21)
    M, A, e = fock._moments(wk, 3)
    unread = M.copy()
    unread[2:] = np.nan
    with monkeypatch.context() as m:
        m.setattr(fock, "_moments", lambda wk, n: (unread, A, e))
        val = fock._radial_integral(wk, np.array([0.0, 0.0, 1.0]))
    assert val == M[1, 2] and abs(val - 1.0) <= 1e-13
    # EXP takes the same rule, and int x e^-x dx = 1 comes out exact
    assert fock._radial_integral(registered_weight(EXP), np.array([0.0, 1.0])) == 1.0
    # the stopping rule fails at every level: a finite error estimate, no nan
    with pytest.raises(ConvergenceError, match=r"error \d\.\d\de[-+]\d+ exceeds"):
        moment(registered_weight(EXP), 150)
    # finite parts whose modulus overflows are no value either
    with pytest.raises(ConvergenceError):
        fock._radial_integral(registered_weight(EXP), np.array([1.3e308 + 1.3e308j]))


def test_exp_moments_to_the_factorial_range():
    # n! is a double up to n = 170, while x^n overflows at the far nodes
    # (x ~ 745) from n = 108.  Each node's rounding is amplified n times in
    # x^n e^-x, so the bound is n eps (measured: at most 9 eps up to n = 140).
    # Past n = 140 the stopping rule fails at some n, and it never returns
    # nan or inf: at n = 170 the sum of |terms| behind the rounding floor
    # overflows, and the rule raises.
    wk = registered_weight(EXP)
    eps = np.finfo(float).eps
    for n in range(100, 171):
        want = float(math.factorial(n))
        if n <= 140:
            got = moment(wk, n)
        else:
            try:
                got = moment(wk, n)
            except ConvergenceError:
                continue
            assert n != 170
        assert abs(got - want) <= n * eps * want, n


def test_moment_table_grows_to_the_same_bits():
    # degrees 0..119 in one step or in two give the same table; ML(1/2,3/4)
    # has x^k overflow at the far nodes from k = 55 and a scaled row
    # (e_k > 0) from k = 85, where Gamma(3/4 + 2k) leaves the double range
    wk = registered_weight(PhiDescriptor.mittag_leffler(0.5, 0.75))
    fock._exp_sinh_rule.cache_clear()
    fock._moments(wk, 50)
    two = [a.copy() for a in fock._moments(wk, 120)]
    fock._exp_sinh_rule.cache_clear()
    one = fock._moments(wk, 120)
    for a, b in zip(one, two):
        assert a.shape[-1] == b.shape[-1] == 120 and np.array_equal(a, b)
    M, A, e = one
    assert (e[:85] == 0).all() and (e[85:] > 0).all()
    assert np.isfinite(M).all() and np.isfinite(A).all()
    # a verified kernel reads its weight's one table
    assert fock._moments(replace(wk, verified=True), 120) is one


# The bits of reproduce and inner_product_fock (real, imag) at degrees 0, 3
# and 10 on seeded unit series: the planar rule as it stands, so a change to
# how the quadrature is assembled must leave every one in place.
PLANAR_DEGREES = (0, 3, 10)
PLANAR_BITS = {
    EXP: (
        ("0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3",
         "0x1.110cdf1771fcdp-4", "0x1.908e68a6a011bp-4"),
        ("0x1.7b83ca4eae158p+1", "-0x1.9fda5460630c6p+0",
         "-0x1.de1982de293d6p+2", "0x1.9cefeda20db29p+0"),
        ("-0x1.4f1f6afb5c3e5p+0", "-0x1.26615c9d790fbp-1",
         "0x1.b71ee83924803p-1", "-0x1.5eb93534bc0dfp+2"),
    ),
    ML21: (
        ("0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3",
         "0x1.110cdf1771fcdp-4", "0x1.908e68a6a011bp-4"),
        ("0x1.6e424b47000c4p+1", "-0x1.df4349146b99ep+0",
         "-0x1.de1982de293d4p+2", "0x1.9cefeda20db25p+0"),
        ("-0x1.4eef6b7c8bbd0p+0", "-0x1.09183cfd497f6p-1",
         "0x1.b71ee83924803p-1", "-0x1.5eb93534bc0dcp+2"),
    ),
    SG12: (
        ("0x1.11866bf3aba16p-3", "-0x1.1f64a01313917p-3",
         "0x1.110cdf1771fcep-4", "0x1.908e68a6a011ep-4"),
        ("0x1.930c085e67f38p+1", "-0x1.3e0fbfc14d61fp+1",
         "-0x1.de1982de293d5p+2", "0x1.9cefeda20db27p+0"),
        ("-0x1.6fa01aff8c528p+0", "-0x1.c5925132d6d11p-2",
         "0x1.b71ee8392480ap-1", "-0x1.5eb93534bc0dcp+2"),
    ),
    GD2: (
        ("0x1.6e29ab8cd00d4p-4", "-0x1.80ba426b445e1p-4",
         "0x1.110cdf1771fcdp-4", "0x1.908e68a6a011cp-4"),
        ("0x1.48718a65e11efp+1", "-0x1.86b3f4c10072bp+0",
         "-0x1.de1982de293d6p+2", "0x1.9cefeda20db29p+0"),
        ("-0x1.045ab944bc5ddp+0", "-0x1.56d2b9d69c2e7p-2",
         "0x1.b71ee8392480fp-1", "-0x1.5eb93534bc0e0p+2"),
    ),
}


@pytest.mark.parametrize("desc", list(PLANAR_BITS), ids=["EXP", "ML(2,1)", "SG(1,2)", "GD(2)"])
def test_planar_bits(desc):
    wk = verified_weight(desc)
    got = []
    for deg in PLANAR_DEGREES:
        rng = np.random.default_rng(deg)
        f, g = unit_series(desc, rng, deg), unit_series(desc, rng, deg)
        z = complex(*rng.uniform(-1.2, 1.2, 2))
        r, p = reproduce(desc, wk, f, z), inner_product_fock(wk, f, g)
        got.append((r.real.hex(), r.imag.hex(), p.real.hex(), p.imag.hex()))
    assert tuple(got) == PLANAR_BITS[desc]


def test_cached_arrays_read_only():
    # each cache shares its arrays with every later caller: a write would
    # corrupt every integral that follows
    levels = fock._exp_sinh_rule(ML21)[0]
    signs_logs(ML21, 12)
    for a in (*(a for level in levels for a in level), *fock._moments(registered_weight(ML21), 12),
              *core._table(ML21)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


PROPERTY_FAMILIES = {"ML(2,1)": ML21, "SG(1,2)": SG12, "GD(2)": GD2}
# the exp-sinh stopping rule's tolerance, 10 * 1e-9 relative to max(1, |I|)
PROPERTY_TOL = 1e-8


@lru_cache(maxsize=None)
def property_weight(name):
    return verified_weight(PROPERTY_FAMILIES[name])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_FAMILIES)),
       st.integers(0, 12).flatmap(lambda d: st.lists(
           st.complex_numbers(max_magnitude=1.0), min_size=d + 1, max_size=d + 1)),
       st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_reproduce_property(name, a, x, y):
    desc = PROPERTY_FAMILIES[name]
    deg, z = len(a) - 1, complex(x, y)
    f = TruncatedSeries(np.array(a) * np.sqrt(np.abs(phi_coeffs(desc, deg))))
    want = 0j
    for c in f.coeffs[::-1].tolist():
        want = want * z + c
    scale = max(1.0, float(np.sum(np.abs(f.coeffs) * abs(z) ** np.arange(deg + 1))))
    assert abs(reproduce(desc, property_weight(name), f, z) - want) <= PROPERTY_TOL * scale


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_FAMILIES)), st.integers(0, 12), st.booleans())
def test_top_frequency_orthonormality_property(name, d, swap):
    # e_0 against e_d: frequency d, the highest the degree-d angular rule resolves
    sq = sqrt_phi(PROPERTY_FAMILIES[name], d)
    e0, ed = TruncatedSeries([sq[0]]), TruncatedSeries([0.0] * d + [sq[d]])
    v = inner_product_fock(property_weight(name), *((ed, e0) if swap else (e0, ed)))
    assert abs(v - (1.0 if d == 0 else 0.0)) <= PROPERTY_TOL


def test_duality_examples():
    z1 = TruncatedSeries([0, 1.0])
    z2 = TruncatedSeries([0, 0, 1.0])
    assert duality_check(EXP, z1, z2) == 0.0
    g = TruncatedSeries([1.0, 2.0, 3.0])
    assert duality_check(DK, TruncatedSeries([0.0]), g) == 0.0
    rng = np.random.default_rng(6)
    f = unit_series(GD1, rng, 10)
    g = unit_series(GD1, rng, 10)
    assert duality_check(GD1, f, g) <= 1e-12


def test_duality_random_all_families():
    rng = np.random.default_rng(7)
    for desc in (EXP, ML21, PhiDescriptor.stretched_gamma(1.0, 2.0), GD1, DK, BS):
        for _ in range(20):
            deg = int(rng.integers(1, 13))
            f = unit_series(desc, rng, deg)
            g = unit_series(desc, rng, deg)
            assert duality_check(desc, f, g) <= 1e-12


DUALITY_FAMILIES = {"EXP": EXP, "ML(2,1)": ML21, "SG(1,2)": SG12, "GD(2)": GD2, "Dunkl(1/2)": DK}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DUALITY_FAMILIES)), st.booleans(), st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
def test_duality_property(name, normalized, deg, seed):
    # the duality suite's draw and bound; the largest residual measured over
    # 1500 seeds per family is 1.5e-14
    desc = DUALITY_FAMILIES[name]
    desc = desc.normalize() if normalized else desc
    rng = np.random.default_rng(seed)
    f, g = unit_series(desc, rng, deg), unit_series(desc, rng, deg)
    assert duality_check(desc, f, g) <= 1e-12
