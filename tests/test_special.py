import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from glfock.special import gammaln, hermite_fn_table, log_gamma_deriv
from mp_oracles import gamma_deriv, hermite_fn

EULER = 0.5772156649015329


def _gamma_deriv(n, x):
    s, l = log_gamma_deriv(n, x)
    return float(s) * math.exp(l)


def test_gamma_exact_values():
    # n = 0 is log Gamma itself
    assert _gamma_deriv(0, 5.0) == pytest.approx(24.0, rel=1e-15)
    assert _gamma_deriv(0, 1.0) == 1.0
    # sqrt(pi), 40-digit oracle
    assert abs(_gamma_deriv(0, 0.5) - 1.7724538509055160273) <= 1e-13 * 1.78


def test_gamma_functional_equation():
    # differentiating Gamma(x+1) = x Gamma(x) n times:
    # Gamma^(n)(x+1) = x Gamma^(n)(x) + n Gamma^(n-1)(x)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(0.1, 50.0)
        for n in range(4):
            lhs = _gamma_deriv(n, x + 1.0)
            rhs = x * _gamma_deriv(n, x) + (n * _gamma_deriv(n - 1, x) if n else 0.0)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_digamma_values():
    # psi = Gamma' / Gamma
    def psi(x):
        (s1, l1), (_, l0) = log_gamma_deriv(1, x), log_gamma_deriv(0, x)
        return float(s1) * math.exp(l1 - l0)
    assert abs(psi(1.0) - (-EULER)) <= 1e-12
    assert abs(psi(2.0) - (1.0 - EULER)) <= 1e-12
    # recurrence oracle: psi(10) = psi(1) + H_9
    assert abs(psi(10.0) - 2.251752589066721) <= 1e-12
    with pytest.raises(ValueError):
        log_gamma_deriv(1, 0.0)
    with pytest.raises(ValueError):
        log_gamma_deriv(2, np.array([1.0, -1.0]))


@pytest.mark.parametrize("n", [-1, -5, True, False, 2.0])
def test_bad_order_rejected(n):
    # n = -1 once ran as n = 0 and returned log Gamma; a bool is not an order
    with pytest.raises(ValueError, match="n >= 0"):
        log_gamma_deriv(n, 2.0)


def test_harmonic():
    # Gamma'(n+1) = n! (H_n - euler_gamma), H_n summed exactly: the
    # gamma_deriv(1) coefficients are the reciprocals of these values
    for n in range(21):
        h = float(sum(Fraction(1, j) for j in range(1, n + 1)))
        want = math.factorial(n) * (h - EULER)
        assert abs(_gamma_deriv(1, n + 1.0) - want) <= 1e-13 * abs(want)


def test_gamma_deriv_values():
    assert abs(_gamma_deriv(0, 3.0) - 2.0) <= 1e-14
    assert abs(_gamma_deriv(1, 2.0) - (1.0 - EULER)) <= 1e-14
    # Gamma''(1) = euler^2 + pi^2/6, high-precision oracle
    assert abs(_gamma_deriv(2, 1.0) - 1.978111990655945) <= 1e-14


def test_gamma_deriv_matches_digamma_route():
    # Gamma' = Gamma * psi, mpmath's gamma and digamma
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        want = float(mp.gamma(x) * mp.digamma(x))
        assert abs(_gamma_deriv(1, x) - want) <= 1e-13 * max(1.0, abs(want))


def test_gamma_deriv_matches_quadrature_in_t():
    # mpmath quadrature of the defining integral int_0^inf t^(x-1) e^(-t)
    # ln(t)^n dt in t, against glfock's rule in the scaled variable t/x
    for n in (1, 2, 3):
        for x in (1.0, 2.0, 3.5):
            with mp.workdps(30):
                want = float(mp.quad(lambda t: t ** (x - 1) * mp.exp(-t) * mp.log(t) ** n,
                                     [0, 1, mp.inf]))
            assert abs(_gamma_deriv(n, x) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_log_gamma_deriv_matches_mpmath(n):
    # independent route: mpmath's numerical derivative of Gamma, in high
    # precision; large x lies far past the double range of Gamma^(n)
    for x in (0.1, 0.5, 1.0, 2.0, 3.5, 10.0, 171.5, 1000.0, 20001.0):
        with mp.workdps(40):
            v = mp.diff(mp.gamma, x, n)
            sign, log = float(mp.sign(v)), float(mp.log(abs(v)))
        s, l = log_gamma_deriv(n, x)
        assert s == sign, (n, x)
        assert abs(l - log) <= 1e-13 * max(1.0, abs(log)), (n, x, l, log)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_log_gamma_deriv_array_matches_scalar(n):
    x = np.concatenate([np.linspace(0.05, 4.0, 80), np.arange(1.0, 2001.0)])
    s, l = log_gamma_deriv(n, x)
    assert s.shape == l.shape == x.shape
    pairs = [log_gamma_deriv(n, float(xi)) for xi in x]
    assert np.array_equal(s, [p[0] for p in pairs])
    assert np.array_equal(l, [p[1] for p in pairs])


def test_gammaln_bit_identical_to_scipy():
    # the port follows cephes lgam step for step, as scipy does; every
    # branch is hit: the shift loops below 13, the rational on [2, 3), the
    # Stirling series with its x >= 1000 and x > 1e8 forms
    k = np.arange(20001.0)
    rng = np.random.default_rng(20)
    x = np.concatenate([k + 1.0, k + 0.5, (k + 1.0) / 10.0,
                        rng.uniform(0.01, 1e5, 40000),
                        np.logspace(-300.0, 300.0, 20001)])
    assert np.array_equal(gammaln(x), sps.gammaln(x))


@pytest.mark.parametrize("n", [10, 40, 100, 170])
@pytest.mark.parametrize("x", [1.0, 10.0, 161.0, 1025.0])
def test_log_gamma_deriv_matches_quadrature_oracle(n, x):
    # orders up to the config cap of 170, against a 20-digit mpmath
    # quadrature in v = ln t; for small x the peak of the integrand moves
    # out to v ~ -n/x
    sign, log = gamma_deriv(n, x)
    s, l = log_gamma_deriv(n, x)
    assert s == sign
    assert abs(l - log) <= 1e-13 * max(1.0, abs(log)), (l, log)


def test_log_gamma_deriv_passes_inf_and_nan():
    s, l = log_gamma_deriv(2, np.array([math.inf, math.nan]))
    assert np.array_equal(s, [1.0, math.nan], equal_nan=True)
    assert np.array_equal(l, [math.inf, math.nan], equal_nan=True)
    # a scalar gives a 0-d result, an array keeps its shape
    assert log_gamma_deriv(1, 2.5)[0].shape == ()
    assert all(a.shape == (2, 3) for a in log_gamma_deriv(3, np.ones((2, 3))))


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_gammaln_matches_scipy_property(x):
    assert gammaln(x) == sps.gammaln(x)


def test_gammaln_edges_and_shape():
    tiny, big = 1e-310, 2.556348e305  # subnormal input; the overflow threshold
    x = np.array([tiny, 1e-300, 1.0, 2.0, 13.0, 1000.0, 1e8, big, 3e305, math.inf, math.nan])
    got = gammaln(x)
    assert np.array_equal(got, sps.gammaln(x), equal_nan=True)
    assert got[0] == got[8] == got[9] == math.inf
    assert got[2] == got[3] == 0.0 and math.isnan(got[10])
    assert math.isfinite(got[7]) and got[1] == pytest.approx(300 * math.log(10), rel=1e-15)
    # a scalar gives a numpy scalar, an array keeps its shape
    assert isinstance(gammaln(0.5), np.float64) and gammaln(0.5) == sps.gammaln(0.5)
    assert gammaln(np.ones((2, 3))).shape == (2, 3) and gammaln(np.array([])).size == 0


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -1e300, -math.inf, [3.0, -2.5]])
def test_gammaln_rejects_nonpositive(x):
    # refused before any shift loop runs: cephes would step -1e300 up forever
    with pytest.raises(ValueError, match="x > 0"):
        gammaln(x)


def test_hermite_values():
    tab = hermite_fn_table(5, np.array([0.0, 1.3]))
    assert abs(tab[0, 0] - 0.7511255444649425) <= 1e-14
    assert tab[1, 0] == 0.0
    # explicit degree-5 formula evaluated in high precision
    assert abs(tab[5, 1] - (-0.3993914628137507)) <= 1e-13


def test_hermite_orthonormality():
    # 200-node Gauss-Hermite rule; h_m h_n e^{x^2} is polynomial x gaussian
    x, w = np.polynomial.hermite.hermgauss(200)
    tab = hermite_fn_table(20, x)
    total = w * np.exp(x * x)
    G = tab @ (total[:, None] * tab.T)
    assert np.max(np.abs(G - np.eye(21))) <= 1e-8


def test_hermite_table_matches_scalar():
    # each entry against the scalar mpmath formula H_n(x) e^(-x^2/2) / norm
    x = np.linspace(-6.0, 6.0, 13)
    tab = hermite_fn_table(20, x)
    want = np.array([[hermite_fn(n, xi) for xi in x] for n in range(21)])
    assert np.max(np.abs(tab - want)) <= 1e-14
