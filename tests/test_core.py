import functools
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from glfock import cli, core
from glfock.core import (PhiDescriptor, TruncatedSeries, gl_derivative, multiply_z,
                         order_degree_check, phi_coeff, phi_coeffs, phi_eval, signs_logs)
from glfock.errors import DivergenceError, NonEntireError
from mp_oracles import _phis, power_sum, riemann_liouville

EXP = PhiDescriptor.exponential()
ML21 = PhiDescriptor.mittag_leffler(2, 1)
SG = PhiDescriptor.stretched_gamma(1.0, 2.0)
GD1 = PhiDescriptor.gamma_deriv(1)
DK = PhiDescriptor.dunkl(0.5)
BS = PhiDescriptor.backward_shift()

ALL = [EXP, ML21, SG, GD1, DK, BS]
ENTIRE = [EXP, ML21, SG, GD1, DK]


def test_phi_coeff_values():
    assert abs(phi_coeff(EXP, 4) - 1.0 / 24.0) <= 1e-17
    assert phi_coeff(BS, 7) == 1.0
    # direct Pochhammer: (1/2)_1 / (2! (kappa+1/2)_1) at kappa = 1/2
    assert abs(phi_coeff(DK, 2) - 0.25) <= 1e-16


def test_phi_coeff_overflow_and_log_path():
    with pytest.raises(OverflowError):
        phi_coeff(EXP, 400)
    s, l = signs_logs(EXP, 400)
    assert s[400] == 1.0 and l[400] < -2000.0


def test_phi_coeffs_raise_past_double_range():
    # normalized SG(a, 1) has phi_k = a^k / k!: log phi_11 = 11 ln 1e30 - ln 11!
    # = 742 > 708; a clamp would make phi_eval and the lattice products read
    # a different phi than phi_coeff
    big = PhiDescriptor.stretched_gamma(1e30, 1.0, normalized=True)
    assert phi_coeffs(big, 10)[10] == pytest.approx(1e300 / math.factorial(10), rel=1e-12)
    with pytest.raises(OverflowError, match="phi_11"):
        phi_coeffs(big, 11)
    with pytest.raises(OverflowError):
        phi_eval(big, 1e-30, 80)
    # below the double range the coefficients are 0, not an error
    v = phi_coeffs(EXP, 400)
    assert v[200] == 0.0 and v[170] > 0.0


@pytest.mark.parametrize("desc, family, params", [
    (PhiDescriptor.exponential(normalized=True), "exponential", {}),
    (PhiDescriptor.mittag_leffler(2, 1, normalized=True), "mittag_leffler",
     {"rho": 2.0, "mu": 1.0}),
    (PhiDescriptor.dunkl(0.5, normalized=True), "dunkl", {"kappa": 0.5}),
    (PhiDescriptor.gamma_deriv(1, normalized=True), "gamma_deriv", {"n": 1}),
    (PhiDescriptor.mittag_leffler(1.5, 2, normalized=True), "mittag_leffler",
     {"rho": 1.5, "mu": 2.0}),
    (PhiDescriptor.mittag_leffler(0.5, 1, normalized=True), "mittag_leffler",
     {"rho": 0.5, "mu": 1.0}),
    (PhiDescriptor.dunkl(2.0, normalized=True), "dunkl", {"kappa": 2.0}),
], ids=["EXP", "ML(2,1)", "Dunkl(1/2)", "GD(1)", "ML(1.5,2)", "ML(1/2,1)", "Dunkl(2)"])
def test_phi_coeffs_match_mpmath(desc, family, params):
    # the value row against the family definitions at 30 digits, normalized
    # to phi_0 = 1: each phi_j, j <= 40, within 1e-13 relative (4.1e-14 at
    # most measured)
    with mp.workdps(30):
        want = np.array([float(c) for c in _phis(family, params, 40)])
    got = phi_coeffs(desc, 40)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_phi_coeffs_vector_consistent():
    for desc in ALL:
        v = phi_coeffs(desc, 12)
        assert v.shape == (13,)
        for k in (0, 3, 12):
            assert abs(v[k] - phi_coeff(desc, k)) <= 1e-15 * abs(v[k])


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("desc", [*ALL, PhiDescriptor.gamma_deriv(3)],
                         ids=["EXP", "ML(2,1)", "SG(1,2)", "GD(1)", "Dunkl(1/2)", "BS", "GD(3)"])
def test_phi_coeff_reads_value_row(desc, normalized):
    # one value per coefficient: phi_coeff and phi_coeffs agree bit for bit
    desc = replace(desc, normalized=normalized)
    v = phi_coeffs(desc, 40)
    assert np.array_equal(_bits([phi_coeff(desc, k) for k in range(41)]), _bits(v))


# the six families, with a second parameter set where the growth differs;
# SG(1e8, 1) passes log|phi_k| = 708 near k = 40
VALUE_ROW_FAMILIES = [*ALL, PhiDescriptor.mittag_leffler(0.5, 0.5), PhiDescriptor.gamma_deriv(3),
                      PhiDescriptor.stretched_gamma(1e8, 1.0)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("desc", VALUE_ROW_FAMILIES,
                         ids=lambda d: "-".join([d.family, *(f"{v:g}" for _, v in d.params)]))
def test_value_row_bits(desc, normalized):
    # the table's value row, grown in random orders, is s * exp(l) on the
    # whole prefix bit for bit
    desc = replace(desc, normalized=normalized)
    rng = np.random.default_rng(25)
    for _ in range(3):
        core._table.cache_clear()
        for kmax in rng.integers(0, 201, 6).tolist():
            core.signs_logs(desc, kmax)
            s, l, v = core._table(desc)
            with np.errstate(under="ignore", over="ignore"):
                assert np.array_equal(_bits(v), _bits(s * np.exp(l)))
            assert not v.flags.writeable


@pytest.mark.parametrize("desc", [PhiDescriptor.stretched_gamma(1e8, 1.0),
                                  PhiDescriptor.stretched_gamma(1e30, 1.0, normalized=True),
                                  PhiDescriptor.stretched_gamma(1e-4, 1.0),
                                  PhiDescriptor.mittag_leffler(0.1, 1.0)])
def test_phi_coeffs_reads_value_row(desc):
    # the first k with log|phi_k| > 708 is named; below it the values are s * exp(l)
    s, l = core.signs_logs(desc, 80)
    for N in (10, 80):
        if (l[:N + 1] > 708.0).any():
            k = int(np.argmax(l > 708.0))
            with pytest.raises(OverflowError, match=f"phi_{k} for {desc.family} "):
                phi_coeffs(desc, N)
        else:
            with np.errstate(under="ignore"):
                assert np.array_equal(_bits(phi_coeffs(desc, N)), _bits(s[:N + 1] * np.exp(l[:N + 1])))


def test_phi_coeffs_returns_a_copy():
    # writing into the result leaves the table as it was
    v = phi_coeffs(EXP, 12)
    v[:] = 7.0
    assert phi_coeffs(EXP, 12)[4] == 1.0 / 24.0 and core._table(EXP)[2][4] == 1.0 / 24.0


def test_normalize_sets_phi0():
    for desc in ALL:
        d = desc.normalize()
        assert d.normalized
        assert phi_coeff(d, 0) == 1.0


def test_serialization_roundtrip():
    for desc in ALL:
        back = PhiDescriptor.from_dict({"family": desc.family, "params": desc.params_dict,
                                        "normalized": desc.normalized})
        assert back == desc
        assert back.params_dict == desc.params_dict
    with pytest.raises(ValueError):
        PhiDescriptor.from_dict({"family": "nope"})


def test_descriptor_param_validation():
    with pytest.raises(ValueError):
        PhiDescriptor.mittag_leffler(0.0, 1.0)
    with pytest.raises(ValueError):
        PhiDescriptor.dunkl(-1.0)
    with pytest.raises(ValueError):
        PhiDescriptor.gamma_deriv(0)
    PhiDescriptor.gamma_deriv(170)
    with pytest.raises(ValueError):
        PhiDescriptor.gamma_deriv(171)  # n! overflows


FLOAT_PARAMS = {"mittag_leffler": {"rho": 2.0, "mu": 1.0},
                "stretched_gamma": {"a": 1.0, "b": 2.0},
                "dunkl": {"kappa": 0.5}}


@pytest.mark.parametrize("bad", [True, False, "0.5", math.nan, math.inf, -math.inf, None])
@pytest.mark.parametrize("family, name", [(f, n) for f, ps in FLOAT_PARAMS.items() for n in ps])
def test_float_params_must_be_finite_numbers(family, name, bad):
    params = dict(FLOAT_PARAMS[family], **{name: bad})
    with pytest.raises(ValueError, match=f"{family} requires a finite number {name} > 0"):
        PhiDescriptor.from_dict({"family": family, "params": params})
    # integers and numpy floats are numbers, and build the same descriptor
    params[name] = np.float64(FLOAT_PARAMS[family][name])
    assert PhiDescriptor.from_dict({"family": family, "params": params}) == \
        PhiDescriptor.from_dict({"family": family, "params": FLOAT_PARAMS[family]})


def test_negative_index_raises():
    # a negative kmax is no slice end: the result would depend on how far
    # the table has grown
    signs_logs(EXP, 20)
    for fn in (signs_logs, phi_coeffs, phi_coeff):
        for kmax in (-1, -3, -30):
            with pytest.raises(ValueError, match="kmax must be >= 0"):
                fn(EXP, kmax)
    assert [a.size for a in signs_logs(EXP, 0)] == [1, 1]


def test_series_container():
    f = TruncatedSeries([1.0, 2.0, 3.0])
    assert f.degree_cap == 2
    assert f.pad_to(4).degree_cap == 4
    assert f.pad_to(1) is f
    assert f(2.0) == 1.0 + 4.0 + 12.0
    with pytest.raises(AttributeError):
        f.coeffs = np.zeros(3)
    with pytest.raises(ValueError):
        TruncatedSeries(np.zeros((2, 2)))


def test_gl_derivative_examples():
    out = gl_derivative(EXP, TruncatedSeries([0.0, 0.0, 1.0]))
    assert np.allclose(out.coeffs, [0.0, 2.0], rtol=0, atol=1e-15)
    assert np.array_equal(gl_derivative(DK, TruncatedSeries([3.5])).coeffs, [0.0])
    out = gl_derivative(BS, TruncatedSeries([1.0, 2.0, 3.0]))
    assert np.array_equal(out.coeffs, [2.0, 3.0])


def test_gl_derivative_linearity_exact():
    rng = np.random.default_rng(1)
    for desc in ALL:
        f = TruncatedSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        g = TruncatedSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        a, b = 1.25 - 0.5j, -0.75 + 2.0j
        comb = TruncatedSeries(a * f.coeffs + b * g.coeffs)
        lhs = gl_derivative(desc, comb).coeffs
        rhs = a * gl_derivative(desc, f).coeffs + b * gl_derivative(desc, g).coeffs
        # one shared ratio multiply per slot: equal up to the last ulp of the
        # distributive rearrangement
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))


def test_phi_is_eigenfunction():
    # D applied to the degree-N truncation of phi is the degree-(N-1) truncation
    N = 24
    for desc in ENTIRE + [BS]:
        f = TruncatedSeries(phi_coeffs(desc, N))
        out = gl_derivative(desc, f)
        want = phi_coeffs(desc, N - 1)
        assert np.allclose(out.coeffs, want, rtol=1e-14, atol=1e-300)


# gl_derivative against derivatives defined outside the coefficient table.
# Each tolerance is a rounding bound in units of u = 2^-53, times a majorant
# M, the sum of the moduli of the terms:
#   - a complex Horner pass of degree n is within 4n u of its majorant (one
#     complex multiply and one add per step);
#   - each ratio phi_(k-1)/phi_k = exp(l_(k-1) - l_k) is within ratio_rounding
#     of itself (relative).
U = 2.0**-53


def ratio_rounding(G):
    """Relative rounding bound of gl_derivative's ratios, G[k] the sum of
    |v| + 1 over the lgamma values v that l_k adds: each v is within
    2u (|v| + 1) (special.gammaln, cephes lgam), their sum adds 2u G[k], and
    l_(k-1) - l_k, its exp and the product with f_k add 3u, where
    |l_(k-1) - l_k| <= G[k-1] + G[k]."""
    return (5 * max(G[k - 1] + G[k] for k in range(1, len(G))) + 3) * U


def lgamma_share(t, exact):
    """G's share of v = lgamma(t), t the double argument and exact the
    argument it stands for: |v| + 1, plus t |psi(t)| where t != exact.  The
    roundings of t's terms and of their sum put t within 2u t of exact,
    which moves v by 2u t |psi(t)| at most."""
    moved = 0.0 if Fraction(t) == exact else t * abs(float(mp.digamma(t)))
    return abs(math.lgamma(t)) + 1 + moved


def dunkl_lgammas(kappa, k):
    """The lgamma arguments of the Dunkl l_k (core._raw_signs_logs)."""
    m = (k + 1) // 2
    return [0.5 + m, 0.5, k + 1.0, kappa + 0.5 + m, kappa + 0.5]


@pytest.mark.parametrize("kappa", [0.5, 100.0, 1e3])
def test_dunkl_logs_match_mpmath(kappa):
    # l_k sums five gammaln values v (dunkl_lgammas), each within
    # 2u (|v| + 1), and its four sums and differences round within u of
    # partial sums below G[k] = sum (|v| + 1): |l_k - log phi_k| <= 6u G[k],
    # the 40-digit oracle taken as exact
    _, logs = signs_logs(PhiDescriptor.dunkl(kappa), 160)
    with mp.workdps(40):
        want = np.array([float(mp.log(c)) for c in _phis("dunkl", {"kappa": kappa}, 160)])
    G = np.array([sum(abs(math.lgamma(v)) + 1 for v in dunkl_lgammas(kappa, k))
                  for k in range(161)])
    assert np.all(np.abs(logs - want) <= 6 * U * G)


@pytest.mark.parametrize("kappa", [1001.0, 1e306])
def test_dunkl_refuses_a_large_kappa(kappa):
    # past 1e3 the cancellation in gammaln(kappa + 1/2 + m) - gammaln(kappa + 1/2)
    # grows: log phi_k is 3.3e-7 off at kappa = 1e8 and nan at 1e306
    with pytest.raises(ValueError, match=f"^dunkl requires kappa <= 1e3, got {re.escape(repr(kappa))}$"):
        PhiDescriptor.dunkl(kappa)


@pytest.mark.parametrize("kappa", [0.5, 1.3, 2.0])
def test_gl_derivative_is_the_dunkl_operator(kappa):
    # Dunkl, Trans. Amer. Math. Soc. 311 (1989): D is
    # T f(x) = f'(x) + kappa (f(x) - f(-x)) / x, with f' from numpy.  Four
    # Horner passes of degree <= n = 11 (Df, f', f(x), f(-x)), the last two
    # scaled by kappa / |x|, each within 4n u of at most M = sum |f_k|
    # (k + 2 kappa) |x|^(k-1); 4u more for f', the difference, the quotient
    # and the sum
    desc = PhiDescriptor.dunkl(kappa)
    G = [sum(abs(math.lgamma(v)) + 1 for v in dunkl_lgammas(kappa, k)) for k in range(12)]
    P = np.polynomial.polynomial
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(rng.integers(2, 13))
        c = c + 1j * rng.standard_normal(c.size)
        x = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        f = TruncatedSeries(c)
        got = gl_derivative(desc, f)(x)
        want = P.polyval(x, P.polyder(c)) + kappa * (P.polyval(x, c) - P.polyval(-x, c)) / x
        k = np.arange(c.size)
        M = (np.abs(c)[:, None] * (k + 2 * kappa)[:, None]
             * np.abs(x)[None, :] ** (k - 1.0)[:, None]).sum(axis=0)
        n = c.size - 1
        tol = (12 * n + 4) * U + ratio_rounding(G[:n + 1])
        worst = max(worst, float(np.max(np.abs(got - want) / (tol * M))))
    assert worst <= 1.0


def test_gl_derivative_is_the_backward_shift():
    # phi_k = 1, so each ratio is exp(0) = 1 exactly and D is
    # (f(z) - f(0)) / z: two Horner passes (Df, f(z) / z), each within 4n u
    # of M = sum_k |f_k| |z|^(k-1), and 4u for the difference and quotient
    rng = np.random.default_rng(16)
    for _ in range(20):
        c = rng.standard_normal(rng.integers(2, 13))
        c = c + 1j * rng.standard_normal(c.size)
        z = np.sqrt(rng.uniform(0.0, 1.0, 8)) * np.exp(2j * np.pi * rng.uniform(size=8))
        f = TruncatedSeries(c)
        got = gl_derivative(BS, f)(z)
        want = (f(z) - c[0]) / z
        k = np.arange(c.size)
        M = (np.abs(c)[:, None] * np.abs(z)[None, :] ** (k - 1.0)[:, None]).sum(axis=0)
        assert np.all(np.abs(got - want) <= (8 * (c.size - 1) + 4) * U * M)


# a degree-6 real f and the points t of the Riemann-Liouville checks
RL_COEFFS = tuple(np.random.default_rng(17).standard_normal(7).tolist())
RL_POINTS = (0.4, 0.9)


@functools.lru_cache(maxsize=None)
def ml_rl_oracle(rho, t):
    """D^(1/rho) (T (f - f(0)))(t) at 30 digits for f of RL_COEFFS, with
    (T f)(t) = f(t^(1/rho)), the mu = 1 map."""
    c = [mp.mpf(a) for a in RL_COEFFS]
    return riemann_liouville(lambda s: sum(c[k] * s ** (mp.mpf(k) / rho) for k in range(1, len(c))),
                             t, 1.0 / rho)


def ml_rl_error(desc, rho, t):
    """(|T(Df)(t) - oracle|, its tolerance), Df = gl_derivative(desc, f):
    one Horner pass of degree n - 1 in z = t^(1/rho), within 4n u of
    M = sum |(Df)_k| z^k; z's rounding (u) moves z^k by k u <= n u; 4u for
    the last roundings; the oracle, at 30 digits, taken as exact."""
    f = TruncatedSeries(RL_COEFFS)
    Df = gl_derivative(desc, f)
    z = t ** (1.0 / rho)
    got = Df(z).real
    M = float(np.sum(np.abs(Df.coeffs) * z ** np.arange(Df.coeffs.size)))
    n = f.degree_cap
    mu, rho = desc.params_dict["mu"], desc.params_dict["rho"]
    G = [lgamma_share(mu + k / rho, Fraction(mu) + Fraction(k) / Fraction(rho))
         for k in range(n + 1)]
    return abs(got - ml_rl_oracle(rho, t)), ((5 * n + 4) * U + ratio_rounding(G)) * M


@pytest.mark.parametrize("rho", [2.0, 1.5, 0.5])
def test_gl_derivative_is_a_riemann_liouville_derivative(rho):
    # Kiryakova, Generalized Fractional Calculus and Applications (1994):
    # for ML(rho, mu), phi_k = 1 / Gamma(mu + k / rho), and
    # (T f)(t) = t^(mu - 1) f(t^(1/rho)), T(Df) = D^(1/rho)_RL T(f - f(0));
    # here mu = 1
    for t in RL_POINTS:
        err, tol = ml_rl_error(PhiDescriptor.mittag_leffler(rho, 1.0), rho, t)
        assert err <= tol


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.7, 1.5), (2.0, 3.0)])
def test_gl_derivative_of_stretched_gamma_is_a_scaled_mittag_leffler(a, b):
    # phi_k = b a^((k+1)/b) / Gamma((k+1)/b) is b a^((k+1)/b) times ML(b, 1/b)'s
    # phi_k, so D of SG(a, b) is a^(-1/b) times D of ML(b, 1/b), coefficient
    # by coefficient.  SG's l_k adds log b, t log a (within 3u |t log a|, so
    # counted twice) and -lgamma(t), t = (k+1)/b; ML's l_k is -lgamma(t) at
    # 1/b + k/b.  Each side is within ratio_rounding of the exact value, and
    # a^(-1/b) and the product with it add (3 + |log a| / b) u
    sg = PhiDescriptor.stretched_gamma(a, b)
    ml = PhiDescriptor.mittag_leffler(b, 1.0 / b)
    t = [Fraction(k + 1) / Fraction(b) for k in range(13)]
    G_ml = [lgamma_share(1.0 / b + k / b, t[k]) for k in range(13)]
    G_sg = [abs(math.log(b)) + 1 + 2 * (abs((k + 1) / b * math.log(a)) + 1)
            + lgamma_share((k + 1) / b, t[k]) for k in range(13)]
    rng = np.random.default_rng(18)
    for _ in range(20):
        c = rng.standard_normal(rng.integers(2, 13))
        f = TruncatedSeries(c + 1j * rng.standard_normal(c.size))
        got = gl_derivative(sg, f).coeffs
        want = a ** (-1.0 / b) * gl_derivative(ml, f).coeffs
        n = c.size - 1
        tol = ratio_rounding(G_sg[:n + 1]) + ratio_rounding(G_ml[:n + 1]) \
            + (3 + abs(math.log(a)) / b) * U
        assert np.all(np.abs(got - want) <= tol * np.abs(want))


def test_riemann_liouville_check_refuses_another_mu():
    # control: ML(2, 1.2)'s D is not D^(1/2)_RL under the mu = 1 map, and the
    # check sees it by far more than its tolerance
    for t in RL_POINTS:
        err, tol = ml_rl_error(PhiDescriptor.mittag_leffler(2.0, 1.2), 2.0, t)
        assert err > 1e6 * tol


def test_small_truncations_refused():
    with pytest.raises(ValueError, match="N must be >= 0"):
        phi_eval(EXP, 0.5, -1)
    with pytest.raises(ValueError, match="K too small for a stable fit"):
        order_degree_check(EXP, K=15)


def test_multiply_z():
    assert np.array_equal(multiply_z(TruncatedSeries([1.0])).coeffs, [0.0, 1.0])
    out = multiply_z(TruncatedSeries([2.0, 3.0]))
    assert np.array_equal(out.coeffs, [0.0, 2.0, 3.0])
    assert np.array_equal(multiply_z(TruncatedSeries([0.0])).coeffs, [0.0, 0.0])


def test_phi_eval_values():
    assert abs(phi_eval(EXP, 1.0, 60) - math.e) <= 1e-14 * math.e
    assert abs(phi_eval(BS, 0.5, 60) - 2.0) <= 1e-14
    # sum_k 1/Gamma(1 + k/2) = e^(z^2) erfc(-z) at z = 1
    want = float(mp.e * mp.erfc(-1))
    assert abs(phi_eval(ML21, 1.0, 200) - want) <= 1e-12
    # kappa = 1 telescopes to cosh at z = 1 (independent hand identity)
    assert abs(phi_eval(PhiDescriptor.dunkl(1.0), 1.0, 80) - math.cosh(1.0)) <= 1e-13


def test_phi_eval_diagnostic_and_divergence():
    val = phi_eval(EXP, 2.0, 30)
    assert abs(val - math.exp(2.0)) <= 1e-10
    with pytest.raises(DivergenceError):
        phi_eval(BS, 1.0, 30)
    with pytest.raises(DivergenceError):
        phi_eval(BS, -1.5 + 0.2j, 30)


def test_phi_eval_vector_and_zero():
    z = np.array([0.0, 1.0, 1j])
    v = phi_eval(EXP, z, 60)
    assert abs(v[0] - 1.0) == 0.0
    assert abs(v[1] - math.e) <= 1e-14 * math.e
    assert abs(v[2] - np.exp(1j)) <= 1e-14


HORNER_FAMILIES = {
    "EXP": EXP,
    "ML(2,1)": ML21,
    "ML(0.5,1)": PhiDescriptor.mittag_leffler(0.5, 1.0),
    "SG(1,2)": SG,
    "GD(1)": GD1,
    "GD(3)": PhiDescriptor.gamma_deriv(3),
    "Dunkl(1)": PhiDescriptor.dunkl(1.0),
}


@pytest.mark.parametrize("N", [10, 80])
@pytest.mark.parametrize("name", sorted(HORNER_FAMILIES))
def test_phi_eval_within_summation_bound(name, N):
    # against 40-digit sums of the same double coefficients, so the test
    # judges the summation alone: Horner's error is at most
    # gamma_2N sum |phi_k| |z|^k (Higham 2002, section 5.1); (N + 1) eps of
    # that sum is the bound checked, on 16 points of each ring
    desc = HORNER_FAMILIES[name]
    c = phi_coeffs(desc, N)
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    z = np.concatenate([r * ring for r in (0.5, 2.5, 5.0, 20.0)])
    got = phi_eval(desc, z, N)
    for zi, gi in zip(z, got):
        want, size = power_sum(c, zi)
        assert abs(gi - want) <= (N + 1) * np.finfo(float).eps * size


def test_order_degree_exponential():
    rep = order_degree_check(EXP, 200)
    assert abs(rep.rho_hat - 1.0) <= 0.05
    assert abs(rep.sigma_hat - 1.0) <= 0.05


def test_order_degree_other_families():
    rep = order_degree_check(ML21, 400)
    assert abs(rep.rho_hat - 2.0) <= 0.2
    rep = order_degree_check(PhiDescriptor.stretched_gamma(1.0, 1.0), 200)
    assert abs(rep.rho_hat - 1.0) <= 0.05
    with pytest.raises(NonEntireError):
        order_degree_check(BS, 200)


def test_coefficient_ratio_radius_trend():
    # |phi_{k-1}/phi_k|^{1/k} -> 1 for entire families (10% band on [50, 200])
    for desc in ENTIRE:
        _, ph_l = signs_logs(desc, 200)
        k = np.arange(50, 201)
        ratio = np.exp((ph_l[k - 1] - ph_l[k]) / k)
        assert ratio[-1] > 0.9 * ratio[0] or ratio[-1] < 1.1 * ratio[0]
        # trend target: the last window value sits within 10% of 1 after
        # rescaling by the mean drift (the limit is approached slowly)
        drift = np.diff(np.log(ratio)).mean()
        assert abs(drift) < 0.05


def test_gamma_deriv_family_signed_phi0():
    v = phi_coeff(GD1, 0)
    assert v < 0  # 1/Gamma'(1) = -1/euler_gamma
    assert abs(v + 1.0 / 0.5772156649015329) <= 1e-10


def test_signs_logs_computes_each_row_once(monkeypatch, tmp_path, capsys):
    # a cold gamma-derivative phi-info asks for tables of 1..10 rows, then
    # longer ones, raw and normalized: every x = k + 1 is computed once
    xs = []
    real = core.log_gamma_deriv

    def spy(n, x):
        xs.extend(np.atleast_1d(x).tolist())
        return real(n, x)

    monkeypatch.setattr(core, "log_gamma_deriv", spy)
    core._table.cache_clear()
    cfg = tmp_path / "gd3.json"
    cfg.write_text(json.dumps({"phi": {"family": "gamma_deriv", "params": {"n": 3}}}))
    assert cli.main(["phi-info", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert len(xs) == len(set(xs)) == 161
