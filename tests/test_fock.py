import contextlib

import numpy as np
import pytest

from glfock.bargmann import sqrt_phi
from glfock.core import PhiDescriptor, TruncatedSeries, phi_coeffs
from glfock.errors import UnverifiedWeightError
from glfock.fock import (WeightKernel, carleman_partial, duality_check,
                         inner_product_fock, inner_product_l2phi, moment,
                         moment_check, registered_weight, reproduce,
                         verified_weight)

EXP = PhiDescriptor.exponential()
ML21 = PhiDescriptor.mittag_leffler(2, 1)
GD1 = PhiDescriptor.gamma_deriv(1)
DK = PhiDescriptor.dunkl(0.5)
BS = PhiDescriptor.backward_shift()


def unit_series(desc, rng, deg):
    """Random combination of the unit vectors sqrt(phi_k) z^k.

    Keeps both sides of every pairing O(1); raw monomial draws would let
    1/phi_k amplify rounding by k! and measure conditioning, not algebra.
    """
    from glfock.core import signs_logs
    _, l = signs_logs(desc, deg)
    a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return TruncatedSeries(a * np.exp(0.5 * l[: deg + 1]))


def test_moment_exponential():
    wk = registered_weight(EXP)
    assert abs(moment(wk, 4) - 24.0) <= 1e-10
    assert abs(moment(wk, 0) - 1.0) <= 1e-12


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
    wrong = WeightKernel(EXP, "stretched_exp", (("a", 2.0), ("b", 1.0)))
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
    "ML(2,1)": (PhiDescriptor.mittag_leffler(2, 1), lambda mp, n: mp.gamma(1 + mp.mpf(n) / 2)),
    "ML(0.5,1.5)": (PhiDescriptor.mittag_leffler(0.5, 1.5), lambda mp, n: mp.gamma(1.5 + 2 * n)),
    # W ~ x^(rho mu - 1) at 0: the nodes must reach far enough left for x^0.25 and x^0.1
    "ML(0.5,0.5)": (PhiDescriptor.mittag_leffler(0.5, 0.5),
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


def test_carleman_partial():
    assert carleman_partial(EXP, 1) == 1.0
    assert carleman_partial(BS, 50) == 50.0
    a, b, c = (carleman_partial(EXP, n) for n in (10, 50, 100))
    assert a < b < c  # divergence trend


def test_inner_product_l2phi_values():
    z2 = TruncatedSeries([0, 0, 1.0])
    assert inner_product_l2phi(EXP, z2, z2) == 2.0
    zero = TruncatedSeries([0.0])
    f = TruncatedSeries([1.0, 2.0, 3.0])
    assert inner_product_l2phi(DK, f, zero) == 0.0
    z1 = TruncatedSeries([0, 1.0])
    # 1/phi_1 = 2 for kappa = 1/2 (Pochhammer oracle)
    assert abs(inner_product_l2phi(DK, z1, z1) - 2.0) <= 1e-14


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
    wk_ml = verified_weight(ML21, n_max=8, tol=1e-6)
    z1 = TruncatedSeries([0, 1.0])
    assert abs(inner_product_fock(wk_ml, z1, z1) - 0.886226925452758) <= 1e-7


def test_relation_identity_monomials():
    # planar pairing == coefficient pairing on monomial pairs k, n <= 12
    pairs = [(EXP, verified_weight(EXP)),
             (ML21, verified_weight(ML21, n_max=8, tol=1e-6)),
             (PhiDescriptor.stretched_gamma(1.0, 2.0),
              verified_weight(PhiDescriptor.stretched_gamma(1.0, 2.0), n_max=8))]
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
    wk_ml = verified_weight(ML21, n_max=8, tol=1e-6)
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
    wk_ml = verified_weight(ML21, n_max=8, tol=1e-6)
    z1 = TruncatedSeries([0.0, 1.0])
    assert abs(reproduce(ML21, wk_ml, z1, 1.0) - 1.0) <= 1e-6


def test_reproduce_random_polys():
    rng = np.random.default_rng(5)
    for desc in (EXP, ML21):
        wk = verified_weight(desc, n_max=8, tol=1e-6)
        for _ in range(5):
            deg = int(rng.integers(0, 11))
            f = unit_series(desc, rng, deg)
            z = complex(*rng.uniform(-1.5 / 1.5, 1.5 / 1.5, 2)) * 1.5
            assert abs(reproduce(desc, wk, f, z) - f(z)) <= 1e-6


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
