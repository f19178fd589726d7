import hashlib
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glfock import weierstrass
from glfock.core import PhiDescriptor, phi_coeffs, signs_logs
from glfock.errors import ConvergenceError
from glfock.fock import registered_weight, verified_weight
from glfock.weierstrass import (LatticeSpec, PerturbedLattice, _phi_table, _window_series,
                                log_g_fn,
                                omega, omega_bound, psi_pair, radius_bounds, sigma_fn,
                                sigma_lower_diag, two_sided_diag,
                                weierstrass_factor, winding_zero_count)
from mp_oracles import (factor_series, far_log_tail, lattice_g, lattice_tail_sums,
                        log_abs_cut_product, log_abs_pair_product, log_factor, log_factor_series,
                        log_factor_taylor, omega_deviation_on_circle, phi_column_series,
                        sigma_lattice, sigma_product, sigma_square)

EXPN = PhiDescriptor.exponential(normalized=True)
# normalized ML(1, 1) has EXP's phi_k = 1/k!, but its factors take the
# Horner near field and the recurrence table that no closed form replaces
ML11N = PhiDescriptor.mittag_leffler(1, 1, normalized=True)
ML21N = PhiDescriptor.mittag_leffler(2, 1, normalized=True)
SGN = PhiDescriptor.stretched_gamma(1.0, 2.0, normalized=True)
GD1N = PhiDescriptor.gamma_deriv(1, normalized=True)
DKN = PhiDescriptor.dunkl(0.5, normalized=True)
BSN = PhiDescriptor.backward_shift(normalized=True)

FAMILIES = [EXPN, ML21N, SGN, GD1N, DKN, BSN]

# (descriptor, family, params) for the mpmath oracles
ORACLE_FAMILIES = {
    "EXP": (EXPN, "exponential", {}),
    "ML(2,1)": (ML21N, "mittag_leffler", {"rho": 2.0, "mu": 1.0}),
    "GD(1)": (GD1N, "gamma_deriv", {"n": 1}),
}


def disk_grid(n=21, r=1.0):
    xs = np.linspace(-r, r, n)
    zz = (xs[:, None] + 1j * xs[None, :]).ravel()
    return zz[np.abs(zz) <= r]


# ---------------------------------------------------------------------------
# psi pair, E, Omega
# ---------------------------------------------------------------------------

def test_psi_pair_values():
    ps = psi_pair(EXPN)
    assert ps.psi1 == 1.0 and ps.psi2 == 0.5
    ps = psi_pair(BSN)
    assert ps.psi1 == 1.0 and ps.psi2 == 0.0
    ps = psi_pair(ML21N)
    # Gamma-ratio closed forms
    assert abs(ps.psi1 - 0.886226925452758) <= 1e-14
    assert abs(ps.psi2 - 0.19018592584879454) <= 1e-14


_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.builds(PhiDescriptor.mittag_leffler, _SCALE, _SCALE),
                 st.builds(PhiDescriptor.stretched_gamma, _SCALE, _SCALE),
                 st.builds(PhiDescriptor.dunkl, st.floats(1e-300, 1e3)),
                 st.builds(PhiDescriptor.gamma_deriv, st.integers(1, 170))),
       st.booleans())
def test_psi_pair_cancels_degrees_1_and_2(desc, normalized):
    # E = (1 - z) phi(psi1 z + psi2 z^2) has e1 = p1 psi1 - 1 and
    # e2 = p1 psi2 + p2 psi1^2 - p1 psi1, p_k the normalized phi_k: both are
    # 0 exactly, so psi_pair leaves rounding residues only
    desc = replace(desc, normalized=normalized)
    try:
        ps = psi_pair(desc)
    except OverflowError:  # phi_1 or its cube underflows to 0
        return
    with np.errstate(over="ignore"):
        s, l = signs_logs(desc.normalize(), 2)
        p1, p2 = (float(v) for v in s[1:] * np.exp(l[1:]))
    assume(math.isfinite(ps.psi1) and math.isfinite(ps.psi2) and math.isfinite(p2))
    tol = 8 * sys.float_info.epsilon * (1.0 + abs(ps.psi1) + abs(ps.psi2))
    assert abs(p1 * ps.psi1 - 1.0) <= tol
    assert abs(p1 * ps.psi2 + p2 * ps.psi1 * ps.psi1 - p1 * ps.psi1) <= tol


@pytest.mark.parametrize("raw", [PhiDescriptor.gamma_deriv(1), PhiDescriptor.exponential()],
                         ids=["GD1", "EXP"])
def test_raw_descriptor_takes_the_normalized_factor(raw):
    # GD(1) has phi_0 = -1/gamma != 1, EXP has phi_0 = 1: either way the
    # factor is the normalized family's, bit for bit
    def bits(x):  # the repr of a float round-trips, -0.0 included
        return x.tobytes() if isinstance(x, np.ndarray) else repr(x)

    norm = raw.normalize()
    z = np.array([0.3 + 0.2j, -0.5j, 1e-4 + 2e-4j])
    assert bits(omega(raw, z)) == bits(omega(norm, z))
    for fn in (psi_pair, omega_bound, radius_bounds, lambda d: weierstrass_factor(d, z),
               lambda d: sigma_fn(d, z, LatticeSpec(1.0, 4))):
        assert bits(fn(raw)) == bits(fn(norm))


def test_e_table_exponential_oracle():
    # Maclaurin of (1-z) e^{z+z^2/2}, high-precision oracle
    want = [1.0, 0.0, 0.0, -1.0 / 3.0, -0.25, -0.2, -1.0 / 9.0,
            -0.05952380952380952, -0.027083333333333334]
    got = _phi_table(EXPN, 8)[1][:9]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_e_table_degree3_vanishing_all_families():
    for desc in FAMILIES:
        c = _phi_table(desc, 6)[1][:7]
        assert abs(c[0] - 1.0) <= 1e-12
        assert abs(c[1]) <= 1e-12
        assert abs(c[2]) <= 1e-12


def test_e_table_backward_shift_is_one():
    c = _phi_table(BSN, 6)[1][:7]
    assert np.max(np.abs(c - np.array([1, 0, 0, 0, 0, 0, 0.0]))) <= 1e-15


def test_weierstrass_factor_values():
    z = 0.3 - 0.7j
    want = (1 - z) * np.exp(z + z * z / 2)
    assert abs(weierstrass_factor(EXPN, z) - want) <= 1e-14 * abs(want)
    assert weierstrass_factor(DKN, 0.0) == 1.0
    assert abs(weierstrass_factor(BSN, 0.4, N=200) - 1.0) <= 1e-15


def test_omega_values():
    assert abs(omega(EXPN, 0.0) - (-1.0 / 3.0)) <= 1e-14
    want = (0.5 * math.exp(0.625) - 1.0) / 0.125
    assert abs(omega(EXPN, 0.5) - want) <= 1e-12
    assert abs(omega(EXPN, 0.5) - (-0.5270161702711104)) <= 1e-12


def test_omega_series_branch_continuity():
    # series branch (|z| < 1e-3) meets the direct quotient; the quotient side
    # loses ~|eps/z^3| to cancellation, so only ask for 1e-5 agreement
    za = omega(EXPN, 9.99e-4)
    zb = omega(EXPN, 1.01e-3)
    assert abs(za - zb) <= 1e-5
    assert abs(za - (-1.0 / 3.0)) <= 1e-2


def test_omega_backward_shift_vanishes():
    # the two points near 0 lose all digits in (E - 1) / z^3, so only the
    # cancellation fallback to the series gives 0 there
    zz = np.concatenate([disk_grid(15, 0.7), [0.01, 0.002 + 0.003j]])
    with pytest.warns(UserWarning):  # flags the total cancellation E == 1
        vals = omega(BSN, zz, N=200)
    assert np.max(np.abs(vals)) <= 1e-12


def test_E_inequality_on_disk():
    # |1 - E(z)| <= |Omega(z)| on the closed unit disk (equality times |z|^3)
    zz = disk_grid(21, 1.0)
    for desc in (EXPN, ML21N, DKN, SGN):
        E = weierstrass_factor(desc, zz)
        Om = omega(desc, zz)
        gap = np.abs(1.0 - E) - np.abs(Om)
        assert float(gap.max()) <= 1e-10


def test_omega_bound_values():
    assert abs(omega_bound(EXPN) - 2.713378140676129) <= 1e-9
    assert abs(omega_bound(ML21N) - 6.1810246975411856) <= 1e-9
    assert omega_bound(BSN) == math.inf  # radius-1 family, non-decaying tail


# nine families, each normalized (as omega_bound needs) and not
NINE = [PhiDescriptor.exponential(), PhiDescriptor.mittag_leffler(2, 1),
        PhiDescriptor.mittag_leffler(0.5, 0.5), PhiDescriptor.stretched_gamma(1.0, 2.0),
        PhiDescriptor.gamma_deriv(1), PhiDescriptor.gamma_deriv(2), PhiDescriptor.gamma_deriv(3),
        PhiDescriptor.dunkl(0.5), PhiDescriptor.backward_shift()]
NINE_BOTH = [replace(d, normalized=norm) for d in NINE for norm in (False, True)]


def _id(d):
    return "-".join([d.family, *(f"{v:g}" for _, v in d.params), "norm" if d.normalized else "raw"])


@pytest.mark.parametrize("desc", NINE_BOTH, ids=_id)
def test_signs_logs_prefix_consistent(desc):
    # omega_bound reads prefixes of the table and relies on this
    s, l = signs_logs(desc, 20000)
    for k in (0, 1, 3, 10, 63, 64, 127, 128, 1000, 4096, 16384, 19999):
        sk, lk = signs_logs(desc, k)
        assert np.array_equal(sk, s[:k + 1]) and np.array_equal(lk, l[:k + 1]), k
        assert not sk.flags.writeable and not lk.flags.writeable
    if desc.normalized:
        # derived from the raw table
        rs, rl = signs_logs(replace(desc, normalized=False), 20000)
        assert np.array_equal(s, rs * rs[0]) and np.array_equal(l, rl - rl[0])


def _omega_bound_full_table(desc):
    """omega_bound as one loop over the whole 20,001-term table."""
    d = desc.normalize()
    p1, p2 = phi_coeffs(d, 2)[1:]
    ps = psi_pair(desc)
    R = abs(ps.psi1) + abs(ps.psi2)
    c3 = abs(p1 * ps.psi2 - 2.0 * p2 * ps.psi1 * ps.psi2 + p2 * ps.psi1**2)
    c4 = abs(p2 * ps.psi2**2 - 2.0 * p2 * ps.psi1 * ps.psi2)
    c5 = abs(p2 * ps.psi2**2)
    _, l = signs_logs(d, 20000)
    logR = math.log(R) if R > 0 else -math.inf
    tail, prev = 0.0, math.inf
    for n in range(3, 20001):
        t = math.exp(l[n] + n * logR)
        tail += t
        if t < 1e-16 * (1.0 + tail):
            return c3 + c4 + c5 + 2.0 * tail
        if n > 64 and t >= prev * 0.999999:
            return math.inf
        prev = t
    return math.inf


@pytest.mark.parametrize("desc", [d for d in NINE_BOTH if d.normalized], ids=_id)
def test_omega_bound_matches_full_table(desc, monkeypatch):
    want = _omega_bound_full_table(desc)
    requests = []

    def recording(d, kmax):
        requests.append(kmax)
        return signs_logs(d, kmax)

    monkeypatch.setattr(weierstrass, "signs_logs", recording)
    assert omega_bound(desc) == want
    if desc.family == "backward_shift":
        assert want == math.inf
    else:
        # the tail converges within tens of terms: no 20,001-term table
        assert math.isfinite(want)
    assert max(requests) <= 128


def test_omega_bound_dominates_sup():
    zz = disk_grid(41, 1.0)
    for desc in (EXPN, ML21N, DKN, SGN):
        sup = float(np.max(np.abs(omega(desc, zz))))
        assert sup <= omega_bound(desc) * (1 + 1e-12)


def test_radius_bounds():
    rb = radius_bounds(EXPN)
    assert rb.r_lower == 1.5
    assert rb.upper_flag == "unbounded-trend"
    rb = radius_bounds(BSN)
    assert rb.r_lower == 1.0 and rb.r_upper == 1.0 and rb.upper_flag == "finite"
    rb = radius_bounds(ML21N)
    assert abs(rb.r_lower - 1.0764128513015525) <= 1e-12
    for desc in (EXPN, ML21N, SGN, GD1N, DKN):
        rb = radius_bounds(desc)
        assert rb.r_lower < rb.r_upper


def test_radius_bounds_refuses_a_short_window():
    with pytest.raises(ValueError, match="^N too small$"):
        radius_bounds(EXPN, N=15)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def test_lattice_spec_basics():
    lat = LatticeSpec(1.0, 3)
    assert lat.points().size == 49
    assert np.min(np.abs(lat.points() - (1 + 2j))) == 0.0
    assert lat.dist(0.3 + 0.4j) == pytest.approx(0.5, abs=1e-15)
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            LatticeSpec(lam, 3)
    # a fractional window would put nodes at half-integers (-2.5 - 2.5i, ...)
    for M in (0, -2, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            LatticeSpec(1.0, M)
    assert LatticeSpec(1.0, np.int64(1)).points().size == 9


def test_lattice_dist_is_to_the_infinite_lattice():
    # sigma vanishes on every node, so dist does not clip to the window
    assert LatticeSpec(1.0, 2).dist(3.4 + 0j) == pytest.approx(0.4, abs=1e-15)
    assert LatticeSpec(0.5, 1).dist(-2.1 + 3.05j) == pytest.approx(math.hypot(0.1, 0.05), abs=1e-15)


def test_perturbed_lattice_construction():
    lat = LatticeSpec(1.0, 4)
    pl = PerturbedLattice(lat)
    assert pl.q == pytest.approx(1.0, rel=1e-12)
    assert pl.z00 == 0.0
    assert pl.point(2, -1) == 2.0 - 1.0j
    with pytest.raises(KeyError):
        pl.point(9, 9)
    window = range(-4, 5)
    assert all(pl.point(m, n) == lat.lam * (m + 1j * n) for m in window for n in window)
    for m, n in ((5, 0), (0, -5), (-5, 4)):
        with pytest.raises(KeyError):
            pl.point(m, n)
    off = np.zeros_like(lat.points())
    off[40] = 0.3
    with pytest.raises(ValueError):
        PerturbedLattice(lat, off, Q=0.1)  # offset exceeds Q
    with pytest.raises(ValueError):
        PerturbedLattice(lat, off[:-1], Q=0.5)  # one offset short of the window
    for bad in (math.nan, complex(0.0, math.inf)):
        off[40] = bad  # |nan| > Q is False: refused by name, not as a collision
        with pytest.raises(ValueError, match="offsets must be finite"):
            PerturbedLattice(lat, off, Q=0.5)
    for Q in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="Q must be"):
            PerturbedLattice.perturb(lat, Q, seed=1)


def test_perturbed_lattice_seeded():
    pl = PerturbedLattice.perturb(LatticeSpec(1.0, 8), 0.1, seed=42)
    assert abs(pl.q - 0.8307880098136518) <= 1e-12
    assert np.all(np.abs(pl.pts - pl.base) <= 0.1)
    again = PerturbedLattice.perturb(LatticeSpec(1.0, 8), 0.1, seed=42)
    assert np.array_equal(pl.pts, again.pts)


def test_perturbed_dist():
    pl = PerturbedLattice(LatticeSpec(1.0, 4))
    d = pl.dist(np.array([0.5 + 0.0j, 0.5 + 0.5j]))
    assert d[0] == pytest.approx(0.5, abs=1e-15)       # edge midpoint: lam/2
    assert d[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)


def all_pairs_nearest(pts, z, skip_self=False):
    """The oracle: min over every node of |z - node|, self left out."""
    d = np.abs(z[:, None] - pts[None, :])
    if skip_self:
        np.fill_diagonal(d, math.inf)
    return d.min(axis=1)


@pytest.mark.parametrize("M", [1, 2, 5, 12, 20])
@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.49, 0.7, 1.5, 4.0])
def test_nearest_equals_all_pairs(M, ratio):
    # q and dist are the all-pairs minima to the bit: points inside the
    # window, at its edge, far outside (along an edge and off a corner),
    # on nodes and bases, not finite, and past the double range of z / lam
    rng = np.random.default_rng(M * 100 + int(10 * ratio))
    for lam in (0.37, 1.0, 2.5):
        pl = PerturbedLattice.perturb(LatticeSpec(lam, M), ratio * lam, seed=M)
        assert pl.q.hex() == float(all_pairs_nearest(pl.pts, pl.pts, True).min()).hex()
        E, n = lam * M, 60
        unit = np.exp(2j * np.pi * rng.uniform(size=n))
        z = np.concatenate([
            rng.uniform(-E, E, n) + 1j * rng.uniform(-E, E, n),
            rng.uniform(-E - lam, E + lam, n) + 1j * rng.uniform(-E - lam, E + lam, n),
            (E + lam * rng.uniform(0, 50, n)) * rng.choice([-1, 1, 1j, -1j], n)
            + rng.uniform(-E, E, n) * rng.choice([1, 1j], n),
            (E + 1000 * lam) * unit, (E + 1000 * lam) * (np.sign(unit.real) + 1j * np.sign(unit.imag)),
            pl.pts, pl.base,
            [complex(math.nan, 0.0), complex(0.0, math.nan), complex(-math.inf, 1.0),
             complex(math.inf, math.nan), 1e300 + 1e300j, complex(-1.7e308, 3.0)]])
        got, want = pl.dist(z), all_pairs_nearest(pl.pts, z)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_perturb_memory_is_linear_in_the_window():
    # the all-pairs pass held a 6,561 x 1,024 block, 205 MB traced at M = 40
    tracemalloc.start()
    try:
        PerturbedLattice.perturb(LatticeSpec(1.0, 40), 0.1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# The bits of two seeded lattices: q and z00 as hex, then the sha256 of pts,
# base, both arrays of nonzero() and dist on a 37 x 29 grid over the window.
# Both grids reach lam / 2 past the window's edge.
LATTICE_BITS = {
    (4, 0.1, 42): (
        "0x1.a95f63f01b997p-1", "-0x1.3e77d1db629dap-5", "-0x1.b57246f0229c1p-5",
        "381944ae6c729661a6769bd63cac1ad2663076d316c7eccff6b52c02b3c7f47e",
        "96e6c74ff133dbe6d886a24e988b908936468265a6c7f0ea83f2720a1a5952d2",
        "908f2bdf779127a7b682544c24d0bcbaaf8bf810f810ed40224dc7b5fe7a1e27",
        "1e978d3a15264daccba03692f72c327a6edcf04cdce8d1e66cbf9dc7be54a53a",
        "518963f1d8232e9c967428f29ec4a4be78c7cfe1ac60b7eebb37f429cc17e680",
    ),
    (24, 0.3, 7): (
        "0x1.ba7db6126e931p-2", "-0x1.d3e98402689abp-6", "0x1.4fb6ca97cac0cp-4",
        "d214a5ef2a24472f9af7460e3cc66743b8e12e3af2304eaff787f591fa5ce0de",
        "b5f31113a8d816b3a0767648981906f2298a0d14f0d29f7fbe7892a17ff9fc23",
        "e4a0ca801844f0ab5cfa01c88e93f2278f3ede270fa342574ddcc5cedf488ce3",
        "8a5771fd5ec8a44362ba7c19231fee61ec1e003c2869143de5444de05da2b6b7",
        "c8cf0f81ee757791c1f847e85b7ff6660f5fe5cbc0c5ad45f3b89cec370fad99",
    ),
}


@pytest.mark.parametrize("M, Q, seed", list(LATTICE_BITS), ids=["M4", "M24"])
def test_lattice_bits(M, Q, seed):
    pl = PerturbedLattice.perturb(LatticeSpec(1.0, M), Q, seed)
    xs, ys = np.linspace(-M - 0.5, M + 0.5, 37), np.linspace(-M - 0.5, M + 0.5, 29)
    grid = (xs[:, None] + 1j * ys[None, :]).ravel()
    arrays = (pl.pts, pl.base, *pl.nonzero(), pl.dist(grid))
    got = (pl.q.hex(), pl.z00.real.hex(), pl.z00.imag.hex(),
           *(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays))
    assert got == LATTICE_BITS[(M, Q, seed)]


# ---------------------------------------------------------------------------
# sigma and g products
# ---------------------------------------------------------------------------

def test_sigma_vanishes_on_lattice():
    lat = LatticeSpec(1.0, 6)
    assert sigma_fn(EXPN, 0.0, lat) == 0.0
    assert sigma_fn(EXPN, 1.0, lat) == 0.0
    assert sigma_fn(EXPN, complex(-3, 2), lat) == 0.0


def test_sigma_matches_classic_product():
    """Independent oracle: the classical Weierstrass sigma of Z + iZ in its
    theta form, on a grid over |z| <= 2 away from the nodes."""
    zs = disk_grid(17, 2.0) + (0.03 + 0.05j)
    zs = zs[(np.abs(zs) <= 2.0) & (LatticeSpec(1.0, 1).dist(zs) >= 0.05)]
    want = np.array([sigma_square(z) for z in zs])
    got = sigma_fn(EXPN, zs, LatticeSpec(1.0, 8))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_sigma_quasi_periodic(x, y):
    # DLMF 23.2 on Z + iZ (eta_1 = pi / 2): sigma(z + 1) = -e^{pi (z + 1/2)}
    # sigma(z) and sigma(z + i) = -e^{-i pi (z + i/2)} sigma(z); every value
    # is sigma_fn's, none a window product's.  Each is within about 7e-14 of
    # theta for |z| <= 2.5 (the near-field Horner rounding), so a ratio of
    # two within 2e-13
    z = complex(x, y)
    lat = LatticeSpec(1.0, 4)
    assume(abs(z) <= 1.5 and lat.dist(z) >= 0.05)
    s = sigma_fn(EXPN, z, lat)
    for step, mult in ((1.0, -np.exp(np.pi * (z + 0.5))), (1j, -np.exp(-1j * np.pi * (z + 0.5j)))):
        assert abs(sigma_fn(EXPN, z + step, lat) / (mult * s) - 1.0) <= 2e-13


def theta_rounding(z, lam):
    """A rounding bound on |log|sigma_fn| - log|sigma|| for EXP on the
    lattice lam (Z + iZ), at the points z of one call, r = 1:
      - 4 eps per near node and per unit of its |u| = |w + w^2 / 2|,
        w = z / nu (the log of its group product, and the sum of
        log phi(u) = u), over the near disk |nu| <= max|z| / rho;
      - 4 eps |z| / dist(z) for the nearest factor 1 - w;
      - 4 eps x^k / k |nu|^-k, x = |z| / lam, for k = 4 and 8 and every
        node where the far table's T_k = G_k less the excluded set differs
        from G_k less the rings max(|m|, |n|) <= 2: each such term is
        rounded to a few eps |nu|^-k, and l_k (z / lam)^k multiplies it.
    The near terms grow like x^2, the far ones like x^8."""
    z = np.atleast_1d(z)
    R2 = int((np.abs(z).max() / (lam * weierstrass._FAR_RATIO)) ** 2)
    g = np.arange(-math.isqrt(R2) - 3, math.isqrt(R2) + 4)
    nu = (np.repeat(g, g.size) + 1j * np.tile(g, g.size)).astype(complex)
    disk = nu.real**2 + nu.imag**2 <= R2
    ring = np.maximum(abs(nu.real), abs(nu.imag)) <= 2
    w = z[None, :] / (lam * nu[disk & (nu != 0), None])
    near = (1.0 + np.abs(w + w * w / 2)).sum(axis=0)
    a = np.abs(nu[disk != ring])
    x = np.abs(z) / lam
    far = sum(x**k / k * (a ** -k).sum() for k in (4, 8))
    eps = np.finfo(float).eps
    return 4 * eps * (near + np.abs(z) / LatticeSpec(lam).dist(z) + far)


# worst of six angles per radius (no point within 0.08 lam of a node), at
# lam = 1 and lam = sqrt(pi)
THETA_ANGLES = np.exp(2j * np.pi * (np.arange(6) + 0.37) / 6)
THETA_RADII = [(1.0, r) for r in (4, 5, 6, 8, 12)] + \
    [(math.sqrt(math.pi), r) for r in (4, 6, 8, 12, 16, 20)]


@pytest.mark.parametrize("lam, radius", THETA_RADII)
def test_exp_sigma_against_theta(lam, radius):
    # EXP's factor is (1 - w) e^(w + w^2/2) exactly, so sigma_fn is the
    # classical sigma of lam (Z + iZ); log|sigma| against 40-digit theta,
    # within the rounding of the sums that form it
    z = radius * THETA_ANGLES
    want = np.log(np.abs([sigma_square(complex(p), lam, 40) for p in z]))
    got = np.log(np.abs(sigma_fn(EXPN, z, LatticeSpec(lam, 12))))
    assert np.all(np.abs(got - want) <= theta_rounding(z, lam))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1.0, 12.0), (math.sqrt(math.pi), 20.0)]),
       st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))
def test_exp_sigma_against_theta_property(reach, t, theta):
    # any point of the disk |z| <= 12 at lam = 1, or |z| <= 20 at
    # lam = sqrt(pi), at least 0.05 lam from a node
    lam, top = reach
    z = complex(top * t * math.cos(theta), top * t * math.sin(theta))
    lat = LatticeSpec(lam, 4)
    assume(lat.dist(z) >= 0.05 * lam)
    want = math.log(abs(sigma_square(z, lam, 40)))
    got = math.log(abs(sigma_fn(EXPN, z, lat)))
    assert abs(got - want) <= theta_rounding(z, lam)[0]


def test_exp_sigma_past_double_range():
    # log sigma at 27.3 + 0.4i is about 1,170: exp of it overflows, and the
    # value takes the signs of cos and sin of its argument, with no nan part
    # and no warning; a finite value keeps its bits, z exp(log(sigma / z)),
    # and the origin and a node (i) give 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = np.array([0.0, 1j, 0.3 + 0.2j, 27.3 + 0.4j])
        none = np.zeros(0, complex)
        logs = weierstrass._log_product(EXPN, z, 1.0, 0, none, none, 80)
        got = sigma_fn(EXPN, z, LatticeSpec(1.0, 4))
        assert logs[1].real == -math.inf and (got[0], got[1]) == (0.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert got[2] == (z * np.exp(logs))[2]
        arg = (logs[3] + np.log(z[3])).imag
        assert logs[3].real > 1000
        assert (got[3].real, got[3].imag) == (math.copysign(math.inf, math.cos(arg)),
                                              math.copysign(math.inf, math.sin(arg)))


def test_sigma_ring_diagnostic():
    # the product runs over the whole lattice, so the window size does not
    # enter, to the bit
    zs = np.array([0.3 + 0.4j, 1.5 + 1.1j, -1.9 + 0.3j, 2.4 - 0.35j])
    for desc in (EXPN, GD1N):
        base = sigma_fn(desc, zs, LatticeSpec(1.0, 3))
        for M in (12, 48):
            assert sigma_fn(desc, zs, LatticeSpec(1.0, M)).tobytes() == base.tobytes()


def test_sigma_scale_family_reads_one_phi_or_raises():
    # normalized SG(a, 1) has phi_k u^k = (a u)^k / k! with u ~ 1/a, so sigma
    # does not depend on a and is ML(1, 1)'s; where phi_k leaves the double
    # range (a = 1e30 from k = 11) the product raises instead of reading a
    # clamped phi
    lat, z = LatticeSpec(1.0, 12), -1.9 + 0.3j
    assert sigma_fn(PhiDescriptor.stretched_gamma(1.0, 1.0, normalized=True), z, lat) \
        == sigma_fn(ML11N, z, lat)
    for a in (1e30, 1e100):
        with pytest.raises(OverflowError):
            sigma_fn(PhiDescriptor.stretched_gamma(a, 1.0, normalized=True), z, lat)
    with pytest.raises(OverflowError):
        weierstrass_factor(PhiDescriptor.stretched_gamma(1e30, 1.0, normalized=True), 2j)


def test_log_g_equals_log_sigma_unperturbed():
    # Im log g is a sum of principal arguments, defined only mod 2 pi
    lat = LatticeSpec(1.0, 6)
    gam = PerturbedLattice(lat)
    zz = np.array([0.3 + 0.4j, -0.7 + 0.1j, 1.4 - 0.6j])
    sig = sigma_fn(EXPN, zz, lat)
    lg = log_g_fn(EXPN, zz, gam)
    tol = 1e-12 * np.max(np.abs(sig)) / np.abs(sig)
    assert np.all(np.abs(lg.real - np.log(np.abs(sig))) <= tol)
    assert np.all(np.abs(np.angle(np.exp(1j * (lg.imag - np.angle(sig))))) <= tol)


def test_log_g_vanishes_on_nodes_and_pin():
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 8), 0.1, seed=42)
    assert log_g_fn(EXPN, gam.z00, gam)[0].real == -math.inf
    assert log_g_fn(EXPN, gam.point(2, 3), gam)[0].real == -math.inf
    got = log_g_fn(EXPN, 0.5, gam, N=60)[0]
    pin = np.log(0.45117993655917377 + 0.06164765891848814j)
    assert abs(got.real - pin.real) <= 1e-9 / abs(np.exp(pin))
    assert abs(np.angle(np.exp(1j * (got.imag - pin.imag)))) <= 1e-9 / abs(np.exp(pin))
    # the window's (node, denominator) pairs at 30 digits, and the rest of
    # the lattice through its 50-digit tail
    nodes, base = gam.nonzero()
    want = (log_abs_pair_product("exponential", {}, 0.5, zip(nodes, base), N=60)
            + math.log(abs(0.5 - gam.z00)) + far_log_tail("exponential", {}, 0.5, 8, N=60).real)
    assert abs(got.real - want) <= 1e-14


def test_log_g_fn_node_is_neg_inf():
    gam = PerturbedLattice(LatticeSpec(1.0, 4))
    lg = log_g_fn(EXPN, np.array([1.0 + 0.0j]), gam)
    assert lg[0].real == -math.inf


# ---------------------------------------------------------------------------
# near/far split of the lattice products
# ---------------------------------------------------------------------------

def test_log_e_coefficients_exponential_closed_form():
    # log[(1 - z) e^{z + z^2/2}] = -sum_{k>=3} z^k / k
    ell = _window_series(EXPN, 80)[1][:71]
    want = np.array([0.0, 0.0, 0.0] + [-1.0 / k for k in range(3, 71)])
    assert np.max(np.abs(ell - want)) <= 1e-16


def test_exp_closed_form_table_against_the_recurrence():
    # ML(1, 1) has EXP's phi_k = 1/k! and builds its table and radius by
    # the recurrence and the bound polynomial: the same table to 1e-16
    # absolute, and the same r, as EXP's closed form
    r, ell = _window_series(EXPN, 80)
    r1, ell1 = _window_series(ML11N, 80)
    assert r == r1 == 1.0
    assert not ell.flags.writeable and ell.shape == ell1.shape
    assert np.max(np.abs(ell - ell1)) <= 1e-16


def test_exp_log_g_against_the_horner_path():
    # log g of EXP (closed form) and of ML(1, 1) (Horner near field and the
    # recurrence's window series) on a perturbed M = 12 window, |z| <= 2.5,
    # every point at least 0.05 from a node; the imaginary parts are sums
    # of principal arguments, so the two may differ by a multiple of 2 pi
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.1, seed=5)
    z = disk_grid(15, 2.5) + (0.01 + 0.02j)
    z = z[(np.abs(z) <= 2.5) & (gam.dist(z) >= 0.05)]
    got, want = log_g_fn(EXPN, z, gam), log_g_fn(ML11N, z, gam)
    assert np.all(np.abs(np.expm1(got - want)) <= 1e-12)


@pytest.mark.parametrize("name, N", [("ML(2,1)", 80), ("GD(1)", 6)])
def test_log_e_coefficients_against_mpmath_taylor(name, N):
    # N = 6 < degree 16: the coefficients are those of the cut factor E_N
    desc, family, params = ORACLE_FAMILIES[name]
    want = np.array(log_factor_taylor(family, params, 16, N))
    got = _window_series(desc, N)[1][:17]
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


@pytest.mark.parametrize("name", ["ML(2,1)", "GD(1)"])
def test_log_e_coefficients_to_degree_170(name):
    # the far series runs to degree K ~ 171 at M = 48; each error is scaled
    # by r^k, as term k of a far node is at most |l_k| (rho r)^k
    desc, family, params = ORACLE_FAMILIES[name]
    want = np.array(log_factor_series(family, params, 170))
    r, ell = _window_series(desc, 80)
    got = ell[:171]
    assert np.max(np.abs(got - want) * r ** np.arange(171)) / math.log(2.0) <= 1e-15


def phi_table_callers(monkeypatch):
    """The name of the function behind each _phi_table build from now on."""
    callers, build = [], weierstrass._phi_table

    def spy(d, N):
        callers.append(sys._getframe(1).f_code.co_name)
        return build(d, N)

    monkeypatch.setattr(weierstrass, "_phi_table", spy)
    return callers


def test_sigma_reads_one_cached_table(monkeypatch):
    ell = _window_series(ML21N, 80)[1]
    assert not ell.flags.writeable
    assert np.array_equal(ell, _window_series.__wrapped__(ML21N, 80)[1])
    # the far radius and every far-series degree K of three windows read
    # one window table per family; EXP's closed form builds no Phi/E
    # table, ML(2, 1)'s recurrence one
    _window_series.cache_clear()
    callers = phi_table_callers(monkeypatch)
    z = np.array([0.3 + 0.2j, 1.5 + 1.1j, -1.9 + 0.3j])
    runs = [(desc, M) for desc in (EXPN, ML21N) for M in (2, 12, 24)]
    values = [sigma_fn(desc, z, LatticeSpec(1.0, M)) for desc, M in runs]
    assert _window_series.cache_info().misses == 2
    # a second pass reads the cached far-field coefficients
    assert all(np.array_equal(sigma_fn(desc, z, LatticeSpec(1.0, M)), v)
               for (desc, M), v in zip(runs, values))
    assert _window_series.cache_info().misses == 2
    assert callers == ["_window_series"]


def test_sigma_far_series_only():
    # EXP at z = 0.25i: every node is far, so no near chunk runs and the
    # value is z times the far series alone
    lat = LatticeSpec(1.0, 2)
    assert sigma_near_nodes(EXPN, lat, 0.25).size == 0
    want = sigma_square(0.25j)
    assert abs(sigma_fn(EXPN, 0.25j, lat) - want) <= 1e-15 * abs(want)


def test_sigma_raises_without_a_far_radius(monkeypatch):
    # r = 0: no disk where the log E series converges, so the infinite
    # far field cannot be summed
    monkeypatch.setattr(weierstrass, "_window_series", lambda d, N: (0.0, None))
    with pytest.raises(ConvergenceError):
        sigma_fn(EXPN, 0.5 + 0.5j, LatticeSpec(1.0, 4))
    with pytest.raises(ConvergenceError):
        log_g_fn(EXPN, 0.5 + 0.5j, PerturbedLattice(LatticeSpec(1.0, 4)))


# sigma and log g at three points, lattice Z + iZ with M = 4 (g's window
# perturbed by up to 0.1, seed 1), as computed when sigma's disk radius came
# from a table of E_N alone: SG(1000, 1/2) at N = 160, and Dunkl(100) at
# N = 6, whose disk bound holds only at r = 0.0215.  Both windows are all
# near.
TABLE_EDGE_Z = np.array([0.3 + 0.2j, 0.7 - 0.4j, -0.5 + 0.45j])
TABLE_EDGES = {
    "SG(1000, 1/2)": (PhiDescriptor.stretched_gamma(1000, 0.5), 160, TABLE_EDGE_Z,
                      [0.3041670830833778 + 0.199167834074249j,
                       0.9036561941227825 - 0.3126082203560226j,
                       -0.5768018694022085 + 0.49590909839193753j],
                      [-0.994531171949771 + 0.8042032108108732j,
                       -0.016356584942029018 - 0.3327102746592114j,
                       -0.10679100199308553 + 2.3975480374658678j]),
    "Dunkl(100)": (PhiDescriptor.dunkl(100), 6, np.array([0.05 + 0.03j, -0.08 + 0.02j]),
                   [130485241987.42674 + 79361684161.635j,
                    -1.3808114257276275e+30 - 5.036476307909032e+29j],
                   [1797.9536953720972 + 2.8650128357659037j,
                    9153.009537638205 - 23.83443789229555j,
                    6354.1684146126045 - 42.33051583302334j]),
}


@pytest.mark.parametrize("name", sorted(TABLE_EDGES))
def test_sigma_and_g_at_table_edges(name):
    desc, N, zs, sigma, logg = TABLE_EDGES[name]
    assert _window_series(desc.normalize(), N)[0] > 0.0
    lat = LatticeSpec(1.0, 4)
    got = sigma_fn(desc, zs, lat, N)
    assert np.all(np.abs(got - sigma) <= 1e-13 * np.abs(sigma))
    gam = PerturbedLattice.perturb(lat, 0.1, seed=1)
    got, logg = log_g_fn(desc, TABLE_EDGE_Z, gam, N), np.array(logg)
    # Im log g is a sum of principal arguments, defined only mod 2 pi
    # (_near_logs): other SIMD kernels may move it by a multiple of 2 pi
    tol = 1e-13 * np.abs(logg)
    assert np.all(np.abs(got.real - logg.real) <= tol)
    assert np.all(np.abs(np.angle(np.exp(1j * (got.imag - logg.imag)))) <= tol)


def test_sigma_far_table_size_is_capped():
    # max|z| / (lam r) = 100.5 (above about 63): the direct sums of the
    # far-field table would take about 1e8 nodes
    with pytest.raises(ConvergenceError, match="direct sums"):
        sigma_fn(EXPN, 100.5 + 0j, LatticeSpec(1.0, 3))


@pytest.mark.parametrize("M", [0, 12])
def test_lattice_tail_degree_within_the_table(monkeypatch, M):
    # _log_product reads l_k up to degree 4 len(tau) from a table of top
    # degree _WIN_K.  tau's degree grows with R2, and _lattice_tail refuses
    # past _SUM_NODES before it sums, so the largest R2 it builds is found
    # by bisection on the refusal, with no direct sums (uncached, _octant
    # empty); the degree there, 160 for M = 0 and 12, is within the table
    build = weierstrass._lattice_tail.__wrapped__
    with monkeypatch.context() as patch:
        patch.setattr(weierstrass, "_octant", lambda *args: iter(()))

        def refuses(R2):
            try:
                build(M, R2)
            except ConvergenceError:
                return True
            return False

        top = weierstrass._least(refuses, 0, 1 << 20) - 1
        assert refuses(top + 1) and not refuses(top)
        degree = 4 * build(M, top)[1].size
    assert degree <= weierstrass._WIN_K
    if M == 0:  # the one real build, about 1.5 s (R2 = 7160)
        assert 4 * weierstrass._lattice_tail(M, top)[1].size == degree


def test_window_far_tail_within_the_table():
    # a far window node has x = max|z| / |nu| <= rho and drops at most
    # x^(K+1) / (1 - x) past degree K: at the table's top degree _WIN_K,
    # 1e12 of them (a window of M ~ 5e5, 16 TB of nodes) drop within
    # _FAR_TOL, so _window_far's least K always lies within the table
    rho = weierstrass._FAR_RATIO
    assert 1e12 * rho ** (weierstrass._WIN_K + 1) / (1.0 - rho) <= weierstrass._FAR_TOL


def test_ring2_constants_from_the_recurrence():
    # G_4 from Gamma(1/4), G_8 = c_4 / 7 from the DLMF 23.9 recurrence, less
    # the nonzero nodes of the rings max(|m|, |n|) <= 2, at 60 digits
    import mpmath as mp
    with mp.workdps(60):
        for (G, lit), k in zip(zip(lattice_g(8, 60), weierstrass._G_OUTSIDE_RING2), (4, 8)):
            ring = mp.fsum(mp.mpc(m, n) ** -k for m in range(-2, 3) for n in range(-2, 3) if m or n)
            want = float(mp.re(G - ring))
            assert abs(lit - want) <= math.ulp(want), k


@pytest.mark.parametrize("R2", [0, 3, 14, 50, 200])
@pytest.mark.parametrize("M", [0, 4, 12])
def test_lattice_tail_partitions_the_lattice(M, R2):
    # the near nodes are the disk m^2 + n^2 <= R2 less the window
    # max(|m|, |n|) <= M, each once, m-major, and the far radius R is the
    # least |nu| the excluded set E = window u disk can leave to the far set
    R, _, near = weierstrass._lattice_tail(M, R2)
    assert not near.flags.writeable and near.dtype == complex
    m, n = near.real, near.imag
    assert np.array_equal(m, np.round(m)) and np.array_equal(n, np.round(n))
    assert np.all((m * m + n * n <= R2) & (np.maximum(abs(m), abs(n)) > M))
    L = math.isqrt(R2)
    want = [complex(a, b) for a in range(-L, L + 1) for b in range(-L, L + 1)
            if a * a + b * b <= R2 and max(abs(a), abs(b)) > M]
    assert near.tolist() == want and len(set(want)) == len(want) and 0j not in want
    assert R == max(math.sqrt(R2 + 1), M + 1)


@pytest.mark.parametrize("M, R2", [(0, 11), (12, 26)], ids=["disk", "window"])
def test_lattice_tail_against_mpmath(M, R2):
    # the disk of the EXP winding contour at |z| = 2.5, and the M = 12
    # window of the two-sided grids (max|z| = 3.89): tau_k = R^k T_k
    # against 50-digit sums, weighted by x^k = (s / R)^k, which the series
    # term k multiplies.  Their error is the rounding of the T_4, T_8
    # subtraction, about eps (s / 3)^k for the nearest excluded nodes past
    # the rings, plus the direct sums' dropped tail, below 1e-18
    import mpmath as mp
    R, tau, _ = weierstrass._lattice_tail(M, R2)
    assert not tau.flags.writeable
    K = 4 * tau.size
    s = weierstrass._FAR_RATIO * math.sqrt(R2 + 1)
    dps = 50 + math.ceil(K * math.log10(R))
    with mp.workdps(dps):
        want = np.array([float(t * mp.mpf(R) ** k)
                         for t, k in zip(lattice_tail_sums(M, R2, K, dps), range(4, K + 1, 4))])
    k = np.arange(4, K + 1, 4)
    tol = 16 * np.finfo(float).eps * np.maximum(1.0, s / 3) ** k + 1e-18
    assert np.all(np.abs(tau - want) * (s / R) ** k <= tol)


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_sigma_split_against_mpmath_product(name):
    """Against the 30-digit window product times the 50-digit tail outside
    it (M = 24).  The printed variant on the unperturbed lattice takes the
    whole window directly; for ML(2,1) at |z| = 2.5 its Horner step cancels
    to about 2e-11, and sigma_fn shares that near-field error, so it may
    add at most 1e-12 to it."""
    desc, family, params = ORACLE_FAMILIES[name]
    lat = LatticeSpec(1.0, 24)
    zs = np.array([1.3 - 0.4j, -1.5 + 2.0j])
    want = np.array([sigma_lattice(family, params, z, 24) for z in zs])
    err = np.abs(sigma_fn(desc, zs, lat) - want) / np.abs(want)
    direct_err = np.abs(np.exp(log_g_fn(desc, zs, PerturbedLattice(lat))) - want) / np.abs(want)
    assert np.all(err <= 1e-12 + direct_err)
    if name != "ML(2,1)":
        assert np.all(err <= 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(ORACLE_FAMILIES)), st.integers(2, 5),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_sigma_split_property(name, M, x, y):
    # far nodes appear at |z| = sqrt 2 from |node| > 1.89 for EXP and
    # ML(2,1), > 2.82 for GD(1); against the 30-digit window product times
    # the 50-digit tail outside it, the split may add at most 1e-12 to the
    # error of the window-direct product
    z = complex(x, y)
    lat = LatticeSpec(1.0, M)
    assume(abs(z) >= 0.05 and lat.dist(z) >= 1e-3)
    desc, family, params = ORACLE_FAMILIES[name]
    want = sigma_lattice(family, params, z, M)
    direct = np.exp(log_g_fn(desc, z, PerturbedLattice(lat))[0])
    assert abs(sigma_fn(desc, z, lat) - want) <= 1e-12 * abs(want) + abs(direct - want)


def pinned_paths():
    """The two products the pins below record: the backward shift product
    over the M = 8 window through the near field alone, and the printed
    variant, whose window denominators are not its nodes; and sigma_fn of
    the backward shift, which splits."""
    xs = np.linspace(-0.8, 0.8, 7)
    ys = np.linspace(-0.75, 0.85, 9)
    grid = (xs[:, None] + 1j * ys[None, :]).ravel() + 0.05j
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 8), 0.1, seed=42)
    lat = LatticeSpec(1.0, 8)
    nodes = lat.points()
    nodes = nodes[nodes != 0]
    bs_near = grid * np.exp(near_field(BSN, grid, nodes, nodes))
    bs = sigma_fn(BSN, grid, lat)
    printed = log_g_fn(EXPN, 2.5 * grid, gam)
    return grid, gam, bs_near, bs, printed


PINNED = (0, 31, 32, 62)
# float.hex of (real, imag) at the PINNED entries of the 63-point grid,
# recorded with one complex log per group of near factors, in bands of
# nodes ordered by |node|, the printed variant (EXP) with the far field of
# the infinite lattice and the series over the window's far nodes, both
# from EXP's exact log factor (near groups of 1 - w, plus the sum of u);
# the printed imaginary part is a sum of principal arguments, defined
# mod 2 pi (entry 62 moved by 2 pi when the near groups lost phi; entries
# 0 and 62 moved by 4 and 2 ulps when the window series took tau exactly)
PIN_BACKWARD_SHIFT = [("0x1.4eafbb3ff55c7p+27", "0x1.6df149c0d3e15p+28"),
                      ("-0x1.aeccccccccca7p-113", "0x1.9999999999976p-4"),
                      ("0x1.333333333331ap-111", "0x1.333333333331ap-2"),
                      ("0x1.1b7dc1b2cf4b3p+86", "0x1.d9ac8b9300c0fp+86")]
PIN_PRINTED = [("0x1.2f99fbd86f6b4p+3", "0x1.1babd372d4df4p-1"),
               ("-0x1.2ba4e1782925ep+0", "0x1.aea4d5008fa9ep+0"),
               ("-0x1.e1a9f81c6f949p-2", "0x1.7ccbf2698d4c5p+0"),
               ("0x1.8ee667cbfa791p+3", "-0x1.c643ff06b62c4p+1")]


def test_direct_paths_bit_identical():
    _, _, bs_near, _, printed = pinned_paths()
    for got, pins in ((bs_near, PIN_BACKWARD_SHIFT), (printed, PIN_PRINTED)):
        for i, (re, im) in zip(PINNED, pins):
            assert (got[i].real, got[i].imag) == (float.fromhex(re), float.fromhex(im))


def test_pinned_paths_against_mpmath():
    """The pinned bits and the split backward-shift sigma_fn against
    30-digit products over the same window nodes, times the 50-digit tail
    outside it where the product is the infinite one: the backward shift
    through sigma_product (its tail is below 1e-19 here), the printed
    variant through its explicit (node, denominator) pairs."""
    grid, gam, bs_near, bs, printed = pinned_paths()
    nodes, base = gam.nonzero()
    for i in PINNED:
        want = sigma_product("backward_shift", {}, grid[i], 8)
        assert abs(bs_near[i] - want) <= 5e-14 * abs(want)
        want = sigma_lattice("backward_shift", {}, grid[i], 8)
        assert abs(bs[i] - want) <= 5e-14 * abs(want)
        z = 2.5 * grid[i]
        want = (log_abs_pair_product("exponential", {}, z, zip(nodes, base))
                + math.log(abs(z - gam.z00)) + far_log_tail("exponential", {}, z, 8).real)
        assert abs(printed[i].real - want) <= 5e-14


def test_split_products_vanish_on_hit_nodes():
    zs = np.array([0.0, 1.0, -1.0j, 2.4 + 0.3j])
    sig = sigma_fn(EXPN, zs, LatticeSpec(1.0, 24))
    assert sig[0] == 0.0 and sig[1] == 0.0 and sig[2] == 0.0 and sig[3] != 0.0
    # numpy's z/z is 1 - 4.6e-17j at the perturbed node (-2, 1)
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 24), 0.1, seed=3)
    zs = np.array([gam.point(1, 0), gam.point(-2, 1), 2.2 + 0.35j])
    nodes, _ = gam.nonzero()
    # the product with the perturbed nodes as their own denominators, and log_g_fn's
    for lg in (weierstrass._log_product(EXPN, zs, 1.0, 24, nodes, nodes, 80),
               log_g_fn(EXPN, zs, gam)):
        assert lg[0].real == -math.inf and lg[1].real == -math.inf
        assert np.isfinite(lg[2])


# ---------------------------------------------------------------------------
# grouped logs of the near field
# ---------------------------------------------------------------------------

def per_cell_logs(desc, z, nodes, dens, N=80):
    """log(1 - z/node) + log(phi_N(psi1 z/node + psi2 z^2/den^2)) for every
    (node, point) cell, phi_N by Horner; -inf real part at a hit."""
    ps = psi_pair(desc)
    Z1 = z[None, :] / nodes[:, None]
    U = ps.psi1 * Z1 + ps.psi2 * (z * z)[None, :] / dens[:, None] ** 2
    V = np.zeros_like(U)
    for c in phi_coeffs(desc.normalize(), N)[::-1]:
        V = V * U + c
    with np.errstate(divide="ignore"):
        lg = np.log(1.0 - Z1)
    lg[z[None, :] == nodes[:, None]] = -np.inf
    return lg + np.log(V)


def near_field(desc, z, nodes, dens):
    return weierstrass._near_logs(desc, z, nodes, dens, 80)


def rounding_scale(desc, z, nodes, dens, N=80):
    """eps sum over (node, point) cells of cond + |log F|, per point: a
    rounding estimate for a log product, where cond = sum |phi_k| |u|^k /
    |phi_N(u)| is the cell's Horner condition number and F its factor."""
    ps = psi_pair(desc)
    U = ps.psi1 * z[None, :] / nodes[:, None] + ps.psi2 * (z * z)[None, :] / dens[:, None] ** 2
    c = phi_coeffs(desc.normalize(), N)
    size = sum(abs(ck) * np.abs(U) ** k for k, ck in enumerate(c))
    cond = size / np.abs(sum(ck * U ** k for k, ck in enumerate(c)))
    logs = np.abs(per_cell_logs(desc, z, nodes, dens, N))
    return np.finfo(float).eps * (cond + logs).sum(axis=0)


def sigma_near_nodes(desc, lat, zmax):
    """The nonzero nodes lam (m + i n) that sigma_fn takes directly for
    max|z| = zmax, m-major: those with |node| rho r <= zmax."""
    R = zmax / (lat.lam * weierstrass._FAR_RATIO * _window_series(desc, 80)[0])
    g = np.arange(-int(R), int(R) + 1)
    m, n = np.repeat(g, g.size), np.tile(g, g.size)
    keep = (m * m + n * n <= int(R * R)) & ((m != 0) | (n != 0))
    return lat.lam * (m[keep] + 1j * n[keep])


# five points of the 2,048-point level of the nested winding contour of
# radius 2.5, and the same angles at radius 3.5
ANGLES = 2j * np.pi * np.array([0, 100, 256, 700, 1337]) / 2048
CONTOUR_25, CONTOUR_35 = 2.5 * np.exp(ANGLES), 3.5 * np.exp(ANGLES)


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_banded_sigma_against_mpmath_product(name):
    # |z| = 3.5: the near nodes fill several bands (68 for EXP and ML(2,1),
    # 144 for GD(1)); ML(2,1)'s Horner cancels here, which the rounding
    # estimate over the M = 12 window covers; the oracle is the window
    # product times the tail outside it
    desc, family, params = ORACLE_FAMILIES[name]
    lat = LatticeSpec(1.0, 12)
    nodes = lat.points()
    nodes = nodes[nodes != 0]
    band = weierstrass._BAND_GROUPS * weierstrass._LOG_GROUP
    assert sigma_near_nodes(desc, lat, 3.5).size > 2 * band
    want = np.array([sigma_lattice(family, params, z, 12) for z in CONTOUR_35])
    err = np.abs(sigma_fn(desc, CONTOUR_35, lat) / want - 1.0)
    assert np.all(err <= 4.0 * rounding_scale(desc, CONTOUR_35, nodes, nodes))


GD2N = PhiDescriptor.gamma_deriv(2, normalized=True)
G_ORACLES = {**ORACLE_FAMILIES, "GD(2)": (GD2N, "gamma_deriv", {"n": 2})}


@pytest.mark.parametrize("Q", [0.1, 0.45])
@pytest.mark.parametrize("name", list(G_ORACLES))
def test_log_g_fn_against_pair_oracle(name, Q):
    # Re log g on an M = 8 window against the 30-digit product over its
    # (node, denominator) pairs, the 50-digit tail of the lattice outside it
    # and log|z - z00|.  Each point is taken in one call with max|z| = 3.81,
    # where the window's outer nodes lie past the near disk, and alone,
    # where nearly all of them do; the half-integer points are at least
    # 0.707 - Q from every node
    desc, family, params = G_ORACLES[name]
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 8), Q, seed=5)
    nodes, base = gam.nonzero()
    zs = np.array([0.5 + 0.5j, -2.5 + 1.5j, 3.5 + 1.5j])
    want = np.array([log_abs_pair_product(family, params, z, zip(nodes, base))
                     + far_log_tail(family, params, z, 8).real + math.log(abs(z - gam.z00))
                     for z in zs])
    tol = 4.0 * rounding_scale(desc, zs, nodes, base)
    together = log_g_fn(desc, zs, gam).real
    alone = np.array([log_g_fn(desc, z, gam)[0].real for z in zs])
    assert np.all(np.abs(together - want) <= tol)
    assert np.all(np.abs(alone - want) <= tol)


def test_banded_printed_variant_against_mpmath():
    # the printed variant on the perturbed M = 12 window: at |z| = 2.5 the
    # 36 nodes within 3.33 are taken directly, the other 588 through the
    # window's series; the rest of the lattice is its tail
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.1, seed=42)
    nodes, base = gam.nonzero()
    got = log_g_fn(EXPN, CONTOUR_25, gam).real
    want = np.array([log_abs_pair_product("exponential", {}, z, zip(nodes, base))
                     + math.log(abs(z - gam.z00)) + far_log_tail("exponential", {}, z, 12).real
                     for z in CONTOUR_25])
    assert np.all(np.abs(got - want) <= 4.0 * rounding_scale(EXPN, CONTOUR_25, nodes, base))


def horner_degrees(monkeypatch):
    """The degrees of the _horner calls that follow, in call order."""
    horner, degrees = weierstrass._horner, []

    def spy(coefs, U):
        degrees.append(coefs.size - 1)
        return horner(coefs, U)

    monkeypatch.setattr(weierstrass, "_horner", spy)
    return degrees


def test_outer_band_starts_horner_lower(monkeypatch):
    # ML(1, 1) on 16 contour points of |z| = 2.5: one chunk per band, each
    # one Horner pass, innermost band first, and the far series last, in
    # (z / (lam R))^4 of degree K / 4 (37, R^2 = 12)
    degrees = horner_degrees(monkeypatch)
    lat = LatticeSpec(1.0, 12)
    sigma_fn(ML11N, 2.5 * np.exp(2j * np.pi * np.arange(16) / 16), lat)
    *near, far = degrees
    band = weierstrass._BAND_GROUPS * weierstrass._LOG_GROUP
    assert far == weierstrass._lattice_tail(0, 11)[1].size == 37
    assert len(near) == -(-sigma_near_nodes(ML11N, lat, 2.5).size // band)
    assert near[-1] < near[0]


def test_near_field_one_horner_pass_per_chunk(monkeypatch):
    # GD(1) on the 2,049-point contour of radius 1.2 (M = 12, 20 near
    # nodes, one band of 5 chunks): each chunk runs Horner once, from its
    # a-priori degree, and none at degree 80
    degrees = horner_degrees(monkeypatch)
    lat = LatticeSpec(1.0, 12)
    z = 1.2 * np.exp(2j * np.pi * np.arange(2049) / 2048)
    sigma_fn(GD1N, z, lat)
    assert 80 not in degrees
    near = sigma_near_nodes(GD1N, lat, 1.2)
    assert near.size <= weierstrass._BAND_GROUPS * weierstrass._LOG_GROUP
    chunks = z.size // (weierstrass._NEAR_CELLS // near.size)
    degrees.clear()
    got = near_field(GD1N, z, near, near)
    assert len(degrees) == chunks and max(degrees) < 80
    # within 2^-60 per cell and 4 eps per unit of each cell's |log|
    cells = per_cell_logs(GD1N, z, near, near)
    bound = near.size * 2.0**-60 + 4.0 * np.finfo(float).eps * np.abs(cells).sum(axis=0)
    assert np.all(np.abs(np.expm1(got - cells.sum(axis=0))) <= bound)


@pytest.mark.parametrize("desc, zero, degree", [
    (ML21N, 1.3548101281120508 + 1.9914668428339137j, 80), (GD1N, 0.6266637657919768, 16)])
def test_near_field_cut_where_phi_is_small(monkeypatch, desc, zero, degree):
    # node 1 and points whose u lies 1e-4 to 1e-12 off a zero of phi_80:
    # the cut's tail, at most 2^-60 absolute, and the pass's rounding,
    # within 4 eps sum |phi_k| |u|^k here, bound each cell's phi error.
    # At |u| = 2.42 ML(2,1) needs every degree; GD(1) cuts at 16
    ps = psi_pair(desc)
    u = zero + np.array([1e-4, 1e-6j, -1e-8, 1e-10j, 1e-12])
    # the root of psi2 z^2 + psi1 z = u nearer 0
    root = np.sqrt(ps.psi1**2 + 4.0 * ps.psi2 * u)
    z = (np.sign(ps.psi1) * root - ps.psi1) / (2.0 * ps.psi2)
    nodes = np.array([1.0 + 0j])
    U = ps.psi1 * z + ps.psi2 * z * z
    assert np.all(np.abs(U - u) <= 1e-14)
    c = phi_coeffs(desc.normalize(), 80)
    size = sum(abs(ck) * np.abs(U) ** k for k, ck in enumerate(c))
    phi80 = np.abs(sum(ck * U**k for k, ck in enumerate(c)))
    degrees = horner_degrees(monkeypatch)
    got = near_field(desc, z, nodes, nodes)
    assert degrees == [degree]
    want = per_cell_logs(desc, z, nodes, nodes).sum(axis=0)
    bound = (2.0**-60 + 4.0 * np.finfo(float).eps * size) / phi80
    assert np.all(np.abs(np.expm1(got - want)) <= bound)


FACTOR_ORACLES = {**ORACLE_FAMILIES, "BSN": (BSN, "backward_shift", {})}
NEAR_FAMILIES = {name: desc for name, (desc, _, _) in FACTOR_ORACLES.items()}
WINDOW_ORACLES = {**FACTOR_ORACLES, "GD(2)": G_ORACLES["GD(2)"]}


@pytest.mark.parametrize("name", sorted(NEAR_FAMILIES))
@pytest.mark.parametrize("N", [17, 80])
def test_e_table_against_mpmath(name, N):
    # every coefficient of E_N through degree 2N + 1 against 30 digits, within
    # 1000 eps of the same sum with |.| on every term; the largest measured
    # ratio is 450 (GD(1), N = 80, degree 161), where the rounding of
    # log|phi_80| and the 80 roundings of psi2 in psi2^80 meet
    desc, family, params = FACTOR_ORACLES[name]
    want, scale = map(np.array, factor_series(family, params, N))
    got = _phi_table(desc, N)[1]
    assert got.size == want.size == 2 * N + 2
    assert np.all(np.abs(got - want) <= 1000 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("name", sorted(WINDOW_ORACLES))
@pytest.mark.parametrize("N", [17, 80])
def test_phi_table_against_mpmath(name, N):
    # the column Phi_N = sum_{i<=N} phi_i p^i, p = psi1 w + psi2 w^2, that
    # r's bound reads: every coefficient through degree 2N against 30
    # digits, within 1000 eps of the same sum with |.| on every term (the
    # largest measured ratio is 450, GD(1) at N = 80, as for E_N), and E_N
    # is (1 - w) Phi_N
    desc, family, params = WINDOW_ORACLES[name]
    want, scale = map(np.array, phi_column_series(family, params, N))
    phi, e = weierstrass._phi_table(desc, N)
    assert phi.size == want.size == 2 * N + 1
    assert np.all(np.abs(phi - want) <= 1000 * np.finfo(float).eps * scale)
    assert np.array_equal(e, np.append(phi, 0.0) - np.append(0.0, phi))


@pytest.mark.parametrize("name", sorted(WINDOW_ORACLES))
def test_window_radius_bounds_the_unperturbed_factor(name):
    # |Phi_80(w) e^(-w - w^2/2) - 1| <= 1/2 on |w| = r, hence on the disk
    # (the maximum principle), so |log R_80| <= log 2 there; r <= 1
    desc, family, params = WINDOW_ORACLES[name]
    r = _window_series(desc, 80)[0]
    assert 0.0 < r <= 1.0
    assert omega_deviation_on_circle(family, params, r, 4096) <= 0.5


@pytest.mark.parametrize("name", sorted(NEAR_FAMILIES))
def test_log_e_coefficients_split_off_log_one_minus_w(name):
    # log E = log(1 - w) + w + w^2/2 + log R: l_1 = l_2 = 0 (to the
    # oracle's 50 digits), and l_k + 1/k = lambda_k obeys the Cauchy bound
    # log 2 / r^k that the far-field tail bound takes
    desc, family, params = FACTOR_ORACLES[name]
    ell = np.array(log_factor_series(family, params, 170))
    r = _window_series(desc, 80)[0]
    assert abs(ell[1]) <= 1e-40 and abs(ell[2]) <= 1e-40
    k = np.arange(3, 171)
    assert np.all(np.abs(ell[3:] + 1.0 / k) * r**k <= math.log(2.0))


@pytest.mark.parametrize("name, count", [("EXP", 36), ("ML(2,1)", 36), ("GD(1)", 68),
                                         ("BSN", 60)])
def test_sigma_near_counts_on_winding_contour(name, count):
    # M = 12 at |z| = 2.5: nodes with |node| <= 2.5 / (0.75 r) are near,
    # |node| <= 3.33 where r = 1 (EXP, ML(2,1))
    desc = NEAR_FAMILIES[name]
    assert sigma_near_nodes(desc, LatticeSpec(1.0, 12), 2.5).size == count


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(NEAR_FAMILIES)), st.integers(2, 6),
       st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=4))
def test_grouped_near_field_matches_per_cell(name, M, pts):
    # both sums round each log to about eps |log|; the backward-shift
    # factors 1 - w^81 have logs near 30 at |w| = sqrt 2, and the two sums
    # stay within 3e-14 of each other on this square
    lat = LatticeSpec(1.0, M)
    z = np.array([complex(x, y) for x, y in pts])
    assume(np.all(lat.dist(z) >= 1e-3))
    nodes = lat.points()
    nodes = nodes[nodes != 0]
    desc = NEAR_FAMILIES[name]
    got = near_field(desc, z, nodes, nodes)
    want = per_cell_logs(desc, z, nodes, nodes).sum(axis=0)
    assert np.all(np.abs(np.expm1(got - want)) <= 1e-13)


def test_grouped_near_field_falls_back_past_double_range():
    # single ML(1, 1) factors (phi = e^u cut at degree 80) reach about
    # 1e115 at z = 40 + 0.3j, so a group of _LOG_GROUP of them leaves double
    # range; the M = 4 window's product
    gam = PerturbedLattice(LatticeSpec(1.0, 4))
    nodes, _ = gam.nonzero()
    z = np.array([40 + 0.3j])
    cells = per_cell_logs(ML11N, z, nodes, nodes)[:, 0]
    groups = np.add.reduceat(cells.real, np.arange(0, nodes.size, weierstrass._LOG_GROUP))
    assert groups.max() > math.log(np.finfo(float).max)
    lg = near_field(ML11N, z, nodes, nodes)[0] + math.log(abs(z[0] - gam.z00))
    assert math.isfinite(lg.real)
    assert lg.real == pytest.approx(cells.sum().real + math.log(abs(z[0] - gam.z00)), rel=1e-15)
    # against the exact degree-80 cut product: complex Horner at degree N
    # rounds phi_N(u) by at most about 4 N eps sum |phi_k| |u|^k (Higham,
    # Accuracy and Stability of Numerical Algorithms, 5.1), so a factor's
    # log moves by at most log(1 + 4 N eps cond), to first order.  Two
    # factors have cond ~ 7e15, so the cut product holds about 3 digits: the
    # computed log is 3.1 above the exact 6359.78, and the bound is 12.4
    want, conds = log_abs_cut_product("mittag_leffler", {"rho": 1.0, "mu": 1.0}, z[0], nodes)
    cancel = math.fsum(math.log1p(4 * 80 * np.finfo(float).eps * c) for c in conds)
    assert abs(lg.real - want) <= cancel


def test_grouped_near_field_falls_back_on_underflow(monkeypatch):
    # phi = 1e-50: every group of _LOG_GROUP factors underflows to 0 away
    # from the nodes
    monkeypatch.setattr(weierstrass, "phi_coeffs", lambda desc, N: np.array([1e-50]))
    nodes = LatticeSpec(1.0, 2).points()
    nodes = nodes[nodes != 0]
    z = np.array([0.3 + 0.2j, -0.4 + 0.1j])
    got = near_field(ML11N, z, nodes, nodes)
    want = np.log(1.0 - z[None, :] / nodes[:, None]).sum(axis=0) + nodes.size * math.log(1e-50)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_grouped_near_field_hit_among_finite_factors():
    # numpy's z/z is 1 - 4.6e-17j at the perturbed node (-2, 1)
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 24), 0.1, seed=3)
    nodes, base = gam.nonzero()
    k = int(np.flatnonzero(nodes == gam.point(-2, 1))[0])
    group = slice(k - k % weierstrass._LOG_GROUP, k - k % weierstrass._LOG_GROUP
                  + weierstrass._LOG_GROUP)
    z = np.array([nodes[k], 2.2 + 0.35j])
    for dens in (base, nodes):
        cells = per_cell_logs(EXPN, z, nodes, dens)[group, 0]
        assert np.sum(np.isfinite(cells)) == weierstrass._LOG_GROUP - 1
        got = near_field(EXPN, z, nodes, dens)
        assert got[0].real == -math.inf and math.isfinite(got[0].imag)
        assert np.isfinite(got[1])


def test_exp_near_field_hits_and_falls_back():
    # EXP's group products hold 1 - z/node alone: a point on a node takes
    # -inf, and one 1e-310 off node 1, where 1 - z/node is subnormal, the
    # per-cell sum of log(1 - z/node); either adds the sum of u over the
    # nodes, as does the point that takes the group products
    nodes = LatticeSpec(1.0, 2).points()
    nodes = nodes[nodes != 0]
    z = np.array([-1.0 + 2.0j, 1.0 + 1e-310j, 0.3 + 0.2j])
    got = near_field(EXPN, z, nodes, nodes)
    Z1 = z[None, :] / nodes[:, None]
    U = Z1 + (z * z)[None, :] / (2.0 * nodes[:, None] ** 2)
    with np.errstate(divide="ignore"):
        want = np.log(1.0 - Z1).sum(axis=0) + U.sum(axis=0)
    assert got[0].real == -math.inf and math.isfinite(got[0].imag)
    assert np.all(np.isfinite(got[1:]))
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-14 * np.abs(want[1:]))


def test_degree_cut_nan_point_keeps_its_chunk():
    # a nan point stays nan and leaves its chunk's other points their
    # per-cell values: the chunk's degree is cut from max|u| over the
    # cells that are not nan (GD(1): for EXP the symmetric window sums
    # log phi(u) = u to 0, so degree 0 would pass)
    nodes = LatticeSpec(1.0, 3).points()
    nodes = nodes[nodes != 0]
    z = np.array([0.3 + 0.2j, complex(math.nan, 0.0), -1.4 + 1.1j])
    got = near_field(GD1N, z, nodes, nodes)
    want = per_cell_logs(GD1N, z[[0, 2]], nodes, nodes).sum(axis=0)
    assert np.isnan(got[1])
    assert np.all(np.abs(np.expm1(got[[0, 2]] - want)) <= 1e-13)


# ---------------------------------------------------------------------------
# far series of a perturbed window
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WINDOW_ORACLES))
def test_window_series_table_against_mpmath(name):
    # sum l_k w^k against 30-digit log E_80(w) at |w| <= r / 2, where the
    # table's dropped tail is below 1e-70, within 8 eps of the sum with |.|
    # on every term
    desc, family, params = WINDOW_ORACLES[name]
    r, ell = weierstrass._window_series(desc, 80)
    assert not ell.flags.writeable and ell.shape == (weierstrass._WIN_K + 1,)
    k = np.arange(ell.size)
    for w in (0.5 * r * np.exp(0.7j), 0.4 * r * np.exp(-2j), 0.5 * r):
        terms = ell * w**k
        want = log_factor(family, params, w)
        assert abs(terms.sum() - want) <= 8 * np.finfo(float).eps * (np.abs(terms).sum() + 1.0)


def perfbench_window():
    # the two_sided/perturbed op of the perfbench lattice workload
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.1, seed=1)
    return gam, _perfbench_grid(gam)


def test_window_far_split():
    # a window node is far where |z / nu| <= rho over the grid; on the
    # perfbench op (max|z| = 3.89, EXP) that is the 536 nodes beyond
    # |nu| = 5.19
    gam, grid = perfbench_window()
    nodes, base = gam.nonzero()
    zmax = float(np.abs(grid).max())
    far, logs = weierstrass._window_far(EXPN, grid, zmax, nodes, base, 80)
    assert np.array_equal(far, np.abs(nodes) >= zmax / weierstrass._FAR_RATIO)
    assert far.sum() == 536
    # the series against the direct product over the same far nodes
    direct = near_field(EXPN, grid, nodes[far], base[far])
    tol = 4.0 * rounding_scale(EXPN, grid, nodes[far], base[far])
    assert np.all(np.abs(logs - direct) <= tol)


def test_window_series_matches_direct_far_nodes():
    # an M = 8 window with Q = 0.3: the series against the direct product
    # over the nodes it takes, both points sets at once
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 8), 0.3, seed=11)
    nodes, base = gam.nonzero()
    z = np.array([0.5 + 0.5j, -1.5 + 0.5j, 2.5 - 1.5j])
    far, logs = weierstrass._window_far(EXPN, z, float(np.abs(z).max()), nodes, base, 80)
    assert far.sum() > 100
    direct = near_field(EXPN, z, nodes[far], base[far])
    assert np.all(np.abs(logs - direct) <= 4.0 * rounding_scale(EXPN, z, nodes[far], base[far]))


def test_exp_window_takes_far_nodes_of_any_tau():
    # EXP's factor takes tau = (nu / beta)^2 - 1 exactly, as tau w^2 / 2, so
    # a far node may have any tau: on an M = 12 window with Q = 0.45 and
    # max|z| = 1.5, some far nodes have |tau| > 0.1875.  log g against the
    # 30-digit product over the window's (node, denominator) pairs, the
    # 50-digit tail outside it and log|z - z00|
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.45, seed=2)
    nodes, base = gam.nonzero()
    zs = np.array([0.5 + 0.5j, -1.2 + 0.9j, 0.3 - 1.4j])
    far, _ = weierstrass._window_far(EXPN, zs, float(np.abs(zs).max()), nodes, base, 80)
    tau = (nodes / base) ** 2 - 1
    assert np.any(far & (np.abs(tau) > 0.1875))
    want = np.array([log_abs_pair_product("exponential", {}, z, zip(nodes, base))
                     + math.log(abs(z - gam.z00)) + far_log_tail("exponential", {}, z, 12).real
                     for z in zs])
    assert np.all(np.abs(log_g_fn(EXPN, zs, gam).real - want) <= 5e-14)


@pytest.mark.parametrize("Q", [0.1, 0.3, 0.45])
def test_exp_window_far_series_takes_tau_exactly(Q):
    # the far series of an M = 12 window, max|z| = 1.5, against the
    # 30-digit product over the (node, denominator) pairs it takes: its
    # tau term (z^2 / 2) sum tau nu^-2 is 0.008 to 0.18 here, and the
    # series keeps the rest within _FAR_TOL plus rounding (at most 1.4 eps
    # measured, as every |log| is below 1)
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), Q, seed=2)
    nodes, base = gam.nonzero()
    zs = np.array([0.5 + 0.5j, -1.2 + 0.9j, 0.3 - 1.4j])
    far, logs = weierstrass._window_far(EXPN, zs, float(np.abs(zs).max()), nodes, base, 80)
    assert far.sum() > 600
    want = np.array([log_abs_pair_product("exponential", {}, z, zip(nodes[far], base[far]))
                     for z in zs])
    tol = weierstrass._FAR_TOL + 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(logs))
    assert np.all(np.abs(logs.real - want) <= tol)


WINDOW_NEAR_ORACLES = {
    "ML(2,1)": (ML21N, "mittag_leffler", {"rho": 2.0, "mu": 1.0}),
    "SG(1,2)": (SGN, "stretched_gamma", {"a": 1.0, "b": 2.0}),
    "GD(1)": (GD1N, "gamma_deriv", {"n": 1}),
    "Dunkl(1/2)": (DKN, "dunkl", {"kappa": 0.5}),
    "BSN": (BSN, "backward_shift", {}),
}


@pytest.mark.parametrize("name", list(WINDOW_NEAR_ORACLES))
def test_window_of_other_families_is_near(name):
    # only EXP's window has a far series: every other family takes its
    # whole M = 8 window (Q = 0.3) directly.  log g against the 30-digit
    # pair product, the 50-digit tail and log|z - z00|
    desc, family, params = WINDOW_NEAR_ORACLES[name]
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 8), 0.3, seed=11)
    nodes, base = gam.nonzero()
    zs = np.array([0.5 + 0.5j, -1.5 + 0.5j, 2.5 - 1.5j])
    far, logs = weierstrass._window_far(desc, zs, float(np.abs(zs).max()), nodes, base, 80)
    assert not far.any() and logs is None
    want = np.array([log_abs_pair_product(family, params, z, zip(nodes, base))
                     + far_log_tail(family, params, z, 8).real + math.log(abs(z - gam.z00))
                     for z in zs])
    tol = 4.0 * rounding_scale(desc, zs, nodes, base)
    assert np.all(np.abs(log_g_fn(desc, zs, gam).real - want) <= tol)


def test_window_moments_in_chunks(monkeypatch):
    # no power table of the moments or of the points exceeds _SUM_CELLS
    shapes, powers = [], weierstrass._powers

    def spy(w, K):
        shapes.append((K + 1, w.size))
        return powers(w, K)

    monkeypatch.setattr(weierstrass, "_powers", spy)
    gam, grid = perfbench_window()
    log_g_fn(EXPN, grid, gam)
    assert len(shapes) > 2
    assert max(a * b for a, b in shapes) <= weierstrass._SUM_CELLS


def test_window_series_cached_read_only():
    weierstrass._window_series.cache_clear()
    z = np.array([0.5 + 0.5j, 2.5 - 1.5j])
    values = [log_g_fn(ML21N, z, PerturbedLattice.perturb(LatticeSpec(1.0, M), 0.2, seed=3))
              for M in (6, 10)]
    assert weierstrass._window_series.cache_info().misses == 1
    assert all(np.array_equal(log_g_fn(ML21N, z, PerturbedLattice.perturb(
        LatticeSpec(1.0, M), 0.2, seed=3)), v) for M, v in zip((6, 10), values))
    assert weierstrass._window_series.cache_info().misses == 1
    # sigma reads the same table
    sigma_fn(ML21N, z, LatticeSpec(1.0, 6))
    assert weierstrass._window_series.cache_info().misses == 1


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_sigma_lower_diag():
    wk = verified_weight(PhiDescriptor.exponential())
    lat = LatticeSpec(1.0, 12)
    xs = np.linspace(-1.3, 1.7, 9) + 0.41
    grid = (xs[:, None] + 1j * (xs[None, :] - 0.23)).ravel()
    rep = sigma_lower_diag(EXPN, wk, lat, grid, N=80)
    assert rep.feasible and rep.min_ratio > 0
    assert abs(rep.min_ratio - 0.7648359684789846) <= 1e-6
    assert np.array_equal(rep.z, grid)
    assert all(a.shape == grid.shape for a in (rep.lhs, rep.rhs, rep.ratio))
    with pytest.raises(ValueError):
        sigma_lower_diag(EXPN, wk, lat, np.array([1.0 + 0.0j]))


def test_sigma_lower_diag_takes_abs_of_a_signed_weight():
    # the GD(1) weight changes sign inside |z| = 2: the ratio bounds
    # |W sigma| / dist, so it stays positive, with a warning
    wk = registered_weight(PhiDescriptor.gamma_deriv(1))
    lat = LatticeSpec(1.0, 12)
    xs = np.linspace(-1.875, 1.875, 16)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    w = wk.weight(np.abs(grid) ** 2)
    assert (w < 0).any() and (w > 0).any()
    with pytest.warns(UserWarning, match="signed weight in sigma_lower_diag"):
        rep = sigma_lower_diag(GD1N, wk, lat, grid, N=80)
    assert np.all(rep.ratio > 0) and rep.feasible
    assert np.array_equal(rep.lhs, np.abs(w) * np.abs(sigma_fn(GD1N, grid, lat)))


def test_sigma_lower_diag_refuses_a_zero_weight(monkeypatch):
    # the GD(1) weight vanishes on |z| = 1, so the ratio there bounds
    # nothing: ValueError naming the point, before sigma is formed
    wk = registered_weight(PhiDescriptor.gamma_deriv(1))
    monkeypatch.setattr(weierstrass, "sigma_fn", None)
    with pytest.raises(ValueError, match=r"weight is 0 at grid point \(0\.6\+0\.8j\)"):
        sigma_lower_diag(GD1N, wk, LatticeSpec(1.0, 8), np.array([0.5 + 0.5j, 0.6 + 0.8j]))


def test_sigma_lower_diag_refuses_a_nonfinite_weight(monkeypatch):
    # the ML(3, 50) weight 3 x^149 e^(-x^3) is inf * 0 = nan at x = |z|^2
    # = 121.25, with no warning: ValueError naming the point, before sigma
    # is formed, where a nan lhs would otherwise pass through
    desc = PhiDescriptor.mittag_leffler(3, 50)
    monkeypatch.setattr(weierstrass, "sigma_fn", None)
    with pytest.raises(ValueError, match=r"^weight nan at grid point \(11\+0\.5j\)$"):
        sigma_lower_diag(desc.normalize(), registered_weight(desc), LatticeSpec(1.0, 8),
                         np.array([11 + 0.5j]))


def test_sigma_lower_single_cell_center():
    wk = verified_weight(PhiDescriptor.exponential())
    rep = sigma_lower_diag(EXPN, wk, LatticeSpec(1.0, 10), np.array([0.5 + 0.5j]))
    assert rep.feasible and np.isfinite(rep.min_ratio) and rep.min_ratio > 0


def test_sigma_lower_ratio_stable_near_node():
    # simple zero: the ratio tends to a finite positive limit along a ray
    wk = verified_weight(PhiDescriptor.exponential())
    lat = LatticeSpec(1.0, 10)
    ts = np.array([0.2, 0.1, 0.05, 0.01, 0.002])
    grid = 1.0 + ts * np.exp(1j * 0.4)
    rep = sigma_lower_diag(EXPN, wk, lat, grid)
    assert np.all(rep.ratio > 0)
    assert rep.ratio.max() / rep.ratio.min() < 2.0


def _criterion_07_grid(gam):
    xs = np.linspace(-2.0, 2.0, 20)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel() + (0.25 + 0.125j)
    return grid[gam.dist(grid) > 1e-6]


def test_two_sided_diag():
    wk = verified_weight(PhiDescriptor.exponential())
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.1, seed=7)
    rep = two_sided_diag(EXPN, wk, gam, _criterion_07_grid(gam), N=80)
    assert rep.feasible
    assert rep.c == pytest.approx(1.55, abs=1e-12)
    assert rep.c1 == pytest.approx(0.43303600418833993, rel=1e-9)
    assert rep.c2 == pytest.approx(0.794560920132469, rel=1e-9)
    # corridor actually contains the data
    assert np.all(rep.ratio <= 1 + 1e-9)


def _perfbench_grid(gam):
    xs = np.arange(-2.75, 2.76, 0.5)
    return (xs[:, None] + 1j * xs[None, :]).ravel()


@pytest.mark.parametrize("seed, grid_of, want", [
    # acceptance criterion 07
    (7, _criterion_07_grid,
     ("0x1.8cccccccccccdp+0", "0x1.bb6dca4feaf0ep-2", "0x1.96d0b05d4c184p-1")),
    # the two_sided/perturbed op of the perfbench lattice workload, seed 1
    (1, _perfbench_grid,
     ("0x1.999999999999ap+0", "0x1.f6d0daa0e8a79p-2", "0x1.5f99662e33005p-1")),
])
def test_two_sided_diag_bits(seed, grid_of, want):
    # c, c1 and c2 to the last bit, as no golden file covers this function
    wk = verified_weight(PhiDescriptor.exponential())
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.1, seed=seed)
    rep = two_sided_diag(EXPN, wk, gam, grid_of(gam), N=80)
    assert (rep.c.hex(), rep.c1.hex(), rep.c2.hex()) == want
    assert rep.feasible is True


def test_two_sided_distance_reaches_the_lattice_outside_the_window():
    # g vanishes on lam (Z + iZ) outside the window too, so d(z) is the
    # distance to the nearest zero of g, not only to a node of Gamma
    wk = verified_weight(PhiDescriptor.exponential())
    gam = PerturbedLattice.perturb(LatticeSpec(1.0, 2), 0.1, seed=1)
    assert log_g_fn(EXPN, 3.0 + 0.0j, gam).real[0] == -math.inf
    grid = np.array([0.5 + 0.5j, 2.9 + 0.1j, 2.97 + 0.02j, -0.1 + 3.05j, 3.1 - 2.9j])
    rep = two_sided_diag(EXPN, wk, gam, grid, N=80)
    t = np.abs(grid) * np.log(np.abs(grid))
    d = rep.lhs / (rep.c1 * np.exp(-rep.c * t))
    want = [gam.dist(grid[0])[0], math.hypot(0.1, 0.1), math.hypot(0.03, 0.02),
            math.hypot(0.1, 0.05), math.hypot(0.1, 0.1)]
    assert np.allclose(d, want, rtol=1e-12, atol=0)


def test_two_sided_diag_takes_abs_of_a_signed_weight():
    # the GD(1) weight changes sign inside |z| = 2, as in sigma_lower_diag
    wk = registered_weight(PhiDescriptor.gamma_deriv(1))
    gam = PerturbedLattice(LatticeSpec(1.0, 4))
    xs = np.linspace(-1.875, 1.875, 16)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    assert (wk.weight(np.abs(grid) ** 2) < 0).any()
    with pytest.warns(UserWarning, match=r"^signed weight in two_sided_diag; using \|W\|$"):
        rep = two_sided_diag(GD1N, wk, gam, grid, N=80)
    assert np.all(np.isfinite(rep.lhs)) and np.all(rep.lhs > 0)


def test_two_sided_single_point_and_node_guard():
    wk = verified_weight(PhiDescriptor.exponential())
    gam = PerturbedLattice(LatticeSpec(1.0, 8))
    rep = two_sided_diag(EXPN, wk, gam, np.array([0.5 + 0.5j]))
    assert rep.feasible and rep.c1 > 0 and np.isfinite(rep.c2)
    with pytest.raises(ValueError):
        two_sided_diag(EXPN, wk, gam, np.array([1.0 + 0.0j]))
    # W underflows to 0 at |z| = 28.25: no log envelope, so no report
    with pytest.raises(ValueError, match=r"weight is 0 at grid point \(28\.25\+0\.25j\)"):
        two_sided_diag(EXPN, wk, gam, np.array([0.5 + 0.5j, 28.25 + 0.25j]))


NONFINITE_POINTS = [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(math.nan, 0.3)]


@pytest.mark.parametrize("bad", NONFINITE_POINTS, ids=str)
def test_sigma_lower_diag_refuses_a_nonfinite_point(bad, monkeypatch):
    # a nan point makes min_ratio nan and an inf one makes W 0: each is
    # refused by name before any other check, before a lattice point
    # earlier in the grid and before sigma is formed
    wk = verified_weight(PhiDescriptor.exponential())
    monkeypatch.setattr(weierstrass, "sigma_fn", None)
    with pytest.raises(ValueError, match=f"^grid point {re.escape(str(bad))} is not finite$"):
        sigma_lower_diag(EXPN, wk, LatticeSpec(1.0, 8), np.array([1.0 + 0.0j, 0.5 + 0.5j, bad]))


@pytest.mark.parametrize("bad", NONFINITE_POINTS, ids=str)
def test_two_sided_diag_refuses_a_nonfinite_point(bad, monkeypatch):
    # a non-finite point makes log g non-finite too, which is not a zero of
    # g: each is refused by name before any other check and before g is formed
    wk = verified_weight(PhiDescriptor.exponential())
    monkeypatch.setattr(weierstrass, "log_g_fn", None)
    gam = PerturbedLattice(LatticeSpec(1.0, 8))
    with pytest.raises(ValueError, match=f"^grid point {re.escape(str(bad))} is not finite$"):
        two_sided_diag(EXPN, wk, gam, np.array([1.0 + 0.0j, 0.5 + 0.5j, bad]))


# ---------------------------------------------------------------------------
# zero counting
# ---------------------------------------------------------------------------

def test_winding_zero_count():
    assert winding_zero_count(lambda z: z ** 3, 1.0) == 3
    lat = LatticeSpec(1.0, 12)
    n = winding_zero_count(lambda z: sigma_fn(EXPN, z, lat), 1.2)
    assert n == 5  # origin plus four unit points
    with pytest.raises(ValueError):
        winding_zero_count(lambda z: z - 1.0, 1.0)  # zero on the contour


# the winding test matrix: families with and without zeros of phi
WIND_FAMILIES = {"EXP": EXPN, "ML(2,1)": ML21N, "GD(1)": GD1N,
                 "GD(2)": PhiDescriptor.gamma_deriv(2, normalized=True), "SG(1,2)": SGN}


def plain_winding(fn, radius, n=2**15):
    """Argument sum of fn over n equispaced points of |z| = radius, in turns,
    and the largest step: each step is the angle of a ratio of neighbours."""
    vals = fn(radius * np.exp(2j * np.pi * np.arange(n) / n))
    steps = np.angle(np.roll(vals, -1) / vals)
    return steps.sum() / (2.0 * np.pi), np.abs(steps).max()


@pytest.mark.parametrize("radius", [1.2, 2.5, 3.5])
@pytest.mark.parametrize("name", sorted(WIND_FAMILIES))
def test_winding_count_matches_plain_argument_sum(name, radius):
    # the plain 2^15-point sum resolves every step to below pi/8; the
    # nested contour takes 256 to 8,192 points here
    lat = LatticeSpec(1.0, 12)

    def fn(z):
        return sigma_fn(WIND_FAMILIES[name], z, lat)
    wind, step = plain_winding(fn, radius)
    assert step < np.pi / 8 and abs(wind - round(wind)) < 1e-6
    assert winding_zero_count(fn, radius) == round(wind)


@pytest.mark.parametrize("radius", [1.2, 2.5, 3.5])
def test_winding_count_is_node_count_for_exp(radius):
    # EXP's phi has no zeros, so sigma vanishes on the nodes alone
    k = int(radius) + 1
    nodes = sum(1 for m in range(-k, k + 1) for n in range(-k, k + 1)
                if m * m + n * n < radius * radius)
    lat = LatticeSpec(1.0, 12)
    assert winding_zero_count(lambda z: sigma_fn(EXPN, z, lat), radius) == nodes


LATTICE_RADII = sorted({math.hypot(m, n) for m in range(5) for n in range(5)})


@settings(max_examples=200, deadline=None)
@given(st.floats(0.6, 3.4))
@example(2.5)  # 21 nodes, the count perfbench's winding op checks
def test_winding_count_is_node_count_property(r):
    # EXP only: its phi has no zeros, so sigma vanishes on the nodes alone
    # (the other families' sigma also vanishes at zeros of phi); the
    # contour keeps 0.05 from every node, and trunc_M = 2 does not enter
    # sigma
    assume(min(abs(r - rn) for rn in LATTICE_RADII) >= 0.05)
    nodes = sum(1 for m in range(-3, 4) for n in range(-3, 4) if m * m + n * n < r * r)
    lat = LatticeSpec(1.0, 2)
    assert winding_zero_count(lambda z: sigma_fn(EXPN, z, lat), r) == nodes


def counted(fn):
    """fn with a log of the points of every call."""
    calls = []

    def wrapped(z):
        calls.append(np.array(z))
        return fn(z)
    return wrapped, calls


def test_winding_contour_evaluates_each_point_once():
    lat = LatticeSpec(1.0, 12)
    fn, calls = counted(lambda z: sigma_fn(EXPN, z, lat))
    assert winding_zero_count(fn, 2.5) == 21
    assert len(calls) <= 2 and sum(c.size for c in calls) <= 256
    # ML(2,1) at 3.5 refines to 8,192 points: each is a distinct point of
    # that level, 2 pi j / 8192
    fn, calls = counted(lambda z: sigma_fn(ML21N, z, lat))
    assert winding_zero_count(fn, 3.5) == 261
    pts = np.concatenate(calls)
    n = pts.size
    j = np.angle(pts) / (2.0 * np.pi) * n % n
    assert n == 8192 and np.all(np.abs(j - np.round(j)) < 1e-6)
    assert np.unique(np.round(j) % n).size == n


def test_winding_acceptance_rule():
    # z**129 steps by 2 pi / 128 at 128 points, so level 0 alone would
    # count 1; 256 and 512 points fail, 1,024 passes at 0.252 pi and 2,048
    # confirms 129
    assert winding_zero_count(lambda z: z**129, 1.0) == 129
    # a zero 4e-5 inside |z| = 1, next to the point z = 1 of every level:
    # each level passes, but the steps at 2^15 and 2^16 points are 0.43 pi
    # and 0.37 pi, so no level has every step below pi/4, and the top
    # level's passing count stands
    fn, calls = counted(lambda z: z - (1.0 - 4e-5))
    assert winding_zero_count(fn, 1.0) == 1
    assert sum(c.size for c in calls) == 2**16
    # the same zero midway between two top-level points: one step near pi
    a = (1.0 - 1e-6) * np.exp(1j * np.pi / 2**16)
    with pytest.raises(ConvergenceError):
        winding_zero_count(lambda z: z - a, 1.0)
