import json
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from glfock import frames
from glfock.cli import main
from glfock.core import PhiDescriptor, TruncatedSeries, gl_derivative, phi_coeffs, signs_logs
from glfock.errors import UnverifiedWeightError
from glfock.fock import registered_weight, verified_weight
from glfock.frames import (_eig_reports, _fock_lattice, _sample_matrix, canonical_dual, density,
                           frame_bounds, frame_sweep, kernel_atoms)
from glfock.weierstrass import LatticeSpec, PerturbedLattice
from mp_oracles import _phis, exp_kernel_atom_rows, gauss_zak_sum, lattice_sample_rows

EXPN = PhiDescriptor.exponential(normalized=True)
WK = verified_weight(PhiDescriptor.exponential())


def adjoint_nodes(s, half):
    g = np.arange(-half, half + 1)
    mm, nn = [a.ravel() for a in np.meshgrid(g, g, indexing="ij")]
    return math.sqrt(math.pi / s) * (mm + 1j * nn)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_square_lattice():
    # every half-open window of integer side r catches exactly r^2 nodes
    rep = density(LatticeSpec(1.0, 12).points(), [10.0, 20.0])
    assert rep.counts == ((100, 100), (400, 400))
    assert rep.d_plus == rep.d_minus == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    assert rep.norm == "paper"


def test_density_scaling():
    assert density(LatticeSpec(2.0, 6).points(), [10.0, 20.0]).d_plus == \
        pytest.approx(1 / (8 * math.pi), abs=1e-15)
    assert density(LatticeSpec(0.5, 24).points(), [10.0, 20.0]).d_plus == \
        pytest.approx(2 / math.pi, abs=1e-14)


def test_density_lebesgue_norm():
    rep = density(LatticeSpec(1.0, 12).points(), [10.0, 20.0], norm="lebesgue")
    assert rep.d_plus == 1.0 and rep.d_minus == 1.0


def test_density_validation():
    pts = LatticeSpec(1.0, 12).points()
    with pytest.raises(ValueError):
        density(pts, [20.0, 10.0])              # not increasing
    with pytest.raises(ValueError):
        density(pts, [])
    with pytest.raises(ValueError):
        density(pts, [-1.0, 2.0])
    with pytest.raises(ValueError):
        density(pts, [30.0])                    # window larger than the set
    with pytest.raises(ValueError):
        density(pts, [10.0], norm="euclid")


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.3)])
def test_density_refuses_a_nonfinite_point(bad):
    # a nan point falls in no window and an inf one sends the window origins
    # to inf, so neither gives a count that means anything: each is refused
    # by name
    pts = np.append(LatticeSpec(1.0, 12).points(), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^point {re.escape(str(complex(bad)))} is not finite$"):
            density(pts, [10.0, 20.0])


def test_density_empty_and_perturbed():
    rep = density(np.array([], dtype=complex), [1.0, 2.0])
    assert rep.d_plus == 0.0 and rep.counts == ((0, 0), (0, 0))
    pl = PerturbedLattice.perturb(LatticeSpec(1.0, 12), 0.05, seed=3)
    rep = density(pl.pts, [10.0, 20.0])
    # small perturbations move nodes across window edges by at most one ring
    assert abs(rep.d_plus - 1 / (2 * math.pi)) < 0.02
    assert rep.d_minus <= rep.d_plus


# ---------------------------------------------------------------------------
# frame bounds
# ---------------------------------------------------------------------------

def test_frame_bounds_quadrature_identity():
    # Gauss-Laguerre x angular grid reproduces the continuous Gram pi * I:
    # the frame_bounds rows, each scaled by its quadrature weight
    x, w = np.polynomial.laguerre.laggauss(40)
    nang = 64
    th = 2 * math.pi * np.arange(nang) / nang
    z = np.sqrt(np.repeat(x, nang)) * np.exp(1j * np.tile(th, x.size))
    wt = np.repeat(w * np.exp(x) * math.pi / nang, nang)
    V = np.sqrt(wt * WK.weight(np.abs(z) ** 2))[:, None] * _sample_matrix(EXPN, z, 10, 0)
    rep = _eig_reports((V.conj().T @ V)[None], 10)[0]
    assert abs(rep.A - math.pi) <= 1e-8
    assert abs(rep.B - math.pi) <= 1e-8
    assert rep.condition == pytest.approx(1.0, abs=1e-8)


def test_frame_bounds_lattice_regression():
    pts = LatticeSpec(1.2, 10).points()
    rep = frame_bounds(EXPN, WK, pts, 8)
    assert pts.size == 441 and rep.basis_dim == 9
    assert abs(rep.A - 2.0526042317627047) <= 1e-9
    assert abs(rep.B - 2.3479780551704983) <= 1e-9
    assert rep.stability < 0.05


def test_frame_bounds_monotone_in_points():
    z1 = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.2 - 0.6j])
    z2 = np.append(z1, 0.9 + 0.4j)
    f1 = frame_bounds(EXPN, WK, z1, 2)
    f2 = frame_bounds(EXPN, WK, z2, 2)
    assert f1.A > 0
    assert f2.A >= f1.A - 1e-15
    assert f2.B >= f1.B - 1e-15


def test_frame_bounds_empty_and_guards():
    rep = frame_bounds(EXPN, WK, np.array([], dtype=complex), 6)
    assert (rep.A, rep.B, rep.condition) == (0.0, 0.0, math.inf)
    assert rep.basis_dim == 7
    with pytest.raises(UnverifiedWeightError,
                       match="^weight kernel not verified; run verified_weight first$"):
        frame_bounds(EXPN, registered_weight(PhiDescriptor.exponential()),
                     np.array([0.5 + 0j]), 4)  # not verified
    with pytest.raises(ValueError):
        frame_bounds(EXPN, registered_weight(PhiDescriptor.gamma_deriv(1)),
                     np.array([0.5 + 0j]), 4)  # not positive


# ---------------------------------------------------------------------------
# window-n sampling functionals and kernel coefficients
# ---------------------------------------------------------------------------

def test_sample_matrix_window_hand_value():
    # n = 1, e_1 = z (phi_1 = 1), w = 1/2: the functional e_1(w) - pi conj(w)
    # (D e_1)(w) is 1/2 - pi/2; e_0 = 1 has no derivative term
    L = _sample_matrix(EXPN, np.array([0.5 + 0j]), 1, 1)
    assert abs(L[0, 1] - (0.5 - math.pi / 2)) <= 1e-14
    assert L[0, 0] == 1.0


def test_sample_matrix_window0_is_basis_rows():
    # window 0 evaluates the orthonormal basis: e_m(w) = sqrt(phi_m) w^m
    w = np.array([0.0, 0.4 + 0.7j, -1.3 + 0.2j])
    for desc in (EXPN, PhiDescriptor.mittag_leffler(2, 1), PhiDescriptor.dunkl(0.5)):
        want = np.sqrt(phi_coeffs(desc, 10)) * w[:, None] ** np.arange(11)
        got = _sample_matrix(desc, w, 10, 0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        _sample_matrix(PhiDescriptor.gamma_deriv(1), w, 4, 0)  # phi_0 < 0


def test_sample_matrix_matches_iterated_derivative():
    # column m is sum_k C(n,k) (-pi conj(w))^k (D^k e_m)(w); the oracle
    # applies gl_derivative k times to the series e_m
    w = np.array([0.3 - 0.5j, 1.1 + 0.4j, -0.8 - 0.9j])
    N = 12
    families = (EXPN, PhiDescriptor.mittag_leffler(2, 1),
                PhiDescriptor.stretched_gamma(1.0, 2.0), PhiDescriptor.dunkl(0.5))
    for desc in families:
        sq = np.sqrt(phi_coeffs(desc, N))
        for n in (1, 2, 3):
            want = np.zeros((w.size, N + 1), dtype=complex)
            for m in range(N + 1):
                f = TruncatedSeries([0.0] * m + [sq[m]])
                for k in range(n + 1):
                    want[:, m] += math.comb(n, k) * (-math.pi * np.conj(w)) ** k * f(w)
                    f = gl_derivative(desc, f)
            got = _sample_matrix(desc, w, N, n)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def lattice_rows():
    """30-digit window 0-2 rows of EXP at degree <= 120 on the s = 1.5,
    M = 16 lattice, from the library's own coefficient logs: the test judges
    the basis assembly, not the coefficient table."""
    return lattice_sample_rows(signs_logs(EXPN, 120)[1], 1.5, 16, (0, 1, 2))


@pytest.mark.parametrize("N", [12, 24, 120])
@pytest.mark.parametrize("window_n", [0, 1, 2])
def test_sample_matrix_matches_mpmath(lattice_rows, N, window_n):
    # each cell within (N + 1) eps of the sum of its terms' moduli, so that
    # window terms cancelling near |w|^2 ~ m / pi are judged fairly; the
    # node w = 0 is in the lattice
    g = np.arange(-16, 17)
    mm, nn = [a.ravel() for a in np.meshgrid(g, g, indexing="ij")]
    w = math.sqrt(math.pi * 1.5) * (mm + 1j * nn)
    assert np.count_nonzero(w == 0) == 1
    rows, sizes = (np.array(x)[:, :N + 1] for x in lattice_rows[window_n])
    got = _sample_matrix(EXPN, w, N, window_n)
    assert np.all(np.abs(got - rows) <= (N + 1) * np.finfo(float).eps * sizes)


def test_frames_sweep_top_power_overflow_is_an_error_row(capsys, tmp_path):
    # the sweep's rows are built on the unit lattice, and at degree 300 the
    # top power |g|^300 of its corner nodes overflows (from N = 269 at
    # M = 10): the row reports an error, not a number
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"truncation": {"basis_N": 300}}))
    with np.errstate(all="ignore"):
        rc = main(["frames-sweep", "--config", str(cfg), "--s-min", "1.5",
                   "--steps", "1"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and len(out) == 2
    s, A, B, *_, status = out[1].split(",")
    assert status.startswith("error:") and A == B == "nan"


def test_frames_sweep_nonfinite_basis_is_a_value_error(capfd, tmp_path):
    # frame_sweep and frame_bounds check the weighted basis matrix itself:
    # the error does not hinge on eigvalsh meeting a nan, and no
    # RuntimeWarning or LAPACK message escapes.  The sweep builds its rows
    # on the unit lattice, so its guard trips at |g|^N (N >= 269 at
    # M = 10), not at (sqrt(pi s)|g|)^N
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite at N = 300"):
            frame_sweep(PhiDescriptor.exponential(), WK, 0, [1.5], N=300, M=10)
        with pytest.raises(ValueError, match="not finite at N = 250"):
            frame_bounds(EXPN, WK, [0.5, 20], 250)
    assert capfd.readouterr().err == ""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"truncation": {"basis_N": 300}}))
    rc = main(["frames-sweep", "--config", str(cfg), "--s-min", "0.9", "--s-max", "1.5",
               "--steps", "3"])
    cap = capfd.readouterr()
    assert rc == 0 and cap.err == ""
    assert [r.split(",")[-1] for r in cap.out.splitlines()[1:]] == ["error:ValueError"] * 3


# ---------------------------------------------------------------------------
# sweep / dual system
# ---------------------------------------------------------------------------

def test_frame_sweep_regression():
    reps = frame_sweep(EXPN, WK, 0, [0.5, 2.0], 12, 10)
    assert abs(reps[0].A - 1.7829109313321538) <= 1e-9
    assert reps[0].stability < 0.01
    assert abs(reps[1].A - 6.652526253379062e-06) <= 1e-12
    assert reps[0].A > 1e3 * reps[1].A      # oversampled vs undersampled


ROW_PATH_FAMILIES = {"EXP": PhiDescriptor.exponential(),
                     "ML(2,1)": PhiDescriptor.mittag_leffler(2.0, 1.0),
                     "SG(1,2)": PhiDescriptor.stretched_gamma(1.0, 2.0)}
ROW_PATH_SIZES = {0: (12, 10), 1: (24, 16), 2: (16, 12)}  # window -> (N, M)


@pytest.mark.parametrize("window_n", sorted(ROW_PATH_SIZES))
@pytest.mark.parametrize("family", sorted(ROW_PATH_FAMILIES))
def test_frame_sweep_matches_the_row_path(family, window_n):
    # the sweep's bounds against the Gram of the weighted rows at the same
    # nodes: frame_bounds for window 0, _sample_matrix rows for windows 1, 2
    desc = ROW_PATH_FAMILIES[family]
    wk = verified_weight(desc)
    N, M = ROW_PATH_SIZES[window_n]
    s_values = [0.3, 0.5, 1.0, 1.5]
    _, l = signs_logs(desc, window_n)
    norm = math.pi ** window_n * math.exp(l[window_n])
    reps = frame_sweep(desc, wk, window_n, s_values, N, M)
    for s, rep in zip(s_values, reps):
        w = _fock_lattice(s, M)
        if window_n == 0:
            ref = frame_bounds(desc, wk, w, N)
            A, B = ref.A / norm, ref.B / norm
        else:
            V = (np.sqrt(wk.weight(np.abs(w) ** 2) / norm)[:, None]
                 * _sample_matrix(desc, w, N, window_n))
            ev = np.linalg.eigvalsh(V.conj().T @ V)
            A, B = max(ev[0], 0.0), ev[-1]
        tol = 16 * np.finfo(float).eps * B * (N + 1)
        assert w.size == (2 * M + 1) ** 2 and rep.basis_dim == N + 1
        assert abs(rep.A - A) <= tol and abs(rep.B - B) <= tol


def test_frame_sweep_radius_blocks_are_cached_and_read_only():
    # a cold call (blocks built) and a cached call give identical reports, the
    # per-s CLI loop reads one cached build, and no caller can write to it
    frames._radius_blocks.cache_clear()
    cold = frame_sweep(EXPN, WK, 1, [0.4, 1.1], 10, 5)
    assert frames._radius_blocks.cache_info().misses == 1
    assert frame_sweep(EXPN, WK, 1, [0.4, 1.1], 10, 5) == cold
    assert [frame_sweep(EXPN, WK, 1, [s], 10, 5)[0] for s in (0.4, 1.1)] == cold
    assert frames._radius_blocks.cache_info()[:2] == (3, 1)  # hits, misses
    nodes, H = frames._radius_blocks(EXPN, 10, 1, 5)
    r = np.abs(nodes) ** 2
    assert np.all(np.diff(r) > 0.5) and nodes.size == 20  # the 20 sums m^2 + n^2, |m|, |n| <= 5
    assert H.shape == (20, 11, 11)
    # real symmetric: each entry is a Gram entry, so Cauchy-Schwarz scales it
    size = np.sqrt(np.einsum("rii->ri", H))
    size = size[:, :, None] * size[:, None, :]
    assert np.all(np.abs(H - H.transpose(0, 2, 1)) <= 8 * np.finfo(float).eps * size)
    for a in (nodes, H):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_frame_sweep_inside_zak_bounds(p):
    # for EXP, window 0 on sqrt(pi s) Z^2 at s = 1/p is the Gaussian Gabor
    # frame; its bounds are the min and max of the Zak sum F, at (1/(2p), 1/2)
    # and (0, 0).  A grid that misses both points checks that they are the
    # extremes, and its mean checks the oracle's normalization
    grid = [gauss_zak_sum(p, (a + 0.5) / 10, (b + 0.5) / 10)
            for a in range(10) for b in range(10)]
    assert abs(np.mean(grid) - p) <= 1e-12
    A, B = gauss_zak_sum(p, 1 / (2 * p), 0.5), gauss_zak_sum(p, 0.0, 0.0)
    assert A < min(grid) and B > max(grid)
    # the truncated bounds close in on them from inside as N and M grow
    gaps = []
    for N, M in ((24, 12), (60, 16), (80, 20)):
        rep = frame_sweep(EXPN, WK, 0, [1 / p], N, M)[0]
        assert rep.A >= A and rep.B <= B
        gaps.append((rep.A - A, B - rep.B))
    assert np.all(np.diff(gaps, axis=0) < 0)


def test_frame_sweep_lower_bound_decays_past_critical():
    # above the critical size the lower bound collapses as N grows
    a8 = frame_sweep(EXPN, WK, 0, [2.0], 8, 10)[0].A
    a14 = frame_sweep(EXPN, WK, 0, [2.0], 14, 10)[0].A
    assert a14 < 1e-2 * a8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 24: no rule ties --lattice-m to basis_N")
def test_frames_sweep_flags_a_window_short_of_the_basis(capsys, tmp_path):
    # at N = 160 the EXP basis peaks at radius sqrt(N) ~ 12.6, past the
    # window radius sqrt(pi s) M ~ 9.7 of M = 10 at s = 0.3: the lowest
    # eigenvalue measures the window (A = 5.66e-5), not the frame (3.287),
    # so the row must not read ok (an exit with a named error would do)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"truncation": {"basis_N": 160}}))
    rc = main(["frames-sweep", "--config", str(cfg), "--lattice-m", "10",
               "--s-min", "0.3", "--s-max", "0.3", "--steps", "1"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rc != 0 or rows[0].split(",")[-1] != "ok"


def test_frame_sweep_window_covers_the_basis_at_m14():
    # the resolved side of item 24's rule: at N = 160, s = 0.3 the window
    # M = 14 holds A within 1e-6 of the wider M = 20 (3.2872192 against
    # 3.2872198, which M = 24 repeats)
    near, wide = (frame_sweep(EXPN, WK, 0, [0.3], 160, M)[0].A for M in (14, 20))
    assert abs(near - wide) <= 1e-6 and abs(wide - 3.2872198) <= 1e-6


# lattice sizes s and half-widths M that no lattice has: a ValueError, not
# an all-nan result, a LinAlgError or an empty report
BAD_LATTICES = [(math.nan, 4), (math.inf, 4), (0.0, 4), (-1.0, 4), (1.0, -1)]


def test_frame_sweep_guards():
    assert frame_sweep(EXPN, WK, 0, [], 6, 4) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, M in BAD_LATTICES:
            with pytest.raises(ValueError, match="^lattice "):
                frame_sweep(EXPN, WK, 0, [s], 6, M)
    with pytest.raises(ValueError):
        frame_sweep(EXPN, WK, -1, [1.0], 6, 4)


@pytest.mark.parametrize("call", [
    lambda N: frame_bounds(EXPN, WK, np.array([0.5 + 0.5j, -0.5j]), N),
    lambda N: frame_sweep(EXPN, WK, 0, [0.5, 1.0], N, 4),
], ids=["frame_bounds", "frame_sweep"])
def test_frame_reports_refuse_degree_0(call):
    # a report compares the Gram with its leading N x N block, which is
    # empty at N = 0; N = 1 is the least degree with one
    with pytest.raises(ValueError, match="N >= 1, got N = 0$"):
        call(0)
    reps = call(1)
    for rep in reps if isinstance(reps, list) else [reps]:
        assert rep.basis_dim == 2 and 0.0 <= rep.A <= rep.B


GD2 = PhiDescriptor.gamma_deriv(2)
INFINITE_AT_ORIGIN = {
    "frame_bounds": lambda wk: frame_bounds(GD2, wk, np.array([0.5, 0.0]), 12),
    "frame_sweep": lambda wk: frame_sweep(GD2, wk, 0, [0.5], 12, 10),
    "kernel_atoms": lambda wk: kernel_atoms(GD2, wk, np.array([0.5, 0.0]), 12),
    "canonical_dual": lambda wk: canonical_dual(GD2, wk, 0.5, 4, 12),
}


@pytest.mark.parametrize("sampler", INFINITE_AT_ORIGIN)
def test_frame_sweep_refuses_infinite_weight(sampler):
    # GD(2)'s weight e^-x (ln x)^2 is infinite at x = 0, the node w = 0:
    # every sampler raises a ValueError naming the node, not nan rows, a
    # RuntimeWarning, a LAPACK message or a LinAlgError
    wk = verified_weight(GD2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^weight inf at the node w = 0j$"):
            INFINITE_AT_ORIGIN[sampler](wk)


def test_canonical_dual_biorthogonality():
    gam = canonical_dual(EXPN, WK, 0.5, 8, 40)
    mus = adjoint_nodes(0.5, 1)
    K = kernel_atoms(EXPN, WK, mus, 40)
    residual = np.abs(K.conj() @ gam - (mus == 0)).max()
    assert residual <= 1e-6
    assert abs(residual - 1.4457190960686686e-07) <= 1e-10
    assert mus.size == 9
    at0 = (K.conj() @ gam)[np.abs(mus) == 0][0]
    assert abs(at0 - 1.0) <= 1e-12


def test_canonical_dual_wider_ring():
    gam = canonical_dual(EXPN, WK, 0.5, 8, 40)
    mus = adjoint_nodes(0.5, 2)
    K = kernel_atoms(EXPN, WK, mus, 40)
    residual = np.abs(K.conj() @ gam - (mus == 0)).max()
    assert residual <= 1e-3
    assert abs(residual - 5.392777653093831e-06) <= 1e-9


def test_biorth_guards():
    with pytest.raises(ValueError):
        canonical_dual(EXPN, registered_weight(PhiDescriptor.gamma_deriv(1)),
                       0.5, 4, 10)  # weight is -inf at the origin
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, M in BAD_LATTICES:
            with pytest.raises(ValueError, match="^lattice "):
                canonical_dual(EXPN, WK, s, M, 6)


_RNG = np.random.default_rng(5)
ATOM_POINTS = np.concatenate([
    [0.0, 1e-200, 1e-200j, -5.6j, 5.6 * np.exp(0.3j), 3.9 + 3.9j],
    _RNG.uniform(0.0, 5.6, 24) * np.exp(2j * math.pi * _RNG.uniform(size=24))])


def test_kernel_atoms_match_mpmath():
    # the library's a_p are taken as exact, so the test judges the powers
    # and the weight, not the coefficient table.  Entry p at z is within
    # (|z|^2 / 2 + 2p + 8) eps relative: |z|^2 / 2 from the rounded exponent
    # of sqrt(e^-|z|^2), about 2 eps per step of the running product (15 eps
    # at most measured; up to 121 eps with exp/log-built powers).  An entry
    # below the double range, such as (1e-200)^2, must be exactly 0
    a = phi_coeffs(EXPN, 40)
    want = np.array(exp_kernel_atom_rows(a, ATOM_POINTS))
    got = kernel_atoms(EXPN, WK, ATOM_POINTS, 40)
    tol = (np.abs(ATOM_POINTS)[:, None] ** 2 / 2 + 2 * np.arange(41) + 8) * np.finfo(float).eps
    assert np.all(np.abs(got - want) <= tol * np.abs(want))
    assert np.count_nonzero(want == 0) > 0


@pytest.mark.parametrize("rho, mu", [(2.0, 1.0), (1.5, 2.0)])
def test_kernel_atoms_read_phi_table(rho, mu):
    # for Mittag-Leffler families the entries are sqrt(W(|z|^2)) phi_p conj(z)^p
    # with phi_p from the family definition at 30 digits and the library's
    # weight taken as exact: within 1e-13 + (2p + 8) eps relative, the
    # table's error plus the running product's (1.4e-14 at most measured).
    # The points stay in |z| <= 2.5, where the weight is far above the
    # double range; (1e-200)^p and W(1e-400) must still give exact zeros
    desc = PhiDescriptor.mittag_leffler(rho, mu)
    wk = verified_weight(desc)
    zs = ATOM_POINTS * (2.5 / 5.6)
    sw = np.sqrt(wk.weight(np.abs(zs) ** 2))
    with mp.workdps(30):
        phis = _phis("mittag_leffler", {"rho": rho, "mu": mu}, 40)
        want = np.array([[complex(mp.mpf(float(w)) * c * mp.conj(mp.mpc(z)) ** p)
                          for p, c in enumerate(phis)] for z, w in zip(zs, sw)])
    got = kernel_atoms(desc, wk, zs, 40)
    tol = 1e-13 + (2 * np.arange(41) + 8) * np.finfo(float).eps
    assert np.all(np.abs(got - want) <= tol * np.abs(want))
    assert np.count_nonzero(want == 0) > 0


def test_kernel_atoms_origin_row():
    K = kernel_atoms(EXPN, WK, np.array([0.0 + 0.0j, 1.0 + 0.0j]), 6)
    a = phi_coeffs(EXPN, 6)
    assert K[0, 0] == pytest.approx(a[0], abs=1e-15)
    assert np.all(K[0, 1:] == 0.0)
    want = math.sqrt(WK.weight(1.0)) * a
    assert np.max(np.abs(K[1] - want)) <= 1e-15
