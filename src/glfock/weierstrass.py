"""Lattice products generalizing the Weierstrass sigma function.

Every factor is the normalized family's (phi_0 = 1), whichever descriptor
is passed; for it the pair

    psi_1 = 1/phi_1,        psi_2 = (phi_1^2 - phi_2) / phi_1^3

makes the elementary factor E(z) = (1 - z) phi(psi_1 z + psi_2 z^2) equal to
1 + O(z^3), the family analogue of the genus-2 Weierstrass factor (classical
case: psi = (1, 1/2), E(z) = (1-z) e^{z + z^2/2}).  Products of such factors
over the whole square lattice lam (Z + iZ), or over a perturbed window of
it Gamma and the unperturbed lattice outside, give entire functions
vanishing exactly on the node set; their growth against the weight kernel
is what the two-sided diagnostics measure.

All lattice products are accumulated as complex logarithms: they reach
magnitudes ~ e^{800} at |z| ~ 22, far outside double range, while every
quantity actually consumed downstream is a ratio.

The nodes far from every evaluation point collapse into power series, the
far-field idea of Greengard & Rokhlin (J. Comput. Phys. 73, 1987); only the
near nodes take the direct product.  One cached table per (family, N),
_window_series, serves every far node: the coefficients l_k, k <= _WIN_K,
of log E(w) = log(1 - w) + w + w^2/2 + log R, and the radius r of a disk
where one bound on |R - 1| is at most 1/2 (see _log_product for the tail
bound, and why no series reads past _WIN_K).  The infinite rest of the
lattice is sum l_k T_k z^k with T_k = sum nu^-k over the far Gaussian
integers.  _lattice_tail decides, once per (window, disk), the excluded
set E, the near nodes outside the window and the far radius, and caches
them with the T_k table, so the window size LatticeSpec.trunc_M does not
enter sigma.  R is not omega()'s Omega = (E - 1) / z^3, which slices E_N's
Maclaurin coefficients from _phi_table: (1 - w) times the far field's
Phi_N.  So does omega_bound, whose head is |e_3| + |e_4| + |e_5| of E_2.

A window node nu with quadratic denominator beta has the factor
E(z / nu; tau), tau = (nu / beta)^2 - 1.  EXP (phi = e^u, psi = (1, 1/2))
has the exact log factor log E(w; tau) = log(1 - w) + w + (1 + tau) w^2 / 2,
in both layers: its near field adds u for log phi(u), with no Horner, its
table is that closed form, l_k = -1/k for k >= 3, with r = 1, and the far
nodes of its window add sum l_k z^k sum nu^-k + (z^2 / 2) sum tau nu^-2.
So N does not enter EXP's sigma and g, as trunc_M does not enter sigma.
Every other family takes phi by Horner, its table by the recurrence, and
its whole window directly.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .core import PhiDescriptor, phi_coeffs, phi_eval, signs_logs
from .errors import ConvergenceError, DivergenceError
from .special import _horner, _power_rows, _square_window
if TYPE_CHECKING:  # annotations only, so importing this module loads no fock
    from .fock import WeightKernel

__all__ = [
    "PsiPair",
    "LatticeSpec",
    "PerturbedLattice",
    "RadiusBounds",
    "psi_pair",
    "weierstrass_factor",
    "omega",
    "omega_bound",
    "radius_bounds",
    "sigma_fn",
    "log_g_fn",
    "sigma_lower_diag",
    "two_sided_diag",
    "winding_zero_count",
]

# The lattice factors use phi cut after 80 terms.  For ML(2,1) at |z| ~ 2.65
# that cut differs from phi by about 2e-4 relative.  80 is the top degree;
# a near chunk starts Horner lower where its dropped tail is within _HORNER_TOL.
_PHI_PRODUCT_TERMS = 80
_NEAR_CELLS = 8192       # (node, point) cells per chunk of the direct product
_LOG_GROUP = 8           # consecutive near factors multiplied before one log
_BAND_GROUPS = 4         # groups per band of near nodes ordered by |node|
_HORNER_TOL = 2.0**-60   # dropped Horner tail of a near cell, absolute (phi_0 = 1)
_FAR_RATIO = 0.75        # rho: far nodes have |z / node| <= rho r, r the radius of _window_series
_FAR_TOL = 1e-17         # bound on the dropped far-field series tail, summed over nodes
_WIN_K = 256             # top degree of the far series table
_TAIL_TOL = 1e-18        # per-k bound on the series term of the nodes a lattice sum drops
_SUM_CELLS = 1 << 14     # terms per chunk of a direct lattice sum (256 kB of complex)
_SUM_NODES = 1 << 25     # most nodes of the direct lattice sums of one far-field table
# G_k less the sum of nu^-k over the nonzero nu with max(|m|, |n|) <= 2, k = 4, 8:
# G_4 = Gamma(1/4)^8 / (960 pi^2) and G_8 = 3 G_4^2 / 7 are the lattice sums
# of Z + iZ (DLMF 23.9), here rounded from 60 digits
_G_OUTSIDE_RING2 = (0.05331200215389754, -3.556713481048155e-05)
_OMEGA_TAIL = 48         # e^(-w - w^2/2) terms of R_N past 2N in _window_series (rest < 2e-32)
_WIND_LEVELS = tuple(128 << k for k in range(10))  # winding contour points, 128 to 2^16


# ---------------------------------------------------------------------------
# psi pair and the elementary factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiPair:
    psi1: float
    psi2: float


def _factor(desc: PhiDescriptor) -> tuple[PhiDescriptor, PsiPair]:
    """The normalized descriptor d (phi_0 = 1), whichever form desc is, and
    the psi pair making (1 - z) phi_d(psi1 z + psi2 z^2) vanish to 3rd order."""
    d = desc.normalize()
    s, l = signs_logs(d, 2)
    v = s * np.exp(l)
    p1, p2 = float(v[1]), float(v[2])
    try:
        psi1 = 1.0 / p1
        psi2 = (p1 * p1 - p2) / p1**3
    except ZeroDivisionError:  # phi_1 or its cube underflows to 0
        raise OverflowError(
            f"psi pair for {desc.family} outside double range (phi_1={p1!r})") from None
    # sanity: degree-1 and degree-2 coefficients of E must cancel exactly
    c1 = p1 * psi1 - 1.0
    c2 = p1 * psi2 + p2 * psi1 * psi1 - p1 * psi1
    scale = 1.0 + abs(psi1) + abs(psi2)
    if max(abs(c1), abs(c2)) > 1e-10 * scale:
        raise ArithmeticError("psi pair failed its third-order cancellation check")
    return d, PsiPair(psi1, psi2)


def psi_pair(desc: PhiDescriptor) -> PsiPair:
    """Coefficients making (1 - z) phi(psi1 z + psi2 z^2) vanish to 3rd order,
    phi the normalized family's."""
    return _factor(desc)[1]


def _phi_table(d: PhiDescriptor, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, e): the Maclaurin coefficients of Phi_N(w) = sum_{i<=N} phi_i p^i,
    p = psi1 w + psi2 w^2, and those e_0..e_(2N+1) of E_N = (1 - w) Phi_N,
    d normalized.  OverflowError where one is not a double (phi_n is 0
    where psi1^n is inf)."""
    ps = _factor(d)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.zeros((N + 1, 2 * N + 1))  # rows p^i
        P[0, 0] = 1.0
        for i in range(1, N + 1):
            P[i, 1:] = ps.psi1 * P[i - 1, :-1]
            P[i, 2:] += ps.psi2 * P[i - 1, :-2]
        phi = phi_coeffs(d, N) @ P
        e = np.append(phi, 0.0) - np.append(0.0, phi)
    if not np.isfinite(e).all():
        raise OverflowError(f"E series for {d.family} outside double range "
                            f"(psi1={ps.psi1!r})")
    return phi, e


def weierstrass_factor(desc: PhiDescriptor, z, N: int = 80):
    """E(z) = (1 - z) phi(psi1 z + psi2 z^2), truncating phi at N terms."""
    d, ps = _factor(desc)
    z = np.asarray(z, dtype=complex)
    u = ps.psi1 * z + ps.psi2 * z * z
    return (1.0 - z) * phi_eval(d, u, N)


def omega(desc: PhiDescriptor, z, N: int = 80):
    """Third-order remainder Omega(z) = (E(z) - 1) / z^3.

    Near the origin (|z| < 1e-3) the direct quotient loses all significance,
    so the degree-14 Maclaurin branch of E - 1 shifted by three slots (E_17's
    e_3..e_17, from _phi_table) is used instead; the same branch is the
    fallback when catastrophic cancellation (|E - 1| < 1e-12) is detected
    farther out.
    """
    d = _factor(desc)[0]
    zf = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(zf)
    series = np.abs(zf) < 1e-3
    far = ~series
    if np.any(far):
        zz = zf[far]
        E = weierstrass_factor(d, zz, N)
        cancel = np.abs(E - 1.0) < 1e-12
        if np.any(cancel & (np.abs(E - 1.0) > 0)):
            warnings.warn("omega: |E - 1| < 1e-12 away from 0; using series branch")
        out[far] = (E - 1.0) / zz**3
        series[far] = cancel
    if np.any(series):
        out[series] = _horner(_phi_table(d, 17)[1][17:2:-1], zf[series])
    return complex(out[0]) if np.ndim(z) == 0 else out


def omega_bound(desc: PhiDescriptor) -> float:
    """Disk bound sup_{|z|<=1} |Omega| <= |e3| + |e4| + |e5| + 2 sum_{n>=3} |phi_n| R^n,
    R = |psi1| + |psi2|.

    The head is |e3| + |e4| + |e5| of E_2 (_phi_table(d, 2)), the part that
    phi_1, phi_2 contribute; the tail uses |1 - z| <= 2 and stops at the
    first term below 1e-16 of the running sum.  Returns +inf when the tail
    fails to decay within 20000 terms (a radius-1 family, whose tail does
    not decay at R = 1); raises DivergenceError if R strictly exceeds the
    series radius.  The tail usually ends within tens of terms, so the
    coefficients are read in doubling prefixes of 64, 128, ... terms; each
    prefix is bitwise the start of the longer table.
    """
    d, ps = _factor(desc)
    R = abs(ps.psi1) + abs(ps.psi2)
    if not d.entire and R > 1.0:
        raise DivergenceError("psi radius exceeds the family's convergence radius")
    head = float(np.abs(_phi_table(d, 2)[1][3:]).sum())
    logR = math.log(R) if R > 0 else -math.inf
    tail = 0.0
    prev = math.inf
    lo, hi = 3, 64
    while lo <= hi:
        l = signs_logs(d, hi)[1]
        for n in range(lo, hi + 1):
            t = math.exp(l[n] + n * logR)
            tail += t
            if t < 1e-16 * (1.0 + tail):
                return head + 2.0 * tail
            if n > 64 and t >= prev * 0.999999:
                return math.inf  # non-decaying tail (radius boundary)
            prev = t
        lo, hi = hi + 1, min(2 * hi, 20000)
    return math.inf


@dataclass(frozen=True)
class RadiusBounds:
    r_lower: float          # |psi1| + |psi2|
    r_upper: float          # 1 / max_{window} |phi_n|^{1/n}
    upper_flag: str         # "finite" or "unbounded-trend"


def radius_bounds(desc: PhiDescriptor, N: int = 200) -> RadiusBounds:
    """Zero-free radius lower bound and series-radius estimate with trend flag."""
    if N < 16:
        raise ValueError("N too small")
    d, ps = _factor(desc)
    _, l = signs_logs(d, N)
    ns = np.arange(N // 2, N + 1)
    u = np.exp(l[ns] / ns)
    r_upper = float(1.0 / u.max())
    trend = float(u[-1] / u[0])
    flag = "finite" if trend > 0.9 else "unbounded-trend"
    return RadiusBounds(abs(ps.psi1) + abs(ps.psi2), r_upper, flag)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """Square lattice lam * (m + i n).  points() lists the window
    |m|, |n| <= trunc_M, the one a PerturbedLattice perturbs; sigma_fn and
    dist take the whole lattice."""

    lam: float
    trunc_M: int = 16

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be a finite number > 0")
        M = self.trunc_M
        if isinstance(M, bool) or not isinstance(M, numbers.Integral) or M < 1:
            raise ValueError(f"trunc_M must be an integer >= 1, got {M!r}")

    def points(self) -> np.ndarray:
        """The window's nodes, m-major: (m, n) at index (m + M)(2M + 1) + n + M."""
        return self.lam * _square_window(self.trunc_M).ravel()

    def dist(self, z) -> np.ndarray:
        """Distance to the infinite lattice lam (Z + iZ), where sigma
        vanishes (closed form via rounding)."""
        z = np.asarray(z, dtype=complex)
        m, n = np.round(z.real / self.lam), np.round(z.imag / self.lam)
        return np.abs(z - self.lam * (m + 1j * n))


class PerturbedLattice:
    """Finite node family z_{m,n} = lam (m + i n) + offset, |offset| <= Q.

    offsets holds one complex per node in lat.points() order (None: all 0),
    and pts and base keep that order, so the origin is at index size // 2.
    The separation q (minimal pairwise distance) is computed and verified
    positive at construction.  q and dist read only the window cells whose
    base lies within u + qhat of z, u a bound on the distance to the
    nearest node and qhat = max|offset| (see _nearest): time and memory
    linear in the points.
    """

    def __init__(self, lat: LatticeSpec, offsets: Optional[np.ndarray] = None, Q: float = 0.0):
        if not 0 <= Q < math.inf:
            raise ValueError("Q must be a finite number >= 0")
        self.lat = lat
        self.base = lat.points()
        off = np.zeros_like(self.base) if offsets is None else np.asarray(offsets, dtype=complex)
        if off.shape != self.base.shape:
            raise ValueError(f"offsets must hold one value per node ({self.base.size})")
        if not np.isfinite(off).all():
            raise ValueError("offsets must be finite")
        if np.any(np.abs(off) > Q):
            raise ValueError("an offset exceeds the stated bound Q")
        self.pts = self.base + off
        self._qhat = float(np.abs(self.pts - self.base).max())
        self.q = float(self._nearest(self.pts, skip_self=True).min())
        if not (self.q > 0):
            raise ValueError("perturbed nodes collide: q = 0")

    @classmethod
    def perturb(cls, lat: LatticeSpec, Q: float, seed: int) -> "PerturbedLattice":
        """Uniform-in-disk offsets of radius < Q, reproducible from seed."""
        rng = np.random.default_rng(seed)
        size = (2 * lat.trunc_M + 1) ** 2
        r = 0.999 * Q * np.sqrt(rng.uniform(size=size))
        th = rng.uniform(0.0, 2.0 * np.pi, size=size)
        return cls(lat, r * np.exp(1j * th), Q)

    def _nearest(self, z: np.ndarray, skip_self: bool = False) -> np.ndarray:
        """Distance from each z to its nearest node; skip_self (z is pts)
        leaves out each node's distance to itself.

        A cell search over the window indices (Bentley, Stanat & Williams,
        Inf. Process. Lett. 6, 1977).  With b the window base nearest z, a
        node lies within u = |z - b| + qhat of z (u + lam for skip_self: a
        neighbour of b is not z's own base), and a node that near has its
        base within rho = u + qhat.  One pass takes, in each column m, the
        rows |lam n - Im z| <= h, h^2 = rho^2 - (lam m - Re z)^2, with rho
        padded by 1e-9 of the scale against rounding (a cell more only
        costs time; a bound that is not a double takes the whole column or
        window).  Each value is the min of the same |z - node| terms as the
        all-pairs pass, so bitwise the same; a z that is not finite gets
        nan or inf, as there.
        """
        M, lam = self.lat.trunc_M, self.lat.lam
        out = np.abs(z - self.pts[0])  # nan or inf where z is not finite
        f = np.flatnonzero(np.isfinite(z))
        zf = z[f]
        x, y = zf.real, zf.imag
        with np.errstate(over="ignore", invalid="ignore"):
            b = lam * (np.fmin(np.fmax(np.rint(x / lam), -M), M)
                       + 1j * np.fmin(np.fmax(np.rint(y / lam), -M), M))
            rho = np.abs(zf - b) + (2 * self._qhat + (lam if skip_self else 0.0))
            rho += 1e-9 * (rho + np.abs(x) + np.abs(y) + lam * (M + 1))
            col, i = _runs(np.ceil((x - rho) / lam), np.floor((x + rho) / lam), M)
            dx = np.abs(x[col] - lam * i)
            h = np.sqrt(np.maximum((rho[col] - dx) * (rho[col] + dx), 0.0))
            cell, j = _runs(np.ceil((y[col] - h) / lam), np.floor((y[col] + h) / lam), M)
        owner = col[cell]
        k = ((i[cell] + M) * (2 * M + 1) + j + M).astype(np.intp)
        d = np.abs(zf[owner] - self.pts[k])
        if skip_self:
            d[k == f[owner]] = math.inf
        out[f] = np.minimum.reduceat(d, np.searchsorted(owner, np.arange(f.size)))
        return out

    @property
    def z00(self) -> complex:
        return complex(self.pts[self.pts.size // 2])

    def nonzero(self):
        return np.delete(self.pts, self.pts.size // 2), np.delete(self.base, self.base.size // 2)

    def point(self, m: int, n: int) -> complex:
        M = self.lat.trunc_M
        if max(abs(m), abs(n)) > M:
            raise KeyError((m, n))
        return complex(self.pts[(m + M) * (2 * M + 1) + n + M])

    def dist(self, z) -> np.ndarray:
        """Distance to the nearest node of this finite family; g also
        vanishes on the lattice outside the window (see two_sided_diag)."""
        return self._nearest(np.atleast_1d(np.asarray(z, dtype=complex)))


def _runs(lo: np.ndarray, hi: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The integer runs from lo[t] to hi[t], clipped to [-M, M] (a nan end
    to the window's edge), flattened in order of t: owner t and value."""
    lo, hi = np.fmax(lo, -M), np.fmin(hi, M)
    n = np.maximum(hi - lo + 1, 0).astype(np.intp)
    t = np.repeat(np.arange(n.size), n)
    return t, lo[t] + (np.arange(t.size) - np.repeat(np.cumsum(n) - n, n))


# ---------------------------------------------------------------------------
# lattice products (log accumulated)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _window_series(d: PhiDescriptor, N: int) -> tuple[float, Optional[np.ndarray]]:
    """(r, ell), the far-field table of every lattice product; read-only,
    built once per (d, N), d normalized.

    ell[k], k <= _WIN_K, are the Maclaurin coefficients l_k of log E_N(w),
    from n l_n = n e_n - sum_{k<n} k l_k e_(n-k), e_0 = 1, with the e_n of
    _phi_table.  OverflowError where one of those is not a double.

    r <= 1 is a radius where a bound on |R_N - 1| over |w| <= r is at most
    1/2 (0 where none is, and then ell is None): bisection to 2^-24 that
    keeps the end where the bound holds, as a closer radius would move the
    far test by less than 1e-7 relative.  Here R_N = Phi_N e^(-w - w^2/2),
    Phi_N = E_N / (1 - w) of degree 2N, so that
    log E_N = log(1 - w) + w + w^2/2 + log R_N (see _log_product).  With
    j a_j = -a_(j-1) - a_(j-2) the coefficients of e^(-w - w^2/2), those
    q_j of R_N through degree D = 2N + _OMEGA_TAIL are Phi_N * a, and the
    bound is sum_{j>=1} |q_j| r^j, plus sum_j |Phi_j| r^j sum_{j>D-2N} |a_j| r^j
    for the degrees past D (the a_j past D enter as their Cauchy bound
    e^4 2^-j on |w| = 2), plus a rounding allowance of (2D + 2N) eps
    sum_j |Phi_j| r^j sum_j |a_j| r^j.  It is one polynomial in r with
    coefficients >= 0, so it grows with r; the cap at 1 is the singularity
    of log(1 - w) at w = 1.  At N = 80, r = 1 for EXP, ML(2,1), SG(1,2)
    and Dunkl(1/2), 0.909 for GD(2), 0.771 for the backward shift, 0.770
    for GD(3) and 0.669 for GD(1).

    EXP skips all of this: its factor (1 - w) e^(w + w^2 / 2) is E itself
    for every N, so ell is the closed form l_k = -1/k for k >= 3 and 0
    below, with r = 1 (the recurrence gives the same table within 6e-17,
    and the bound r = 1.0 too).
    """
    if d.family == "exponential":
        ell = np.zeros(_WIN_K + 1)
        ell[3:] = -1.0 / np.arange(3, _WIN_K + 1)
        ell.setflags(write=False)
        return 1.0, ell
    phi, e = _phi_table(d, N)
    D = 2 * N + _OMEGA_TAIL
    a = [1.0, -1.0]
    for j in range(2, D + 1):
        a.append(-(a[j - 1] + a[j - 2]) / j)
    a = np.array(a)
    weight = np.abs(a) * ((2 * D + 2 * N) * np.finfo(float).eps)
    weight[_OMEGA_TAIL + 1:] += np.abs(a[_OMEGA_TAIL + 1:])
    weight[0] += math.exp(4.0) * 0.5**D
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.convolve(np.abs(phi), weight)
        bound[1:D + 1] += np.abs(np.convolve(a, phi)[1:D + 1])
    degs = np.arange(bound.size, dtype=float)
    lo, hi = (1.0, 1.0) if bound @ np.ones(bound.size) <= 0.5 else (0.0, 1.0)
    while hi - lo > 2.0**-24:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound @ mid**degs <= 0.5 else (lo, mid)
    if lo == 0.0:
        return 0.0, None
    e = np.append(e, np.zeros(_WIN_K))[:_WIN_K + 1]
    ell = np.zeros_like(e)
    k = np.arange(1.0, _WIN_K + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # |l_k| ~ r^-k where r is small
        for n in range(1, _WIN_K + 1):
            ell[n] = e[n] - (k[:n - 1] * ell[1:n]) @ e[n - 1:0:-1] / n
    ell.setflags(write=False)
    return lo, ell


def _octant(lo2: int, hi2: int, M: int, cells: int):
    """The Gaussian integers nu = m + i n with M < m, 0 <= n <= m and
    lo2 < m^2 + n^2 <= hi2, in chunks of whole rows m of at most about
    cells nodes.  Each chunk comes with the weight of its nodes in a sum
    over a set symmetric under nu -> i nu and nu -> conj(nu): 4 on the axis
    n = 0 and the diagonal n = m, 8 between them."""
    # floor(sqrt(x)) of an int64 x < 2^50 by truncating the rounded square
    # root: where x + 1 is a square k^2, sqrt(x) < k - 1/(2k) rounds below k
    m = np.arange(M + 1, math.isqrt(hi2) + 1, dtype=np.int64)
    top = np.minimum(np.sqrt(hi2 - m * m).astype(np.int64), m)
    low = lo2 - m * m
    bot = np.where(low >= 0, np.sqrt(np.maximum(low, 0)).astype(np.int64) + 1, 0)
    count = np.maximum(top - bot + 1, 0)
    ends = np.cumsum(count)
    # np.unique would import a numpy submodule (about 15 ms in a cold process)
    cuts = sorted(set(np.searchsorted(ends, np.arange(0, ends[-1:].sum(), cells), "right").tolist()))
    for i, j in zip(cuts, cuts[1:] + [m.size]):
        c = count[i:j]
        mm = np.repeat(m[i:j], c)
        nn = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c - bot[i:j], c)
        yield mm + 1j * nn, np.where((nn == 0) | (nn == mm), 4.0, 8.0)


@lru_cache(maxsize=64)
def _lattice_tail(M: int, R2: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(R, tau, near) for sigma's excluded set E = {max(|m|, |n|) <= M} u
    {m^2 + n^2 <= R2} of Gaussian integers, the one place that decides E;
    read-only, built once per (M, R2).  near: the nodes of E outside the
    window, m-major, which _log_product takes directly (times lam).
    R = max(sqrt(R2 + 1), M + 1) <= |nu| on the far set F, the Gaussian
    integers outside E; tau_k = R^k T_k for k = 4, 8, ..., K, where
    T_k = sum nu^-k over F.  E is i-symmetric, so T_k = 0 unless 4 | k, and
    conjugation symmetric, so T_k is real.

    _log_product takes R2 = floor((max|z| / (lam rho r))^2), r the tau = 0
    radius of _window_series, so t = rho sqrt(R2 + 1) > max|z| / (lam r) and the
    series term k of a far node is at most (1 + log 2) (t / |nu|)^k, with
    t / |nu| <= x = t / R <= rho (see _log_product).  Counting the Gaussian integers in an
    annulus by the area of their unit cells, and summing by parts,
    sum_{|nu| >= R} |nu|^-k <= A_k(R) = 2 pi R^(2-k) / (k - 2)
    (1 + c (2k - 1)(k - 2) / ((k - 1) R)), c = sqrt(2) / 2.
      - K is the least multiple of 4 whose dropped tail, at most
        (1 + log 2) t^(K+4) A_(K+4)(R) / (1 - x^4), is below _FAR_TOL.
      - One m-major grid max(|m|, |n|) <= L holds E and the rings
        max(|m|, |n|) <= 2.  T_4 and T_8 are the literal G_k less the sums
        over the rings (_G_OUTSIDE_RING2), plus the ring nodes outside E,
        less the nodes of E beyond the rings, in one math.fsum over the
        grid's quadrant m >= 1, n >= 0 with weight 4 (a node's rotations
        share nu^4), so their rounding is that of the terms (about
        eps |nu|^-k each) and not that of G_4 ~ 3.15, which (|z| / lam)^4
        would multiply.
      - T_k for k >= 12 are direct sums over the nodes of F with
        |nu| <= R_k, where (1 + log 2) t^k A_k(R_k) < _TAIL_TOL, over one
        octant (_octant) in chunks of whole rows; a chunk takes the running
        products of (R / nu)^4 up to the last k whose R_k reaches it.  Most
        nodes lie beyond R_16 and take T_12 alone.
        ConvergenceError where they would take more than _SUM_NODES nodes
        (max|z| / (lam r) above about 63).
    """
    c = math.sqrt(0.5)
    R, t = max(math.sqrt(R2 + 1), M + 1.0), _FAR_RATIO * math.sqrt(R2 + 1)

    def bend(k, r):  # A_k(r) r^(k-2) (k - 2) / (2 pi)
        return 1.0 + c * (2 * k - 1) * (k - 2) / ((k - 1) * r)

    def log_term(k, r):  # log of (1 + log 2) t^k A_k(r) / bend(k, r)
        return (math.log(2.0 * math.pi * (1.0 + math.log(2.0)) / (k - 2))
                + k * math.log(t) + (2 - k) * math.log(r))

    K = 4
    while log_term(K + 4, R) + math.log(bend(K + 4, R)) >= math.log(_FAR_TOL * (1.0 - (t / R)**4)):
        K += 4
    # R_k^2 as integers, non-increasing in k, for k = 12, ..., K
    ks = range(12, K + 1, 4)
    hi2 = []
    for k in ks:
        Rk = math.exp((log_term(k, 1.0) - math.log(_TAIL_TOL)) / (k - 2))
        Rk = max(Rk * bend(k, Rk) ** (1.0 / (k - 2)), R)
        hi2.append(int(Rk * Rk) + 1)
    hi2 = np.maximum.accumulate(hi2[::-1])[::-1]
    if math.pi / 8 * hi2[:1].sum() > _SUM_NODES:
        raise ConvergenceError(f"the lattice far field at max|z| / (lam r) ~ {t:.4g} "
                               f"needs direct sums over {math.pi / 8 * hi2[0]:.3g} nodes")
    L = max(M, math.isqrt(R2), 2)
    nu = _square_window(L)
    box = np.maximum(abs(nu.real), abs(nu.imag))
    excl = (nu.real ** 2 + nu.imag ** 2 <= R2) | (box <= M)
    near = nu[excl & (box > M)]
    near.setflags(write=False)
    # T_4, T_8 over the quadrant m >= 1, n >= 0
    sign = ((box <= 2).astype(float) - excl)[L + 1:, L:].ravel()
    w = 1.0 / (nu[L + 1:, L:].ravel() ** 2) ** 2
    tau = np.zeros(K // 4)
    for j, (G, p) in enumerate(zip(_G_OUTSIDE_RING2, (w, w * w))):
        if j < tau.size:
            tau[j] = math.fsum([G, *(4.0 * sign * p.real)[sign != 0].tolist()]) * R ** (4 * j + 4)
    # T_k, k >= 12: the nodes within R_16, which take several powers, then
    # those only R_12 reaches, in chunks of larger rows
    edges = [R2, *hi2[1:2].tolist(), *hi2[:1].tolist()]
    for lo2, top2, rows in zip(edges, edges[1:], (len(ks) + 2, 3)):
        for nu, weight in _octant(lo2, top2, M, _SUM_CELLS // rows):
            r2 = nu.real**2 + nu.imag**2
            J = int(np.count_nonzero(hi2 >= r2.min()))
            w = R / nu
            w *= w
            w *= w
            # rows w^3 .. w^(J+2), the terms of T_12 .. T_(8+4J), each summed
            # over the nodes within its R_k
            P = _power_rows(w, J + 2)[3:]
            tau[2:J + 2] += np.where(r2 <= hi2[:J, None], P.real, 0.0) @ weight
    tau.setflags(write=False)
    return R, tau, near


def _near_logs(desc: PhiDescriptor, z: np.ndarray, nodes: np.ndarray,
               dens: np.ndarray, N: int) -> np.ndarray:
    """sum over nodes of log[(1 - z/node) phi(psi1 z/node + psi2 z^2/den^2)],
    every node taken directly: _log_product passes the near nodes, those
    of the window that its series does not take and the lattice nodes
    outside the window within max|z| / (rho r).

    Returns complex logs; -inf real part where z hits a node exactly.  The
    imaginary part is a sum of principal arguments, so it is defined only
    mod 2 pi (exp of the result is the product itself).

    The nodes are ordered by |node| (stable) and cut into bands of
    _BAND_GROUPS groups of _LOG_GROUP nodes; one loop runs over
    (band, point chunk) with at most about _NEAR_CELLS (node, point) cells
    per chunk.  For EXP, log phi(u) = u: the group products hold the
    factors 1 - z/node alone and the chunk's sum of u is added to their
    logs, with no Horner pass and no tail table, and N does not enter.

    Every other family takes phi(u) by one Horner pass per chunk.  A chunk
    with a = max|u| over its non-nan cells has the tail
    t(n) = sum_{n<m<=N} |phi_m| a^m (from the signs_logs table), and Horner
    starts at the least degree n with t(n) <= _HORNER_TOL / (1 + t(0)); an
    outer band, with its small |u|, starts lower than an inner one.  So
    every cell drops a tail of at most 2^-60, absolute.  The pass's own
    rounding bound, gamma_2n sum |phi_k| |u|^k (see _horner), exceeds 2^-52
    at n >= 1, as the sum holds phi_0 = 1 (_factor normalizes): the cut
    adds at most 2^-8 of the error the pass may make anyway, also where
    |phi(u)| is small.

    The factors of each group are multiplied, and each group product takes
    one complex log.  A point that hits a node of the band, or where some
    group product of the band is not a normal double (inf, nan, 0 or
    subnormal), takes the band's per-cell sum of log(1 - z/node) + log(phi)
    instead (for EXP, the sum of log(1 - z/node), then the sum of u).
    """
    d, ps = _factor(desc)
    order = np.argsort(np.abs(nodes), kind="stable")
    nodes, dens = nodes[order], dens[order]
    exact = d.family == "exponential"  # log phi(u) = u
    if not exact:
        phis = phi_coeffs(d, N)
        log_phis, degs = signs_logs(d, N)[1][1:], np.arange(1, N + 1)
    out = np.zeros(z.size, dtype=complex)
    lo, hi = np.finfo(float).tiny, np.finfo(float).max
    band = _BAND_GROUPS * _LOG_GROUP
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for b in range(0, nodes.size, band):
            bnodes, bdens = nodes[b:b + band], dens[b:b + band]
            starts = np.arange(0, bnodes.size, _LOG_GROUP)
            # chunks of >= 2 points: numpy sums a lone column pairwise and
            # wider ones row by row, so the bits do not depend on the chunking
            step = max(2, _NEAR_CELLS // bnodes.size)
            for idx in np.array_split(np.arange(z.size), max(1, z.size // step)):
                zz = z[idx]
                Z1 = zz[None, :] / bnodes[:, None]
                U = ps.psi1 * Z1 + ps.psi2 * (zz * zz)[None, :] / (bdens[:, None] ** 2)
                if exact:  # the group products hold 1 - z/node alone
                    log_phi = U.sum(axis=0)
                else:
                    # fmax: a nan point (from a nan z) leaves its chunk's cut alone
                    loga = np.log(np.fmax.reduce(np.abs(U), axis=None, initial=0.0))
                    t = np.append(np.exp(log_phis + degs * loga)[::-1].cumsum()[::-1], 0.0)
                    n = int(np.argmax(t <= _HORNER_TOL / (1.0 + t[0])))
                    V = _horner(phis[n::-1], U)
                np.subtract(1.0, Z1, out=Z1)
                F = Z1 if exact else np.multiply(Z1, V, out=U)
                P = np.multiply.reduceat(F, starts, axis=0)
                logs = np.log(P).sum(axis=0)
                mag = np.abs(P)
                hit = zz[None, :] == bnodes[:, None]  # z/z may miss 1 by an ulp
                bad = ~((mag >= lo) & (mag <= hi)).all(axis=0) | hit.any(axis=0)
                if bad.any():  # per-cell logs over the chunk, as before grouping
                    lg = np.log(Z1)
                    lg[hit] = -np.inf
                    cells = lg.sum(axis=0)
                    logs[bad] = (cells if exact else cells + np.log(V).sum(axis=0))[bad]
                if exact:
                    logs += log_phi
                out[idx] += logs
    return out


def _powers(w: np.ndarray, K: int) -> np.ndarray:
    """Rows w^0..w^K, by doubling: row k takes about 2 log2(k) roundings,
    where special._power_rows' running product takes k - 1.  Only
    _window_far reads it, and two_sided_diag's bits rest on its rounding."""
    P = np.empty((K + 1, w.size), dtype=w.dtype)
    P[0] = 1.0
    h, wh = 1, w
    while h <= K:
        np.multiply(P[:min(h, K + 1 - h)], wh, out=P[h:min(2 * h, K + 1)])
        h, wh = 2 * h, wh * wh
    return P


def _least(ok: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least n in [lo, hi] with ok(n), ok false then true, by bisection
    (hi where ok holds nowhere)."""
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid + 1, hi)
    return lo


def _window_far(d: PhiDescriptor, z: np.ndarray, zmax: float, nodes: np.ndarray,
                dens: np.ndarray, N: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(far, logs): the window nodes that the series of _window_series
    takes, every node with max|z| / |nu| <= rho, and the sum of log E over
    them at z (None where it takes none).  Only EXP's window has far nodes.
    See _log_product for the degree K and the bound."""
    if d.family != "exponential":
        return np.zeros(nodes.size, dtype=bool), None
    x = zmax / np.abs(nodes)
    far = x <= _FAR_RATIO
    if not far.any():
        return far, None
    x = x[far]
    K = _least(lambda K: x**(K + 1) @ (1.0 / (1.0 - x)) <= _FAR_TOL, 2, _WIN_K)
    nu, beta = nodes[far], dens[far]
    R = float(np.abs(nu).min())
    w = R / nu
    step = max(1, _SUM_CELLS // (K + 1))
    mu = sum(_powers(w[i:i + step], K).sum(axis=1) for i in range(0, nu.size, step))
    coef = _window_series(d, N)[1][:K + 1] * mu
    tau = (nu - beta) * (nu + beta) / (beta * beta)
    coef[2] += 0.5 * (tau @ (w * w))
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite z
        return far, _horner(coef[::-1], z / R)


def _log_product(desc: PhiDescriptor, z: np.ndarray, lam: float, M: int,
                 nodes: np.ndarray, dens: np.ndarray, N: int) -> np.ndarray:
    """sum of log E_N over the whole lattice lam (Z + iZ) less its origin:
    the window max(|m|, |n|) <= M at the given nodes and denominators (the
    factor of node (m, n) is (1 - z/node) phi(psi1 z/node + psi2 z^2/den^2),
    see _near_logs), and every node outside it at lam (m + i n).

    One cached table, _window_series, serves every far node: the
    Maclaurin coefficients l_k of log E_N(w), w = z / nu, and a radius
    r <= 1 where |log R_N(w)| <= log 2 on |w| <= r,
    R_N = E_N / (1 - w) e^(-w - w^2/2), so that
    log E_N = log(1 - w) + w + w^2/2 + log R_N.  E_N = 1 + O(w^3)
    (N >= 2), so l_1 = l_2 = 0, and l_k = -1/k + lambda_k for k >= 3 with
    |lambda_k| <= log 2 / r^k (Cauchy); as r <= 1, |l_k| <= (1 + log 2) / r^k
    for every k.

    The nodes outside the window with |node| <= max|z| / (rho r) are near
    too, rho = _FAR_RATIO: _lattice_tail lists them and sets the far radius
    R, so it alone decides the excluded set (window and disk).  Every other
    node nu is far: the far field, the infinite rest of the lattice, is
    sum_{k<=K} l_k (z / lam)^k T_k with T_k = sum_far nu^-k, cached with
    them once per excluded set with K and its tail bound; wherever it
    builds, K <= 160, within the l_k table
    (test_lattice_tail_degree_within_the_table).  A call adds one K/4-term
    Horner in (z / (lam R))^4 to its near product, whatever the window.

    A window node nu with denominator beta has the factor
    (1 - w) phi_N(psi1 w + psi2 (1 + tau) w^2), tau = (nu / beta)^2 - 1.
    Only EXP's splits, log E(w) + tau w^2 / 2 exactly, so only EXP's
    window has far nodes (_window_far): they collapse into
    sum_{k<=K} l_k z^k sum_far nu^-k + (z^2 / 2) sum_far tau nu^-2, with
    r = 1.  A window node is far where x = max|z| / |nu| <= rho; there the
    series terms it drops past K sum to at most x^(K+1) / (1 - x), as
    |l_k| = 1/k, and K >= 2 is the least degree whose bound, summed over
    the far nodes, is at most _FAR_TOL.  At K = _WIN_K that bound is below
    _FAR_TOL for up to 1e12 far nodes (test_window_far_tail_within_the_table),
    so K lies within the table.  A far node is never hit (|w| < 1).  On
    every call, the moments R^k sum_far nu^-k are the row sums of power
    tables of at most _SUM_CELLS cells, and the tau term is one sum.  Every
    other family takes its whole window directly.
    ConvergenceError where r is 0 (no radius meets the bound), or where
    the lattice far field's direct sums would be too long
    (max|z| / (lam r) above about 63).
    A nan or infinite z is left out of max|z| and gives nan.
    """
    d = desc.normalize()
    r, ell = _window_series(d, N)
    if r == 0.0:
        raise ConvergenceError(f"no radius where log E_N of {d.family} converges: "
                               "the lattice far field cannot be summed")
    a = np.abs(z)
    zmax = float(a[np.isfinite(a)].max(initial=0.0))
    R2 = int((zmax / (lam * _FAR_RATIO * r)) ** 2)
    R, tau, near = _lattice_tail(M, R2)
    extra = lam * near
    far, logs = _window_far(d, z, zmax, nodes, dens, N)
    out = _near_logs(d, z, np.concatenate([nodes[~far], extra]),
                     np.concatenate([dens[~far], extra]), N)
    if logs is not None:
        out += logs
    coef = ell[4:4 * tau.size + 1:4] * tau
    with np.errstate(invalid="ignore"):  # an infinite z
        t = (z / (lam * R)) ** 4
        return out + _horner(np.append(coef[::-1], 0.0), t)


def sigma_fn(desc: PhiDescriptor, z, lat: LatticeSpec, N: int = _PHI_PRODUCT_TERMS):
    """sigma(z) = z prod E_N(z / nu) over every nonzero nu of the infinite
    lattice lat.lam (Z + iZ): the near nodes directly, the rest as the far
    series of _log_product.  lat.trunc_M does not enter.  Past double
    range a part is +-inf, signed as cos and sin of arg sigma, never nan.

    For EXP every factor is the exact (1 - w) e^(w + w^2/2), so sigma is the
    classical Weierstrass sigma of the lattice and N does not enter: within
    4.3e-12 of theta in log|sigma| up to |z| / lam = 12 (six angles), most
    of it the rounding of _lattice_tail's T_8.

    Only for a zero-free phi (EXP) are its zeros just the nodes: inside |z| = 2.5
    ML(2,1) has 29 (phi = 0 at 1.3548 +- 1.9915i), GD(2) 45, GD(1) 69; 21 nodes
    (winding_zero_count, the same as for the M = 12 window product).
    """
    zf = np.atleast_1d(np.asarray(z, dtype=complex))
    none = np.zeros(0, dtype=complex)
    logs = _log_product(desc, zf, lat.lam, 0, none, none, N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val = zf * np.exp(logs)
        redo = np.isfinite(logs) & ~np.isfinite(val)  # overflow: a part may be inf - inf = nan
        if redo.any():
            val[redo] = np.exp(logs + np.log(zf))[redo]
        val = np.where(logs.real == -np.inf, 0.0, val)  # z on a node
    return complex(val[0]) if np.ndim(z) == 0 else val


def log_g_fn(desc: PhiDescriptor, z, gamma: PerturbedLattice,
             N: int = _PHI_PRODUCT_TERMS) -> np.ndarray:
    """Complex log of g(z; Gamma); -inf real part at the nodes.

    The printed form: the linear factor takes the perturbed node z_{m,n},
    the quadratic denominator inside phi the base-lattice point lam_{m,n}.
    Outside the window the lattice is unperturbed and infinite.  For EXP,
    whose log factor is exact (log(1 - w) + w + (1 + tau) w^2 / 2,
    tau = (z_{m,n} / lam_{m,n})^2 - 1), _log_product takes directly the
    window nodes within max|z| / rho of the origin and the rest through
    one series in z whose moments are formed on every call, and N does not
    enter.  Every other family takes its whole window directly.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    nodes, base = gamma.nonzero()
    logs = _log_product(desc, z, gamma.lat.lam, gamma.lat.trunc_M, nodes, base, N)
    with np.errstate(divide="ignore"):
        return logs + np.log(z - gamma.z00)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _grid_gate(wk: WeightKernel, grid, own: Callable, name: str, why: str):
    """Grid refusals of the diagnostic `name`, in order: a point that is not
    finite; own(grid), its own check and value; a point where W is 0 (why).
    Returns (grid, own's value, |W|), with a warning where W is signed."""
    grid = np.atleast_1d(np.asarray(grid, dtype=complex))
    if not np.isfinite(grid).all():
        raise ValueError(f"grid point {grid[~np.isfinite(grid)][0]} is not finite")
    value = own(grid)
    w = wk.weight(np.abs(grid) ** 2)
    if np.any(w == 0):
        raise ValueError(f"weight is 0 at grid point {grid[np.argmax(w == 0)]}: {why}")
    if np.any(w < 0):
        warnings.warn(f"signed weight in {name}; using |W|")
    return grid, value, np.abs(w)


@dataclass
class SigmaLowerReport:
    z: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    min_ratio: float
    feasible: bool


def sigma_lower_diag(desc: PhiDescriptor, wk: WeightKernel, lat: LatticeSpec,
                     grid, N: int = _PHI_PRODUCT_TERMS) -> SigmaLowerReport:
    """Per-point ratio |W(|z|^2) sigma(z)| / dist(z, Lambda) over a grid.

    Positivity of the minimum is the numerical shadow of the lower bound
    |K(-|z|^2) sigma(z)| >= c * dist(z, Lambda) near the lattice.  A signed
    weight (GD(1), GD(3)) enters as |W|, with a warning.  ValueError, before
    sigma is formed, at a grid point that is not finite, is a lattice point
    or where W is 0 (an underflow, or a zero of a signed weight).
    """
    def dist(grid):
        d = lat.dist(grid)
        if np.any(d == 0):
            raise ValueError("grid touches a lattice point; ratio undefined there")
        return d
    grid, d, w = _grid_gate(wk, grid, dist, "sigma_lower_diag", "the ratio bounds nothing there")
    lhs = w * np.abs(sigma_fn(desc, grid, lat, N))
    ratio = lhs / d
    mn = float(ratio.min())
    return SigmaLowerReport(grid, lhs, d, ratio, mn, mn > 0.0)


@dataclass
class TwoSidedReport:
    c: float
    c1: float
    c2: float
    feasible: bool
    z: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray


def two_sided_diag(desc: PhiDescriptor, wk: WeightKernel, gamma: PerturbedLattice,
                   grid, N: int = _PHI_PRODUCT_TERMS) -> TwoSidedReport:
    """Fit constants for  c1 e^{-c|z|log|z|} d(z) <= W|g| <= c2 e^{c|z|log|z|}.

    c is chosen on the grid 0, 0.05, ..., 4 to minimize the log-corridor
    between the two envelopes; c1, c2 are then the extreme admissible
    constants.  The columns, one entry per grid point z, are lhs = lower
    envelope, rhs = upper envelope and ratio = W|g| / rhs (so feasibility
    means ratio <= 1 and lhs <= W|g|).  d(z) is the distance to the zeros of
    g: the nodes of Gamma and the lattice outside its window.  ValueError at
    a grid point that is not finite, is a zero of g or where W is 0 (an
    underflow, or a zero of a signed weight).
    """
    def log_g(grid):
        logs = log_g_fn(desc, grid, gamma, N)
        if np.any(~np.isfinite(logs.real)):
            raise ValueError("grid touches a zero of g")
        return logs
    grid, logs, w = _grid_gate(wk, grid, log_g, "two_sided_diag", "no envelope fits log W there")
    logV = np.log(w) + logs.real
    # g vanishes on Gamma and on lam (Z + iZ) outside the window: the nearest
    # such node has |m| > M and n = rint(Im z / lam), or the same with m, n swapped
    M, lam = gamma.lat.trunc_M, gamma.lat.lam
    m, n = np.rint(grid.real / lam), np.rint(grid.imag / lam)
    m_out = np.copysign(np.maximum(np.abs(m), M + 1), grid.real)
    n_out = np.copysign(np.maximum(np.abs(n), M + 1), grid.imag)
    d = np.minimum.reduce([gamma.dist(grid), np.abs(grid - lam * (m_out + 1j * n)),
                           np.abs(grid - lam * (m + 1j * n_out))])
    az = np.abs(grid)
    t = az * np.log(np.maximum(az, 1e-300))
    low = logV - np.log(d)
    up = logV
    cs = np.linspace(0.0, 4.0, 81)[:, None]
    c = float(cs[np.argmin((up - cs * t).max(axis=1) - (low + cs * t).min(axis=1)), 0])
    logc1 = float((low + c * t).min())
    logc2 = float((up - c * t).max())
    c1, c2 = math.exp(logc1), math.exp(logc2)
    lower_env = c1 * np.exp(-c * t) * d
    upper_env = c2 * np.exp(c * t)
    V = np.exp(logV)
    feasible = (np.isfinite([c1, c2]).all() and c1 > 0
                and bool(np.all(V >= lower_env * (1 - 1e-9)))
                and bool(np.all(V <= upper_env * (1 + 1e-9))))
    return TwoSidedReport(c, c1, c2, bool(feasible), grid, lower_env, upper_env,
                          V / upper_env)


# ---------------------------------------------------------------------------
# zero counting
# ---------------------------------------------------------------------------

def winding_zero_count(fn: Callable, radius: float) -> int:
    """Zero count inside |z| = radius by the argument principle on nested
    contours (Delves & Lyness 1967): 128 points 2 pi j / n, then doublings
    that call fn once, on the n new midpoints; ValueError where fn is 0 or
    not finite.  A level passes when every wrapped argument step is below
    pi/2, and must then land within 1e-2 of an integer.  Its count is taken
    when every step is below pi/4 and the level before passed with the same
    count, or at the top level (2^16 points); else ConvergenceError.
    Aliasing passes: z**10000 on |z| = 1 counts 16 (steps pi/4, pi/8).
    """
    vals, prev = None, None
    for n in _WIND_LEVELS:
        j = np.arange(n) if vals is None else np.arange(1, n, 2)
        new = np.asarray(fn(radius * np.exp(2j * np.pi * j / n)))
        if np.any(new == 0) or np.any(~np.isfinite(new)):
            raise ValueError("contour touches a zero or overflow of fn")
        vals = new if vals is None else np.stack([vals, new], axis=1).ravel()
        d = (np.diff(np.angle(np.append(vals, vals[0]))) + np.pi) % (2.0 * np.pi) - np.pi
        step, count = np.abs(d).max(), None
        if step < 0.5 * np.pi:
            wind = d.sum() / (2.0 * np.pi)
            count = round(wind)
            if abs(wind - count) > 1e-2:
                raise ConvergenceError(f"non-integer winding {wind:.6f}")
            if n == _WIND_LEVELS[-1] or (step < 0.25 * np.pi and count == prev):
                return int(count)
        prev = count
    raise ConvergenceError("contour sampling did not resolve the winding number")
