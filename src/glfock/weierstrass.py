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
near nodes take the direct product.  A node nu with quadratic denominator
beta has the factor E(z / nu; tau), tau = (nu / beta)^2 - 1, so tau = 0
outside a perturbed window.  One cached table per (family, N),
_window_series, serves every far node: the coefficients l_{k,m} of
log E(w; tau) = log(1 - w) + w + (1/2 + c tau) w^2 + log R, and the radii
where one bound on |R - 1| is at most 1/2, r on the disk tau = 0 and s on
a polydisk in (w, tau) (see _log_product for the tail bound).  The
infinite rest of the lattice, where tau = 0, is sum l_{k,0} T_k z^k with
T_k = sum nu^-k over the far Gaussian integers, one cached table per near
set (_lattice_tail), so the window size LatticeSpec.trunc_M does not
enter sigma.  A perturbed window's far nodes add sum l_{k,m} z^k mu_{k,m},
whose moments mu_{k,m} = sum nu^-k tau^m are formed on every call.  R is
not omega()'s Omega = (E - 1) / z^3, which slices E's Maclaurin
coefficients from its own table per (family, N), _e_table, and so does
omega_bound, whose head is |e_3| + |e_4| + |e_5| of E_2.

EXP (phi = e^u, psi = (1, 1/2)) has the exact log factor
log E(w; tau) = log(1 - w) + w + (1 + tau) w^2 / 2, in both layers: its
near field adds u for log phi(u), with no Horner, and its far table is
that closed form, l_{k,0} = -1/k for k >= 3 and l_{2,1} = 1/2, with
r = s = 1.  So N does not enter EXP's sigma and g, as trunc_M does not
enter sigma.  Every other family takes phi by Horner and its table by the
recurrence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .core import PhiDescriptor, phi_coeffs, phi_eval, signs_logs
from .errors import ConvergenceError, DivergenceError
from .special import _horner
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
    "g_fn",
    "log_g_fn",
    "sigma_lower_diag",
    "two_sided_diag",
    "winding_zero_count",
]

# The lattice factors use phi cut after 80 terms.  For ML(2,1) at |z| ~ 2.65
# that cut differs from phi by about 2e-4 relative.  80 is the top degree;
# a near chunk may start Horner lower, within _HORNER_TOL.
_PHI_PRODUCT_TERMS = 80
_NEAR_CELLS = 8192       # (node, point) cells per chunk of the direct product
_LOG_GROUP = 8           # consecutive near factors multiplied before one log
_BAND_GROUPS = 4         # groups per band of near nodes ordered by |node|
_HORNER_TOL = 2.0**-60   # dropped Horner tail of a chunk, relative to its min |phi|
_FAR_RATIO = 0.75        # rho: far nodes have |z / node| <= rho r (rho s in a window), radii of _window_series
_FAR_TOL = 1e-17         # bound on the dropped far-field series tail, summed over nodes
_TAU_RADIUS = 0.25       # T: far window nodes have |tau| <= rho T, tau = (node / base)^2 - 1
_WIN_K, _WIN_M = 256, 24  # top degrees in w and tau of the window's far series table
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


@lru_cache(maxsize=64)
def _e_table(d: PhiDescriptor, N: int) -> np.ndarray:
    """Maclaurin coefficients e_0..e_(2N+1) of E_N, phi cut after N terms (E_N
    has degree 2N + 1); read-only, built once per (d, N), d normalized.
    OverflowError where one is not a double (phi_n is 0 where psi1^n is inf)."""
    ps = _factor(d)[1]
    phis = phi_coeffs(d, N)
    comp = np.zeros(2 * N + 2)
    comp[0] = phis[0]
    power = np.zeros(2 * N + 2)
    power[0] = 1.0
    base = np.zeros(2 * N + 2)
    base[1:3] = ps.psi1, ps.psi2
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N + 1):
            power = np.convolve(power, base)[:2 * N + 2]
            if not np.count_nonzero(power):
                break
            comp += phis[n] * power
        out = comp.copy()
        out[1:] -= comp[:-1]
    if not np.isfinite(out).all():
        raise OverflowError(f"E series for {d.family} outside double range "
                            f"(psi1={ps.psi1!r})")
    out.setflags(write=False)
    return out


def weierstrass_factor(desc: PhiDescriptor, z, N: int = 80):
    """E(z) = (1 - z) phi(psi1 z + psi2 z^2), truncating phi at N terms."""
    d, ps = _factor(desc)
    z = np.asarray(z, dtype=complex)
    u = ps.psi1 * z + ps.psi2 * z * z
    return (1.0 - z) * phi_eval(d, u, N)


def omega(desc: PhiDescriptor, z, N: int = 80):
    """Third-order remainder Omega(z) = (E(z) - 1) / z^3.

    Near the origin (|z| < 1e-3) the direct quotient loses all significance,
    so the degree-14 Maclaurin branch of E - 1 shifted by three slots is used
    instead; the same branch is the fallback when catastrophic cancellation
    (|E - 1| < 1e-12) is detected farther out.
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
        out[series] = _horner(_e_table(d, 17)[17:2:-1], zf[series])
    return complex(out[0]) if np.ndim(z) == 0 else out


def omega_bound(desc: PhiDescriptor) -> float:
    """Disk bound sup_{|z|<=1} |Omega| <= |e3| + |e4| + |e5| + 2 sum_{n>=3} |phi_n| R^n,
    R = |psi1| + |psi2|.

    The head is |e3| + |e4| + |e5| of E_2 (_e_table(d, 2)), the part that
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
    head = float(np.abs(_e_table(d, 2)[3:]).sum())
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
        if self.trunc_M < 1:
            raise ValueError("trunc_M must be >= 1")

    def points(self) -> np.ndarray:
        """The window's nodes, m-major: (m, n) at index (m + M)(2M + 1) + n + M."""
        g = np.arange(-self.trunc_M, self.trunc_M + 1)
        return self.lam * (np.repeat(g, g.size) + 1j * np.tile(g, g.size))

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
    positive at construction.
    """

    def __init__(self, lat: LatticeSpec, offsets: Optional[np.ndarray] = None, Q: float = 0.0):
        if not 0 <= Q < math.inf:
            raise ValueError("Q must be a finite number >= 0")
        self.lat = lat
        self.base = lat.points()
        off = np.zeros_like(self.base) if offsets is None else np.asarray(offsets, dtype=complex)
        if off.shape != self.base.shape:
            raise ValueError(f"offsets must hold one value per node ({self.base.size})")
        if np.any(np.abs(off) > Q):
            raise ValueError("an offset exceeds the stated bound Q")
        self.pts = self.base + off
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
        """Distance from each z to its nearest node, 1,024 points at a time;
        skip_self (z is pts) leaves out each node's distance to itself."""
        out = np.empty(z.size)
        for i in range(0, z.size, 1024):
            d = np.abs(z[i:i + 1024, None] - self.pts[None, :])
            if skip_self:
                d[np.arange(d.shape[0]), np.arange(i, i + d.shape[0])] = math.inf
            out[i:i + 1024] = d.min(axis=1)
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
        return self._nearest(np.atleast_1d(np.asarray(z, dtype=complex)))


# ---------------------------------------------------------------------------
# lattice products (log accumulated)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _window_series(d: PhiDescriptor, N: int) -> tuple[float, float, Optional[np.ndarray]]:
    """(r, s, ell), the far-field table of every lattice product; read-only,
    built once per (d, N), d normalized.

    A node nu with quadratic denominator beta has the factor
    E_N(w; tau) = (1 - w) phi_N(psi1 w + psi2 (1 + tau) w^2), w = z / nu,
    tau = (nu / beta)^2 - 1; tau = 0 where the two coincide.
    ell[k, m], k <= _WIN_K, m <= _WIN_M, are the double Maclaurin
    coefficients of log E_N(w; tau), and ell[k, 0] = l_k those of
    log E_N(w), from n l_n = n e_n - sum_{k<n} k l_k e_(n-k) with e_0 = 1 and the e_n(tau)
    of E_N as polynomials in tau cut at degree _WIN_M, so that each degree
    is one tau-convolution.  E_N(w; tau) = sum_m h_m(w) (tau w^2)^m with
    h_m = psi2^m phi_N^(m)(p) / m!, p = psi1 w + psi2 w^2, so ell[k, m] = 0
    for k < 2m.  OverflowError where a coefficient of E_N(w) is not a
    double; where only one of a higher tau-degree is not, s = 0.

    r and s <= 1 are radii where a bound on |R_N - 1| over |w| <= r,
    tau = 0, and over the polydisk |w| <= s, |tau| <= T = _TAU_RADIUS, is
    at most 1/2 (0 where none is; where r is, ell is None, and where s is,
    only its column 0 holds coefficients): bisection to 2^-24 that keeps the end where
    the bound holds, as a closer radius would move the far test by less
    than 1e-7 relative.  Here R_N(w; tau) = Phi_N(w; tau) e^(-w - (1/2 + c tau) w^2),
    c = phi_1 psi2 and Phi_N = E_N / (1 - w), of w-degree 2N, so that
    log E_N = log(1 - w) + w + (1/2 + c tau) w^2 + log R_N (see
    _log_product).  The coefficients of a(w; tau) = e^(-w - (1/2 + c tau) w^2)
    are a_{j,m} = (-c)^m / m! a_(j-2m), with j a_j = -a_(j-1) - a_(j-2) those
    of e^(-w - w^2/2); those q_{j,m} of R_N through w-degree
    D = 2N + _OMEGA_TAIL are Phi_N * a, and the bound is
    sum |q_{j,m}| s^j T^m, plus sum_j P_j s^j sum_{j>D-2N} A_j s^j for the
    degrees past D, P_j = sum_m |Phi_{j,m}| T^m and A_j = sum_m |a_{j,m}| T^m
    (the A_j past D enter as their Cauchy bound e^(4 + 4|c|T) 2^-j on
    |w| = 2), plus a rounding allowance of (2D + 2N) eps sum_j P_j s^j
    sum_j A_j s^j; r's is the same bound at T = 0, so s <= r.  It is one
    polynomial in s with coefficients >= 0, so it grows with s; the cap at
    1 is the singularity of log(1 - w) at w = 1.  At N = 80, r = s = 1 for
    EXP, ML(2,1), SG(1,2) and Dunkl(1/2), r = s = 0.771 for the backward
    shift; (r, s) = (0.909, 0.812) for GD(2), (0.770, 0.688) for GD(3) and
    (0.669, 0.597) for GD(1).

    EXP skips all of this: its factor (1 - w) e^(w + (1 + tau) w^2 / 2) is
    E itself for every N, so ell is the closed form l_{k,0} = -1/k for
    k >= 3, l_{2,1} = 1/2 and 0 elsewhere, with r = s = 1 (the recurrence
    gives the same table within 6e-17, and the bound r = s = 1.0 too).
    """
    if d.family == "exponential":
        ell = np.zeros((_WIN_K + 1, _WIN_M + 1))
        ell[3:, 0] = -1.0 / np.arange(3, _WIN_K + 1)
        ell[2, 1] = 0.5
        ell.setflags(write=False)
        return 1.0, 1.0, ell
    ps = _factor(d)[1]
    phis = phi_coeffs(d, N)
    D, M2 = 2 * N + _OMEGA_TAIL, N + _OMEGA_TAIL // 2
    with np.errstate(over="ignore", invalid="ignore"):
        # rows p^i of the powers of p, then h_m = psi2^m sum_i C(i + m, m) phi_(i+m) p^i
        P = np.zeros((N + 1, 2 * N + 1))
        P[0, 0] = 1.0
        for i in range(1, N + 1):
            P[i, 1:] = ps.psi1 * P[i - 1, :-1]
            P[i, 2:] += ps.psi2 * P[i - 1, :-2]
        H = np.zeros((N + 1, N + 1))
        binom = np.ones(N + 1)
        for m in range(N + 1):
            if m:
                binom = binom * (np.arange(N + 1) + m) / m
            H[m, :N + 1 - m] = binom[:N + 1 - m] * phis[m:] * np.float64(ps.psi2)**m
        h = H @ P
        phi = np.zeros((2 * N + 1, N + 1))  # Phi_{j,m}
        for m in range(N + 1):
            phi[2 * m:, m] = h[m, :2 * N + 1 - 2 * m]
        if not np.isfinite(phi[:, 0]).all():
            raise OverflowError(f"E series for {d.family} outside double range "
                                f"(psi1={ps.psi1!r})")
        c = float(phis[1]) * ps.psi2
        f = np.cumprod(np.append(1.0, -c / np.arange(1.0, M2 + 1)))  # (-c)^m / m!
        a = [1.0, -1.0]  # a_(.,0)
        for j in range(2, D + 1):
            a.append(-(a[j - 1] + a[j - 2]) / j)
        a = np.array(a)
        lag = np.subtract.outer(np.arange(D + 1), np.arange(2 * N + 1))
        aphi = np.where(lag >= 0, a[np.maximum(lag, 0)], 0.0) @ phi  # a_(.,0) * Phi
        q = np.zeros((D + 1, M2 + 1))
        for m in range(M2 + 1):  # q_{j,m} = 0 for j < 2m
            cols = min(N + 1, M2 + 1 - m)
            q[2 * m:, m:m + cols] += f[m] * aphi[:D + 1 - 2 * m, :cols]
        q = np.abs(q)
        q[0, 0] = 0.0

        def radius(T):
            # at T = 0 only column 0 of Phi enters, as 0 times a column
            # that is not a double would be nan
            top = M2 if T else 0
            powT = T ** np.arange(top + 1.0)
            g = np.zeros(D + 1)
            g[:2 * top + 1:2] = np.abs(f[:top + 1]) * powT
            A = np.convolve(np.abs(a), g)[:D + 1]
            weight = A * ((2 * D + 2 * N) * np.finfo(float).eps)
            weight[_OMEGA_TAIL + 1:] += A[_OMEGA_TAIL + 1:]
            weight[0] += math.exp(4.0 + 4.0 * abs(c) * T) * 0.5**D
            bound = np.convolve(np.abs(phi[:, :top + 1]) @ powT[:N + 1], weight)
            bound[:D + 1] += q[:, :top + 1] @ powT
            degs = np.arange(bound.size, dtype=float)
            lo, hi = (1.0, 1.0) if bound @ np.ones(bound.size) <= 0.5 else (0.0, 1.0)
            while hi - lo > 2.0**-24:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if bound @ mid**degs <= 0.5 else (lo, mid)
            return lo

        r = radius(0.0)
        s = radius(_TAU_RADIUS) if r and np.isfinite(phi).all() else 0.0
    if r == 0.0:
        return 0.0, 0.0, None
    cols = min(N, _WIN_M) + 1 if s else 1
    e = np.zeros((max(_WIN_K + 1, 2 * N + 2), _WIN_M + 1))  # of E_N = (1 - w) Phi_N
    e[:2 * N + 1, :cols] = phi[:, :cols]
    e[1:2 * N + 2, :cols] -= phi[:, :cols]
    e = e[:_WIN_K + 1]
    ell = np.zeros_like(e)
    k = np.arange(1.0, _WIN_K + 1)[:, None]
    anti = np.add.outer(np.arange(_WIN_M + 1), np.arange(_WIN_M + 1)).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # |l_k| ~ r^-k where r is small
        for n in range(1, _WIN_K + 1):
            # sum_{k<n} k l_k(tau) e_(n-k)(tau): entry (i, j) of G is the tau^(i+j) term
            G = (k[:n - 1] * ell[1:n]).T @ e[n - 1:0:-1]
            ell[n] = e[n] - np.bincount(anti, G.ravel())[:_WIN_M + 1] / n
    ell.setflags(write=False)
    return r, s, ell


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
def _lattice_tail(M: int, R2: int) -> np.ndarray:
    """tau_k = R^k T_k for k = 4, 8, ..., K, where T_k = sum nu^-k over the
    far set F, the Gaussian integers outside E = {max(|m|, |n|) <= M} u
    {m^2 + n^2 <= R2}, and R = max(sqrt(R2 + 1), M + 1) <= |nu| on F;
    read-only, built once per (M, R2).  E is i-symmetric, so T_k = 0 unless
    4 | k, and conjugation symmetric, so T_k is real.

    _log_product takes R2 = floor((max|z| / (lam rho r))^2), r the tau = 0
    radius of _window_series, so t = rho sqrt(R2 + 1) > max|z| / (lam r) and the
    series term k of a far node is at most (1 + log 2) (t / |nu|)^k, with
    t / |nu| <= x = t / R <= rho (see _log_product).  Counting the Gaussian integers in an
    annulus by the area of their unit cells, and summing by parts,
    sum_{|nu| >= R} |nu|^-k <= A_k(R) = 2 pi R^(2-k) / (k - 2)
    (1 + c (2k - 1)(k - 2) / ((k - 1) R)), c = sqrt(2) / 2.
      - K is the least multiple of 4 whose dropped tail, at most
        (1 + log 2) t^(K+4) A_(K+4)(R) / (1 - x^4), is below _FAR_TOL.
      - T_4 and T_8 are the literal G_k less the sums over the rings
        max(|m|, |n|) <= 2 (_G_OUTSIDE_RING2), plus the ring nodes outside
        E, less the nodes of E beyond the rings, in one math.fsum, so their
        rounding is that of the terms (about eps |nu|^-k each) and not that
        of G_4 ~ 3.15, which (|z| / lam)^4 would multiply.
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
    tau = np.zeros(K // 4)
    # T_4, T_8: the quadrant m >= 1, n >= 0 within max(m, n) <= L holds E and the rings
    L = max(M, math.isqrt(R2), 2)
    g = np.arange(L + 1, dtype=np.int64)
    mm, nn = np.repeat(g[1:], L + 1), np.tile(g, L)
    excl = (mm * mm + nn * nn <= R2) | (np.maximum(mm, nn) <= M)
    sign = (np.maximum(mm, nn) <= 2).astype(float) - excl
    w = 1.0 / ((mm + 1j * nn) ** 2) ** 2
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
            P = np.cumprod(np.broadcast_to(w, (J + 2, w.size)), axis=0)[2:]
            tau[2:J + 2] += np.where(r2 <= hi2[:J, None], P.real, 0.0) @ weight
    tau.setflags(write=False)
    return tau


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

    Every other family takes phi(u) by Horner.  A chunk with a = max|u| has
    the tail t(n) = sum_{n<m<=N} |phi_m| a^m (from the signs_logs table),
    and Horner starts at the least degree n with
    t(n) <= _HORNER_TOL / (1 + t(0)), the reciprocal of the largest |phi(u)|
    standing in for the smallest; an outer band, with its small |u|, starts
    lower than an inner one.  Where after the pass
    t(n) <= _HORNER_TOL min|phi_n(u)| fails, the chunk restarts from the
    least degree that this measured min allows and is checked again;
    degree N is the last resort.  A later chunk of the band starts no lower
    than the band's last passing restart, so a signed family, whose
    a-priori min is too high, restarts once per band rather than once per
    chunk.  So a cut never drops more than 2^-60 of any cell's phi.

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
            floor = 0  # the degree the band's last restart passed at
            for idx in np.array_split(np.arange(z.size), max(1, z.size // step)):
                zz = z[idx]
                Z1 = zz[None, :] / bnodes[:, None]
                U = ps.psi1 * Z1 + ps.psi2 * (zz * zz)[None, :] / (bdens[:, None] ** 2)
                if exact:  # the group products hold 1 - z/node alone
                    log_phi = U.sum(axis=0)
                else:
                    loga = np.log(np.abs(U).max(initial=0.0))
                    t = np.append(np.exp(log_phis + degs * loga)[::-1].cumsum()[::-1], 0.0)
                    n = max(floor, int(np.argmax(t <= _HORNER_TOL / (1.0 + t[0]))))
                    V = _horner(phis[n::-1], U)
                    m = np.abs(V).min(initial=np.inf)
                    # not <=: a nan a (from a nan z) fails every check
                    if not t[n] <= _HORNER_TOL * m:
                        n = int(np.argmax(t <= _HORNER_TOL * m))
                        V = _horner(phis[n::-1], U)
                        if t[n] <= _HORNER_TOL * np.abs(V).min(initial=np.inf):
                            floor = n
                        else:
                            V = _horner(phis[::-1], U)
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
    """Rows w^0..w^K, by doubling: row k takes about 2 log2(k) roundings."""
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
    takes, and the sum of log E_N over them at z (None where it takes
    none).  See _log_product for which nodes are far and the bound."""
    far = np.zeros(nodes.size, dtype=bool)
    _, s, ell = _window_series(d, N)
    if not (nodes.size and s):  # sigma has no window; s = 0 keeps it near
        return far, None
    x = zmax / (s * np.abs(nodes))
    tau = (nodes - dens) * (nodes + dens) / (dens * dens)
    y = np.abs(tau) / _TAU_RADIUS
    idx = np.flatnonzero((x <= _FAR_RATIO) & (y <= _FAR_RATIO))
    x, y = x[idx], y[idx]
    log2 = math.log(2.0)
    a = ((1.0 + log2) + log2 * y / (1.0 - y)) / (1.0 - x)
    xy = x * x * y
    b = log2 / ((1.0 - x) * (1.0 - xy))
    # the nodes whose tails at the table's top degrees sum past _FAR_TOL,
    # largest first, stay near
    cap = a * x**(_WIN_K + 1) + b * xy**(_WIN_M + 1)
    order = np.argsort(cap, kind="stable")
    keep = np.sort(order[np.cumsum(cap[order]) <= _FAR_TOL])
    if not keep.size:
        return far, None
    far[idx[keep]] = True
    x, xy, a, b = x[keep], xy[keep], a[keep], b[keep]

    def fits(K, m):
        return a @ x**(K + 1) + b @ xy**(m + 1) <= _FAR_TOL

    K = _least(lambda K: fits(K, _WIN_M), 2, _WIN_K)
    m = _least(lambda m: fits(K, m), 1, _WIN_M)
    nu, tau = nodes[far], tau[far]
    R = float(np.abs(nu).min())
    mu = np.zeros((K + 1, m + 1), dtype=complex)  # R^k mu_{k,m}
    step = max(1, _SUM_CELLS // (K + 1))
    for i in range(0, nu.size, step):
        mu += _powers(R / nu[i:i + step], K) @ _powers(tau[i:i + step], m).T
    coef = (ell[:K + 1, :m + 1] * mu).sum(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite z
        return far, _horner(coef[::-1], z / R)


def _log_product(desc: PhiDescriptor, z: np.ndarray, lam: float, M: int,
                 nodes: np.ndarray, dens: np.ndarray, N: int) -> np.ndarray:
    """sum of log E_N over the whole lattice lam (Z + iZ) less its origin:
    the window max(|m|, |n|) <= M at the given nodes and denominators (the
    factor of node (m, n) is (1 - z/node) phi(psi1 z/node + psi2 z^2/den^2),
    see _near_logs), and every node outside it at lam (m + i n).

    One cached table, _window_series, serves every far node.  A node nu
    with denominator beta has the factor E_N(w; tau) =
    (1 - w) phi_N(psi1 w + psi2 (1 + tau) w^2), w = z / nu,
    tau = (nu / beta)^2 - 1 (0 where the two coincide, so outside the
    window).  The table holds the coefficients l_{k,m} of log E_N(w; tau),
    the radius r <= 1 of a disk |w| <= r, tau = 0, and the radius s <= r of
    a polydisk |w| <= s, |tau| <= T = _TAU_RADIUS, where
    |log R_N(w; tau)| <= log 2, R_N(w; tau) =
    E_N(w; tau) / (1 - w) e^(-w - (1/2 + c tau) w^2), c = phi_1 psi2, so
    that log E_N = log(1 - w) + w + (1/2 + c tau) w^2 + log R_N.
    E_N = 1 + O(w^3) (N >= 2), so l_{1,0} = l_{2,0} = 0, l_{2,1} = c exactly,
    and l_{k,0} = -1/k + lambda_k for k >= 3 with |lambda_k| <= log 2 / r^k
    (Cauchy); as r <= 1, |l_{k,0}| <= (1 + log 2) / r^k for every k.  Every
    other l_{k,m} obeys |l_{k,m}| <= log 2 / (s^k T^m), and l_{k,m} = 0 for
    k < 2m.

    The nodes outside the window with |node| <= max|z| / (rho r) are near
    too, and taken directly, rho = _FAR_RATIO.  Every other node nu there
    is far: the far field, the infinite rest of the lattice, is
    sum_{k<=K} l_{k,0} (z / lam)^k T_k with T_k = sum_far nu^-k, which the
    cached table _lattice_tail builds once per excluded set (window and
    disk) with K and its tail bound.  A call adds one K/4-term Horner in
    (z / (lam R))^4 to its near product, whatever the window.

    The far nodes of the window collapse into a series too (_window_far):
    sum_{k<=K, m<=m'} l_{k,m} z^k mu_{k,m}, mu_{k,m} = sum_far nu^-k tau^m.
    A window node is far where x = max|z| / (s |nu|) <= rho and
    y = |tau| / T <= rho; there the series terms it drops past K in w or
    past m' in tau sum to at most
        ((1 + log 2) + log 2 y / (1 - y)) x^(K+1) / (1 - x)
        + log 2 (x^2 y)^(m'+1) / ((1 - x)(1 - x^2 y)),
    and K >= 2, m' >= 1 are the least degrees whose bound, summed over
    the far nodes, is at most _FAR_TOL.  Nodes whose bounds at the table's
    top degrees _WIN_K and _WIN_M would sum past _FAR_TOL stay near,
    largest first, and so does every node of the window where s = 0.  A
    far node is never hit (|w| < 1).  The moments are formed in chunks of
    nodes of at most _SUM_CELLS powers, on every call.
    ConvergenceError where r is 0 (no radius meets the bound), where the
    lattice far field needs a degree past _WIN_K, or where its table's
    direct sums would be too long (max|z| / (lam r) above about 63).
    A nan or infinite z is left out of max|z| and gives nan.
    """
    d = desc.normalize()
    r, _, ell = _window_series(d, N)
    if r == 0.0:
        raise ConvergenceError(f"no radius where log E_N of {d.family} converges: "
                               "the lattice far field cannot be summed")
    a = np.abs(z)
    zmax = float(a[np.isfinite(a)].max(initial=0.0))
    R2 = int((zmax / (lam * _FAR_RATIO * r)) ** 2)
    tau = _lattice_tail(M, R2)
    if 4 * tau.size > _WIN_K:
        raise ConvergenceError(f"the lattice far field needs degree {4 * tau.size} of the "
                               f"log E series, past the table's {_WIN_K}")
    g = np.arange(-math.isqrt(R2), math.isqrt(R2) + 1)
    mm, nn = np.repeat(g, g.size), np.tile(g, g.size)
    disk = (mm * mm + nn * nn <= R2) & (np.maximum(abs(mm), abs(nn)) > M)
    extra = lam * (mm[disk] + 1j * nn[disk])
    far, logs = _window_far(d, z, zmax, nodes, dens, N)
    out = _near_logs(d, z, np.concatenate([nodes[~far], extra]),
                     np.concatenate([dens[~far], extra]), N)
    if logs is not None:
        out += logs
    coef = ell[4:4 * tau.size + 1:4, 0] * tau
    with np.errstate(invalid="ignore"):  # an infinite z
        t = (z / (lam * max(math.sqrt(R2 + 1), M + 1.0))) ** 4
        return out + _horner(np.append(coef[::-1], 0.0), t)


def _exp_logs(z, logs, factor=1.0):
    """factor * exp(logs), 0 where logs is -inf (z on a node); complex for scalar z.
    Where that product is not finite but logs is, exp(logs + log(factor)):
    an overflow multiplied out would leave inf - inf = nan in a part."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val = factor * np.exp(logs)
        redo = np.isfinite(logs) & ~np.isfinite(val)
        if redo.any():
            val[redo] = np.exp(logs + np.log(factor))[redo]
        val = np.where(logs.real == -np.inf, 0.0, val)
    return complex(val[0]) if np.ndim(z) == 0 else val


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
    return _exp_logs(z, _log_product(desc, zf, lat.lam, 0, none, none, N), zf)


def log_g_fn(desc: PhiDescriptor, z, gamma: PerturbedLattice,
             N: int = _PHI_PRODUCT_TERMS) -> np.ndarray:
    """Complex log of g(z; Gamma); -inf real part at the nodes.

    The printed form: the linear factor takes the perturbed node z_{m,n},
    the quadratic denominator inside phi the base-lattice point lam_{m,n}.
    Outside the window the lattice is unperturbed and infinite.
    _log_product takes directly the window nodes within max|z| / (rho s) of
    the origin (s the polydisk radius of _window_series, the far-field
    table sigma reads too) or with |(z_{m,n} / lam_{m,n})^2 - 1| above
    rho T, and the rest of the window through one series in z whose
    moments are formed on every call (see _log_product).  For EXP, whose
    log factor is exact (log(1 - w) + w + (1 + tau) w^2 / 2), N does not
    enter.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    nodes, base = gamma.nonzero()
    logs = _log_product(desc, z, gamma.lat.lam, gamma.lat.trunc_M, nodes, base, N)
    with np.errstate(divide="ignore"):
        return logs + np.log(z - gamma.z00)


def g_fn(desc: PhiDescriptor, z, gamma: PerturbedLattice, N: int = _PHI_PRODUCT_TERMS):
    """Interpolation-type product vanishing exactly on the perturbed nodes."""
    return _exp_logs(z, log_g_fn(desc, z, gamma, N))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

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
    sigma is formed, at a grid point that is a lattice point or where W is 0
    (an underflow, or a zero of a signed weight).
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=complex))
    d = lat.dist(grid)
    if np.any(d == 0):
        raise ValueError("grid touches a lattice point; ratio undefined there")
    w = wk.weight(np.abs(grid) ** 2)
    if np.any(w == 0):
        raise ValueError(f"weight is 0 at grid point {grid[np.argmax(w == 0)]}: "
                         "the ratio bounds nothing there")
    if np.any(w < 0):
        warnings.warn("signed weight in sigma_lower_diag; using |W|")
    lhs = np.abs(w) * np.abs(sigma_fn(desc, grid, lat, N))
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
    means ratio <= 1 and lhs <= W|g|).  ValueError at a grid point that is a
    node of Gamma or where W is 0 (an underflow, or a zero of a signed weight).
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=complex))
    logs = log_g_fn(desc, grid, gamma, N)
    if np.any(~np.isfinite(logs.real)):
        raise ValueError("grid touches a node of Gamma")
    w = wk.weight(np.abs(grid) ** 2)
    if np.any(w == 0):
        raise ValueError(f"weight is 0 at grid point {grid[np.argmax(w == 0)]}: "
                         "no envelope fits log W there")
    if np.any(w < 0):
        warnings.warn("signed weight in two_sided_diag; using |W|")
    logV = np.log(np.abs(w)) + logs.real
    d = gamma.dist(grid)
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
