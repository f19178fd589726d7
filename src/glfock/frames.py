"""Densities, sampling numerics, and Gabor-type frames on truncated spaces.

The frame machinery restricts the space to span{e_0 .. e_N} with
e_m = sqrt(phi_m) z^m and realizes sampling inequalities

    A ||f||^2 <= sum_j w_j W(|z_j|^2) |f(z_j)|^2 <= B ||f||^2

as extreme eigenvalues of the (N+1)x(N+1) Gram of the weighted evaluation
matrix.  Reports carry the relative change from N-1 to N so the finite
truncation can be judged: frame bounds that keep drifting as N grows are an
artifact of the cut, a collapsing lower bound signals genuine undersampling.

frame_bounds forms the Gram from the weighted rows at its nodes; frame_sweep
weights per-radius blocks of the unit-lattice Gram, built once and cached
(_radius_blocks).  Each raises ValueError("weighted basis matrix not finite
at N = ...") where its rows, blocks or Gram leave the double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import PhiDescriptor, phi_coeffs, signs_logs
from .errors import UnverifiedWeightError
from .special import _power_rows, _square_window
if TYPE_CHECKING:  # annotations only, so importing this module loads no fock
    from .fock import WeightKernel

__all__ = [
    "DensityReport",
    "FrameReport",
    "density",
    "frame_bounds",
    "frame_sweep",
    "kernel_atoms",
    "canonical_dual",
]


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    r_sequence: tuple
    counts: tuple          # per radius: (n_min, n_max)
    densities: tuple       # per radius: (d_minus, d_plus) = counts / norm area
    norm: str

    @property
    def d_minus(self) -> float:
        return self.densities[-1][0]

    @property
    def d_plus(self) -> float:
        return self.densities[-1][1]

    def __post_init__(self):
        if self.d_minus > self.d_plus + 1e-15:
            raise ValueError("d_minus exceeds d_plus")


def density(points, radii: Sequence[float], norm: str = "paper") -> DensityReport:
    """Lower/upper counting densities from square-window translates.

    For each r the half-open square [x0, x0+r) x [y0, y0+r) slides over a
    24 x 24 grid of origins inside the stored point set; the extreme counts
    at each radius, divided by 2 pi r^2 (norm="paper") or by the window area
    r^2 (norm="lebesgue"), are its densities, and the largest radius gives
    d_minus and d_plus.
    """
    if norm not in ("paper", "lebesgue"):
        raise ValueError("norm must be 'paper' or 'lebesgue'")
    radii = [float(r) for r in radii]
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValueError("radii must be finite and positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if not np.isfinite(pts).all():
        raise ValueError(f"point {pts[~np.isfinite(pts)][0]} is not finite")
    x, y = pts.real, pts.imag
    counts = []
    for r in radii:
        if pts.size == 0:
            counts.append((0, 0))
            continue
        if r > np.ptp(x) or r > np.ptp(y):
            raise ValueError(
                f"window side {r} exceeds the stored point extent; enlarge the set")
        x0 = np.linspace(x.min(), x.max() - r, 24)[:, None]
        y0 = np.linspace(y.min(), y.max() - r, 24)[:, None]
        inx = ((x >= x0) & (x < x0 + r)).astype(np.int64)
        iny = ((y >= y0) & (y < y0 + r)).astype(np.int64)
        c = inx @ iny.T                 # c[a, b]: points in the window at (x0[a], y0[b])
        counts.append((int(c.min()), int(c.max())))
    area = (lambda r: 2.0 * math.pi * r * r) if norm == "paper" else (lambda r: r * r)
    densities = tuple((lo / area(r), hi / area(r)) for r, (lo, hi) in zip(radii, counts))
    return DensityReport(tuple(radii), tuple(counts), densities, norm)


# ---------------------------------------------------------------------------
# frame bounds on the truncated space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameReport:
    A: float
    B: float
    condition: float
    basis_dim: int
    stability: float

    def __post_init__(self):
        if self.A > self.B + 1e-12 * max(1.0, self.B):
            raise ValueError("frame report with A > B")


def _lattice_scale(s: float) -> float:
    """sqrt(pi s), the spacing of the Fock lattice of size s."""
    if not 0 < s < math.inf:
        raise ValueError("lattice size must be finite and positive")
    return math.sqrt(math.pi * s)


def _weight(wk: WeightKernel, w: np.ndarray, norm: float = 1.0) -> np.ndarray:
    """W(|w|^2) / norm at the nodes w, for a positive, verified weight;
    ValueError naming the first node where it is not finite."""
    if not wk.is_positive:
        raise ValueError("frame diagnostics need a positive weight kernel")
    if not wk.verified:
        raise UnverifiedWeightError("weight kernel not verified; run verified_weight first")
    omega = wk.weight(np.abs(w) ** 2) / norm
    bad = np.flatnonzero(~np.isfinite(omega))
    if bad.size:
        j = bad[0]
        raise ValueError(f"weight {omega[j]} at the node w = {w[j]}")
    return omega


def _sample_matrix(desc: PhiDescriptor, w: np.ndarray, N: int, window_n: int) -> np.ndarray:
    """Rows L_j(e_m) = sum_k C(n,k)(-pi conj(w_j))^k (D^k e_m)(w_j); window 0
    gives the basis values e_m(w_j) = sqrt(phi_m) w_j^m."""
    s, l = signs_logs(desc, N)
    if np.any(s <= 0):
        raise ValueError("sampling functionals need positive phi coefficients")
    P = _power_rows(w, N).T.copy()  # row j: w_j^0 .. w_j^N
    out = np.zeros_like(P)
    for k in range(min(window_n, N) + 1):
        # (D^k e_m)(w) = (phi_{m-k} / sqrt(phi_m)) w^{m-k}, m = k..N
        block = P[:, : N + 1 - k] * np.exp(l[: N + 1 - k] - 0.5 * l[k:])
        if k:
            block *= (math.comb(window_n, k) * (-math.pi) ** k * np.conj(P[:, k]))[:, None]
        out[:, k:] += block
    return out


def _not_finite(N: int) -> ValueError:
    return ValueError(f"weighted basis matrix not finite at N = {N}")


def _check_degree(N: int) -> None:
    """ValueError unless N >= 1: a report compares the Gram with its
    leading N x N block."""
    if N < 1:
        raise ValueError(f"frame bounds need a basis degree N >= 1, got N = {N}")


def _eig_reports(S: np.ndarray, N: int) -> list[FrameReport]:
    """One report per Gram in the stack S: its extreme eigenvalues, and their
    relative change from its leading N x N block."""
    ev = np.linalg.eigvalsh(S)
    evs = np.linalg.eigvalsh(S[:, :N, :N])
    tiny = 1e-300
    reports = []
    for e, es in zip(ev, evs):
        A, B = max(float(e[0]), 0.0), max(float(e[-1]), 0.0)
        As, Bs = max(float(es[0]), 0.0), max(float(es[-1]), 0.0)
        stability = max(abs(A - As) / max(A, tiny), abs(B - Bs) / max(B, tiny))
        condition = B / A if A > 0 else math.inf
        reports.append(FrameReport(A, B, condition, N + 1, stability))
    return reports


def frame_bounds(desc: PhiDescriptor, wk: WeightKernel, points, N: int) -> FrameReport:
    """Extreme eigenvalues of S_mn = sum_j W(|z_j|^2) conj(e_m) e_n (z_j)
    over the node array points (an empty one gives A = B = 0); N >= 1."""
    _check_degree(N)
    w = np.atleast_1d(np.asarray(points, dtype=complex))
    sw = np.sqrt(_weight(wk, w))
    with np.errstate(over="ignore", invalid="ignore"):
        V = sw[:, None] * _sample_matrix(desc, w, N, 0)
    if not np.isfinite(V).all():
        raise _not_finite(N)
    return _eig_reports((V.conj().T @ V)[None], N)[0]


# ---------------------------------------------------------------------------
# frame sweep over lattice sizes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)  # about 10 MB per entry at N = 80, M = 20
def _radius_blocks(desc: PhiDescriptor, N: int, window_n: int,
                   M: int) -> tuple[np.ndarray, np.ndarray]:
    """One node g of each radius class |g|^2 = r of the unit lattice
    g = m + i n, |m|, |n| <= M, in increasing r, and the blocks
    H_r = sum_{|g|^2 = r} G_g^H G_g of its window-n rows G_g (_sample_matrix
    at g); read-only, built once per (desc, N, window_n, M).  The rows have
    real coefficients in g and conj(g), and each class is closed under
    conjugation, so H_r is real symmetric.  ValueError where G or H is not
    finite, as when |g|^N leaves the double range."""
    g = _square_window(M).ravel()
    r2 = (g.real ** 2 + g.imag ** 2).astype(np.int64)
    order = np.argsort(r2, kind="stable")
    counts = np.bincount(r2)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    lattice = g[order]
    with np.errstate(over="ignore", invalid="ignore"):
        G = _sample_matrix(desc, lattice, N, window_n)
    if not np.isfinite(G).all():
        raise _not_finite(N)
    H = np.empty((counts.size, N + 1, N + 1))
    for i, (a, c) in enumerate(zip(starts, counts)):
        Gr = G[a:a + c]
        H[i] = (Gr.conj().T @ Gr).real
    if not np.isfinite(H).all():
        raise _not_finite(N)
    nodes = lattice[starts]
    nodes.setflags(write=False)
    H.setflags(write=False)
    return nodes, H


def frame_sweep(desc: PhiDescriptor, wk: WeightKernel, window_n: int,
                s_values: Sequence[float], N: int, M: int) -> list[FrameReport]:
    """Frame bounds of the window-n sampling functionals on Fock lattices.

    For lattice size s the nodes are sqrt(pi s)(m + i n), |m|, |n| <= M;
    each carries the squared transform weight W(|w|^2) / (pi^n phi_n), and
    node w samples sum_k C(n,k)(-pi conj(w))^k (D^k f)(w).  Returns one
    FrameReport per s: the empirical break of A(s) under N-refinement
    locates the critical size (classic calibration: s = 1).  Window 0 is
    the Gaussian Gabor frame for EXP.  For n >= 1 the functional is not
    the Hermite-window Gabor frame, and B grows like N^2: for EXP, window 1
    at s = 1/2, B is 3.6e3, 2.3e4 and 4.1e4 at (N, M) = (24, 12), (60, 16)
    and (80, 20).

    The rows at w = sqrt(pi s) g are the unit-lattice rows G_g times
    (pi s)^(m/2) in column m, and the weight is radial, so the Gram is
    D [sum_r W(pi s r) / (pi^n phi_n) H_r] D with D = diag((pi s)^(m/2))
    and the per-radius blocks H_r of _radius_blocks, built once per
    (desc, N, window_n, M) and cached: each s costs one weighted sum over
    the radii and the eigenvalues.  The weight gate reads one node per
    radius.  ValueError where the unit-lattice rows, their blocks or a
    Gram is not finite: the rows leave the double range once |g|^N does
    (N >= 269 at M = 10), and unless N >= 1.
    """
    _check_degree(N)
    if window_n < 0:
        raise ValueError("window_n must be a natural number")
    sN, lN = signs_logs(desc, window_n)
    if sN[window_n] <= 0:
        raise ValueError("phi_{window_n} must be positive")
    scale = np.array([_lattice_scale(s) for s in s_values])
    if scale.size == 0:
        return []
    nodes, H = _radius_blocks(desc, N, window_n, M)
    win_norm = math.pi ** window_n * math.exp(lN[window_n])
    omega = _weight(wk, (scale[:, None] * nodes).ravel(), win_norm).reshape(scale.size, -1)
    Hf = H.reshape(nodes.size, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        d = scale[:, None] ** np.arange(N + 1)
        # one product per s, so a report does not depend on the other sizes
        S = np.array([o @ Hf for o in omega]).reshape(-1, N + 1, N + 1)
        S *= d[:, :, None] * d[:, None, :]
    if not np.isfinite(S).all():
        raise _not_finite(N)
    return _eig_reports(S, N)


# ---------------------------------------------------------------------------
# kernel atoms and the canonical dual
# ---------------------------------------------------------------------------

def kernel_atoms(desc: PhiDescriptor, wk: WeightKernel, zs, N: int) -> np.ndarray:
    """Coordinate rows of the weighted reproducing kernels at the points zs:
    row entry p is sqrt(W(|z|^2)) phi_p conj(z)^p."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    return np.sqrt(_weight(wk, zs))[:, None] * (phi_coeffs(desc, N) * np.conj(_power_rows(zs, N).T))


def canonical_dual(desc: PhiDescriptor, wk: WeightKernel, s: float, M: int, N: int) -> np.ndarray:
    """Dual atom coordinates from inverting the truncated frame operator.

    Solves S gamma = (atom at 0) with S built from the weighted atoms on the
    Fock lattice of size s, then scales gamma so its pairing K.conj() @ gamma
    with the kernel_atoms row K at the origin is exactly 1.
    """
    if not wk.weight(0.0) > 0:
        raise ValueError("weight must be positive at the origin")
    Kw = kernel_atoms(desc, wk, _lattice_scale(s) * _square_window(M).ravel(), N)
    S = Kw.T @ Kw.conj()
    rhs = kernel_atoms(desc, wk, 0.0, N)[0]
    gam = np.linalg.solve(S, rhs)
    c0 = np.vdot(rhs, gam)
    if c0 == 0:
        raise ValueError("degenerate dual: zero pairing at the origin")
    return gam / c0
