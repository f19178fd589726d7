"""Reference values computed without glfock.

Every oracle here uses mpmath, plain numpy on closed-form coefficients, or
integer enumeration.  None of them reads glfock's coefficient tables, so a
defect in those tables cannot hide itself by also corrupting the reference.
All oracle values are computed before the timed loop starts.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def horner(coeffs, z: complex) -> complex:
    """f(z) = sum_k coeffs[k] z^k by a plain Python Horner loop."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


def lattice_count(radius: float, lam: float = 1.0) -> int:
    """Number of points lam*(m + i n) with |lam*(m + i n)| < radius."""
    k = int(radius / lam) + 1
    return sum(1 for m in range(-k, k + 1) for n in range(-k, k + 1)
               if (lam * lam) * (m * m + n * n) < radius * radius)


def sigma_square(z: complex) -> complex:
    """Weierstrass sigma of the lattice Z + iZ from Jacobi theta functions.

    sigma(z) = (1/pi) e^{pi z^2 / 2} theta1(pi z, q) / theta1'(0, q) with
    q = e^{-pi} (DLMF 23.6.9; for the square lattice eta1 = pi/2).
    """
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.pi)
        w = mpmath.mpc(z.real, z.imag)
        val = (mpmath.exp(mpmath.pi * w * w / 2) * mpmath.jtheta(1, mpmath.pi * w, q)
               / (mpmath.pi * mpmath.jtheta(1, 0, q, 1)))
        return complex(val)


def phi_coeff(family: str, params: dict, k: int) -> float:
    """phi_k of an unnormalized family from mpmath gamma functions."""
    with mpmath.workdps(30):
        x = mpmath.mpf(k)
        if family == "exponential":
            val = 1 / mpmath.factorial(k)
        elif family == "mittag_leffler":
            val = 1 / mpmath.gamma(params["mu"] + x / params["rho"])
        elif family == "stretched_gamma":
            a, b = mpmath.mpf(params["a"]), mpmath.mpf(params["b"])
            val = b * a ** ((x + 1) / b) / mpmath.gamma((x + 1) / b)
        elif family == "gamma_deriv":
            val = 1 / mpmath.diff(mpmath.gamma, x + 1, int(params["n"]))
        else:
            raise ValueError(f"no oracle for family {family!r}")
        return float(val)


def _exp_lattice(s: float, M: int) -> np.ndarray:
    g = np.arange(-M, M + 1)
    mm, nn = np.meshgrid(g, g, indexing="ij")
    return math.sqrt(math.pi * s) * (mm.ravel() + 1j * nn.ravel())


def _inv_sqrt_factorials(N: int) -> np.ndarray:
    return np.array([1.0 / math.sqrt(math.factorial(m)) for m in range(N + 1)])


def frame_bounds_exp(s: float, N: int, M: int) -> tuple[float, float]:
    """(A, B) of the window-0 sampling frame for phi_k = 1/k!.

    Rows are e^{-|w|^2/2} w^m / sqrt(m!) at w = sqrt(pi s)(m + i n),
    |m|, |n| <= M; A and B are the extreme eigenvalues of V^H V.
    """
    w = _exp_lattice(s, M)
    V = (np.exp(-0.5 * np.abs(w) ** 2)[:, None]
         * w[:, None] ** np.arange(N + 1)[None, :] * _inv_sqrt_factorials(N)[None, :])
    ev = np.linalg.eigvalsh(V.conj().T @ V)
    return max(float(ev[0]), 0.0), float(ev[-1])


def canonical_dual_exp(s: float, M: int, N: int) -> np.ndarray:
    """Window-0 dual atom coordinates for phi_k = 1/k!, solved directly.

    Atom rows are e^{-|z|^2/2} conj(z)^p / p! on the lattice of size s; the
    solution of S gamma = e_0 is scaled so that its pairing with e_0 is 1.
    """
    z = _exp_lattice(s, M)
    inv_fact = np.array([1.0 / math.factorial(p) for p in range(N + 1)])
    K = (np.exp(-0.5 * np.abs(z) ** 2)[:, None]
         * np.conj(z)[:, None] ** np.arange(N + 1)[None, :] * inv_fact[None, :])
    e0 = np.zeros(N + 1, dtype=complex)
    e0[0] = 1.0
    gam = np.linalg.solve(K.T @ K.conj(), e0)
    return gam / np.vdot(e0, gam)
