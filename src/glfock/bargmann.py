"""Coefficient-level Bargmann-type transform between L^2(R) and the phi-space.

In the orthonormal Hermite basis h_n the transform is diagonal:

    B: sum c_n h_n  |->  sum c_n sqrt(phi_n) z^n,

so it is unitary onto the coefficient space by construction.  Its whole
content is the intertwining: the L^2 ladder pair

    a* h_{n-1} = sqrt(phi_{n-1}/phi_n) h_n,   a h_n = sqrt(phi_{n-1}/phi_n) h_{n-1}

maps to multiplication by z and to the family derivative respectively.
For the one signed family (gamma_deriv n=1, phi_0 < 0) the square roots use
a coherent principal branch s_n = sqrt(phi_n), ratios formed as s_{n-1}/s_n,
which keeps roundtrip and intertwining exact; adjointness of the ladder pair
genuinely fails there (signed measure) and is not claimed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (PhiDescriptor, TruncatedSeries, _CoeffVector, gl_derivative,
                   multiply_z, signs_logs)
from .special import hermite_fn_table

__all__ = [
    "HermiteCoeffs",
    "sqrt_phi",
    "bargmann_forward",
    "bargmann_inverse",
    "bargmann_sample",
    "ladder_raise",
    "ladder_lower",
    "intertwine_residuals",
]


class HermiteCoeffs(_CoeffVector):
    """Finite expansion sum_n c_n h_n in orthonormal Hermite functions."""

    __slots__ = ()

    def __call__(self, x):
        tab = hermite_fn_table(self.degree_cap, x)
        out = self.coeffs @ tab
        return out if np.ndim(x) else complex(out[0])


def sqrt_phi(desc: PhiDescriptor, nmax: int) -> np.ndarray:
    """s_n = principal sqrt(phi_n) for n = 0..nmax (imaginary where phi_n < 0)."""
    s, l = signs_logs(desc, nmax)
    mag = np.exp(0.5 * l)
    out = np.where(s >= 0, mag + 0.0j, 1j * mag)
    return out


def bargmann_forward(desc: PhiDescriptor, h: HermiteCoeffs) -> TruncatedSeries:
    """F_n = c_n sqrt(phi_n)."""
    s = sqrt_phi(desc, h.degree_cap)
    return TruncatedSeries(h.coeffs * s)


def bargmann_inverse(desc: PhiDescriptor, F: TruncatedSeries) -> HermiteCoeffs:
    """Exact inverse of bargmann_forward (division by the same s_n)."""
    s = sqrt_phi(desc, F.degree_cap)
    return HermiteCoeffs(F.coeffs / s)


def bargmann_sample(desc: PhiDescriptor, f: Callable, N: int) -> TruncatedSeries:
    """Transform a function given pointwise: project onto h_0..h_N, then map.

    Projections use Q = max(4(N+1), 80)-node Gauss-Hermite quadrature with
    the e^{x^2} reweighting folded in log space, so large node counts do not
    overflow.  Exact when f(x) e^{x^2/2} is a polynomial of degree
    <= 2Q - 1 - N.
    """
    from numpy.polynomial.hermite import hermgauss
    x, w = hermgauss(max(4 * (N + 1), 80))
    total = np.exp(np.log(w) + x * x)         # w_i e^{x_i^2}, stable
    tab = hermite_fn_table(N, x)              # (N+1, Q)
    fv = np.asarray([f(xi) for xi in x], dtype=complex)
    c = tab @ (total * fv)
    return bargmann_forward(desc, HermiteCoeffs(c))


def _ladder_ratios(desc: PhiDescriptor, nmax: int) -> np.ndarray:
    """r_n = s_{n-1}/s_n for n = 1..nmax (equals sqrt(phi_{n-1}/phi_n) on
    positive families)."""
    s = sqrt_phi(desc, nmax)
    return s[:-1] / s[1:]


def ladder_raise(desc: PhiDescriptor, h: HermiteCoeffs) -> HermiteCoeffs:
    """Creation-type map: h_{n-1} |-> sqrt(phi_{n-1}/phi_n) h_n."""
    r = _ladder_ratios(desc, h.degree_cap + 1)
    out = np.zeros(h.coeffs.size + 1, dtype=complex)
    out[1:] = r * h.coeffs
    return HermiteCoeffs(out)


def ladder_lower(desc: PhiDescriptor, h: HermiteCoeffs) -> HermiteCoeffs:
    """Annihilation-type map: h_n |-> sqrt(phi_{n-1}/phi_n) h_{n-1}; kills h_0."""
    if h.coeffs.size == 1:
        return HermiteCoeffs([0.0])
    r = _ladder_ratios(desc, h.degree_cap)
    return HermiteCoeffs(r * h.coeffs[1:])


def intertwine_residuals(desc: PhiDescriptor, h: HermiteCoeffs) -> tuple[float, float]:
    """(lower-vs-derivative, raise-vs-multiplication) intertwining residuals.

    Both are sup-norm coefficient differences normalized by max|c_n|:
      B(a h)  vs  D(B h)      and      B(a* h)  vs  z * (B h).
    """
    scale = float(np.max(np.abs(h.coeffs))) or 1.0
    Bh = bargmann_forward(desc, h)

    lhs = bargmann_forward(desc, ladder_lower(desc, h)).pad_to(Bh.degree_cap)
    rhs = gl_derivative(desc, Bh).pad_to(Bh.degree_cap)
    res_lower = float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale

    lhs2 = bargmann_forward(desc, ladder_raise(desc, h))
    rhs2 = multiply_z(Bh)
    res_raise = float(np.max(np.abs(lhs2.coeffs - rhs2.coeffs))) / scale
    return res_lower, res_raise
