"""Special functions used by the coefficient families and the Bargmann transform.

Two routines: log|Gamma^(n)(x)| for the gamma-derivative family, through
the closed form Gamma^(n) = Gamma * B_n(psi, psi', ..., psi^(n-1)) with B_n
the complete Bell polynomial, and the orthonormal Hermite function table.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps

__all__ = ["hermite_fn_table", "log_gamma_deriv"]


def log_gamma_deriv(n: int, x):
    """(sign, log|Gamma^(n)(x)|) via the Bell-polynomial closed form.

    Vectorized in x > 0: both parts have the shape of x, and each element
    equals the scalar call at that element.  B_n is built by the recursion
    B_m = sum_k C(m-1, k) B_(m-1-k) psi^(k)(x); a zero B_n gives sign 0 and
    log -inf.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("requires x > 0")
    a = [sps.polygamma(j, x) for j in range(n)]
    B = [np.ones_like(x)]
    for m in range(1, n + 1):
        acc = 0.0
        for k in range(m):
            acc = acc + math.comb(m - 1, k) * B[m - 1 - k] * a[k]
        B.append(acc)
    with np.errstate(divide="ignore"):
        return np.sign(B[n]), sps.gammaln(x) + np.log(np.abs(B[n]))


def hermite_fn_table(n: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_k(x) = H_k(x) e^(-x^2/2) / (pi^(1/4) 2^(k/2) sqrt(k!))
    for k = 0..n, stacked with shape (n+1, len(x)).

    Uses the normalized three-term recurrence
        h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2},
    which is stable and overflow-free for n in the hundreds.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, n + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1) / k) * out[k - 2]
    return out
