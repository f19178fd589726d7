"""Special functions used by the coefficient families and the Bargmann transform.

Three routines: log Gamma(x) for x > 0, a port of the cephes ``lgam``
algorithm (Moshier, *Methods and Programs for Mathematical Functions*,
1989) that gives the same bits as ``scipy.special.gammaln``; log|Gamma^(n)(x)|
for the gamma-derivative family, through the closed form
Gamma^(n) = Gamma * B_n(psi, psi', ..., psi^(n-1)) with B_n the complete
Bell polynomial; and the orthonormal Hermite function table.  Only the
gamma-derivative routine loads scipy, for ``polygamma``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gammaln", "hermite_fn_table", "log_gamma_deriv"]

# cephes lgam: Stirling series coefficients (A), rational approximation of
# log Gamma on [2, 3] (B over monic C), log sqrt(2 pi), overflow threshold.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305


def _horner(x, coef):
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _log(v: np.ndarray) -> np.ndarray:
    # math.log, not np.log: numpy's vectorized log is one ulp off on some points
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def gammaln(x):
    """log Gamma(x) for x > 0, elementwise; inf and nan pass through.

    Bit-identical to ``scipy.special.gammaln`` for x > 0.  Below 13 the
    argument is shifted into [2, 3) with the product of the shifts kept in
    z; from 13 on the Stirling series is used.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("gammaln requires x > 0")
    out = x.copy()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        small = x < 13.0
        xs = x[small]
        # cephes steps x >= 3 down one at a time; each x - j is exact here, so
        # the n = floor(x) - 2 steps are taken at once and z is multiplied
        # up left to right as in the loop
        n = np.maximum(np.floor(xs) - 2.0, 0.0)
        j = np.arange(1.0, 11.0)
        z = np.multiply.accumulate(np.where(j <= n[:, None], xs[:, None] - j, 1.0), axis=1)[:, -1]
        p, u = -n, xs - n
        while (m := u < 2.0).any():
            z = np.where(m, z / u, z)
            p = np.where(m, p + 1.0, p)
            u = np.where(m, xs + p, u)
        t = xs + (p - 2.0)
        logz = _log(z)
        out[small] = np.where(u == 2.0, logz, logz + t * _horner(t, _LGAM_B) / _horner(t, _LGAM_C))
        big = (x >= 13.0) & (x <= _MAXLGM)
        xb = x[big]
        q = (xb - 0.5) * _log(xb) - xb + _LS2PI
        w = 1.0 / (xb * xb)
        tail = np.where(xb >= 1000.0,
                        ((7.9365079365079365079365e-4 * w - 2.7777777777777777777778e-3) * w
                         + 0.0833333333333333333333) / xb,
                        _horner(w, _LGAM_A) / xb)
        out[big] = np.where(xb > 1.0e8, q, q + tail)
    out[x > _MAXLGM] = math.inf
    return out[()]


def log_gamma_deriv(n: int, x):
    """(sign, log|Gamma^(n)(x)|) via the Bell-polynomial closed form.

    Vectorized in x > 0: both parts have the shape of x, and each element
    equals the scalar call at that element.  B_n is built by the recursion
    B_m = sum_k C(m-1, k) B_(m-1-k) psi^(k)(x); a zero B_n gives sign 0 and
    log -inf.
    """
    from scipy.special import polygamma

    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("requires x > 0")
    a = [polygamma(j, x) for j in range(n)]
    B = [np.ones_like(x)]
    for m in range(1, n + 1):
        acc = 0.0
        for k in range(m):
            acc = acc + math.comb(m - 1, k) * B[m - 1 - k] * a[k]
        B.append(acc)
    with np.errstate(divide="ignore"):
        return np.sign(B[n]), gammaln(x) + np.log(np.abs(B[n]))


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
