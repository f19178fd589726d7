"""Special functions used by the coefficient families and the Bargmann transform.

glfock needs only numpy.  ``gammaln`` ports cephes ``lgam`` (Moshier,
*Methods and Programs for Mathematical Functions*, 1989), the code
scipy.special compiles, and gives the same bits as ``scipy.special.gammaln``
for x > 0; its logs go through ``math``, that is the C library, because
numpy's vectorized ``np.log`` differs from it in the last bit on some
points.  ``log_gamma_deriv`` gives log|Gamma^(n)(x)| for the gamma-derivative
family from the defining integral int_0^inf t^(x-1) e^(-t) (ln t)^n dt, on a
double-exponential rule, and ``hermite_fn_table`` the orthonormal Hermite
function table.

Private helpers shared across modules, one per job: ``_horner`` (power
series), ``_square_window`` (every lattice window m + i n, |m|, |n| <= M)
and ``_power_rows`` (running-product rows w^0 .. w^N).
"""

from __future__ import annotations

import math
import numbers

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

# log_gamma_deriv's exp-sinh rule (Takahasi & Mori 1974): u = k/64 on
# [-6.5, 4.5], with pi/2 sinh u and log cosh u (from dt/du) per node.  x runs
# in blocks of about _GD_CELLS (x, node) cells, so that a block stays in cache.
_GD_U = np.arange(-416, 289) / 64.0
_GD_RULE = (0.5 * np.pi * np.sinh(_GD_U), np.log(np.cosh(_GD_U)))
_GD_CELLS = 8192


def _horner(coefs, U: np.ndarray) -> np.ndarray:
    """Horner's rule at U over coefs, the highest degree first, in one array:
    glfock's one power-series evaluator, within gamma_2n sum |c_k| |U|^k at
    degree n (Higham, Accuracy and Stability of Numerical Algorithms, 5.1)."""
    V = np.zeros(U.shape, U.dtype)
    for c in coefs:
        np.multiply(V, U, out=V)
        V += c
    return V


def _square_window(M: int) -> np.ndarray:
    """The (2M+1) x (2M+1) window of Gaussian integers m + i n, |m|, |n| <= M,
    rows m, so ravel() is m-major: glfock's one lattice window."""
    if M < 0:
        raise ValueError("lattice half-width M must be >= 0")
    g = np.arange(-M, M + 1)
    return g[:, None] + 1j * g[None, :]


def _power_rows(w: np.ndarray, N: int) -> np.ndarray:
    """The (N+1) x w.size table whose row p is w^p, from one running product
    down the rows (0^0 = 1 and 0^p = 0 exactly; row p takes p - 1
    roundings): glfock's one power builder.  Power-major, the layout
    sigma's lattice sums read; the frame rows transpose it."""
    P = np.empty((N + 1, w.size), dtype=complex)
    P[0] = 1.0
    P[1:] = w
    return np.cumprod(P, axis=0, out=P)


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
        out[small] = np.where(u == 2.0, logz, logz + t * _horner(_LGAM_B, t) / _horner(_LGAM_C, t))
        big = (x >= 13.0) & (x <= _MAXLGM)
        xb = x[big]
        q = (xb - 0.5) * _log(xb) - xb + _LS2PI
        w = 1.0 / (xb * xb)
        tail = np.where(xb >= 1000.0,
                        ((7.9365079365079365079365e-4 * w - 2.7777777777777777777778e-3) * w
                         + 0.0833333333333333333333) / xb,
                        _horner(_LGAM_A, w) / xb)
        out[big] = np.where(xb > 1.0e8, q, q + tail)
    out[x > _MAXLGM] = math.inf
    return out[()]


def _check_order(n) -> None:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"requires an integer n >= 0, got {n!r}")


def _log_mean_log_pow(n: int, x: np.ndarray, sinh: np.ndarray, log_cosh: np.ndarray):
    """(sign, log|E[(ln T)^n]|) with T ~ Gamma(x, 1) for a column x of finite
    values, one row of nodes per value."""
    e = sinh / np.maximum(1.0, np.sqrt(x) / 16.0)
    lw = x * (e - np.expm1(e)) + log_cosh
    lw -= lw.max(axis=1, keepdims=True)
    lt = np.log(x) + e
    with np.errstate(divide="ignore"):
        a = lw + n * np.log(np.abs(lt)) if n else lw
        m = a.max(axis=1, keepdims=True)
        t = np.exp(a - m)
        num = np.sum(np.copysign(t, lt) if n % 2 else t, axis=1)
        den = np.sum(np.exp(lw), axis=1)
        return np.sign(num), m[:, 0] + np.log(np.abs(num) / den)


def log_gamma_deriv(n: int, x):
    """(sign, log|Gamma^(n)(x)|) from the defining integral.

    Gamma^(n)(x) = int_0^inf t^(x-1) e^(-t) (ln t)^n dt = Gamma(x) E[(ln T)^n]
    with T ~ Gamma(x, 1).  The expectation is the ratio of two sums over the
    nodes t = x exp(e), e = pi/2 sinh(u) / g, g = max(1, sqrt(x)/16), u = k/64
    on [-6.5, 4.5]: g narrows the grid to the width of the peak at t = x.  A
    node weighs exp(x (e - expm1(e))) cosh u, scaled by the largest weight,
    and the numerator is summed in log scale with the sign of (ln t)^n.
    Checked against mpmath for n up to 170.  Below x = 1 the left end of the
    grid, t ~ x 1e-227, drops about (1e-227)^x of the mass; no caller in the
    library goes below x = 1.

    Vectorized in x > 0: both parts have the shape of x.  Each x is one
    independent row of all 705 nodes, so each element equals the scalar call
    at that element.  A zero sum gives sign 0 and log -inf; inf and nan pass
    through.
    """
    _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("requires x > 0")
    flat = x.reshape(-1)
    sign = np.where(np.isnan(flat), math.nan, 1.0)
    log = gammaln(flat)
    idx = np.flatnonzero(np.isfinite(flat))
    step = _GD_CELLS // _GD_U.size
    for i in range(0, idx.size, step):
        j = idx[i:i + step]
        sign[j], lm = _log_mean_log_pow(n, flat[j, None], *_GD_RULE)
        log[j] += lm
    return sign.reshape(x.shape)[()], log.reshape(x.shape)[()]


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
