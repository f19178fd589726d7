"""Special functions used by the coefficient families and the Bargmann transform.

glfock needs only numpy: the special functions that scipy would otherwise
supply are ports of the cephes library (Moshier, *Methods and Programs for
Mathematical Functions*, 1989), the same code scipy.special compiles, and
give the same bits as ``scipy.special.gammaln`` and ``polygamma`` for x > 0.
``gammaln`` ports ``lgam``; ``polygamma`` ports ``psi`` (with the Boost
rational on [1, 2] that scipy uses), the Hurwitz ``zeta(s, q)`` and
``Gamma`` at integers.  Every pow and log goes through ``math``, that is
the C library, because numpy's vectorized ``np.power`` and ``np.log``
differ from it in the last bit on some points.  On top of these: log|Gamma^(n)(x)| for the gamma-derivative
family, through the closed form Gamma^(n) = Gamma * B_n(psi, psi', ...,
psi^(n-1)) with B_n the complete Bell polynomial, and the orthonormal
Hermite function table.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate

import numpy as np

__all__ = ["gammaln", "hermite_fn_table", "log_gamma_deriv", "polygamma"]

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

# cephes psi: asymptotic series in 1/x^2 (A); Boost's rational on [1, 2],
# psi(x) = (x - root) (Y + P(x-1)/Q(x-1)), with Y a float32 constant (exact
# as a double too) and the positive root split in three parts; psi(n) for
# n = 1..10 summed as cephes sums it, 1 + 1/2 + ... + 1/(n-1) - euler.
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)
_PSI_Y = 0.99558162689208984
_PSI_ROOT = (1569415565.0 / 1073741824.0, (381566830.0 / 1073741824.0) / 1073741824.0,
             0.9016312093258695918615325266959189453125e-19)
_PSI_INT = np.array(list(accumulate((1.0 / i for i in range(1, 10)), initial=0.0))) \
    - 0.57721566490153286061

# cephes zeta: (2k)!/B_2k for the Euler-Maclaurin tail; the machine epsilon
# that ends both sums.
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16

# cephes Gamma above 33: Stirling series coefficients, the argument above
# which pow is split in two to avoid overflow, sqrt(2 pi), overflow threshold.
_STIR = (7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
         3.47222221605458667310e-3, 8.33333333333482257126e-2)
_MAXSTIR = 143.01608
_SQTPI = 2.50662827463100050242
_MAXGAM = 171.624376956302725


def _horner(x, coef):
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _log(v: np.ndarray) -> np.ndarray:
    # math.log, not np.log: numpy's vectorized log is one ulp off on some points
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def _pow1(b: float, e: float) -> float:
    try:
        return math.pow(b, e)
    except OverflowError:  # C pow returns inf where math.pow raises
        return math.inf


def _pow(v: np.ndarray, e: float) -> np.ndarray:
    # math.pow, not np.power: numpy's vectorized power differs in the last
    # bit on about one point in six
    return np.fromiter((_pow1(b, e) for b in v.tolist()), float, v.size)


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


def _psi(x: np.ndarray) -> np.ndarray:
    """Digamma for x > 0, cephes psi step for step; inf and nan pass through.

    Integers up to 10 come from the harmonic table.  Otherwise x < 1 is
    shifted up once and 2 < x < 10 down one at a time into [1, 2], where the
    rational is used; from 10 on the asymptotic series (log alone from 1e17).
    """
    out = x.copy()
    integer = (x <= 10.0) & (x == np.floor(x))
    out[integer] = _PSI_INT[x[integer].astype(int) - 1]
    rest = ~integer & np.isfinite(x)
    u = x[rest]
    low = u < 1.0
    y = np.where(low, -1.0 / u, 0.0)
    u = np.where(low, u + 1.0, u)
    down = u < 10.0
    while (m := down & (u > 2.0)).any():
        u = np.where(m, u - 1.0, u)
        y = np.where(m, y + 1.0 / u, y)
    g = u - _PSI_ROOT[0] - _PSI_ROOT[1] - _PSI_ROOT[2]
    r = _horner(u - 1.0, _PSI_P) / _horner(u - 1.0, _PSI_Q)
    z = 1.0 / (u * u)
    asy = _log(u) - 0.5 / u - np.where(u < 1.0e17, z * _horner(z, _PSI_A), 0.0)
    out[rest] = y + np.where(u <= 2.0, g * _PSI_Y + g * r, asy)
    return out


def _zeta(s: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz zeta(s, q) = sum_k (k + q)^-s for s > 1 and q > 0, cephes zeta
    step for step; nan passes through.

    Above q = 1e8 the leading asymptotic terms (DLMF 25.11.43).  Otherwise
    the direct sum runs to at least 9 terms and past k + q = 9, and ends
    early once a term is below eps of the sum; the rest get the
    Euler-Maclaurin tail, ended the same way.
    """
    out = np.full_like(q, math.nan)
    big = q > 1e8
    out[big] = (1.0 / (s - 1.0) + 1.0 / (2.0 * q[big])) * _pow(q[big], 1.0 - s)
    small = q <= 1e8
    a = q[small]
    acc = _pow(a, -s)
    b = np.zeros_like(a)
    loop = np.ones(a.shape, bool)
    done = ~loop
    i = 0
    while (loop := loop & ((i < 9) | (a <= 9.0))).any():
        i += 1
        a = np.where(loop, a + 1.0, a)
        b[loop] = _pow(a[loop], -s)
        acc = np.where(loop, acc + b, acc)
        hit = loop & (np.abs(b / acc) < _MACHEP)
        done |= hit
        loop &= ~hit
    w = a
    live = ~done
    acc = np.where(live, acc + b * w / (s - 1.0) - 0.5 * b, acc)
    fac, k = 1.0, 0.0
    for c in _ZETA_A:
        if not live.any():
            break
        fac *= s + k
        b = b / w
        t = fac * b / c
        acc = np.where(live, acc + t, acc)
        live &= ~(np.abs(t / acc) < _MACHEP)
        k += 1.0
        fac *= s + k
        b = b / w
        k += 1.0
    out[small] = acc
    return out


def _gamma_int(m: int) -> float:
    """Gamma(m) for an integer m >= 1, as cephes Gamma computes it: the
    product (m-1)(m-2)...2 taken from the left up to m = 33, Stirling's
    formula above.  math.gamma differs from it in the last bit from m = 24."""
    x = float(m)
    if x <= 33.0:
        return math.prod(map(float, range(m - 1, 1, -1)), start=1.0)
    if x >= _MAXGAM:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _horner(w, _STIR)
    y = math.exp(x)
    if x > _MAXSTIR:
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return _SQTPI * y * w


def _check_order(n) -> None:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"requires an integer n >= 0, got {n!r}")


def polygamma(n: int, x):
    """psi^(n)(x) for an integer n >= 0 and x > 0, elementwise; inf and nan
    pass through.

    Composed as ``scipy.special.polygamma`` composes it, psi for n = 0 and
    (-1)^(n+1) n! zeta(n+1, x) above, and bit-identical to it.
    """
    _check_order(n)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore", under="ignore"):
        if n == 0:
            return _psi(x)
        return (-1.0) ** (n + 1) * _gamma_int(n + 1) * _zeta(n + 1.0, x)


def log_gamma_deriv(n: int, x):
    """(sign, log|Gamma^(n)(x)|) via the Bell-polynomial closed form.

    Vectorized in x > 0: both parts have the shape of x, and each element
    equals the scalar call at that element.  B_n is built by the recursion
    B_m = sum_k C(m-1, k) B_(m-1-k) psi^(k)(x); a zero B_n gives sign 0 and
    log -inf.
    """
    _check_order(n)
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
