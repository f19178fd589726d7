"""Scalar special functions used by the coefficient families.

Everything here is classical: gamma and its derivatives, the two-parameter
Mittag-Leffler series, Kummer's confluent hypergeometric series, orthonormal
Hermite functions and harmonic numbers.  The Mittag-Leffler and 1F1 routines
are plain power series with adaptive truncation -- no asymptotic switching --
because the package only ever needs them at moderate arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .errors import ConvergenceError

__all__ = [
    "SpecialFnConfig",
    "gamma",
    "digamma",
    "gamma_deriv",
    "gamma_deriv_closed",
    "mittag_leffler",
    "hyp1f1",
    "hermite_fn",
    "hermite_fn_table",
    "harmonic",
]

# largest x with Gamma(x) representable in double precision
_GAMMA_OVERFLOW_X = 171.624


@dataclass(frozen=True)
class SpecialFnConfig:
    """Tolerances shared by the series/quadrature routines.

    series_tol : relative truncation target for power series
    max_terms  : hard cap on series length before signalling non-convergence
    quad_limit : subdivision limit handed to the adaptive quadrature
    """

    series_tol: float = 1e-14
    max_terms: int = 2000
    quad_limit: int = 200

    def __post_init__(self):
        if not (0 < self.series_tol < 1):
            raise ValueError("series_tol must be in (0, 1)")
        if self.max_terms < 8:
            raise ValueError("max_terms too small")
        if self.quad_limit < 10:
            raise ValueError("quad_limit too small")


DEFAULT_CONFIG = SpecialFnConfig()


def gamma(x: float) -> float:
    """Gamma function on the positive axis (and non-pole negatives)."""
    if x > _GAMMA_OVERFLOW_X:
        raise OverflowError(f"gamma({x}) exceeds double-precision range")
    out = sps.gamma(x)
    if not np.isfinite(out):
        raise ValueError(f"gamma undefined at {x}")
    return float(out)


def digamma(x: float) -> float:
    """Logarithmic derivative of gamma, x > 0."""
    if x <= 0:
        raise ValueError("digamma requires x > 0")
    return float(sps.digamma(x))


def harmonic(n: int) -> float:
    """n-th harmonic number with the empty-sum convention H_0 = 0.

    This keeps Gamma'(n+1) = n! (H_n - euler_gamma) consistent with
    digamma(1) = -euler_gamma at n = 0.
    """
    if n < 0:
        raise ValueError("harmonic requires n >= 0")
    return float(np.sum(1.0 / np.arange(1, n + 1))) if n else 0.0


def gamma_deriv(n: int, x: float, cfg: SpecialFnConfig = DEFAULT_CONFIG) -> float:
    """n-th derivative of Gamma at x > 0 by adaptive quadrature.

    The defining integral int_0^inf t^(x-1) e^(-t) ln(t)^n dt is split at
    t = 1; the (0, 1) piece is transformed with t = exp(-u) so the endpoint
    singularity of ln(t)^n becomes a smooth exponential tail:

        int_0^1 ... dt = int_0^inf (-u)^n exp(-x u) exp(-exp(-u)) du.
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    if x <= 0:
        raise ValueError("gamma_deriv requires x > 0")
    # imported here: no library path integrates with quad, so glfock does
    # not pay for loading scipy.integrate
    from scipy.integrate import quad

    sign = (-1.0) ** n

    def low(u):
        return sign * u**n * math.exp(-x * u - math.exp(-u))

    def high(t):
        return t ** (x - 1.0) * math.exp(-t) * math.log(t) ** n

    v1, e1 = quad(low, 0.0, np.inf, limit=cfg.quad_limit, epsabs=1e-12, epsrel=1e-11)
    v2, e2 = quad(high, 1.0, np.inf, limit=cfg.quad_limit, epsabs=1e-12, epsrel=1e-11)
    val = v1 + v2
    if e1 + e2 > 1e-9 * (1.0 + abs(val)):
        raise ConvergenceError(
            f"gamma_deriv({n}, {x}) quadrature error {e1 + e2:.2e} too large"
        )
    return val


def _bell_complete(a: np.ndarray) -> float:
    """Complete Bell polynomial B_n(a_1, ..., a_n); a is 1-indexed via a[0]=a_1."""
    n = len(a)
    B = np.zeros(n + 1)
    B[0] = 1.0
    for m in range(1, n + 1):
        acc = 0.0
        for k in range(m):
            acc += math.comb(m - 1, k) * B[m - 1 - k] * a[k]
        B[m] = acc
    return float(B[n])


def gamma_deriv_closed(n: int, x: float) -> float:
    """n-th derivative of Gamma via Gamma(x) * B_n(psi(x), psi'(x), ...).

    Independent of the quadrature route in :func:`gamma_deriv`; also usable
    at large x where per-point quadrature would be wasteful.
    """
    if n == 0:
        return gamma(x)
    sgn, logabs = log_gamma_deriv(n, x)
    return sgn * math.exp(logabs)


def log_gamma_deriv(n: int, x: float) -> tuple[float, float]:
    """(sign, log|Gamma^(n)(x)|) via the Bell-polynomial closed form."""
    if x <= 0:
        raise ValueError("requires x > 0")
    if n == 0:
        return 1.0, float(sps.gammaln(x))
    a = np.array([float(sps.polygamma(j, x)) for j in range(n)])
    bell = _bell_complete(a)
    if bell == 0.0:
        return 0.0, -np.inf
    return math.copysign(1.0, bell), float(sps.gammaln(x)) + math.log(abs(bell))


def mittag_leffler(rho: float, mu: float, z: complex,
                   cfg: SpecialFnConfig = DEFAULT_CONFIG) -> complex:
    """Two-parameter Mittag-Leffler series sum_k z^k / Gamma(mu + k/rho).

    Indexed so that rho is the growth order of the resulting entire function:
    mittag_leffler(1, 1, z) == exp(z).  mu must be real and positive; terms
    are assembled in log space so large |z| does not overflow prematurely.
    """
    if rho <= 0 or mu <= 0:
        raise ValueError("requires rho > 0 and mu > 0")
    z = complex(z)
    if z == 0:
        return 1.0 / gamma(mu)
    logz = np.log(complex(z))
    acc = 0.0 + 0.0j
    small = 0
    for k in range(cfg.max_terms):
        term = np.exp(k * logz - sps.gammaln(mu + k / rho))
        acc += term
        if abs(term) < cfg.series_tol * (1.0 + abs(acc)):
            small += 1
            if small >= 4:
                return complex(acc)
        else:
            small = 0
    raise ConvergenceError(
        f"mittag_leffler({rho}, {mu}, {z}) did not converge in {cfg.max_terms} terms"
    )


def hyp1f1(a: float, b: float, z: complex,
           cfg: SpecialFnConfig = DEFAULT_CONFIG) -> complex:
    """Kummer confluent hypergeometric 1F1(a; b; z) by direct series."""
    if b <= 0 and b == int(b):
        raise ValueError("1F1 pole: b is a non-positive integer")
    z = complex(z)
    term = 1.0 + 0.0j
    acc = term
    small = 0
    for k in range(cfg.max_terms):
        term = term * (a + k) * z / ((b + k) * (k + 1))
        acc += term
        if abs(term) < cfg.series_tol * (1.0 + abs(acc)):
            small += 1
            if small >= 4:
                return complex(acc)
        else:
            small = 0
    raise ConvergenceError(f"hyp1f1({a}, {b}, {z}) did not converge")


def hermite_fn(n: int, x):
    """Orthonormal Hermite function h_n(x) = H_n(x) e^(-x^2/2) / (pi^(1/4) 2^(n/2) sqrt(n!)).

    Uses the normalized three-term recurrence
        h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2},
    which is stable and overflow-free for n in the hundreds.  Vectorized in x.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=float)
    h0 = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return h0 if h0.shape else float(h0)
    h1 = math.sqrt(2.0) * x * h0
    for k in range(2, n + 1):
        h0, h1 = h1, math.sqrt(2.0 / k) * x * h1 - math.sqrt((k - 1) / k) * h0
    return h1 if h1.shape else float(h1)


def hermite_fn_table(n: int, x: np.ndarray) -> np.ndarray:
    """Stacked values h_k(x) for k = 0..n; shape (n+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, n + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1) / k) * out[k - 2]
    return out
