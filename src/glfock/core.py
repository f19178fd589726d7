"""Coefficient families phi = (phi_k) and the generalized derivative they induce.

A family is a positive (in one documented case, signed) sequence phi_k with
phi(z) = sum phi_k z^k entire (or radius-1 for the backward-shift family).
The derivative D acts on coefficients by

    (D f)_{k-1} = f_k * phi_{k-1} / phi_k ,

so phi itself is its eigenfunction with eigenvalue 1 and the classical
d/dz is recovered for phi_k = 1/k!.  All coefficient ratios are formed in
log space (differences of log-gamma) to stay stable for k in the hundreds;
series are summed by Horner's rule on the double coefficients.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DivergenceError, NonEntireError
from .special import _horner, gammaln, log_gamma_deriv

__all__ = [
    "PhiDescriptor",
    "TruncatedSeries",
    "OrderDegreeReport",
    "phi_coeff",
    "phi_coeffs",
    "gl_derivative",
    "multiply_z",
    "phi_eval",
    "order_degree_check",
]

_FAMILIES = (
    "exponential",
    "mittag_leffler",
    "stretched_gamma",
    "gamma_deriv",
    "dunkl",
    "backward_shift",
)


@dataclass(frozen=True)
class PhiDescriptor:
    """Tagged coefficient family.

    params is a sorted tuple of (name, value) pairs so descriptors are
    hashable (and hence cacheable); use the factory classmethods rather
    than the bare constructor.  rho/sigma are the asserted growth order
    and type where a pointwise bound phi(r^2) <= exp(sigma r^(2 rho))
    actually holds; families without such a pointwise bound carry None
    and get their order estimated empirically by order_degree_check.
    """

    family: str
    params: tuple = ()
    normalized: bool = False
    rho: Optional[float] = field(default=None, compare=False)
    sigma: Optional[float] = field(default=None, compare=False)
    entire: bool = field(default=True, compare=False)

    # -- factories ---------------------------------------------------------

    @classmethod
    def exponential(cls, normalized: bool = False) -> "PhiDescriptor":
        """phi_k = 1/k! (classical Fock scale)."""
        return cls("exponential", (), normalized, rho=1.0, sigma=1.0)

    @classmethod
    def mittag_leffler(cls, rho: float, mu: float, normalized: bool = False) -> "PhiDescriptor":
        """phi_k = 1/Gamma(mu + k/rho); entire of order rho."""
        _require_positive("mittag_leffler", rho=rho, mu=mu)
        return cls("mittag_leffler", (("mu", float(mu)), ("rho", float(rho))),
                   normalized, rho=float(rho), sigma=None)

    @classmethod
    def stretched_gamma(cls, a: float, b: float, normalized: bool = False) -> "PhiDescriptor":
        """phi_k = b a^((k+1)/b) / Gamma((k+1)/b); order b, type a."""
        _require_positive("stretched_gamma", a=a, b=b)
        return cls("stretched_gamma", (("a", float(a)), ("b", float(b))),
                   normalized, rho=float(b), sigma=None)

    @classmethod
    def gamma_deriv(cls, n: int, normalized: bool = False) -> "PhiDescriptor":
        """phi_k = 1/Gamma^(n)(k+1).  For n = 1 the k = 0 coefficient is
        negative (Gamma'(1) = -euler_gamma); see the signed-family notes.
        n is at most 170: log_gamma_deriv is checked against mpmath up to
        170."""
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or not 1 <= n <= 170:
            raise ValueError(f"gamma_deriv requires an integer 1 <= n <= 170, got {n!r}")
        return cls("gamma_deriv", (("n", int(n)),), normalized, rho=None, sigma=None)

    @classmethod
    def dunkl(cls, kappa: float, normalized: bool = False) -> "PhiDescriptor":
        """Rank-one Dunkl kernel coefficients,
        phi_{2m}   = (1/2)_m     / ((2m)!   (kappa+1/2)_m),
        phi_{2m+1} = (1/2)_{m+1} / ((2m+1)! (kappa+1/2)_{m+1}), kappa <= 1e3:
        log (kappa+1/2)_m is a difference of gammaln values, which cancels."""
        _require_positive("dunkl", kappa=kappa)
        if kappa > 1e3:
            raise ValueError(f"dunkl requires kappa <= 1e3, got {kappa!r}")
        return cls("dunkl", (("kappa", float(kappa)),), normalized, rho=None, sigma=None)

    @classmethod
    def backward_shift(cls, normalized: bool = False) -> "PhiDescriptor":
        """phi_k = 1: radius-1 family, D becomes the backward shift."""
        return cls("backward_shift", (), normalized, rho=None, sigma=None, entire=False)

    # -- basic props -------------------------------------------------------

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    @property
    def radius(self) -> float:
        return math.inf if self.entire else 1.0

    def normalize(self) -> "PhiDescriptor":
        return PhiDescriptor(self.family, self.params, True,
                             rho=self.rho, sigma=self.sigma, entire=self.entire)

    # -- config input ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "PhiDescriptor":
        family = d["family"]
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        normalized = d.get("normalized", False)
        if not isinstance(normalized, bool):
            raise ValueError("normalized must be true or false")
        # each family's factory is named after it; a missing or unknown
        # parameter raises TypeError there
        return getattr(cls, family)(**d.get("params", {}), normalized=normalized)


def _require_positive(family: str, **params) -> None:
    """Each parameter must be a finite real number > 0; JSON true and false
    load as bool, a subclass of int, and are refused."""
    for name, v in params.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0 < v < math.inf:
            raise ValueError(f"{family} requires a finite number {name} > 0, got {v!r}")


# ---------------------------------------------------------------------------
# coefficient values
# ---------------------------------------------------------------------------

def _raw_signs_logs(desc: PhiDescriptor, ks: np.ndarray):
    """(sign_k, log|phi_k|) for the unnormalized family, vectorized in k."""
    ks = np.asarray(ks, dtype=float)
    fam = desc.family
    p = desc.params_dict
    ones = np.ones_like(ks)
    if fam == "exponential":
        return ones, -gammaln(ks + 1.0)
    if fam == "mittag_leffler":
        return ones, -gammaln(p["mu"] + ks / p["rho"])
    if fam == "stretched_gamma":
        a, b = p["a"], p["b"]
        return ones, math.log(b) + ((ks + 1.0) / b) * math.log(a) - gammaln((ks + 1.0) / b)
    if fam == "backward_shift":
        return ones, np.zeros_like(ks)
    if fam == "dunkl":
        kap = p["kappa"]
        m = np.floor(ks / 2.0)
        odd = (ks.astype(int) % 2).astype(bool)
        mm = np.where(odd, m + 1.0, m)
        logs = (gammaln(0.5 + mm) - gammaln(0.5)
                - gammaln(ks + 1.0)
                - (gammaln(kap + 0.5 + mm) - gammaln(kap + 0.5)))
        return ones, logs
    if fam == "gamma_deriv":
        signs, logs = log_gamma_deriv(int(p["n"]), ks + 1.0)
        return signs, -logs  # phi_k = 1 / Gamma^(n)(k+1)
    raise ValueError(f"unknown family {fam!r}")


@lru_cache(maxsize=512)
def _table(desc: PhiDescriptor) -> list:
    """[signs, logs, values] of one descriptor, grown in place by _rows."""
    return [np.ones(0), np.zeros(0), np.zeros(0)]


def _rows(desc: PhiDescriptor, n: int) -> list:
    """The table of desc with at least n rows.  Only the missing rows are
    computed (each row is independent of the others), and a normalized
    table is derived from the raw rows.  Values phi_k = sign_k exp(log|phi_k|)
    are computed here, once per row: 0 below the double range, inf above."""
    if n < 1:
        raise ValueError("kmax must be >= 0")
    table = _table(desc)
    have = table[0].size
    if have < n:
        if desc.normalized:
            s, l, _ = _rows(replace(desc, normalized=False), n)
            new = s[have:n] * s[0], l[have:n] - l[0]
        else:
            new = _raw_signs_logs(desc, np.arange(have, n))
        with np.errstate(under="ignore", over="ignore"):
            new += (new[0] * np.exp(new[1]),)
        for i, rows in enumerate(new):
            table[i] = np.concatenate([table[i], rows])
            table[i].setflags(write=False)
    return table


def signs_logs(desc: PhiDescriptor, kmax: int):
    """Arrays (sign_k, log|phi_k|) for k = 0..kmax, read-only slices of the
    descriptor's one growing table."""
    s, l, _ = _rows(desc, n := int(kmax) + 1)
    return s[:n], l[:n]


def phi_coeff(desc: PhiDescriptor, k: int) -> float:
    """phi_k as a double, read from the table's value row as phi_coeffs
    reads it.

    Raises OverflowError where |log phi_k| > 708, in either direction:
    phi_k above the largest double, or below the normal range, where it
    would read 0 or subnormal (EXP's phi_171 = 8.06e-310; use signs_logs
    beyond that).
    """
    _, l, v = _rows(desc, int(k) + 1)
    if abs(l[k]) > 708.0:
        raise OverflowError(f"phi_{k} for {desc.family} outside double range (log={l[k]:.1f})")
    return float(v[k])


def phi_coeffs(desc: PhiDescriptor, kmax: int) -> np.ndarray:
    """Dense float vector (phi_0..phi_kmax), a writable copy of the table's
    value row.  Raises OverflowError only where log|phi_k| > 708 (phi_k
    above the largest double); an entry below the double range underflows,
    to a subnormal (EXP's phi_171 = 8.06e-310) or to 0 (ML(0.02, 1)'s
    phi_4..phi_10), where phi_coeff raises."""
    _, l, v = _rows(desc, n := int(kmax) + 1)
    if (over := l[:n] > 708.0).any():
        k = int(over.argmax())
        raise OverflowError(f"phi_{k} for {desc.family} outside double range (log={l[k]:.1f})")
    return v[:n].copy()


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

class _CoeffVector:
    """Immutable container of a read-only copy of a nonempty 1-D complex
    coefficient vector, indexed 0..degree_cap."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def degree_cap(self) -> int:
        return self.coeffs.size - 1


class TruncatedSeries(_CoeffVector):
    """Polynomial f(z) = sum_{k<=N} f_k z^k; the container is immutable."""

    __slots__ = ()

    def __call__(self, z):
        acc = _horner(self.coeffs[::-1], np.asarray(z, dtype=complex))
        return acc if acc.shape else complex(acc)

    def pad_to(self, n: int) -> "TruncatedSeries":
        if n <= self.degree_cap:
            return self
        return TruncatedSeries(np.concatenate([self.coeffs, np.zeros(n - self.degree_cap, complex)]))

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"TruncatedSeries(deg<={self.degree_cap}, coeffs={np.array2string(self.coeffs, precision=4)})"


def gl_derivative(desc: PhiDescriptor, f: TruncatedSeries) -> TruncatedSeries:
    """One application of the family derivative: (Df)_{k-1} = f_k phi_{k-1}/phi_k."""
    a = f.coeffs
    if a.size == 1:
        return TruncatedSeries([0.0])
    s, l = signs_logs(desc, f.degree_cap)
    ratio = s[:-1] * s[1:] * np.exp(l[:-1] - l[1:])
    return TruncatedSeries(a[1:] * ratio)


def multiply_z(f: TruncatedSeries) -> TruncatedSeries:
    """Multiplication by the coordinate: shifts coefficients up one slot."""
    return TruncatedSeries(np.concatenate([[0.0 + 0.0j], f.coeffs]))


# ---------------------------------------------------------------------------
# evaluation and growth diagnostics
# ---------------------------------------------------------------------------

def phi_eval(desc: PhiDescriptor, z, N: int):
    """Partial sum sum_{k<=N} phi_k z^k by Horner's rule on phi_coeffs, within
    gamma_2N sum |phi_k| |z|^k.  OverflowError where some log|phi_k| > 708;
    phi_k below the double range count as 0, so terms phi_k z^k that matter
    there are lost.  For the radius-1 family, |z| >= 1 raises DivergenceError.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    z = np.asarray(z, dtype=complex)
    if not desc.entire and np.any(np.abs(z) >= 1.0):
        raise DivergenceError("evaluation point outside radius of convergence (=1)")
    val = _horner(phi_coeffs(desc, N)[::-1], z)
    return val if val.shape else complex(val)


@dataclass(frozen=True)
class OrderDegreeReport:
    rho_hat: float
    sigma_hat: float


def order_degree_check(desc: PhiDescriptor, K: int = 200) -> OrderDegreeReport:
    """Estimate growth order/type from k^(1/rho)|phi_k|^(1/k) -> (sigma e rho)^(1/rho).

    Writing y_k = -(1/k) log|phi_k| the limit reads y_k ~ (ln k)/rho -
    ln(sigma e rho)/rho; the slowly varying Stirling-type corrections are
    absorbed by (ln k)/k and 1/k regressors, fitted over k in [K/2, K].
    """
    if not desc.entire:
        raise NonEntireError("order/degree defined for entire families only")
    if K < 16:
        raise ValueError("K too small for a stable fit")
    _, l = signs_logs(desc, K)
    ks = np.arange(max(4, K // 2), K + 1, dtype=float)
    y = -l[ks.astype(int)] / ks
    X = np.column_stack([np.log(ks), np.ones_like(ks), np.log(ks) / ks, 1.0 / ks])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    if slope <= 0:
        raise ValueError("non-positive slope: coefficients do not decay like an entire family")
    rho_hat = 1.0 / slope
    sigma_hat = math.exp(-intercept * rho_hat) / (math.e * rho_hat)
    return OrderDegreeReport(rho_hat, sigma_hat)
