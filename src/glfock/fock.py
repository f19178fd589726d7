"""Weighted Fock-space machinery: radial weight kernels, moments, inner products.

A coefficient family phi determines the sequence space with
<f, g> = sum conj(f_k) g_k / phi_k (conjugation on the FIRST slot).  The
planar realization integrates against a radial weight W(x), x = |z|^2:

    <f, g> = (1/pi) int conj(f) g W(|z|^2) dA(z),

and the two agree exactly when the weight's Mellin moments hit
int x^n W(x) dx = 1/phi_n.  Every weight pair is therefore *gated* on a
numerical moment check before it may be used inside an integral.

Only closed-form weights are registered (general Mellin inversion is out of
scope); the registered forms below are verified by forward moments in tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (PhiDescriptor, TruncatedSeries, gl_derivative, multiply_z, phi_coeffs,
                   signs_logs)
from .errors import ConvergenceError, DivergenceError, UnverifiedWeightError
from .special import _horner

__all__ = [
    "WeightKernel",
    "QuadratureScheme",
    "MomentReport",
    "registered_weight",
    "verified_weight",
    "default_quadrature",
    "moment",
    "moment_check",
    "inner_product_l2phi",
    "inner_product_fock",
    "reproduce",
    "duality_check",
]


# family -> closed form of its registered weight
_WEIGHT_FORMS = {"exponential": "exp", "mittag_leffler": "ml",
                 "stretched_gamma": "stretched_exp", "gamma_deriv": "log"}


@dataclass(frozen=True)
class WeightKernel:
    """Radial weight W(x) = K(-x) of desc's family, in closed form; the
    family picks the form and desc's params are the form's.

    Forms
    -----
    exp            W(x) = exp(-x)                      exponential
    ml             W(x) = rho x^(rho mu - 1) exp(-x^rho)   mittag_leffler
    stretched_exp  W(x) = exp(-a x^b)                  stretched_gamma
    log            W(x) = exp(-x) ln(x)^n              gamma_deriv
                   (signed on x < 1 for odd n: excluded from positivity-
                   dependent operations, used with an explicit warning)
    """

    desc: PhiDescriptor
    verified: bool = False

    @property
    def form(self) -> str:
        return _WEIGHT_FORMS[self.desc.family]

    @property
    def is_positive(self) -> bool:
        return not (self.form == "log" and int(self.desc.params_dict["n"]) % 2 == 1)

    def weight(self, x):
        """W(x) on x > 0, vectorized."""
        x = np.asarray(x, dtype=float)
        form, p = self.form, self.desc.params_dict
        if form == "exp":
            return np.exp(-x)
        if form == "ml":
            rho, mu = p["rho"], p["mu"]
            return rho * x ** (rho * mu - 1.0) * np.exp(-(x ** rho))
        if form == "stretched_exp":
            return np.exp(-p["a"] * x ** p["b"])
        with np.errstate(divide="ignore"):
            return np.exp(-x) * np.log(x) ** int(p["n"])


def registered_weight(desc: PhiDescriptor) -> WeightKernel:
    """The closed-form weight registered for desc's family (unverified).

    Its moments are 1/phi_n of the unnormalized family, so a normalized
    descriptor is accepted only when the unnormalized phi_0 is exactly 1.
    """
    if desc.normalized:
        s, l = signs_logs(replace(desc, normalized=False), 0)
        if (s[0], l[0]) != (1.0, 0.0):
            raise ValueError(f"no registered weight for normalized {desc.family!r} "
                             f"with params {desc.params_dict}: its phi_0 is not 1")
    if desc.family not in _WEIGHT_FORMS:
        raise ValueError(f"no closed-form weight registered for family {desc.family!r}")
    return WeightKernel(desc)


@dataclass(frozen=True)
class QuadratureScheme:
    """The radial rule for planar integrals in polar form, as
    default_quadrature picks it.

    radial is always "adaptive_tail": the exp-sinh double-exponential rule
    on [0, inf) (Takahasi & Mori 1974), built from the weight alone.  Its
    step is halved from 1/16 to at most 1/128, reusing every earlier node,
    until two successive sums agree within 10 * max(tol, tol * |I|),
    tol = 1e-9.  No angular rule is needed: the ring means of the planar
    integrands are polynomials in x = |w|^2 with known coefficients.
    """

    radial: str


def default_quadrature(wk: WeightKernel) -> QuadratureScheme:
    """The one rule against wk: the exp-sinh radial rule for every weight."""
    return QuadratureScheme(radial="adaptive_tail")


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


# exp-sinh rule: x = exp(pi/2 sinh t) on _DE_T_MIN <= t <= _DE_T_MAX, step
# _DE_H0 / 2^level, to tolerance _DE_TOL.  The left end reaches x ~ 1e-227,
# so a weight like x^(a-1) at 0 loses about x^a / a there: below 1e-20 down
# to a = 0.1.
_DE_T_MIN = -6.5
_DE_T_MAX = 4.5
_DE_H0 = 1.0 / 16.0
_DE_LEVELS = 4
_DE_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=64)
def _exp_sinh_rule(wk: WeightKernel):
    """wk's exp-sinh rule, read-only: the nodes of levels 0 and 1 together,
    the size of level 0, and per level the nodes x = exp(pi/2 sinh t) it adds
    (every multiple of the step at level 0, the odd multiples after that)
    kept where dx/dt * W(x) is nonzero, with those products.

    At the far nodes (x up to 1e30) a power in W can overflow while its
    exponential factor underflows; the resulting inf or nan stands for a
    weight that is 0 in exact arithmetic, so those nodes are dropped too.

    Every level is cut at one left point t_L, so the levels stay nested:
    the largest t_L such that each node left of it has x < 1 and their
    |dx/dt * W|, summed over all levels, is at most eps * h * sum |dx/dt * W|
    over the whole rule, h = 1/128, i.e. eps * int |W|.  The integrands g
    are polynomials in x, bounded on [0, 1] by their coefficient 1-norm
    |g|_1, so the cut moves a level's sum by at most eps * int |W| * |g|_1.
    """
    levels = []
    for level in range(_DE_LEVELS):
        h = _DE_H0 / 2 ** level
        k = np.arange(round(_DE_T_MIN / h), round(_DE_T_MAX / h) + 1)
        t = (k[k % 2 == 1] if level else k) * h
        x = np.exp(0.5 * np.pi * np.sinh(t))
        with np.errstate(over="ignore", invalid="ignore"):
            ww = 0.5 * np.pi * np.cosh(t) * x * wk.weight(x)
        keep = np.isfinite(ww) & (ww != 0.0)
        levels.append((t[keep], x[keep], ww[keep]))
    t, x, ww = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(t)
    mass = np.cumsum(np.abs(ww[order]))
    left = (mass <= _EPS * h * mass[-1]) & (x[order] < 1.0)
    t_left = t[order][np.count_nonzero(left)]
    levels = tuple(_read_only(x[t >= t_left], ww[t >= t_left]) for t, x, ww in levels)
    x01 = _read_only(np.concatenate((levels[0][0], levels[1][0])))[0]
    return x01, levels[0][0].size, levels


def _radial_integral(wk: WeightKernel, fn) -> complex:
    """int_0^inf fn(x) W(x) dx by the exp-sinh rule of wk; fn vectorized,
    possibly complex-valued.

    The first error estimate needs levels 0 and 1, so fn is called once on
    both levels' nodes, then once per later level on its new nodes; each
    level is summed on its own.  The error of I_h is estimated as
    |I_h - I_2h|, floored at the rounding level eps * h * sum |dx/dt W fn|;
    ConvergenceError when no level up to h = 1/128 meets the tolerance.
    """
    total, magnitude = 0.0j, 0.0
    x01, n0, levels = _exp_sinh_rule(wk)
    f01 = np.asarray(fn(x01), dtype=complex)
    first = f01[:n0], f01[n0:]
    for level, (x, ww) in enumerate(levels):
        terms = ww * (first[level] if level < 2 else np.asarray(fn(x), dtype=complex))
        total += terms.sum()
        magnitude += float(np.abs(terms).sum())
        h = _DE_H0 / 2 ** level
        val = complex(h * total)
        if level:
            err = max(abs(val - prev), _EPS * h * magnitude)
            if err <= 10.0 * max(_DE_TOL, _DE_TOL * abs(val)):
                return val
        prev = val
    raise ConvergenceError(f"radial quadrature error {err:.2e} exceeds tolerance")


def moment(wk: WeightKernel, n: int) -> float:
    """n-th radial moment int_0^inf x^n W(x) dx."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not wk.is_positive:
        warnings.warn(f"weight form {wk.form}{wk.desc.params_dict} is signed on part of "
                      "the axis; treat moment results as signed-measure data")
    val = _radial_integral(wk, lambda x: x ** float(n) + 0.0j)
    return float(val.real)


@dataclass
class MomentReport:
    rows: list          # dicts: n, moment, target, residual
    passed: bool
    failures: list      # offending n


def moment_check(desc: PhiDescriptor, wk: WeightKernel, n_max: int,
                 tol: float) -> MomentReport:
    """Verify moment(wk, n) * phi_n = 1 for n <= n_max within tol."""
    s, l = signs_logs(desc, n_max)
    rows, failures = [], []
    for n in range(n_max + 1):
        m = moment(wk, n)
        target = s[n] * math.exp(-l[n])
        residual = abs(m * s[n] * math.exp(l[n]) - 1.0)
        rows.append({"n": n, "moment": m, "target": target, "residual": residual})
        if not (residual <= tol):
            failures.append(n)
    return MomentReport(rows, not failures, failures)


def verified_weight(desc: PhiDescriptor) -> WeightKernel:
    """registered_weight gated by its moment check at n <= 10 within 1e-8;
    raises if the check fails."""
    wk = registered_weight(desc)
    report = moment_check(desc, wk, 10, 1e-8)
    if not report.passed:
        raise UnverifiedWeightError(
            f"weight {wk.form} failed moment check at n={report.failures}")
    return replace(wk, verified=True)


def inner_product_l2phi(desc: PhiDescriptor, f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Coefficient-side pairing sum conj(f_k) g_k / phi_k (conjugate-first)."""
    m = min(f.degree_cap, g.degree_cap)
    s, l = signs_logs(desc, m)
    k = np.arange(m + 1)
    return complex(np.sum(np.conj(f.coeffs[:m + 1]) * g.coeffs[:m + 1]
                          * s[k] * np.exp(-l[k])))


def _require_verified(wk: WeightKernel) -> None:
    if not wk.verified:
        raise UnverifiedWeightError(
            "weight kernel must pass moment_check (use verified_weight) "
            "before use in planar integrals")


def _polar_integral(wk: WeightKernel, c: np.ndarray) -> complex:
    """(1/pi) int F(w) W(|w|^2) dA(w) for an integrand F whose mean over
    each ring |w|^2 = x is sum c_k x^k: _radial_integral of that polynomial,
    summed by Horner's rule at the rule's nodes.  A term conj(w)^j w^k of F
    has ring mean 0 unless j = k, so the mean is exact, with no angular rule.
    """
    return _radial_integral(wk, lambda x: _horner(c[::-1], x + 0j))


def inner_product_fock(wk: WeightKernel, f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Planar pairing (1/pi) int conj(f) g W(|z|^2) dA in polar form: the
    ring mean of conj(f) g is sum conj(f_k) g_k x^k over the degrees f and g
    share."""
    if not wk.is_positive:
        warnings.warn("signed weight: planar pairing is signed-measure data")
    _require_verified(wk)
    m = min(f.degree_cap, g.degree_cap) + 1
    return _polar_integral(wk, np.conj(f.coeffs[:m]) * g.coeffs[:m])


def reproduce(desc: PhiDescriptor, wk: WeightKernel, f: TruncatedSeries, z: complex) -> complex:
    """Evaluate (1/pi) int conj(k_z(w)) f(w) W(|w|^2) dA(w), conj(k_z(w)) =
    phi(z conj(w)) truncated at f's degree cap, which is exact because higher
    kernel modes integrate to zero against a polynomial.  The ring mean is
    sum phi_k z^k f_k x^k, so with a verified weight this returns f(z) up to
    radial quadrature error.

    For the radius-1 family, DivergenceError where |z|^2 x >= 1 at a node x
    of the rule's first integrand call: the kernel series diverges there.
    """
    z = complex(z)
    _require_verified(wk)
    if not desc.entire and abs(z) ** 2 * _exp_sinh_rule(wk)[0].max() >= 1.0:
        raise DivergenceError("evaluation point outside radius of convergence (=1)")
    zk = np.full(f.degree_cap + 1, z)
    zk[0] = 1.0
    return _polar_integral(wk, phi_coeffs(desc, f.degree_cap) * zk.cumprod() * f.coeffs)


def duality_check(desc: PhiDescriptor, f: TruncatedSeries, g: TruncatedSeries) -> float:
    """Residual |<z f, g> - <f, D g>| for the coefficient pairing."""
    lhs = inner_product_l2phi(desc, multiply_z(f), g)
    rhs = inner_product_l2phi(desc, f, gl_derivative(desc, g))
    return abs(lhs - rhs)
