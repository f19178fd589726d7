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
from .special import _check_order

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
def _exp_sinh_rule(desc: PhiDescriptor):
    """The exp-sinh rule of desc's weight, read-only, and its moment table
    (see _moments), one per weight whether or not a kernel is verified.
    Per level, the rule holds the nodes x = exp(pi/2 sinh t) it adds (every
    multiple of the step at level 0, the odd multiples after that) kept where
    dx/dt * W(x) is nonzero, with those products.

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
    h = _DE_H0 / 2 ** (_DE_LEVELS - 1)
    k = np.arange(round(_DE_T_MIN / h), round(_DE_T_MAX / h) + 1)
    x = np.exp(0.5 * np.pi * np.sinh(k * h))
    with np.errstate(over="ignore", invalid="ignore"):
        ww = 0.5 * np.pi * np.cosh(k * h) * x * WeightKernel(desc).weight(x)
    keep = np.isfinite(ww) & (ww != 0.0)
    mass = np.cumsum(np.where(keep, np.abs(ww), 0.0))
    keep[:np.count_nonzero((mass <= _EPS * h * mass[-1]) & (x < 1.0))] = False
    level = _DE_LEVELS - 1 - np.log2(np.gcd(k, 2 ** (_DE_LEVELS - 1))).astype(int)
    rule = tuple(_read_only(x[m], ww[m]) for m in (keep & (level == L) for L in range(_DE_LEVELS)))
    return rule, [np.zeros((_DE_LEVELS, 0)), np.zeros((_DE_LEVELS, 0)), np.zeros(0, int)]


def _moments(wk: WeightKernel, n: int) -> list:
    """wk's moment table [M, A, e] with at least n degrees k, read-only:
    M[L, k] = h_L * (sum of dx/dt W(x) x^k over the nodes of levels <= L) and
    A[L, k] the same sum of |terms|, both times 2^-e_k; each degree is summed
    alone, so its bits do not depend on how the table grew.  e_k = 0 unless
    the sum of |terms| overflows; then e_k is what the node count times the
    largest term has above 2^1023, and a term that is not a double is
    exp(log|dx/dt W(x)| + k log x)."""
    rule, table = _exp_sinh_rule(wk.desc)
    if (have := table[2].size) < n:
        k = np.arange(have, n)[:, None]
        x, ww = (np.concatenate(a) for a in zip(*rule))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = ww * np.array([x ** float(j) for j in k[:, 0]])
            e = np.zeros((k.size, 1), int)
            if not (ok := np.isfinite(np.abs(t).sum(axis=1))[:, None]).all():
                lt = np.log(np.abs(ww)) + k * np.log(x)
                top = lt.max(axis=1, keepdims=True) + math.log(x.size)
                e = np.where(ok, 0, np.maximum(np.ceil(top / math.log(2)) - 1023, 0)).astype(int)
                t = np.where(np.isfinite(t), np.ldexp(t, -e), np.copysign(np.exp(lt - e * math.log(2)), ww))
        ends = np.cumsum([a.size for a, _ in rule])
        t = [t[:, end - a.size:end] for (a, _), end in zip(rule, ends)]  # one block per level
        h = _DE_H0 / 2.0 ** np.arange(_DE_LEVELS)[:, None]
        new = (h * np.cumsum([a.astype(complex).sum(axis=1).real for a in t], axis=0),
               np.cumsum([np.abs(a).sum(axis=1) for a in t], axis=0), e[:, 0])
        table[:] = _read_only(*(np.concatenate(a, axis=-1) for a in zip(table, new)))
    return table


def _radial_integral(wk: WeightKernel, c: np.ndarray) -> complex:
    """int_0^inf (sum_k c_k x^k) W(x) dx by the exp-sinh rule of wk: level L
    sums I_L = sum_k c_k M[L, k] (numpy's sums, not BLAS's), with error
    max(|I_L - I_{L-1}|, eps * h_L * sum_k |c_k| A[L, k]); ConvergenceError
    when no level up to h = 1/128 meets the tolerance with a finite value."""
    c = np.asarray(c, dtype=complex)
    M, A, e = _moments(wk, c.size)
    with np.errstate(over="ignore", invalid="ignore"):
        if e[:c.size].any():
            c = np.ldexp(c.view(float), np.repeat(e[:c.size], 2)).view(complex)
        vals, floors = (M[:, :c.size] * c).sum(axis=1), (A[:, :c.size] * np.abs(c)).sum(axis=1)
    for level in range(1, _DE_LEVELS):
        err = max(abs(vals[level] - vals[level - 1]), _EPS * _DE_H0 / 2 ** level * floors[level])
        if err <= 10.0 * max(_DE_TOL, _DE_TOL * abs(vals[level])) < math.inf:
            return complex(vals[level])
    raise ConvergenceError(f"radial quadrature error {err:.2e} exceeds tolerance")


def moment(wk: WeightKernel, n: int) -> float:
    """n-th radial moment int_0^inf x^n W(x) dx."""
    _check_order(n)
    if not wk.is_positive:
        warnings.warn(f"weight form {wk.form}{wk.desc.params_dict} is signed on part of "
                      "the axis; treat moment results as signed-measure data")
    return float(_radial_integral(wk, np.arange(n + 1) == n).real)


@dataclass
class MomentReport:
    rows: list          # dicts: n, moment, target, residual
    passed: bool
    failures: list      # offending n


def moment_check(desc: PhiDescriptor, wk: WeightKernel, n_max: int,
                 tol: float) -> MomentReport:
    """Verify moment(wk, n) * phi_n = 1 for n <= n_max within tol."""
    s, l = signs_logs(desc, n_max)
    _moments(wk, n_max + 1)
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
    """Coefficient-side pairing sum conj(f_k) g_k / phi_k (conjugate-first);
    where 1/phi_k overflows, each part p of a term is exp(log|p| - log|phi_k|)."""
    m = min(f.degree_cap, g.degree_cap)
    s, l = signs_logs(desc, m)
    c = np.conj(f.coeffs[:m + 1]) * g.coeffs[:m + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = c * s * (inv := np.exp(-l))
        p = c[(out := np.isinf(inv))].view(float) * np.repeat(s[out], 2)
        terms[out] = np.copysign(np.exp(np.log(np.abs(p)) - np.repeat(l[out], 2)), p).view(complex)
    return complex(np.sum(terms))


def _require_verified(wk: WeightKernel) -> None:
    if not wk.verified:
        raise UnverifiedWeightError(
            "weight kernel must pass moment_check (use verified_weight) "
            "before use in planar integrals")


def inner_product_fock(wk: WeightKernel, f: TruncatedSeries, g: TruncatedSeries) -> complex:
    """Planar pairing (1/pi) int conj(f) g W(|z|^2) dA in polar form: the
    ring mean of conj(f) g is sum conj(f_k) g_k x^k over the degrees f and g
    share: a term conj(w)^j w^k has ring mean 0 unless j = k, so the mean
    is exact, with no angular rule."""
    if not wk.is_positive:
        warnings.warn("signed weight: planar pairing is signed-measure data")
    _require_verified(wk)
    m = min(f.degree_cap, g.degree_cap) + 1
    return _radial_integral(wk, np.conj(f.coeffs[:m]) * g.coeffs[:m])


def reproduce(desc: PhiDescriptor, wk: WeightKernel, f: TruncatedSeries, z: complex) -> complex:
    """Evaluate (1/pi) int conj(k_z(w)) f(w) W(|w|^2) dA(w), conj(k_z(w)) =
    phi(z conj(w)) truncated at f's degree cap, which is exact because higher
    kernel modes integrate to zero against a polynomial.  The ring mean is
    sum phi_k z^k f_k x^k, integrated against the rule's moment table, so
    with a verified weight this returns f(z) up to radial quadrature error.

    For the radius-1 family, DivergenceError where |z|^2 x >= 1 at a node of
    the rule's first two levels: the kernel series diverges there.

    z^k is a scalar running product: special._power_rows' bits at about
    half its cost per call.
    """
    z = complex(z)
    _require_verified(wk)
    if not desc.entire and abs(z) ** 2 * max(x[-1] for x, _ in _exp_sinh_rule(wk.desc)[0][:2]) >= 1.0:
        raise DivergenceError("evaluation point outside radius of convergence (=1)")
    zk = np.full(f.degree_cap + 1, z)
    zk[0] = 1.0
    return _radial_integral(wk, phi_coeffs(desc, f.degree_cap) * zk.cumprod() * f.coeffs)


def duality_check(desc: PhiDescriptor, f: TruncatedSeries, g: TruncatedSeries) -> float:
    """Residual |<z f, g> - <f, D g>| for the coefficient pairing."""
    lhs = inner_product_l2phi(desc, multiply_z(f), g)
    rhs = inner_product_l2phi(desc, f, gl_derivative(desc, g))
    return abs(lhs - rhs)
