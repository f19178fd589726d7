"""mpmath reference values shared by the tests, independent of glfock."""

import functools
import math

import mpmath as mp


def hermite_fn(n: int, x: float) -> float:
    """Orthonormal Hermite function h_n(x) = H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi))."""
    with mp.workdps(30):
        x = mp.mpf(x)
        return float(mp.hermite(n, x) * mp.exp(-x * x / 2)
                     / mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi)))


def gamma_deriv(n: int, x: float) -> tuple[float, float]:
    """(sign, log|Gamma^(n)(x)|) at 20 digits: int e^(x v - e^v) v^n dv, the
    defining integral in v = ln t, on [-(10n + 100)/x - 10, max(ln x, 0) + 6]
    with 21 even breakpoints and the peaks ln x, -n/x and 0 added; the
    integrand is below e^-300 of its peak outside that range."""
    with mp.workdps(20):
        x = mp.mpf(x)
        lo, hi = -(10 * n + 100) / x - 10, max(mp.log(x), 0) + 6
        pts = sorted({*mp.linspace(lo, hi, 21), mp.log(x), -n / x, mp.mpf(0)})
        v = mp.quad(lambda v: mp.exp(x * v - mp.exp(v)) * v ** n, pts)
        return float(mp.sign(v)), float(mp.log(abs(v)))


def _phis(family: str, params: dict, N: int) -> list:
    """phi_n / phi_0 for n = 0..N, from the family definitions."""
    if family == "exponential":
        c = [1 / mp.factorial(n) for n in range(N + 1)]
    elif family == "mittag_leffler":
        c = [1 / mp.gamma(params["mu"] + mp.mpf(n) / params["rho"]) for n in range(N + 1)]
    elif family == "gamma_deriv" and params["n"] == 1:
        c = [1 / (mp.gamma(n + 1) * mp.digamma(n + 1)) for n in range(N + 1)]
    elif family == "gamma_deriv" and params["n"] == 2:
        # Gamma'' = Gamma (psi^2 + psi')
        c = [1 / (mp.gamma(n + 1) * (mp.digamma(n + 1) ** 2 + mp.polygamma(1, n + 1)))
             for n in range(N + 1)]
    elif family == "stretched_gamma":
        a, b = mp.mpf(params["a"]), mp.mpf(params["b"])
        c = [a ** (mp.mpf(n + 1) / b) / mp.gamma(mp.mpf(n + 1) / b) for n in range(N + 1)]
    elif family == "backward_shift":
        c = [mp.mpf(1)] * (N + 1)
    elif family == "dunkl":
        # the rank-one Dunkl kernel sum x^n / b_n: b_2m = 2^2m m! (kappa + 1/2)_m,
        # b_2m+1 = 2^(2m+1) m! (kappa + 1/2)_(m+1)
        kap = mp.mpf(params["kappa"]) + mp.mpf(1) / 2
        c = [1 / (2 ** n * mp.factorial(n // 2) * mp.rf(kap, (n + 1) // 2)) for n in range(N + 1)]
    else:
        raise ValueError(f"no oracle for {family} {params}")
    return [x / c[0] for x in c]


def _psi(phis: list):
    """(psi1, psi2) = (1/phi_1, (phi_1^2 - phi_2)/phi_1^3)."""
    return 1 / phis[1], (phis[1] ** 2 - phis[2]) / phis[1] ** 3


def _series(family: str, params: dict, N: int):
    """(psi1, psi2, phi_N) with psi1 = 1/phi_1, psi2 = (phi_1^2 - phi_2)/phi_1^3
    and phi_N(u) = sum_{n<=N} phi_n u^n.  Terms after the last one of modulus
    >= 1e-40 are dropped, so the dropped part is below N 1e-40."""
    phis = _phis(family, params, N)
    psi1, psi2 = _psi(phis)
    logc = [float(mp.log(abs(c))) for c in phis]
    cut = -40 * math.log(10)

    def phi(u):
        lu = float(mp.log(abs(u))) if u else -math.inf
        n = max([m for m in range(N + 1) if logc[m] + m * lu >= cut], default=0)
        s = mp.mpc(0)
        for c in phis[n::-1]:
            s = s * u + c
        return s

    return psi1, psi2, phi


def _factor(family: str, params: dict, N: int):
    """E_N(w) = (1 - w) phi_N(psi1 w + psi2 w^2)."""
    psi1, psi2, phi = _series(family, params, N)
    return lambda w: (1 - w) * phi(psi1 * w + psi2 * w * w)


def omega_deviation_on_circle(family: str, params: dict, r: float, n: int,
                              N: int = 80) -> float:
    """max |Phi_N(w) e^(-w - w^2/2) - 1| over the n points
    w = r e^(2 pi i j / n), j < n, at 30 digits, r taken as exact;
    Phi_N(w) = phi_N(psi1 w + psi2 w^2) is evaluated directly, not as
    E_N(w) / (1 - w)."""
    with mp.workdps(30):
        psi1, psi2, phi = _series(family, params, N)
        r = mp.mpf(r)
        dev = mp.mpf(0)
        for j in range(n):
            w = r * mp.expjpi(mp.mpf(2 * j) / n)
            dev = max(dev, abs(phi(psi1 * w + psi2 * w * w) * mp.exp(-w - w * w / 2) - 1))
        return float(dev)


def remainder_max_on_unit_circle(family: str, params: dict, n: int, N: int = 80) -> float:
    """max |Omega_N(w)| = max |E_N(w) - 1| over the n points
    w = e^(2 pi i j / n), j < n, at 30 digits: on |w| = 1 the remainder
    Omega_N = (E_N - 1) / w^3 has the modulus of E_N - 1.  Omega_N is a
    polynomial, so its largest modulus on the unit disk lies on this circle."""
    with mp.workdps(30):
        E = _factor(family, params, N)
        return float(max(abs(E(mp.expjpi(mp.mpf(2 * j) / n)) - 1) for j in range(n)))


def log_factor(family: str, params: dict, w: complex, N: int = 80) -> complex:
    """log E_N(w) = log[(1 - w) phi_N(psi1 w + psi2 w^2)] at 30 digits, the
    principal branch."""
    with mp.workdps(30):
        w = mp.mpc(w)
        return complex(mp.log(_factor(family, params, N)(w)))


def log_factor_taylor(family: str, params: dict, K: int, N: int = 80) -> list:
    """Maclaurin coefficients l_0..l_K of log E_N at 30 digits: mpmath.taylor
    by Cauchy integrals on |w| = 1/4 (every order meets the same points, so
    log E_N is cached).  Coefficient k divides an integral by 4^-k, so its
    error grows fourfold per degree: valid up to degree 36, where it is
    below 1e-14 absolute for ML(2,1) and GD(1) (against log_factor_series);
    at degree 60 it is 0.1 for ML(2,1).  Beyond 36 use log_factor_series."""
    with mp.workdps(30):
        E = _factor(family, params, N)
        log_e = functools.lru_cache(maxsize=None)(lambda w: mp.log(E(w)))
        coeffs = mp.taylor(log_e, 0, K, method="quad", radius=0.25)
        return [float(mp.re(c)) for c in coeffs]


def riemann_liouville(f, t: float, order: float) -> float:
    """The Riemann-Liouville derivative (D^order f)(t) from 0 at 30 digits,
    mpmath.differint: (d/dt)^m int_0^t (t - s)^(m - order - 1) f(s) ds
    / Gamma(m - order), m = ceil(order) + 1.  f maps an mpf s in [0, t] to
    an mpf; t and order are taken as exact."""
    with mp.workdps(30):
        return float(mp.differint(f, mp.mpf(t), mp.mpf(order)))


def _compose(phis: list, psi1, psi2, N: int) -> list:
    """Maclaurin coefficients 0..2N + 1 of sum_{n<=N} phis[n] (psi1 w + psi2 w^2)^n
    (the last one 0), by composing the polynomials at the working precision."""
    K = 2 * N + 1
    power = [mp.mpf(1)] + [mp.mpf(0)] * K
    comp = [phis[0]] + [mp.mpf(0)] * K
    for n in range(1, N + 1):
        power = [mp.mpf(0)] + [psi1 * power[k - 1] + (psi2 * power[k - 2] if k > 1 else 0)
                               for k in range(1, K + 1)]
        comp = [c + phis[n] * p for c, p in zip(comp, power)]
    return comp


def factor_series(family: str, params: dict, N: int) -> tuple[list, list]:
    """Maclaurin coefficients e_0..e_(2N+1) of E_N(w) = (1 - w) sum_{n<=N}
    phi_n (psi1 w + psi2 w^2)^n at 30 digits, by composing the polynomials,
    and those of the same sum with |.| on every term, (1 + w) sum_{n<=N}
    |phi_n| (|psi1| w + |psi2| w^2)^n, the scale of the rounding error of a
    double evaluation of the same sum."""
    with mp.workdps(30):
        phis = _phis(family, params, N)
        psi1, psi2 = _psi(phis)

        def times(comp, sign):  # (1 + sign w) comp
            return [float(comp[0])] + [float(comp[k] + sign * comp[k - 1])
                                       for k in range(1, len(comp))]

        return (times(_compose(phis, psi1, psi2, N), -1),
                times(_compose([abs(c) for c in phis], abs(psi1), abs(psi2), N), 1))


def phi_column_series(family: str, params: dict, N: int) -> tuple[list, list]:
    """Maclaurin coefficients 0..2N of Phi_N(w) = sum_{n<=N} phi_n
    (psi1 w + psi2 w^2)^n at 30 digits, and those of the same sum with |.|
    on every term, sum_{n<=N} |phi_n| (|psi1| w + |psi2| w^2)^n."""
    with mp.workdps(30):
        phis = _phis(family, params, N)
        psi1, psi2 = _psi(phis)
        return ([float(c) for c in _compose(phis, psi1, psi2, N)[:-1]],
                [float(c) for c in _compose([abs(c) for c in phis], abs(psi1), abs(psi2), N)[:-1]])


def log_factor_series(family: str, params: dict, K: int, N: int = 80) -> list:
    """Maclaurin coefficients l_0..l_K of log E_N at 50 digits, from the
    series alone: e_0..e_K of E_N(w) = (1 - w) phi_N(psi1 w + psi2 w^2) by
    composing the polynomials, then n l_n = n e_n - sum_{k<n} k l_k e_{n-k}.
    No coefficient divides by a small radius, so every degree keeps its
    digits (50 less the rounding of K^2 operations)."""
    with mp.workdps(50):
        phis = _phis(family, params, N)
        psi1, psi2 = _psi(phis)
        power = [mp.mpf(1)] + [mp.mpf(0)] * K
        comp = [phis[0]] + [mp.mpf(0)] * K
        for n in range(1, N + 1):
            power = [mp.mpf(0)] + [psi1 * power[k - 1] + (psi2 * power[k - 2] if k > 1 else 0)
                                   for k in range(1, K + 1)]
            comp = [c + phis[n] * p for c, p in zip(comp, power)]
        e = [comp[0]] + [comp[k] - comp[k - 1] for k in range(1, K + 1)]
        ell = [mp.mpf(0)] * (K + 1)
        for n in range(1, K + 1):
            ell[n] = e[n] - mp.fsum(k * ell[k] * e[n - k] for k in range(1, n)) / n
        return [float(c) for c in ell]


def power_sum(coefs, z: complex) -> tuple[complex, float]:
    """(sum_k c_k z^k, sum_k |c_k| |z|^k) at 40 digits, each double c_k and z
    taken as exact: a reference for the summation alone."""
    with mp.workdps(40):
        z = mp.mpc(z)
        val, size = mp.mpc(0), mp.mpf(0)
        for c in reversed(list(coefs)):
            val = val * z + mp.mpf(float(c))
            size = size * abs(z) + abs(mp.mpf(float(c)))
        return complex(val), float(size)


def sigma_product(family: str, params: dict, z: complex, M: int, N: int = 80) -> complex:
    """z prod E_N(z / node) over the nonzero nodes m + i n, |m|, |n| <= M, at
    30 digits (mpmath's exponent range holds the product)."""
    with mp.workdps(30):
        E = _factor(family, params, N)
        z = mp.mpc(z)
        prod = z
        for m in range(-M, M + 1):
            for n in range(-M, M + 1):
                if m or n:
                    prod *= E(z / mp.mpc(m, n))
        return complex(prod)


def sigma_square(z: complex, lam: float = 1.0, dps: int = 30) -> complex:
    """Weierstrass sigma of the lattice lam (Z + iZ) from Jacobi theta
    functions, at dps digits.

    sigma(z) = (1/pi) e^{pi z^2 / 2} theta1(pi z, q) / theta1'(0, q) with
    q = e^{-pi} (DLMF 23.6.9; for the square lattice eta1 = pi/2) on Z + iZ,
    and lam sigma(z / lam) on lam (Z + iZ) (homogeneity, DLMF 23.10(iv)).
    """
    with mp.workdps(dps):
        q = mp.exp(-mp.pi)
        w = mp.mpc(z.real, z.imag) / mp.mpf(lam)
        val = (lam * mp.exp(mp.pi * w * w / 2) * mp.jtheta(1, mp.pi * w, q)
               / (mp.pi * mp.jtheta(1, 0, q, 1)))
        return complex(val)


@functools.lru_cache(maxsize=None)
def lattice_g(K: int, dps: int) -> tuple:
    """G_k = sum of nu^-k over the nonzero Gaussian integers, k = 4, 8, ...,
    K, at dps digits: G_4 = Gamma(1/4)^8 / (960 pi^2) (DLMF 23.5(iii)),
    then c_2 = 3 G_4, c_3 = 0, c_n = 3 / ((2n + 1)(n - 3))
    sum_{m=2}^{n-2} c_m c_{n-m} and G_2n = c_n / (2n - 1) (DLMF 23.9)."""
    with mp.workdps(dps):
        c = {2: 3 * mp.gamma(mp.mpf(1) / 4) ** 8 / (960 * mp.pi ** 2), 3: mp.mpf(0)}
        for n in range(4, K // 2 + 1):
            c[n] = mp.mpf(3) / ((2 * n + 1) * (n - 3)) * mp.fsum(c[m] * c[n - m]
                                                                 for m in range(2, n - 1))
        return tuple(c[k // 2] / (k - 1) for k in range(4, K + 1, 4))


@functools.lru_cache(maxsize=None)
def lattice_tail_sums(M: int, R2: int, K: int, dps: int) -> tuple:
    """T_k = G_k - sum of nu^-k over the nonzero nu of E = {max(|m|, |n|)
    <= M} u {m^2 + n^2 <= R2}, k = 4, 8, ..., K, at dps digits: the sums
    over the Gaussian integers outside E.  E is i-symmetric, so its sum is
    4 times the one over m >= 1, n >= 0."""
    L = max(M, math.isqrt(R2))
    with mp.workdps(dps):
        inner = [mp.mpf(0)] * (K // 4)
        for m in range(1, L + 1):
            for n in range(L + 1):
                if max(m, n) <= M or m * m + n * n <= R2:
                    w = 1 / mp.mpc(m, n) ** 4
                    p = w
                    for j in range(K // 4):
                        inner[j] += 4 * mp.re(p)
                        p *= w
        return tuple(g - s for g, s in zip(lattice_g(K, dps), inner))


@functools.lru_cache(maxsize=None)
def _log_factor_coeffs(family: str, params: tuple, K: int, N: int) -> tuple:
    return tuple(log_factor_series(family, dict(params), K, N))


def far_log_tail(family: str, params: dict, z: complex, M: int, N: int = 80) -> complex:
    """log prod E_N(z / nu) over the nu of Z + iZ outside the window
    max(|m|, |n|) <= M, at 50 digits: sum_k l_k z^k T_k over k = 4, 8, ...,
    with l_k from log_factor_series and T_k from lattice_tail_sums.  The
    square ring max(|m|, |n|) = j holds 8 j nodes of modulus >= j, so
    |T_k| <= B_k = 8 (M + 1)^(1-k) (1 + (M + 1) / (k - 2)); the sum stops
    after the last k up to 320 with |l_k| |z|^k B_k >= 1e-32, and the
    bound at k = 320 must be below 1e-40."""
    cap = 320
    ell = _log_factor_coeffs(family, tuple(sorted(params.items())), cap, N)
    R = M + 1
    logz = math.log(abs(z))

    def bound(k):
        return (math.log(abs(ell[k]) or 1e-300) + k * logz
                + math.log(8 * (1 + R / (k - 2))) + (1 - k) * math.log(R))

    if bound(cap) >= math.log(1e-40):
        raise ValueError("far tail does not converge by k = 320")
    K = max([k for k in range(4, cap + 1, 4) if bound(k) >= math.log(1e-32)], default=4)
    K = -(-K // 32) * 32  # fewer distinct tables to cache
    T = lattice_tail_sums(M, 0, K, 40 + 20 * math.ceil(K * math.log10(R) / 20))
    with mp.workdps(50):
        w = mp.mpc(z.real, z.imag)
        return complex(mp.fsum(mp.mpf(ell[k]) * w ** k * T[k // 4 - 1]
                               for k in range(4, K + 1, 4)))


def sigma_lattice(family: str, params: dict, z: complex, M: int, N: int = 80) -> complex:
    """sigma over the whole lattice Z + iZ: the 30-digit window product
    (sigma_product over |m|, |n| <= M) times exp of the 50-digit far tail
    (far_log_tail) over the rest."""
    with mp.workdps(30):
        return complex(mp.mpc(sigma_product(family, params, z, M, N))
                       * mp.exp(mp.mpc(far_log_tail(family, params, z, M, N))))


def log_abs_pair_product(family: str, params: dict, z: complex, pairs, N: int = 80) -> float:
    """log |prod (1 - z/node) phi_N(psi1 z/node + psi2 z^2/den^2)| over the
    (node, den) pairs, at 30 digits: the lattice product whose quadratic
    denominator need not be its node."""
    with mp.workdps(30):
        psi1, psi2, phi = _series(family, params, N)
        z = mp.mpc(z)
        prod = mp.mpc(1)
        for node, den in pairs:
            node, den = mp.mpc(node), mp.mpc(den)
            prod *= (1 - z / node) * phi(psi1 * z / node + psi2 * z * z / (den * den))
        return float(mp.log(abs(prod)))


def log_abs_cut_product(family: str, params: dict, z: complex, nodes,
                        N: int = 80) -> tuple[float, list]:
    """(log |z prod (1 - z/nu) phi_N(psi1 z/nu + psi2 z^2/nu^2)| over the
    nodes nu, the Horner condition number sum_k |phi_k| |u|^k / |phi_N(u)|
    of each factor's u), with phi_N cut at degree N and no term dropped.
    Evaluated at 60 digits, so the log holds 30 after a cancellation of up
    to 30 digits in a factor."""
    with mp.workdps(60):
        phis = _phis(family, params, N)
        psi1, psi2 = _psi(phis)
        z = mp.mpc(z)
        total, conds = mp.log(abs(z)), []
        for nu in nodes:
            w = z / mp.mpc(nu)
            u = psi1 * w + psi2 * w * w
            val = mp.polyval(phis[::-1], u)
            total += mp.log(abs((1 - w) * val))
            conds.append(float(mp.polyval([abs(c) for c in phis[::-1]], abs(u)) / abs(val)))
        return float(total), conds


def lattice_sample_rows(log_phis, s: float, M: int, windows) -> dict:
    """Window-n sampling rows L(e_m) = sum_k C(n,k)(-pi conj(w))^k (D^k e_m)(w)
    for m = 0..N at 30 digits, with (D^k e_m)(w) = phi_{m-k} / sqrt(phi_m)
    w^(m-k) and phi_m = exp(log_phis[m]), the given doubles taken as exact.
    The nodes are the doubles w = fl(sqrt(pi s) a) + i fl(sqrt(pi s) b),
    |a|, |b| <= M, in np.meshgrid(..., indexing="ij") order.

    Returns {n: (rows, sizes)}: rows[j][m] is the cell rounded to complex,
    sizes[j][m] = sum_k |term_k|.  Only the nodes with 0 <= b <= a are
    summed; the others are their images under w -> i^r w and w -> i^r conj(w),
    which are exact on the double nodes.  Term k at i^r w is i^(rm) (-1)^(rk)
    times term k at w, and at conj(w) it is the conjugate, so each image is
    an alternating or plain sum times a unit, rounded once."""
    c = math.sqrt(math.pi * s)
    side = 2 * M + 1
    K = max(windows)
    out = {n: ([None] * side * side, [None] * side * side) for n in windows}
    with mp.workdps(30):
        N = len(log_phis) - 1
        phis = [mp.exp(mp.mpf(v)) for v in log_phis]
        coef = [[(-mp.pi) ** k * phis[m - k] / mp.sqrt(phis[m]) for m in range(k, N + 1)]
                for k in range(K + 1)]
        for a in range(M + 1):
            for b in range(a + 1):
                z = mp.mpc(c * a, c * b)
                P = [mp.mpc(1)]
                for _ in range(N):
                    P.append(P[-1] * z)
                terms = [[0] * k + [q * mp.conj(P[k]) * p for q, p in zip(coef[k], P)]
                         for k in range(K + 1)]
                mags = [[abs(x) for x in row] for row in terms]
                for n in windows:
                    ks = range(n + 1)
                    sums = [[complex(sum(math.comb(n, k) * sign ** k * terms[k][m]
                                         for k in ks if k <= m))
                             for m in range(N + 1)] for sign in (1, -1)]
                    size = [float(sum(math.comb(n, k) * mags[k][m] for k in ks if k <= m))
                            for m in range(N + 1)]
                    rows, sizes = out[n]
                    for r in range(4):
                        unit = [(1, 1j, -1, -1j)[r * m % 4] for m in range(N + 1)]
                        val = sums[r % 2]
                        # i^r (a + ib) and i^r (a - ib) as lattice indices
                        for (x, y), conj in (((a, b), False), ((a, -b), True)):
                            for _ in range(r):
                                x, y = -y, x
                            j = (x + M) * side + (y + M)
                            rows[j] = [u * (v.conjugate() if conj else v)
                                       for u, v in zip(unit, val)]
                            sizes[j] = size
    return out


def gauss_zak_sum(p: int, x: float, w: float) -> float:
    """F(x, w) = sum_{j<p} |Z g(x + j/p, w)|^2 at 30 digits, with the Zak
    transform Z g(x, w) = sqrt(lam) sum_k g(lam (x - k)) e^(2 pi i k w) over
    k = -30..30, lam = sqrt(p), and the unit-norm Gaussian g(t) =
    2^(1/4) e^(-pi t^2).  The min and max of F over [0, 1)^2 are the frame
    bounds of the Gabor system of g with alpha = beta = p^(-1/2) (Zibulski &
    Zeevi, Appl. Comput. Harmon. Anal. 4, 1997; Groechenig, Foundations of
    Time-Frequency Analysis, 2001, ch. 8); the mean of F is p."""
    with mp.workdps(30):
        lam = mp.sqrt(p)
        g = lambda t: 2 ** mp.mpf(0.25) * mp.exp(-mp.pi * t * t)
        total = mp.mpf(0)
        for j in range(p):
            xj = mp.mpf(x) + mp.mpf(j) / p
            z = mp.fsum(g(lam * (xj - k)) * mp.expjpi(2 * k * mp.mpf(w)) for k in range(-30, 31))
            total += lam * abs(z) ** 2
        return float(total)


def exp_kernel_atom_rows(coeffs, zs) -> list:
    """Rows e^(-|z|^2 / 2) a_p conj(z)^p, p = 0..len(coeffs) - 1: the kernel
    atoms of the weight e^-x with the given doubles a_p, at 30 digits, each
    a_p and double z taken as exact.  Every entry is rounded once to
    complex, so it is 0 where it lies below the double range."""
    with mp.workdps(30):
        a = [mp.mpf(float(c)) for c in coeffs]
        rows = []
        for z in zs:
            zc = mp.conj(mp.mpc(z))
            scale = mp.exp(-abs(zc) ** 2 / 2)
            rows.append([complex(scale * c * zc ** p) for p, c in enumerate(a)])
        return rows
