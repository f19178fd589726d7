"""Weight kernels: moment verification and the reproducing property.

The radial weight W must satisfy  integral x^n W(x) dx = n! phi_n / phi_n^2
style moment identities before any inner product downstream is trusted.
This script verifies the registered weights and then reproduces random
truncated series from weighted integrals.
"""

import numpy as np

from glfock.core import PhiDescriptor, TruncatedSeries, signs_logs
from glfock.fock import (inner_product_fock, moment_check, registered_weight,
                         reproduce, verified_weight)


def unit_series(desc, rng, deg):
    _, l = signs_logs(desc, deg)
    a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return TruncatedSeries(a * np.exp(0.5 * l[: deg + 1]))


def main():
    rng = np.random.default_rng(5)

    for desc in (PhiDescriptor.exponential(),
                 PhiDescriptor.mittag_leffler(2.0, 1.0),
                 PhiDescriptor.stretched_gamma(1.0, 2.0)):
        wk = registered_weight(desc)
        rep = moment_check(desc, wk, n_max=8, tol=1e-6)
        worst = max(r["residual"] for r in rep.rows)
        print(f"{desc.family:16s} weight form {wk.form:14s} "
              f"moments n<=8: {'ok' if rep.passed else 'MISMATCH'} "
              f"(worst residual {worst:.2e})")

    print()
    print("reproducing property  f(z) = <f, K_z>")
    desc = PhiDescriptor.exponential(normalized=True)
    wk = verified_weight(PhiDescriptor.exponential())
    for trial in range(4):
        f = unit_series(desc, rng, int(rng.integers(2, 9)))
        z = complex(*rng.uniform(-1.0, 1.0, size=2))
        got = reproduce(desc, wk, f, z)
        print(f"  trial {trial}: |reproduced - direct| = {abs(got - f(z)):.3e}")

    print()
    print("orthonormality of e_m = sqrt(phi_m) z^m (Gram entries)")
    basis = [TruncatedSeries(np.eye(6)[m] * np.exp(
        0.5 * signs_logs(desc, 5)[1][m])) for m in range(6)]
    G = np.array([[inner_product_fock(wk, bm, bn)
                   for bn in basis] for bm in basis])
    off = G - np.eye(6)
    print("  max |G - I| =", float(np.max(np.abs(off))))


if __name__ == "__main__":
    main()
