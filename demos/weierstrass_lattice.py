"""Elementary factors, sigma products, and two-sided lattice estimates.

Walks the chain: psi coefficients -> cubic-remainder factor E and its
normalized remainder Omega -> sigma function as a lattice product of E
factors -> perturbed-lattice g function -> two-sided modulus bounds used by
the sampling arguments.
"""

import math

import numpy as np

from glfock.core import PhiDescriptor
from glfock.fock import verified_weight
from glfock.weierstrass import (LatticeSpec, PerturbedLattice, g_fn, omega,
                                omega_bound, psi_pair, radius_bounds, sigma_fn,
                                two_sided_diag, weierstrass_factor,
                                winding_zero_count)


def psi_table():
    print("psi pair and lower radius per family")
    for desc in (PhiDescriptor.exponential(normalized=True),
                 PhiDescriptor.mittag_leffler(2, 1, normalized=True),
                 PhiDescriptor.dunkl(0.5, normalized=True),
                 PhiDescriptor.backward_shift(normalized=True)):
        ps = psi_pair(desc)
        rb = radius_bounds(desc)
        print(f"  {desc.family:16s} psi1={ps.psi1:+.6f} psi2={ps.psi2:+.6f} "
              f"r_lower={rb.r_lower:.4f} ({rb.upper_flag})")


def factor_inequality():
    print()
    print("cubic remainder on the unit disk: sup|Omega| vs a priori bound")
    xs = np.linspace(-1, 1, 41)
    zz = (xs[:, None] + 1j * xs[None, :]).ravel()
    zz = zz[np.abs(zz) <= 1.0]
    for desc in (PhiDescriptor.exponential(normalized=True),
                 PhiDescriptor.mittag_leffler(2, 1, normalized=True)):
        sup = float(np.max(np.abs(omega(desc, zz))))
        gap = float(np.max(np.abs(1 - weierstrass_factor(desc, zz))
                           - np.abs(omega(desc, zz))))
        print(f"  {desc.family:16s} sup|Omega|={sup:.4f} "
              f"bound={omega_bound(desc):.4f} |1-E|<=|Omega| gap={gap:.1e}")


def sigma_demo():
    print()
    desc = PhiDescriptor.exponential(normalized=True)
    lat = LatticeSpec(1.0, 12)
    print("sigma on the whole unit square lattice (trunc_M does not enter)")
    for z in (0.5, 0.3 + 0.4j, 0.5 + 0.5j):
        print(f"  sigma({z}) = {sigma_fn(desc, z, lat):.10f}")
    print("  sigma(1+0j) =", sigma_fn(desc, 1.0 + 0.0j, lat), "(lattice node)")
    n = winding_zero_count(lambda z: sigma_fn(desc, z, lat), 1.2)
    print("  zeros inside |z| <= 1.2 by winding count:", n)


def perturbed_demo():
    print()
    desc = PhiDescriptor.exponential(normalized=True)
    lat = LatticeSpec(1.0, 10)
    gam = PerturbedLattice.perturb(lat, Q=0.1, seed=42)
    print(f"perturbed lattice: Q=0.1, separation ratio q={gam.q:.4f}")
    for z in (0.5, 1.3 + 0.7j):
        print(f"  g({z}) = {g_fn(desc, z, gam, N=60):.8f}")
    print("  g at a perturbed node:", g_fn(desc, gam.point(1, 1), gam))

    wk = verified_weight(PhiDescriptor.exponential())
    xs = np.linspace(-1.5, 1.5, 10) + 0.17
    grid = (xs[:, None] + 1j * (xs[None, :] - 0.06)).ravel()
    grid = grid[gam.dist(grid) > 1e-3]
    rep = two_sided_diag(desc, wk, gam, grid, N=60)
    print(f"  two-sided fit: c={rep.c:.3f} c1={rep.c1:.4f} c2={rep.c2:.4f} "
          f"feasible={rep.feasible}")
    print(f"  corridor width factor c2/c1 = {rep.c2 / rep.c1:.2f} "
          f"over {rep.z.size} grid points")


if __name__ == "__main__":
    psi_table()
    factor_inequality()
    sigma_demo()
    perturbed_demo()
