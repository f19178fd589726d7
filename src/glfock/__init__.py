"""Fock spaces built on coefficient-rescaling derivatives.

A family of positive weights phi_k defines a derivative D(a_k z^k) =
a_k (phi_{k-1}/phi_k) z^{k-1} (the classical d/dz at phi_k = 1/k!), a
weighted space of entire functions where sqrt(phi_k) z^k is orthonormal,
and a Bargmann-type transform from Hermite expansions.  The package
evaluates these objects numerically: weight-kernel moment identities,
reproducing and duality checks, Weierstrass-style lattice products with
two-sided growth diagnostics, and empirical Gabor frame bounds on
truncated subspaces.
"""

__version__ = "0.1.0"
