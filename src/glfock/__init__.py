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

import importlib

_EXPORTS = {
    "core": ("PhiDescriptor", "TruncatedSeries", "gl_derivative", "multiply_z",
             "phi_coeff", "phi_coeffs", "phi_eval", "order_degree_check"),
    "fock": ("WeightKernel", "QuadratureScheme", "registered_weight",
             "verified_weight", "moment", "moment_check", "carleman_partial",
             "inner_product_l2phi", "inner_product_fock", "reproduce",
             "duality_check"),
    "bargmann": ("HermiteCoeffs", "bargmann_forward", "bargmann_inverse",
                 "bargmann_sample", "ladder_raise", "ladder_lower",
                 "intertwine_residuals"),
    "weierstrass": ("PsiPair", "LatticeSpec", "PerturbedLattice", "psi_pair",
                    "weierstrass_factor", "omega", "omega_bound", "radius_bounds",
                    "sigma_fn", "g_fn", "log_g_fn", "sigma_lower_diag",
                    "two_sided_diag", "winding_zero_count"),
    "frames": ("DensityReport", "FrameReport", "density", "frame_bounds",
               "interpolate_ls", "adjoint_kernel_coeffs", "frame_sweep",
               "kernel_atoms", "canonical_dual", "biorthogonality_check"),
    "errors": ("ConvergenceError", "DivergenceError", "NonEntireError",
               "NormalizationError", "UnverifiedWeightError"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


# PEP 562: `import glfock` loads no submodule; a name loads its module on first use.
def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
