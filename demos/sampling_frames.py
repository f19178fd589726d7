"""Lattice densities, frame bounds, and dual-atom biorthogonality.

The headline picture: sampling the transform side on a lattice of size s
gives a frame exactly when s is below the critical size.  The sweep below
shows the lower frame bound A(s) healthy for s < 1 and collapsing under
truncation refinement for s > 1; then the frame bounds of a scattered
sample set, and at the end a canonical dual atom paired with the kernel
atoms on the adjoint lattice.
"""

import math

import numpy as np

from glfock.core import PhiDescriptor
from glfock.fock import verified_weight
from glfock.frames import canonical_dual, density, frame_bounds, frame_sweep, kernel_atoms
from glfock.weierstrass import LatticeSpec

DESC = PhiDescriptor.exponential(normalized=True)
WK = verified_weight(PhiDescriptor.exponential())


def density_demo():
    print("counting densities of lambda Z^2 (normalized by 2 pi r^2)")
    for lam in (0.5, 1.0, 2.0):
        rep = density(LatticeSpec(lam, int(24 / lam)).points(), [10.0, 20.0])
        print(f"  lambda={lam}: d- = d+ = {rep.d_plus:.6f} "
              f"(1/(2 pi lambda^2) = {1 / (2 * math.pi * lam ** 2):.6f})")


def sweep_demo():
    print()
    print("frame sweep, window n=0, N=12, |m|,|n| <= 10")
    s_values = [0.4, 0.7, 1.0, 1.3, 1.6, 2.0]
    reps = frame_sweep(DESC, WK, 0, s_values, N=12, M=10)
    print(f"  {'s':>5} {'A':>12} {'B':>12} {'B/A':>10} {'stab':>8}")
    for s, rep in zip(s_values, reps):
        print(f"  {s:5.2f} {rep.A:12.4e} {rep.B:12.4e} "
              f"{rep.condition:10.2e} {rep.stability:8.1e}")
    print("  (A collapses for s > 1: the lattice is too sparse to sample)")


def refinement_demo():
    print()
    print("N-refinement at s=2.0 exposes the collapse as a truncation escape")
    for N in (6, 8, 10, 12, 14):
        rep = frame_sweep(DESC, WK, 0, [2.0], N=N, M=10)[0]
        print(f"  N={N:2d}  A={rep.A:.3e}")


def sample_set_demo():
    print()
    rng = np.random.default_rng(9)
    pts = rng.normal(scale=0.8, size=12) + 1j * rng.normal(scale=0.8, size=12)
    rep = frame_bounds(DESC, WK, pts, N=3)
    print("frame bounds of 12 scattered samples on the degree-3 space")
    print(f"  A={rep.A:.3f} B={rep.B:.3f}")


def dual_demo():
    print()
    print("canonical dual atom vs kernel atoms on the adjoint lattice (s=0.5)")
    gam = canonical_dual(DESC, WK, s=0.5, M=8, N=40)
    mus = LatticeSpec(math.sqrt(math.pi / 0.5), 2).points()
    K = kernel_atoms(DESC, WK, mus, N=40)
    residual = np.abs(K.conj() @ gam - (mus == 0)).max()
    print(f"  max |<atom(mu), dual> - delta(mu)| over {mus.size} points: "
          f"{residual:.3e}")


if __name__ == "__main__":
    density_demo()
    sweep_demo()
    refinement_demo()
    sample_set_demo()
    dual_demo()
