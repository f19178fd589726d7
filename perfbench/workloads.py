"""The three seeded workloads: set-up and op lists.

An op is one closed-loop call: a single caller runs ``op.run()``, waits for
the result, and only then issues the next op.  ``op.check(result)`` returns
the error against an oracle value that was computed before timing started;
the op passes when that error is finite and at most ``op.tol``.  A ``tol``
of 0 marks an exact or yes/no check; a ``tol`` of inf marks a CLI ``check``
suite, whose verdict is the program's own and whose error is its largest
residual.

This module imports numpy and glfock at the top because both are part of
every workload's set-up cost; it imports mpmath (through ``oracles``) only
inside the builders, so the set-up probe does not pay for it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from glfock import core, fock, frames
from glfock import weierstrass as W

ROOT = Path(__file__).resolve().parents[1]
WORK = Path(__file__).resolve().parent / ".work"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], float]
    tol: float


# ---------------------------------------------------------------------------
# reproduce: fock.reproduce on unit-scale random series
# ---------------------------------------------------------------------------

# EXP takes the Gauss-Laguerre path and is the in-workload control; the
# other three take the adaptive_tail (scipy quad) path.
REPRODUCE_FAMILIES = (
    ("exponential", {}),
    ("mittag_leffler", {"rho": 2.0, "mu": 1.0}),
    ("stretched_gamma", {"a": 1.0, "b": 2.0}),
    ("gamma_deriv", {"n": 2}),
)
REPRODUCE_TOL = 1e-6  # as in acceptance criterion 09


def setup_reproduce(tiny: bool = False) -> dict:
    """Verified weight and first-touch coefficient tables for each family.
    `tiny` keeps two families, degrees 0-2 and one draw each (for tests)."""
    families = REPRODUCE_FAMILIES[:2] if tiny else REPRODUCE_FAMILIES
    max_degree, points = (2, 1) if tiny else (10, 2)
    weights = {}
    for family, params in families:
        desc = core.PhiDescriptor.from_dict({"family": family, "params": params})
        wk = fock.verified_weight(desc)
        for n in range(max_degree + 1):
            core.signs_logs(desc, n)
        weights[family] = (params, desc, wk)
    return {"weights": weights, "max_degree": max_degree, "points": points}


def reproduce_ops(seed: int, state: dict) -> list[Op]:
    """Every family x degree 0..max_degree x `points` draws of a_k sqrt|phi_k|
    z^k series, evaluated at a uniform point of [-1.2, 1.2]^2; shuffled by
    the seed."""
    import oracles

    rng = np.random.default_rng(seed)
    max_degree = state["max_degree"]
    ops = []
    for family, (params, desc, wk) in state["weights"].items():
        scale = [math.sqrt(abs(oracles.phi_coeff(family, params, k)))
                 for k in range(max_degree + 1)]
        for deg in range(max_degree + 1):
            for _ in range(state["points"]):
                a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                coeffs = a * np.array(scale[: deg + 1])
                z = complex(*rng.uniform(-1.2, 1.2, size=2))
                want = oracles.horner(coeffs, z)
                f = core.TruncatedSeries(coeffs)
                ops.append(Op(
                    f"reproduce/{family}/deg{deg}",
                    lambda desc=desc, wk=wk, f=f, z=z: fock.reproduce(desc, wk, f, z),
                    lambda got, want=want: abs(got - want),
                    REPRODUCE_TOL))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# lattice: sigma products, zero counting, two-sided diagnostics, frames
# ---------------------------------------------------------------------------

# Fixed points with |z| <= 2, away from the lattice nodes.
SIGMA_POINTS = np.array([0.3 + 0.2j, 0.5 + 0.5j, 1.3 - 0.4j, -0.7 + 1.6j,
                         1.5 + 1.1j, -1.9 + 0.3j, 0.1 - 1.95j, 1.4 + 1.4j])
S_VALUES = tuple(np.linspace(0.3, 1.5, 13))
ZERO_COUNT_RADIUS = 2.5  # 21 nodes of Z + iZ inside

# Lattice windows of the sigma checks, (window n, basis N, lattice M) of the
# frame sweeps, M of the two-sided diagnostic and (s, M, N) of the dual.
LATTICE_SIZES = {"windows": (12, 24), "sweeps": ((0, 12, 10), (1, 24, 16)),
                 "diag_M": 12, "dual": (0.5, 10, 12)}
LATTICE_TINY = {"windows": (4,), "sweeps": ((0, 6, 4), (1, 6, 4)),
                "diag_M": 4, "dual": (0.5, 4, 6)}


def setup_lattice(tiny: bool = False) -> dict:
    """Verified exponential weight and first touch of the product tables.
    `tiny` shrinks every window (for tests)."""
    exp = core.PhiDescriptor.exponential()
    wk = fock.verified_weight(exp)
    W.sigma_fn(exp.normalize(), 0.5 + 0.5j, W.LatticeSpec(1.0, 2))
    return {"exp": exp, "expn": exp.normalize(), "wk": wk,
            "sizes": LATTICE_TINY if tiny else LATTICE_SIZES}


def _frame_bounds_error(bounds, want) -> float:
    """Worst deviation of reported (A, B) pairs from the oracle pairs,
    relative to B."""
    if len(bounds) != len(want):
        return math.inf
    return max(max(abs(A - A0), abs(B - B0)) / B0 for (A, B), (A0, B0) in zip(bounds, want))


def _frame_property_error(rows, window_n: int) -> float:
    """0 when 0 <= A <= B for every s and A > 0 for s < 1/(n+1), the
    sufficient frame condition of Groechenig and Lyubarskii (2007)."""
    for s, A, B in rows:
        if not (0.0 <= A <= B < math.inf) or (s < 1.0 / (window_n + 1) and A <= 0.0):
            return math.inf
    return 0.0


def lattice_ops(seed: int, state: dict) -> list[Op]:
    import oracles

    exp, expn, wk, sizes = state["exp"], state["expn"], state["wk"], state["sizes"]
    ops = []
    sigma_want = np.array([oracles.sigma_square(z) for z in SIGMA_POINTS])
    zeros = oracles.lattice_count(ZERO_COUNT_RADIUS)
    for M in sizes["windows"]:
        lat = W.LatticeSpec(1.0, M)
        ops.append(Op(
            f"sigma_theta/M{M}",
            lambda lat=lat: W.sigma_fn(expn, SIGMA_POINTS, lat),
            lambda got: float(np.max(np.abs(got - sigma_want) / np.abs(sigma_want))),
            10.0 / M ** 2))
        ops.append(Op(
            f"winding/M{M}",
            lambda lat=lat: W.winding_zero_count(lambda z: W.sigma_fn(expn, z, lat),
                                         ZERO_COUNT_RADIUS),
            lambda got: float(abs(got - zeros)),
            0.0))

    gamma = W.PerturbedLattice.perturb(W.LatticeSpec(1.0, sizes["diag_M"]), 0.1, seed)
    # quarter offsets: about 0.35 from every node of Z + iZ, so at least
    # about 0.25 from every node perturbed by less than Q = 0.1
    xs = np.arange(-2.75, 2.76, 0.5)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()

    def two_sided_error(rep) -> float:
        ok = rep.feasible and 0.0 < rep.c1 <= rep.c2 < math.inf
        return 0.0 if ok else math.inf

    ops.append(Op("two_sided/perturbed",
                  lambda: W.two_sided_diag(expn, wk, gamma, grid),
                  two_sided_error, 0.0))

    for window_n, N, M in sizes["sweeps"]:
        run = (lambda window_n=window_n, N=N, M=M:
               frames.frame_sweep(exp, wk, window_n, S_VALUES, N, M))
        if window_n == 0:
            want = [oracles.frame_bounds_exp(s, N, M) for s in S_VALUES]
            check = (lambda reps, want=want: _frame_bounds_error(
                [(r.A, r.B) for r in reps], want))
            tol = 1e-9
        else:
            check = (lambda reps, window_n=window_n: _frame_property_error(
                [(s, r.A, r.B) for s, r in zip(S_VALUES, reps)], window_n))
            tol = 0.0
        ops.append(Op(f"frame_sweep/w{window_n}/N{N}/M{M}", run, check, tol))

    s, M, N = sizes["dual"]
    dual_want = oracles.canonical_dual_exp(s, M, N)
    ops.append(Op(
        f"canonical_dual/M{M}/N{N}",
        lambda: frames.canonical_dual(exp, wk, s, M, N),
        lambda got: float(np.max(np.abs(got - dual_want)) / np.max(np.abs(dual_want))),
        1e-8))
    return ops


# ---------------------------------------------------------------------------
# cli: cold `python -m glfock.cli` processes
# ---------------------------------------------------------------------------

CLI_CONFIGS = {
    "ml21": {"family": "mittag_leffler", "params": {"rho": 2.0, "mu": 1.0}},
    "gd2": {"family": "gamma_deriv", "params": {"n": 2}},
    "gd3": {"family": "gamma_deriv", "params": {"n": 3}},
}
CLI_TIMEOUT_S = 120
CLI_BASIS_N = 12  # the CLI's default truncation.basis_N


# Rows each `check` suite reports (moments n = 0..10, duality 20 draws,
# bargmann 10 draws, weierstrass 3 checks, reproduce 5 draws).
CHECK_ROWS = {"moments": 11, "duality": 20, "bargmann": 10, "weierstrass": 3, "reproduce": 5}
CLI_TINY_ARGVS = [["phi-info"], ["density"], ["check", "--suite", "duality"]]


def setup_cli(tiny: bool = False) -> dict:
    """Write the family configs; the set-up cost itself is measured as a
    fresh interpreter's ``import glfock.cli``.  `tiny` runs three cheap
    processes (for tests)."""
    WORK.mkdir(exist_ok=True)
    paths = {}
    for name, phi in CLI_CONFIGS.items():
        path = WORK / f"{name}.json"
        path.write_text(json.dumps({"phi": phi}))
        paths[name] = str(path)
    return {"configs": paths, "tiny": tiny}


def cli_argv(seed: int, configs: dict) -> list[list[str]]:
    """Every subcommand and every check suite at the default exponential
    config, the ML(2,1), GD(2), GD(3) configs, and one scaled-up config."""
    sd = ["--seed", str(seed)]
    argvs = [["phi-info"]]
    argvs += [["check", "--suite", s, *sd] for s in CHECK_ROWS]
    argvs += [["frames-sweep"], ["weierstrass-table"], ["density"],
              ["bargmann-roundtrip", *sd]]
    cfg = {k: ["--config", v] for k, v in configs.items()}
    argvs += [["check", "--suite", "reproduce", *sd, *cfg["ml21"]],
              ["check", "--suite", "weierstrass", *cfg["gd2"]],
              ["phi-info", *cfg["gd3"]], ["check", "--suite", "weierstrass", *cfg["gd3"]]]
    argvs += [["weierstrass-table", "--grid-n", "32"],
              ["frames-sweep", "--window-n", "1", "--lattice-m", "16"]]
    return argvs


def _rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))[1:]


def _phi_info_error(rows, want: list[float]) -> float:
    got = {k: float(v) for k, v in rows if k.startswith("phi_")}
    return max(abs(got[f"phi_{k}"] - w) / abs(w) for k, w in enumerate(want))


def _check_suite_error(rows, n_rows: int) -> float:
    """The largest residual of a suite whose rows all pass; inf when a row
    fails or rows are missing.  The verdict is the program's own, against
    its own tolerances: only the row count is checked independently."""
    if len(rows) != n_rows or any(r[2] != "pass" for r in rows):
        return math.inf
    return max(float(r[1]) for r in rows)


def _weierstrass_table_error(rows, grid_n: int) -> float:
    """rhs must be the distance to the nearest node of Z + iZ, ratio lhs/rhs."""
    if len(rows) != grid_n * grid_n:
        return math.inf
    err = 0.0
    for z_re, z_im, lhs, rhs, ratio in rows:
        z = complex(float(z_re), float(z_im))
        dist = abs(z - complex(round(z.real), round(z.imag)))
        lhs, rhs, ratio = float(lhs), float(rhs), float(ratio)
        if not lhs > 0.0:
            return math.inf
        err = max(err, abs(rhs - dist), abs(ratio * rhs - lhs) / lhs)
    return err


def _density_error(rows) -> float:
    """A half-open window of integer side r holds exactly r^2 points of Z^2."""
    for r, n_min, n_max, _, _ in rows:
        side = int(float(r))
        if int(n_min) != side * side or int(n_max) != side * side:
            return math.inf
    return 0.0 if rows else math.inf


def _cli_checker(argv: list[str], configs: dict) -> tuple[Callable[[str], float], float]:
    """Error of one subcommand's stdout against its oracle, and its tolerance."""
    import oracles

    cmd = argv[0]
    phi = {"family": "exponential", "params": {}}
    for name, path in configs.items():
        if path in argv:
            phi = CLI_CONFIGS[name]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if cmd == "phi-info":
        want = [oracles.phi_coeff(phi["family"], phi["params"], k) for k in range(10)]
        return (lambda out: _phi_info_error(_rows(out), want)), 1e-10
    if cmd == "check":
        n_rows = CHECK_ROWS[opt["--suite"]]
        return (lambda out: _check_suite_error(_rows(out), n_rows)), math.inf
    if cmd == "frames-sweep":
        window_n = int(opt.get("--window-n", 0))
        M = int(opt.get("--lattice-m", 10))
        if window_n == 0:
            want = [oracles.frame_bounds_exp(s, CLI_BASIS_N, M) for s in S_VALUES]
            return (lambda out: _frame_bounds_error(
                [(float(r[1]), float(r[2])) for r in _rows(out)], want)), 1e-9
        return (lambda out: _frame_property_error(
            [(float(r[0]), float(r[1]), float(r[2])) for r in _rows(out)], window_n)), 0.0
    if cmd == "weierstrass-table":
        grid_n = int(opt.get("--grid-n", 16))
        return (lambda out: _weierstrass_table_error(_rows(out), grid_n)), 1e-9
    if cmd == "density":
        return (lambda out: _density_error(_rows(out))), 0.0
    if cmd == "bargmann-roundtrip":
        return (lambda out: max(max(float(x) for x in r[1:]) for r in _rows(out))), 1e-13
    raise ValueError(f"no checker for {cmd!r}")


def python_cli(argv: list[str]) -> list[str]:
    """Command line of one cold CLI process."""
    return [sys.executable, "-m", "glfock.cli", *argv]


def cli_ops(seed: int, state: dict, launcher=python_cli) -> list[Op]:
    """One op per CLI process; `launcher(argv)` gives the command line."""
    configs = state["configs"]
    argvs = CLI_TINY_ARGVS if state["tiny"] else cli_argv(seed, configs)

    def run(cmd):
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)

    def checked(check):
        def error(proc):
            if proc.returncode != 0:
                return math.inf
            return check(proc.stdout)
        return error

    ops = []
    for argv in argvs:
        check, tol = _cli_checker(argv, configs)
        ops.append(Op(f"cli/{argv[0]}", lambda cmd=launcher(argv): run(cmd), checked(check), tol))
    return ops


WORKLOADS = {
    "reproduce": (setup_reproduce, reproduce_ops),
    "lattice": (setup_lattice, lattice_ops),
    "cli": (setup_cli, cli_ops),
}

# Typical time of one pass on the reference host (2 vCPU x86-64 VM,
# Python 3, numpy and scipy from the image).  A run makes
# round(--seconds / PASS_S) passes, so every commit, fast or slow, takes the
# same number of samples per op.
PASS_S = {"reproduce": 4.4, "lattice": 3.4, "cli": 13.0}
