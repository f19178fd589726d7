"""Batch command-line front end.

Subcommands expose the library pipelines with JSON config input and CSV/JSON
output suitable for plotting.  All output is deterministic for a fixed
config and seed: floats are rendered with shortest-roundtrip repr, rows keep
a fixed order, and no timestamps or environment data are emitted.

Exit codes: 0 all checks passed, 1 assertion failure, 2 configuration error,
3 numerical non-convergence.  main alone maps the library's refusals to them:
UnverifiedWeightError exits 1, any other ValueError (NonEntireError and
DivergenceError among them) and OverflowError exit 2, ConvergenceError 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

# A cold process compiles every module it imports, so each command imports the
# glfock modules it calls where it is defined; load_config and main need these.
from .core import (PhiDescriptor, TruncatedSeries, order_degree_check, phi_coeff,
                   signs_logs)
from .errors import ConvergenceError, NonEntireError, UnverifiedWeightError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NONCONV = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    desc: PhiDescriptor
    series_N: int = 80
    lattice_M: int = 12
    basis_N: int = 12
    seed: int = 0
    out_path: Optional[str] = None
    out_format: Optional[str] = None


_DEFAULT_PHI = {"family": "exponential", "params": {}, "normalized": False}

# The keys a config file may set in each object ("" is the root), as the
# README lists them; any other key is a configuration error.  phi.params
# holds the family factory's own keyword arguments.
CONFIG_KEYS = {
    "": ("phi", "truncation", "seed", "output"),
    "phi": ("family", "params", "normalized"),
    "truncation": ("series_N", "lattice_M", "basis_N"),
    "output": ("path", "format"),
}


def _check_keys(section: str, obj) -> None:
    """The config's `section` object must set only keys CONFIG_KEYS names."""
    where = f"field '{section}'" if section else "config root"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(CONFIG_KEYS[section]))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r} "
                          f"(accepted: {', '.join(CONFIG_KEYS[section])})")


def load_config(path: Optional[str]) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON in config: {e}")
    _check_keys("", raw)
    phi = raw.get("phi", _DEFAULT_PHI)
    _check_keys("phi", phi)
    try:
        desc = PhiDescriptor.from_dict(phi)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"field 'phi': {e}")
    cfg = RunConfig(desc=desc)
    trunc = raw.get("truncation", {})
    _check_keys("truncation", trunc)
    for key, v in trunc.items():
        if not _is_int(v) or v <= 0:
            raise ConfigError(f"field 'truncation.{key}': positive integer required")
        setattr(cfg, key, v)
    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("field 'seed': natural number required")
    cfg.seed = seed
    out = raw.get("output", {})
    _check_keys("output", out)
    cfg.out_path = out.get("path")
    if cfg.out_path is not None and not isinstance(cfg.out_path, str):
        raise ConfigError("field 'output.path': expected a file name string")
    cfg.out_format = out.get("format")
    if cfg.out_format is not None and cfg.out_format not in ("csv", "json"):
        raise ConfigError("field 'output.format': must be 'csv' or 'json'")
    return cfg


def _is_int(v) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_range(desc: PhiDescriptor, kmax: int) -> None:
    """phi_0..phi_kmax, the coefficients a command uses, must be doubles:
    phi_coeff raises OverflowError, a config error, where one is not.  It
    refuses underflow too: the commands divide by phi_n (the Fock inner
    product sum conj(f_n) g_n / phi_n, the moment gate's target 1/phi_n),
    which is past the largest double where phi_n is below the normal range
    (ML(0.02, 1) from n = 4)."""
    for k in range(kmax + 1):
        phi_coeff(desc, k)


def _resolve_weight(cfg: RunConfig, verify: bool = True):
    from .fock import registered_weight, verified_weight
    _require_range(cfg.desc, 10)  # the moment gate's n_max
    return verified_weight(cfg.desc) if verify else registered_weight(cfg.desc)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _num(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(cfg: RunConfig, args, header: list, rows: list, json_obj):
    fmt = args.format or cfg.out_format or "csv"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_num(v) for v in r])
        text = buf.getvalue()
    else:
        text = json.dumps(json_obj, indent=2, sort_keys=True, default=_json_default) + "\n"
    path = args.out or cfg.out_path
    if path:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write output: {e}")
    else:
        sys.stdout.write(text)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phi_info(cfg: RunConfig, args) -> int:
    from .weierstrass import psi_pair, radius_bounds
    d = cfg.desc
    coeffs = [phi_coeff(d, k) for k in range(10)]
    ps = psi_pair(d)
    rb = radius_bounds(d, N=max(100, 2 * cfg.series_N))
    info = {
        "family": d.family,
        "params": d.params_dict,
        "normalized": d.normalized,
        "phi_coeffs": coeffs,
        "psi1": ps.psi1,
        "psi2": ps.psi2,
        "r_lower": rb.r_lower,
        "r_upper": rb.r_upper,
        "upper_flag": rb.upper_flag,
        "rho_asserted": d.rho,
        "sigma_asserted": d.sigma,
    }
    try:
        rep = order_degree_check(d, K=cfg.series_N * 2)
        info["rho_hat"] = rep.rho_hat
        info["sigma_hat"] = rep.sigma_hat
    except NonEntireError:
        info["rho_hat"] = None
        info["sigma_hat"] = None
    rows = [["family", d.family],
            ["params", json.dumps(d.params_dict, sort_keys=True)],
            ["normalized", d.normalized]]
    rows += [[f"phi_{k}", c] for k, c in enumerate(coeffs)]
    rows += [[k, info[k]] for k in ("psi1", "psi2", "r_lower", "r_upper",
                                    "upper_flag", "rho_hat", "sigma_hat",
                                    "rho_asserted", "sigma_asserted")]
    _emit(cfg, args, ["key", "value"], rows, info)
    return EXIT_OK


def _suite_moments(cfg: RunConfig) -> list:
    from .fock import moment_check
    if not cfg.desc.entire:
        raise ConfigError("moments suite rejects non-entire families")
    wk = _resolve_weight(cfg, verify=False)
    rep = moment_check(cfg.desc, wk, n_max=10, tol=1e-8)
    return [{"check": f"moment_{row['n']}", "residual": row["residual"],
             "pass": row["n"] not in rep.failures} for row in rep.rows]


def _random_series(desc: PhiDescriptor, rng, deg: int) -> TruncatedSeries:
    """Unit-scale random element: coefficients a_k sqrt(|phi_k|), a_k ~ N(0,1).

    Raw N(0,1) monomial coefficients would put all the mass in high modes,
    where 1/phi_k amplifies rounding by k! and drowns genuine residuals.
    """
    _, l = signs_logs(desc, deg)
    a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return TruncatedSeries(a * np.exp(0.5 * l[: deg + 1]))


def _suite_duality(cfg: RunConfig) -> list:
    from .fock import duality_check
    _require_range(cfg.desc, 12)  # the largest degree drawn below
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for t in range(20):
        deg = int(rng.integers(1, 13))
        f = _random_series(cfg.desc, rng, deg)
        g = _random_series(cfg.desc, rng, deg)
        r = duality_check(cfg.desc, f, g)
        rows.append({"check": f"duality_{t}", "residual": r, "pass": r <= 1e-12})
    return rows


def _bargmann_trials(cfg: RunConfig, trials: int, degree: int) -> list:
    """(round-trip, lowering, raising) residuals for `trials` random Hermite
    expansions of the given degree, drawn from the config seed."""
    from .bargmann import (HermiteCoeffs, bargmann_forward, bargmann_inverse,
                           intertwine_residuals)
    _require_range(cfg.desc, degree + 1)  # the raising operator reaches degree + 1
    rng = np.random.default_rng(cfg.seed)
    out = []
    for _ in range(trials):
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        h = HermiteCoeffs(c)
        back = bargmann_inverse(cfg.desc, bargmann_forward(cfg.desc, h))
        rt = float(np.max(np.abs(back.coeffs - h.coeffs)))
        out.append((rt, *intertwine_residuals(cfg.desc, h)))
    return out


def _suite_bargmann(cfg: RunConfig) -> list:
    if not cfg.desc.entire:
        raise ConfigError("bargmann suite rejects non-entire families")
    rows = []
    for t, (rt, rl, rr) in enumerate(_bargmann_trials(cfg, 10, 15)):
        ok = rt <= 1e-13 and rl <= 1e-13 and rr <= 1e-13
        rows.append({"check": f"bargmann_{t}", "residual": max(rt, rl, rr), "pass": ok})
    return rows


def _suite_weierstrass(cfg: RunConfig) -> list:
    from .weierstrass import omega, omega_bound, psi_pair, weierstrass_factor
    rows = []
    ps = psi_pair(cfg.desc)
    rows.append({"check": "psi_finite", "residual": 0.0,
                 "pass": math.isfinite(ps.psi1) and math.isfinite(ps.psi2)})
    xs = np.linspace(-1.0, 1.0, 21)
    zz = (xs[:, None] + 1j * xs[None, :]).ravel()
    zz = zz[np.abs(zz) <= 1.0]
    E = weierstrass_factor(cfg.desc, zz, cfg.series_N)
    Om = omega(cfg.desc, zz, cfg.series_N)
    # |1 - E| = |z|^3 |Omega| <= |Omega|, equality on |z| = 1: both sides
    # round relative to |Omega|, so the slack is too
    gap = np.abs(1.0 - E) - np.abs(Om)
    rows.append({"check": "E_inequality_grid", "residual": max(float(gap.max()), 0.0),
                 "pass": bool(np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(Om))))})
    bound = omega_bound(cfg.desc)
    sup = float(np.max(np.abs(Om)))
    ok = (sup <= bound * (1 + 1e-12)) if math.isfinite(bound) else True
    rows.append({"check": "omega_bound", "residual": max(sup - bound, 0.0) if math.isfinite(bound) else 0.0,
                 "pass": ok})
    return rows


def _suite_reproduce(cfg: RunConfig) -> list:
    from .fock import reproduce
    if not cfg.desc.entire:
        raise ConfigError("reproduce suite rejects non-entire families")
    wk = _resolve_weight(cfg)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for t in range(5):
        deg = int(rng.integers(0, 9))
        f = TruncatedSeries(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        z = complex(*rng.uniform(-1.2, 1.2, size=2))
        got = reproduce(cfg.desc, wk, f, z)
        r = abs(got - f(z))
        rows.append({"check": f"reproduce_{t}", "residual": float(r), "pass": r <= 1e-6})
    return rows


_SUITES = {
    "moments": _suite_moments,
    "duality": _suite_duality,
    "bargmann": _suite_bargmann,
    "weierstrass": _suite_weierstrass,
    "reproduce": _suite_reproduce,
}


def cmd_check(cfg: RunConfig, args) -> int:
    rows = _SUITES[args.suite](cfg)
    passed = all(r["pass"] for r in rows)
    report = {"suite": args.suite, "family": cfg.desc.family,
              "passed": passed, "rows": rows}
    table = [[r["check"], r["residual"], "pass" if r["pass"] else "FAIL"] for r in rows]
    _emit(cfg, args, ["check", "residual", "status"], table, report)
    if not passed:
        first = next(r for r in rows if not r["pass"])
        print(f"FAILED: {first['check']} residual {first['residual']:.3e}",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_frames_sweep(cfg: RunConfig, args) -> int:
    from .frames import frame_sweep
    if not (0 < args.s_min <= args.s_max < math.inf):
        raise ConfigError("need 0 < s-min <= s-max < inf")
    if args.steps < 0:
        raise ConfigError("steps must be >= 0")
    if args.window_n < 0 or args.lattice_m < 0:
        raise ConfigError("window-n and lattice-m must be >= 0")
    wk = _resolve_weight(cfg)
    header = ["s", "A", "B", "condition", "basis_dim", "stability", "status"]
    rows = []
    for s in np.linspace(args.s_min, args.s_max, args.steps):
        try:
            rep = frame_sweep(cfg.desc, wk, args.window_n, [s],
                              N=cfg.basis_N, M=args.lattice_m)[0]
            rows.append([float(s), rep.A, rep.B, rep.condition,
                         rep.basis_dim, rep.stability, "ok"])
        except (ValueError, np.linalg.LinAlgError) as e:
            rows.append([float(s), math.nan, math.nan, math.nan,
                         cfg.basis_N + 1, math.nan, f"error:{type(e).__name__}"])
    _emit(cfg, args, header, rows,
          {"s": [r[0] for r in rows], "reports": [dict(zip(header, r)) for r in rows]})
    return EXIT_OK


def cmd_weierstrass_table(cfg: RunConfig, args) -> int:
    from .weierstrass import LatticeSpec, sigma_lower_diag
    wk = _resolve_weight(cfg, verify=False)
    if args.grid_n < 1:
        raise ConfigError("grid-n must be >= 1")
    if not 0 < args.extent < math.inf:
        raise ConfigError("extent must be a finite number > 0")
    lat = LatticeSpec(args.lam)
    n = args.grid_n
    h = 2.0 * args.extent / n
    xs = np.linspace(-args.extent + 0.5 * h, args.extent - 0.5 * h, n)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    if np.any(lat.dist(grid) < 1e-9):
        raise ConfigError("grid touches a lattice node; change --grid-n or --extent")
    rep = sigma_lower_diag(cfg.desc, wk, lat, grid, N=cfg.series_N)
    header = ["z_re", "z_im", "lhs", "rhs", "ratio"]
    rows = np.column_stack([rep.z.real, rep.z.imag, rep.lhs, rep.rhs, rep.ratio]).tolist()
    _emit(cfg, args, header, rows,
          {"min_ratio": rep.min_ratio, "feasible": rep.feasible,
           "rows": [dict(zip(header, r)) for r in rows]})
    return EXIT_OK


def cmd_density(cfg: RunConfig, args) -> int:
    from .frames import density
    from .weierstrass import LatticeSpec
    try:
        radii = [float(x) for x in args.radii.split(",") if x.strip()]
    except ValueError:
        raise ConfigError("--radii must be a comma-separated list of numbers")
    lat = LatticeSpec(args.lam, args.trunc_m if args.trunc_m else cfg.lattice_M)
    rep = density(lat.points(), radii, norm=args.norm)
    rows = [[r, *cnt, *dens] for r, cnt, dens in zip(rep.r_sequence, rep.counts, rep.densities)]
    _emit(cfg, args, ["r", "n_min", "n_max", "d_minus", "d_plus"], rows,
          {"d_plus": rep.d_plus, "d_minus": rep.d_minus, "norm": rep.norm,
           "radii": list(rep.r_sequence), "counts": [list(c) for c in rep.counts]})
    return EXIT_OK


def cmd_bargmann_roundtrip(cfg: RunConfig, args) -> int:
    if not cfg.desc.entire:
        raise ConfigError("bargmann-roundtrip rejects non-entire families")
    if args.degree < 0 or args.trials < 0:
        raise ConfigError("degree and trials must be >= 0")
    rows = [[t, *r] for t, r in enumerate(_bargmann_trials(cfg, args.trials, args.degree))]
    _emit(cfg, args, ["trial", "roundtrip_err", "res_lower", "res_raise"], rows,
          {"rows": [dict(zip(["trial", "roundtrip_err", "res_lower", "res_raise"], r))
                    for r in rows]})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--seed", type=int, help="override the config seed")

    p = argparse.ArgumentParser(
        prog="glfock",
        description="Diagnostics for generalized-derivative Fock spaces")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("phi-info", parents=[common],
                   help="family summary: coefficients, order, psi, radii")

    pc = sub.add_parser("check", parents=[common], help="run an assertion suite")
    pc.add_argument("--suite", required=True, choices=sorted(_SUITES))

    pf = sub.add_parser("frames-sweep", parents=[common],
                        help="frame bounds A(s), B(s) over lattice sizes")
    pf.add_argument("--s-min", type=float, default=0.3)
    pf.add_argument("--s-max", type=float, default=1.5)
    pf.add_argument("--steps", type=int, default=13)
    pf.add_argument("--window-n", type=int, default=0)
    pf.add_argument("--lattice-m", type=int, default=10)

    pw = sub.add_parser("weierstrass-table", parents=[common],
                        help="sigma lower-bound ratios on a grid")
    pw.add_argument("--lam", type=float, default=1.0)
    pw.add_argument("--grid-n", type=int, default=16)
    pw.add_argument("--extent", type=float, default=2.0)

    pd = sub.add_parser("density", parents=[common],
                        help="counting densities of the truncated lattice")
    pd.add_argument("--lam", type=float, default=1.0)
    pd.add_argument("--trunc-m", type=int, default=0, help="lattice window (0 = config)")
    pd.add_argument("--radii", default="10,20")
    pd.add_argument("--norm", choices=("paper", "lebesgue"), default="paper")

    pb = sub.add_parser("bargmann-roundtrip", parents=[common],
                        help="transform round-trip residuals")
    pb.add_argument("--degree", type=int, default=12)
    pb.add_argument("--trials", type=int, default=5)
    return p


_COMMANDS = {
    "phi-info": cmd_phi_info,
    "check": cmd_check,
    "frames-sweep": cmd_frames_sweep,
    "weierstrass-table": cmd_weierstrass_table,
    "density": cmd_density,
    "bargmann-roundtrip": cmd_bargmann_roundtrip,
}


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning for the CLI: one 'warning: <message>' line on
    stderr, without the library's source path, line number or source text."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's showwarning
        warnings.showwarning = _warning_line
        try:
            cfg = load_config(args.config)
            if args.seed is not None:
                if args.seed < 0:
                    raise ConfigError("--seed must be a natural number")
                cfg.seed = args.seed
            return _COMMANDS[args.command](cfg, args)
        except UnverifiedWeightError as e:  # a ValueError, so it is caught first
            print(f"unverified weight: {e}", file=sys.stderr)
            return EXIT_FAIL
        except (ConfigError, ValueError, OverflowError) as e:  # OverflowError: phi_k past doubles
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except ConvergenceError as e:
            print(f"non-convergence: {e}", file=sys.stderr)
            return EXIT_NONCONV


if __name__ == "__main__":
    sys.exit(main())
