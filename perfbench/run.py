"""glfock benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload {reproduce,lattice,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; glfock is imported from ./src.
Each workload is a closed loop with one caller.  A run makes a fixed
number of passes over the workload's seeded op list: ``--seconds`` divided
by the workload's typical pass time, at least one.  The count does not
depend on how fast the code runs, so every commit takes the same number of
samples.  ``wall_s`` is the sum over ops of each op's fastest time across
the passes.

Times are given in reference-host seconds.  The speed of a shared host
drifts by tens of percent for minutes at a time, so before each op the
loop times a fixed "host tick" of work outside glfock; each pass is scaled
by HOST_TICK_S over the median tick timed in it (see README.md).
``setup_s`` is not scaled: its drift does not follow the tick.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Lines before it give the run's
provenance and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = os.cpu_count() or 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5    # fresh interpreters per set-up measurement; median reported
IMPORT_REPEATS = 3   # fresh interpreters per import-time measurement
PROBE_TIMEOUT_S = 120
DIGITS_FLOOR = 1e-17  # an error below this reads as 17 digits
HOST_TICK_LOOP = 20000  # interpreter iterations of one host tick
HOST_TICK_CALLS = 100   # small numpy calls of one host tick
HOST_TICK_S = 2.2e-3    # a host tick's median time on the reference host

CLI_SUBCOMMANDS = ("phi-info", "check", "frames-sweep", "weierstrass-table",
                   "density", "bargmann-roundtrip")


def host_tick() -> float:
    """Time a fixed amount of interpreter and small-array numpy work that
    does not touch glfock: it measures the host's current speed."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(HOST_TICK_LOOP):
        x += i * i % 7
    a = np.linspace(0.0, 1.0, 40)
    for _ in range(HOST_TICK_CALLS):
        a = np.cos(a) + 1e-9 * a.sum()
    return time.perf_counter() - t0


def host_scale(ticks) -> float:
    """Factor that turns times taken alongside `ticks` into reference-host
    seconds: above 1 when the host ran faster than the reference."""
    return HOST_TICK_S / statistics.median(ticks)


@dataclass
class Passes:
    """Per-op times, host ticks, worst errors and outcomes of the passes of
    one closed loop.  ``times[i][j]`` is op i in pass j, timed right after
    the host tick ``ticks[i][j]``."""
    times: list
    last: list
    worst: list
    ticks: list
    attempted: int = 0
    failed: int = 0
    n: int = 0
    failures: list = field(default_factory=list)

    def fastest(self) -> list:
        """Each op's fastest time across passes, in reference-host seconds:
        every pass is scaled by the median of the host ticks timed in it."""
        scale = [host_scale([k[j] for k in self.ticks]) for j in range(self.n)]
        return [min(t * c for t, c in zip(ts, scale)) for ts in self.times]

    def wall(self) -> float:
        return sum(self.fastest())


def accuracy_digits(ops, worst) -> float:
    """Mean over ops of -log10 of the op's worst error, so that every op
    moves it.  Exact and yes/no checks (tol 0) carry no digits and are
    left out."""
    digits = [-math.log10(max(w, DIGITS_FLOOR)) for op, w in zip(ops, worst) if op.tol > 0]
    return statistics.fmean(digits)


def n_passes(workload: str, seconds: float) -> int:
    from workloads import PASS_S

    return max(1, round(seconds / PASS_S[workload]))


def _error(op, out) -> float:
    if isinstance(out, Exception):
        return math.inf
    try:
        return float(op.check(out))
    except Exception:  # a malformed result fails its oracle check
        return math.inf


def run_passes(ops, passes: int, call=None) -> Passes:
    """Closed loop: run every op and wait for it, `passes` times over.
    `call(seq, op)` runs one op (default op.run())."""
    p = Passes([[] for _ in ops], [None] * len(ops), [0.0] * len(ops), [[] for _ in ops])
    seq = 0
    for _ in range(passes):
        for i, op in enumerate(ops):
            p.ticks[i].append(host_tick())
            t0 = time.perf_counter()
            try:
                out = call(seq, op) if call else op.run()
            except Exception as e:  # counted in failed, reported below
                out = e
            p.times[i].append(time.perf_counter() - t0)
            p.last[i] = out
            seq += 1
            p.attempted += 1
            err = _error(op, out)
            if not (math.isfinite(err) and err <= op.tol):
                p.failed += 1
                p.failures.append(f"{op.label}: error {err!r} > {op.tol!r}"
                                  + (f" ({out!r})" if isinstance(out, Exception) else ""))
            elif err > p.worst[i]:
                p.worst[i] = err
        p.n += 1
    return p


def _child(cmd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=PROBE_TIMEOUT_S)


def measure_setup(workload: str) -> float:
    """Median wall time of fresh interpreters that do the set-up, after one
    unmeasured interpreter that warms the file cache."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import glfock.cli"]
    else:
        cmd = [sys.executable, str(HERE / "probe.py"), "setup", workload]
    _child(cmd)
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _child(cmd)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def import_metrics() -> dict:
    runs = [json.loads(_child([sys.executable, str(HERE / "probe.py"), "imports"]).stdout)
            for _ in range(IMPORT_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def provenance() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "loadavg": os.getloadavg()}


def end_to_end(workload: str, seed: int, seconds: float):
    from workloads import WORKLOADS

    setup_s = measure_setup(workload)
    setup, build = WORKLOADS[workload]
    ops = build(seed, setup())
    p = run_passes(ops, n_passes(workload, seconds))
    print(f"host tick {1e3 * statistics.median(t for ts in p.ticks for t in ts):.4f} ms; "
          f"unscaled wall_s {sum(min(t) for t in p.times):.4f} s")
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "wall_s": p.wall(),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "accuracy_digits": accuracy_digits(ops, p.worst),
    }
    return p, metrics


def _cli_metrics(ops, p: Passes, setup_s: float) -> dict:
    med = p.fastest()
    m = {f"cli.{c}.wall_s": 0.0 for c in CLI_SUBCOMMANDS}
    for op, t in zip(ops, med):
        m[f"cli.{op.label.split('/', 1)[1]}.wall_s"] += t
    m["cli.compute_s"] = sum(t - setup_s for t in med) if ops else 0.0
    m["cli.out_bytes"] = sum(len(out.stdout) for out in p.last
                             if isinstance(out, subprocess.CompletedProcess))
    return m


def _sigma_errors() -> dict:
    import numpy as np

    import oracles
    from glfock import core
    from glfock import weierstrass as W
    from workloads import SIGMA_POINTS

    want = np.array([oracles.sigma_square(z) for z in SIGMA_POINTS])
    expn = core.PhiDescriptor.exponential(normalized=True)
    out = {}
    for M in (12, 24):
        got = W.sigma_fn(expn, SIGMA_POINTS, W.LatticeSpec(1.0, M))
        out[f"weierstrass.sigma_rel_err.M{M}"] = float(np.max(np.abs(got - want) / np.abs(want)))
    return out


def traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics: half the passes traced, half untraced for the
    overhead; set-up is traced too, from a cold start."""
    from tracing import Tracer, design_checks, layer_metrics
    from workloads import WORK, WORKLOADS

    metrics = import_metrics()
    setup_s = measure_setup(workload)
    setup, build = WORKLOADS[workload]
    tracer = Tracer()
    tracer.install()
    state = setup()
    if workload == "cli":
        WORK.mkdir(exist_ok=True)
        spans_path = lambda k: WORK / f"cli-spans-{k}.json"
        counter = iter(range(10 ** 6))
        ops = build(seed, state, launcher=lambda argv: [
            sys.executable, str(HERE / "probe.py"), "cli", str(spans_path(next(counter))), *argv])

        def call(seq, op):
            out = tracer.call(seq, op.run)
            with open(spans_path(seq % len(ops))) as fh:
                tracer.add_child_spans(json.load(fh), seq)
            return out
    else:
        ops = build(seed, state)

        def call(seq, op):
            return tracer.call(seq, op.run)
    half = max(1, n_passes(workload, seconds) // 2)
    tp = run_passes(ops, half, call)
    tracer.uninstall()
    plain_ops = build(seed, state) if workload == "cli" else ops
    pp = run_passes(plain_ops, half)

    pass_ops = set(range(tp.n * len(ops)))
    metrics.update(layer_metrics(tracer.spans, pass_ops, tp.n,
                                 "import" if workload == "cli" else "other"))
    metrics.update(_sigma_errors())
    metrics.update(_cli_metrics(plain_ops if workload == "cli" else [], pp, setup_s))
    metrics["trace.overhead_s"] = tp.wall() - pp.wall()
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{workload}-{seed}.json")
    for text, ok in design_checks(metrics, workload):
        print(f"design {'ok  ' if ok else 'MISS'} {text}")

    p = Passes([], [], [], [], tp.attempted + pp.attempted, tp.failed + pp.failed,
               n=tp.n + pp.n, failures=tp.failures + pp.failures)
    return p, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("reproduce", "lattice", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "glfock" / "__init__.py").is_file():
        print(f"error: no glfock sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print("provenance " + json.dumps(provenance()))
    run = traced if args.trace else end_to_end
    p, metrics = run(args.workload, args.seed, args.seconds)

    print(f"workload {args.workload} seed {args.seed}: {p.n} passes, "
          f"{p.attempted} ops, {p.failed} failed")
    for msg in p.failures[:10]:
        print(f"FAILED {msg}")
    if not args.trace:
        print(f"  {'error_rate':40s} {p.failed / p.attempted:.6g} fraction")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
