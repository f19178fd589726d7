"""Outside-in tracing of glfock's public functions.

``Tracer.install`` replaces every public function of every glfock module by
a timing wrapper, in every glfock namespace that holds it: a function
imported by name, such as ``fock.phi_eval`` or ``core.log_gamma_deriv``, is
looked up in the importing module, so it is replaced there too.  Spans
``[name, start, end, parent, op id, work]`` stay in memory until ``dump``.
Functions stored in dicts at import time (the CLI's command table) keep
their original and count toward their caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

import numpy as np

MODULES = ("core", "special", "fock", "bargmann", "weierstrass", "frames", "cli")
OP = "op"  # name of the root span the benchmark opens around each op


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


def _reproduce_rule(a, kw, out):
    from glfock import fock

    scheme = kw.get("quad_scheme", a[4] if len(a) > 4 else None)
    if scheme is None:
        default = getattr(fock.default_quadrature, "__wrapped__", fock.default_quadrature)
        scheme = default(_arg(a, kw, 1, "wk"))
    return scheme.radial


# Work done per call, recorded at the layer boundary.
WORK = {
    "core.signs_logs": lambda a, kw, out: int(_arg(a, kw, 1, "kmax")) + 1,
    "core.phi_eval": lambda a, kw, out: (int(np.size(_arg(a, kw, 1, "z"))),
                                         int(_arg(a, kw, 2, "N")) + 1),
    "weierstrass.sigma_fn": lambda a, kw, out: (
        int(np.size(_arg(a, kw, 1, "z"))), (2 * _arg(a, kw, 2, "lat").trunc_M + 1) ** 2 - 1),
    "weierstrass.log_g_fn": lambda a, kw, out: (
        int(np.size(_arg(a, kw, 1, "z"))), int(_arg(a, kw, 2, "gamma").nonzero()[0].size)),
    "frames.frame_sweep": lambda a, kw, out: len(out),
    "fock.reproduce": _reproduce_rule,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, key, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*a, **kw):
            span = [key, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*a, **kw)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(a, kw, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions of every glfock module in place."""
        import glfock

        mods = {m: importlib.import_module(f"glfock.{m}") for m in MODULES}
        namespaces = [glfock, *mods.values()]
        for short, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{short}.{name}"
                wrapper = self._wrap(key, fn, WORK.get(key))
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        setattr(ns, name, wrapper)
                        self._undo.append((ns, name, fn))

    def uninstall(self):
        for ns, name, fn in reversed(self._undo):
            setattr(ns, name, fn)
        self._undo.clear()

    def call(self, op_id: int, run):
        """Run one op under a root span."""
        self.op = op_id
        return self._wrap(OP, run, None)()

    def add_child_spans(self, spans: list[list], op_id: int):
        """Graft spans recorded in a child process under the current op's
        root span (perf_counter is system-wide monotonic on Linux)."""
        root = max(i for i, s in enumerate(self.spans) if s[0] == OP and s[4] == op_id)
        base = len(self.spans)
        for name, t0, t1, parent, _, work in spans:
            self.spans.append([name, t0, t1, root if parent < 0 else base + parent,
                               op_id, work])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

SHARE_LAYERS = ("import", "core.phi_eval", "core", "special", "fock", "bargmann",
                "weierstrass", "frames", "cli", "other")


def _layer(name: str) -> str:
    return name if name == "core.phi_eval" else name.split(".")[0]


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], pass_ops: set, n_passes: int, op_layer: str) -> dict:
    """Per-layer counts and times per set-up plus one pass, and each
    layer's share of the traced passes' op time.

    Spans whose op id is not in ``pass_ops`` belong to set-up and count
    once; spans of the passes are divided by ``n_passes``.  ``op_layer``
    names the layer that owns an op's time outside glfock's functions
    ("import" for CLI processes, "other" in process).
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    # Set-up spans weigh n_passes and every sum is divided by n_passes at
    # the end, so that counts stay exact integers.
    weight = [1.0 if s[4] in pass_ops else float(n_passes) for s in spans]

    def nested_in(i, pred):
        p = spans[i][3]
        while p >= 0:
            if pred(spans[p][0]):
                return True
            p = spans[p][3]
        return False

    calls, busy, self_t = {}, {}, {}
    for i, s in enumerate(spans):
        key = s[0]
        calls[key] = calls.get(key, 0.0) + weight[i]
        self_t[key] = self_t.get(key, 0.0) + weight[i] * (dur[i] - child[i])
        if not nested_in(i, lambda k, key=key: k == key):
            busy[key] = busy.get(key, 0.0) + weight[i] * dur[i]

    calls, busy, self_t = ({k: v / n_passes for k, v in d.items()} for d in (calls, busy, self_t))

    def work_sum(key, f):
        return sum(weight[i] * f(s[5]) for i, s in enumerate(spans) if s[0] == key) / n_passes

    m = {}
    terms = work_sum("core.signs_logs", lambda w: w)
    m["core.signs_logs.calls"] = calls.get("core.signs_logs", 0.0)
    m["core.signs_logs.busy_s"] = busy.get("core.signs_logs", 0.0)
    m["core.signs_logs.terms"] = terms
    pe_terms = work_sum("core.phi_eval", lambda w: w[0] * w[1])
    m["core.phi_eval.calls"] = calls.get("core.phi_eval", 0.0)
    m["core.phi_eval.busy_s"] = busy.get("core.phi_eval", 0.0)
    m["core.phi_eval.ns_per_term"] = 1e9 * m["core.phi_eval.busy_s"] / pe_terms if pe_terms else 0.0
    m["special.log_gamma_deriv.calls"] = calls.get("special.log_gamma_deriv", 0.0)
    m["special.log_gamma_deriv.busy_s"] = busy.get("special.log_gamma_deriv", 0.0)
    m["fock.verified_weight.busy_s"] = busy.get("fock.verified_weight", 0.0)

    rep_calls = calls.get("fock.reproduce", 0.0)
    evals = sum(weight[i] for i, s in enumerate(spans)
                if s[0] == "core.phi_eval" and nested_in(i, lambda k: k == "fock.reproduce")) / n_passes
    by_rule = {"gauss_laguerre": [], "adaptive_tail": []}
    for i, s in enumerate(spans):
        if s[0] == "fock.reproduce" and s[5] in by_rule:
            by_rule[s[5]].append(dur[i])
    m["fock.reproduce.calls"] = rep_calls
    m["fock.reproduce.busy_s"] = busy.get("fock.reproduce", 0.0)
    m["fock.reproduce.self_s"] = self_t.get("fock.reproduce", 0.0)
    m["fock.reproduce.integrand_evals"] = evals / rep_calls if rep_calls else 0.0
    m["fock.reproduce.gauss_laguerre_ms"] = _median_ms(by_rule["gauss_laguerre"])
    m["fock.reproduce.adaptive_tail_ms"] = _median_ms(by_rule["adaptive_tail"])

    m["bargmann.busy_s"] = sum(weight[i] * dur[i] for i, s in enumerate(spans)
                               if _layer(s[0]) == "bargmann"
                               and not nested_in(i, lambda k: _layer(k) == "bargmann")) / n_passes

    pairs = work_sum("weierstrass.sigma_fn", lambda w: w[0] * w[1])
    m["weierstrass.sigma_fn.pairs"] = pairs
    m["weierstrass.sigma_fn.busy_s"] = busy.get("weierstrass.sigma_fn", 0.0)
    m["weierstrass.sigma_fn.ns_per_pair"] = (1e9 * m["weierstrass.sigma_fn.busy_s"] / pairs
                                             if pairs else 0.0)
    g_pairs = work_sum("weierstrass.log_g_fn", lambda w: w[0] * w[1])
    m["weierstrass.log_g_fn.ns_per_pair"] = (1e9 * busy.get("weierstrass.log_g_fn", 0.0) / g_pairs
                                             if g_pairs else 0.0)
    m["weierstrass.winding_zero_count.contour_points"] = sum(
        weight[i] * s[5][0] for i, s in enumerate(spans)
        if s[0] == "weierstrass.sigma_fn" and s[3] >= 0
        and spans[s[3]][0] == "weierstrass.winding_zero_count") / n_passes
    m["weierstrass.omega_bound.busy_s"] = busy.get("weierstrass.omega_bound", 0.0)

    reports = work_sum("frames.frame_sweep", lambda w: w)
    m["frames.frame_sweep.reports"] = reports
    m["frames.frame_sweep.busy_s"] = busy.get("frames.frame_sweep", 0.0)
    m["frames.frame_sweep.ms_per_report"] = (1e3 * m["frames.frame_sweep.busy_s"] / reports
                                             if reports else 0.0)
    m["frames.canonical_dual.busy_s"] = busy.get("frames.canonical_dual", 0.0)
    m["cli.main.self_s"] = self_t.get("cli.main", 0.0)

    op_time = sum(dur[i] for i, s in enumerate(spans) if s[0] == OP and s[4] in pass_ops)
    share = dict.fromkeys(SHARE_LAYERS, 0.0)
    for i, s in enumerate(spans):
        if s[4] in pass_ops:
            layer = op_layer if s[0] == OP else _layer(s[0])
            share[layer] += dur[i] - child[i]
    for layer in SHARE_LAYERS:
        m[f"share.{layer}"] = share[layer] / op_time if op_time else 0.0
    return m


def design_checks(m: dict, workload: str) -> list[tuple[str, bool]]:
    """The traffic each workload was designed to produce, from its shares."""
    s = {k[len("share."):]: v for k, v in m.items() if k.startswith("share.")}
    fock_phi = s["fock"] + s["core.phi_eval"]
    if workload == "reproduce":
        return [(f"fock + core.phi_eval = {fock_phi:.1%} of reproduce (> 50%)", fock_phi > 0.5),
                (f"weierstrass = {s['weierstrass']:.1%} of reproduce (absent)",
                 m["weierstrass.sigma_fn.pairs"] == 0 and s["weierstrass"] == 0.0)]
    if workload == "lattice":
        return [(f"weierstrass = {s['weierstrass']:.1%} of lattice (> 50%)", s["weierstrass"] > 0.5),
                (f"fock + core.phi_eval = {fock_phi:.1%} of lattice (< 5%)", fock_phi < 0.05)]
    return [(f"import = {s['import']:.1%} of cli (> 50%)", s["import"] > 0.5)]
