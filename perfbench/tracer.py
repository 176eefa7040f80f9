"""Spans around stringchain's public functions, installed from outside the package.

Each traced function is wrapped once; the wrapper replaces every module
global that is bound to the original object, so a call is timed whichever
module makes it (``stringchain.spectrum.det_pair``, ``stringchain.cli.det_pair``,
...).  Spans stay in memory as (name, start, end, parent, tag) and are
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "stringchain",
    "stringchain.chain_core",
    "stringchain.transfer_matrix",
    "stringchain.spectrum",
    "stringchain.transfer_function",
    "stringchain.resolvent",
    "stringchain.timesim",
    "stringchain.oracle",
    "stringchain.cli",
)

CLI_COMMANDS = (
    "spectrum", "gap", "det-bound", "resolvent-scan", "schrodinger-scan",
    "transfer-scan", "decay", "schrodinger-decay", "io-ratios", "verify",
)


def _lam_tag(args, kwargs):
    lam = kwargs.get("lam", args[1] if len(args) > 1 else None)
    return int(np.size(lam)), np.ndim(lam) == 0


def _det_pair_tag(args, kwargs, out):
    n, scalar = _lam_tag(args, kwargs)
    return {"lambdas": n, "scalar": scalar}


def _lambdas_tag(args, kwargs, out):
    return {"lambdas": _lam_tag(args, kwargs)[0]}


def _wave_resolvent_tag(args, kwargs, out):
    load = kwargs.get("G", args[2] if len(args) > 2 else None)
    return {"points": int(sum(g.size for g in load.grids))}


def _schrodinger_resolvent_tag(args, kwargs, out):
    beta = kwargs.get("beta", args[1] if len(args) > 1 else None)
    return {"branch": "pos" if beta > 0 else "neg"}


def _betas_tag(args, kwargs, out):
    betas = kwargs.get("betas", args[1] if len(args) > 1 else ())
    return {"betas": len(betas)}


def _simulate_wave_tag(args, kwargs, out):
    cfg, opts = args[0], args[2] if len(args) > 2 else kwargs["opts"]
    p = opts.points_per_edge
    h = 1.0 / (p - 1)
    dt = opts.cfl * h / float(np.max(cfg.wave_speeds))
    steps = max(2, int(math.ceil(opts.T / dt)))
    nodes = cfg.n_edges * (p - 1) + 1
    return {"steps": steps, "node_steps": steps * nodes, "records": int(out[0].times.size)}


def _simulate_schrodinger_tag(args, kwargs, out):
    opts = args[2] if len(args) > 2 else kwargs["opts"]
    return {"steps": max(1, int(math.ceil(opts.T / opts.dt)))}


def _dimension_tag(args, kwargs, out):
    return {"dimension": args[0].dimension}


def _unknowns_tag(args, kwargs, out):
    cfg, which, m = args[0], args[3], args[4]
    cells = cfg.n_edges * m
    return {"unknowns": 2 * (cells + 1) if which == "wave" else cells}


# (module, attribute path, span name, tag function)
TRACED = (
    ("stringchain.transfer_matrix", "det_pair", "transfer_matrix.det_pair", _det_pair_tag),
    ("stringchain.transfer_matrix", "boundary_matrices", "transfer_matrix.boundary_matrices", None),
    ("stringchain.spectrum", "find_eigenvalues", "spectrum.find_eigenvalues", None),
    ("stringchain.spectrum", "imaginary_axis_gap", "spectrum.imaginary_axis_gap", None),
    ("stringchain.spectrum", "char_det_schrodinger", "spectrum.char_det_schrodinger", _lambdas_tag),
    ("stringchain.transfer_function", "transfer_values", "transfer_function.transfer_values",
     _lambdas_tag),
    ("stringchain.transfer_function", "admissibility_ratio", "transfer_function.admissibility_ratio",
     None),
    ("stringchain.transfer_function", "observability_ratio", "transfer_function.observability_ratio",
     None),
    ("stringchain.resolvent", "wave_resolvent", "resolvent.wave_resolvent", _wave_resolvent_tag),
    ("stringchain.resolvent", "schrodinger_resolvent", "resolvent.schrodinger_resolvent",
     _schrodinger_resolvent_tag),
    ("stringchain.resolvent", "random_probe", "resolvent.random_probe", None),
    ("stringchain.resolvent", "wave_resolvent_norm_scan", "resolvent.wave_norm_scan", _betas_tag),
    ("stringchain.resolvent", "schrodinger_norm_scan", "resolvent.schrodinger_norm_scan",
     _betas_tag),
    ("stringchain.chain_core", "h_norm", "chain_core.h_norm", None),
    ("stringchain.chain_core", "l2_norm", "chain_core.l2_norm", None),
    ("stringchain.chain_core", "EnergyTrace.to_csv", "chain_core.EnergyTrace.to_csv", None),
    ("stringchain.chain_core", "sample_state", "chain_core.sample_state", None),
    ("stringchain.timesim", "simulate_wave", "timesim.simulate_wave", _simulate_wave_tag),
    ("stringchain.timesim", "simulate_schrodinger", "timesim.simulate_schrodinger",
     _simulate_schrodinger_tag),
    ("stringchain.timesim", "fit_decay_rate", "timesim.fit_decay_rate", None),
    ("stringchain.oracle", "fd_resolvent_norm", "oracle.fd_resolvent_norm", _dimension_tag),
    ("stringchain.oracle", "fd_bvp_solve", "oracle.fd_bvp_solve", _unknowns_tag),
    ("stringchain.oracle", "oracle_transfer_value", "oracle.oracle_transfer_value", None),
)


class Tracer:
    """In-memory span recorder; ``install`` patches the package in place."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag dict]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, tag_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tag_fn is not None:
                self.spans[index][4] = tag_fn(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, path, name, tag_fn in TRACED:
            owner = importlib.import_module(home)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(getattr(cls, attr), name, tag_fn))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(original, name, tag_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p, "tag": t}
                 for n, s, e, p, t in self.spans],
                fh,
            )

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for n, s, e, p, t in self.spans:
            if p >= 0:
                child[p] += e - s
        return [(e - s) - child[i] for i, (n, s, e, p, t) in enumerate(self.spans)]


def layer_metrics(tracer: Tracer, ledger: dict) -> dict[str, float]:
    """Every per-layer metric by name; layers a workload does not reach read 0."""
    selfs = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(float)
    for (name, start, end, parent, tag), st in zip(tracer.spans, selfs):
        tag = tag or {}
        key = name
        if name == "transfer_matrix.det_pair":
            key = name + (".scalar" if tag.get("scalar") else ".array")
        elif name == "resolvent.schrodinger_resolvent":
            key = name + "." + tag.get("branch", "pos")
        for k in {name, key}:
            calls[k] += 1
            self_s[k] += st
            total_s[k] += end - start
        for field, value in tag.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                sums[name + "." + field] += value
        if name.startswith("cli."):
            self_s["cli"] += st

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m: dict[str, float] = {
        "setup.import_s": ledger["import_s"],
        "setup.warmup_s": ledger["warmup_s"],
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = total_s[f"cli.{cmd}"]
    m["cli.self_s"] = self_s["cli"]
    m["cli.bytes_written"] = ledger["bytes_written"]

    det = "transfer_matrix.det_pair"
    m[det + ".calls"] = calls[det]
    m[det + ".lambdas"] = sums[det + ".lambdas"]
    m[det + ".self_s"] = self_s[det]
    m[det + ".ns_per_lambda"] = ratio(self_s[det + ".array"], sums[det + ".lambdas"]
                                      - calls[det + ".scalar"], 1e9)
    m[det + ".us_per_scalar_call"] = ratio(self_s[det + ".scalar"], calls[det + ".scalar"], 1e6)
    bm = "transfer_matrix.boundary_matrices"
    m[bm + ".calls"] = calls[bm]
    m[bm + ".self_s"] = self_s[bm]

    fe = "spectrum.find_eigenvalues"
    m[fe + ".calls"] = calls[fe]
    m[fe + ".self_s"] = self_s[fe]
    m["spectrum.imaginary_axis_gap.self_s"] = self_s["spectrum.imaginary_axis_gap"]
    cs = "spectrum.char_det_schrodinger"
    m[cs + ".lambdas"] = sums[cs + ".lambdas"]
    m[cs + ".self_s"] = self_s[cs]
    m["spectrum.roots_found"] = ledger["roots_found"]
    m["spectrum.roots_counted"] = ledger["roots_counted"]
    m["spectrum.roots_found_per_counted"] = ratio(ledger["roots_found"], ledger["roots_counted"])

    tv = "transfer_function.transfer_values"
    m[tv + ".lambdas"] = sums[tv + ".lambdas"]
    m[tv + ".self_s"] = self_s[tv]
    m["transfer_function.admissibility_ratio.s"] = total_s["transfer_function.admissibility_ratio"]
    m["transfer_function.observability_ratio.s"] = total_s["transfer_function.observability_ratio"]

    wr = "resolvent.wave_resolvent"
    m[wr + ".calls"] = calls[wr]
    m[wr + ".points"] = sums[wr + ".points"]
    m[wr + ".self_s"] = self_s[wr]
    m[wr + ".ns_per_point"] = ratio(self_s[wr], sums[wr + ".points"], 1e9)
    for branch in ("pos", "neg"):
        sr = f"resolvent.schrodinger_resolvent.{branch}"
        m[sr + ".calls"] = calls[sr]
        m[sr + ".self_s"] = self_s[sr]
    rp = "resolvent.random_probe"
    m[rp + ".calls"] = calls[rp]
    m[rp + ".self_s"] = self_s[rp]
    for scan in ("wave_norm_scan", "schrodinger_norm_scan"):
        key = "resolvent." + scan
        m[key + ".s_per_beta"] = ratio(total_s[key], sums[key + ".betas"])
    ratios = ledger["norm_est_over_fd"]
    m["resolvent.norm_est_over_fd"] = statistics.median(ratios) if ratios else 0.0

    for fn in ("h_norm", "l2_norm"):
        m[f"chain_core.{fn}.calls"] = calls[f"chain_core.{fn}"]
        m[f"chain_core.{fn}.self_s"] = self_s[f"chain_core.{fn}"]
    m["chain_core.EnergyTrace.to_csv.self_s"] = self_s["chain_core.EnergyTrace.to_csv"]
    m["chain_core.sample_state.self_s"] = self_s["chain_core.sample_state"]

    sw = "timesim.simulate_wave"
    for field in ("steps", "node_steps", "records"):
        m[f"{sw}.{field}"] = sums[f"{sw}.{field}"]
    m[sw + ".self_s"] = self_s[sw]
    m[sw + ".us_per_step"] = ratio(self_s[sw], sums[sw + ".steps"], 1e6)
    ss = "timesim.simulate_schrodinger"
    m[ss + ".steps"] = sums[ss + ".steps"]
    m[ss + ".self_s"] = self_s[ss]
    m[ss + ".us_per_step"] = ratio(self_s[ss], sums[ss + ".steps"], 1e6)
    m["timesim.fit_decay_rate.self_s"] = self_s["timesim.fit_decay_rate"]

    fr = "oracle.fd_resolvent_norm"
    m[fr + ".calls"] = calls[fr]
    m[fr + ".dimension"] = sums[fr + ".dimension"]
    m[fr + ".self_s"] = self_s[fr]
    fb = "oracle.fd_bvp_solve"
    m[fb + ".calls"] = calls[fb]
    m[fb + ".unknowns"] = sums[fb + ".unknowns"]
    m[fb + ".self_s"] = self_s[fb]
    m["oracle.oracle_transfer_value.self_s"] = self_s["oracle.oracle_transfer_value"]
    return m
