"""Span tracing of smoothfit's layers, from outside the package.

A traced pass patches the public functions of each ``smoothfit`` module
with wrappers that record spans (name, start, end, parent) in memory.
Every module attribute bound to a wrapped function is patched too, so
``cli.build_design`` and ``simulate.fit_additive`` are traced like
``design.build_design``.  The hand-written kernels are leaves: they are
counted and timed but open no span, so their time stays in the self time
of the layer that called them.

A target that no longer exists is reported as absent; nothing here fails
because a refactor removed or renamed a function.
"""

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.qualname`` recorded as span ``name``.

    ``measure(args, kwargs, result)`` returns ``{counter: amount}`` added
    after each call; ``metrics`` names the per-layer metrics the target
    feeds, so they can be reported as absent when the target is gone.
    """

    name: str
    module: str
    qualname: str
    metrics: tuple
    measure: object = None


def _cols(a):
    return 1 if np.ndim(a) < 2 else int(np.shape(a)[1])


def _nonzero_cols(D):
    if hasattr(D, "indptr"):
        return int(np.count_nonzero(np.diff(D.tocsc().indptr)))
    D = np.asarray(D)
    return int(np.count_nonzero(np.any(D != 0.0, axis=0)))


def _artifact_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    size = os.path.getsize(path)
    sidecar = path + ".cache.npz"
    if os.path.exists(sidecar):
        size += os.path.getsize(sidecar)
    return {"cli.artifact_bytes": size}


def _table_rows(args, kwargs, result):
    return {"cli.read_rows": len(next(iter(result.values()))) if result
            else 0}


def _iterations(counter):
    def measure(args, kwargs, result):
        return {counter: int(result.iterations)}
    return measure


def _lqefs_result(args, kwargs, result):
    return {"lqefs.outer_iters": int(result.iterations),
            "lqefs.queue_skips": int(result.diagnostics["skipped_pairs"])}


TARGETS = (
    Target("design.build", "design", "build_design",
           ("design.build_s", "design.build_calls")),
    Target("basis.eval", "basis", "evaluate_bspline",
           ("basis.eval_s", "basis.eval_rows"),
           lambda a, k, r: {"basis.eval_rows": int(np.shape(r)[0])}),
    Target("sparsela.order", "sparsela", "fill_reducing_permutation",
           ("sparsela.order_s",)),
    Target("sparsela.symbolic", "sparsela", "SymbolicChol.__init__",
           ("sparsela.symbolic_s",)),
    Target("sparsela.factor", "sparsela", "SymbolicChol.factor",
           ("sparsela.factor_s", "sparsela.factor_calls", "sparsela.nnz_L"),
           lambda a, k, r: {"max:sparsela.nnz_L": int(r.nnz_L())}),
    Target("sparsela.factor", "sparsela", "penalized_qr",
           ("sparsela.factor_s", "sparsela.factor_calls", "sparsela.nnz_L"),
           lambda a, k, r: {"max:sparsela.nnz_L": int(r.nnz_L())}),
    Target("sparsela.solve", "sparsela", "CholeskyFactor.solve",
           ("sparsela.solve_s", "sparsela.solve_cols"),
           lambda a, k, r: {"sparsela.solve_cols": _cols(r)}),
    Target("sparsela.solve", "sparsela", "QRFactor.solve",
           ("sparsela.solve_s", "sparsela.solve_cols"),
           lambda a, k, r: {"sparsela.solve_cols": _cols(r)}),
    Target("sparsela.trace", "sparsela", "trace_inv_form",
           ("sparsela.trace_s", "sparsela.trace_cols"),
           lambda a, k, r: {"sparsela.trace_cols": _nonzero_cols(a[1])}),
    Target("sparsela.pair_trace", "sparsela", "trace_inv_pair",
           ("sparsela.pair_trace_s",)),
    Target("sparsela.cond", "sparsela", "condition_estimate",
           ("sparsela.cond_s",)),
    Target("efs.fit", "efs", "fit_additive", ("efs.outer_iters",),
           _iterations("efs.outer_iters")),
    Target("efs.fit", "efs", "fit_gam", ("efs.outer_iters",),
           _iterations("efs.outer_iters")),
    Target("efs.fit", "efs", "fit_gsmm", ("efs.outer_iters",),
           _iterations("efs.outer_iters")),
    Target("efs.reml_grad", "efs", "reml_grad",
           ("efs.reml_grad_s", "efs.reml_grad_calls")),
    Target("efs.reml_grad", "efs", "make_efs_safe",
           ("efs.reml_grad_s", "efs.reml_grad_calls")),
    Target("efs.newton", "efs", "newton_beta",
           ("efs.newton_s", "efs.newton_calls")),
    Target("efs.term_edf", "efs", "_term_edfs", ("efs.term_edf_s",)),
    Target("families.cox_llk", "families", "CoxphFamily.llk",
           ("families.cox_llk_s", "families.cox_llk_calls")),
    Target("families.cox_grad", "families", "CoxphFamily.grad",
           ("families.cox_grad_s", "families.cox_grad_calls")),
    Target("families.cox_hess", "families", "CoxphFamily.hess",
           ("families.cox_hess_s", "families.cox_hess_calls")),
    Target("lqefs.fit", "lqefs", "lqefs_fit",
           ("lqefs.outer_iters", "lqefs.queue_skips"), _lqefs_result),
    Target("lqefs.line_search", "lqefs", "wolfe_search",
           ("lqefs.line_search_s", "lqefs.line_search_calls")),
    Target("lqefs.line_search", "lqefs", "armijo_search",
           ("lqefs.line_search_s", "lqefs.line_search_calls")),
    Target("lqefs.pen_inverse", "lqefs", "penalized_inverse",
           ("lqefs.pen_inverse_s",)),
    Target("lqefs.trace", "lqefs", "compact_trace_penalty",
           ("lqefs.trace_s",)),
    Target("lqefs.chol_compact", "lqefs", "cholesky_of_compact",
           ("lqefs.chol_compact_s",)),
    Target("uncertainty.caic", "uncertainty", "caic",
           ("uncertainty.caic_s",)),
    Target("uncertainty.rho_posterior", "uncertainty", "rho_posterior",
           ("uncertainty.rho_posterior_s",)),
    Target("uncertainty.mc", "uncertainty", "mc_tau_gaussian",
           ("uncertainty.mc_s",)),
    Target("uncertainty.mc", "uncertainty", "mc_tau_general",
           ("uncertainty.mc_s",)),
    Target("cli.read_table", "cli", "read_table",
           ("cli.read_table_s", "cli.read_rows"), _table_rows),
    Target("cli.write_table", "cli", "write_table", ("cli.write_table_s",)),
    Target("cli.save", "cli", "save_artifact",
           ("cli.save_s", "cli.artifact_bytes"), _artifact_bytes),
    Target("cli.restore", "cli", "RestoredFit.__init__", ("cli.restore_s",)),
    Target("cli.solve_H", "cli", "RestoredFit.solve_H",
           ("cli.solve_H_s", "cli.solve_H_calls")),
    Target("cli.fit_from_config", "cli", "fit_from_config", ("cli.refit_s",)),
    Target("cli.aic", "cli", "cmd_aic", ("cli.refit_s",)),
)

#: the module whose public functions are the hand-written kernels
KERNEL_MODULE = "kernels"

#: per-layer metrics read from span self times, by span name
SELF_TIME_METRICS = {
    "design.build_s": ("design.build",),
    "basis.eval_s": ("basis.eval",),
    "sparsela.order_s": ("sparsela.order",),
    "sparsela.symbolic_s": ("sparsela.symbolic",),
    "sparsela.factor_s": ("sparsela.factor",),
    "sparsela.solve_s": ("sparsela.solve",),
    "sparsela.trace_s": ("sparsela.trace",),
    "sparsela.pair_trace_s": ("sparsela.pair_trace",),
    "sparsela.cond_s": ("sparsela.cond",),
    "efs.reml_grad_s": ("efs.reml_grad",),
    "efs.newton_s": ("efs.newton",),
    "efs.term_edf_s": ("efs.term_edf",),
    "efs.self_s": ("efs.fit", "efs.reml_grad", "efs.newton", "efs.term_edf"),
    "families.cox_llk_s": ("families.cox_llk",),
    "families.cox_grad_s": ("families.cox_grad",),
    "families.cox_hess_s": ("families.cox_hess",),
    "lqefs.line_search_s": ("lqefs.line_search",),
    "lqefs.pen_inverse_s": ("lqefs.pen_inverse",),
    "lqefs.trace_s": ("lqefs.trace",),
    "lqefs.chol_compact_s": ("lqefs.chol_compact",),
    "uncertainty.caic_s": ("uncertainty.caic",),
    "uncertainty.rho_posterior_s": ("uncertainty.rho_posterior",),
    "uncertainty.mc_s": ("uncertainty.mc",),
    "cli.read_table_s": ("cli.read_table",),
    "cli.write_table_s": ("cli.write_table",),
    "cli.save_s": ("cli.save",),
    "cli.restore_s": ("cli.restore",),
    "cli.solve_H_s": ("cli.solve_H",),
}

#: per-layer metrics that count calls of a span name
CALL_METRICS = {
    "design.build_calls": "design.build",
    "sparsela.factor_calls": "sparsela.factor",
    "efs.reml_grad_calls": "efs.reml_grad",
    "efs.newton_calls": "efs.newton",
    "families.cox_llk_calls": "families.cox_llk",
    "families.cox_grad_calls": "families.cox_grad",
    "families.cox_hess_calls": "families.cox_hess",
    "lqefs.line_search_calls": "lqefs.line_search",
    "cli.solve_H_calls": "cli.solve_H",
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.counters = defaultdict(float)

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, amounts):
        for key, value in amounts.items():
            if key.startswith("max:"):
                key = key[4:]
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def self_times(self):
        """Seconds per span name, each span minus the time of its children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] += end - start - inner
        return out

    def calls(self):
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def duration_under(self, name, under):
        """Total duration of spans ``name`` that run inside a span
        ``under``."""
        total = 0.0
        for nm, start, end, parent in self.spans:
            p = parent
            while nm == name and p >= 0:
                if self.spans[p][0] == under:
                    total += end - start
                    break
                p = self.spans[p][3]
        return total


def _resolve(module, qualname):
    """(owner, attribute, function), or None when the target is gone."""
    try:
        owner = importlib.import_module(f"smoothfit.{module}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    func = vars(owner).get(attr) if owner is not None else None
    return (owner, attr, func) if inspect.isfunction(func) else None


def _span_wrapper(tracer, target, func):
    def wrapper(*args, **kwargs):
        tracer.open(target.name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close()
        if target.measure is not None:
            tracer.count(target.measure(args, kwargs, result))
        return result
    wrapper.__wrapped__ = func
    return wrapper


def _kernel_wrapper(tracer, func):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            tracer.counters["kernels.s"] += time.perf_counter() - t0
            tracer.counters["kernels.calls"] += 1
    wrapper.__wrapped__ = func
    return wrapper


def _smoothfit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "smoothfit"
                                  or name.startswith("smoothfit."))]


class Instrumentation:
    """Patches smoothfit for one traced pass; ``restore`` undoes it."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []
        replacements = {}
        missing, present = set(), set()
        for target in TARGETS:
            found = _resolve(target.module, target.qualname)
            if found is None:
                missing.update(target.metrics)
                continue
            present.update(target.metrics)
            owner, attr, raw = found
            wrapped = _span_wrapper(tracer, target, raw)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
            else:
                replacements[id(raw)] = (raw, wrapped)
        try:
            kernels = importlib.import_module(f"smoothfit.{KERNEL_MODULE}")
        except ImportError:
            kernels = None
        if kernels is None:
            missing.update(("kernels.calls", "kernels.s"))
        else:
            for name, func in vars(kernels).items():
                if inspect.isfunction(func) and not name.startswith("_") \
                        and func.__module__ == kernels.__name__:
                    replacements[id(func)] = (func,
                                              _kernel_wrapper(tracer, func))
        # every module binding of a wrapped function, e.g. cli.build_design
        for module in _smoothfit_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        #: per-layer metrics whose every source is gone from the program
        self.absent = missing - present

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def per_layer_metrics(tracer):
    """Every per-layer metric of one traced pass; absent ones read 0."""
    selfs = tracer.self_times()
    calls = tracer.calls()
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(selfs.get(n, 0.0) for n in names)
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0)
    for key in ("basis.eval_rows", "sparsela.nnz_L", "sparsela.solve_cols",
                "sparsela.trace_cols", "efs.outer_iters",
                "lqefs.outer_iters", "lqefs.queue_skips", "cli.read_rows",
                "cli.artifact_bytes", "kernels.calls"):
        out[key] = int(tracer.counters.get(key, 0))
    out["kernels.s"] = float(tracer.counters.get("kernels.s", 0.0))
    out["cli.refit_s"] = tracer.duration_under("cli.fit_from_config",
                                               "cli.aic")
    return out


def unit_of(metric):
    if metric == "cli.artifact_bytes":
        return "B"
    return "s" if metric.endswith(("_s", ".s")) else "count"


def layer_share(tracer, prefixes, op_names):
    """Self time of spans whose name starts with one of ``prefixes``, as a
    share of the total duration of the benchmark's ``op_names`` spans."""
    total = sum(end - start for name, start, end, _ in tracer.spans
                if name in op_names)
    if total <= 0:
        return 0.0
    part = sum(t for name, t in tracer.self_times().items()
               if name.startswith(prefixes))
    return part / total
