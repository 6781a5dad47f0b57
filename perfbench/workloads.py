"""The benchmark's workloads: inputs, timed operations and their checks.

Each workload owns its inputs.  They are generated here from the seed with
the truth functions of ``docs/formats.md``.  The timed operations call
only smoothfit's stable entry points: ``design.build_design``,
``efs.fit_additive``, ``efs.fit_gsmm``, ``lqefs.lqefs_fit``,
``families.CoxphFamily`` and ``cli.main``.  The checks read what those
return (the fit state or the CLI's output files) and evaluate fitted
linear predictors with ``PenalizedDesign.linear_predictors``.
"""

import contextlib
import csv
import io
import json
import math
import os
import time
from statistics import median

import numpy as np

# ---------------------------------------------------------------------------
# truth functions (docs/formats.md), on u in [0, 1]
# ---------------------------------------------------------------------------


def f_a(u):
    return 2.0 * np.sin(np.pi * u)


def f_b(u):
    return np.exp(2.0 * u)


def f_c(u):
    return 0.2 * u ** 11 * (10.0 * (1.0 - u)) ** 6 \
        + 10.0 * (10.0 * u) ** 3 * (1.0 - u) ** 10


def f_d(u):
    return np.zeros_like(u)


def unit(x):
    return (x + 1.0) / 2.0


def additive_truth(cols):
    return f_a(unit(cols["v"])) + f_b(unit(cols["w"])) \
        + f_c(unit(cols["x"])) + f_d(unit(cols["z"]))


def covariates(rng, n, lo=-1.0, hi=1.0):
    return {c: rng.uniform(lo, hi, n) for c in ("v", "w", "x", "z")}


def subject_deviation(rng, u):
    """Random smooth of u: Fourier terms with 1/j^2 coefficient decay."""
    dev = np.zeros_like(u)
    for j in range(1, 5):
        a, b = rng.normal(0.0, 0.6 / j ** 2, 2)
        dev += a * np.sin(np.pi * j * u) + b * np.cos(np.pi * j * u)
    return dev


def centred_mse(est, truth):
    diff = np.asarray(est, dtype=float) - truth
    diff = diff - diff.mean()
    return float(np.mean(diff ** 2))


def smooth_terms(names, k):
    return [{"kind": "smooth", "covariates": [c], "k": k} for c in names]


# ---------------------------------------------------------------------------
# operation accounting and fingerprint checks
# ---------------------------------------------------------------------------


class Ops:
    """Attempted and failed operations of one run, with failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, name, func):
        """Run ``func``; returns (result, seconds), result None on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = func()
        except Exception as exc:  # a failed operation is a measured outcome
            self.failures.append(f"{name}: raised {type(exc).__name__}: "
                                 f"{exc}")
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def check(self, name, problems):
        """Record ``name`` as failed when the check list is non-empty.

        The operation was already counted by :meth:`attempt`; a failed
        check turns it into a failure once, whatever the number of
        problems."""
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
            return False
        return True

    @property
    def failed(self):
        return len(self.failures)


#: Tolerances against the stored reference fingerprints, all from
#: converged exact fits.  A change that only reorders floating-point work
#: moves them by about 1e-12 (measured: the QR instead of the Cholesky
#: route).  A change that stops the EFS loop elsewhere moves them more
#: (measured over four seeds per workload with a tenfold tighter fit
#: tolerance: REML 5e-11 relative, EDF 4e-5 relative, eta_mse 5e-5
#: relative, rho 0.002).  Each bound is ten or more times the latter.
TOLERANCE = {
    "reml_rel": 1e-9,
    "edf_rel": 1e-3,
    "eta_mse_rel": 1e-3,
    "rho_abs": 0.02,
    # rho beyond this is a weight penalising its term away: the REML
    # surface is flat there, so only "still beyond" is checked
    "rho_flat": 8.0,
    # fill may shrink under a better ordering, never grow
    "nnz_growth": 1.05,
}

#: Inputs without a stored fingerprint (replicates after the first, seeds
#: not stored) are checked against the range over the stored seeds, widened
#: on each side by this multiple of its width: wide enough that a correct
#: fit on a new input never falls outside, narrow enough to catch a broken
#: one.
ENVELOPE_MARGIN = 2.0


def fingerprint_problems(fp, ref, envelope):
    """Differences of fingerprint ``fp`` from its stored reference.

    ``ref`` is the stored fingerprint of this seed, or None; then the
    value must lie within ``envelope`` (per key: [lo, hi] over all stored
    seeds, widened by ``ENVELOPE_MARGIN`` times its width)."""
    problems = []
    for key, value in fp.items():
        vals = np.atleast_1d(np.asarray(value, dtype=float))
        if not np.all(np.isfinite(vals)):
            problems.append(f"{key} is not finite")
    if problems:
        return problems
    if ref is None:
        if envelope is None:
            return problems
        for key, (lo, hi) in envelope.items():
            if key == "nnz_L":
                if fp[key] > TOLERANCE["nnz_growth"] * hi:
                    problems.append(f"nnz(L) {fp[key]} grew beyond {hi}")
                continue
            vals = np.asarray(fp[key], dtype=float)
            lo, hi = np.asarray(lo, float), np.asarray(hi, float)
            pad = ENVELOPE_MARGIN * np.maximum(hi - lo, 1e-9 * np.abs(hi))
            if vals.shape != lo.shape or np.any(vals < lo - pad) \
                    or np.any(vals > hi + pad):
                problems.append(f"{key}={fp[key]} outside the stored "
                                f"range [{lo.tolist()}, {hi.tolist()}]")
        return problems
    tol = TOLERANCE
    if abs(fp["reml"] - ref["reml"]) > tol["reml_rel"] * abs(ref["reml"]):
        problems.append(f"reml {fp['reml']!r} != {ref['reml']!r}")
    if abs(fp["edf"] - ref["edf"]) > tol["edf_rel"] * ref["edf"]:
        problems.append(f"edf {fp['edf']!r} != {ref['edf']!r}")
    if abs(fp["eta_mse"] - ref["eta_mse"]) > \
            tol["eta_mse_rel"] * ref["eta_mse"]:
        problems.append(f"eta_mse {fp['eta_mse']!r} != {ref['eta_mse']!r}")
    rho, rho_ref = np.asarray(fp["rho"]), np.asarray(ref["rho"])
    if rho.shape != rho_ref.shape:
        problems.append(f"rho has {rho.size} entries, reference "
                        f"{rho_ref.size}")
    else:
        flat = rho_ref > tol["rho_flat"]
        off = np.abs(rho - rho_ref) > tol["rho_abs"]
        bad = np.flatnonzero((off & ~flat) | (flat & (rho <= tol["rho_flat"])))
        if bad.size:
            problems.append(f"rho[{bad.tolist()}] {rho[bad].tolist()} != "
                            f"{rho_ref[bad].tolist()}")
    if fp["nnz_L"] > tol["nnz_growth"] * ref["nnz_L"]:
        problems.append(f"nnz(L) {fp['nnz_L']} grew from {ref['nnz_L']}")
    return problems


def fit_fingerprint(rho, reml, edf, nnz_L, eta_mse):
    return {"rho": [float(r) for r in rho], "reml": float(reml),
            "edf": float(edf), "nnz_L": int(nnz_L),
            "eta_mse": float(eta_mse)}


def fit_problems(fit):
    problems = []
    if not fit.converged:
        problems.append(f"did not converge in {fit.iterations} iterations")
    for name in ("beta", "rho"):
        if not np.all(np.isfinite(getattr(fit, name))):
            problems.append(f"{name} is not finite")
    for name in ("reml", "edf"):
        if not math.isfinite(getattr(fit, name)):
            problems.append(f"{name} is not finite")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One seed's replicate inputs and one timed pass over the operations.

    Pass ``r`` runs on replicate ``r``, whose inputs ``prepare(r)`` makes
    (untimed) from the generator seeded with ``[seed, workload id, r]``.
    ``run_pass`` returns the pass's timings in seconds by key; ``pass`` is
    the end-to-end ``pass_s``, the others are the workload's own
    operation times.  ``span`` opens a benchmark span around each
    operation when tracing.
    """

    def __init__(self, seed, size, reference, workdir):
        self.seed = seed
        self.size = self.SIZES[size]
        self.workdir = workdir
        stored = reference.get(self.name, {}) if reference else {}
        self.references = stored.get("seeds", {}) if size == "full" else {}
        self.envelope = stored.get("envelope") if size == "full" else None
        self.replicate = None
        self.eta_mse = []
        self.fingerprint = None

    def rng(self, r):
        self.replicate = r
        return np.random.default_rng([self.seed, self.ID, r])

    def check_fingerprint(self, ops, op, fp):
        """Replicate 0 is compared with its stored fingerprint, the others
        with the range of the stored fingerprints."""
        self.fingerprint = fp
        ref = self.references.get(str(self.seed)) \
            if self.replicate == 0 else None
        return ops.check(op, fingerprint_problems(fp, ref, self.envelope))

    def extra_metrics(self, timings):
        """The workload's own metrics: (value, unit, better) by name."""
        own = {"eta_mse": (median(self.eta_mse) if self.eta_mse
                           else float("nan"), "eta_sq", "lower")}
        own.update(self.operation_metrics(timings))
        return own


class Multilevel(Workload):
    """Gaussian additive model with a per-subject random smooth."""

    name = "multilevel"
    ID = 1
    #: (rows, subjects)
    SIZES = {"full": (2_000, 10), "small": (600, 3)}
    DOC = {"response": "y", "terms": [
        {"kind": "intercept"}, *smooth_terms("vwxz", 10),
        {"kind": "random_smooth", "covariates": ["v"],
         "by_factor": "subject", "k": 10, "penalty_order": 1}]}

    def prepare(self, r):
        n, n_subj = self.size
        rng = self.rng(r)
        cols = covariates(rng, n)
        subj = rng.permutation(np.arange(n) % n_subj)
        eta = additive_truth(cols)
        for j in range(n_subj):
            rows = subj == j
            eta[rows] += subject_deviation(rng, unit(cols["v"][rows]))
        cols["subject"] = np.array([f"s{j:03d}" for j in subj])
        self.data = cols
        self.eta = eta
        self.y = eta + rng.normal(0.0, math.sqrt(2.0), n)

    def fit(self, sf):
        design = sf.design.build_design(sf.design.ModelSpec.from_dict(
            self.DOC), self.data)
        return design, sf.efs.fit_additive(design, self.y)

    def run_pass(self, sf, ops, span):
        with span("op.fit"):
            res, secs = ops.attempt("fit_additive", lambda: self.fit(sf))
        if res is not None:
            design, fit = res
            eta_hat = design.linear_predictors(self.data, fit.beta)[0]
            mse = centred_mse(eta_hat, self.eta)
            self.eta_mse.append(mse)
            if ops.check("fit_additive", fit_problems(fit)):
                self.check_fingerprint(ops, "fit_additive", fit_fingerprint(
                    fit.rho, fit.reml, fit.edf,
                    fit.diagnostics["factor_nnz"], mse))
        return {"pass": secs, "fit": secs}

    def operation_metrics(self, timings):
        return {"fit_s": (median(timings["fit"]), "s", "lower")}


class Survival(Workload):
    """Cox PH smooth of x, fitted by the exact and the quasi-Newton engine."""

    name = "survival"
    ID = 2
    SIZES = {"full": 800, "small": 300}
    SPEC = {"response": "t", "event": "delta",
            "terms": smooth_terms("x", 10)}

    def prepare(self, r):
        n = self.size
        rng = self.rng(r)
        x = rng.uniform(-1.0, 1.0, n)
        # Weibull times t = ((-10 log U) / rate)^phi with a rate shifted
        # positive (docs/formats.md); the hazard is proportional to rate,
        # so the Cox linear predictor is log(rate).
        rate = f_c(unit(x))
        rate = rate - rate.min() + 1.0
        self.t = ((-10.0 * np.log(rng.uniform(size=n))) / rate) ** 2.0
        self.delta = np.ones(n)
        self.data = {"x": x}
        self.eta = np.log(rate)

    def _design(self, sf):
        return sf.design.build_design(sf.design.ModelSpec.from_dict(
            self.SPEC), self.data)

    def fit_gsmm(self, sf):
        design = self._design(sf)
        return design, sf.efs.fit_gsmm(
            design, sf.families.CoxphFamily(self.t, self.delta))

    def fit_lqefs(self, sf):
        design = self._design(sf)
        return design, sf.lqefs.lqefs_fit(
            design, sf.families.CoxphFamily(self.t, self.delta),
            sf.lqefs.LqefsControl(n_v=30))

    def run_pass(self, sf, ops, span):
        with span("op.fit_gsmm"):
            exact, t_exact = ops.attempt("fit_gsmm",
                                         lambda: self.fit_gsmm(sf))
        with span("op.fit_lqefs"):
            quasi, t_quasi = ops.attempt("fit_lqefs",
                                         lambda: self.fit_lqefs(sf))
        eta_exact = None
        if exact is not None:
            design, fit = exact
            eta_exact = design.linear_predictors(self.data, fit.beta)[0]
            mse = centred_mse(eta_exact, self.eta)
            self.eta_mse.append(mse)
            if ops.check("fit_gsmm", fit_problems(fit)):
                self.check_fingerprint(ops, "fit_gsmm", fit_fingerprint(
                    fit.rho, fit.reml, fit.edf,
                    fit.diagnostics["factor_nnz"], mse))
        if quasi is not None:
            design, fit = quasi
            problems = fit_problems(fit)
            if eta_exact is not None and not problems:
                eta_q = design.linear_predictors(self.data, fit.beta)[0]
                corr = float(np.corrcoef(eta_exact, eta_q)[0, 1])
                if not corr >= 0.999:
                    problems.append(f"corr(eta_gsmm, eta_lqefs) = {corr:.6f}"
                                    " < 0.999")
            ops.check("fit_lqefs", problems)
        return {"pass": t_exact + t_quasi, "fit": t_exact,
                "fit_lqefs": t_quasi}

    def operation_metrics(self, timings):
        return {"fit_s": (median(timings["fit"]), "s", "lower"),
                "fit_lqefs_s": (median(timings["fit_lqefs"]), "s", "lower")}


class PredictSelect(Workload):
    """The CLI end to end: fit two models, predict with intervals, cAIC."""

    name = "predict_select"
    ID = 3
    #: (training rows, predicted rows, cAIC Monte Carlo draws)
    SIZES = {"full": (2_000, 20_000, 250), "small": (400, 2_000, 20)}
    variants = ("conventional", "pql_corrected", "mc_gaussian")

    def __init__(self, seed, size, reference, workdir):
        super().__init__(seed, size, reference, workdir)
        self.paths = {k: os.path.join(workdir, v) for k, v in {
            "train": "train.csv", "new": "new.csv", "full_spec": "full.json",
            "reduced_spec": "reduced.json", "full": "full.fit.json",
            "reduced": "reduced.fit.json", "pred": "pred.csv",
            "aic": "aic.csv"}.items()}
        full = [{"kind": "intercept"}, *smooth_terms("vwxz", 10)]
        reduced = [{"kind": "intercept"}, *smooth_terms("vwz", 10)]
        for key, terms in (("full_spec", full), ("reduced_spec", reduced)):
            with open(self.paths[key], "w", encoding="utf-8") as fh:
                json.dump({"response": "y", "terms": terms}, fh)

    def prepare(self, r):
        n, n_new, _ = self.size
        rng = self.rng(r)
        train = covariates(rng, n)
        train["y"] = additive_truth(train) + rng.normal(0.0, math.sqrt(2.0),
                                                        n)
        # new rows inside the training range, so nothing is clamped
        lo = max(float(train[c].min()) for c in "vwxz")
        hi = min(float(train[c].max()) for c in "vwxz")
        new = covariates(rng, n_new, lo, hi)
        self.eta_new = additive_truth(new)
        write_csv(self.paths["train"], train, ("v", "w", "x", "z", "y"))
        write_csv(self.paths["new"], new, ("v", "w", "x", "z"))

    def cli(self, sf, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = sf.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"smoothfit {argv[0]} exited with {rc}")
        return rc

    def fit_argv(self, spec, out):
        return ["fit", "--data", self.paths["train"], "--spec",
                self.paths[spec], "--out", self.paths[out]]

    def run_pass(self, sf, ops, span):
        P = self.paths
        with span("op.cli_fit"):
            ok_full, t_fit = ops.attempt("cli_fit", lambda: self.cli(
                sf, self.fit_argv("full_spec", "full")))
        with span("op.cli_fit_reduced"):
            ok_red, t_red = ops.attempt("cli_fit_reduced", lambda: self.cli(
                sf, self.fit_argv("reduced_spec", "reduced")))
        with span("op.cli_predict"):
            ok_pred, t_pred = ops.attempt("cli_predict", lambda: self.cli(
                sf, ["predict", "--artifact", P["full"], "--data", P["new"],
                     "--out", P["pred"]]))
        with span("op.cli_aic"):
            ok_aic, t_aic = ops.attempt("cli_aic", lambda: self.cli(
                sf, ["aic", P["full"], P["reduced"], "--data", P["train"],
                     "--aic-variant", ",".join(self.variants),
                     "--nr", str(self.size[2]), "--out", P["aic"]]))
        mse = None
        if ok_pred is not None:
            mse = ops.attempt("check_predict", self.predict_check)[0]
            if mse is not None:
                self.eta_mse.append(mse)
        if ok_full is not None:
            self.artifact_check(ops, mse)
        if ok_aic is not None and ok_red is not None:
            ops.attempt("check_aic", self.aic_check)
        return {"pass": t_fit + t_red + t_pred + t_aic, "fit": t_fit,
                "predict": t_pred, "select": t_aic}

    def predict_check(self):
        rows = read_csv(self.paths["pred"])
        problems = []
        n_new = self.size[1]
        if len(rows["row"]) != n_new:
            problems.append(f"{len(rows['row'])} rows, expected {n_new}")
        eta = rows.get("eta_0")
        lo, hi = rows.get("eta_0_lo"), rows.get("eta_0_hi")
        if eta is None or lo is None or hi is None:
            problems.append("eta_0 or its interval is missing")
        elif not (np.all(np.isfinite(eta)) and np.all(np.isfinite(lo))
                  and np.all(np.isfinite(hi))):
            problems.append("non-finite predictions")
        elif not np.all((lo <= eta) & (eta <= hi)):
            problems.append(f"{int(np.sum(~((lo <= eta) & (eta <= hi))))} "
                            "rows outside their interval")
        if problems:
            raise ValueError("; ".join(problems))
        return centred_mse(eta, self.eta_new)

    def artifact_check(self, ops, mse):
        """Fingerprint of the saved full-model artifact."""
        with open(self.paths["full"], encoding="utf-8") as fh:
            art = json.load(fh)
        problems = [] if art["converged"] else ["did not converge"]
        if mse is None:
            problems.append("no prediction to score")
        if ops.check("cli_fit", problems):
            self.check_fingerprint(ops, "cli_fit", fit_fingerprint(
                art["rho"], art["reml"], art["edf"],
                art["diagnostics"]["factor_nnz"], mse))

    def aic_check(self):
        rows = read_csv(self.paths["aic"], numeric=False)
        full = [r for r in _records(rows)
                if r["model"] == self.paths["full"]]
        problems = [] if len(_records(rows)) == 2 and len(full) == 1 \
            else ["expected one row per artifact"]
        for rec in _records(rows):
            tau = float(rec["tau"])
            for v in self.variants:
                tp, c = float(rec[f"tau_prime_{v}"]), float(rec[f"caic_{v}"])
                if not (math.isfinite(tp) and math.isfinite(c)):
                    problems.append(f"{v}: non-finite cAIC")
                elif tp < tau:
                    problems.append(f"{v}: tau' {tp} < tau {tau}")
        for v in self.variants:
            if full and full[0][f"preferred_{v}"] != "1":
                problems.append(f"{v} prefers the reduced model")
        if problems:
            raise ValueError("; ".join(problems))

    def operation_metrics(self, timings):
        return {"fit_s": (median(timings["fit"]), "s", "lower"),
                "predict_rows_per_s": (self.size[1]
                                       / median(timings["predict"]),
                                       "rows/s", "higher"),
                "select_s": (median(timings["select"]), "s", "lower")}


WORKLOADS = {w.name: w for w in (Multilevel, Survival, PredictSelect)}


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def write_csv(path, cols, names):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        w.writerows(zip(*[[repr(float(v)) for v in cols[c]] for c in names]))


def read_csv(path, numeric=True):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {h: [] for h in header}
        for row in reader:
            for h, v in zip(header, row):
                cols[h].append(v)
    if numeric:
        return {h: np.array([float(v) for v in vals])
                for h, vals in cols.items()}
    return cols


def _records(cols):
    keys = list(cols)
    return [dict(zip(keys, vals)) for vals in zip(*cols.values())]
