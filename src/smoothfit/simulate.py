"""Desk-scale simulation harness.

Ground-truth signal functions are the four classical smooth test functions
from the spline-smoothing literature (Gu & Wahba's benchmark set); their
formulas, frozen here, are documented in ``docs/formats.md``:

* ``f_a(u) = 2 sin(pi u)``
* ``f_b(u) = exp(2 u)``
* ``f_c(u) = 0.2 u^11 (10 (1-u))^6 + 10 (10 u)^3 (1-u)^10``
* ``f_d(u) = 0``

Covariates live on [-1, 1] and are mapped to the unit interval before
evaluation.  Studies:

* ``s1`` -- four fixed smooths, Gaussian noise, single level.
* ``s2`` -- fixed smooths plus per-subject random smooth deviations.
* ``s4`` -- nested selection of a smooth term at effect strength ``e``.
* ``s5`` -- nested selection of a 40-level random intercept at ``e``.

Replicates draw their seeds from a spawning sequence of the master seed,
so results are reproducible and independent of worker scheduling.
"""

import os
import time

import numpy as np

from .design import ModelSpec, TermSpec, build_design
from .efs import fit_additive
from .errors import SpecError
from .lqefs import LqefsControl, lqefs_fit
from .uncertainty import caic

STUDIES = ("s1", "s2", "s4", "s5")


def f_a(u):
    return 2.0 * np.sin(np.pi * u)


def f_b(u):
    return np.exp(2.0 * u)


def f_c(u):
    return 0.2 * u ** 11 * (10.0 * (1.0 - u)) ** 6 \
        + 10.0 * (10.0 * u) ** 3 * (1.0 - u) ** 10


def f_d(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def to_unit(x):
    return (np.asarray(x, dtype=float) + 1.0) / 2.0


def eta_fixed(v, w, x, z, e_x=1.0):
    """Additive truth over the four covariates; f of z is zero everywhere."""
    return f_a(to_unit(v)) + f_b(to_unit(w)) + e_x * f_c(to_unit(x)) \
        + f_d(to_unit(z))


def draw_covariates(rng, n):
    return {c: rng.uniform(-1.0, 1.0, n) for c in ("v", "w", "x", "z")}


def random_smooth_deviation(rng, v, scale=0.6):
    """A smooth random function of v: low-order random Fourier coefficients."""
    u = to_unit(v)
    dev = np.zeros_like(u)
    for j in range(1, 5):
        a, b = rng.normal(0.0, scale / j ** 2, 2)
        dev += a * np.sin(np.pi * j * u) + b * np.cos(np.pi * j * u)
    return dev


def gen_gaussian(rng, n, phi=2.0, e_x=1.0):
    data = draw_covariates(rng, n)
    eta = eta_fixed(data["v"], data["w"], data["x"], data["z"], e_x=e_x)
    y = eta + rng.normal(0.0, np.sqrt(phi), n)
    return data, eta, y


def gen_multilevel(rng, n, n_subj=20, phi=2.0):
    data = draw_covariates(rng, n)
    subj = rng.integers(0, n_subj, n)
    data["subject"] = np.array([f"s{j:02d}" for j in subj])
    eta = eta_fixed(data["v"], data["w"], data["x"], data["z"])
    for j in range(n_subj):
        mask = subj == j
        eta[mask] += random_smooth_deviation(rng, data["v"][mask])
    y = eta + rng.normal(0.0, np.sqrt(phi), n)
    return data, eta, y


def gen_hazard(rng, n, phi=2.0, k=1, e_x=1.0):
    """Weibull survival times whose scale is driven by the linear predictor.

    With ``k`` covariates the positive rate is eta + offset; inverse-cdf
    sampling gives t = ((-10 log U) / rate)^phi.  No censoring.
    """
    data = draw_covariates(rng, n)
    if k == 1:
        eta = e_x * f_c(to_unit(data["x"]))
    else:
        eta = eta_fixed(data["v"], data["w"], data["x"], data["z"], e_x=e_x)
    rate = eta - eta.min() + 1.0
    U = rng.uniform(size=n)
    t = ((-10.0 * np.log(U)) / rate) ** phi
    return data, eta, t


def gen_random_intercept(rng, n, e, n_levels=40, phi=2.0):
    data = draw_covariates(rng, n)
    grp = rng.integers(0, n_levels, n)
    data["g"] = np.array([f"g{j:02d}" for j in grp])
    eta = eta_fixed(data["v"], data["w"], data["x"], data["z"])
    if e > 0:
        b = rng.normal(0.0, e, n_levels)
        eta = eta + b[grp]
    y = eta + rng.normal(0.0, np.sqrt(phi), n)
    return data, eta, y


def spec_fixed(k=10):
    return ModelSpec([TermSpec("intercept")] +
                     [TermSpec("smooth", [c], k=k) for c in "vwxz"])


def spec_fixed_without_x(k=10):
    return ModelSpec([TermSpec("intercept")] +
                     [TermSpec("smooth", [c], k=k) for c in "vwz"])


def spec_multilevel(k=10, k_rand=10):
    return ModelSpec([TermSpec("intercept")] +
                     [TermSpec("smooth", [c], k=k) for c in "vwxz"] +
                     [TermSpec("random_smooth", ["v"], by_factor="subject",
                               k=k_rand, penalty_order=1)])


def spec_random_intercept(k=10):
    return ModelSpec([TermSpec("intercept")] +
                     [TermSpec("smooth", [c], k=k) for c in "vwxz"] +
                     [TermSpec("random_intercept", by_factor="g")])


class _GaussianFixedScale:
    """Gaussian log-likelihood with unit scale, for the quasi-Newton engine."""

    n_parameters = 1

    def __init__(self, y):
        self.y = np.asarray(y, dtype=float)

    def llk(self, beta, design):
        r = design.to_internal(self.y) - np.asarray(design.X_full @ beta)
        return float(-0.5 * (r @ r) - 0.5 * r.size * np.log(2.0 * np.pi))

    def grad(self, beta, design):
        r = design.to_internal(self.y) - np.asarray(design.X_full @ beta)
        return np.asarray(design.X_full.T @ r)

    def init_coef(self, design):
        return np.zeros(design.N_p)


def _eta_mse(design, fit, eta_true):
    """MSE between fitted and true linear predictor, centered to remove the
    unidentifiable constant shift."""
    est = design.to_user(np.asarray(design.X_full @ fit.beta))
    diff = est - eta_true
    diff = diff - diff.mean()
    return float(np.mean(diff ** 2))


def run_replicate_s1(seed, n=500, phi=2.0, engines=("am", "lqefs"), nv=30):
    rng = np.random.default_rng(seed)
    data, eta, y = gen_gaussian(rng, n, phi=phi)
    rows = []
    for engine in engines:
        design = build_design(spec_fixed(), data)
        t0 = time.perf_counter()
        if engine == "am":
            fit = fit_additive(design, y)
        elif engine == "lqefs":
            fit = lqefs_fit(design, _GaussianFixedScale(y / np.sqrt(phi)),
                            LqefsControl(n_v=nv, seed=seed))
        else:
            raise SpecError(f"engine {engine!r} not part of study s1")
        elapsed = time.perf_counter() - t0
        scale = 1.0 if engine == "am" else np.sqrt(phi)
        est = design.to_user(np.asarray(design.X_full @ fit.beta)) * scale
        diff = est - eta
        diff -= diff.mean()
        rows.append({"study": "s1", "seed": seed, "engine": engine,
                     "n": n, "mse": float(np.mean(diff ** 2)),
                     "converged": int(fit.converged),
                     "seconds": elapsed})
    return rows


def run_replicate_s2(seed, n=5000, n_subj=20, phi=2.0, k_rand=10):
    rng = np.random.default_rng(seed)
    data, eta, y = gen_multilevel(rng, n, n_subj=n_subj, phi=phi)
    design = build_design(spec_multilevel(k_rand=k_rand), data)
    t0 = time.perf_counter()
    fit = fit_additive(design, y)
    elapsed = time.perf_counter() - t0
    return [{"study": "s2", "seed": seed, "engine": "am", "n": n,
             "mse": _eta_mse(design, fit, eta),
             "factor_nnz": fit.diagnostics["factor_nnz"],
             "n_coef": design.N_p, "converged": int(fit.converged),
             "seconds": elapsed}]


def _selection_row(fit_c, fit_r, variants, n_r, seed):
    out = {}
    for variant in variants:
        rc = caic(fit_c, variant, n_r=n_r, seed=seed)
        rr = caic(fit_r, variant, n_r=n_r, seed=seed + 1)
        out[f"select_{variant}"] = int(rc.caic < rr.caic)
        out[f"tau_prime_{variant}"] = rc.tau_prime
    return out


def run_replicate_s4(seed, e, n=500, phi=2.0, n_r=250,
                     variants=("conventional", "pql_corrected",
                               "mc_gaussian")):
    """Smooth-term selection: complex model includes f(x), reduced omits it."""
    rng = np.random.default_rng(seed)
    data, eta, y = gen_gaussian(rng, n, phi=phi, e_x=e)
    dc = build_design(spec_fixed(), data)
    dr = build_design(spec_fixed_without_x(), data)
    fit_c = fit_additive(dc, y)
    fit_r = fit_additive(dr, y)
    row = {"study": "s4", "seed": seed, "e": e, "n": n}
    row.update(_selection_row(fit_c, fit_r, variants, n_r, seed))
    return [row]


def run_replicate_s5(seed, e, n=500, phi=2.0, n_levels=40, n_r=250,
                     variants=("conventional", "pql_corrected",
                               "mc_gaussian")):
    """Random-intercept selection against the model without the intercepts."""
    rng = np.random.default_rng(seed)
    data, eta, y = gen_random_intercept(rng, n, e, n_levels=n_levels,
                                        phi=phi)
    dc = build_design(spec_random_intercept(), data)
    dr = build_design(spec_fixed(), data)
    fit_c = fit_additive(dc, y)
    fit_r = fit_additive(dr, y)
    row = {"study": "s5", "seed": seed, "e": e, "n": n}
    row.update(_selection_row(fit_c, fit_r, variants, n_r, seed))
    return [row]


def replicate_seeds(master_seed, replicates):
    """Deterministic per-replicate seeds from a spawning sequence."""
    ss = np.random.SeedSequence(master_seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(replicates)]


def effect_grid(num=10):
    return np.linspace(0.0, 1.0, num)


def worker_count():
    env = os.environ.get("SMOOTHFIT_THREADS", "1")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def run_study(study, replicates, seed, n=None, effect=None, n_r=250,
              nv=30):
    """Run one study and return a list of metric rows (dicts)."""
    if study not in STUDIES:
        raise SpecError(f"unknown study {study!r}; pick one of {STUDIES}")
    seeds = replicate_seeds(seed, replicates)
    tasks = []
    if study == "s1":
        n = n or 500
        tasks = [(run_replicate_s1, (s,), {"n": n, "nv": nv})
                 for s in seeds]
    elif study == "s2":
        n = n or 5000
        tasks = [(run_replicate_s2, (s,), {"n": n}) for s in seeds]
    else:
        n = n or 500
        effects = [effect] if effect is not None else effect_grid()
        fn = run_replicate_s4 if study == "s4" else run_replicate_s5
        for e in effects:
            for s in seeds:
                tasks.append((fn, (s, float(e)), {"n": n, "n_r": n_r}))
    workers = worker_count()
    rows = []
    if workers == 1:
        for fn, args, kwargs in tasks:
            rows.extend(fn(*args, **kwargs))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, *args, **kwargs)
                       for fn, args, kwargs in tasks]
            for fut in futures:
                rows.extend(fut.result())
    return rows
