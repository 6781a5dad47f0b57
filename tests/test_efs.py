"""Fitting engines: penalized solves, EFS updates, REML pieces, Newton."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothfit import efs, lqefs
from smoothfit.design import ModelSpec, TermSpec, build_design
from smoothfit.errors import NumericError, SpecError
from smoothfit.families import (CoxphFamily, GamlssFamily, GeneralFamily,
                                get_family, get_link, pseudo_data)
from smoothfit.simulate import (draw_covariates, eta_fixed, gen_hazard,
                                spec_fixed, to_unit)


def gaussian_problem(n=200, seed=0, phi=2.0, k=10, covs="vx"):
    rng = np.random.default_rng(seed)
    data = draw_covariates(rng, n)
    eta = eta_fixed(data["v"], data["w"], data["x"], data["z"])
    y = eta + rng.normal(0, np.sqrt(phi), n)
    spec = ModelSpec([TermSpec("intercept")] +
                     [TermSpec("smooth", [c], k=k) for c in covs])
    return build_design(spec, data), y, eta, rng


def dense_reml(design, y, rho, phi=None):
    """Dense REML oracle for Gaussian additive models (phi profiled when
    not given)."""
    lams = np.exp(np.asarray(rho, dtype=float))
    X = np.asarray(design.X_full.todense())
    yi = design.to_internal(y)
    n, n_p = X.shape
    S = sum(l * np.asarray(design.S_emb(r).todense())
            for r, l in enumerate(lams))
    A = X.T @ X + S
    beta = np.linalg.solve(A, X.T @ yi)
    rss_pen = float((yi - X @ beta) @ (yi - X @ beta) + beta @ S @ beta)
    mp = n_p - design.penalty_rank
    if phi is None:
        phi = rss_pen / (n - mp)
    llk_pen = -n / 2 * np.log(2 * np.pi * phi) - rss_pen / (2 * phi)
    lds = design.logdet_S_plus(lams) - design.penalty_rank * np.log(phi)
    ldh = np.linalg.slogdet(A)[1] - n_p * np.log(phi)
    return llk_pen + 0.5 * lds - 0.5 * ldh


def dense_term_edfs(design, solve, w):
    """Per-term edf from the dense diag(H_p^{-1} X^T W X) (oracle);
    ``solve`` applies H_p^{-1} in the design's coordinates."""
    X = design.X_full
    Xw = X if w is None else X.multiply(np.asarray(w)[:, None])
    dense = np.asarray(sp.csc_array(X.T @ Xw).todense())
    diag = np.einsum("ii->i", solve(dense))
    return {t.spec.name: float(np.sum(diag[t.col_start:
                                           t.col_start + t.col_count]))
            for t in design.terms}


class TestSolvePenalized:
    def test_identity_unpenalized(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(6)
        d = _ridge_design(6)
        beta, _ = efs.solve_penalized(sp.eye_array(6, format="csc"), y,
                                      None, d, np.array([1e-30]))
        np.testing.assert_allclose(beta, y, atol=1e-9)

    def test_ridge_shrinkage(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(6)
        d = _ridge_design(6)
        tau = 3.0
        beta, _ = efs.solve_penalized(sp.eye_array(6, format="csc"), y,
                                      None, d, np.array([tau]))
        np.testing.assert_allclose(beta, y / (1 + tau), atol=1e-12)

    def test_matches_dense_normal_equations(self):
        design, y, _, rng = gaussian_problem(n=200, covs="vwx")
        lams = rng.uniform(0.5, 5.0, design.n_lambda)
        w = rng.uniform(0.5, 2.0, design.N)
        yi = design.to_internal(y)
        beta, _ = efs.solve_penalized(design.X_full, yi, w, design, lams)
        X = np.asarray(design.X_full.todense())
        A = X.T @ (w[:, None] * X) + np.asarray(
            design.S_lambda(lams).todense())
        ref = np.linalg.solve(A, X.T @ (w * yi))
        np.testing.assert_allclose(beta, ref, rtol=1e-8, atol=1e-10)


def _ridge_design(k):
    data = {"lvl": np.array([f"a{i}" for i in range(k)])}
    spec = ModelSpec([TermSpec("random_intercept", by_factor="lvl")])
    return build_design(spec, data)


class TestTraceAndStep:
    def test_single_penalty_rank_over_lambda(self):
        design, _, _, _ = gaussian_problem()
        got = design.trace_sinv(np.array([2.0, 2.0]))
        np.testing.assert_allclose(got, [4.0, 4.0])

    def test_identity_penalty(self):
        d = _ridge_design(5)
        np.testing.assert_allclose(d.trace_sinv(np.array([10.0])),
                                   [0.5])

    def test_efs_step_examples(self):
        # zero numerator clamps at the lower bound
        delta, clamped = efs.efs_step(2.0, 5.0, 5.0, 4.0, 1.0)
        assert clamped and abs((2.0 + delta) - efs.LAM_LO) < 1e-12
        # balance equation at equilibrium
        delta, _ = efs.efs_step(2.0, 5.0, 3.0, 2.0 * 2.0 / 2.0, 1.0)
        assert abs(delta) < 1e-12
        # hand evaluation
        delta, _ = efs.efs_step(2.0, 5.0, 3.0, 4.0, 1.0)
        assert abs(delta + 1.0) < 1e-12
        # penalized-away term jumps to the top clamp
        delta, clamped = efs.efs_step(2.0, 5.0, 3.0, 1e-16, 1.0)
        assert clamped and abs((2.0 + delta) - efs.LAM_HI) < 1e-6


class TestRemlPieces:
    def test_one_coefficient_ridge_closed_form(self):
        # V (plus its lambda-free constant) must equal the exact Gaussian
        # log marginal likelihood of a 1-coefficient ridge model
        y = np.array([1.0, 2.0, 3.0])
        lam, phi = 1.0, 1.0
        # single-coefficient model: X = ones column
        data = {"g": np.array(["a", "a", "a"])}
        d1 = build_design(ModelSpec([TermSpec("random_intercept",
                                              by_factor="g")]), data)
        X = np.ones((3, 1))
        beta, factor = efs.solve_penalized(sp.csc_array(X), y, None, d1,
                                           np.array([lam]))
        b = beta[0]  # solve_penalized returns a length-N_p vector
        pen = lam * b ** 2
        llk = float(np.sum(-0.5 * np.log(2 * np.pi * phi)
                           - (y - X[:, 0] * b) ** 2 / (2 * phi)))
        V = efs.reml_value(d1, factor, np.array([lam]), llk - pen / 2, phi)
        # exact marginal: y ~ N(0, phi I + X X^T phi / lam)
        C = phi * np.eye(3) + np.outer(X[:, 0], X[:, 0]) * phi / lam
        ref = -0.5 * (3 * np.log(2 * np.pi) + np.linalg.slogdet(C)[1]
                      + y @ np.linalg.solve(C, y))
        assert abs(V - ref) < 1e-10

    def test_lambda_doubling_consistency(self):
        design, y, _, _ = gaussian_problem()
        yi = design.to_internal(y)
        for lam_mult in (1.0, 2.0):
            lams = lam_mult * np.ones(2)
            beta, factor = efs.solve_penalized(design.X_full, yi, None,
                                               design, lams)
            pen = float(lams @ design.quad_forms(beta))
            llk = float(np.sum(-0.5 * np.log(2 * np.pi)
                               - (yi - design.X_full @ beta) ** 2 / 2))
            V = efs.reml_value(design, factor, lams, llk - pen / 2, 1.0)
            ref = dense_reml(design, y, np.log(lams), phi=1.0)
            assert abs(V - ref) < 1e-9 * abs(ref)

    def test_phi_maximizes_reml(self):
        # the implemented scale estimate is the 1-d maximizer of V
        design, y, _, _ = gaussian_problem(n=150)
        fit = efs.fit_additive(design, y)
        grid = fit.phi * np.linspace(0.8, 1.2, 81)
        vals = [dense_reml(design, y, fit.rho, phi=p) for p in grid]
        best = grid[int(np.argmax(vals))]
        assert abs(best - fit.phi) <= 0.01 * fit.phi

    def test_reml_grad_matches_finite_differences(self):
        design, y, _, _ = gaussian_problem(n=150, seed=3)
        fit = efs.fit_additive(design, y)
        rho = fit.rho - 0.7  # away from the optimum
        lams = np.exp(rho)
        yi = design.to_internal(y)
        beta, factor = efs.solve_penalized(design.X_full, yi, None, design,
                                           lams)
        grad, *_ = efs.reml_grad(design, factor, lams, beta, phi=fit.phi)
        grad_rho = grad * lams
        h = 1e-5
        for r in range(design.n_lambda):
            e = np.zeros(design.n_lambda)
            e[r] = h
            fd = (dense_reml(design, y, rho + e, phi=fit.phi)
                  - dense_reml(design, y, rho - e, phi=fit.phi)) / (2 * h)
            assert abs(grad_rho[r] - fd) <= 1e-4 * max(abs(fd), 1e-3)

    def test_zero_effect_gradient_positive_at_small_lambda(self):
        rng = np.random.default_rng(4)
        n = 300
        x = rng.uniform(-1, 1, n)
        y = rng.normal(0, 1.0, n)  # true smooth is identically zero
        d = build_design(ModelSpec([TermSpec("intercept"),
                                    TermSpec("smooth", ["x"], k=10)]),
                         {"x": x})
        lams = np.array([1e-4])
        beta, factor = efs.solve_penalized(d.X_full, d.to_internal(y),
                                           None, d, lams)
        grad, *_ = efs.reml_grad(d, factor, lams, beta, phi=1.0)
        assert grad[0] > 0

    def test_estimate_phi_guards(self):
        assert efs.estimate_phi(0.0, 10, 2) == 1e-12
        with pytest.raises(NumericError):
            efs.estimate_phi(1.0, 2, 5)


class TestFitAdditive:
    def test_intercept_only(self):
        y = np.array([1.0, 2.0, 3.0])
        d = build_design(ModelSpec([TermSpec("intercept")]),
                         {"c": np.zeros(3)})
        fit = efs.fit_additive(d, y)
        assert abs(fit.beta[0] - 2.0) < 1e-12
        assert abs(fit.edf - 1.0) < 1e-12

    def test_zero_effect_term_clamped_edf_kernel(self):
        rng = np.random.default_rng(5)
        n = 400
        data = draw_covariates(rng, n)
        eta = 2 * np.sin(np.pi * to_unit(data["v"]))
        y = eta + rng.normal(0, 0.5, n)
        spec = ModelSpec([TermSpec("intercept"),
                          TermSpec("smooth", ["v"], k=10),
                          TermSpec("smooth", ["z"], k=10,
                                   penalty_order=2)])
        d = build_design(spec, data)
        fit = efs.fit_additive(d, y)
        # the null term's lambda runs toward the clamp ...
        assert fit.rho[1] > 5.0
        # ... and with the term pinned at the clamp its edf contribution is
        # its penalty kernel dimension (2 - 1 after the constraint)
        lams = np.array([fit.lam[0], efs.LAM_HI])
        yi = d.to_internal(y)
        beta, factor = efs.solve_penalized(d.X_full, yi, None, d, lams)
        edfs = dense_term_edfs(d, factor.solve, None)
        assert abs(edfs["f(z)"] - 1.0) < 0.05

    def test_matches_dense_oracle(self):
        design, y, eta, _ = gaussian_problem(n=300, seed=6, covs="vwx")
        fit = efs.fit_additive(design, y)
        res = scipy.optimize.minimize(
            lambda r: -dense_reml(design, y, r), fit.rho,
            method="Nelder-Mead",
            options=dict(xatol=1e-6, fatol=1e-10, maxiter=4000))
        interior = np.abs(fit.rho) < 11.0
        assert np.all(np.abs(res.x - fit.rho)[interior] < 0.05)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        n = 200
        data = draw_covariates(rng, n)
        data["g"] = rng.choice(list("abcdef"), n)
        eta = eta_fixed(data["v"], data["w"], data["x"], data["z"])
        y = eta + rng.normal(0, 1.0, n)
        spec = ModelSpec([TermSpec("intercept"),
                          TermSpec("smooth", ["v"], k=8),
                          TermSpec("random_intercept", by_factor="g")])
        fit1 = efs.fit_additive(build_design(spec, data), y)
        shuffle = rng.permutation(n)
        data2 = {k: v[shuffle] for k, v in data.items()}
        fit2 = efs.fit_additive(build_design(spec, data2), y[shuffle])
        np.testing.assert_allclose(fit1.beta, fit2.beta, atol=1e-8)

    def test_penalized_deviance_nonincreasing(self):
        # with gradient-checked lambda control and beta halving the
        # penalized deviance of the returned point never increases from one
        # outer iteration to the next
        design, y, _, _ = gaussian_problem(n=250, seed=8, covs="vx")
        fit = efs.fit_additive(design, y)
        assert fit.converged and fit.iterations > 5
        devs = [efs.fit_additive(design, y, efs.EFSControl(max_outer=k))
                .diagnostics["penalized_deviance"]
                for k in range(1, fit.iterations + 1)]
        assert devs[-1] == fit.diagnostics["penalized_deviance"]
        for prev, cur in zip(devs, devs[1:]):
            assert cur <= prev + 1e-9 * abs(prev)


def multilevel_fit(seed, n=2000, n_subj=10):
    """Four smooths plus a random smooth of v over subjects."""
    rng = np.random.default_rng(seed)
    data = draw_covariates(rng, n)
    subj = rng.permutation(np.arange(n) % n_subj)
    data["subject"] = np.array([f"s{j:03d}" for j in subj])
    eta = eta_fixed(data["v"], data["w"], data["x"], data["z"]) \
        + rng.normal(0, 0.5, n_subj)[subj] * to_unit(data["v"])
    spec = ModelSpec([TermSpec("intercept")]
                     + [TermSpec("smooth", [c], k=10) for c in "vwxz"]
                     + [TermSpec("random_smooth", ["v"], by_factor="subject",
                                 k=10, penalty_order=1)])
    return efs.fit_additive(build_design(spec, data),
                            eta + rng.normal(0, np.sqrt(2.0), n))


def poisson_problem(n=300, seed=21):
    rng = np.random.default_rng(seed)
    data = draw_covariates(rng, n)
    eta = 0.3 * eta_fixed(data["v"], data["w"], data["x"], data["z"]) - 1.0
    y = rng.poisson(np.exp(eta)).astype(float)
    d = build_design(ModelSpec([TermSpec("intercept"),
                                TermSpec("smooth", ["v"], k=8),
                                TermSpec("smooth", ["x"], k=8)]), data)
    return d, y


def poisson_gam_fit(n=300, seed=21):
    d, y = poisson_problem(n, seed)
    return efs.fit_gam(d, y, get_family("poisson"))


def duplicate_column_data(n=300, seed=0):
    """Covariates with v2 an exact copy of v, the linear predictor of the
    additive truth, and the rng after drawing them."""
    rng = np.random.default_rng(seed)
    data = draw_covariates(rng, n)
    data["v2"] = data["v"].copy()
    return data, eta_fixed(data["v"], data["w"], data["x"], data["z"]), rng


def duplicate_column_design(data, intercept=True):
    """Smooths of v, of its copy v2 and of x: the linear parts of f(v) and
    f(v2) are one direction that no penalty identifies."""
    return build_design(ModelSpec(
        ([TermSpec("intercept")] if intercept else [])
        + [TermSpec("smooth", [c], k=8) for c in ("v", "v2", "x")]), data)


def dropped_column_fit():
    """Default am fit with smooths of v and of an exact copy of v: the rank
    check drops one column of the copy."""
    data, eta, rng = duplicate_column_data()
    y = eta + rng.normal(0, 1.0, 300)
    fit = efs.fit_additive(duplicate_column_design(data), y)
    assert fit.dropped
    return fit


class TestTermEdfs:
    """Term edfs from the fit's traces against the dense oracle."""

    def _check(self, fit):
        ref = dense_term_edfs(fit._design, fit.solve_H, fit._weights)
        assert set(fit.term_edf) == set(ref)
        for name, v in ref.items():
            assert abs(fit.term_edf[name] - v) <= 1e-10 * max(abs(v), 1.0), \
                (name, fit.term_edf[name], v)
        total = sum(fit.term_edf.values())
        assert abs(total - fit.edf) <= 1e-12 * fit.edf

    @pytest.mark.parametrize("seed", range(10))
    def test_multilevel(self, seed):
        self._check(multilevel_fit(seed))

    def test_poisson_gam(self):
        self._check(poisson_gam_fit())

    def test_qr_with_dropped_column(self):
        # the column is dropped by the rank check's pivoted QR
        fit = dropped_column_fit()
        self._check(fit)
        # the dropped column's term counts its retained columns only
        assert fit.term_edf["f(v2)"] < 7.0

    def test_poisson_gam_with_dropped_column(self):
        data, eta, rng = duplicate_column_data()
        y = rng.poisson(np.exp(0.3 * eta - 1.0)).astype(float)
        fit = efs.fit_gam(duplicate_column_design(data), y,
                          get_family("poisson"))
        assert fit.converged and len(fit.dropped) == 1
        assert np.all(fit.beta[sorted(fit.dropped)] == 0.0)
        self._check(fit)


class TestRankCheck:
    """The one rank check at the first solve of every exact engine."""

    def test_am_drops_the_flagged_column(self):
        fit = dropped_column_fit()
        d = fit._design
        H = sp.csc_array(d.X_full.T @ d.X_full)
        assert fit.converged and len(fit.dropped) == 1
        assert fit.dropped == efs.detect_unidentifiable(H, d)
        assert np.all(fit.beta[sorted(fit.dropped)] == 0.0)
        assert fit.work_design.N_p == d.N_p - 1
        np.testing.assert_array_equal(
            fit._keep, sorted(set(range(d.N_p)) - fit.dropped))

    def test_full_rank_fit_keeps_every_column(self):
        fit = poisson_gam_fit()
        assert not fit.dropped and fit.work_design is fit._design
        np.testing.assert_array_equal(fit._keep, np.arange(fit.beta.size))

    def test_gsmm_cox_term_edfs_match_dense_oracle(self):
        # at eps = 0 a term's edf is the sum of diag(H_p^{-1} H) over its
        # columns; solve_H maps through T and zeroes the dropped column
        data, eta, rng = duplicate_column_data()
        t = rng.exponential(np.exp(-0.5 * eta))
        d = duplicate_column_design(data, intercept=False)
        fam = CoxphFamily(t, np.ones(t.size))
        fit = efs.fit_gsmm(d, fam)
        assert fit.converged and fit.dropped and fit.eps_H == 0.0
        H = -sp.csc_array(fam.hess(fit.beta, d)).toarray()
        diag = np.diag(fit.solve_H(H))
        for term in d.terms:
            ref = float(np.sum(diag[term.col_start:
                                    term.col_start + term.col_count]))
            assert abs(fit.term_edf[term.spec.name] - ref) <= 1e-9 * max(
                abs(ref), 1.0), (term.spec.name, ref)

    @staticmethod
    def _zero_column_data(n=50):
        rng = np.random.default_rng(3)
        data = {"x": rng.uniform(-1, 1, n), "zero": np.zeros(n)}
        return data, 1.0 + data["x"] + rng.normal(0, 0.1, n)

    def test_all_zero_column_dropped(self):
        data, y = self._zero_column_data()
        d = build_design(ModelSpec([TermSpec("intercept"),
                                    TermSpec("linear", ["zero"]),
                                    TermSpec("smooth", ["x"], k=6)]), data)
        fit = efs.fit_additive(d, y)
        assert fit.converged and fit.dropped == {1}

    def test_all_columns_flagged_rejected(self):
        data, y = self._zero_column_data()
        d = build_design(ModelSpec([TermSpec("linear", ["zero"])]), data)
        with pytest.raises(SpecError, match="all columns flagged"):
            efs.fit_additive(d, y)
        with pytest.raises(SpecError, match="all columns flagged"):
            efs.fit_gam(d, np.ones_like(y), get_family("poisson"))
        assert efs.detect_unidentifiable(sp.csc_array((1, 1)), d) == {0}


class TestFitGam:
    def test_gaussian_identity_equals_additive(self):
        design, y, _, _ = gaussian_problem(n=150, seed=9)
        f1 = efs.fit_additive(design, y)
        f2 = efs.fit_gam(design, y, get_family("gaussian"),
                         get_link("identity"))
        np.testing.assert_allclose(f1.beta, f2.beta, atol=1e-8)
        assert abs(f1.phi - f2.phi) < 1e-8

    def test_binomial_separated_no_nan(self):
        rng = np.random.default_rng(10)
        n = 150
        x = np.sort(rng.uniform(-1, 1, n))
        y = (x > 0).astype(float)  # perfectly separated
        d = build_design(ModelSpec([TermSpec("intercept"),
                                    TermSpec("smooth", ["x"], k=8)]),
                         {"x": x})
        fit = efs.fit_gam(d, y, get_family("binomial"))
        assert np.all(np.isfinite(fit.beta))
        clamps = fit.diagnostics["mu_clamp_events"] > 0 or \
            any(fit.diagnostics["lambda_clamped"]) or not fit.converged
        assert clamps

    def test_gamma_simulation_vs_dense_oracle(self):
        rng = np.random.default_rng(11)
        n = 500
        data = draw_covariates(rng, n)
        eta = eta_fixed(data["v"], data["w"], data["x"], data["z"]) / 3.0
        mu = np.exp(eta)
        y = rng.gamma(shape=1 / 2.0, scale=mu * 2.0)
        d = build_design(spec_fixed(), data)
        fit = efs.fit_gam(d, y, get_family("gamma"))
        # dense exact-REML oracle for the final linearized working model
        w = fit._weights
        z = fit._link.apply(fit._link.clamp(
            fit._link.inverse(np.asarray(d.X_full @ fit.beta)))[0]) + \
            fit._link.derivative(fit._link.clamp(fit._link.inverse(
                np.asarray(d.X_full @ fit.beta)))[0]) * \
            (d.to_internal(y) - fit._link.clamp(fit._link.inverse(
                np.asarray(d.X_full @ fit.beta)))[0])
        X = np.asarray(d.X_full.todense()) * np.sqrt(w)[:, None]
        zw = z * np.sqrt(w)

        def work_reml(rho):
            lams = np.exp(rho)
            S = np.asarray(d.S_lambda(lams).todense())
            A = X.T @ X + S
            beta = np.linalg.solve(A, X.T @ zw)
            rss_pen = float((zw - X @ beta) @ (zw - X @ beta)
                            + beta @ S @ beta)
            phi = rss_pen / (n - (d.N_p - d.penalty_rank))
            llk_pen = -n / 2 * np.log(2 * np.pi * phi) - rss_pen / (2 * phi)
            lds = d.logdet_S_plus(lams) - d.penalty_rank * np.log(phi)
            ldh = np.linalg.slogdet(A)[1] - d.N_p * np.log(phi)
            return llk_pen + 0.5 * lds - 0.5 * ldh
        res = scipy.optimize.minimize(lambda r: -work_reml(r), fit.rho,
                                      method="Nelder-Mead",
                                      options=dict(maxiter=4000))
        lam_o = np.exp(res.x)
        S = np.asarray(d.S_lambda(lam_o).todense())
        beta_o = np.linalg.solve(X.T @ X + S, X.T @ zw)
        eta_fit = np.asarray(d.X_full @ fit.beta)
        eta_orc = np.asarray(d.X_full @ beta_o)
        eta_true = d.to_internal(eta)
        mse_fit = np.mean((eta_fit - eta_true) ** 2)
        mse_orc = np.mean((eta_orc - eta_true) ** 2)
        assert mse_fit <= 2.0 * mse_orc + 1e-8

    def test_inner_iteration_variant(self):
        rng = np.random.default_rng(12)
        n = 300
        data = draw_covariates(rng, n)
        eta = eta_fixed(data["v"], data["w"], data["x"], data["z"]) / 3.0
        y = rng.poisson(np.exp(eta)).astype(float)
        d = build_design(spec_fixed(), data)
        f1 = efs.fit_gam(d, y, get_family("poisson"))
        f2 = efs.fit_gam(d, y, get_family("poisson"),
                         control=efs.EFSControl(max_inner=25))
        eta1 = np.asarray(d.X_full @ f1.beta)
        eta2 = np.asarray(d.X_full @ f2.beta)
        assert np.corrcoef(eta1, eta2)[0, 1] > 0.999


class QuadraticFamily(GeneralFamily):
    """Exact quadratic log-likelihood: Newton must converge in one step."""

    def __init__(self, A, b):
        self.A = A
        self.b = b

    def llk(self, beta, design):
        return float(self.b @ beta - 0.5 * beta @ self.A @ beta)

    def grad(self, beta, design):
        return self.b - self.A @ beta

    def hess(self, beta, design):
        return -self.A


class TestNewtonAndSafety:
    def _toy_design(self, k=6):
        return _ridge_design(k)

    def test_quadratic_converges_one_step(self):
        rng = np.random.default_rng(13)
        d = self._toy_design(6)
        M = rng.standard_normal((6, 6))
        famq = QuadraticFamily(M @ M.T + 6 * np.eye(6),
                               rng.standard_normal(6))
        beta, factor, eps, H, llk_pen, llk, conv, _ = efs.newton_beta(
            d, famq, np.array([1e-8]), beta0=rng.standard_normal(6),
            max_iter=3)
        assert conv and eps == 0.0
        ref = np.linalg.solve(famq.A + 1e-8 * np.eye(6), famq.b)
        np.testing.assert_allclose(beta, ref, rtol=1e-8)

    def test_coxph_gradient_small_at_exit(self):
        rng = np.random.default_rng(14)
        data, eta, t = gen_hazard(rng, 100, k=1)
        d = build_design(ModelSpec([TermSpec("smooth", ["x"], k=8)]), data)
        famc = CoxphFamily(t, np.ones(100))
        lams = np.array([1.0])
        beta, *_ = efs.newton_beta(d, famc, lams)
        g = famc.grad(beta, d) - np.asarray(d.S_lambda(lams) @ beta)
        llk_pen = famc.llk(beta, d) - 0.5 * float(
            lams @ d.quad_forms(beta))
        assert np.abs(g).max() <= 1e-6 * abs(llk_pen)

    def test_indefinite_start_transient_ridge(self):
        # a likelihood that is indefinite away from the optimum: the ridge
        # engages and clears once the iterates reach the concave region
        class Cosh(GeneralFamily):
            def llk(self, beta, design):
                return float(-np.sum(np.cosh(beta - 2.0))
                             + 0.5 * np.sum((beta - 2.0) ** 2) * 0.0
                             - 0.05 * np.sum((beta - 2.0) ** 4))

            def grad(self, beta, design):
                return -np.sinh(beta - 2.0) - 0.2 * (beta - 2.0) ** 3

            def hess(self, beta, design):
                return np.diag(-np.cosh(beta - 2.0)
                               - 0.6 * (beta - 2.0) ** 2)
        d = self._toy_design(4)
        beta, factor, eps, *_ = efs.newton_beta(
            d, Cosh(), np.array([1e-6]), beta0=np.full(4, 30.0))
        assert eps == 0.0
        np.testing.assert_allclose(beta, 2.0, atol=1e-3)

    def test_make_efs_safe(self):
        rng = np.random.default_rng(15)
        d = self._toy_design(6)
        lams = np.array([1.0])
        S = np.asarray(d.S_lambda(lams).todense())
        # PSD H: no ridge, and the check passes at once
        M = rng.standard_normal((6, 6))
        H_psd = sp.csc_array(M @ M.T)
        system = efs.PenalizedSystem(d, base=H_psd + sp.eye_array(6))
        factor, eps0 = efs._ridge_factor(system, H_psd, lams)
        assert eps0 == 0.0
        factor, eps, tr_S, tr_H = efs.make_efs_safe(H_psd, d, lams, system,
                                                    factor, eps0)
        assert eps == eps0
        # indefinite H: the ridge climbs the one ladder, the factor is of
        # H + S_lambda + eps I, and every numerator ends non-negative
        H_ind = sp.csc_array(H_psd - 1.5 * np.eye(6))
        system2 = efs.PenalizedSystem(d, base=H_ind + sp.eye_array(6))
        factor2, eps2 = efs._ridge_factor(system2, H_ind, lams)
        factor2, eps2, tr_S2, tr_H2 = efs.make_efs_safe(
            H_ind, d, lams, system2, factor2, eps2)
        assert eps2 > 0.0
        rung = np.log10(eps2 / (1e-8 * sp.linalg.norm(H_ind)))
        assert abs(rung - round(rung)) < 1e-9
        A = H_ind.toarray() + S + eps2 * np.eye(6)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(A @ factor2.solve(x), x, atol=1e-9)
        assert np.all(tr_S2 - tr_H2 >= -1e-10)
        # the subsequent update stays positive
        delta, _ = efs.efs_step(lams[0], tr_S2[0], tr_H2[0], 0.5, 1.0)
        assert lams[0] + delta > 0
        # a matrix no ridge up to the cap can rescue
        with pytest.raises(NumericError):
            efs._ridge_factor(system2, H_ind, lams,
                              accept=lambda f: False)


class TestStabilize:
    def test_orthogonal_roundtrip(self):
        design, _, _, rng = gaussian_problem(n=150, seed=16)
        T = efs.stabilize(design)
        b = rng.standard_normal(design.N_p)
        np.testing.assert_allclose(T.T @ (T @ b), b, atol=1e-14)
        T = T.toarray()
        np.testing.assert_allclose(T.T @ T, np.eye(design.N_p), atol=1e-12)

    def test_transformed_fit_identical(self):
        # fitting the transformed model and mapping back matches the
        # untransformed fit on a well-conditioned problem
        rng = np.random.default_rng(17)
        n = 200
        data, _ = {"x": rng.uniform(-1, 1, n)}, None
        y = np.sin(2 * data["x"]) + rng.normal(0, 0.3, n)
        d = build_design(ModelSpec([TermSpec("intercept"),
                                    TermSpec("smooth", ["x"], k=8)]), data)
        famg = GamlssLikeGaussian(y)
        f_raw = efs.fit_gsmm(d, famg,
                             efs.EFSControl(stabilize=False))
        f_stb = efs.fit_gsmm(d, famg, efs.EFSControl(stabilize=True))
        np.testing.assert_allclose(f_raw.beta, f_stb.beta, atol=1e-6)

    def test_preconditioner_rescues_bad_scaling(self):
        rng = np.random.default_rng(18)
        n = 10
        scales = 10.0 ** np.linspace(0, 8, n)
        M = rng.standard_normal((n, n))
        H = sp.csc_array((M @ M.T + n * np.eye(n)) * np.outer(scales,
                                                              scales))
        from smoothfit import sparsela
        d = sparsela.pivoted_cholesky(
            H, dscale=efs.preconditioner(H.diagonal()))
        x = rng.standard_normal(n)
        res = np.asarray(H.todense()) @ d.solve(x) - x
        assert np.abs(res).max() < 1e-6 * np.abs(x).max()


class GamlssLikeGaussian(GeneralFamily):
    """Unit-scale Gaussian likelihood for exercising the Newton engine."""

    def __init__(self, y):
        self.y = np.asarray(y, dtype=float)

    def llk(self, beta, design):
        r = design.to_internal(self.y) - np.asarray(design.X_full @ beta)
        return float(-0.5 * (r @ r))

    def grad(self, beta, design):
        r = design.to_internal(self.y) - np.asarray(design.X_full @ beta)
        return np.asarray(design.X_full.T @ r)

    def hess(self, beta, design):
        X = design.X_full
        return -sp.csc_array(X.T @ X)


class TestDetectUnidentifiable:
    def test_full_rank_empty(self):
        design, _, _, _ = gaussian_problem(n=150, seed=19)
        H = sp.csc_array(design.X_full.T @ design.X_full)
        assert efs.detect_unidentifiable(H, design) == set()

    def test_duplicated_column_drops_one(self):
        rng = np.random.default_rng(20)
        n = 120
        x = rng.uniform(-1, 1, n)
        z = rng.uniform(-1, 1, n)
        data = {"x": x, "xdup": x.copy(), "z": z}
        spec = ModelSpec([TermSpec("intercept"), TermSpec("linear", ["x"]),
                          TermSpec("linear", ["xdup"]),
                          TermSpec("smooth", ["z"], k=8)])
        d = build_design(spec, data)
        H = sp.csc_array(d.X_full.T @ d.X_full)
        bad = efs.detect_unidentifiable(H, d)
        assert len(bad & {1, 2}) == 1

    def test_restricted_excludes_random_terms(self):
        rng = np.random.default_rng(21)
        n = 100
        data = {"g": rng.choice(list("ab"), n), "x": rng.uniform(-1, 1, n)}
        spec = ModelSpec([TermSpec("intercept"),
                          TermSpec("random_intercept", by_factor="g")])
        d = build_design(spec, data)
        # random-intercept columns are collinear with the intercept, but the
        # restricted interrogation never touches fully penalized terms
        H = sp.csc_array(d.X_full.T @ d.X_full)
        assert efs.detect_unidentifiable(H, d, restrict=True) == set()


class TestFitGsmm:
    def test_gaussian_ls_two_predictors(self):
        rng = np.random.default_rng(22)
        n = 400
        x = rng.uniform(-1, 1, n)
        z = rng.uniform(-1, 1, n)
        mu_t = 2 * np.sin(np.pi * to_unit(x))
        lsig_t = 0.4 * np.cos(np.pi * to_unit(z)) - 0.5
        y = rng.normal(mu_t, np.exp(lsig_t))
        spec = ModelSpec([
            TermSpec("intercept"), TermSpec("smooth", ["x"], k=10),
            TermSpec("intercept", parameter_index=1),
            TermSpec("smooth", ["z"], k=10, parameter_index=1)])
        d = build_design(spec, {"x": x, "z": z})
        fit = efs.fit_gsmm(d, GamlssFamily("gaussian_ls", y))
        assert fit.converged
        etas = d.linear_predictors({"x": x, "z": z}, fit.beta)
        assert np.corrcoef(etas[0], mu_t)[0, 1] > 0.98
        assert np.corrcoef(etas[1], lsig_t)[0, 1] > 0.8
        g = fit._family.grad(fit._to_work(fit.beta), fit.work_design) \
            - np.asarray(fit.work_design.S_lambda(fit.lam)
                         @ fit._to_work(fit.beta))
        assert np.abs(g).max() < 1e-4 * abs(fit.penalized_llk)

    def test_coxph_lambda_near_grid_maximizer(self):
        rng = np.random.default_rng(23)
        data, eta, t = gen_hazard(rng, 500, k=1)
        d = build_design(ModelSpec([TermSpec("smooth", ["x"], k=10)]), data)
        famc = CoxphFamily(t, np.ones(500))
        fit = efs.fit_gsmm(d, famc)
        rho_grid = np.linspace(fit.rho[0] - 3.0, fit.rho[0] + 3.0, 61)
        vals = []
        beta0 = fit._to_work(fit.beta)
        for r in rho_grid:
            lams = np.array([np.exp(r)])
            beta, factor, eps, H, llk_pen, *_ = efs.newton_beta(
                fit.work_design, famc, lams, beta0=beta0.copy())
            vals.append(efs.reml_value(fit.work_design, factor, lams,
                                       llk_pen))
        best = rho_grid[int(np.argmax(vals))]
        assert abs(best - fit.rho[0]) <= 0.3

    def test_coxph_term_edfs_sum_to_edf(self):
        # the per-term EDFs come from a block solve through the diagonally
        # preconditioned factor, which must scale rows, not columns
        rng = np.random.default_rng(25)
        data, eta, t = gen_hazard(rng, 300, k=1)
        d = build_design(ModelSpec([TermSpec("smooth", ["x"], k=10)]), data)
        fit = efs.fit_gsmm(d, CoxphFamily(t, np.ones(300)))
        assert fit.eps_H == 0.0
        assert fit._factor.dscale is not None
        assert abs(sum(fit.term_edf.values()) - fit.edf) <= 1e-8 * fit.edf

    def test_gamm_phi_underestimated_by_penalized_ml(self):
        # the location-scale route picks phi by penalized likelihood, which
        # is biased low next to the REML estimate of the working engine
        rng = np.random.default_rng(24)
        n = 400
        x = rng.uniform(-1, 1, n)
        y = 2 * np.sin(np.pi * to_unit(x)) + rng.normal(0, 1.4, n)
        d1 = build_design(ModelSpec([TermSpec("intercept"),
                                     TermSpec("smooth", ["x"], k=10)]),
                          {"x": x})
        fit_gam = efs.fit_additive(d1, y)
        spec2 = ModelSpec([
            TermSpec("intercept"), TermSpec("smooth", ["x"], k=10),
            TermSpec("intercept", parameter_index=1)])
        d2 = build_design(spec2, {"x": x})
        fit_ls = efs.fit_gsmm(d2, GamlssFamily("gaussian_ls", y))
        sigma2_ls = np.exp(2 * fit_ls.beta[-1])
        assert sigma2_ls < fit_gam.phi

    def test_term_edfs_match_dense_oracle(self):
        # at eps = 0 a term's edf is the sum of diag(H_p^{-1} H) over its
        # columns, in the working coordinates
        rng = np.random.default_rng(26)
        n = 400
        x = rng.uniform(-1, 1, n)
        z = rng.uniform(-1, 1, n)
        y = rng.normal(2 * np.sin(np.pi * to_unit(x)),
                       np.exp(0.4 * np.cos(np.pi * to_unit(z)) - 0.5))
        spec = ModelSpec([
            TermSpec("intercept"), TermSpec("smooth", ["x"], k=8),
            TermSpec("intercept", parameter_index=1),
            TermSpec("smooth", ["z"], k=8, parameter_index=1)])
        d = build_design(spec, {"x": x, "z": z})
        fit = efs.fit_gsmm(d, GamlssFamily("gaussian_ls", y))
        assert fit.converged and fit.eps_H == 0.0 and not fit.dropped
        H = fit.diagnostics["H_llk"].toarray()
        Hp = H + fit.work_design.S_lambda(fit.lam).toarray()
        diag = np.diag(np.linalg.solve(Hp, H))
        for t in d.terms:
            ref = float(np.sum(diag[t.col_start:t.col_start + t.col_count]))
            assert abs(fit.term_edf[t.spec.name] - ref) <= 1e-9 * max(
                abs(ref), 1.0), (t.spec.name, fit.term_edf[t.spec.name], ref)


def cox_problem(n=400, seed=0):
    rng = np.random.default_rng(seed)
    data, _, t = gen_hazard(rng, n, k=1)
    d = build_design(ModelSpec([TermSpec("smooth", ["x"], k=10)]), data)
    return d, CoxphFamily(t, np.ones(n))


class TestExitConsistency:
    """A fit stopped by max_outer returns coefficients that solve the
    penalized problem at the lambda it returns."""

    def test_am(self):
        design, y, _, _ = gaussian_problem(n=250, seed=8, covs="vx")
        fit = efs.fit_additive(design, y, efs.EFSControl(max_outer=2))
        assert not fit.converged
        beta, _ = efs.solve_penalized(design.X_full, design.to_internal(y),
                                      None, design, fit.lam)
        np.testing.assert_allclose(fit.beta, beta, rtol=0, atol=1e-10)

    def test_gam(self):
        # with the pseudo-data loop run to convergence, one more Fisher step
        # at the returned lambda stays put
        design, y = poisson_problem()
        fam, link = get_family("poisson"), get_link("log")
        fit = efs.fit_gam(design, y, fam, link, efs.EFSControl(
            max_outer=2, max_inner=100, tol=1e-12))
        assert not fit.converged
        mu, _ = link.clamp(link.inverse(np.asarray(design.X_full
                                                   @ fit.beta)))
        z, w, _ = pseudo_data(design.to_internal(y), mu, link, fam)
        beta, _ = efs.solve_penalized(design.X_full, z, w, design, fit.lam)
        np.testing.assert_allclose(fit.beta, beta, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_gsmm(self, seed):
        d, fam = cox_problem(seed=seed)
        fit = efs.fit_gsmm(d, fam, efs.EFSControl(max_outer=2))
        assert not fit.converged
        beta0 = fit._to_work(fit.beta)
        beta = efs.newton_beta(fit.work_design, fam, fit.lam,
                               beta0=beta0)[0]
        assert np.abs(beta - beta0).max() < 1e-6

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("max_outer", [1, 2])
    def test_lqefs(self, seed, max_outer):
        # the Newton decrement g^T H_p^{-1} g at the returned lambda is
        # within the tolerance that ends the engine's inner phases
        d, fam = cox_problem(seed=seed)
        fit = lqefs.lqefs_fit(d, fam, lqefs.LqefsControl(max_outer=max_outer))
        assert not fit.converged
        S = d.S_lambda(fit.lam)
        g = fam.grad(fit.beta, d) - S @ fit.beta
        Hp = S.toarray() - np.asarray(fam.hess(fit.beta, d))
        decrement = float(g @ np.linalg.solve(Hp, g))
        assert decrement <= lqefs.PHASE_TOL * abs(fit.penalized_llk)


def _small_fit(engine, seed, n_smooths, k):
    """A small random model of ``n_smooths`` smooths fitted by ``engine``."""
    rng = np.random.default_rng(seed)
    n = 150
    data = draw_covariates(rng, n)
    covs = "vxz"[:n_smooths]
    smooths = [TermSpec("smooth", [c], k=k) for c in covs]
    eta = sum(np.sin(np.pi * to_unit(data[c]) * (j + 1))
              for j, c in enumerate(covs))
    if engine in ("gsmm", "lqefs"):
        d = build_design(ModelSpec(smooths), data)
        t = (-np.log(rng.uniform(size=n))) / np.exp(0.5 * eta)
        fam = CoxphFamily(t, np.ones(n))
        if engine == "gsmm":
            return efs.fit_gsmm(d, fam)
        return lqefs.lqefs_fit(d, fam, lqefs.LqefsControl(n_v=10))
    d = build_design(ModelSpec([TermSpec("intercept")] + smooths), data)
    if engine == "am":
        return efs.fit_additive(d, eta + rng.normal(0.0, 0.5, n))
    y = rng.poisson(np.exp(0.5 * eta)).astype(float)
    return efs.fit_gam(d, y, get_family("poisson"))


@pytest.mark.parametrize("engine", ["am", "gam", "gsmm", "lqefs"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_smooths=st.integers(1, 3),
       k=st.integers(5, 8))
# X^T X has an exact-zero sum (intercept against a sum-to-zero smooth
# column) that the Poisson working weights fill
@example(seed=446, n_smooths=1, k=5)
def test_term_edfs_sum_to_edf(engine, seed, n_smooths, k):
    fit = _small_fit(engine, seed, n_smooths, k)
    assert np.isfinite(fit.edf)
    assert abs(sum(fit.term_edf.values()) - fit.edf) <= 1e-10 * max(
        fit.edf, 1.0)
