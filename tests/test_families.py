"""Likelihood contracts: links, working quantities, partials, Cox pieces."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothfit import families as fam
from smoothfit.design import ModelSpec, TermSpec, build_design
from smoothfit.errors import DomainError, SpecError


class TestLinks:
    @pytest.mark.parametrize("name", ["identity", "log", "logit", "inverse"])
    def test_roundtrip_and_derivative(self, name):
        link = fam.get_link(name)
        rng = np.random.default_rng(0)
        mu = rng.uniform(0.05, 0.9, 200) if name == "logit" \
            else rng.uniform(0.2, 3.0, 200)
        np.testing.assert_allclose(link.inverse(link.apply(mu)), mu,
                                   atol=1e-10)
        h = 1e-6
        fd = (link.apply(mu + h) - link.apply(mu - h)) / (2 * h)
        np.testing.assert_allclose(link.derivative(mu), fd, rtol=1e-6)

    def test_unknown(self):
        with pytest.raises(SpecError):
            fam.get_link("probit")


class TestPseudoData:
    def test_gaussian_identity(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(50)
        z, w, nc = fam.pseudo_data(y, 0.9 * y, fam.IdentityLink(),
                                   fam.Gaussian())
        np.testing.assert_allclose(z, y, atol=0)
        np.testing.assert_allclose(w, 1.0, atol=0)
        assert nc == 0

    def test_gamma_log_unit_weights(self):
        rng = np.random.default_rng(2)
        mu = rng.uniform(0.5, 4.0, 50)
        _, w, _ = fam.pseudo_data(rng.uniform(0.5, 4.0, 50), mu,
                                  fam.LogLink(), fam.Gamma())
        np.testing.assert_allclose(w, 1.0, atol=1e-12)

    def test_binomial_logit_weights(self):
        rng = np.random.default_rng(3)
        mu = rng.uniform(0.1, 0.9, 50)
        y = rng.integers(0, 2, 50).astype(float)
        _, w, _ = fam.pseudo_data(y, mu, fam.LogitLink(), fam.Binomial())
        np.testing.assert_allclose(w, mu * (1 - mu), atol=1e-14)

    def test_boundary_mu_clamped_and_flagged(self):
        mu = np.array([0.0, 0.5, 1.0])
        z, w, nc = fam.pseudo_data(np.array([0.0, 1.0, 1.0]), mu,
                                   fam.LogitLink(), fam.Binomial())
        assert nc == 2
        assert np.all(np.isfinite(z)) and np.all(w > 0)

    @pytest.mark.parametrize("fname,lname", [
        ("gaussian", "identity"), ("gamma", "log"), ("binomial", "logit"),
        ("poisson", "log"), ("inverse_gaussian", "log")])
    def test_weights_strictly_positive(self, fname, lname):
        rng = np.random.default_rng(4)
        f, l = fam.get_family(fname), fam.get_link(lname)
        mu = rng.uniform(0.05, 0.95, 100) if fname == "binomial" \
            else rng.uniform(0.1, 5.0, 100)
        y = mu.copy()
        _, w, _ = fam.pseudo_data(y, mu, l, f)
        assert np.all(w > 0)


class TestLocationScalePartials:
    def _point(self, kind, n=40, seed=5):
        rng = np.random.default_rng(seed)
        eta1 = rng.normal(1.5, 0.4, n)
        eta2 = rng.normal(-0.2, 0.3, n)
        if kind == "gaussian_ls":
            y = rng.normal(1.5, 0.9, n)
        else:
            y = rng.gamma(2.0, 1.0, n) + 0.1
        return y, eta1, eta2

    @pytest.mark.parametrize("kind", ["gaussian_ls", "gamma_ls"])
    def test_partials_match_finite_differences(self, kind):
        y, eta1, eta2 = self._point(kind)
        f1, f2 = fam.gamlss_partials(kind, y, [eta1, eta2])
        h = 1e-5
        for m in range(2):
            def shift(s):
                return ([eta1 + s, eta2] if m == 0 else [eta1, eta2 + s])

            def llk_vec(params):
                return np.array([fam.gamlss_llk(kind, y[i:i + 1],
                                                [params[0][i:i + 1],
                                                 params[1][i:i + 1]])
                                 for i in range(y.size)])
            fd1 = (llk_vec(shift(h)) - llk_vec(shift(-h))) / (2 * h)
            np.testing.assert_allclose(f1[:, m], fd1, rtol=1e-6, atol=1e-8)
            p1p, _ = fam.gamlss_partials(kind, y, shift(h))
            p1m, _ = fam.gamlss_partials(kind, y, shift(-h))
            fd2 = (p1p[:, m] - p1m[:, m]) / (2 * h)
            np.testing.assert_allclose(f2[:, m], fd2, rtol=1e-6, atol=1e-8)

    def test_score_zero_at_mode(self):
        y = np.array([0.3, -1.2, 2.0])
        f1, _ = fam.gamlss_partials("gaussian_ls", y, [y, np.zeros(3)])
        np.testing.assert_allclose(f1[:, 0], 0.0, atol=0)

    def test_domain_violation_reports_observation(self):
        y = np.array([1.0, -2.0, 3.0])
        with pytest.raises(DomainError, match="observation 1"):
            fam.gamlss_partials("gamma_ls", y, [np.zeros(3), np.zeros(3)])


class TestAssembleDerivs:
    def test_single_parameter_gaussian_identity(self):
        # with a fixed unit scale the assembled block is X^T X / phi
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        sigma = 1.3
        eta2 = np.full(60, np.log(sigma))
        f1, f2 = fam.gamlss_partials("gaussian_ls", y,
                                     [X @ np.zeros(4), eta2])
        grad, H = fam.assemble_gsmm_derivs(
            (f1[:, :1], f2[:, :1]), [X])
        np.testing.assert_allclose(np.asarray(H.todense()),
                                   X.T @ X / sigma ** 2, atol=1e-10)
        np.testing.assert_allclose(grad, X.T @ (y / sigma ** 2), atol=1e-10)

    def test_offdiagonal_blocks_structurally_zero(self):
        rng = np.random.default_rng(7)
        X1 = rng.standard_normal((50, 3))
        X2 = rng.standard_normal((50, 2))
        y = rng.normal(0, 1, 50)
        partials = fam.gamlss_partials("gaussian_ls", y,
                                       [X1 @ np.zeros(3),
                                        X2 @ np.zeros(2)])
        _, H = fam.assemble_gsmm_derivs(partials, [X1, X2])
        Hd = np.asarray(H.todense())
        assert np.all(Hd[:3, 3:] == 0.0)
        assert np.all(Hd[3:, :3] == 0.0)

    def test_gradient_matches_total_llk_fd(self):
        rng = np.random.default_rng(8)
        X1 = rng.standard_normal((40, 3))
        X2 = rng.standard_normal((40, 2))
        y = rng.normal(1.0, 1.5, 40)
        beta = rng.standard_normal(5) * 0.3

        def llk(b):
            return fam.gamlss_llk("gaussian_ls", y,
                                  [X1 @ b[:3], X2 @ b[3:]])
        f1, _ = fam.gamlss_partials("gaussian_ls", y,
                                    [X1 @ beta[:3], X2 @ beta[3:]])
        grad, _ = fam.assemble_gsmm_derivs((f1, np.zeros_like(f1)),
                                           [X1, X2])
        h = 1e-6
        fd = np.array([(llk(beta + h * e) - llk(beta - h * e)) / (2 * h)
                       for e in np.eye(5)])
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


def loop_coxph(data, eta, X):
    """Loop reference: (llk, gradient, negative Hessian) accumulated block by
    block over the time-sorted rows, with one global exponent shift.

    This is the evaluator the package used before it moved to prefix sums.
    """
    c = eta.max()
    p = X.shape[1]
    llk = 0.0
    grad = np.zeros(p)
    H = np.zeros((p, p))
    acc = np.zeros(p)
    A2 = np.zeros((p, p))
    wsum = 0.0
    start = 0
    for l, end in enumerate(data.block_ends):
        for i in range(start, end):
            w = np.exp(eta[i] - c)
            wsum += w
            acc += w * X[i]
            A2 += w * np.outer(X[i], X[i])
            if data.delta[i] == 1:
                llk += eta[i]
                grad += X[i]
        r = data.r_l[l]
        if r > 0:
            llk -= r * (np.log(wsum) + c)
            grad -= r * acc / wsum
            H += r * A2 / wsum - r * np.outer(acc, acc) / wsum ** 2
        start = end
    return llk, grad, H


def brute_force_coxph(data, eta):
    total = 0.0
    n = data.t.size
    for tl in data.unique_times:
        events = [i for i in range(n)
                  if data.t[i] == tl and data.delta[i] == 1]
        risk = [i for i in range(n) if data.t[i] >= tl]
        if events:
            total += sum(eta[i] for i in events) \
                - len(events) * np.log(np.sum(np.exp(eta[risk])))
    return total


class TestCoxph:
    def _instance(self, n=50, seed=9, tie_prob=0.4):
        rng = np.random.default_rng(seed)
        t = np.round(rng.uniform(0.5, 3.0, n), 1 if tie_prob else 6)
        delta = rng.integers(0, 2, n)
        delta[rng.integers(0, n)] = 1
        data, order = fam.SurvivalData.from_unsorted(t, delta)
        X = rng.standard_normal((n, 4))[order]
        eta = X @ rng.normal(0, 0.5, 4)
        return data, eta, X

    def test_no_events_zero(self):
        data = fam.SurvivalData(np.array([3.0, 2.0, 1.0]), np.zeros(3))
        assert fam.coxph_llk(data, np.array([0.4, -1.0, 0.2])) == 0.0

    def test_single_event(self):
        data = fam.SurvivalData(np.array([1.0]), np.array([1]))
        assert abs(fam.coxph_llk(data, np.array([0.7]))) < 1e-14

    def test_matches_double_loop(self):
        for seed in range(5):
            data, eta, _ = self._instance(n=5 + seed, seed=seed)
            ref = brute_force_coxph(data, eta)
            assert abs(fam.coxph_llk(data, eta) - ref) <= 1e-12 * \
                max(1.0, abs(ref))

    def test_gradient_finite_differences(self):
        data, eta, X = self._instance()
        g = fam.coxph_grad(data, eta, X)
        h = 1e-6
        for j in range(X.shape[1]):
            fd = (fam.coxph_llk(data, eta + h * X[:, j])
                  - fam.coxph_llk(data, eta - h * X[:, j])) / (2 * h)
            assert abs(g[j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_hessian_finite_differences(self):
        data, eta, X = self._instance(n=30, seed=10)
        H = fam.coxph_hess(data, eta, X)
        h = 1e-5
        for l in range(X.shape[1]):
            gp = fam.coxph_grad(data, eta + h * X[:, l], X)
            gm = fam.coxph_grad(data, eta - h * X[:, l], X)
            fd = (gp - gm) / (2 * h)
            np.testing.assert_allclose(H[:, l], fd, rtol=1e-4, atol=1e-6)

    def test_negative_hessian_psd(self):
        for seed in range(5):
            data, eta, X = self._instance(n=40, seed=seed + 20)
            negH = -fam.coxph_hess(data, eta, X)
            ev = np.linalg.eigvalsh(negH)
            assert ev.min() >= -1e-8 * max(np.abs(ev).max(), 1.0)

    def test_centered_columns_gradient_orthogonal_to_ones(self):
        # at constant eta the risk-set weights are uniform, so the score is
        # a sum of centered-column averages
        rng = np.random.default_rng(11)
        n = 40
        t = rng.uniform(0.5, 3.0, n)
        data, order = fam.SurvivalData.from_unsorted(t, np.ones(n))
        X = rng.standard_normal((n, 3))
        X -= X.mean(axis=0)
        X = X[order]
        eta = np.zeros(n)
        g = fam.coxph_grad(data, eta, X)
        direct = np.zeros(3)
        for l, end in enumerate(data.block_ends):
            risk_mean = X[:end].mean(axis=0)
            start = 0 if l == 0 else data.block_ends[l - 1]
            direct += X[start:end][data.delta[start:end] == 1].sum(axis=0) \
                - data.r_l[l] * risk_mean
        np.testing.assert_allclose(g, direct, atol=1e-10)

    def test_overflow_guard(self):
        data = fam.SurvivalData(np.array([3.0, 2.0, 1.0]),
                                np.array([1, 1, 1]))
        eta = np.array([400.0, -400.0, 0.0])
        val = fam.coxph_llk(data, eta)
        assert np.isfinite(val)

    @pytest.mark.parametrize("eta, llk, grad, negH", [
        ([-400.0, 400.0, 0.0], -400.0, [0.0, -1.0, 1.0],
         [[0.0, 0.0, 0.0], [0.0, np.exp(-400.0), -np.exp(-400.0)],
          [0.0, -np.exp(-400.0), np.exp(-400.0)]]),
        ([-800.0, 0.0, 0.0], -np.log(2.0), [0.0, -0.5, 0.5],
         [[0.0, 0.0, 0.0], [0.0, 0.25, -0.25], [0.0, -0.25, 0.25]]),
    ], ids=["first_low_second_high", "first_low"])
    def test_early_risk_set_underflow(self, eta, llk, grad, negH):
        # the first risk sets hold only exp(eta) far below the largest
        # weight; a single global shift rounds their sums to zero
        data = fam.SurvivalData(np.array([3.0, 2.0, 1.0]),
                                np.array([1, 1, 1]))
        eta = np.array(eta)
        for X in (np.eye(3), sp.csr_array(np.eye(3))):
            assert abs(fam.coxph_llk(data, eta) - llk) <= 1e-14 * abs(llk)
            np.testing.assert_allclose(fam.coxph_grad(data, eta, X), grad,
                                       rtol=1e-14, atol=1e-15)
            # exact up to rounding on the scale of the information, 3
            np.testing.assert_allclose(-fam.coxph_hess(data, eta, X), negH,
                                       rtol=0, atol=1e-14)

    def test_non_finite_eta_rejected(self):
        data = fam.SurvivalData(np.array([2.0, 1.0]), np.array([1, 1]))
        X = np.eye(2)
        for call in (lambda e: fam.coxph_llk(data, e),
                     lambda e: fam.coxph_grad(data, e, X),
                     lambda e: fam.coxph_hess(data, e, X)):
            with pytest.raises(DomainError):
                call(np.array([0.0, np.inf]))

    def test_r_l_counts_events_per_time(self):
        data = fam.SurvivalData(np.array([5.0, 5.0, 4.0, 3.0, 3.0, 3.0]),
                                np.array([1, 1, 0, 0, 1, 0]))
        np.testing.assert_array_equal(data.r_l, [2, 0, 1])
        np.testing.assert_array_equal(data.block_ends, [2, 3, 6])
        np.testing.assert_array_equal(data.event_blocks, [0, 2])
        np.testing.assert_array_equal(data.entry, [0, 0, 1, 1, 1, 1])

    def test_sorting_enforced(self):
        with pytest.raises(SpecError):
            fam.SurvivalData(np.array([1.0, 2.0]), np.array([1, 0]))


@st.composite
def cox_cases(draw):
    """Sorted survival data with ties, censored rows and event-free blocks,
    a design X and a linear predictor on it."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_times = draw(st.integers(1, n))
    t = rng.integers(0, n_times, n).astype(float)
    delta = (rng.uniform(size=n) < draw(st.floats(0.0, 1.0))).astype(int)
    data, order = fam.SurvivalData.from_unsorted(t, delta)
    X = rng.standard_normal((n, p))
    X[rng.uniform(size=(n, p)) < draw(st.floats(0.0, 0.8))] = 0.0
    eta = X @ rng.normal(0.0, draw(st.floats(0.0, 3.0)), p)
    return data, X, eta


class TestCoxphAgainstLoops:
    """Prefix-sum likelihood, score and Hessian against the block loop."""

    @settings(max_examples=200, deadline=None)
    @given(cox_cases(), st.booleans())
    def test_matches_loop(self, case, sparse):
        data, X, eta = case
        llk, grad, negH = loop_coxph(data, eta, X)
        Xa = sp.csr_array(X) if sparse else X
        # the error scales with the curvature of the events' risk sets
        scale = max(1.0, float(data.r_l.sum()) * np.abs(X).max() ** 2)
        assert abs(fam.coxph_llk(data, eta) - llk) <= \
            1e-12 * max(1.0, abs(llk))
        np.testing.assert_allclose(fam.coxph_grad(data, eta, Xa), grad,
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(-fam.coxph_hess(data, eta, Xa), negH,
                                   rtol=0, atol=1e-12 * scale)


class TestCoxphFamilyBinding:
    def _designs(self):
        rng = np.random.default_rng(31)
        n = 60
        data = {"x": rng.uniform(-1, 1, n),
                "g": np.array([f"g{j}" for j in rng.integers(0, 5, n)])}
        plain = build_design(ModelSpec([TermSpec("smooth", ["x"], k=6)]),
                             data)
        grouped = build_design(ModelSpec([
            TermSpec("smooth", ["x"], k=6),
            TermSpec("random_intercept", by_factor="g")]), data)
        t = np.round(rng.uniform(0.5, 3.0, n), 1)
        delta = rng.integers(0, 2, n)
        return rng, plain, grouped, t, delta

    def test_alternating_designs_match_fresh_families(self):
        # one family evaluated on designs whose internal row orders differ,
        # as fit_gsmm does with the working and the reduced design
        rng, plain, grouped, t, delta = self._designs()
        assert not np.array_equal(plain.row_order, grouped.row_order)
        fam_shared = fam.CoxphFamily(t, delta)
        for _ in range(2):
            for d in (plain, grouped):
                beta = rng.normal(0.0, 0.5, d.N_p)
                fresh = fam.CoxphFamily(t, delta)
                assert fam_shared.llk(beta, d) == fresh.llk(beta, d)
                np.testing.assert_array_equal(fam_shared.grad(beta, d),
                                              fresh.grad(beta, d))
                np.testing.assert_array_equal(fam_shared.hess(beta, d),
                                              fresh.hess(beta, d))

    def test_matches_user_order_evaluation(self):
        # the cached time-ordered rows give the likelihood of the design's
        # rows taken back to the caller's order
        rng, _, grouped, t, delta = self._designs()
        beta = rng.normal(0.0, 0.5, grouped.N_p)
        eta_user = grouped.to_user(np.asarray(grouped.X_full @ beta))
        X_user = np.asarray(grouped.X_full.toarray())[grouped.inverse_order]
        data, order = fam.SurvivalData.from_unsorted(t, delta)
        llk, grad, negH = loop_coxph(data, eta_user[order], X_user[order])
        f = fam.CoxphFamily(t, delta)
        assert abs(f.llk(beta, grouped) - llk) <= 1e-12 * abs(llk)
        np.testing.assert_allclose(f.grad(beta, grouped), grad, atol=1e-11)
        np.testing.assert_allclose(-f.hess(beta, grouped), negH, atol=1e-11)
