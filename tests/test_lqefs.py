"""Compact quasi-Newton representations against dense textbook oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothfit import lqefs
from smoothfit.design import ModelSpec, TermSpec, build_design
from smoothfit.efs import fit_additive
from smoothfit.errors import NumericError, SpecError
from smoothfit.lqefs import (CompactRep, LqefsControl, UpdatePair,
                             armijo_search, cholesky_of_compact,
                             compact_push,
                             compact_trace_penalty, implicit_nearest_psd,
                             lqefs_fit, penalized_inverse, qefs_accept,
                             wolfe_search)
from smoothfit.simulate import _GaussianFixedScale, f_c, to_unit


def dense_bfgs_inverse(pairs, gamma, n_p):
    H = gamma * np.eye(n_p)
    for s, nu in pairs:
        rho = 1.0 / (s @ nu)
        V = np.eye(n_p) - rho * np.outer(s, nu)
        H = V @ H @ V.T + rho * np.outer(s, s)
    return H


def dense_bfgs_hessian(pairs, gamma, n_p):
    B = (1.0 / gamma) * np.eye(n_p)
    for s, nu in pairs:
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(nu, nu) / (nu @ s)
    return B


def dense_sr1_inverse(pairs, gamma, n_p):
    H = gamma * np.eye(n_p)
    for s, nu in pairs:
        u = s - H @ nu
        H = H + np.outer(u, u) / (u @ nu)
    return H


def dense_sr1_hessian(pairs, gamma, n_p):
    B = (1.0 / gamma) * np.eye(n_p)
    for s, nu in pairs:
        u = nu - B @ s
        B = B + np.outer(u, u) / (u @ s)
    return B


ORACLES = {"bfgs_inverse": dense_bfgs_inverse,
           "bfgs_hessian": dense_bfgs_hessian,
           "sr1_inverse": dense_sr1_inverse,
           "sr1_hessian": dense_sr1_hessian}


def push_sequence(kind, pairs, n_p, n_v):
    rep = CompactRep(kind, n_p, n_v)
    kept = []
    for s, nu in pairs:
        new = compact_push(rep, UpdatePair(s=s, nu=nu))
        if new.m > rep.m or new.skipped == rep.skipped:
            kept.append((s, nu))
            kept = kept[-n_v:]
        rep = new
    return rep, kept


class TestCompactReps:
    @pytest.mark.parametrize("kind", list(ORACLES))
    def test_one_step_matches_textbook(self, kind):
        rng = np.random.default_rng(0)
        n_p = 20
        s = rng.standard_normal(n_p)
        nu = rng.standard_normal(n_p)
        if s @ nu < 0:
            nu = -nu
        rep = compact_push(CompactRep(kind, n_p, 5), UpdatePair(s, nu))
        # the gamma ratio degenerates the first SR1 update, so those kinds
        # admit the pair over the identity base instead
        gamma = 1.0 if kind.startswith("sr1") else (s @ nu) / (nu @ nu)
        ref = ORACLES[kind]([(s, nu)], gamma, n_p)
        np.testing.assert_allclose(rep.dense(), ref, atol=1e-12 *
                                   np.abs(ref).max())

    @pytest.mark.parametrize("kind", list(ORACLES))
    def test_window_eviction_matches_dense(self, kind):
        rng = np.random.default_rng(1)
        n_p, n_v = 24, 4
        pairs = []
        for _ in range(n_v + 3):
            s = rng.standard_normal(n_p)
            nu = rng.standard_normal(n_p)
            if kind.startswith("bfgs") and s @ nu < 0:
                nu = -nu
            pairs.append((s, nu))
        rep, kept = push_sequence(kind, pairs, n_p, n_v)
        assert rep.m == n_v
        gamma = (kept[-1][0] @ kept[-1][1]) / (kept[-1][1] @ kept[-1][1])
        ref = ORACLES[kind](kept, gamma, n_p)
        err = np.abs(rep.dense() - ref).max() / np.abs(ref).max()
        assert err < 1e-10

    def test_bfgs_curvature_skip(self):
        rng = np.random.default_rng(2)
        rep = CompactRep("bfgs_inverse", 10, 4)
        s = rng.standard_normal(10)
        out = compact_push(rep, UpdatePair(s, -s))
        assert out.m == 0 and out.skipped == 1

    def test_sr1_degenerate_denominator_skip(self):
        # s = nu with gamma tuned so nu - H s = 0: the update is skipped
        n_p = 8
        rep = CompactRep("sr1_hessian", n_p, 4, gamma=1.0)
        s = np.ones(n_p)
        out = compact_push(rep, UpdatePair(s, s.copy()))
        assert out.m == 0 and out.skipped == 1

    def test_matvec_empty_queue(self):
        rep = CompactRep("bfgs_inverse", 7, 3, gamma=2.5)
        a = np.arange(7.0)
        np.testing.assert_allclose(rep.matvec(a), 2.5 * a)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        n_p = 40
        pairs = [(rng.standard_normal(n_p), rng.standard_normal(n_p))
                 for _ in range(5)]
        pairs = [(s, nu if s @ nu > 0 else -nu) for s, nu in pairs]
        rep, _ = push_sequence("bfgs_inverse", pairs, n_p, 5)
        D = rep.dense()
        a = rng.standard_normal(n_p)
        np.testing.assert_allclose(rep.matvec(a), D @ a,
                                   atol=1e-10 * np.abs(D @ a).max())

    def test_mutual_inverse(self):
        rng = np.random.default_rng(4)
        n_p = 25
        vrep = CompactRep("bfgs_inverse", n_p, 6)
        hrep = CompactRep("bfgs_hessian", n_p, 6)
        for _ in range(6):
            s = rng.standard_normal(n_p)
            nu = rng.standard_normal(n_p)
            if s @ nu < 0:
                nu = -nu
            vrep = compact_push(vrep, UpdatePair(s, nu))
            hrep = compact_push(hrep, UpdatePair(s, nu))
        a = rng.standard_normal(n_p)
        np.testing.assert_allclose(vrep.matvec(hrep.matvec(a)), a,
                                   atol=1e-8 * np.abs(a).max())

    def test_secant_conditions(self):
        rng = np.random.default_rng(5)
        n_p = 15
        for kind in ("sr1_hessian", "bfgs_hessian"):
            rep = CompactRep(kind, n_p, 4)
            for _ in range(4):
                s = rng.standard_normal(n_p)
                nu = rng.standard_normal(n_p)
                if s @ nu < 0:
                    nu = -nu
                rep = compact_push(rep, UpdatePair(s, nu))
            s_new, nu_new = rep.S[:, -1], rep.Y[:, -1]
            np.testing.assert_allclose(rep.matvec(s_new), nu_new,
                                       atol=1e-8 *
                                       max(np.abs(nu_new).max(), 1.0))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(ORACLES)),
           st.integers(1, 30), st.integers(1, 8), st.integers(1, 12),
           st.booleans())
    def test_random_sequences_match_dense(self, seed, kind, n_p, n_v,
                                          n_pairs, curved):
        # any window of admitted pairs, on its own base, is the dense
        # recursion over those pairs; unflipped BFGS pairs violate the
        # curvature condition about half the time and must be skipped
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n_pairs):
            s = rng.standard_normal(n_p)
            nu = rng.standard_normal(n_p)
            if curved and s @ nu < 0:
                nu = -nu
            pairs.append((s, nu))
        rep, kept = push_sequence(kind, pairs, n_p, n_v)
        admitted = n_pairs - rep.skipped
        assert rep.m == len(kept) == min(admitted, n_v)
        if kept:
            np.testing.assert_array_equal(rep.S, np.column_stack(
                [s for s, _ in kept]))
            np.testing.assert_array_equal(rep.Y, np.column_stack(
                [nu for _, nu in kept]))
        ref = ORACLES[kind](kept, rep.gamma_eff, n_p)
        assert np.abs(rep.dense() - ref).max() <= 1e-8 * np.abs(ref).max()


class TestImplicitNearestPsd:
    def _sr1_rep(self, seed=6, n_p=30, pushes=7, n_v=5):
        rng = np.random.default_rng(seed)
        rep = CompactRep("sr1_hessian", n_p, n_v)
        for _ in range(pushes):
            rep = compact_push(rep, UpdatePair(rng.standard_normal(n_p),
                                               rng.standard_normal(n_p)))
        return rep

    def test_already_psd_unchanged(self):
        rng = np.random.default_rng(7)
        n_p = 12
        rep = CompactRep("sr1_hessian", n_p, 4)
        # pull pairs from an SPD quadratic so the approximation stays PSD
        A = np.eye(n_p) * 2.0
        for _ in range(3):
            s = rng.standard_normal(n_p)
            rep = compact_push(rep, UpdatePair(s, A @ s))
        if np.linalg.eigvalsh(rep.dense()).min() >= 0:
            proj = implicit_nearest_psd(rep)
            np.testing.assert_allclose(proj.dense(), rep.dense(),
                                       atol=1e-10)

    def test_matches_dense_eigenvalue_clamp(self):
        rep = self._sr1_rep()
        H = rep.dense()
        assert np.linalg.eigvalsh(H).min() < 0  # genuinely indefinite
        ev, U = np.linalg.eigh(H)
        ref = U @ np.diag(np.maximum(ev, 0.0)) @ U.T
        proj = implicit_nearest_psd(rep)
        np.testing.assert_allclose(proj.dense(), ref,
                                   atol=1e-8 * np.abs(ref).max())

    def test_output_psd(self):
        for seed in range(5):
            rep = self._sr1_rep(seed=seed + 10)
            proj = implicit_nearest_psd(rep)
            H = proj.dense()
            assert np.linalg.eigvalsh(H).min() >= -1e-10 * \
                np.abs(H).max()


class TestPenalizedInverse:
    def _pieces(self, seed=8, n_p=30):
        rng = np.random.default_rng(seed)
        rep = CompactRep("sr1_hessian", n_p, 5)
        for _ in range(6):
            rep = compact_push(rep, UpdatePair(rng.standard_normal(n_p),
                                               rng.standard_normal(n_p)))
        proj = implicit_nearest_psd(rep)
        S = sp.csc_array(np.diag(rng.uniform(0.5, 2.0, n_p)))
        return rng, proj, S

    def test_empty_queue_sparse_route(self):
        rng = np.random.default_rng(9)
        n_p = 12
        rep = CompactRep("sr1_hessian", n_p, 5, gamma=2.0)
        S = sp.csc_array(np.diag(rng.uniform(0.5, 2.0, n_p)))
        inv = penalized_inverse(rep, S)
        A = 0.5 * np.eye(n_p) + np.asarray(S.todense())
        x = rng.standard_normal(n_p)
        np.testing.assert_allclose(A @ inv.matvec(x), x, atol=1e-10)

    def test_identity_against_dense(self):
        rng, proj, S = self._pieces()
        inv = penalized_inverse(proj, S)
        A = proj.dense() + np.asarray(S.todense())
        for _ in range(4):
            x = rng.standard_normal(30)
            np.testing.assert_allclose(A @ inv.matvec(x), x,
                                       atol=1e-8 * np.abs(x).max())

    def test_zero_penalty_matches_compact_inverse(self):
        rng = np.random.default_rng(10)
        n_p = 20
        A = np.eye(n_p) * 1.5
        rep = CompactRep("sr1_hessian", n_p, 5)
        for _ in range(4):
            s = rng.standard_normal(n_p)
            rep = compact_push(rep, UpdatePair(s, A @ s))
        S0 = sp.csc_array((n_p, n_p))
        inv = penalized_inverse(rep, S0)
        ref = np.linalg.inv(rep.dense())
        got = np.column_stack([inv.matvec(e) for e in np.eye(n_p)])
        np.testing.assert_allclose(got, ref, atol=1e-8 * np.abs(ref).max())

    def test_trace_against_dense(self):
        rng, proj, S = self._pieces(seed=11)
        inv = penalized_inverse(proj, S)
        A = proj.dense() + np.asarray(S.todense())
        Sr = np.zeros((30, 30))
        B = rng.standard_normal((5, 5))
        Sr[10:15, 10:15] = B @ B.T
        ref = np.trace(np.linalg.inv(A) @ Sr)
        got = compact_trace_penalty(inv, sp.csc_array(Sr))
        assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_trace_zero_and_diagonal_closed_form(self):
        rng = np.random.default_rng(12)
        n_p = 15
        rep = CompactRep("sr1_hessian", n_p, 5, gamma=0.5)
        lam_diag = rng.uniform(0.5, 2.0, n_p)
        S = sp.csc_array(np.diag(lam_diag))
        inv = penalized_inverse(rep, S)
        assert compact_trace_penalty(inv, sp.csc_array((n_p, n_p))) == 0.0
        s_diag = rng.uniform(0.0, 1.0, n_p)
        got = compact_trace_penalty(inv, sp.csc_array(np.diag(s_diag)))
        ref = np.sum(s_diag / (2.0 + lam_diag))
        assert abs(got - ref) < 1e-12


class TestLineSearches:
    def setup_method(self):
        self.f = lambda x: -float((x - 2.0) @ (x - 2.0))
        self.g = lambda x: -2.0 * (x - 2.0)

    def test_newton_direction_unit_step(self):
        x0 = np.zeros(3)
        d = 2.0 - x0  # exact maximizer step
        assert wolfe_search(self.f, self.g, x0, d) == 1.0
        assert armijo_search(self.f, x0, d, self.g(x0)) == 1.0

    def test_descent_direction_rejected(self):
        x0 = np.zeros(3)
        with pytest.raises(SpecError):
            wolfe_search(self.f, self.g, x0, -(2.0 - x0))
        with pytest.raises(SpecError):
            armijo_search(self.f, x0, -(2.0 - x0), self.g(x0))

    def test_wolfe_inequalities_hold(self):
        # 1-d strictly concave objective; check both strong Wolfe
        # inequalities explicitly at the accepted step
        f = lambda x: float(-(x[0] - 1.0) ** 4 + x[0])
        g = lambda x: np.array([-4.0 * (x[0] - 1.0) ** 3 + 1.0])
        x0 = np.array([-1.0])
        d = np.array([1.0])
        alpha = wolfe_search(f, g, x0, d)
        assert alpha is not None
        slope0 = float(g(x0) @ d)
        assert f(x0 + alpha * d) >= f(x0) + lqefs.WOLFE_C1 * alpha * slope0
        assert abs(float(g(x0 + alpha * d) @ d)) <= \
            lqefs.WOLFE_C2 * abs(slope0)


class TestQefsAccept:
    def test_tie_prefers_current(self):
        tr_S = np.array([2.0, 3.0])
        quads = np.array([0.5, 0.5])
        cur = np.array([1.0, 1.0])
        assert qefs_accept(cur, cur.copy(), tr_S, quads)

    def test_exact_equilibrium_keeps_last(self):
        tr_S = np.array([2.0])
        quads = np.array([1.0])
        last = np.array([1.0])   # (2 - 1) - 1 = 0: perfect balance
        cur = np.array([0.5])    # |(2 - 0.5) - 1| = 0.5
        assert not qefs_accept(cur, last, tr_S, quads)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tr_S = rng.uniform(0.5, 4.0, 3)
            quads = rng.uniform(0.1, 2.0, 3)
            cur = rng.uniform(0.0, 4.0, 3)
            last = rng.uniform(0.0, 4.0, 3)
            ref = np.mean(np.abs((tr_S - last) - quads)) >= \
                np.mean(np.abs((tr_S - cur) - quads))
            assert qefs_accept(cur, last, tr_S, quads) == ref


class TestCholeskyOfCompact:
    def test_empty_queue_reduces_to_sparse(self):
        rng = np.random.default_rng(14)
        n_p = 10
        rep = CompactRep("sr1_hessian", n_p, 4, gamma=2.0)
        S = sp.csc_array(np.diag(rng.uniform(0.5, 1.5, n_p)))
        f = cholesky_of_compact(rep, S)
        A = 0.5 * np.eye(n_p) + np.asarray(S.todense())
        np.testing.assert_allclose(f.R.T @ f.R, A, atol=1e-12)

    def test_reconstruction_and_logdet(self):
        rng = np.random.default_rng(15)
        n_p = 25
        rep = CompactRep("sr1_hessian", n_p, 5)
        for _ in range(6):
            rep = compact_push(rep, UpdatePair(rng.standard_normal(n_p),
                                               rng.standard_normal(n_p)))
        proj = implicit_nearest_psd(rep)
        S = sp.csc_array(np.diag(rng.uniform(0.5, 2.0, n_p)))
        f = cholesky_of_compact(proj, S)
        A = proj.dense() + np.asarray(S.todense())
        np.testing.assert_allclose(f.R.T @ f.R, A,
                                   atol=1e-8 * np.abs(A).max())
        assert abs(f.logdet - np.linalg.slogdet(A)[1]) < 1e-8

    @staticmethod
    def _pushed(kind, seed, n_p=20, m=4):
        rng = np.random.default_rng(seed)
        rep = CompactRep(kind, n_p, m)
        A = np.diag(rng.uniform(0.5, 1.5, n_p))
        for _ in range(m):
            s = rng.standard_normal(n_p)
            rep = compact_push(rep, UpdatePair(
                s, A @ s + 0.05 * rng.standard_normal(n_p)))
        return rep

    @staticmethod
    def _assembled(rep, S):
        base, outer, inner = rep.blocks()
        return base * np.eye(rep.n_p) + S + \
            outer @ (0.5 * (inner + inner.T)) @ outer.T

    def _check_dense_cholesky(self, rep):
        H = rep.dense()
        np.testing.assert_allclose(self._assembled(rep, 0.0), H,
                                   atol=1e-12 * np.abs(H).max())
        shift = max(0.0, -np.linalg.eigvalsh(H).min()) + 0.5
        S = shift * np.eye(rep.n_p)
        S[0, 1] = S[1, 0] = 0.1
        f = cholesky_of_compact(rep, sp.csc_array(S))
        ref = np.linalg.cholesky(self._assembled(rep, S)).T
        np.testing.assert_allclose(f.R, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())
        assert abs(f.logdet - np.linalg.slogdet(H + S)[1]) < 1e-10
        b = np.arange(rep.n_p, dtype=float)
        np.testing.assert_allclose((H + S) @ f.solve(b), b, atol=1e-9)

    def test_indefinite_inner_sign_split(self):
        # raw SR1 representation whose inner matrix has eigenvalues of both
        # signs, with a positive definite penalized sum
        rep = self._pushed("sr1_hessian", 16)
        _, _, inner = rep.blocks()
        ev = np.linalg.eigvalsh(0.5 * (inner + inner.T))
        assert ev.min() < 0.0 < ev.max()
        self._check_dense_cholesky(rep)

    @pytest.mark.parametrize("kind,seed", [("sr1_hessian", 18),
                                           ("bfgs_hessian", 16),
                                           ("bfgs_hessian", 19)])
    def test_matches_dense_cholesky(self, kind, seed):
        self._check_dense_cholesky(self._pushed(kind, seed))

    def test_not_positive_definite_raises(self):
        rep = self._pushed("sr1_hessian", 16)
        low = np.linalg.eigvalsh(rep.dense()).min()
        assert low < 0.0
        S = sp.csc_array(0.5 * abs(low) * np.eye(rep.n_p))
        with pytest.raises(NumericError):
            cholesky_of_compact(rep, S)


class TestLqefsFit:
    def _gaussian(self, n=200, seed=17):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, n)
        eta = f_c(to_unit(x))
        y = eta + rng.normal(0, 1.0, n)
        d = build_design(ModelSpec([TermSpec("intercept"),
                                    TermSpec("smooth", ["x"], k=10)]),
                         {"x": x})
        return d, y

    @pytest.mark.parametrize("update", ["sr1", "bfgs"])
    def test_gaussian_close_to_exact(self, update):
        d, y = self._gaussian()
        ref = fit_additive(d, y)
        fit = lqefs_fit(d, _GaussianFixedScale(y),
                        LqefsControl(n_v=30, seed=1, update=update))
        assert np.abs(fit.rho - ref.rho).max() < 0.5
        eta_l = np.asarray(d.X_full @ fit.beta)
        eta_r = np.asarray(d.X_full @ ref.beta)
        mse_l = np.mean((eta_l - eta_r) ** 2)
        assert np.corrcoef(eta_l, eta_r)[0, 1] > 0.999
        mse_ref = np.mean((eta_r - np.mean(eta_r)) ** 2)
        assert mse_l < 0.05 * mse_ref

    def test_finite_difference_gradient_fallback(self):
        from smoothfit.families import GeneralFamily

        class LlkOnly(GeneralFamily):
            def __init__(self, y):
                self.y = np.asarray(y, dtype=float)

            def llk(self, beta, design):
                r = design.to_internal(self.y) \
                    - np.asarray(design.X_full @ beta)
                return float(-0.5 * (r @ r))

        rng = np.random.default_rng(18)
        n = 80
        x = rng.uniform(-1, 1, n)
        y = np.sin(2.0 * x) + rng.normal(0, 0.4, n)
        d = build_design(ModelSpec([TermSpec("intercept"),
                                    TermSpec("smooth", ["x"], k=6)]),
                         {"x": x})
        fit = lqefs_fit(d, LlkOnly(y),
                        LqefsControl(n_v=12, seed=2, max_outer=15))
        ref = fit_additive(d, y)
        eta_l = np.asarray(d.X_full @ fit.beta)
        eta_r = np.asarray(d.X_full @ ref.beta)
        assert np.corrcoef(eta_l, eta_r)[0, 1] > 0.99

    def test_memory_accounting(self):
        # beyond the design and the sparse H0 factor, the fit stores O(Np*Nv)
        # floats in its compact representations
        d, y = self._gaussian(n=150, seed=19)
        n_v = 10
        fit = lqefs_fit(d, _GaussianFixedScale(y),
                        LqefsControl(n_v=n_v, seed=3))
        floats = fit.diagnostics["storage_floats"]
        n_p = d.N_p
        assert floats <= 12 * n_p * n_v

    def test_trace_safety_invariant(self):
        d, y = self._gaussian(n=150, seed=20)
        fit = lqefs_fit(d, _GaussianFixedScale(y),
                        LqefsControl(n_v=20, seed=4))
        tr_S = np.asarray(fit.diagnostics["tr_S"])
        tr_H = np.asarray(fit.diagnostics["tr_H"])
        assert np.all(tr_S - tr_H >= -1e-10 * np.maximum(tr_S, 1.0))

    def test_term_edfs_match_dense_oracle(self):
        # a term's edf is the sum of diag((H_hat + S_lambda)^{-1} H_hat)
        # over its columns
        d, y = self._gaussian(n=150, seed=21)
        fit = lqefs_fit(d, _GaussianFixedScale(y),
                        LqefsControl(n_v=10, seed=5))
        H = fit.diagnostics["h_rep"].dense()
        diag = np.diag(np.linalg.solve(H + d.S_lambda(fit.lam).toarray(), H))
        for t in d.terms:
            ref = float(np.sum(diag[t.col_start:t.col_start + t.col_count]))
            assert abs(fit.term_edf[t.spec.name] - ref) <= 1e-9 * max(
                abs(ref), 1.0), (t.spec.name, fit.term_edf[t.spec.name], ref)
