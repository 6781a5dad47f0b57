"""Sparse factorizations, orderings, and trace kernels vs dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothfit import sparsela as sla
from smoothfit.design import ModelSpec, TermSpec, build_design
from smoothfit.errors import IndefiniteError
from smoothfit.simulate import draw_covariates


def random_spd(rng, n, density=0.3, shift=None):
    M = sp.random_array((n, n), density=density, rng=rng,
                        data_sampler=rng.standard_normal)
    A = (M @ M.T).todense() + (shift if shift is not None else n) * np.eye(n)
    return sp.csc_array(np.asarray(A))


def greedy_minimum_degree(A):
    """Reference ordering: greedy minimum degree on the adjacency graph of
    a symmetric pattern, ties broken by the lower index."""
    A = sla.as_csc(A)
    n = A.shape[0]
    indptr, indices = A.indptr, A.indices
    adj = [set() for _ in range(n)]
    for j in range(n):
        for i in indices[indptr[j]:indptr[j + 1]]:
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
    alive = set(range(n))
    order = np.empty(n, dtype=np.int64)
    degs = np.array([len(a) for a in adj], dtype=np.int64)
    for t in range(n):
        v = min(alive, key=lambda u: (degs[u], u))
        order[t] = v
        alive.discard(v)
        nb = adj[v]
        for u in nb:
            au = adj[u]
            au.discard(v)
            au |= nb
            au.discard(u)
            degs[u] = len(au)
        adj[v] = set()
    return order


def penalized_normal_matrix(spec, data):
    """X^T X + sum_r S^r + I of a design: SPD with the pattern the engines
    analyze."""
    d = build_design(spec, data)
    A = d.X_full.T @ d.X_full + sp.eye_array(d.N_p)
    for r in range(d.n_lambda):
        A = A + d.S_emb(r)
    return sp.csc_array(A)


def multilevel_pattern(n=2000, n_subj=10, seed=0):
    rng = np.random.default_rng(seed)
    data = draw_covariates(rng, n)
    data["subject"] = np.array([f"s{j:03d}" for j in
                                rng.permutation(np.arange(n) % n_subj)])
    spec = ModelSpec([TermSpec("intercept")]
                     + [TermSpec("smooth", [c], k=10) for c in "vwxz"]
                     + [TermSpec("random_smooth", ["v"], by_factor="subject",
                                 k=10, penalty_order=1)])
    return penalized_normal_matrix(spec, data)


def eeg_pattern(n_series=20, rows=25):
    """Intercept, smooth k=10 and random smooth k=20 over 25-row series."""
    t = np.tile(np.linspace(0.0, 1.0, rows), n_series)
    g = np.repeat([f"s{i:03d}" for i in range(n_series)], rows)
    spec = ModelSpec([TermSpec("intercept"), TermSpec("smooth", ["t"], k=10),
                      TermSpec("random_smooth", ["t"], by_factor="g", k=20)])
    return penalized_normal_matrix(spec, {"t": t, "g": g})


class TestFillReducingPermutation:
    def test_diagonal(self):
        A = sp.csc_array(np.diag([1.0, 2.0, 3.0]))
        p = sla.fill_reducing_permutation(A)
        f = sla.pivoted_cholesky(A, perm=p)
        assert f.nnz_L() == 3

    def test_arrowhead(self):
        n = 40
        A = np.eye(n)
        A[0, :] = 1.0
        A[:, 0] = 1.0
        A[0, 0] = n
        A = sp.csc_array(A)
        p = sla.fill_reducing_permutation(A)
        # the dense node must drift to the tail of the ordering
        assert int(np.flatnonzero(p == 0)[0]) >= n - 2
        f = sla.pivoted_cholesky(A, perm=p)
        unperm = sla.pivoted_cholesky(A, perm=np.arange(n))
        assert f.nnz_L() == 2 * n - 1               # O(n) with reordering
        assert unperm.nnz_L() == n * (n + 1) // 2   # O(n^2) without

    def test_block_diagonal_no_cross_fill(self):
        rng = np.random.default_rng(0)
        blocks = [random_spd(rng, 5) for _ in range(4)]
        A = sp.block_diag(blocks, format="csc")
        f = sla.pivoted_cholesky(sp.csc_array(A))
        per_block = sum(sla.pivoted_cholesky(b).nnz_L() for b in blocks)
        assert f.nnz_L() == per_block

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        A = random_spd(rng, 30)
        p1 = sla.fill_reducing_permutation(A)
        p2 = sla.fill_reducing_permutation(A)
        np.testing.assert_array_equal(p1, p2)


    @pytest.mark.parametrize("make", [multilevel_pattern, eeg_pattern])
    def test_fill_equals_greedy_minimum_degree(self, make):
        A = make()
        p = sla.fill_reducing_permutation(A)
        ref = sla.pivoted_cholesky(A, perm=greedy_minimum_degree(A))
        assert sla.pivoted_cholesky(A, perm=p).nnz_L() == ref.nnz_L()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40),
           st.floats(0.02, 0.5))
    @example(0, 0, 0.1)
    @example(0, 1, 0.1)
    def test_random_patterns(self, seed, n, density):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, n, density=density, shift=1.0)
        p = sla.fill_reducing_permutation(A)
        np.testing.assert_array_equal(np.sort(p), np.arange(n))
        np.testing.assert_array_equal(sla.fill_reducing_permutation(A), p)
        f = sla.pivoted_cholesky(A, perm=p)
        Ad = A.toarray()
        b = rng.standard_normal(n)
        ref = np.linalg.solve(Ad, b)
        np.testing.assert_allclose(f.solve(b), ref, rtol=0,
                                   atol=1e-9 * max(np.abs(ref).max(initial=0),
                                                   1.0))
        logdet = np.linalg.slogdet(Ad)[1]
        assert abs(f.logdet - logdet) <= 1e-10 * max(abs(logdet), 1.0)


class TestPivotedCholesky:
    def test_identity(self):
        f = sla.pivoted_cholesky(sp.eye_array(6, format="csc"))
        assert f.logdet == 0.0
        np.testing.assert_allclose(f.L.todense(), np.eye(6), atol=0)

    def test_diag(self):
        f = sla.pivoted_cholesky(sp.csc_array(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(sorted(f.L.diagonal()), [2.0, 3.0])
        assert abs(f.logdet - np.log(36.0)) < 1e-14

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(2)
        A = random_spd(rng, 50)
        f = sla.pivoted_cholesky(A)
        Ad = np.asarray(A.todense())
        L = np.asarray(f.L.todense())
        recon = np.zeros_like(Ad)
        recon[np.ix_(f.perm, f.perm)] = L @ L.T
        np.testing.assert_allclose(recon, Ad,
                                   atol=1e-10 * np.abs(Ad).max())

    def test_indefinite_reports_pivot(self):
        A = sp.csc_array(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(IndefiniteError) as err:
            sla.pivoted_cholesky(A)
        assert err.value.pivot == 1

    def test_solve_and_logdet_corpus(self):
        # reconstruction and log-determinant identities on a randomized
        # corpus of sparse SPD matrices
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(5, 200))
            A = random_spd(rng, n, density=min(1.0, 5.0 / n + 0.05))
            f = sla.pivoted_cholesky(A)
            Ad = np.asarray(A.todense())
            x = rng.standard_normal(n)
            np.testing.assert_allclose(Ad @ f.solve(x), x,
                                       atol=1e-8 * np.linalg.norm(x))
            ref = np.linalg.slogdet(Ad)[1]
            assert abs(f.logdet - ref) <= 1e-8 * abs(ref) + 1e-10

    def test_preconditioned_factor(self):
        rng = np.random.default_rng(4)
        A = np.asarray(random_spd(rng, 20).todense())
        scale = np.diag(10.0 ** rng.integers(-4, 4, 20).astype(float))
        A = scale @ A @ scale
        A = sp.csc_array(0.5 * (A + A.T))
        d = 1.0 / np.sqrt(np.abs(A.diagonal()))
        f = sla.pivoted_cholesky(A, dscale=d)
        x = rng.standard_normal(20)
        np.testing.assert_allclose(np.asarray(A.todense()) @ f.solve(x), x,
                                   rtol=1e-8, atol=1e-8)
        assert abs(f.logdet - np.linalg.slogdet(A.todense())[1]) < 1e-8


def _spd_case(seed, n, density):
    """Random sparse SPD matrix, a random ordering and a preconditioner."""
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n, density=density, shift=1.0)
    perm = rng.permutation(n)
    dscale = 10.0 ** rng.uniform(-2, 2, n)
    return rng, A, np.asarray(A.todense()), perm, dscale


spd_cases = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 30),
                      st.floats(0.02, 0.5))


class TestCholeskyProperties:
    """The SuperLU-backed factor against dense numpy."""

    @settings(max_examples=40, deadline=None)
    @given(spd_cases, st.booleans(), st.integers(1, 5))
    def test_solve_vector_and_block(self, case, scaled, m):
        rng, A, Ad, perm, dscale = _spd_case(*case)
        f = sla.pivoted_cholesky(A, perm=perm,
                                 dscale=dscale if scaled else None)
        B = rng.standard_normal((A.shape[0], m))
        ref = np.linalg.solve(Ad, B)
        tol = 1e-9 * np.abs(ref).max()
        np.testing.assert_allclose(f.solve(B), ref, rtol=0, atol=tol)
        np.testing.assert_allclose(f.solve(B[:, 0]), ref[:, 0], rtol=0,
                                   atol=tol)

    @settings(max_examples=40, deadline=None)
    @given(spd_cases, st.booleans())
    def test_logdet(self, case, scaled):
        _, A, Ad, perm, dscale = _spd_case(*case)
        f = sla.pivoted_cholesky(A, perm=perm,
                                 dscale=dscale if scaled else None)
        ref = np.linalg.slogdet(Ad)[1]
        assert abs(f.logdet - ref) <= 1e-10 * max(abs(ref), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(spd_cases, st.booleans(), st.integers(1, 4), st.integers(1, 4))
    def test_traces(self, case, scaled, mj, ml):
        rng, A, Ad, perm, dscale = _spd_case(*case)
        f = sla.pivoted_cholesky(A, perm=perm,
                                 dscale=dscale if scaled else None)
        n = A.shape[0]
        Dj = rng.standard_normal((n, mj))
        Dl = sp.csc_array(rng.standard_normal((n, ml)))
        Ainv = np.linalg.inv(Ad)
        Sj, Sl = Dj @ Dj.T, (Dl @ Dl.T).toarray()
        ref = np.trace(Ainv @ Sj)
        assert abs(sla.trace_inv_form(f, Dj) - ref) <= 1e-9 * ref
        ref = np.trace(Ainv @ Sj @ Ainv @ Sl)
        assert abs(sla.trace_inv_pair(f, Dj, Dl) - ref) <= 1e-9 * ref

    @settings(max_examples=40, deadline=None)
    @given(spd_cases, st.booleans(), st.integers(1, 4))
    def test_half_solves_are_adjoint(self, case, scaled, m):
        rng, A, Ad, perm, dscale = _spd_case(*case)
        f = sla.pivoted_cholesky(A, perm=perm,
                                 dscale=dscale if scaled else None)
        n = A.shape[0]
        B = rng.standard_normal((n, m))
        Z = rng.standard_normal((n, m))
        Y = f.half_solve(B)
        lhs = float(np.sum(Z * Y))
        rhs = float(np.sum(f.half_tsolve_scatter(Z) * B))
        assert abs(lhs - rhs) <= 1e-9 * (np.abs(Z).sum() * np.abs(Y).max())
        ref = B.T @ np.linalg.solve(Ad, B)
        np.testing.assert_allclose(Y.T @ Y, ref, rtol=0,
                                   atol=1e-9 * np.abs(ref).max())
        # 1-D right-hand sides take the same route
        np.testing.assert_allclose(f.half_solve(B[:, 0]), Y[:, 0],
                                   rtol=0, atol=1e-12 * np.abs(Y).max())

    @settings(max_examples=40, deadline=None)
    @given(spd_cases, st.data())
    def test_negative_pivot_reported_at_original_index(self, case, data):
        _, A, Ad, perm, _ = _spd_case(*case)
        n = A.shape[0]
        j = data.draw(st.integers(0, n - 1))
        # the pivots ahead of j do not see A[j, j]; the one at j is at most
        # A[j, j] before the shift, so it turns negative
        Ad = Ad.copy()
        Ad[j, j] -= Ad[j, j] + 1.0
        with pytest.raises(IndefiniteError) as err:
            sla.pivoted_cholesky(sp.csc_array(Ad), perm=perm)
        assert err.value.pivot == j

    @settings(max_examples=40, deadline=None)
    @given(spd_cases, st.data())
    def test_zero_pivot_reported_at_original_index(self, case, data):
        _, A, Ad, perm, _ = _spd_case(*case)
        n = A.shape[0]
        j = data.draw(st.integers(0, n - 1))
        # an isolated zero node: its pivot is exactly zero in any ordering
        Ad = Ad.copy()
        Ad[j, :] = 0.0
        Ad[:, j] = 0.0
        with pytest.raises(IndefiniteError) as err:
            sla.pivoted_cholesky(sp.csc_array(Ad), perm=perm)
        assert err.value.pivot == j

    def test_zero_pivot_with_entries_below(self):
        # the Schur complement pivot of column 1 is exactly 1 - 1 = 0 while
        # column 1 still has an entry below it
        A = sp.csc_array(np.array([[1.0, 1.0, 0.0],
                                   [1.0, 1.0, 1.0],
                                   [0.0, 1.0, 3.0]]))
        with pytest.raises(IndefiniteError) as err:
            sla.pivoted_cholesky(A, perm=np.arange(3))
        assert err.value.pivot == 1

    def test_stored_lower_rebuilds_the_factor(self):
        rng, A, Ad, perm, dscale = _spd_case(17, 25, 0.2)
        f = sla.pivoted_cholesky(A, perm=perm, dscale=dscale)
        g = sla.CholeskyFactor.from_lower(f.L.copy(), f.perm, dscale)
        B = rng.standard_normal((25, 3))
        np.testing.assert_allclose(g.solve(B), f.solve(B), rtol=1e-10)
        assert g.nnz_L() == f.nnz_L()


class TestTraces:
    def _factored(self, n=40, seed=5):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, n)
        return rng, A, sla.pivoted_cholesky(A)

    def test_identity_cases(self):
        f = sla.pivoted_cholesky(sp.eye_array(10, format="csc"))
        D = np.zeros((10, 3))
        D[2:5, :] = np.eye(3)
        assert abs(sla.trace_inv_form(f, D) - 3.0) < 1e-12

    def test_diagonal_closed_form(self):
        d = np.array([2.0, 4.0, 5.0])
        s = np.array([1.0, 3.0, 0.5])
        f = sla.pivoted_cholesky(sp.csc_array(np.diag(d)))
        D = sp.csc_array(np.diag(np.sqrt(s)))
        assert abs(sla.trace_inv_form(f, D) - np.sum(s / d)) < 1e-12

    def test_random_vs_dense_oracle(self):
        rng, A, f = self._factored()
        Ainv = np.linalg.inv(np.asarray(A.todense()))
        D = rng.standard_normal((40, 6))
        S = D @ D.T
        ref = np.trace(Ainv @ S)
        assert abs(sla.trace_inv_form(f, D) - ref) <= 1e-9 * abs(ref)

    def test_permutation_invariance(self):
        rng, A, _ = self._factored(seed=6)
        D = rng.standard_normal((40, 5))
        vals = []
        for perm in (np.arange(40), np.arange(40)[::-1],
                     sla.fill_reducing_permutation(A)):
            f = sla.pivoted_cholesky(A, perm=np.asarray(perm))
            vals.append(sla.trace_inv_form(f, D))
        assert np.ptp(vals) <= 1e-9 * abs(vals[0])

    def test_trace_pair_oracle(self):
        rng, A, f = self._factored(seed=7)
        Ainv = np.linalg.inv(np.asarray(A.todense()))
        Dj = rng.standard_normal((40, 4))
        Dl = rng.standard_normal((40, 3))
        ref = np.trace(Ainv @ (Dj @ Dj.T) @ Ainv @ (Dl @ Dl.T))
        assert abs(sla.trace_inv_pair(f, Dj, Dl) - ref) <= 1e-9 * abs(ref)


    @staticmethod
    def _roots(rng, n, widths):
        return [rng.standard_normal((n, w)) for w in widths]

    def _check_blocked(self, f, Ainv, roots):
        widths = [D.shape[1] for D in roots]
        B = np.hstack(roots)
        got = sla.trace_inv_form(f, B, widths)
        assert got.shape == (len(roots),)
        for t, D in zip(got, roots):
            ref = np.trace(Ainv @ (D @ D.T))
            assert abs(t - ref) <= 1e-10 * max(abs(ref), 1.0), (t, ref)
            assert abs(t - sla.trace_inv_form(f, D)) <= 1e-12 * max(t, 1.0)

    def test_blocked_with_preconditioned_factor(self):
        rng, A, Ad, perm, dscale = _spd_case(3, 30, 0.2)
        f = sla.pivoted_cholesky(A, perm=perm, dscale=dscale)
        self._check_blocked(f, np.linalg.inv(Ad),
                            self._roots(rng, 30, [4, 0, 7, 1]))

    def test_blocked_all_empty(self):
        f = sla.pivoted_cholesky(sp.eye_array(5, format="csc"))
        got = sla.trace_inv_form(f, np.zeros((5, 0)), [0, 0])
        np.testing.assert_array_equal(got, [0.0, 0.0])


class TestConditionEstimate:
    def test_identity(self):
        f = sla.pivoted_cholesky(sp.eye_array(10, format="csc"))
        assert abs(sla.condition_estimate(f) - 1.0) < 1e-8

    def test_severely_illconditioned(self):
        f = sla.pivoted_cholesky(sp.csc_array(np.diag([1.0, 1e-8])))
        assert sla.condition_estimate(f) >= 1e7

    def test_within_factor_n_of_svd(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            n = 30
            A = random_spd(rng, n, shift=1.0)
            f = sla.pivoted_cholesky(A)
            kappa = np.linalg.cond(np.asarray(A.todense()))
            est = sla.condition_estimate(f)
            assert kappa / n <= est <= kappa * n
