"""Basis construction, penalties, and reparameterizations."""

import numpy as np
import pytest

from smoothfit import basis
from smoothfit.errors import DomainError, SingularityError, SpecError


def coxdeboor(knots, degree, j, x):
    """Independent recursive Cox-de Boor oracle for one basis function.

    The last interval is treated as closed so the boundary point belongs
    to the final span, matching the evaluation convention.
    """
    if degree == 0:
        hi = knots[j + 1]
        last = hi == knots[-1]
        if (knots[j] <= x < hi) or (last and x == hi):
            return 1.0
        return 0.0
    out = 0.0
    d1 = knots[j + degree] - knots[j]
    if d1 > 0:
        out += (x - knots[j]) / d1 * coxdeboor(knots, degree - 1, j, x)
    d2 = knots[j + degree + 1] - knots[j + 1]
    if d2 > 0:
        out += (knots[j + degree + 1] - x) / d2 * \
            coxdeboor(knots, degree - 1, j + 1, x)
    return out


def deboor_rows(x, knots, degree, k):
    """Loop reference: de Boor's triangular scheme, point by point.

    The right boundary is folded into the last interval.  This is the
    evaluator the package used before it moved to
    ``scipy.interpolate.BSpline.design_matrix``.
    """
    d = degree
    out = np.zeros((len(x), k))
    lo, hi = knots[d], knots[k]
    for idx, xv in enumerate(x):
        if xv >= hi:
            span = k - 1
        else:
            span = d
            while span < k - 1 and xv >= knots[span + 1]:
                span += 1
        vals = [1.0] + [0.0] * d
        left = [0.0] * (d + 1)
        right = [0.0] * (d + 1)
        for j in range(1, d + 1):
            left[j] = xv - knots[span + 1 - j]
            right[j] = knots[span + j] - xv
            saved = 0.0
            for r in range(j):
                temp = vals[r] / (right[r + 1] + left[j - r])
                vals[r] = saved + right[r + 1] * temp
                saved = left[j - r] * temp
            vals[j] = saved
        out[idx, span - d:span + 1] = vals
    assert lo <= x.min() and x.max() <= hi
    return out


class TestBsplineBasis:
    @pytest.mark.parametrize("degree,k", [(0, 5), (1, 7), (2, 12), (3, 4),
                                          (3, 10), (3, 20), (4, 9)])
    def test_matches_loop_reference(self, degree, k):
        # summation order differs from the loop, so allow a few ulp
        rng = np.random.default_rng(10 * degree + k)
        x = np.concatenate([[-1.3, 2.7], rng.uniform(-1.3, 2.7, 20_000)])
        b = basis.bspline_basis(x, k=k, degree=degree)
        ref = deboor_rows(x, b.knots, degree, k)
        np.testing.assert_allclose(b.values, ref, rtol=0,
                                   atol=4 * np.finfo(float).eps)

    def test_degree0_indicator(self):
        b = basis.bspline_basis(np.array([0.25, 1.0, 0.0]), k=2, degree=0)
        np.testing.assert_allclose(b.values,
                                   [[1, 0], [0, 1], [1, 0]], atol=0)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [4, 7, 12])
    def test_partition_of_unity(self, degree, k):
        if k < degree + 1:
            pytest.skip("k too small")
        rng = np.random.default_rng(degree * 100 + k)
        x = np.concatenate([rng.uniform(-2.0, 3.0, 200), [-2.0, 3.0]])
        b = basis.bspline_basis(x, k=k, degree=degree)
        np.testing.assert_allclose(b.values.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(b.values >= 0)
        assert np.all((np.abs(b.values) > 0).sum(axis=1) <= degree + 1)

    def test_matches_recursion_oracle(self):
        x = np.linspace(-1.0, 1.0, 101)
        b = basis.bspline_basis(x, k=10, degree=3)
        oracle = np.array([[coxdeboor(b.knots, 3, j, xi)
                            for j in range(10)] for xi in x])
        np.testing.assert_allclose(b.values, oracle, atol=1e-12)

    def test_preconditions(self):
        with pytest.raises(SpecError):
            basis.bspline_basis(np.linspace(0, 1, 10), k=3, degree=3)
        with pytest.raises(SpecError):
            basis.bspline_basis(np.array([1.0, np.inf]), k=4, degree=1)
        with pytest.raises(SpecError):
            basis.bspline_basis(np.ones(5), k=4, degree=1)

    def test_outside_range_errors_and_clamps(self, caplog):
        b = basis.bspline_basis(np.linspace(0, 1, 50), k=6, degree=3)
        with pytest.raises(DomainError):
            basis.evaluate_bspline(b.knots, 3, np.array([1.5]))
        with caplog.at_level("WARNING"):
            vals = basis.evaluate_bspline(b.knots, 3, np.array([1.5, 0.5]),
                                          clamp=True)
        boundary = basis.evaluate_bspline(b.knots, 3, np.array([1.0]))
        np.testing.assert_allclose(vals[0], boundary[0])
        assert "clamped" in caplog.text


class TestDifferencePenalty:
    def test_first_order_3(self):
        p = basis.difference_penalty(3, 1)
        np.testing.assert_allclose(
            p.matrix, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]], atol=0)
        assert p.rank == 2 and p.kernel_dim == 1

    def test_kernel_polynomials(self):
        for k, m in [(8, 1), (10, 2), (9, 3)]:
            p = basis.difference_penalty(k, m)
            idx = np.arange(k, dtype=float)
            for deg in range(m):
                v = idx ** deg
                assert abs(v @ p.matrix @ v) <= 1e-10 * (v @ v)

    @pytest.mark.parametrize("k,m", [(10, 2), (6, 1), (12, 3)])
    def test_rank(self, k, m):
        p = basis.difference_penalty(k, m)
        ev = np.linalg.eigvalsh(p.matrix)
        tol = 1e-10 * ev[-1]
        assert int(np.sum(ev > tol)) == k - m == p.rank

    def test_order_bounds(self):
        with pytest.raises(SpecError):
            basis.difference_penalty(3, 3)
        with pytest.raises(SpecError):
            basis.difference_penalty(3, 0)


class TestTensorProduct:
    def _margins(self, n=80, ks=(5, 5), seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i, k in enumerate(ks):
            x = rng.uniform(-1, 1, n)
            b = basis.bspline_basis(x, k=k, degree=3)
            out.append((b, basis.difference_penalty(k, 2)))
        return out

    def test_dimensions(self):
        block, cores = basis.tensor_product(self._margins())
        assert block.k == 25
        assert len(cores) == 2
        assert all(c.k == 25 for c in cores)

    def test_constant_marginal_identity(self):
        margins = self._margins(ks=(5, 4))
        const = basis.BasisBlock(values=np.ones((80, 1)), knots=None,
                                 degree=0)
        cpen = basis.PenaltyCore(matrix=np.zeros((1, 1)), kernel_dim=1,
                                 rank=0)
        block, _ = basis.tensor_product([(margins[0][0], margins[0][1]),
                                         (const, cpen)])
        np.testing.assert_allclose(block.values, margins[0][0].values,
                                   atol=1e-14)

    def test_constant_along_direction_unpenalized(self):
        # coefficients constant in the first marginal's index lie in the
        # kernel of that marginal's embedded penalty
        margins = self._margins(ks=(5, 6))
        _, cores = basis.tensor_product(margins)
        rng = np.random.default_rng(3)
        c2 = rng.standard_normal(6)
        beta = np.tile(c2, 5)  # beta[i1*6 + i2] = c2[i2]: constant over i1
        q = beta @ cores[0].matrix @ beta
        # direction-1 penalty acts on first-index differences only
        assert abs(q) <= 1e-10 * (beta @ beta) * \
            np.abs(cores[0].matrix).max()

    def test_needs_two_margins_same_rows(self):
        m = self._margins()
        with pytest.raises(SpecError):
            basis.tensor_product(m[:1])
        short = basis.bspline_basis(np.linspace(0, 1, 50), 5, 3)
        with pytest.raises(SpecError):
            basis.tensor_product([m[0], (short, m[1][1])])


class TestSumToZero:
    def test_column_sums_and_dimension(self):
        rng = np.random.default_rng(1)
        b = basis.bspline_basis(rng.uniform(0, 2, 120), k=10, degree=3)
        p = basis.difference_penalty(10, 2)
        bc, pc, Z = basis.absorb_sumtozero(b, p)
        assert bc.k == 9 and pc.k == 9 and Z.shape == (10, 9)
        np.testing.assert_allclose(bc.values.sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_array_equal(bc.values, b.values @ Z)
        np.testing.assert_allclose(pc.matrix, Z.T @ p.matrix @ Z,
                                   atol=1e-12)

    def test_reproduces_unconstrained_fit(self):
        # constrained fit plus intercept equals the unconstrained
        # least-squares fit on a small Gaussian problem
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 60)
        y = np.sin(2 * np.pi * x) + rng.normal(0, 0.1, 60)
        b = basis.bspline_basis(x, k=8, degree=3)
        p = basis.difference_penalty(8, 2)
        bc, _, _ = basis.absorb_sumtozero(b, p)
        X_unc = b.values
        X_con = np.column_stack([np.ones(60), bc.values])
        fit_unc = X_unc @ np.linalg.lstsq(X_unc, y, rcond=None)[0]
        fit_con = X_con @ np.linalg.lstsq(X_con, y, rcond=None)[0]
        np.testing.assert_allclose(fit_con, fit_unc, atol=1e-8)

    def test_single_column_rejected(self):
        b = basis.BasisBlock(values=np.ones((5, 1)), knots=None, degree=0)
        with pytest.raises(SpecError):
            basis.absorb_sumtozero(b, basis.PenaltyCore(np.eye(1), 0, 1))


class TestDemmlerReinsch:
    def _setup(self, k=10, m=2, n=150, seed=4):
        rng = np.random.default_rng(seed)
        b = basis.bspline_basis(rng.uniform(-1, 1, n), k=k, degree=3)
        return b, basis.difference_penalty(k, m)

    def test_orthonormal_and_kernel_count(self):
        for m in (1, 2):
            b, p = self._setup(m=m)
            r = basis.demmler_reinsch(b, p)
            np.testing.assert_allclose(r.X_tilde.T @ r.X_tilde, np.eye(10),
                                       atol=1e-8)
            assert r.kernel_dim == m
            assert np.all(np.diff(r.S_tilde) <= 1e-12)
            assert np.all(r.S_tilde[-m:] == 0.0)
            assert np.all(r.S_tilde[:-m] > 0.0)

    def test_quadratic_form_preserved(self):
        b, p = self._setup()
        r = basis.demmler_reinsch(b, p)
        rng = np.random.default_rng(5)
        for _ in range(5):
            beta = rng.standard_normal(10)
            bt = np.linalg.solve(r.P, beta)
            q1 = beta @ p.matrix @ beta
            q2 = bt @ np.diag(r.S_tilde) @ bt
            assert abs(q1 - q2) <= 1e-8 * abs(q1)

    def test_preserves_penalized_solution(self):
        # fitting with (X, S, lam) and (X_tilde, S_tilde, lam) gives the
        # same fitted values
        b, p = self._setup(n=100, seed=6)
        r = basis.demmler_reinsch(b, p)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(100)
        for lam in (0.1, 5.0):
            A1 = b.values.T @ b.values + lam * p.matrix
            f1 = b.values @ np.linalg.solve(A1, b.values.T @ y)
            A2 = np.eye(10) + lam * np.diag(r.S_tilde)
            f2 = r.X_tilde @ np.linalg.solve(A2, r.X_tilde.T @ y)
            np.testing.assert_allclose(f1, f2, atol=1e-8)

    def test_rank_deficient_design_rejected(self):
        vals = np.ones((50, 3))
        b = basis.BasisBlock(values=vals, knots=None, degree=0)
        with pytest.raises(SingularityError):
            basis.demmler_reinsch(b, basis.PenaltyCore(np.eye(3), 0, 3))


class TestRandomizeSmooth:
    def test_unit_ridges_and_full_rank(self):
        b = basis.bspline_basis(np.linspace(0, 1, 80), k=8, degree=3)
        for m in (1, 2):
            p = basis.difference_penalty(8, m)
            r = basis.demmler_reinsch(b, p)
            pens = basis.randomize_smooth(r)
            assert len(pens) == 1 + m
            for i, psi in enumerate(pens[1:]):
                assert psi.rank == 1
                col = 8 - m + i
                expect = np.zeros((8, 8))
                expect[col, col] = 1.0
                np.testing.assert_allclose(psi.matrix, expect, atol=0)
            total = sum(p_.matrix for p_ in pens)
            assert np.linalg.eigvalsh(total).min() > 0

    def test_identity_design_reduces_to_ridge(self):
        # level indicators with an identity penalty stay an iid ridge
        vals = np.kron(np.eye(4), np.ones((5, 1)))
        b = basis.BasisBlock(values=vals, knots=None, degree=0)
        p = basis.PenaltyCore(matrix=np.eye(4), kernel_dim=0, rank=4)
        r = basis.demmler_reinsch(b, p)
        pens = basis.randomize_smooth(r)
        assert len(pens) == 1
        np.testing.assert_allclose(pens[0].matrix,
                                   np.diag(r.S_tilde), atol=0)
        # transformed problem is an iid ridge: penalty proportional to I
        np.testing.assert_allclose(r.S_tilde, r.S_tilde[0], rtol=1e-10)
