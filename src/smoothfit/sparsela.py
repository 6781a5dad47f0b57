"""Sparse linear-algebra layer: orderings, factorizations, trace kernels.

Matrices are scipy CSC arrays.  The Cholesky route pivots for sparsity
only: the permutation is SuperLU's multiple minimum degree ordering of the
pattern of A + A^T, computed once per sparsity pattern and cached across
refactorizations with new values (the pattern of a penalized normal matrix
does not change with the regularization weights); the numeric
factorization and its solves run in SuperLU.  A cheap condition estimate
of a factored matrix tells the fitting engines when to look for columns
that no penalty identifies.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .errors import IndefiniteError, SpecError

#: condition estimate beyond which a fitting engine's first solve triggers
#: the rank check
CONDITION_WARN = 1.0 / (1e3 * np.finfo(float).eps)


def as_csc(A):
    A = sp.csc_array(A)
    A.sort_indices()
    return A


def check_symmetric(A, tol=1e-12):
    d = abs(A - A.T)
    mx = d.max() if d.nnz else 0.0
    scale = max(abs(A).max() if A.nnz else 0.0, 1.0)
    if mx > tol * scale:
        raise SpecError("matrix is not symmetric")


def fill_reducing_permutation(A):
    """Fill-reducing ordering of a symmetric sparsity pattern.

    SuperLU's multiple minimum degree ordering (Liu, 1985) of the pattern
    of A + A^T.  The ordering only reads the pattern, so it is taken from a
    factorization of that pattern with unit off-diagonal values and n on
    the diagonal: strictly diagonally dominant, hence factored in that
    order without pivoting.  Returns ``perm`` with ``perm[t]`` the original
    index placed at position t.
    """
    A = as_csc(A)
    n = A.shape[0]
    P = sp.csc_array((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    P = as_csc(P + P.T)
    P.data[:] = 1.0
    P = sp.csc_matrix(P + n * sp.eye_array(n, format="csc"))
    lu = splu(P, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return np.argsort(lu.perm_c).astype(np.int64)


class SymbolicChol:
    """Fill-reducing ordering of a fixed sparsity pattern, kept across
    refactorizations with new values.

    The pattern's entries are mapped once onto the permuted matrix
    P A P^T, so each refactorization only gathers the new values.
    """

    def __init__(self, pattern, perm):
        pattern = as_csc(pattern)
        n = pattern.shape[0]
        self.n = n
        self.perm = np.asarray(perm, dtype=np.int64)
        tagged = pattern.copy()
        tagged.data = np.arange(tagged.nnz, dtype=float)
        permuted = as_csc(tagged[self.perm][:, self.perm])
        self.value_map = permuted.data.astype(np.int64)
        self.Pp = permuted.indptr
        self.Pi = permuted.indices
        # row/col of each permuted entry, for diagonal preconditioning
        self.entry_row = self.Pi
        self.entry_col = np.repeat(np.arange(n, dtype=np.int64),
                                   np.diff(self.Pp))

    def factor(self, values, dscale=None):
        """Numeric factorization of the pattern filled with ``values``.

        ``values`` aligns with the canonical CSC data of the analyzed
        pattern.  ``dscale`` applies the diagonal preconditioner
        D A D before factorizing; solves transparently undo it.
        """
        Ax = values[self.value_map]
        if dscale is not None:
            dp = dscale[self.perm]
            Ax = Ax * dp[self.entry_row] * dp[self.entry_col]
        M = sp.csc_array((Ax, self.Pi, self.Pp), shape=(self.n, self.n))
        return CholeskyFactor(M, self.perm, dscale=dscale)


def _rows_scaled(b, d):
    """Rows of a vector or dense block ``b`` multiplied by ``d``."""
    return b * (d if b.ndim == 1 else d[:, None])


def _superlu_pivots(M):
    """SuperLU of M in its given order with row pivoting off.

    Returns ``(lu, u, k)``: M = L_u diag(u) L_u^T with L_u unit lower
    triangular, and ``k`` the first pivot that is not positive and finite
    (-1 when there is none).  A row interchange means SuperLU met a zero
    pivot, so it counts as a failure there.  ``k`` is None when SuperLU
    found M exactly singular, which it reports without the column.
    """
    try:
        lu = splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError:
        return None, None, None
    u = lu.U.diagonal()
    bad = ~((u > 0.0) & (u < np.inf)) | (lu.perm_r != np.arange(u.size))
    return lu, u, int(np.argmax(bad)) if bad.any() else -1


def _first_failing_pivot(M):
    """First failing pivot of an exactly singular M, by bisection over its
    leading blocks, whose pivots are the first pivots of M."""
    lo, hi = 0, M.shape[0]   # the leading lo-block factors, hi-block fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _superlu_pivots(M[:mid, :mid])[2] == -1:
            lo = mid
        else:
            hi = mid
    return lo


class CholeskyFactor:
    """Sparsity-pivoted Cholesky of a symmetric positive definite matrix.

    ``M = P D A D P^T`` is A in the fill-reducing order, scaled by the
    diagonal preconditioner D (identity by default).  SuperLU factors M in
    that order without row pivoting, so ``M = L_u diag(u) L_u^T`` and the
    Cholesky factor is ``L = L_u diag(u)^{1/2}``; hence
    ``A^{-1} = D P^T L^{-T} L^{-1} P D``.  Raises :class:`IndefiniteError`
    with the original index of the first pivot that is not positive.
    """

    def __init__(self, M, perm, dscale=None):
        self.n = M.shape[0]
        self.perm = perm
        self.dscale = dscale
        self._M = M
        self._lu, self._u, k = _superlu_pivots(M)
        if k is None:
            k = _first_failing_pivot(M)
        if k >= 0:
            raise IndefiniteError(perm[k])
        self.logdet = float(np.sum(np.log(self._u)))
        if dscale is not None:
            self.logdet -= 2.0 * float(np.sum(np.log(dscale)))
        self._Lu = None
        self._L = None

    @classmethod
    def from_lower(cls, L, perm, dscale=None):
        """The factor whose Cholesky factor is the stored lower-triangular
        ``L`` (CSC), as written by :meth:`L`."""
        L = sp.csc_array(L)
        return cls(as_csc(L @ L.T), np.asarray(perm, dtype=np.int64),
                   dscale=dscale)

    def _unit_lower(self):
        if self._Lu is None:
            self._Lu = as_csc(self._lu.L)
        return self._Lu

    @property
    def L(self):
        """The Cholesky factor of M in CSC, built on first use."""
        if self._L is None:
            Lu = self._unit_lower()
            cols = np.repeat(np.arange(self.n), np.diff(Lu.indptr))
            self._L = sp.csc_array(
                (Lu.data * np.sqrt(self._u)[cols], Lu.indices, Lu.indptr),
                shape=Lu.shape)
        return self._L

    def nnz_L(self):
        """Stored entries of L, diagonal included."""
        return int(self.L.nnz)

    def _pre(self, b):
        x = b if self.dscale is None else _rows_scaled(b, self.dscale)
        return x[self.perm]

    def _post(self, y):
        out = np.empty_like(y)
        out[self.perm] = y
        if self.dscale is not None:
            out = _rows_scaled(out, self.dscale)
        return out

    def solve(self, b):
        """x with A x = b, for a vector or a dense block of columns."""
        b = np.asarray(b, dtype=float)
        return self._post(self._lu.solve(self._pre(b)))

    def half_solve(self, B):
        """L^{-1} P D B for a dense block B; rows arrive permuted."""
        Y = spsolve_triangular(self._unit_lower(),
                               self._pre(np.asarray(B, dtype=float)),
                               lower=True, unit_diagonal=True,
                               overwrite_b=True)
        return _rows_scaled(Y, 1.0 / np.sqrt(self._u))

    def half_tsolve_scatter(self, Y):
        """D P^T L^{-T} Y: adjoint of :meth:`half_solve`."""
        Y = _rows_scaled(np.asarray(Y, dtype=float), 1.0 / np.sqrt(self._u))
        return self._post(spsolve_triangular(self._unit_lower().T, Y,
                                             lower=False, unit_diagonal=True,
                                             overwrite_b=True))


def pivoted_cholesky(A, perm=None, dscale=None):
    """Factor a symmetric matrix with a fill-reducing permutation.

    Raises :class:`IndefiniteError` carrying the failing (original) pivot
    index when the matrix is not positive definite.
    """
    A = as_csc(A)
    check_symmetric(A, tol=1e-10)
    if perm is None:
        perm = fill_reducing_permutation(A)
    symbolic = SymbolicChol(A, perm)
    return symbolic.factor(A.data, dscale=dscale)


def trace_inv_form(factor, D, widths=None):
    """tr(A^{-1} S) where S = D D^T, as sum(B * A^{-1} B).

    B holds the nonzero columns of ``D``, solved as one block; for an
    embedded penalty root that is its rank, not the matrix dimension.
    With ``widths``, ``D`` is a dense stack of roots D_r of those column
    counts, side by side, and the result is the array of the traces
    tr(A^{-1} D_r D_r^T), all from one solve.
    """
    if widths is None:
        B = _dense_cols(D)
        if B.shape[1] == 0:
            return 0.0
        return float(np.sum(B * factor.solve(B)))
    B = np.asarray(D, dtype=float)
    cols = np.sum(B * factor.solve(B), axis=0) if B.shape[1] \
        else np.zeros(0)
    ends = np.cumsum(widths)
    return np.array([float(np.sum(cols[e - w:e]))
                     for e, w in zip(ends, widths)])


def trace_inv_pair(factor, D_j, D_l):
    """tr(A^{-1} S^j A^{-1} S^l) = ||(L^{-1}P D_j)^T (L^{-1}P D_l)||_F^2."""
    Bj = factor.half_solve(_dense_cols(D_j))
    Bl = factor.half_solve(_dense_cols(D_l))
    M = Bj.T @ Bl
    return float(np.sum(M * M))


def _dense_cols(D):
    if sp.issparse(D):
        D = as_csc(D)
        nz = np.flatnonzero(np.diff(D.indptr))
        return np.asarray(D[:, nz].todense())
    D = np.asarray(D, dtype=float)
    nz = np.flatnonzero(np.any(D != 0.0, axis=0))
    return D[:, nz]


def condition_estimate(factor, iters=15, seed=0):
    """Rough 2-norm condition number of the matrix a
    :class:`CholeskyFactor` factors.

    Power iteration for the largest singular value and inverse iteration
    through the factor for the smallest (Cline-style cheap estimate: right
    order of magnitude, not digits).
    """
    n = factor.n
    rng = np.random.default_rng(seed)
    M = factor._M
    perm = factor.perm

    def amul(x):
        v = x if factor.dscale is None else x / factor.dscale
        v = v[perm]
        v = M @ v
        out = np.empty_like(v)
        out[perm] = v
        if factor.dscale is not None:
            out = out / factor.dscale
        return out

    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    smax = 1.0
    for _ in range(iters):
        y = amul(x)
        smax = np.linalg.norm(y)
        if smax == 0.0:
            return np.inf
        x = y / smax
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    smin = smax
    for _ in range(iters):
        y = factor.solve(x)
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            return np.inf
        smin = 1.0 / ny
        x = y / ny
    return float(smax / smin)
