"""Numeric inner loops.

Everything in this module operates on plain numpy arrays (CSC/CSR index
triplets, dense work vectors) so that the same source compiles under numba
``njit`` and also runs as ordinary Python when ``SMOOTHFIT_NUMBA=0``.

The row-wise QR uses Givens rotations so that small diagonal entries can
be detected and the offending columns dropped, following Heath (1982).
The sparse Cholesky factorization, its solves and B-spline evaluation run
in scipy's compiled code instead (SuperLU, ``BSpline.design_matrix``).
"""

import numpy as np

from ._backend import maybe_njit

_opts = dict(cache=True)


# ---------------------------------------------------------------------------
# Triangular inverse
# ---------------------------------------------------------------------------

@maybe_njit(**_opts)
def invert_lower_csc(n, Lp, Li, Lx):
    """Columns of L^{-1}; returns CSC triplets.

    Each column is an independent sparse forward solve with a unit vector,
    so callers may fan the columns out across workers if they wish.
    """
    nnz_cap = 0
    work = np.zeros(n)
    # first pass: count nonzeros per column
    counts = np.zeros(n, dtype=np.int64)
    for j in range(n):
        for i in range(n):
            work[i] = 0.0
        work[j] = 1.0
        for jj in range(j, n):
            bj = work[jj] / Lx[Lp[jj]]
            work[jj] = bj
            if bj != 0.0:
                for p in range(Lp[jj] + 1, Lp[jj + 1]):
                    work[Li[p]] -= Lx[p] * bj
        cnt = 0
        for i in range(j, n):
            if work[i] != 0.0:
                cnt += 1
        counts[j] = cnt
        nnz_cap += cnt
    Ip = np.zeros(n + 1, dtype=np.int64)
    for j in range(n):
        Ip[j + 1] = Ip[j] + counts[j]
    Ii = np.zeros(nnz_cap, dtype=np.int64)
    Ix = np.zeros(nnz_cap)
    for j in range(n):
        for i in range(n):
            work[i] = 0.0
        work[j] = 1.0
        for jj in range(j, n):
            bj = work[jj] / Lx[Lp[jj]]
            work[jj] = bj
            if bj != 0.0:
                for p in range(Lp[jj] + 1, Lp[jj + 1]):
                    work[Li[p]] -= Lx[p] * bj
        q = Ip[j]
        for i in range(j, n):
            if work[i] != 0.0:
                Ii[q] = i
                Ix[q] = work[i]
                q += 1
    return Ip, Ii, Ix


# ---------------------------------------------------------------------------
# Row-wise Givens QR
# ---------------------------------------------------------------------------

@maybe_njit(**_opts)
def qr_insert_rows(R, Xp, Xi, Xx, nrows):
    """Rotate CSR rows into the dense upper-triangular accumulator R.

    Diagonal entries of R stay non-negative because each rotation is built
    from hypot.  Rows may arrive in any order.
    """
    p = R.shape[0]
    r = np.zeros(p)
    for row in range(nrows):
        for i in range(p):
            r[i] = 0.0
        lead = p
        for q in range(Xp[row], Xp[row + 1]):
            r[Xi[q]] = Xx[q]
            if Xi[q] < lead:
                lead = Xi[q]
        for j in range(lead, p):
            rj = r[j]
            if rj == 0.0:
                continue
            a = R[j, j]
            hyp = np.hypot(a, rj)
            if hyp == 0.0:
                continue
            c = a / hyp
            s = rj / hyp
            R[j, j] = hyp
            r[j] = 0.0
            for col in range(j + 1, p):
                t1 = R[j, col]
                t2 = r[col]
                R[j, col] = c * t1 + s * t2
                r[col] = -s * t1 + c * t2
    return R


@maybe_njit(**_opts)
def chol_downdate(R, u):
    """Rank-one downdate of dense upper-triangular R: R'^T R' = R^T R - u u^T.

    Returns 0 on success, 1 if the downdated matrix is not positive
    definite.  LINPACK-style hyperbolic rotations.
    """
    p = R.shape[0]
    for j in range(p):
        rjj = R[j, j]
        d = rjj * rjj - u[j] * u[j]
        if d <= 0.0:
            return 1
        dj = np.sqrt(d)
        c = dj / rjj
        s = u[j] / rjj
        R[j, j] = dj
        for col in range(j + 1, p):
            R[j, col] = (R[j, col] - s * u[col]) / c
            u[col] = c * u[col] - s * R[j, col]
    return 0


# ---------------------------------------------------------------------------
# Cox proportional-hazard accumulators
# ---------------------------------------------------------------------------

@maybe_njit(**_opts)
def coxph_llk(eta, delta, block_ends, r_l):
    """Partial log-likelihood for data sorted by non-increasing time.

    ``block_ends[l]`` is the exclusive end of the l-th tied-time block, so
    the risk set of block l is the prefix ``0:block_ends[l]``.  Ties use the
    Breslow multiplier ``r_l``.
    """
    c = eta[0]
    n = eta.shape[0]
    for i in range(1, n):
        if eta[i] > c:
            c = eta[i]
    total = 0.0
    wsum = 0.0
    start = 0
    for l in range(block_ends.shape[0]):
        end = block_ends[l]
        for i in range(start, end):
            wsum += np.exp(eta[i] - c)
            if delta[i] == 1:
                total += eta[i]
        if r_l[l] > 0:
            total -= r_l[l] * (np.log(wsum) + c)
        start = end
    return total


@maybe_njit(**_opts)
def coxph_grad(eta, delta, block_ends, r_l, X):
    c = eta[0]
    n = eta.shape[0]
    for i in range(1, n):
        if eta[i] > c:
            c = eta[i]
    p = X.shape[1]
    grad = np.zeros(p)
    acc = np.zeros(p)
    wsum = 0.0
    start = 0
    for l in range(block_ends.shape[0]):
        end = block_ends[l]
        for i in range(start, end):
            w = np.exp(eta[i] - c)
            wsum += w
            for j in range(p):
                acc[j] += w * X[i, j]
                if delta[i] == 1:
                    grad[j] += X[i, j]
        if r_l[l] > 0:
            coef = r_l[l] / wsum
            for j in range(p):
                grad[j] -= coef * acc[j]
        start = end
    return grad


@maybe_njit(**_opts)
def coxph_neg_hess(eta, delta, block_ends, r_l, X):
    """Negative Hessian of the partial log-likelihood (dense, PSD)."""
    c = eta[0]
    n = eta.shape[0]
    for i in range(1, n):
        if eta[i] > c:
            c = eta[i]
    p = X.shape[1]
    H = np.zeros((p, p))
    acc = np.zeros(p)
    M = np.zeros((p, p))
    wsum = 0.0
    start = 0
    for l in range(block_ends.shape[0]):
        end = block_ends[l]
        for i in range(start, end):
            w = np.exp(eta[i] - c)
            wsum += w
            for a in range(p):
                xa = X[i, a]
                acc[a] += w * xa
                for b in range(a, p):
                    M[a, b] += w * xa * X[i, b]
        if r_l[l] > 0:
            coef = r_l[l] / wsum
            coef2 = r_l[l] / (wsum * wsum)
            for a in range(p):
                for b in range(a, p):
                    H[a, b] += coef * M[a, b] - coef2 * acc[a] * acc[b]
        start = end
    for a in range(p):
        for b in range(a + 1, p):
            H[b, a] = H[a, b]
    return H
