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

