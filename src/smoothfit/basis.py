"""B-spline bases, difference penalties, tensor products, and reparameterizations.

Univariate smooths follow the P-spline recipe of Eilers & Marx (1996):
an equidistant B-spline basis paired with a difference penalty on the
coefficients.  Terms can be transformed to (approximate) Demmler & Reinsch
form, which orthonormalizes the basis and diagonalizes the penalty; adding
one ridge penalty per null-space column of the transformed penalty then
turns a smooth into a proper Gaussian random effect (cf. Kimeldorf &
Wahba, 1970; Wood, 2017, section 5.4.2).
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import eigh, solve_triangular

from .errors import DomainError, SingularityError, SpecError

logger = logging.getLogger(__name__)

#: eigenvalues below this fraction of the largest count as zero
KERNEL_EIG_RTOL = 1e-10


@dataclass
class BasisBlock:
    """Evaluated basis functions for one smooth term.

    ``values`` is dense (N x k); sparsity is only exploited once blocks are
    assembled into the full model matrix.
    """

    values: np.ndarray
    knots: np.ndarray | None
    degree: int
    covariate_names: list = field(default_factory=list)

    @property
    def k(self):
        return self.values.shape[1]


@dataclass
class PenaltyCore:
    """A symmetric positive semi-definite penalty block.

    ``rank + kernel_dim`` equals the block dimension; vectors in the kernel
    produce a zero quadratic form.
    """

    matrix: np.ndarray
    kernel_dim: int
    rank: int

    @property
    def k(self):
        return self.matrix.shape[0]


@dataclass
class ReparamResult:
    """Demmler & Reinsch transform of a single-penalty term.

    ``X_tilde`` has orthonormal columns ordered from rough to smooth,
    ``S_tilde`` holds the (decreasing) penalty eigenvalues with exactly
    ``kernel_dim`` trailing zeros, and ``P`` maps transformed coefficients
    back to the original ones (``beta = P @ beta_tilde``).
    """

    X_tilde: np.ndarray
    S_tilde: np.ndarray
    P: np.ndarray
    kernel_dim: int
    extra_penalties: list = field(default_factory=list)


def _bspline_knots(xmin, xmax, k, degree):
    nseg = k - degree
    h = (xmax - xmin) / nseg
    inner = np.linspace(xmin, xmax, nseg + 1)
    left = xmin - h * np.arange(degree, 0, -1)
    right = xmax + h * np.arange(1, degree + 1)
    return np.concatenate([left, inner, right])


def bspline_basis(x, k, degree=3):
    """Equidistant B-spline basis over the observed range of ``x``.

    Knots are equally spaced with ``degree`` padding knots outside each
    boundary, so the k columns form a partition of unity on
    ``[min(x), max(x)]``.
    """
    x = np.asarray(x, dtype=float)
    if k < degree + 1:
        raise SpecError(f"basis size k={k} must be at least degree+1={degree + 1}")
    if not np.all(np.isfinite(x)):
        raise SpecError("covariate contains non-finite values")
    xmin, xmax = float(np.min(x)), float(np.max(x))
    if not xmin < xmax:
        raise SpecError("covariate must span a non-degenerate range")
    knots = _bspline_knots(xmin, xmax, k, degree)
    values = evaluate_bspline(knots, degree, x)
    return BasisBlock(values=values, knots=knots, degree=degree,
                      covariate_names=[])


def evaluate_bspline(knots, degree, x, clamp=False):
    """Evaluate the basis defined by ``knots`` at new points.

    Points outside the knot range raise :class:`DomainError` while fitting;
    prediction paths pass ``clamp=True``, which pins the offenders to the
    boundary and logs how many were moved (silent spline extrapolation is
    misleading, so it is never done).
    """
    x = np.asarray(x, dtype=float)
    k = len(knots) - degree - 1
    lo, hi = knots[degree], knots[k]
    outside = (x < lo) | (x > hi)
    if np.any(outside):
        if not clamp:
            raise DomainError(
                f"{int(outside.sum())} evaluation points outside the basis range "
                f"[{lo:g}, {hi:g}]")
        logger.warning("clamped %d prediction points to the basis range [%g, %g]",
                       int(outside.sum()), lo, hi)
        x = np.clip(x, lo, hi)
    # the right boundary belongs to the last interval, so the basis stays
    # a partition of unity on the closed range
    return BSpline.design_matrix(x, np.asarray(knots, dtype=float),
                                 degree).toarray()


def difference_penalty(k, m):
    """P-spline penalty S = D^T D with D the order-m difference matrix."""
    if not 1 <= m < k:
        raise SpecError(f"difference order m={m} must satisfy 1 <= m < k={k}")
    D = np.diff(np.eye(k), n=m, axis=0)
    return PenaltyCore(matrix=D.T @ D, kernel_dim=m, rank=k - m)


def _rowwise_kron(a, b):
    n = a.shape[0]
    return (a[:, :, None] * b[:, None, :]).reshape(n, -1)


def tensor_product(marginals):
    """Tensor-product smooth from two or more univariate marginals.

    The basis is the row-wise Kronecker product; each marginal contributes
    one penalty, embedded with identity factors on the other dimensions
    (Wood, 2006).  Penalties overlap on the same coefficient block, so the
    term carries one regularization parameter per marginal.
    """
    if len(marginals) < 2:
        raise SpecError("tensor_product needs at least two marginals")
    n = marginals[0][0].values.shape[0]
    for basis, _ in marginals:
        if basis.values.shape[0] != n:
            raise SpecError("tensor marginals must share the same observations")
    values = marginals[0][0].values
    for basis, _ in marginals[1:]:
        values = _rowwise_kron(values, basis.values)
    dims = [basis.k for basis, _ in marginals]
    cores = []
    for j, (_, pen) in enumerate(marginals):
        mats = [np.eye(d) for d in dims]
        mats[j] = pen.matrix
        S = mats[0]
        for M in mats[1:]:
            S = np.kron(S, M)
        rank = pen.rank * int(np.prod(dims)) // dims[j]
        cores.append(PenaltyCore(matrix=S, kernel_dim=S.shape[0] - rank, rank=rank))
    names = sum((b.covariate_names for b, _ in marginals), [])
    degree = max(b.degree for b, _ in marginals)
    block = BasisBlock(values=values, knots=None, degree=degree,
                       covariate_names=names)
    return block, cores


def _null_complement(colsums):
    """Orthonormal basis of the space orthogonal to the column-sum vector."""
    c = colsums.reshape(-1, 1)
    q, _ = np.linalg.qr(c, mode="complete")
    return q[:, 1:]


def transform_cores(cores, Z):
    """Apply a column transform to penalty cores, re-deriving rank/kernel."""
    out = []
    for core in cores:
        M = Z.T @ core.matrix @ Z
        M = 0.5 * (M + M.T)
        ev = np.linalg.eigvalsh(M)
        tol = KERNEL_EIG_RTOL * max(ev[-1], np.finfo(float).tiny)
        rank = int(np.sum(ev > tol))
        out.append(PenaltyCore(matrix=M, kernel_dim=M.shape[0] - rank,
                               rank=rank))
    return out


def absorb_sumtozero(X, S):
    """Absorb the sum-to-zero constraint 1^T X beta = 0 into the basis.

    ``S`` may be a single :class:`PenaltyCore` or a list of them (tensor
    terms); the same k x (k-1) null-space transform Z is applied to every
    penalty so quadratic forms are preserved on the constrained space.
    Returns ``(block, cores, Z)``.
    """
    if X.values.shape[1] < 2:
        raise SpecError("cannot constrain a basis with fewer than 2 columns")
    Z = _null_complement(X.values.sum(axis=0))
    values = X.values @ Z
    block = BasisBlock(values=values, knots=X.knots, degree=X.degree,
                       covariate_names=list(X.covariate_names))
    single = isinstance(S, PenaltyCore)
    cores_out = transform_cores([S] if single else list(S), Z)
    return block, (cores_out[0] if single else cores_out), Z


def demmler_reinsch(X, S):
    """Transform a single-penalty term to approximate Demmler & Reinsch form.

    Factor X^T X = L L^T, eigendecompose L^{-1} S L^{-T} with decreasing
    eigenvalues, and set P = L^{-T} W so that X P has orthonormal columns
    and the transformed penalty is diagonal (Demmler & Reinsch, 1975).
    """
    XtX = X.values.T @ X.values
    try:
        L = np.linalg.cholesky(XtX)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "X^T X is not positive definite; reduce the basis before "
            "reparameterizing") from exc
    A = solve_triangular(L, S.matrix, lower=True)
    A = solve_triangular(L, A.T, lower=True).T
    A = 0.5 * (A + A.T)
    evals, W = eigh(A)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    W = W[:, order]
    tol = KERNEL_EIG_RTOL * max(evals[0], np.finfo(float).tiny)
    evals = np.where(evals > tol, evals, 0.0)
    P = solve_triangular(L.T, W, lower=False)
    X_tilde = X.values @ P
    k = S.k
    n0 = int(np.sum(evals == 0.0))
    extras = []
    for n in range(n0):
        psi = np.zeros((k, k))
        psi[k - n0 + n, k - n0 + n] = 1.0
        extras.append(PenaltyCore(matrix=psi, kernel_dim=k - 1, rank=1))
    return ReparamResult(X_tilde=X_tilde, S_tilde=evals, P=P, kernel_dim=n0,
                         extra_penalties=extras)


def randomize_smooth(r):
    """Penalties that make a Demmler & Reinsch smooth a full random effect.

    Returns ``[S_tilde, Psi^1, ..., Psi^{N_0}]`` where each ``Psi^n`` puts a
    unit ridge on one previously unpenalized column, so the summed penalty
    is positive definite for any strictly positive weights and no direction
    of the term escapes shrinkage.
    """
    k = r.P.shape[0]
    s_core = PenaltyCore(matrix=np.diag(r.S_tilde), kernel_dim=r.kernel_dim,
                         rank=k - r.kernel_dim)
    return [s_core] + list(r.extra_penalties)
