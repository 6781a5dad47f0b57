"""Limited-memory quasi-Newton engine.

Compact representations (Byrd, Nocedal & Schnabel, 1994) of BFGS and SR1
approximations to the negative log-likelihood Hessian and its inverse,
a penalized inverse via the modified Woodbury identity (Henderson &
Searle, 1981), the implicit nearest-positive-semi-definite projection of
Burdakov et al. (2017) in the formulation of Erway et al., and
:func:`lqefs_fit`, which estimates coefficients and regularization
parameters from the log-likelihood gradient alone.

:func:`lqefs_fit` runs the outer loop of :mod:`smoothfit.efs` without the
gradient-sign halving; as its traces are approximate, each round's move of
a log weight is capped at ``RHO_STEP_MAX`` and the fit also stops once the
weights have settled.  Its three parts: solve -- gradient-ascent steps
before the first round, then phase 1 (a direct limited-memory ascent on
the penalized log-likelihood) and phase 2 (unpenalized steps, feeding the
persistent update queue that approximates the log-likelihood curvature,
alternating with penalized steps through the Woodbury inverse); evaluate
-- compact traces of the penalized inverse, stepping with those of
whichever of the current or last-accepted approximation balances the
update equation better (:func:`qefs_accept`); finish -- the dense Cholesky
factor of the compact penalized Hessian and the REML score.

Queue convention: the engine minimizes the negative (penalized)
log-likelihood, so update pairs are ``s`` (accepted step) and ``nu``
(change of the negative-gradient of the objective being maximized along
that step); the Hessian-kind representations then approximate the negative
log-likelihood Hessian, which the Fellner-Schall update requires to be at
least positive semi-definite.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky, eigh, lu_factor, lu_solve, \
    solve_triangular
import warnings

from scipy.optimize import line_search as _scipy_line_search
from scipy.optimize._linesearch import LineSearchWarning

from . import sparsela
from .efs import PenalizedSystem, _efs_loop, _Evaluation, reml_value
from .errors import NumericError, SpecError

#: Wolfe constants (sufficient increase / curvature) and Armijo backtracking
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
MAX_LS_EVALS = 30

#: BFGS curvature skip: s^T nu must exceed this times ||s|| ||nu||
CURVATURE_RTOL = 1e-10
#: SR1 degenerate-denominator skip threshold
SR1_SKIP_RTOL = 1e-8

#: largest per-round movement of any log regularization weight
RHO_STEP_MAX = 6.0
#: gradient-ascent steps before the first round
INIT_GRAD_STEPS = 8
#: phase 1 runs max(N_I - n_v, 4) steps at most
N_I = 100
#: relative objective change that ends phases 1 and 2
PHASE_TOL = 1e-6
#: relative step of the central finite-difference gradient
FD_STEP = 1e-6


@dataclass(frozen=True)
class UpdatePair:
    s: np.ndarray
    nu: np.ndarray


class CompactRep:
    """Implicit base-plus-low-rank quasi-Newton approximation.

    ``kind`` is one of ``bfgs_inverse``, ``bfgs_hessian``, ``sr1_inverse``,
    ``sr1_hessian``, ``psd_projected``.  The represented matrix is
    ``base * I + outer @ inner @ outer.T``; matvec never materializes it.
    Instances are immutable values; :func:`compact_push` returns new ones.
    """

    def __init__(self, kind, n_p, max_pairs, S=None, Y=None, gamma=1.0,
                 explicit=None, skipped=0):
        if kind not in ("bfgs_inverse", "bfgs_hessian", "sr1_inverse",
                        "sr1_hessian", "psd_projected"):
            raise SpecError(f"unknown compact kind {kind!r}")
        self.kind = kind
        self.n_p = n_p
        self.max_pairs = max_pairs
        self.S = np.zeros((n_p, 0)) if S is None else S
        self.Y = np.zeros((n_p, 0)) if Y is None else Y
        self.gamma = float(gamma)
        self.skipped = skipped
        self._explicit = explicit
        self._blocks = None

    # -- queue-derived small matrices ----------------------------------------
    @property
    def m(self):
        if self._explicit is not None:
            return self._explicit[1].shape[1]
        return self.S.shape[1]

    @property
    def gamma_eff(self):
        """Base scale; the identity replaces gamma when it turns negative."""
        return self.gamma if self.gamma > 0 else 1.0

    def _small(self):
        SY = self.S.T @ self.Y
        R = np.triu(SY)
        D = np.diag(np.diag(SY))
        L = np.tril(SY, -1)
        return SY, R, D, L

    def blocks(self):
        """(base, outer, inner) of the represented matrix."""
        if self._explicit is not None:
            return self._explicit
        g = self.gamma_eff
        m = self.m
        if m == 0:
            if self.kind in ("bfgs_inverse", "sr1_inverse"):
                base = g
            else:
                base = 1.0 / g
            return (base, np.zeros((self.n_p, 0)), np.zeros((0, 0)))
        if self._blocks is not None:
            return self._blocks
        SY, R, D, L = self._small()
        if self.kind == "bfgs_inverse":
            mid = D + g * (self.Y.T @ self.Y)
            Rinv = solve_triangular(R, np.eye(m), lower=False)
            B11 = Rinv.T @ mid @ Rinv
            inner = np.block([[B11, -Rinv.T], [-Rinv, np.zeros((m, m))]])
            outer = np.hstack([self.S, g * self.Y])
            blocks = (g, outer, inner)
        elif self.kind == "bfgs_hessian":
            delta = 1.0 / g
            W = np.block([[delta * (self.S.T @ self.S), L],
                          [L.T, -D]])
            inner = -np.linalg.inv(W)
            outer = np.hstack([delta * self.S, self.Y])
            blocks = (delta, outer, inner)
        elif self.kind == "sr1_inverse":
            M = R + R.T - D - g * (self.Y.T @ self.Y)
            inner = np.linalg.inv(M)
            outer = self.S - g * self.Y
            blocks = (g, outer, inner)
        else:  # sr1_hessian
            delta = 1.0 / g
            M = D + L + L.T - delta * (self.S.T @ self.S)
            inner = np.linalg.inv(M)
            outer = self.Y - delta * self.S
            blocks = (delta, outer, inner)
        self._blocks = blocks
        return blocks

    def matvec(self, a):
        base, outer, inner = self.blocks()
        out = base * np.asarray(a, dtype=float)
        if outer.shape[1]:
            out = out + outer @ (inner @ (outer.T @ a))
        return out

    def dense(self):
        """Materialized matrix; test/oracle use only."""
        base, outer, inner = self.blocks()
        A = base * np.eye(self.n_p)
        if outer.shape[1]:
            A = A + outer @ inner @ outer.T
        return A

    def as_kind(self, kind):
        return CompactRep(kind, self.n_p, self.max_pairs, self.S, self.Y,
                          self.gamma, skipped=self.skipped)

    def storage_floats(self):
        base, outer, inner = self.blocks()
        return outer.size + inner.size + self.S.size + self.Y.size


def compact_push(rep, pair):
    """Queue a new update pair, evicting the oldest when full.

    BFGS kinds skip pairs violating the curvature condition; SR1 kinds skip
    pairs with a degenerate update denominator.  A rejected pair returns
    the input representation with ``skipped`` incremented.
    """
    if rep._explicit is not None:
        raise SpecError("cannot push into a projected representation")
    s = np.asarray(pair.s, dtype=float)
    nu = np.asarray(pair.nu, dtype=float)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(nu))):
        return CompactRep(rep.kind, rep.n_p, rep.max_pairs, rep.S, rep.Y,
                          rep.gamma, skipped=rep.skipped + 1)
    sn = float(s @ nu)
    if rep.kind.startswith("bfgs"):
        if sn <= CURVATURE_RTOL * np.linalg.norm(s) * np.linalg.norm(nu):
            return CompactRep(rep.kind, rep.n_p, rep.max_pairs, rep.S, rep.Y,
                              rep.gamma, skipped=rep.skipped + 1)
    else:
        h_rep = rep if rep.kind == "sr1_hessian" else rep.as_kind("sr1_hessian")
        w = nu - h_rep.matvec(s)
        if abs(float(s @ w)) <= SR1_SKIP_RTOL * np.linalg.norm(s) * \
                np.linalg.norm(w):
            return CompactRep(rep.kind, rep.n_p, rep.max_pairs, rep.S, rep.Y,
                              rep.gamma, skipped=rep.skipped + 1)
    S = np.hstack([rep.S, s[:, None]])
    Y = np.hstack([rep.Y, nu[:, None]])
    if S.shape[1] > rep.max_pairs:
        S = S[:, 1:]
        Y = Y[:, 1:]
    nn = float(nu @ nu)
    gamma = sn / nn if nn > 0 else rep.gamma
    # with gamma = s'nu/nu'nu the very first SR1 middle matrix is exactly
    # singular; fall back to the identity base for that pair
    gammas = (gamma,)
    if rep.kind.startswith("sr1") and S.shape[1] == 1:
        gammas = (1.0, 0.5 * gamma) if gamma != 1.0 else (0.5,)
    for g in gammas:
        cand = CompactRep(rep.kind, rep.n_p, rep.max_pairs, S, Y, g,
                          skipped=rep.skipped)
        try:
            base, outer, inner = cand.blocks()
            if not (np.all(np.isfinite(inner))
                    and np.all(np.isfinite(outer))):
                continue
            if inner.size and np.linalg.cond(inner) > 1e14:
                continue
        except np.linalg.LinAlgError:
            continue
        return cand
    return CompactRep(rep.kind, rep.n_p, rep.max_pairs, rep.S, rep.Y,
                      rep.gamma, skipped=rep.skipped + 1)


def implicit_nearest_psd(h_rep):
    """Frobenius-nearest PSD projection of an SR1 Hessian representation.

    Thin QR of the tall block and a small eigendecomposition locate the
    negative eigenvalues implicitly; they are shifted to (a hair above)
    zero so the projected matrix is numerically positive definite.
    """
    base, outer, inner = h_rep.blocks()
    n_p = h_rep.n_p
    if outer.shape[1] == 0:
        return CompactRep("psd_projected", n_p, h_rep.max_pairs,
                          gamma=h_rep.gamma_eff,
                          explicit=(base, outer, inner))
    Q1, R1 = np.linalg.qr(outer)
    core = R1 @ inner @ R1.T
    evals, U = eigh(0.5 * (core + core.T))
    P = Q1 @ U
    lift = 64.0 * np.finfo(float).eps * max(1.0, base)
    shifted = evals - np.minimum(0.0, evals + base)
    shifted = np.where(evals + base < 0.0, shifted + lift, shifted)
    return CompactRep("psd_projected", n_p, h_rep.max_pairs,
                      gamma=h_rep.gamma_eff,
                      explicit=(base, P, np.diag(shifted)))


@dataclass
class PenalizedInverseRep:
    """Woodbury form of (H_hat + S_lambda)^{-1}.

    ``matvec`` costs one sparse solve plus small dense products; the trace
    against an embedded penalty touches only its nonzero columns.
    """

    H0_factor: object
    M: np.ndarray
    N_mat: np.ndarray
    A_lu: object
    outer: np.ndarray
    inner: np.ndarray
    base: float

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        out = self.H0_factor.solve(x)
        if self.M.shape[1]:
            out = out - self.M @ lu_solve(self.A_lu, self.N_mat @ x)
        return out

    def storage_floats(self):
        return self.M.size + self.N_mat.size + self.outer.size + \
            self.inner.size


def penalized_inverse(h_rep, S_lambda, h0_system=None):
    """(H_hat + S_lambda)^{-1} as a compact representation.

    ``H0 = I/gamma' + S_lambda`` is factored sparsely; the low-rank block
    is folded in with the modified Woodbury identity, whose small core
    matrix is non-singular by construction.
    """
    base, outer, inner = h_rep.blocks()
    n_p = h_rep.n_p
    H0 = sp.csc_array(base * sp.eye_array(n_p, format="csc") +
                      sp.csc_array(S_lambda))
    if h0_system is not None:
        factor = h0_system.factor(H0)
    else:
        factor = sparsela.pivoted_cholesky(H0)
    q = outer.shape[1]
    if q == 0:
        return PenalizedInverseRep(H0_factor=factor, M=np.zeros((n_p, 0)),
                                   N_mat=np.zeros((0, n_p)),
                                   A_lu=lu_factor(np.eye(1)), outer=outer,
                                   inner=inner, base=base)
    C = inner
    M = np.column_stack([factor.solve(outer[:, j]) for j in range(q)])
    A = np.eye(q) + C @ (outer.T @ M)
    try:
        A_lu = lu_factor(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError("Woodbury core matrix is singular") from exc
    N_mat = C @ M.T
    return PenalizedInverseRep(H0_factor=factor, M=M, N_mat=N_mat,
                               A_lu=A_lu, outer=outer, inner=C, base=base)


def compact_trace_penalty(inv_rep, S_r):
    """tr((H_hat + S_lambda)^{-1} S^r) over the nonzero columns of S^r."""
    S_r = sp.csc_array(S_r)
    cols = np.flatnonzero(np.diff(S_r.indptr))
    if cols.size == 0:
        return 0.0
    Sc = np.asarray(S_r[:, cols].todense())
    Z = inv_rep.H0_factor.solve(Sc)
    t1 = float(np.sum(Z[cols, np.arange(cols.size)]))
    if inv_rep.M.shape[1] == 0:
        return t1
    G = lu_solve(inv_rep.A_lu, inv_rep.N_mat @ Sc)
    t2 = float(np.einsum("jq,qj->", inv_rep.M[cols, :], G))
    return t1 - t2


# ---------------------------------------------------------------------------
# line searches
# ---------------------------------------------------------------------------

def wolfe_search(f, grad, x, direction, f0=None, g0=None):
    """Step length meeting the strong Wolfe conditions for maximizing f.

    ``direction`` must be an ascent direction.  Returns alpha or None when
    no acceptable step was found within the evaluation budget.
    """
    d = np.asarray(direction, dtype=float)
    g0v = grad(x) if g0 is None else g0
    slope = float(g0v @ d)
    if slope <= 0:
        raise SpecError("wolfe_search needs an ascent direction")

    def nf(xv):
        return -f(xv)

    def ng(xv):
        return -grad(xv)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LineSearchWarning)
        alpha, *_ = _scipy_line_search(nf, ng, np.asarray(x, dtype=float),
                                       d, gfk=-g0v,
                                       old_fval=None if f0 is None else -f0,
                                       c1=WOLFE_C1, c2=WOLFE_C2,
                                       maxiter=MAX_LS_EVALS)
    return alpha


def armijo_search(f, x, direction, grad_at_x, f0=None):
    """Backtracking step meeting the Armijo sufficient-increase condition."""
    d = np.asarray(direction, dtype=float)
    slope = float(np.asarray(grad_at_x) @ d)
    if slope <= 0:
        raise SpecError("armijo_search needs an ascent direction")
    fx = f(x) if f0 is None else f0
    alpha = 1.0
    for _ in range(MAX_LS_EVALS):
        if f(x + alpha * d) >= fx + ARMIJO_C1 * alpha * slope:
            return alpha
        alpha *= ARMIJO_SHRINK
    return None


# ---------------------------------------------------------------------------
# acceptance heuristic, posterior factor
# ---------------------------------------------------------------------------

def qefs_balance(tr_S, tr_V, quads):
    """Per-parameter residuals of the Fellner-Schall balance equation."""
    return (np.asarray(tr_S) - np.asarray(tr_V)) - np.asarray(quads)


def qefs_accept(current_traces, last_traces, tr_S, quads):
    """Choose the approximation whose balance residuals are smaller.

    Returns True when the current representation wins (ties prefer it),
    mirroring the rule that the update should move the balance equation
    toward equilibrium on average across penalties.
    """
    t_cur = np.mean(np.abs(qefs_balance(tr_S, current_traces, quads)))
    if last_traces is None:
        return True
    t_last = np.mean(np.abs(qefs_balance(tr_S, last_traces, quads)))
    return not (t_last < t_cur)


class DenseUpperFactor:
    """Dense R with R^T R = H_cal; same solve surface as the sparse factor."""

    def __init__(self, R):
        self.R = R
        self.n = R.shape[0]
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(R))))
        self.dscale = None

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        y = solve_triangular(self.R, b, trans="T", lower=False)
        return solve_triangular(self.R, y, lower=False)

    def half_solve(self, B):
        return solve_triangular(self.R, np.asarray(B, dtype=float),
                                trans="T", lower=False)

    def half_tsolve_scatter(self, Y):
        return solve_triangular(self.R, np.asarray(Y, dtype=float),
                                lower=False)

    def nnz_L(self):
        return int(np.count_nonzero(self.R))


def cholesky_of_compact(h_rep, S_lambda):
    """Upper Cholesky factor of H_hat + S_lambda.

    The compact blocks are assembled into the dense N_p x N_p matrix
    base I + S_lambda + outer sym(inner) outer^T, which LAPACK factors;
    an inner matrix of either sign is fine as long as the sum is positive
    definite.
    """
    base, outer, inner = h_rep.blocks()
    H = sp.csc_array(S_lambda).toarray()
    H[np.diag_indices_from(H)] += base
    if inner.size:
        H += outer @ (0.5 * (inner + inner.T)) @ outer.T
    try:
        R = cholesky(H, lower=False, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("penalized quasi-Newton Hessian is not "
                           "positive definite") from exc
    return DenseUpperFactor(R)


# ---------------------------------------------------------------------------
# fitting loop
# ---------------------------------------------------------------------------

@dataclass
class LqefsControl:
    n_v: int = 30
    update: str = "sr1"               # or "bfgs"
    max_outer: int = 50
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.update not in ("sr1", "bfgs"):
            raise SpecError("update must be 'sr1' or 'bfgs'")
        if self.n_v < 1:
            raise SpecError("n_v must be positive")


def _finite_diff_grad(llk, x, step):
    g = np.zeros_like(x)
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (llk(xp) - llk(xm)) / (2.0 * h)
    return g


def lqefs_fit(design, family, control=None):
    """Quasi-Newton estimation of coefficients and regularization weights
    (see the module docstring).  A point of the outer loop is ``(beta,
    penalized llk, inverse rep, Hessian rep)``."""
    control = control or LqefsControl()
    rng = np.random.default_rng(control.seed)
    n_p = design.N_p
    n_v = control.n_v
    sr1 = control.update == "sr1"

    from .families import GeneralFamily

    def llk(b):
        return family.llk(b, design)

    if type(family).grad is not GeneralFamily.grad:
        def grad(b):
            return family.grad(b, design)
    else:
        # gradient-free contract: central finite differences
        def grad(b):
            return _finite_diff_grad(llk, b, FD_STEP)

    h0_system = PenalizedSystem(design, base=sp.eye_array(n_p))
    S_lam = None

    def pen_llk(b):
        return llk(b) - 0.5 * float(b @ (S_lam @ b))

    def pen_grad(b):
        return grad(b) - np.asarray(S_lam @ b)

    queue_rep = CompactRep("sr1_inverse" if sr1 else "bfgs_inverse", n_p, n_v)
    last_inv = None
    search_fail_streak = 0

    def solve(lams, start):
        nonlocal S_lam, queue_rep, search_fail_streak
        S_lam = design.S_lambda(lams)
        if start is not None:
            beta = start[0]
        else:
            # gradient ascent, shrink-restart on repeated line-search failure
            beta = family.init_coef(design).astype(float)
            fails = 0
            for _ in range(INIT_GRAD_STEPS):
                g = pen_grad(beta)
                gn = np.linalg.norm(g)
                if gn == 0:
                    break
                alpha = armijo_search(pen_llk, beta, g / gn, g)
                if alpha is None:
                    fails += 1
                    if fails >= 2:
                        beta = 0.5 * (beta + rng.standard_normal(n_p))
                        fails = 0
                    continue
                beta = beta + alpha * (g / gn)

        # ---- phase 1: direct quasi-Newton on the penalized likelihood ------
        direct = CompactRep("bfgs_inverse", n_p, n_v)
        f_cur = pen_llk(beta)
        g_cur = pen_grad(beta)
        for _ in range(max(N_I - n_v, 4)):
            d = direct.matvec(g_cur)
            if float(d @ g_cur) <= 0:
                d = g_cur.copy()
            alpha = wolfe_search(pen_llk, pen_grad, beta, d, f0=f_cur,
                                 g0=g_cur)
            if alpha is None:
                alpha = armijo_search(pen_llk, beta, g_cur, g_cur, f0=f_cur)
                d = g_cur.copy()
                if alpha is None:
                    search_fail_streak += 1
                    if search_fail_streak >= 3:
                        beta = 0.5 * (beta + rng.standard_normal(n_p))
                        f_cur = pen_llk(beta)
                        g_cur = pen_grad(beta)
                        search_fail_streak = 0
                    continue
            search_fail_streak = 0
            s = alpha * d
            beta = beta + s
            g_new = pen_grad(beta)
            direct = compact_push(direct, UpdatePair(s=s, nu=g_cur - g_new))
            f_new = pen_llk(beta)
            done = abs(f_new - f_cur) < PHASE_TOL * (abs(f_new) + 1)
            f_cur, g_cur = f_new, g_new
            if done:
                break

        # ---- phase 2: indirect updates building the likelihood curvature ---
        phase2_cap = 5 * n_v
        min_steps = n_v if queue_rep.m < n_v else 3
        steps_done = 0
        while steps_done < phase2_cap:
            steps_done += 1
            g1 = grad(beta)
            inv_dir_rep = implicit_nearest_psd(queue_rep) if sr1 \
                else queue_rep
            d1 = inv_dir_rep.matvec(g1)
            if float(d1 @ g1) <= 0 or not np.all(np.isfinite(d1)):
                d1 = g1.copy()
            if sr1:
                alpha1 = armijo_search(llk, beta, d1, g1)
            else:
                alpha1 = wolfe_search(llk, grad, beta, d1, g0=g1)
            if alpha1 is None or np.linalg.norm(alpha1 * d1) < 1e-14:
                # retry along the raw gradient before giving up on the step
                d1 = g1 / max(np.linalg.norm(g1), 1e-300)
                alpha1 = armijo_search(llk, beta, d1, g1)
            if alpha1 is not None:
                s1 = alpha1 * d1
                g2 = grad(beta + s1)
                queue_rep = compact_push(queue_rep,
                                         UpdatePair(s=s1, nu=g1 - g2))

            h_kind = queue_rep.as_kind(
                "sr1_hessian" if sr1 else "bfgs_hessian")
            h_psd = implicit_nearest_psd(h_kind) if sr1 else h_kind
            inv_rep = penalized_inverse(h_psd, S_lam, h0_system=h0_system)

            g_lam = grad(beta) - np.asarray(S_lam @ beta)
            d2 = inv_rep.matvec(g_lam)
            if float(d2 @ g_lam) <= 0 or not np.all(np.isfinite(d2)):
                d2 = g_lam.copy()
            if sr1:
                alpha2 = armijo_search(pen_llk, beta, d2, g_lam)
            else:
                alpha2 = wolfe_search(pen_llk, pen_grad, beta, d2, g0=g_lam)
            if alpha2 is not None:
                beta = beta + alpha2 * d2
            f_new = pen_llk(beta)
            rel = abs(f_new - f_cur) / (abs(f_new) + 1e-12)
            f_cur = f_new
            if steps_done >= min_steps and rel < PHASE_TOL:
                break

        return beta, f_cur, inv_rep, h_psd

    def traces(inv):
        return np.array([compact_trace_penalty(inv, design.S_emb(r))
                         for r in range(design.n_lambda)])

    def evaluate(point, lams):
        nonlocal last_inv
        beta, f_cur, inv_rep, _ = point
        tr_S = design.trace_sinv(lams)
        quads = design.quad_forms(beta)
        tr_H = traces(inv_rep)
        # positive semi-definiteness of the projected approximation makes
        # tr(S^- S^r) >= tr(V' S^r) hold mathematically; enforce it against
        # the numerical noise of extreme regularization weights
        cur_traces = np.minimum(tr_H, tr_S)
        last_traces = None if last_inv is None else \
            np.minimum(traces(last_inv), tr_S)
        if qefs_accept(cur_traces, last_traces, tr_S, quads):
            chosen = cur_traces
            last_inv = inv_rep
        else:
            chosen = last_traces
        return _Evaluation(f_cur, tr_S, tr_H, quads, tr_step=chosen)

    def finish(point, ev, lams):
        beta, pen_final, inv_rep, h_psd = point
        factor = cholesky_of_compact(h_psd, S_lam)
        return np.arange(n_p), dict(
            beta=beta, reml=reml_value(design, factor, lams, pen_final,
                                       phi=1.0),
            penalized_llk=pen_final, llk=llk(beta), engine="lqefs",
            diagnostics={"n_v": n_v, "update": control.update,
                         "queue_len": queue_rep.m,
                         "skipped_pairs": queue_rep.skipped,
                         "inv_rep": inv_rep, "h_rep": h_psd,
                         "storage_floats": (inv_rep.storage_floats() +
                                            h_psd.storage_floats())},
            _design=design, _factor=factor, _family=family)

    def settled(rel, lams, lams_prev):
        # the weights stopped moving and the objective change is down to
        # line-search jitter
        return np.max(np.abs(np.log(lams) - np.log(lams_prev))) < 1e-3 \
            and rel < 100 * control.tol

    return _efs_loop(design, solve, evaluate, finish, control, max_half=0,
                     rho_step_max=RHO_STEP_MAX, settled=settled)
