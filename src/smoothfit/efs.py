"""Fitting engines built around the extended Fellner-Schall update.

Three entry points cover the model ladder:

* :func:`fit_additive` -- Gaussian identity models; the update for the
  regularization parameters is exact (Wood & Fasiolo, 2017).
* :func:`fit_gam` -- exponential-family models via Fisher scoring; by
  default the model is re-linearized after every update (the
  performance-oriented-iteration flavor of Wood, Li, Shaddick & Augustin,
  2017), while ``max_inner > 1`` iterates the pseudo-data loop to
  convergence before each update.
* :func:`fit_gsmm` -- general smooth models with user-supplied gradient and
  Hessian, estimated by a stabilized Newton loop.

These and the quasi-Newton :func:`smoothfit.lqefs.lqefs_fit` share one
outer loop, :func:`_efs_loop`: solve at lambda = 1, then evaluate each
solved point and either halve the pending update from the last accepted
point (while the REML gradient points against it), stop (the objective
moved less than ``tol`` relative to the last accepted point) or take the
next update and solve.  The returned coefficients always solve the problem
at the returned lambda.  An engine supplies three parts:

* ``solve(lams, start)`` -- the point at ``lams`` from ``start`` (``None``
  at first): Fisher steps for am/gam, Newton steps for gsmm;
* ``evaluate(point, lams)`` -- an :class:`_Evaluation`: the objective
  (penalized deviance or log-likelihood), the scale, tr(S_lambda^- S^r),
  tr(H_p^{-1} S^r) and beta^T S^r beta;
* ``finish(point, ev, lams)`` -- the retained columns (indices) and the
  engine's REML score, log-likelihood, factor and diagnostics.

The exact engines (am, gam, gsmm) have one solve route, the sparse
Cholesky factor of the penalized Hessian, and one rank check, run at the
first solve (:func:`rank_check`): when that factor fails, needs a ridge or
is ill-conditioned, the columns that no penalty identifies are removed
from the design and the point is solved again on the retained columns.
The fit then reports beta with zeros at the dropped columns and its REML
score on the retained ones.

A term's EDF is its retained columns less the sum of lambda_r tr(H_p^{-1}
S^r) over its r, since every S^r lies inside its term's column block.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr as dense_qr

from . import sparsela
from .design import PenalizedDesign, balanced_penalty
from .errors import IndefiniteError, NumericError, SpecError
from .families import Gaussian, IdentityLink, pseudo_data

RHO_LO, RHO_HI = -12.0, 12.0
LAM_LO, LAM_HI = np.exp(RHO_LO), np.exp(RHO_HI)
QUAD_FLOOR = 1e-14
#: most halvings of one proposed update under the gradient-sign check
MAX_HALF = 10


@dataclass
class EFSControl:
    max_outer: int = 200
    max_inner: int = 1
    tol: float = 1e-7
    stabilize: bool = True

    def __post_init__(self):
        if self.max_inner < 1:
            raise SpecError("max_inner must be at least 1")
        if self.tol <= 0:
            raise SpecError("tol must be positive")


@dataclass
class FitState:
    """Converged (or flagged) state of one model fit."""

    beta: np.ndarray
    lam: np.ndarray
    phi: float
    edf: float
    reml: float
    penalized_llk: float
    llk: float
    iterations: int
    converged: bool
    eps_H: float = 0.0
    dropped: set = field(default_factory=set)
    term_edf: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    engine: str = ""
    # engine internals (not part of the reported surface)
    _design: object = None
    _factor: object = None
    _weights: object = None     # final working weights (None: unit)
    _z: object = None           # final working response (pseudo-data)
    _family: object = None
    _link: object = None
    _transform: object = None   # orthogonal stabilizer T (sparse) or None

    @property
    def rho(self):
        return np.log(self.lam)

    # ----- posterior interface used by the uncertainty module ---------------
    @property
    def _keep(self):
        return self.diagnostics.get("keep")

    def _to_work(self, v):
        """Original coordinates -> (reduced) working coordinates."""
        vw = v if self._transform is None else \
            np.asarray(self._transform.T @ v)
        keep = self._keep
        if keep is not None and keep.size != vw.shape[0]:
            vw = vw[keep] if vw.ndim == 1 else vw[keep, :]
        return vw

    def _from_work(self, v):
        """(Reduced) working coordinates -> original, dropped entries zero."""
        keep = self._keep
        if keep is not None:
            n_work = self._transform.shape[0] if self._transform is not None \
                else self._design.N_p
            if v.shape[0] != n_work:
                full = np.zeros((n_work,) + v.shape[1:])
                full[keep] = v
                v = full
        return v if self._transform is None else \
            np.asarray(self._transform @ v)

    def solve_H(self, b):
        """(H + S_lambda [+ eps I])^{-1} b in original coordinates, unscaled;
        ``b`` is a vector or a dense block of columns."""
        b = np.asarray(b, dtype=float)
        return self._from_work(self._factor.solve(self._to_work(b)))

    def half_solve_t(self, Z):
        """D P^T L^{-T} Z mapped to original coordinates (posterior sampler)."""
        return self._from_work(self._factor.half_tsolve_scatter(Z))

    def trace_inv_pair(self, j, l):
        return sparsela.trace_inv_pair(self._factor,
                                       self.work_design.root_cols(j),
                                       self.work_design.root_cols(l))

    @property
    def logdet_H(self):
        return self._factor.logdet

    @property
    def work_design(self):
        return self.diagnostics.get("work_design", self._design)

    def apply_Hllk(self, v):
        """H v (negative log-likelihood Hessian at the estimate)."""
        v = np.asarray(v, dtype=float)
        if self.engine in ("am", "gam"):
            X = self._design.X_full
            t = np.asarray(X @ v)
            if self._weights is not None:
                t = t * self._weights
            return np.asarray(X.T @ t)
        if self.engine == "lqefs":
            return self.diagnostics["h_rep"].matvec(v)
        Hw = self.diagnostics["H_llk"]
        return self._from_work(np.asarray(Hw @ self._to_work(v)))

    def covariance_scale(self):
        """phi multiplier turning solve_H into the posterior covariance."""
        return self.phi if self.engine in ("am", "gam") else 1.0


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

class PenalizedSystem:
    """Canonical sparsity pattern, cached symbolic factor and cached penalty
    values of ``base + S_lambda``.

    ``base`` is the matrix whose pattern joins the penalties': X^T X of the
    design by default, I for the quasi-Newton H0, and pattern-only
    matrices whose values go unused for the weighted working model
    (|X|^T |X|) and the Newton engine (the union of X^T X, H and I).  The
    pattern depends neither on the weights nor on the regularization
    parameters, so the ordering, the symbolic analysis and the values of
    ``base`` and of every embedded S^r in the pattern's slots are computed
    once per model; the values of base + S_lambda are then
    ``base_vals + lams @ S_vals``.
    """

    def __init__(self, design, base=None):
        if base is None:
            X = design.X_full
            base = X.T @ X
        base = sp.csc_array(base)
        # absolute values: scipy's sparse add drops exact-zero sums, so a
        # cancellation must not remove an entry from the pattern
        pattern = abs(base)
        for r in range(design.n_lambda):
            pattern = pattern + abs(design.S_emb(r))
        pattern = sparsela.as_csc(pattern)
        n = pattern.shape[0]
        # column-major keys of the canonical pattern; values are scattered
        # into it by structure
        self._keys = pattern.indices.astype(np.int64) + n * np.repeat(
            np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
        self.n = n
        self.perm = sparsela.fill_reducing_permutation(pattern)
        self.symbolic = sparsela.SymbolicChol(pattern, self.perm)
        self.base_vals = self.align_values(base)
        self.S_vals = np.array([self.align_values(design.S_emb(r))
                                for r in range(design.n_lambda)]).reshape(
                                    design.n_lambda, self._keys.size)

    def align_values(self, A):
        """Scatter the entries of A into the canonical pattern's data slots."""
        A = sparsela.as_csc(sp.csc_array(A))
        akeys = A.indices.astype(np.int64) + self.n * np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(A.indptr))
        pos = np.searchsorted(self._keys, akeys)
        if pos.size and (np.any(pos >= self._keys.size)
                         or np.any(self._keys[pos] != akeys)):
            raise NumericError("matrix entries fall outside the analyzed "
                               "sparsity pattern")
        vals = np.zeros(self._keys.size)
        vals[pos] = A.data
        return vals

    def factor(self, A, dscale=None):
        return self.symbolic.factor(self.align_values(A), dscale=dscale)


def solve_penalized(X, response, w, design, lams, system=None):
    """Solve (X^T W X + S_lambda) beta = X^T W response.

    The normal matrix is factored by a sparse Cholesky with the cached
    fill-reducing permutation: with a ``system`` built on this design's
    X^T X, its values are the cached ones plus the aligned X^T W X for
    non-unit weights.

    Returns ``(beta, factor)``: ``beta`` is a 1-D array of length N_p, even
    when N_p = 1, and ``factor`` is the factor of the penalized Hessian.
    """
    X = sp.csc_array(X)
    unit_w = w is None
    w = np.ones(X.shape[0]) if unit_w else np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise SpecError("negative working weights")
    rhs = np.asarray(X.T @ (w * np.asarray(response, dtype=float)))
    XtWX = None if unit_w else X.T @ X.multiply(w[:, None])
    if system is None:
        A = (X.T @ X if unit_w else XtWX) + design.S_lambda(lams)
        factor = sparsela.pivoted_cholesky(sp.csc_array(A))
    else:
        base = system.base_vals if unit_w else system.align_values(XtWX)
        factor = system.symbolic.factor(
            base + np.asarray(lams, dtype=float) @ system.S_vals)
    return factor.solve(rhs), factor


def efs_step(lam_r, tr_S, tr_H, quad, phi=1.0):
    """Additive Fellner-Schall update for one regularization parameter.

    Returns (delta, clamped_flag).  A vanishing coefficient quadratic form
    sends the parameter to the upper clamp (the term is penalized away).
    """
    if quad <= QUAD_FLOOR:
        return LAM_HI - lam_r, True
    new = lam_r * (tr_S - tr_H) / quad * phi
    clamped = new < LAM_LO or new > LAM_HI
    new = float(np.clip(new, LAM_LO, LAM_HI))
    return new - lam_r, clamped


def estimate_phi(rss_pen, n, mp):
    """REML scale estimate: (weighted RSS + penalty) / (N - M_p).

    ``mp`` is the total penalty null-space dimension.  Verified against the
    1-d grid maximizer of the REML criterion in the test suite.
    """
    denom = n - mp
    if denom <= 0:
        raise NumericError("fewer observations than unpenalized directions")
    phi = rss_pen / denom
    if not np.isfinite(phi) or phi < 0:
        raise NumericError("scale estimate is not finite")
    return max(phi, 1e-12)


def reml_value(design, factor, lams, llk_pen, phi=1.0):
    """Laplace REML criterion: L_pen + 0.5 log|S/phi|_+ - 0.5 log|H_p|.

    ``factor`` factors the unscaled penalized Hessian of ``design`` (the
    retained columns of a fit that dropped some); the lambda-constant
    additive term is omitted.
    """
    ld_s = design.logdet_S_plus(lams) - design.penalty_rank * np.log(phi)
    ld_h = factor.logdet - design.N_p * np.log(phi)
    return float(llk_pen + 0.5 * ld_s - 0.5 * ld_h)


def reml_grad(design, factor, lams, beta, phi=1.0):
    """Gradient of the REML criterion over lambda (envelope condition used).

    Per coordinate: -b^T S^r b/(2 phi) + tr(S^- S^r)/2 - tr(H_p^{-1} S^r)/2;
    multiply by lambda for the log-scale gradient.  Returns
    (grad, tr_S, tr_H, quads).
    """
    tr_S = design.trace_sinv(lams)
    tr_H = sparsela.trace_inv_form(factor, *design.trace_roots())
    quads = np.array([float(beta @ (design.S_emb(r) @ beta))
                      for r in range(design.n_lambda)])
    return -quads / (2.0 * phi) + 0.5 * tr_S - 0.5 * tr_H, tr_S, tr_H, quads


def _clip_lams(lams):
    return np.clip(lams, LAM_LO, LAM_HI)


@dataclass
class _Evaluation:
    """One solved point, evaluated.  The EDFs and diagnostics report
    ``tr_H``; ``tr_step``, when given, replaces it in the update and the
    gradient check.  ``extra`` is engine data for ``finish``."""

    objective: float
    tr_S: np.ndarray
    tr_H: np.ndarray
    quads: np.ndarray
    phi: float = 1.0
    tr_step: np.ndarray = None
    extra: object = None

    @property
    def traces(self):
        return self.tr_H if self.tr_step is None else self.tr_step

    @property
    def grad(self):
        """REML gradient over lambda, as :func:`reml_grad` forms it."""
        return -self.quads / (2.0 * self.phi) + 0.5 * self.tr_S \
            - 0.5 * self.traces


def _efs_loop(design, solve, evaluate, finish, control, max_half=MAX_HALF,
              rho_step_max=None, settled=None):
    """The outer loop of every engine (see the module docstring); returns
    the :class:`FitState`.  ``rho_step_max`` caps each update's move of a
    log weight and ``settled(rel, lams, lams_prev)`` is one more stop; the
    quasi-Newton engine sets both."""
    n_l = design.n_lambda
    lams = np.ones(n_l)
    point = solve(lams, None)
    clamped = np.zeros(n_l, dtype=bool)
    pending = None
    halvings = 0
    converged = False
    it = 0
    for it in range(1, control.max_outer + 1):
        ev = evaluate(point, lams)
        if pending is not None:
            if halvings < max_half and float(ev.grad @ pending) < 0:
                pending = pending / 2.0
                halvings += 1
                lams = _clip_lams(acc_lams + pending)
                point = solve(lams, acc_point)
                continue
            rel = abs(acc_obj - ev.objective) / (abs(ev.objective) + 1e-12)
            if rel < control.tol or (settled is not None
                                     and settled(rel, lams, acc_lams)):
                converged = True
                break
        acc_lams, acc_point, acc_obj = lams, point, ev.objective
        pending = np.zeros(n_l)
        for r in range(n_l):
            delta, clamped_r = efs_step(lams[r], ev.tr_S[r], ev.traces[r],
                                        ev.quads[r], ev.phi)
            if rho_step_max is not None:
                delta = np.clip(lams[r] + delta,
                                lams[r] * np.exp(-rho_step_max),
                                lams[r] * np.exp(rho_step_max)) - lams[r]
            pending[r] = delta
            clamped[r] |= clamped_r
        halvings = 0
        lams = _clip_lams(lams + pending)
        point = solve(lams, point)
    if not converged:
        ev = evaluate(point, lams)

    keep, fields = finish(point, ev, lams)
    kept = np.zeros(design.N_p, dtype=bool)
    kept[keep] = True
    term_edf = {
        t.spec.name: float(np.count_nonzero(
            kept[t.col_start:t.col_start + t.col_count])
            - sum(lams[r] * ev.tr_H[r] for r in t.lam_indices))
        for t in design.terms}
    diagnostics = {"lambda_clamped": clamped.tolist(),
                   "tr_S": ev.tr_S.tolist(), "tr_H": ev.tr_H.tolist(),
                   "quads": ev.quads.tolist(), **fields.pop("diagnostics")}
    edf = float(np.count_nonzero(kept) - np.sum(lams * ev.tr_H))
    return FitState(lam=lams, phi=ev.phi, edf=edf, iterations=it,
                    converged=converged,
                    dropped=set(np.flatnonzero(~kept).tolist()),
                    term_edf=term_edf, diagnostics=diagnostics, **fields)


# ---------------------------------------------------------------------------
# additive / generalized additive engines
# ---------------------------------------------------------------------------

def fit_additive(design, y, control=None):
    """Gaussian identity additive model (exact REML fixed point)."""
    return _fit_working(design, y, Gaussian(), IdentityLink(),
                        control or EFSControl(), engine="am")


def fit_gam(design, y, family, link=None, control=None):
    """Exponential-family model via Fisher scoring plus EFS updates."""
    from .families import get_link
    if link is None:
        link = get_link(family.default_link)
    return _fit_working(design, y, family, link, control or EFSControl(),
                        engine="gam")


class _WorkingModel:
    """The am/gam engine: linearize+solve steps of the working
    (pseudo-data) model on the retained columns ``keep`` of the design,
    whose design is ``active``.  A point is ``(beta, penalized deviance,
    mu, factor, z, w)`` with beta over the retained columns."""

    def __init__(self, design, yv, family, link, control, engine):
        self.engine = engine
        self.design = design
        self.yv = yv
        self.family = family
        self.link = link
        self.control = control
        self.gaussian_identity = isinstance(family, Gaussian) and \
            isinstance(link, IdentityLink)
        self.clamp_events = 0

    def linearize(self, mu):
        if self.gaussian_identity:
            return self.yv, None
        z, w, nclamp = pseudo_data(self.yv, mu, self.link, self.family)
        self.clamp_events += nclamp
        return z, w

    def pen_deviance(self, beta, lams):
        mu = self.link.inverse(np.asarray(self.X @ beta))
        mu, _ = self.link.clamp(mu)
        pen = float(np.asarray(lams) @ self.active.quad_forms(beta))
        return self.family.deviance(self.yv, mu) + pen, mu

    def halve_beta(self, beta_new, beta_old, dev_old, lams):
        """Shrink toward the previous estimate while the penalized deviance
        increases (half-stepping of the Fisher update).  ``dev_old`` must be
        evaluated at the same lams."""
        dev_new, mu_new = self.pen_deviance(beta_new, lams)
        tries = 0
        while dev_new > dev_old + 1e-12 * (abs(dev_old) + 1.0) \
                and tries < 30:
            beta_new = 0.5 * (beta_new + beta_old)
            dev_new, mu_new = self.pen_deviance(beta_new, lams)
            tries += 1
        return beta_new, dev_new, mu_new

    def step(self, lams, z, w, beta_prev):
        """Solve the working model (z, w) at lams, apply beta step control.

        The reference objective for step control is re-evaluated at the
        current lams (the previous accepted deviance belongs to the old
        penalty and is not comparable).
        """
        beta_new, factor = solve_penalized(self.X, z, w, self.active, lams,
                                           system=self.system)
        if beta_prev is None or self.gaussian_identity:
            dev, mu_new = self.pen_deviance(beta_new, lams)
            return beta_new, dev, mu_new, factor, z, w
        dev_ref, _ = self.pen_deviance(beta_prev, lams)
        beta, dev, mu_new = self.halve_beta(beta_new, beta_prev, dev_ref,
                                            lams)
        return beta, dev, mu_new, factor, z, w

    def phi_hat(self, beta, lams, z, w):
        if not self.family.has_scale:
            return 1.0
        wq = np.ones(self.design.N) if w is None else w
        resid = np.sqrt(wq) * (z - np.asarray(self.X @ beta))
        pen = float(np.asarray(lams) @ self.active.quad_forms(beta))
        mp = self.active.N_p - self.active.penalty_rank
        return estimate_phi(float(resid @ resid) + pen, self.design.N, mp)

    def solve(self, lams, start):
        """One step from the initial mu at first, through the rank check on
        X^T W X; then up to ``max_inner`` steps, until the penalized
        deviance settles."""
        if start is None:
            mu = self.family.init_mu(self.yv)
            if not self.gaussian_identity:
                mu, _ = self.link.clamp(mu)
            z, w = self.linearize(mu)

            def solve_on(active, keep):
                self.active, self.keep = active, keep
                X = self.X = active.X_full
                # scipy's sparse product drops exact-zero sums of X^T X (a
                # sum-to-zero smooth column against the intercept) that
                # X^T W X fills, so weighted models take |X|^T |X|
                self.system = PenalizedSystem(
                    active, None if w is None else abs(X).T @ abs(X))
                point = self.step(lams, z, w, None)
                return point, point[3], 0.0

            X = self.design.X_full
            return rank_check(self.design, solve_on, lambda _: X.T @ (
                X if w is None else X.multiply(w[:, None])))
        beta, dev, mu = start[:3]
        for _ in range(1 if self.gaussian_identity
                       else self.control.max_inner):
            point = self.step(lams, *self.linearize(mu), beta)
            done = abs(dev - point[1]) < self.control.tol * (
                abs(point[1]) + 1.0)
            beta, dev, mu = point[:3]
            if done:
                break
        return point

    def evaluate(self, point, lams):
        beta, dev, _, factor, z, w = point
        phi = self.phi_hat(beta, lams, z, w)
        _, tr_S, tr_H, quads = reml_grad(self.active, factor, lams, beta,
                                         phi=phi)
        return _Evaluation(dev, tr_S, tr_H, quads, phi)

    def finish(self, point, ev, lams):
        design, active, phi = self.design, self.active, ev.phi
        beta, dev_pen, _, factor, z, w = point
        pen = float(np.asarray(lams) @ active.quad_forms(beta))
        mu_fit = self.link.inverse(np.asarray(self.X @ beta))
        llk = float(np.sum(self.family.log_density(
            self.yv, self.link.clamp(mu_fit)[0], phi)))
        llk_pen = llk - pen / (2.0 * phi)
        if self.gaussian_identity:
            llk_reml = llk_pen
        else:
            wq = np.ones(design.N) if w is None else w
            resid = np.sqrt(wq) * (z - np.asarray(self.X @ beta))
            llk_work = float(0.5 * np.sum(np.log(wq))
                             - 0.5 * design.N * np.log(2.0 * np.pi * phi)
                             - float(resid @ resid) / (2.0 * phi))
            llk_reml = llk_work - pen / (2.0 * phi)
        beta_full = np.zeros(design.N_p)
        beta_full[self.keep] = beta
        return self.keep, dict(
            beta=beta_full,
            reml=reml_value(active, factor, lams, llk_reml, phi=phi),
            penalized_llk=llk_pen, llk=llk, engine=self.engine,
            diagnostics={"mu_clamp_events": self.clamp_events,
                         "reml_grad_lambda": ev.grad.tolist(),
                         "factor_nnz": factor.nnz_L(),
                         "penalized_deviance": dev_pen,
                         "work_design": active, "keep": self.keep},
            _design=design, _factor=factor, _weights=w, _z=z,
            _family=self.family, _link=self.link)


def _fit_working(design, y, family, link, control, engine):
    y_user = np.asarray(y, dtype=float)
    if y_user.shape[0] != design.N:
        raise SpecError("response length does not match the design")
    family.validate(y_user)
    wm = _WorkingModel(design, design.to_internal(y_user), family, link,
                       control, engine)
    return _efs_loop(design, wm.solve, wm.evaluate, wm.finish, control)


# ---------------------------------------------------------------------------
# stabilization, rank interrogation
# ---------------------------------------------------------------------------

def preconditioner(h_diag):
    """Diagonal D with D_ii = |H_ii|^{-1/2}; zero diagonals get 1."""
    d = np.abs(np.asarray(h_diag, dtype=float))
    out = np.ones_like(d)
    nz = d > 0
    out[nz] = 1.0 / np.sqrt(d[nz])
    return out


def stabilize(design):
    """The orthogonal stabilizing transform T of a design, sparse.

    T is block-diagonal: on every penalized cluster it holds the
    eigenvectors of the balanced local penalty, identity elsewhere, and
    coefficients transform as beta = T beta_work.  It does not depend on
    the regularization weights, so it is computed once per model.
    """
    n_p = design.N_p
    T = sp.eye_array(n_p, format="lil")
    for cl in design.clusters:
        bal = sum(C / np.linalg.norm(C) for C in cl.cores.values())
        ev, W = np.linalg.eigh(0.5 * (bal + bal.T))
        order = np.argsort(ev)[::-1]
        W = W[:, order]
        T[cl.offset:cl.offset + cl.size, cl.offset:cl.offset + cl.size] = W
    return sp.csc_array(T)


def transformed_design(design, T):
    """Clone of a design re-expressed in the stabilized parameterization
    beta = T beta_work."""
    from .basis import transform_cores
    from .design import PenaltyBlock
    X_blocks = [sp.csc_array(Xb @ T[sl.start:sl.stop, sl.start:sl.stop])
                for Xb, sl in zip(design.X_blocks, design.param_slices)]
    blocks = []
    for b in design.penalty_blocks:
        W = np.asarray(T[b.offset:b.offset + b.core.k,
                         b.offset:b.offset + b.core.k].todense())
        core = transform_cores([b.core], W)[0]
        blocks.append(PenaltyBlock(core=core, offset=b.offset,
                                   lam_index=b.lam_index,
                                   term_index=b.term_index))
    return PenalizedDesign(design.spec, X_blocks, design.param_slices,
                           blocks, design.terms, design.row_order,
                           design.n_lambda, sort_factor=design.sort_factor)


def detect_unidentifiable(H, design, restrict=False, drop_tol=1e-7):
    """Coefficients that stay unidentifiable regardless of regularization.

    A dense column-pivoted QR of the balanced, scale-free matrix
    H/||H||_F + S_bal/||S_bal||_F (without the penalty term for a design
    that has none) flags the columns whose diagonal entry of R does not
    exceed ``drop_tol`` times the first: all of them when the matrix is
    zero.  ``restrict`` limits the interrogation to parametric terms and
    smooths with a non-trivial penalty kernel, since fully penalized
    random terms cannot cause lambda-independent rank deficiency.
    """
    H = sparsela.as_csc(sp.csc_array(H))
    h_norm = sp.linalg.norm(H)
    HS = H / h_norm if h_norm > 0 else H
    if design.n_lambda:
        Sb = balanced_penalty(design)
        HS = HS + Sb / sp.linalg.norm(Sb)
    n_p = design.N_p
    if restrict:
        cols = []
        for t in design.terms:
            if t.spec.kind in ("intercept", "linear", "smooth", "tensor",
                               "factor_smooth"):
                cols.extend(range(t.col_start, t.col_start + t.col_count))
        cols = np.array(sorted(cols), dtype=np.int64)
    else:
        cols = np.arange(n_p, dtype=np.int64)
    if cols.size == 0:
        return set()
    A = np.asarray(HS[np.ix_(cols, cols)].todense())

    _, Rq, piv = dense_qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(Rq))
    ref = diag[0] if diag.size else 0.0
    bad = np.flatnonzero(diag <= drop_tol * ref)
    return {int(cols[piv[j]]) for j in bad}


def reduced_design(design, dropped):
    """Design restricted to the kept columns; penalties sliced accordingly."""
    from .basis import transform_cores
    from .design import PenaltyBlock
    keep = np.array([j for j in range(design.N_p) if j not in dropped],
                    dtype=np.int64)
    pos = -np.ones(design.N_p, dtype=np.int64)
    pos[keep] = np.arange(keep.size)
    X_blocks = []
    param_slices = []
    start = 0
    for Xb, sl in zip(design.X_blocks, design.param_slices):
        local = keep[(keep >= sl.start) & (keep < sl.stop)] - sl.start
        X_blocks.append(sp.csc_array(Xb[:, local]))
        param_slices.append(slice(start, start + local.size))
        start += local.size
    blocks = []
    for b in design.penalty_blocks:
        rng = np.arange(b.offset, b.offset + b.core.k)
        kept_local = np.flatnonzero(pos[rng] >= 0)
        if kept_local.size == 0:
            continue
        sel = np.zeros((b.core.k, kept_local.size))
        sel[kept_local, np.arange(kept_local.size)] = 1.0
        core = transform_cores([b.core], sel)[0]
        blocks.append(PenaltyBlock(core=core,
                                   offset=int(pos[rng[kept_local][0]]),
                                   lam_index=b.lam_index,
                                   term_index=b.term_index))
    out = PenalizedDesign(design.spec, X_blocks, param_slices, blocks,
                          design.terms, design.row_order, design.n_lambda,
                          sort_factor=design.sort_factor)
    return out, keep


def rank_check(design, solve_on, hessian):
    """The first solve of an exact engine, with the one rank check.

    ``solve_on(active, keep)`` solves the first point on ``active``, the
    retained columns ``keep`` of ``design``, and returns ``(point, factor,
    eps)``: the factor of the penalized Hessian and the ridge it took.  The
    check runs when that solve raises :class:`IndefiniteError`, takes
    eps > 0 or gives a factor whose condition estimate exceeds
    ``sparsela.CONDITION_WARN``.  :func:`detect_unidentifiable` then picks
    the columns of the likelihood Hessian ``hessian(point)`` (``point`` is
    None after an IndefiniteError) that no penalty identifies, and the
    point is solved again without them.  Returns the point; ``solve_on``
    records the design it was solved on.
    """
    keep = np.arange(design.N_p)
    try:
        point, factor, eps = solve_on(design, keep)
    except IndefiniteError as exc:
        point, failure = None, exc
    else:
        if eps == 0.0 and sparsela.condition_estimate(factor) <= \
                sparsela.CONDITION_WARN:
            return point
    dropped = detect_unidentifiable(hessian(point), design)
    if len(dropped) == design.N_p:
        raise SpecError("all columns flagged unidentifiable")
    if dropped:
        return solve_on(*reduced_design(design, dropped))[0]
    if point is None:
        raise failure
    return point


# ---------------------------------------------------------------------------
# Newton engine for general smooth models
# ---------------------------------------------------------------------------

def _as_sparse_H(H):
    if H is None:
        raise SpecError("family provides no Hessian; use the quasi-Newton "
                        "engine instead")
    return sp.csc_array(H) if sp.issparse(H) else sp.csc_array(np.asarray(H))


def _ridge_factor(system, H, lams, eps=0.0, factor=None, accept=None):
    """Factor H + S_lambda + eps I with the diagonal preconditioner.

    ``system`` is the Newton engine's, whose pattern contains I.  A failed
    factorization, or one ``accept`` rejects, raises eps to
    max(10 eps, 1e-8 ||H||_F, 1e-14) and then tenfold per failure, up to
    1e4 max(||H||_F, 1).  ``factor`` is an existing factor at ``eps`` to
    check first.  Returns ``(factor, eps)``.
    """
    h_norm = sp.linalg.norm(H)
    vals = system.align_values(H) + np.asarray(lams, dtype=float) \
        @ system.S_vals
    n = system.n
    diag = np.searchsorted(system._keys, np.arange(n) * (n + 1))
    eps_next = max(10.0 * eps, 1e-8 * h_norm, 1e-14)
    cap = 1e4 * max(h_norm, 1.0)
    while True:
        if factor is None:
            A = vals.copy()
            A[diag] += eps
            try:
                factor = system.symbolic.factor(
                    A, dscale=preconditioner(A[diag]))
            except IndefiniteError:
                pass
        if factor is not None and (accept is None or accept(factor)):
            return factor, eps
        eps, eps_next, factor = eps_next, 10.0 * eps_next, None
        if eps > cap:
            raise NumericError(
                "penalized Hessian stayed indefinite at the ridge cap; "
                "drop terms or reparameterize the model")


def newton_beta(design, family, lams, beta0=None, control=None, system=None,
                max_iter=100):
    """Penalized Newton iterations with ridge escalation and step halving.

    Returns (beta, factor, eps, H, llk_pen, llk, converged, system); the
    factor is of H + S_lambda + eps I with eps transient (0 at exit unless
    the Hessian stayed indefinite near the optimum).
    """
    control = control or EFSControl()
    S_lam = design.S_lambda(lams)
    beta = family.init_coef(design) if beta0 is None else beta0.copy()
    llk = family.llk(beta, design)
    llk_pen = llk - 0.5 * float(beta @ (S_lam @ beta))
    eps = 0.0
    factor = None
    H = None
    converged = False
    for _ in range(max_iter):
        g = family.grad(beta, design) - np.asarray(S_lam @ beta)
        H = _as_sparse_H(-family.hess(beta, design))
        if system is None:
            # pattern only: later Hessians and ridges stay inside it
            X = design.X_full
            system = PenalizedSystem(design, base=abs(X.T @ X) + abs(H)
                                     + sp.eye_array(design.N_p))
        factor, eps = _ridge_factor(system, H, lams)
        delta = factor.solve(g)
        beta_new = beta + delta
        llk_new = family.llk(beta_new, design)
        pen_new = 0.5 * float(beta_new @ (S_lam @ beta_new))
        tries = 0
        while llk_new - pen_new < llk_pen and tries < 30:
            beta_new = 0.5 * (beta_new + beta)
            llk_new = family.llk(beta_new, design)
            pen_new = 0.5 * float(beta_new @ (S_lam @ beta_new))
            tries += 1
        step = np.max(np.abs(beta_new - beta)) / (1.0 + np.max(np.abs(beta)))
        rel = abs(llk_new - pen_new - llk_pen) / (abs(llk_pen) + 1e-12)
        beta, llk_pen, llk = beta_new, llk_new - pen_new, llk_new
        if rel < control.tol and step < control.tol:
            converged = True
            break
    return beta, factor, eps, H, llk_pen, llk, converged, system


def make_efs_safe(H, design, lams, system, factor, eps):
    """Raise the ridge until tr(S^- S^r) >= tr(H_p^{-1} S^r) for all r.

    This enforces the positive-semi-definiteness requirement on H that
    keeps every Fellner-Schall numerator non-negative.  ``factor`` is the
    factor of H + S_lambda + eps I.  Returns (factor, eps, tr_S, tr_H).
    """
    tr_S = design.trace_sinv(lams)
    tr_H = None

    def efs_safe(f):
        nonlocal tr_H
        tr_H = sparsela.trace_inv_form(f, *design.trace_roots())
        return np.all(tr_S - tr_H >= -1e-12 * np.maximum(np.abs(tr_S), 1.0))
    factor, eps = _ridge_factor(system, H, lams, eps, factor, efs_safe)
    return factor, eps, tr_S, tr_H


def fit_gsmm(design, family, control=None):
    """General smooth model: Newton for beta, EFS for the regularization.

    Fitting happens in the stabilized parameterization; the returned
    coefficients are in the original one.  A point is ``(beta, factor,
    eps, H, llk_pen, llk)`` in the working coordinates of the columns
    kept by the rank check on H.
    """
    control = control or EFSControl()
    T = stabilize(design) if control.stabilize else None
    work = transformed_design(design, T) if T is not None else design
    active, keep, system = work, np.arange(work.N_p), None

    def solve(lams, start):
        nonlocal active, keep, system
        if start is None:
            def solve_on(d, kept):
                nonlocal active, keep
                active, keep = d, kept
                point = newton_beta(d, family, lams,
                                    beta0=family.init_coef(work)[kept],
                                    control=control)
                return point, point[1], point[2]

            point = rank_check(work, solve_on, lambda p: p[3])
        else:
            point = newton_beta(active, family, lams, beta0=start[0],
                                control=control, system=system)
        system = point[7]
        return point[:6]

    def evaluate(point, lams):
        beta, factor, eps, H, llk_pen, _ = point
        factor, eps, tr_S, tr_H = make_efs_safe(H, active, lams, system,
                                                factor, eps)
        quads = np.array([float(beta @ (active.S_emb(r) @ beta))
                          for r in range(active.n_lambda)])
        return _Evaluation(llk_pen, tr_S, tr_H, quads, extra=(factor, eps))

    def finish(point, ev, lams):
        beta, _, _, H, llk_pen, llk = point
        factor, eps = ev.extra
        beta_work = np.zeros(work.N_p)
        beta_work[keep] = beta
        return keep, dict(
            beta=np.asarray(T @ beta_work) if T is not None else beta_work,
            reml=reml_value(active, factor, lams, llk_pen, phi=1.0),
            penalized_llk=llk_pen, llk=llk, eps_H=eps, engine="gsmm",
            diagnostics={"reml_grad_lambda": ev.grad.tolist(), "H_llk": H,
                         "factor_nnz": factor.nnz_L(), "work_design": active,
                         "keep": keep},
            _design=design, _factor=factor, _family=family, _transform=T)

    return _efs_loop(design, solve, evaluate, finish, control)
