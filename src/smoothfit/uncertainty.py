"""Regularization-parameter uncertainty and corrected model selection.

The conditional AIC treats the estimated regularization as known, which
biases nested comparisons toward the complex model (Greven & Kneib, 2010).
The corrections here quantify the uncertainty of the log regularization
parameters through the curvature of the REML criterion -- computed under
the working assumption that the negative log-likelihood Hessian does not
change with the penalties, which is exact for strictly additive models --
and propagate it into the effective degrees of freedom, either through the
additive covariance correction of Wood, Pya & Saefken (2016) or through
Monte Carlo averaging over the (approximate) posterior of the log
regularization parameters (Greven & Scheipl, 2016).

All internal computations absorb the optional scale parameter into the
regularization weights.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf
from scipy.special import ndtri

from . import sparsela
from .efs import reml_value
from .errors import IndefiniteError, SpecError

#: flat-direction thresholds: a coordinate is dropped from the rho
#: posterior when both its REML gradient and curvature vanish, or when it
#: sits at the clamp
GRAD_FLAT_RTOL = 1e-5
CURV_FLAT_RTOL = 1e-5
RIDGE_RTOL = 1e-8


@dataclass
class RhoPosterior:
    """Normal approximation to the posterior of the log regularization."""

    rho_hat: np.ndarray
    V_rho: np.ndarray
    dropped_dims: list
    regularization_added: float


@dataclass
class AicReport:
    llk: float
    tau: float
    tau_prime: float
    variant: str
    caic: float
    n_samples: int = 0
    seed: int = 0
    flags: dict = field(default_factory=dict)


def _phi_absorbed(fit):
    """(lams_tilde, trace hooks) in the scale-absorbed parameterization."""
    phi = fit.covariance_scale()
    lams_t = fit.lam / phi
    return phi, lams_t


def dbeta_drho(fit, design=None):
    """J with columns d beta_hat / d rho_r = -lambda_r H_p^{-1} S^r beta_hat.

    Implicit differentiation of the penalized stationarity condition with
    the likelihood Hessian held fixed; the scale parameter cancels.
    """
    design = fit._design if design is None else design
    beta = fit.beta
    if design.n_lambda == 0:
        return np.zeros((beta.size, 0))
    cols = []
    for r in range(design.n_lambda):
        v = np.asarray(design.S_emb(r) @ beta)
        cols.append(-fit.lam[r] * fit.solve_H(v))
    return np.column_stack(cols)


def reml_hessian_rho(fit, design=None):
    """Hessian of the REML criterion over the log regularization weights.

    Assembled from the trace pairs tr(H_p^{-1} S^j H_p^{-1} S^l) and
    tr(S^- S^j S^- S^l) plus the coefficient sensitivities; exact for
    strictly additive Gaussian models, the stationary-Hessian
    approximation otherwise (flagged in reports for non-Gaussian fits).
    """
    design = fit._design if design is None else design
    phi, lams_t = _phi_absorbed(fit)
    n_l = design.n_lambda
    beta = fit.beta
    J = dbeta_drho(fit, design)
    Sb = [np.asarray(design.S_emb(r) @ beta) for r in range(n_l)]
    quads = design.quad_forms(beta)
    tr_S = design.trace_sinv(lams_t)
    pair_S = design.trace_sinv_pair(lams_t)
    tr_H = phi * sparsela.trace_inv_form(fit._factor,
                                         *fit.work_design.trace_roots())
    A = np.zeros((n_l, n_l))
    for j in range(n_l):
        for l in range(j, n_l):
            same = 1.0 if j == l else 0.0
            pair_H = phi ** 2 * fit.trace_inv_pair(j, l)
            # in the absorbed scale J_l = -lam_l H_p^{-1} S^l beta, so
            # J_j^T H_p J_l = -lam_l J_j^T S^l beta
            jhj = -lams_t[l] * float(J[:, j] @ Sb[l])
            a = -same * lams_t[l] / 2.0 * quads[l] \
                - jhj \
                - lams_t[j] * float(Sb[j] @ J[:, l]) \
                - lams_t[l] * float(Sb[l] @ J[:, j])
            a -= 0.5 * (same * lams_t[l] * tr_H[l]
                        - lams_t[j] * lams_t[l] * pair_H)
            a += 0.5 * (same * lams_t[l] * tr_S[l]
                        - lams_t[j] * lams_t[l] * pair_S[j, l])
            A[j, l] = a
            A[l, j] = a
    return A


def rho_posterior(fit, design=None):
    """Invert the negative REML Hessian into the rho covariance.

    Flat directions (vanishing gradient and curvature, or a clamped
    parameter) are excluded and reported; a small ridge regularizes the
    retained block before inversion.
    """
    design = fit._design if design is None else design
    n_l = design.n_lambda
    if n_l == 0:
        return RhoPosterior(rho_hat=np.zeros(0), V_rho=np.zeros((0, 0)),
                            dropped_dims=[], regularization_added=0.0)
    A = reml_hessian_rho(fit, design)
    grad_rho = np.abs(np.asarray(fit.diagnostics.get(
        "reml_grad_lambda", np.zeros(n_l))) * fit.lam)
    ref_v = abs(fit.reml) + 1.0
    curv = np.abs(np.diag(A))
    curv_ref = max(curv.max(), 1e-300)
    clamped = (fit.rho <= -11.99) | (fit.rho >= 11.99)
    flat = (grad_rho < GRAD_FLAT_RTOL * ref_v) & \
           (curv < CURV_FLAT_RTOL * curv_ref)
    dropped = sorted(set(np.flatnonzero(flat | clamped).tolist()))
    keep = np.array([r for r in range(n_l) if r not in dropped],
                    dtype=np.int64)
    V_rho = np.zeros((n_l, n_l))
    ridge = 0.0
    if keep.size:
        Ak = -A[np.ix_(keep, keep)]
        ridge = RIDGE_RTOL * max(np.abs(np.diag(Ak)).max(), 1e-300)
        Ak = Ak + ridge * np.eye(keep.size)
        try:
            Vk = np.linalg.inv(Ak)
        except np.linalg.LinAlgError:
            Vk = np.linalg.pinv(Ak)
        Vk = 0.5 * (Vk + Vk.T)
        ev, U = np.linalg.eigh(Vk)
        Vk = U @ np.diag(np.maximum(ev, 0.0)) @ U.T
        V_rho[np.ix_(keep, keep)] = Vk
    return RhoPosterior(rho_hat=fit.rho.copy(), V_rho=V_rho,
                        dropped_dims=dropped, regularization_added=ridge)


def _dense_V(fit):
    """Conditional posterior covariance, materialized (desk scale only)."""
    n_p = fit.beta.size
    return fit.covariance_scale() * fit.solve_H(np.eye(n_p))


def vcorr_pql(fit, rho_post=None, design=None):
    """Corrected covariance V + J V_rho J^T of the coefficient posterior."""
    design = fit._design if design is None else design
    rho_post = rho_post or rho_posterior(fit, design)
    J = dbeta_drho(fit, design)
    VJ = J @ rho_post.V_rho @ J.T
    return _dense_V(fit) + VJ


def _tau_of(fit):
    return fit.edf


def _trace_VJH(fit, rho_post, design):
    """tr(V^J H) = tr(J^T H J V_rho)."""
    J = dbeta_drho(fit, design)
    if J.shape[1] == 0:
        return 0.0
    HJ = np.column_stack([fit.apply_Hllk(J[:, r])
                          for r in range(J.shape[1])])
    return float(np.sum((J.T @ HJ) * rho_post.V_rho)) / fit.covariance_scale()


#: bytes of one (draws, N_p, N_p) stack in a chunk of batched refits
REFIT_CHUNK_BYTES = 1 << 20


def _refit_draws(fit, lams):
    """(betas, taus, remls) of an am/gam fit refitted at each row of lams.

    The final working Gaussian model (the PQL view) -- the pseudo-data
    ``fit._z`` and weights ``fit._weights`` that the fit's own factor and
    EDF came from -- is refitted on the fit's working design, the retained
    columns ``fit._keep``: X^T W X, X^T W z and the dense S^r are formed
    once, then each chunk of draws stacks
    H_i = X^T W X + sum_r lams[i, r] S^r and takes one batched
    Cholesky factor.  From it come beta_i (dropped entries zero),
    tr(H_i^{-1} S^r), log|H_i|, tau_i and the REML value on the retained
    columns.  A chunk holds REFIT_CHUNK_BYTES of (N_p, N_p) matrices, so
    dense storage suits desk-scale N_p.
    """
    design = fit.work_design
    keep = fit._keep
    lams = np.atleast_2d(np.asarray(lams, dtype=float))
    z, w = fit._z, fit._weights
    # X stays sparse (random-effect and factor-smooth level columns are
    # block-sparse); only the N_p x N_p normal matrix is dense
    Xk = design.X_full
    wq = np.ones(design.N) if w is None else np.asarray(w, dtype=float)
    XtWX = (Xk.T @ sp.csc_array(Xk.multiply(wq[:, None]))).toarray()
    XtWz = np.asarray(Xk.T @ (wq * z))
    # the penalized residual sum of squares is expanded about beta_hat,
    # which keeps it exact and stationary in beta_i without N-row products
    beta_hat = fit.beta[keep]
    resid = z - np.asarray(Xk @ beta_hat)
    rss_hat = float(resid @ (wq * resid))
    grad_hat = np.asarray(Xk.T @ (wq * resid))
    n_active = keep.size
    S = np.zeros((design.n_lambda, n_active, n_active))
    for r in range(design.n_lambda):
        S[r] = design.S_emb(r).toarray()
    S_flat = S.reshape(design.n_lambda, n_active * n_active)
    phi = fit.phi
    const = 0.5 * float(np.sum(np.log(wq))) \
        - 0.5 * design.N * np.log(2.0 * np.pi * phi) \
        - 0.5 * design.penalty_rank * np.log(phi) \
        + 0.5 * n_active * np.log(phi)
    n_draws = lams.shape[0]
    betas = np.zeros((n_draws, fit.beta.size))
    taus = np.empty(n_draws)
    remls = np.empty(n_draws)
    step = max(1, REFIT_CHUNK_BYTES // (8 * n_active * n_active))
    for lo in range(0, n_draws, step):
        lc = lams[lo:lo + step]
        H = XtWX + (lc @ S_flat).reshape(-1, n_active, n_active)
        L = _batched_cholesky(H, keep)
        Linv = np.linalg.inv(L)
        LinvT = np.swapaxes(Linv, 1, 2)
        beta = (LinvT @ (Linv @ XtWz)[:, :, None])[:, :, 0]
        Hinv = LinvT @ Linv
        tr_H = Hinv.reshape(lc.shape[0], -1) @ S_flat.T
        taus[lo:lo + step] = n_active - np.sum(lc * tr_H, axis=1)
        d = beta - beta_hat
        quads = np.sum((beta @ S) * beta, axis=2).T
        rss_pen = rss_hat - 2.0 * d @ grad_hat \
            + np.sum((d @ XtWX) * d, axis=1) + np.sum(lc * quads, axis=1)
        logdet_H = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)),
                                axis=1)
        logdet_S = np.array([design.logdet_S_plus(lv) for lv in lc])
        remls[lo:lo + step] = const - rss_pen / (2.0 * phi) \
            + 0.5 * logdet_S - 0.5 * logdet_H
        betas[lo:lo + step, keep] = beta
    return betas, taus, remls


def _batched_cholesky(H, keep):
    """Lower Cholesky factors of a stack; IndefiniteError names the first
    failing pivot (an index into the full coefficient vector)."""
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        for Hi in H:
            info = dpotrf(Hi, lower=1)[1]
            if info > 0:
                raise IndefiniteError(keep[info - 1]) from None
        raise


def _conditional_refit(fit, design, lams):
    """beta, tau, and REML value of the fit conditioned on new lams.

    Working-model engines refit the final linearized Gaussian model (the
    PQL view, see :func:`_refit_draws`); general smooth models re-run
    warm-started Newton steps.
    """
    from . import efs as efs_mod
    if fit.engine in ("am", "gam"):
        betas, taus, remls = _refit_draws(fit, np.asarray(lams)[None, :])
        return betas[0], float(taus[0]), float(remls[0])
    # general smooth model: warm Newton restart on the working design
    work = fit.work_design
    family = fit._family
    beta0 = fit._to_work(fit.beta)
    beta_w, factor, eps, H, llk_pen, _llk, _conv, _sys = efs_mod.newton_beta(
        work, family, lams, beta0=beta0.copy(), max_iter=50)
    tr_H = sparsela.trace_inv_form(factor, *work.trace_roots())
    tau = work.N_p - float(np.sum(lams * tr_H))
    reml = reml_value(work, factor, lams, llk_pen, phi=1.0)
    return fit._from_work(beta_w), tau, reml


def mc_tau_gaussian(fit, n_r=250, seed=0, rho_post=None, lower_bound=True):
    """Monte Carlo corrected degrees of freedom for additive models.

    Draws log regularization vectors from the normal posterior
    approximation, re-solves the additive model for all draws in chunked
    dense batches (:func:`_refit_draws`), averages the conditional edf
    traces, and adds tr(V^J H); optionally lower-bounded by the
    PQL-corrected value.  Deterministic given the seed.
    """
    if fit.engine != "am":
        raise SpecError("mc_tau_gaussian expects a Gaussian additive fit")
    design = fit._design
    rho_post = rho_post or rho_posterior(fit, design)
    rng = np.random.default_rng(seed)
    draws = _draw_rho(rho_post, n_r, rng, proposal="normal")
    _, taus, _ = _refit_draws(fit, np.exp(draws))
    vjh = _trace_VJH(fit, rho_post, design)
    tau_prime = float(np.mean(taus)) + vjh
    if lower_bound:
        tau_prime = max(tau_prime, fit.edf + vjh)
    return tau_prime


def _draw_rho(rho_post, n_r, rng, proposal="normal", t_df=4):
    n_l = rho_post.rho_hat.size
    keep = np.array([r for r in range(n_l)
                     if r not in rho_post.dropped_dims], dtype=np.int64)
    draws = np.tile(rho_post.rho_hat, (n_r, 1))
    if keep.size == 0:
        return draws
    Vk = rho_post.V_rho[np.ix_(keep, keep)]
    ev, U = np.linalg.eigh(Vk)
    root = U @ np.diag(np.sqrt(np.maximum(ev, 0.0)))
    zs = rng.standard_normal((n_r, keep.size))
    if proposal == "t":
        chi = rng.chisquare(t_df, size=n_r) / t_df
        zs = zs / np.sqrt(chi)[:, None]
    draws[:, keep] = rho_post.rho_hat[keep] + zs @ root.T
    return np.clip(draws, -12.0, 12.0)


def _log_t_density(x, mean, Vk, keep, df):
    d = x[keep] - mean[keep]
    Vi = np.linalg.pinv(Vk)
    q = float(d @ Vi @ d)
    p = keep.size
    return -0.5 * (df + p) * np.log1p(q / df)


def _importance_weights(draws, remls, rho_post, proposal="normal",
                        prior="proposal", t_df=4):
    """Normalized weights of the draws: REML-proportional when the proposal
    doubles as the prior, divided by the proposal density under the
    uniform-box prior."""
    n_l = rho_post.rho_hat.size
    keep = np.array([r for r in range(n_l)
                     if r not in rho_post.dropped_dims], dtype=np.int64)
    logw = remls - np.max(remls)
    if prior == "uniform-box" and keep.size:
        Vk = rho_post.V_rho[np.ix_(keep, keep)]
        if proposal == "t":
            logq = np.array([_log_t_density(d, rho_post.rho_hat, Vk, keep,
                                            t_df) for d in draws])
        else:
            d = draws[:, keep] - rho_post.rho_hat[keep]
            Vi = np.linalg.pinv(Vk)
            logq = -0.5 * np.einsum("ij,jk,ik->i", d, Vi, d)
        logw = logw - logq
        logw = logw - np.max(logw)
    w = np.exp(logw)
    return w / np.sum(w)


def mc_tau_general(fit, n_r=250, proposal="normal", prior="proposal",
                   seed=0, t_df=4, rho_post=None, lower_bound=True,
                   h_at_mean=False):
    """Importance-sampled corrected degrees of freedom for any engine.

    Candidate log regularization vectors come from a normal or
    heavy-tailed t proposal centered at the estimate; the weights are
    REML-proportional when the proposal doubles as the prior
    (Greven & Scheipl, 2016) and full importance ratios for a uniform-box
    prior.  The three-term trace identity adds the between-draw
    variability of the refit coefficients.  am/gam fits refit all draws in
    chunked dense batches (:func:`_refit_draws`); gsmm and lqefs fits run a
    warm Newton refit per draw.
    """
    if prior not in ("proposal", "uniform-box"):
        raise SpecError("prior must be 'proposal' or 'uniform-box'")
    design = fit._design
    rho_post = rho_post or rho_posterior(fit, design)
    rng = np.random.default_rng(seed)
    draws = _draw_rho(rho_post, n_r, rng, proposal=proposal, t_df=t_df)
    working = fit.engine in ("am", "gam")
    if working:
        betas, taus, remls = _refit_draws(fit, np.exp(draws))
    else:
        betas, taus, remls = map(np.array, zip(*[
            _conditional_refit(fit, design, np.exp(d)) for d in draws]))
    w = _importance_weights(draws, remls, rho_post, proposal, prior, t_df)
    ess = 1.0 / float(np.sum(w ** 2))
    flags = {}
    if ess < 10:
        flags["low_ess"] = ess
    scale = fit.covariance_scale()
    if h_at_mean and not working:
        beta_mean = w @ betas
        H_mean = -sp.csc_array(fit._family.hess(beta_mean, fit._design))

        def apply_H(v):
            return np.asarray(H_mean @ v)
    else:
        def apply_H(v):
            return fit.apply_Hllk(v) / scale
    term1 = float(w @ taus)
    hb = np.column_stack([apply_H(betas[i]) for i in range(n_r)])
    term2 = float(np.sum(w * np.einsum("ij,ji->i", betas, hb)))
    bbar = w @ betas
    term3 = float(bbar @ apply_H(bbar))
    tau_prime = term1 + term2 - term3
    if lower_bound:
        vjh = _trace_VJH(fit, rho_post, design)
        tau_prime = max(tau_prime, fit.edf + vjh)
    return tau_prime, ess, flags


def caic(fit, edf_mode="conventional", n_r=250, seed=0, **kwargs):
    """Conditional AIC report: -2 llk + 2 (tau or corrected tau).

    ``edf_mode`` is one of ``conventional``, ``pql_corrected``,
    ``mc_gaussian``, ``mc_general``.
    """
    tau = _tau_of(fit)
    flags = {}
    if fit.engine not in ("am",):
        flags["stationary_hessian_assumed"] = True
    if edf_mode == "conventional":
        tp = tau
        n_used = 0
    elif edf_mode == "pql_corrected":
        rho_post = rho_posterior(fit)
        tp = tau + _trace_VJH(fit, rho_post, fit._design)
        flags["dropped_rho_dims"] = rho_post.dropped_dims
        n_used = 0
    elif edf_mode == "mc_gaussian":
        tp = mc_tau_gaussian(fit, n_r=n_r, seed=seed, **kwargs)
        n_used = n_r
    elif edf_mode == "mc_general":
        tp, ess, fl = mc_tau_general(fit, n_r=n_r, seed=seed, **kwargs)
        flags.update(fl)
        n_used = n_r
    else:
        raise SpecError(f"unknown edf mode {edf_mode!r}")
    edf_used = tau if edf_mode == "conventional" else tp
    return AicReport(llk=fit.llk, tau=tau, tau_prime=tp, variant=edf_mode,
                     caic=-2.0 * fit.llk + 2.0 * edf_used,
                     n_samples=n_used, seed=seed, flags=flags)


def sample_beta_conditional(fit, n, seed=0):
    """Draws from the normal approximation N(beta_hat, V) to the
    conditional coefficient posterior; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((fit._factor.n, n))
    draws = np.sqrt(fit.covariance_scale()) * fit.half_solve_t(Z)
    return fit.beta[:, None] + draws


def credible_intervals(fit, X_pred, level=0.95, block=512):
    """Pointwise intervals center +- z * sqrt(diag(X V X^T)), one blocked
    solve per ``block`` rows.

    ``fit`` is a fit state or a restored artifact: it needs ``beta``,
    ``engine``, ``covariance_scale()`` and a ``solve_H`` that takes a block.
    For quasi-Newton fits the posterior covariance is itself approximate,
    so these intervals are indicative rather than calibrated.
    """
    if not 0.0 < level < 1.0:
        raise SpecError(f"interval level must lie in (0, 1), got {level!r}")
    X_pred = sp.csc_array(X_pred)
    n = X_pred.shape[0]
    center = np.asarray(X_pred @ fit.beta)
    var = np.zeros(n)
    scale = fit.covariance_scale()
    for start in range(0, n, block):
        stop = min(start + block, n)
        B = np.asarray(X_pred[start:stop, :].todense()).T
        var[start:stop] = scale * np.einsum("ij,ij->j", B, fit.solve_H(B))
    half = ndtri(0.5 + level / 2.0) * np.sqrt(np.maximum(var, 0.0))
    flags = {"approximate": fit.engine == "lqefs"}
    return center, center - half, center + half, flags
