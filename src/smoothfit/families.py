"""Likelihood contracts: exponential families for working-model fitting,
location-scale families assembled from per-parameter partials, and the Cox
partial likelihood as a full gradient/Hessian evaluator.

Conventions: ``hess`` methods return the Hessian of the log-likelihood;
solvers negate it.  Location-scale families use parameterizations with
orthogonal parameters -- Gaussian (mu, log sigma) and Gamma (log mu,
log phi) -- so the expected mixed partials vanish and the assembled
negative Hessian is exactly block-diagonal.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, polygamma, psi

from .errors import DomainError, SpecError

#: clamping bounds for working means (standard IRLS guard)
MU_FLOOR = 1e-8
LOGIT_EPS = 1e-8
ETA_CLIP = 500.0


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------

class LinkFunction:
    name = ""

    def apply(self, mu):
        raise NotImplementedError

    def inverse(self, eta):
        raise NotImplementedError

    def derivative(self, mu):
        """g'(mu)."""
        raise NotImplementedError

    def clamp(self, mu):
        """Pull mu back from the domain boundary; returns (mu, n_clamped)."""
        return mu, 0


class IdentityLink(LinkFunction):
    name = "identity"

    def apply(self, mu):
        return np.asarray(mu, dtype=float)

    def inverse(self, eta):
        return np.asarray(eta, dtype=float)

    def derivative(self, mu):
        return np.ones_like(np.asarray(mu, dtype=float))


class LogLink(LinkFunction):
    name = "log"

    def apply(self, mu):
        return np.log(mu)

    def inverse(self, eta):
        return np.exp(np.clip(eta, -ETA_CLIP, ETA_CLIP))

    def derivative(self, mu):
        return 1.0 / mu

    def clamp(self, mu):
        n = int(np.sum(mu < MU_FLOOR))
        return np.maximum(mu, MU_FLOOR), n


class LogitLink(LinkFunction):
    name = "logit"

    def apply(self, mu):
        return np.log(mu / (1.0 - mu))

    def inverse(self, eta):
        return 1.0 / (1.0 + np.exp(-np.clip(eta, -ETA_CLIP, ETA_CLIP)))

    def derivative(self, mu):
        return 1.0 / (mu * (1.0 - mu))

    def clamp(self, mu):
        n = int(np.sum((mu < LOGIT_EPS) | (mu > 1.0 - LOGIT_EPS)))
        return np.clip(mu, LOGIT_EPS, 1.0 - LOGIT_EPS), n


class InverseLink(LinkFunction):
    name = "inverse"

    def apply(self, mu):
        return 1.0 / mu

    def inverse(self, eta):
        return 1.0 / eta

    def derivative(self, mu):
        return -1.0 / mu ** 2

    def clamp(self, mu):
        n = int(np.sum(np.abs(mu) < MU_FLOOR))
        return np.where(np.abs(mu) < MU_FLOOR,
                        np.where(mu < 0, -MU_FLOOR, MU_FLOOR), mu), n


LINKS = {"identity": IdentityLink, "log": LogLink, "logit": LogitLink,
         "inverse": InverseLink}


def get_link(name):
    try:
        return LINKS[name]()
    except KeyError:
        raise SpecError(f"unknown link {name!r}") from None


# ---------------------------------------------------------------------------
# exponential families
# ---------------------------------------------------------------------------

class ExponentialFamily:
    name = ""
    has_scale = False
    default_link = "identity"

    def variance(self, mu):
        raise NotImplementedError

    def log_density(self, y, mu, phi):
        raise NotImplementedError

    def deviance(self, y, mu):
        """Summed deviance; 2 phi (llk_saturated - llk) for these families."""
        raise NotImplementedError

    def init_mu(self, y):
        return np.asarray(y, dtype=float)

    def validate(self, y):
        pass


class Gaussian(ExponentialFamily):
    name = "gaussian"
    has_scale = True
    default_link = "identity"

    def variance(self, mu):
        return np.ones_like(np.asarray(mu, dtype=float))

    def log_density(self, y, mu, phi):
        return -0.5 * np.log(2.0 * np.pi * phi) - (y - mu) ** 2 / (2.0 * phi)

    def deviance(self, y, mu):
        return float(np.sum((y - mu) ** 2))


class Gamma(ExponentialFamily):
    name = "gamma"
    has_scale = True
    default_link = "log"

    def variance(self, mu):
        return np.asarray(mu, dtype=float) ** 2

    def log_density(self, y, mu, phi):
        a = 1.0 / phi
        return (a - 1.0) * np.log(y) - y * a / mu - a * np.log(mu) \
            + a * np.log(a) - gammaln(a)

    def deviance(self, y, mu):
        return float(2.0 * np.sum(-np.log(y / mu) + (y - mu) / mu))

    def init_mu(self, y):
        return np.maximum(y, MU_FLOOR)

    def validate(self, y):
        if np.any(y <= 0):
            raise DomainError("gamma responses must be positive")


class Binomial(ExponentialFamily):
    name = "binomial"
    has_scale = False
    default_link = "logit"

    def variance(self, mu):
        return mu * (1.0 - mu)

    def log_density(self, y, mu, phi):
        return y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)

    def deviance(self, y, mu):
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(y > 0, y * np.log(y / mu), 0.0)
            t2 = np.where(y < 1, (1.0 - y) * np.log((1.0 - y) / (1.0 - mu)),
                          0.0)
        return float(2.0 * np.sum(t1 + t2))

    def init_mu(self, y):
        return (y + 0.5) / 2.0

    def validate(self, y):
        if np.any((y < 0) | (y > 1)):
            raise DomainError("binomial responses must lie in [0, 1]")


class Poisson(ExponentialFamily):
    name = "poisson"
    has_scale = False
    default_link = "log"

    def variance(self, mu):
        return np.asarray(mu, dtype=float)

    def log_density(self, y, mu, phi):
        return y * np.log(mu) - mu - gammaln(y + 1.0)

    def deviance(self, y, mu):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(y > 0, y * np.log(y / mu), 0.0)
        return float(2.0 * np.sum(t - (y - mu)))

    def init_mu(self, y):
        return np.maximum(y, 0.0) + 0.1

    def validate(self, y):
        if np.any(y < 0):
            raise DomainError("poisson responses must be non-negative")


class InverseGaussian(ExponentialFamily):
    name = "inverse_gaussian"
    has_scale = True
    default_link = "log"

    def variance(self, mu):
        return np.asarray(mu, dtype=float) ** 3

    def log_density(self, y, mu, phi):
        return -0.5 * (np.log(2.0 * np.pi * phi) + 3.0 * np.log(y)) \
            - (y - mu) ** 2 / (2.0 * phi * mu ** 2 * y)

    def deviance(self, y, mu):
        return float(np.sum((y - mu) ** 2 / (mu ** 2 * y)))

    def init_mu(self, y):
        return np.maximum(y, MU_FLOOR)

    def validate(self, y):
        if np.any(y <= 0):
            raise DomainError("inverse gaussian responses must be positive")


FAMILIES = {"gaussian": Gaussian, "gamma": Gamma, "binomial": Binomial,
            "poisson": Poisson, "inverse_gaussian": InverseGaussian}


def get_family(name):
    try:
        return FAMILIES[name]()
    except KeyError:
        raise SpecError(f"unknown family {name!r}") from None


def pseudo_data(y, mu, link, family):
    """Fisher-scoring working responses and weights.

    z = g(mu) + g'(mu)(y - mu) and W_ii = 1 / (g'(mu_i)^2 V(mu_i)); the
    scale parameter is excluded (it cancels from the estimating equations).
    Returns (z, w, n_clamped).
    """
    mu, n_clamped = link.clamp(np.asarray(mu, dtype=float))
    gp = link.derivative(mu)
    z = link.apply(mu) + gp * (y - mu)
    w = 1.0 / (gp ** 2 * family.variance(mu))
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise DomainError("non-positive or non-finite working weights")
    return z, w, n_clamped


# ---------------------------------------------------------------------------
# general smooth families
# ---------------------------------------------------------------------------

class GeneralFamily:
    """Log-likelihood contract for general smooth models.

    ``llk``/``grad``/``hess`` receive the full coefficient vector and the
    penalized design; ``hess`` returns the Hessian of the log-likelihood
    (dense or sparse) or None when only gradients are available, in which
    case fitting falls back to the quasi-Newton engine.
    """

    n_parameters = 1
    has_hessian = True
    has_scale = False

    def llk(self, beta, design):
        raise NotImplementedError

    def grad(self, beta, design):
        raise NotImplementedError

    def hess(self, beta, design):
        return None

    def init_coef(self, design):
        return np.zeros(design.N_p)


# ---------------------------------------------------------------------------
# location-scale partials
# ---------------------------------------------------------------------------

def gamlss_partials(family2, y, params):
    """First and pure second partials of the log-density per observation.

    ``params`` holds the two linear predictors (at identity/log links per
    the family's parameterization).  Mixed partials are identically zero in
    these orthogonal parameterizations, hence not returned.
    """
    y = np.asarray(y, dtype=float)
    eta1, eta2 = (np.asarray(p, dtype=float) for p in params)
    if family2 == "gaussian_ls":
        prec = np.exp(-2.0 * eta2)
        r = y - eta1
        f1 = np.column_stack([r * prec, -1.0 + r * r * prec])
        f2 = np.column_stack([-prec, -2.0 * r * r * prec])
        return f1, f2
    if family2 == "gamma_ls":
        if np.any(y <= 0):
            idx = int(np.argmax(y <= 0))
            raise DomainError(f"gamma response must be positive "
                              f"(observation {idx})")
        mu = np.exp(np.clip(eta1, -ETA_CLIP, ETA_CLIP))
        a = np.exp(-np.clip(eta2, -ETA_CLIP, ETA_CLIP))
        g1 = np.log(y) - y / mu - np.log(mu) + np.log(a) + 1.0 - psi(a)
        f1 = np.column_stack([a * (y - mu) / mu, -a * g1])
        f2 = np.column_stack([-a * y / mu,
                              a * g1 + a - a * a * polygamma(1, a)])
        return f1, f2
    raise SpecError(f"unknown location-scale family {family2!r}")


def gamlss_llk(family2, y, params):
    y = np.asarray(y, dtype=float)
    eta1, eta2 = (np.asarray(p, dtype=float) for p in params)
    if family2 == "gaussian_ls":
        return float(np.sum(-0.5 * np.log(2.0 * np.pi) - eta2
                            - (y - eta1) ** 2 * np.exp(-2.0 * eta2) / 2.0))
    if family2 == "gamma_ls":
        mu = np.exp(np.clip(eta1, -ETA_CLIP, ETA_CLIP))
        a = np.exp(-np.clip(eta2, -ETA_CLIP, ETA_CLIP))
        return float(np.sum((a - 1.0) * np.log(y) - y * a / mu
                            - a * np.log(mu) + a * np.log(a) - gammaln(a)))
    raise SpecError(f"unknown location-scale family {family2!r}")


def assemble_gsmm_derivs(partials, designs):
    """Gradient and block-diagonal negative Hessian from parameter partials.

    ``partials`` is (first, second) with one column per distribution
    parameter; block m of the returned negative Hessian is
    X_m^T diag(-second_m) X_m, off-diagonal blocks structurally zero.
    """
    f1, f2 = partials
    if f1.shape[1] != len(designs):
        raise SpecError("partials and designs disagree on parameter count")
    grads = []
    hblocks = []
    for m, X in enumerate(designs):
        X = sp.csc_array(X)
        grads.append(np.asarray(X.T @ f1[:, m]))
        W = sp.dia_array((np.asarray(-f2[:, m])[None, :], [0]),
                         shape=(X.shape[0], X.shape[0]))
        hblocks.append(sp.csc_array(X.T @ (W @ X)))
    grad = np.concatenate(grads)
    H = sp.block_diag(hblocks, format="csc")
    return grad, H


class GamlssFamily(GeneralFamily):
    """Two-parameter location-scale model bound to observed responses."""

    n_parameters = 2
    has_hessian = True

    def __init__(self, kind, y):
        if kind not in ("gaussian_ls", "gamma_ls"):
            raise SpecError(f"unknown location-scale family {kind!r}")
        self.kind = kind
        self.y = np.asarray(y, dtype=float)

    def _y_int(self, design):
        # responses arrive in the caller's row order; the design's rows are
        # internally sorted
        return design.to_internal(self.y)

    def _etas(self, beta, design):
        if len(design.param_slices) != 2:
            raise SpecError("location-scale families need two linear "
                            "predictors")
        return [np.asarray(design.X_blocks[m]
                           @ beta[design.param_slices[m]]) for m in (0, 1)]

    def llk(self, beta, design):
        return gamlss_llk(self.kind, self._y_int(design),
                          self._etas(beta, design))

    def grad(self, beta, design):
        f1, _ = gamlss_partials(self.kind, self._y_int(design),
                                self._etas(beta, design))
        g, _ = assemble_gsmm_derivs((f1, np.zeros_like(f1)), design.X_blocks)
        return g

    def hess(self, beta, design):
        partials = gamlss_partials(self.kind, self._y_int(design),
                                   self._etas(beta, design))
        _, H = assemble_gsmm_derivs(partials, design.X_blocks)
        return -H

    def init_coef(self, design):
        beta = np.zeros(design.N_p)
        icepts = [t for t in design.terms if t.spec.kind == "intercept"
                  and t.spec.by_factor is None]
        y = self.y
        if self.kind == "gaussian_ls":
            loc, scl = float(np.mean(y)), float(np.log(np.std(y) + 1e-8))
        else:
            loc = float(np.log(np.mean(y)))
            scl = float(np.log(max(np.var(y) / np.mean(y) ** 2, 1e-3)))
        for t in icepts:
            beta[t.col_start] = loc if t.spec.parameter_index == 0 else scl
        return beta


# ---------------------------------------------------------------------------
# Cox proportional hazards
# ---------------------------------------------------------------------------

class SurvivalData:
    """Recorded response times sorted non-increasing, with event indicators.

    ``unique_times`` are the distinct times in decreasing order; ``r_l``
    counts events per unique time (the Breslow tie multiplier).  The risk
    set of the l-th unique time is the prefix of observations up to and
    including its tied block.  ``event_blocks`` are the blocks with
    ``r_l > 0``, and ``entry[i]`` is the first of them (as a position in
    ``event_blocks``) whose risk set holds row i; rows past the last event
    block get ``len(event_blocks)``.
    """

    def __init__(self, t, delta):
        t = np.asarray(t, dtype=float)
        delta = np.asarray(delta)
        if t.ndim != 1 or t.shape != delta.shape:
            raise SpecError("times and event indicators must be 1-d and "
                            "equally long")
        if np.any(np.diff(t) > 0):
            raise SpecError("survival times must be sorted non-increasing")
        if not np.all(np.isin(delta, (0, 1))):
            raise SpecError("event indicators must be 0 or 1")
        self.t = t
        self.delta = delta.astype(np.int64)
        change = np.flatnonzero(np.diff(t) != 0.0)
        starts = np.append(0, change + 1).astype(np.int64)
        self.block_ends = np.append(change + 1, t.shape[0]).astype(np.int64)
        self.unique_times = t[starts]
        self.r_l = np.add.reduceat(self.delta, starts)
        self.event_blocks = np.flatnonzero(self.r_l)
        self.entry = np.searchsorted(self.block_ends[self.event_blocks],
                                     np.arange(t.shape[0]), side="right")

    @classmethod
    def from_unsorted(cls, t, delta):
        """Sort by decreasing time (stable) and return (data, order)."""
        t = np.asarray(t, dtype=float)
        order = np.argsort(-t, kind="stable")
        return cls(t[order], np.asarray(delta)[order]), order


#: risk sets whose largest eta lies within this range of a shift share it
#: when their sums are accumulated, so every sum stays above exp(-600)
_LOG_SHIFT_RANGE = 600.0


def _checked_eta(eta):
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise DomainError("linear predictor contains non-finite values")
    return eta


def _risk_sums(data, eta, X=None):
    """Prefix and suffix sums over the risk sets of the event blocks.

    Returns ``(log_w, u, M)``:

    - ``log_w[l]`` = log W_l, the log of the sum of exp(eta) over risk set l;
    - ``u[i]`` = exp(eta_i) times the sum of r_l / W_l over the risk sets
      that hold row i;
    - when X is given, the rows of ``M`` are the risk-set means
      m_l = sum_{i in R_l} exp(eta_i - log W_l) x_i.

    The sums are plain cumulative sums of exp(eta - c), with one shift c for
    all risk sets whose largest eta lies within ``_LOG_SHIFT_RANGE`` of c.
    Earlier risk sets, which would underflow under it, are summed again
    under their own shift, so no risk set is lost to underflow.
    """
    ends = data.block_ends[data.event_blocks]
    r = data.r_l[data.event_blocks]
    log_w = np.empty(ends.size)
    u = np.zeros(eta.shape[0])
    M = None if X is None else np.empty((ends.size, X.shape[1]))
    if not ends.size:
        return log_w, u, M
    peak = np.maximum.accumulate(eta[:ends[-1]])[ends - 1]
    hi = ends.size
    while hi > 0:
        c = peak[hi - 1]
        lo = int(np.searchsorted(peak[:hi], c - _LOG_SHIFT_RANGE))
        rows = int(ends[hi - 1])
        w = np.exp(eta[:rows] - c)
        entry = data.entry[:rows]
        S = np.cumsum(np.bincount(entry, weights=w, minlength=hi))[lo:]
        log_w[lo:hi] = c + np.log(S)
        tail = np.cumsum((r[lo:hi] / S)[::-1])[::-1]
        u[:rows] += w * tail[np.maximum(entry, lo) - lo]
        if X is not None:
            A = sp.csr_array((w, (entry, np.arange(rows))),
                             shape=(hi, X.shape[0])) @ X
            A = A.toarray() if sp.issparse(A) else np.asarray(A)
            M[lo:hi] = np.cumsum(A, axis=0)[lo:] / S[:, None]
        hi = lo
    return log_w, u, M


def coxph_llk(data, eta):
    """Breslow partial log-likelihood: the sum over the event blocks of
    their events' eta minus r_l log W_l, each block's term formed first."""
    eta = _checked_eta(eta)
    log_w, _, _ = _risk_sums(data, eta)
    event_eta = np.bincount(data.entry, weights=eta * data.delta,
                            minlength=log_w.size + 1)[:-1]
    return float(np.sum(event_eta - data.r_l[data.event_blocks] * log_w))


def coxph_grad(data, eta, X):
    """Score X^T (delta - u); X dense or sparse, rows in time order."""
    eta = _checked_eta(eta)
    _, u, _ = _risk_sums(data, eta)
    return np.asarray(X.T @ (data.delta - u), dtype=float)


def coxph_hess(data, eta, X):
    """Hessian of the partial log-likelihood (dense, negative semi-definite).

    -H = X^T diag(u) X - sum_l r_l m_l m_l^T over the event blocks, with m_l
    the risk-set mean of the rows of X.
    """
    eta = _checked_eta(eta)
    _, u, M = _risk_sums(data, eta, X)
    n = eta.shape[0]
    XuX = X.T @ (sp.dia_array((u[None, :], [0]), shape=(n, n)) @ X)
    XuX = XuX.toarray() if sp.issparse(XuX) else np.asarray(XuX)
    negH = XuX - M.T @ (data.r_l[data.event_blocks][:, None] * M)
    if not np.all(np.isfinite(negH)):
        raise DomainError("Cox Hessian is not finite")
    return -negH


class CoxphFamily(GeneralFamily):
    """Proportional-hazard partial likelihood bound to (time, event) data.

    Times arrive in the caller's row order; the family keeps its own
    decreasing-time permutation and composes it with the design's internal
    row order, since the two sorts generally differ.  The design's rows in
    time order are cached (CSR) for the last design seen.
    """

    n_parameters = 1
    has_hessian = True

    def __init__(self, t, delta):
        self.data, self._user_time_order = SurvivalData.from_unsorted(t, delta)
        self._bound = None

    def _binding(self, design):
        """Rows of ``design.X_full`` in decreasing-time order."""
        if self._bound is None or self._bound[0] is not design:
            # internal row for user row j is inverse_order[j]
            idx = design.inverse_order[self._user_time_order]
            self._bound = (design, sp.csr_array(design.X_full)[idx])
        return self._bound[1]

    def llk(self, beta, design):
        return coxph_llk(self.data, self._binding(design) @ beta)

    def grad(self, beta, design):
        X = self._binding(design)
        return coxph_grad(self.data, X @ beta, X)

    def hess(self, beta, design):
        X = self._binding(design)
        return coxph_hess(self.data, X @ beta, X)
