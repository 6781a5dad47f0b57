"""Translate a declarative model description plus a column table into a
sparse penalized design.

Terms are declared as plain records (no formula mini-language); each term
owns a column block of the full model matrix and zero or more penalty
blocks.  Factor-level smooths are laid out block-diagonally after an
internal sort of the observations by level, which is what makes the
penalized normal matrix cheap to factor; the inverse permutation is kept so
user-facing row order never changes.

Random smooths are built from the Demmler & Reinsch transform of the
marginal basis plus one explicit constant column per level; the transform
columns are penalized by the (shared) diagonal penalty and one unit ridge
per null-space direction, the trailing ridge also covering the constant
column.  A term with a k-column marginal therefore carries k+1 coefficients
per level and 1 + N_0 regularization parameters in total.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh

from . import basis as basis_mod
from .basis import PenaltyCore
from .errors import NumericError, SpecError

PARAMETRIC_KINDS = ("intercept", "linear")
SMOOTH_KINDS = ("smooth", "tensor")
LEVEL_KINDS = ("factor_smooth", "random_smooth", "random_intercept")
ALL_KINDS = PARAMETRIC_KINDS + SMOOTH_KINDS + LEVEL_KINDS


@dataclass
class TermSpec:
    kind: str
    covariates: list = field(default_factory=list)
    by_factor: str | None = None
    k: object = 10
    degree: object = 3
    penalty_order: object = 2
    parameter_index: int = 0
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise SpecError(f"unknown term kind {self.kind!r}")
        if self.kind in LEVEL_KINDS and self.by_factor is None:
            raise SpecError(f"{self.kind} terms need a by_factor")
        if self.kind in SMOOTH_KINDS + ("factor_smooth", "random_smooth") \
                and not self.covariates:
            raise SpecError(f"{self.kind} terms need covariates")
        if self.name is None:
            self.name = default_term_name(self)

    def to_dict(self):
        return {"kind": self.kind, "covariates": list(self.covariates),
                "by_factor": self.by_factor, "k": self.k,
                "degree": self.degree, "penalty_order": self.penalty_order,
                "parameter_index": self.parameter_index, "name": self.name}

    @classmethod
    def from_dict(cls, d):
        return cls(**{key: d[key] for key in
                      ("kind", "covariates", "by_factor", "k", "degree",
                       "penalty_order", "parameter_index", "name")
                      if key in d})


def default_term_name(t):
    covs = ",".join(t.covariates)
    base = {"intercept": "1", "linear": covs, "smooth": f"f({covs})",
            "tensor": f"te({covs})",
            "factor_smooth": f"f({covs}|{t.by_factor})",
            "random_smooth": f"fr({covs}|{t.by_factor})",
            "random_intercept": f"ri({t.by_factor})"}[t.kind]
    if t.kind in ("intercept", "linear") and t.by_factor:
        base = f"{base}:{t.by_factor}"
    if t.parameter_index:
        base = f"{base}@{t.parameter_index}"
    return base


@dataclass
class ModelSpec:
    terms: list

    def to_dict(self):
        return {"terms": [t.to_dict() for t in self.terms]}

    @classmethod
    def from_dict(cls, d):
        return cls(terms=[TermSpec.from_dict(t) for t in d["terms"]])

    @property
    def n_parameters(self):
        return 1 + max(t.parameter_index for t in self.terms)


def embed_penalty(core, offset, n_p):
    """Zero-embed a penalty block at a diagonal offset of the full matrix."""
    mat = core.matrix if isinstance(core, PenaltyCore) else np.asarray(core)
    k = mat.shape[0]
    if offset < 0 or offset + k > n_p:
        raise SpecError("penalty block exceeds coefficient range")
    rows, cols = np.nonzero(mat)
    return sp.csc_array((mat[rows, cols], (rows + offset, cols + offset)),
                        shape=(n_p, n_p))


@dataclass
class PenaltyBlock:
    """One penalty block: a small dense core at a diagonal offset."""

    core: PenaltyCore
    offset: int
    lam_index: int
    term_index: int


class PenaltyCluster:
    """All penalty blocks sharing one coefficient range.

    Terms with several regularization parameters on the same block (tensor
    smooths) are handled by restricting to the joint range space, after
    which the generalized inverse and determinant become ordinary ones; a
    cluster with a single parameter collapses to the rank/lambda shortcut.
    """

    def __init__(self, offset, size, blocks):
        self.offset = offset
        self.size = size
        self.lams = sorted({b.lam_index for b in blocks})
        self.cores = {}
        for b in blocks:
            C = self.cores.get(b.lam_index)
            self.cores[b.lam_index] = b.core.matrix if C is None \
                else C + b.core.matrix
        bal = sum(C / np.linalg.norm(C) for C in self.cores.values())
        ev, W = eigh(0.5 * (bal + bal.T))
        tol = 1e-10 * max(ev[-1], np.finfo(float).tiny)
        keep = ev > tol
        self.rank = int(keep.sum())
        self.V = W[:, keep]
        self.restricted = {r: self.V.T @ C @ self.V
                           for r, C in self.cores.items()}
        self.single = len(self.lams) == 1
        if self.single:
            r = self.lams[0]
            M = self.restricted[r]
            try:
                self._const_logdet = 2.0 * float(
                    np.sum(np.log(np.diag(cholesky(M)))))
            except np.linalg.LinAlgError as exc:
                raise NumericError(
                    f"penalty block at offset {self.offset} is singular after "
                    "rank restriction") from exc

    def _t_factor(self, lams):
        T = sum(lams[r] * M for r, M in self.restricted.items())
        try:
            return cho_factor(T, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"shared penalty block at offset {self.offset} is singular "
                "after rank restriction") from exc

    def trace_sinv(self, lams):
        """{r: tr(S_lambda^- S^r)} contribution of this cluster."""
        if self.single:
            r = self.lams[0]
            return {r: self.rank / lams[r]}
        cf = self._t_factor(lams)
        return {r: float(np.trace(cho_solve(cf, M)))
                for r, M in self.restricted.items()}

    def logdet(self, lams):
        if self.single:
            r = self.lams[0]
            return self.rank * np.log(lams[r]) + self._const_logdet
        cf = self._t_factor(lams)
        return 2.0 * float(np.sum(np.log(np.diag(cf[0]))))

    def trace_sinv_pair(self, lams):
        """{(j,l): tr(S^- S^j S^- S^l)} for j,l both in this cluster."""
        if self.single:
            r = self.lams[0]
            return {(r, r): self.rank / lams[r] ** 2}
        cf = self._t_factor(lams)
        sol = {r: cho_solve(cf, M) for r, M in self.restricted.items()}
        out = {}
        for j in self.lams:
            for l in self.lams:
                if j <= l:
                    out[(j, l)] = float(np.trace(sol[j] @ sol[l]))
        return out


@dataclass
class TermArtifact:
    """Everything needed to rebuild a term's columns for new data."""

    spec: TermSpec
    col_start: int
    col_count: int
    knots: object = None        # array or list of arrays (tensor)
    degrees: object = None
    constraint: object = None   # k x (k-1) null-space transform, if absorbed
    reparam: object = None      # Demmler & Reinsch transform P (random smooths)
    levels: object = None       # factor levels, if any
    lam_indices: list = field(default_factory=list)


class PenalizedDesign:
    """Sparse per-parameter model matrices plus indexed penalties."""

    def __init__(self, spec, X_blocks, param_slices, blocks, terms,
                 row_order, n_lambda, sort_factor=None):
        self.spec = spec
        self.X_blocks = X_blocks
        self.param_slices = param_slices
        self.X_full = X_blocks[0] if len(X_blocks) == 1 else sp.hstack(
            X_blocks, format="csc")
        self.X_full = sp.csc_array(self.X_full)
        self.penalty_blocks = blocks
        self.terms = terms
        self.row_order = row_order
        self.inverse_order = np.argsort(row_order)
        self.n_lambda = n_lambda
        self.sort_factor = sort_factor
        self.N = self.X_full.shape[0]
        self.N_p = self.X_full.shape[1]
        self._clusters = None
        self._emb_cache = {}
        self._root_cache = {}
        self._trace_roots = None

    @property
    def clusters(self):
        if self._clusters is None:
            grouped = {}
            for b in self.penalty_blocks:
                grouped.setdefault((b.offset, b.core.k), []).append(b)
            self._clusters = [PenaltyCluster(off, size, bl)
                              for (off, size), bl in sorted(grouped.items())]
        return self._clusters

    def S_emb(self, r):
        """Embedded S^r = d S_lambda / d lambda_r (summed over shared blocks)."""
        if r not in self._emb_cache:
            parts = [embed_penalty(b.core, b.offset, self.N_p)
                     for b in self.penalty_blocks if b.lam_index == r]
            if not parts:
                raise SpecError(f"no penalty uses lambda index {r}")
            total = parts[0]
            for piece in parts[1:]:
                total = total + piece
            self._emb_cache[r] = sp.csc_array(total)
        return self._emb_cache[r]

    def _coo_template(self):
        if not hasattr(self, "_coo"):
            rows, cols, vals, lam_idx = [], [], [], []
            for b in self.penalty_blocks:
                rr, cc = np.nonzero(b.core.matrix)
                rows.append(rr + b.offset)
                cols.append(cc + b.offset)
                vals.append(b.core.matrix[rr, cc])
                lam_idx.append(np.full(rr.size, b.lam_index, dtype=np.int64))
            if not rows:
                self._coo = (np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), np.zeros(0),
                             np.zeros(0, dtype=np.int64))
            else:
                self._coo = (np.concatenate(rows), np.concatenate(cols),
                             np.concatenate(vals), np.concatenate(lam_idx))
        return self._coo

    def S_lambda(self, lams):
        rows, cols, vals, lam_idx = self._coo_template()
        data = vals * np.asarray(lams)[lam_idx]
        return sp.csc_array((data, (rows, cols)), shape=(self.N_p, self.N_p))

    def quad_forms(self, beta):
        """beta^T S^r beta for every regularization parameter (dense cores)."""
        out = np.zeros(self.n_lambda)
        for b in self.penalty_blocks:
            seg = beta[b.offset:b.offset + b.core.k]
            out[b.lam_index] += float(seg @ (b.core.matrix @ seg))
        return out

    def D_root(self, r):
        """Sparse root with D_r D_r^T = S^r; rank(S^r) columns."""
        if r not in self._root_cache:
            cols = []
            rows = []
            vals = []
            ncol = 0
            for b in self.penalty_blocks:
                if b.lam_index != r:
                    continue
                C = 0.5 * (b.core.matrix + b.core.matrix.T)
                ev, W = eigh(C)
                tol = 1e-12 * max(ev[-1], np.finfo(float).tiny)
                keep = np.flatnonzero(ev > tol)
                root = W[:, keep] * np.sqrt(ev[keep])
                rr, cc = np.nonzero(root)
                rows.append(rr + b.offset)
                cols.append(cc + ncol)
                vals.append(root[rr, cc])
                ncol += keep.size
            self._root_cache[r] = sp.csc_array(
                (np.concatenate(vals), (np.concatenate(rows),
                                        np.concatenate(cols))),
                shape=(self.N_p, ncol))
        return self._root_cache[r]

    def trace_roots(self):
        """``(B, widths)``: the nonzero columns of every D_root(r), dense and
        side by side in r order, with each root's column count.

        Computed once, so each trace tr(H_p^{-1} S^r) solves cached blocks
        and all of them come from one blocked solve.
        """
        if self._trace_roots is None:
            blocks = []
            for r in range(self.n_lambda):
                D = self.D_root(r)
                blocks.append(D[:, np.flatnonzero(np.diff(D.indptr))]
                              .toarray())
            B = np.hstack(blocks) if blocks else np.zeros((self.N_p, 0))
            widths = np.array([b.shape[1] for b in blocks], dtype=np.int64)
            self._trace_roots = (B, widths)
        return self._trace_roots

    def root_cols(self, r):
        """Dense nonzero columns of D_root(r): a view into
        :meth:`trace_roots`."""
        B, widths = self.trace_roots()
        end = int(np.sum(widths[:r + 1]))
        return B[:, end - widths[r]:end]

    @property
    def penalty_rank(self):
        return sum(c.rank for c in self.clusters)

    def trace_sinv(self, lams):
        out = np.zeros(self.n_lambda)
        for c in self.clusters:
            for r, v in c.trace_sinv(lams).items():
                out[r] += v
        return out

    def logdet_S_plus(self, lams):
        return float(sum(c.logdet(lams) for c in self.clusters))

    def trace_sinv_pair(self, lams):
        out = np.zeros((self.n_lambda, self.n_lambda))
        for c in self.clusters:
            for (j, l), v in c.trace_sinv_pair(lams).items():
                out[j, l] += v
                if j != l:
                    out[l, j] += v
        return out

    def to_internal(self, v):
        """Reorder a user-order vector into the internal (sorted) row order."""
        return np.asarray(v)[self.row_order]

    def to_user(self, v):
        """Reorder an internal-order vector back to the caller's row order."""
        return np.asarray(v)[self.inverse_order]

    # --- prediction ----------------------------------------------------------
    def build_rows(self, data, clamp=True):
        """Model-matrix rows for new data, in the caller's row order."""
        n = _table_length(data)
        mats = []
        for t in self.terms:
            mats.append(_term_rows(t, data, n, clamp=clamp))
        return sp.csc_array(sp.hstack(mats, format="csc"))

    def linear_predictors(self, data, beta, clamp=True):
        X = self.build_rows(data, clamp=clamp)
        etas = []
        for sl in self.param_slices:
            etas.append(np.asarray(X[:, sl.start:sl.stop]
                                   @ beta[sl.start:sl.stop]))
        return etas


def _table_length(data):
    lengths = {len(v) for v in data.values()}
    if len(lengths) != 1:
        raise SpecError("table columns have unequal lengths")
    return lengths.pop()


def _numeric_column(data, name, term):
    if name not in data:
        raise SpecError(f"term {term.name!r}: column {name!r} not found")
    col = np.asarray(data[name], dtype=float)
    if not np.all(np.isfinite(col)):
        raise SpecError(f"term {term.name!r}: column {name!r} has non-finite "
                        "values")
    return col


def _factor_column(data, name, term):
    if name not in data:
        raise SpecError(f"term {term.name!r}: factor {name!r} not found")
    col = np.asarray(data[name])
    if col.size == 0:
        raise SpecError(f"term {term.name!r}: factor {name!r} is empty")
    return col


def _as_list(value, n):
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise SpecError(f"expected {n} entries, got {len(value)}")
        return list(value)
    return [value] * n


def build_design(spec, data):
    """Build the sparse penalized design for a model spec and column table."""
    if not spec.terms:
        raise SpecError("model spec has no terms")
    n = _table_length(data)
    if n == 0:
        raise SpecError("empty data table")

    sort_factor = None
    for t in spec.terms:
        if t.kind in LEVEL_KINDS:
            sort_factor = t.by_factor
            break
    if sort_factor is not None:
        fac = _factor_column(data, sort_factor, spec.terms[0])
        row_order = np.argsort(fac, kind="stable")
    else:
        row_order = np.arange(n)
    internal = {k: np.asarray(v)[row_order] for k, v in data.items()}

    n_param = spec.n_parameters
    X_blocks = []
    param_slices = []
    artifacts = []
    blocks = []
    lam_counter = 0
    col_global = 0

    def order_key(i_t):
        kind = i_t[1].kind
        if kind in PARAMETRIC_KINDS:
            cat = 0
        elif kind in SMOOTH_KINDS:
            cat = 1
        else:
            cat = 2
        return cat

    for m in range(n_param):
        terms_m = [(i, t) for i, t in enumerate(spec.terms)
                   if t.parameter_index == m]
        if not terms_m:
            raise SpecError(f"no terms for distribution parameter {m}")
        terms_m.sort(key=lambda it: (order_key(it), it[0]))
        cols_m = []
        start_m = col_global
        for term_index, t in terms_m:
            art, X_t, pens = _build_term(t, internal, n, term_index)
            art.col_start = col_global
            art.lam_indices = list(range(lam_counter,
                                         lam_counter + len({p[1] for p in pens})))
            local_lams = sorted({p[1] for p in pens})
            lam_of = {loc: lam_counter + i for i, loc in enumerate(local_lams)}
            for core, loc_lam, loc_off in pens:
                blocks.append(PenaltyBlock(core=core,
                                           offset=col_global + loc_off,
                                           lam_index=lam_of[loc_lam],
                                           term_index=term_index))
            lam_counter += len(local_lams)
            cols_m.append(X_t)
            artifacts.append(art)
            col_global += X_t.shape[1]
        X_blocks.append(sp.csc_array(sp.hstack(cols_m, format="csc")))
        param_slices.append(slice(start_m, col_global))

    return PenalizedDesign(spec, X_blocks, param_slices, blocks, artifacts,
                           row_order, lam_counter, sort_factor=sort_factor)


def _build_term(t, data, n, term_index):
    """Columns + local penalties of one term: (artifact, X, [(core, lam, off)])."""
    if t.kind == "intercept":
        if t.by_factor is None:
            X = sp.csc_array(np.ones((n, 1)))
            art = TermArtifact(spec=t, col_start=0, col_count=1)
            return art, X, []
        fac = _factor_column(data, t.by_factor, t)
        levels = np.unique(fac)
        cols = np.asarray(fac[:, None] == levels[None, 1:], dtype=float)
        art = TermArtifact(spec=t, col_start=0, col_count=cols.shape[1],
                           levels=[str(v) for v in levels])
        return art, sp.csc_array(cols), []

    if t.kind == "linear":
        cols = np.column_stack([_numeric_column(data, c, t)
                                for c in t.covariates])
        if t.by_factor is not None:
            fac = _factor_column(data, t.by_factor, t)
            levels = np.unique(fac)
            ind = np.asarray(fac[:, None] == levels[None, 1:], dtype=float)
            cols = _rowwise_prod(cols, ind)
            art = TermArtifact(spec=t, col_start=0, col_count=cols.shape[1],
                               levels=[str(v) for v in levels])
        else:
            art = TermArtifact(spec=t, col_start=0, col_count=cols.shape[1])
        return art, sp.csc_array(cols), []

    if t.kind in ("smooth", "tensor"):
        block, cores, knots, degrees = _marginal_product(t, data)
        if isinstance(cores, PenaltyCore):
            cores = [cores]
        block, cores, Z = basis_mod.absorb_sumtozero(block, cores)
        vals = block.values
        art = TermArtifact(spec=t, col_start=0, col_count=vals.shape[1],
                           knots=knots, degrees=degrees, constraint=Z)
        pens = [(core, j, 0) for j, core in enumerate(cores)]
        return art, sp.csc_array(vals), pens

    if t.kind == "factor_smooth":
        fac = _factor_column(data, t.by_factor, t)
        levels = np.unique(fac)
        block, cores, knots, degrees = _marginal_product(t, data)
        if isinstance(cores, PenaltyCore):
            cores = [cores]
        block, cores, Z = basis_mod.absorb_sumtozero(block, cores)
        X, offs = _level_blocks(block.values, fac, levels)
        pens = []
        for lvl_i in range(len(levels)):
            for j, core in enumerate(cores):
                pens.append((core, j, offs[lvl_i]))
        art = TermArtifact(spec=t, col_start=0, col_count=X.shape[1],
                           knots=knots, degrees=degrees, constraint=Z,
                           levels=[str(v) for v in levels])
        return art, X, pens

    if t.kind == "random_smooth":
        fac = _factor_column(data, t.by_factor, t)
        levels = np.unique(fac)
        block, cores, knots, degrees = _marginal_product(t, data)
        core = cores[0] if isinstance(cores, list) else cores
        rep = basis_mod.demmler_reinsch(block, core)
        rand = basis_mod.randomize_smooth(rep)
        k = block.k
        n0 = rep.kernel_dim
        vals = np.hstack([rep.X_tilde, np.ones((n, 1))])
        X, offs = _level_blocks(vals, fac, levels)
        s_core = rand[0]
        pens = []
        for lvl_i in range(len(levels)):
            off = offs[lvl_i]
            pens.append((s_core, 0, off))
            for ni in range(n0 - 1):
                psi = PenaltyCore(matrix=np.eye(1), kernel_dim=0, rank=1)
                pens.append((psi, 1 + ni, off + k - n0 + ni))
            # trailing ridge covers the last kernel column and the constant
            psi_last = PenaltyCore(matrix=np.eye(2), kernel_dim=0, rank=2)
            pens.append((psi_last, n0, off + k - 1))
        art = TermArtifact(spec=t, col_start=0, col_count=X.shape[1],
                           knots=knots, degrees=degrees, reparam=rep.P,
                           levels=[str(v) for v in levels])
        return art, X, pens

    if t.kind == "random_intercept":
        fac = _factor_column(data, t.by_factor, t)
        levels = np.unique(fac)
        cols = np.asarray(fac[:, None] == levels[None, :], dtype=float)
        nl = len(levels)
        core = PenaltyCore(matrix=np.eye(nl), kernel_dim=0, rank=nl)
        art = TermArtifact(spec=t, col_start=0, col_count=nl,
                           levels=[str(v) for v in levels])
        return art, sp.csc_array(cols), [(core, 0, 0)]

    raise SpecError(f"unhandled term kind {t.kind!r}")


def _marginal_product(t, data):
    """Marginal bases of a (possibly tensor) smooth plus their penalties."""
    ncov = len(t.covariates)
    ks = _as_list(t.k, ncov)
    degrees = _as_list(t.degree, ncov)
    orders = _as_list(t.penalty_order, ncov)
    margins = []
    knots = []
    for c, k, d, m in zip(t.covariates, ks, degrees, orders):
        x = _numeric_column(data, c, t)
        b = basis_mod.bspline_basis(x, k, d)
        b.covariate_names = [c]
        margins.append((b, basis_mod.difference_penalty(k, m)))
        knots.append(b.knots)
    if ncov == 1:
        block, core = margins[0]
        return block, core, knots, degrees
    if t.kind == "tensor" or ncov > 1:
        block, cores = basis_mod.tensor_product(margins)
        return block, cores, knots, degrees
    raise SpecError("smooth terms take a single covariate")


def _raw_marginal_values(t, data, knots, degrees, clamp):
    ncov = len(t.covariates)
    mats = []
    for c, kn, d in zip(t.covariates, knots, degrees):
        x = _numeric_column(data, c, t)
        mats.append(basis_mod.evaluate_bspline(kn, d, x, clamp=clamp))
    vals = mats[0]
    for m in mats[1:]:
        vals = _rowwise_prod(vals, m)
    return vals


def _rowwise_prod(a, b):
    n = a.shape[0]
    return (a[:, :, None] * b[:, None, :]).reshape(n, -1)


def _level_blocks(values, fac, levels):
    """Block-diagonal layout of per-level copies of ``values``."""
    n, k = values.shape
    level_of = {lvl: i for i, lvl in enumerate(levels)}
    col_of = np.array([level_of[v] for v in fac], dtype=np.int64)
    rows = np.repeat(np.arange(n), k)
    cols = (col_of[:, None] * k + np.arange(k)[None, :]).ravel()
    X = sp.csc_array((values.ravel(), (rows, cols)),
                     shape=(n, k * len(levels)))
    offsets = [i * k for i in range(len(levels))]
    return X, offsets


def _term_rows(art, data, n, clamp):
    """Prediction rows for one term (user row order)."""
    t = art.spec
    if t.kind == "intercept":
        if t.by_factor is None:
            return sp.csc_array(np.ones((n, 1)))
        fac = _match_levels(data, t, art.levels)
        cols = np.asarray(fac[:, None] == np.asarray(art.levels)[None, 1:],
                          dtype=float)
        return sp.csc_array(cols)
    if t.kind == "linear":
        cols = np.column_stack([_numeric_column(data, c, t)
                                for c in t.covariates])
        if t.by_factor is not None:
            fac = _match_levels(data, t, art.levels)
            ind = np.asarray(fac[:, None] == np.asarray(art.levels)[None, 1:],
                             dtype=float)
            cols = _rowwise_prod(cols, ind)
        return sp.csc_array(cols)
    if t.kind in ("smooth", "tensor"):
        raw = _raw_marginal_values(t, data, art.knots, art.degrees, clamp)
        return sp.csc_array(raw @ art.constraint)
    if t.kind == "factor_smooth":
        raw = _raw_marginal_values(t, data, art.knots, art.degrees, clamp)
        vals = raw @ art.constraint
        fac = _match_levels(data, t, art.levels)
        X, _ = _level_blocks(vals, fac, np.asarray(art.levels))
        return X
    if t.kind == "random_smooth":
        raw = _raw_marginal_values(t, data, art.knots, art.degrees, clamp)
        vals = np.hstack([raw @ art.reparam, np.ones((n, 1))])
        fac = _match_levels(data, t, art.levels)
        X, _ = _level_blocks(vals, fac, np.asarray(art.levels))
        return X
    if t.kind == "random_intercept":
        fac = _match_levels(data, t, art.levels)
        cols = np.asarray(fac[:, None] == np.asarray(art.levels)[None, :],
                          dtype=float)
        return sp.csc_array(cols)
    raise SpecError(f"unhandled term kind {t.kind!r}")


def _match_levels(data, t, levels):
    fac = _factor_column(data, t.by_factor, t).astype(str)
    known = set(levels)
    unseen = sorted({v for v in fac if v not in known})
    if unseen:
        raise SpecError(f"term {t.name!r}: unseen factor levels {unseen[:5]}")
    return fac


def balanced_penalty(design):
    """Frobenius-balanced penalty sum used for rank interrogation."""
    if design.n_lambda < 1:
        raise SpecError("model has no penalties")
    total = None
    for r in range(design.n_lambda):
        S = design.S_emb(r)
        norm = sp.linalg.norm(S)
        if norm == 0:
            raise SpecError(f"penalty {r} is identically zero")
        piece = S / norm
        total = piece if total is None else total + piece
    return sp.csc_array(total)
