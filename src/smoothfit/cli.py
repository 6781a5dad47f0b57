"""Command-line front end.

Subcommands: ``fit``, ``predict``, ``aic``, ``sample``, ``simulate``.
Input tables are strict CSV (header required, UTF-8, '.' decimal, no
missing-value tokens); the model is described by a JSON spec document
holding the response column and the term list.  Fits are persisted as a
versioned JSON artifact plus an optional binary factor sidecar that lets
``predict`` produce credible intervals without touching the training data.

Exit codes: 0 success, 1 numeric/convergence failure, 2 input error.
"""

import argparse
import csv
import json
import logging
import sys
import zipfile

import numpy as np
import scipy.sparse as sp

from . import sparsela
from .design import ModelSpec, TermSpec, build_design, _term_rows, \
    _table_length, TermArtifact
from .efs import EFSControl, fit_additive, fit_gam, fit_gsmm
from .errors import NumericError, SmoothfitError, SpecError
from .families import CoxphFamily, GamlssFamily, get_family, get_link
from .lqefs import DenseUpperFactor, LqefsControl, lqefs_fit
from .simulate import STUDIES, run_study
from .uncertainty import caic, credible_intervals, sample_beta_conditional

ARTIFACT_SCHEMA = "smoothfit-fit/1"
NA_TOKENS = {"", "na", "n/a", "nan", "null", "none"}
GSMM_FAMILIES = ("coxph", "gaussian_ls", "gamma_ls")

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def read_table(path):
    """Strict CSV reader: header required, rectangular, no NA tokens.

    Columns in which every value parses as a float become numeric; all
    others are kept as string factors.  Errors name the offending line.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SpecError(f"{path}: empty file (header required)") from None
        if len(set(header)) != len(header) or any(h == "" for h in header):
            raise SpecError(f"{path}: header must have unique non-empty names")
        cols = {h: [] for h in header}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SpecError(f"{path}: line {lineno}: expected "
                                f"{len(header)} fields, got {len(row)}")
            for h, val in zip(header, row):
                if val.strip().lower() in NA_TOKENS:
                    raise SpecError(f"{path}: line {lineno}: missing value "
                                    f"in column {h!r} (NA tokens rejected)")
                cols[h].append(val)
    out = {}
    for h, vals in cols.items():
        try:
            out[h] = np.array([float(v) for v in vals])
        except ValueError:
            out[h] = np.array(vals)
    return out


def write_table(path, rows, columns=None):
    """Write a CSV table with floats as their ``repr`` text.

    ``rows`` is a list of row dicts (a cell missing from a row is written
    empty; the columns default to the sorted keys) or a dict of
    equal-length array columns, written in ``columns`` or insertion order.
    """
    if isinstance(rows, dict):
        columns = list(rows) if columns is None else columns
        body = zip(*[_cells(rows[c]) for c in columns])
    else:
        if columns is None:
            columns = sorted({k for row in rows for k in row})
        body = ([_fmt(row.get(c, "")) for c in columns] for row in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(body)


def _cells(col):
    col = np.asarray(col)
    vals = col.tolist()
    return list(map(repr, vals)) if col.dtype.kind == "f" else vals


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


# ---------------------------------------------------------------------------
# spec document and artifact
# ---------------------------------------------------------------------------

def read_spec_doc(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from None
    if "terms" not in doc or "response" not in doc:
        raise SpecError(f"{path}: spec document needs 'response' and 'terms'")
    return doc


def _arr(a):
    return None if a is None else np.asarray(a).tolist()


def _terms_payload(design):
    out = []
    for art in design.terms:
        out.append({
            "spec": art.spec.to_dict(),
            "col_start": art.col_start,
            "col_count": art.col_count,
            "knots": None if art.knots is None else [_arr(k)
                                                     for k in art.knots],
            "degrees": art.degrees,
            "constraint": _arr(art.constraint),
            "reparam": _arr(art.reparam),
            "levels": art.levels,
        })
    return out


def _terms_from_payload(payload):
    arts = []
    for td in payload:
        arts.append(TermArtifact(
            spec=TermSpec.from_dict(td["spec"]),
            col_start=td["col_start"], col_count=td["col_count"],
            knots=None if td["knots"] is None else [np.asarray(k)
                                                    for k in td["knots"]],
            degrees=td["degrees"],
            constraint=None if td["constraint"] is None
            else np.asarray(td["constraint"]),
            reparam=None if td["reparam"] is None
            else np.asarray(td["reparam"]),
            levels=td["levels"]))
    return arts


def build_artifact(doc, config, fit, design):
    diag = {k: v for k, v in fit.diagnostics.items()
            if isinstance(v, (int, float, str, bool, list))}
    return {
        "schema": ARTIFACT_SCHEMA,
        "spec_doc": doc,
        "engine": config["engine"],
        "family": config["family"],
        "link": config["link"],
        "options": {"nv": config.get("nv"), "max_inner": config.get("max_inner"),
                    "tol": config.get("tol"), "seed": config.get("seed")},
        "n_obs": design.N,
        "n_coef": design.N_p,
        "n_lambda": design.n_lambda,
        "coefficients": fit.beta.tolist(),
        "lambda": fit.lam.tolist(),
        "rho": fit.rho.tolist(),
        "phi": fit.phi,
        "edf": fit.edf,
        "term_edf": fit.term_edf,
        "reml": fit.reml,
        "llk": fit.llk,
        "penalized_llk": fit.penalized_llk,
        "converged": bool(fit.converged),
        "iterations": fit.iterations,
        "eps_H": fit.eps_H,
        "dropped": sorted(fit.dropped),
        "diagnostics": diag,
        "terms": _terms_payload(design),
    }


def save_artifact(path, artifact, fit=None, sidecar=True):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if sidecar and fit is not None:
        _save_sidecar(path + ".cache.npz", fit)


def _save_sidecar(path, fit):
    payload = {"engine": np.array(fit.engine), "phi": np.array(fit.phi),
               "coefficients": np.asarray(fit.beta, dtype=float)}
    factor = fit._factor
    if isinstance(factor, sparsela.CholeskyFactor):
        L = factor.L
        payload.update(Lp=L.indptr, Li=L.indices, Lx=L.data,
                       perm=factor.perm, kind=np.array("cholesky"))
        if factor.dscale is not None:
            payload["dscale"] = factor.dscale
    else:
        payload.update(R=factor.R, kind=np.array("dense_r"))
    if fit._transform is not None:
        T = fit._transform.tocoo()
        payload.update(T_row=T.row, T_col=T.col, T_val=T.data,
                       T_shape=np.array(T.shape))
    if fit.dropped:
        payload["keep"] = fit._keep
    np.savez(path, **payload)


def _load_sidecar(path, beta):
    """(factor, T, keep) from a sidecar written by :func:`_save_sidecar`.

    Raises ValueError when the stored arrays do not fit together, when
    the stored coefficients are not exactly the artifact's ``beta`` (the
    sidecar of another fit) or when a ``dense_r`` factor carries a column
    ordering (``perm``, ``kept``: an earlier version's QR factor, whose R
    is in permuted column order), and KeyError when an array is missing.
    """
    n_coef = beta.size
    with np.load(path, allow_pickle=False) as data:
        if not np.array_equal(data["coefficients"], beta):
            raise ValueError("stored coefficients differ from the "
                             "artifact's")
        T = keep = None
        if "T_row" in data:
            T = sp.csc_array((data["T_val"], (data["T_row"], data["T_col"])),
                             shape=tuple(data["T_shape"]))
            if T.shape[0] != n_coef:
                raise ValueError(f"transform has {T.shape[0]} rows for "
                                 f"{n_coef} coefficients")
        n_work = n_coef if T is None else T.shape[1]
        if "keep" in data:
            keep = data["keep"]
            if keep.ndim != 1 or np.unique(keep).size != keep.size \
                    or np.any((keep < 0) | (keep >= n_work)):
                raise ValueError(f"kept columns do not index {n_work} "
                                 f"coefficients")
        n = n_work if keep is None else keep.size
        kind = str(data["kind"])
        if kind == "cholesky":
            perm = data["perm"]
            if not np.array_equal(np.sort(perm), np.arange(n)):
                raise ValueError(f"stored ordering is not a permutation of "
                                 f"{n}")
            L = sp.csc_array((data["Lx"], data["Li"], data["Lp"]),
                             shape=(n, n))
            L.check_format(full_check=True)   # indices inside the matrix
            dscale = data["dscale"] if "dscale" in data else None
            if dscale is not None and dscale.shape != (n,):
                raise ValueError(f"preconditioner does not have {n} entries")
            return (sparsela.CholeskyFactor.from_lower(L, perm, dscale), T,
                    keep)
        if kind == "dense_r":
            if "perm" in data or "kept" in data:
                raise ValueError("dense factor in permuted column order "
                                 "(an earlier version's QR route)")
            R = data["R"]
            if R.shape != (n, n):
                raise ValueError(f"R is {R.shape}, expected {(n, n)}")
            return DenseUpperFactor(R), T, keep
        raise ValueError(f"unknown factor kind {kind!r}")


class RestoredFit:
    """Just enough of a fit state to rebuild predictions with intervals.

    ``factor`` is the factor of the penalized Hessian rebuilt from the
    sidecar, or None without a usable one: a missing sidecar is silent, an
    unreadable or mismatched one is logged, and either way ``predict``
    writes point predictions without intervals.
    """

    def __init__(self, artifact, sidecar_path=None):
        self.artifact = artifact
        self.beta = np.asarray(artifact["coefficients"])
        self.engine = artifact["engine"]
        self.phi = artifact["phi"]
        self.terms = _terms_from_payload(artifact["terms"])
        self.param_count = 1 + max(t.spec.parameter_index for t in self.terms)
        self.factor = self._T = self._keep = None
        if sidecar_path is None:
            return
        try:
            self.factor, self._T, self._keep = _load_sidecar(
                sidecar_path, self.beta)
        except FileNotFoundError:
            pass
        except (OSError, EOFError, zipfile.BadZipFile, KeyError, ValueError,
                SmoothfitError) as exc:
            logger.warning("ignoring factor sidecar %s (%s): predictions "
                           "carry no intervals", sidecar_path, exc)

    def covariance_scale(self):
        return self.phi if self.engine in ("am", "gam") else 1.0

    def solve_H(self, b):
        """H_p^{-1} b in original coordinates for a vector or a dense block
        of columns, through the stored transform ``T`` and kept columns."""
        if self.factor is None:
            raise NumericError("factor cache sidecar missing; cannot form "
                               "intervals")
        b = np.asarray(b, dtype=float)
        bw = b if self._T is None else np.asarray(self._T.T @ b)
        if self._keep is None:
            xw = self.factor.solve(bw)
        else:
            xw = np.zeros(bw.shape)
            xw[self._keep] = self.factor.solve(bw[self._keep])
        return xw if self._T is None else np.asarray(self._T @ xw)

    def predict_rows(self, data, clamp=True):
        n = _table_length(data)
        mats = [_term_rows(t, data, n, clamp=clamp) for t in self.terms]
        return sp.csc_array(sp.hstack(mats, format="csc"))

    def param_slices(self):
        out = []
        start = 0
        for m in range(self.param_count):
            cols = sum(t.col_count for t in self.terms
                       if t.spec.parameter_index == m)
            out.append(slice(start, start + cols))
            start += cols
        return out


# ---------------------------------------------------------------------------
# model construction shared by fit/aic/sample
# ---------------------------------------------------------------------------

def _control_from(args_like):
    return EFSControl(max_inner=args_like.get("max_inner", 1),
                      tol=args_like.get("tol", 1e-7))


def fit_from_config(doc, data, config):
    """Build the design and run the configured engine; returns (fit, design,
    response vector)."""
    spec = ModelSpec.from_dict(doc)
    engine = config["engine"]
    family = config["family"]
    link = config["link"]
    resp = doc["response"]
    if resp not in data:
        raise SpecError(f"response column {resp!r} not in the data")
    design = build_design(spec, data)
    opts = {k: config[k] for k in ("max_inner", "tol")
            if config.get(k) is not None}
    if engine == "am":
        if family != "gaussian" or link not in (None, "identity"):
            raise SpecError("engine 'am' requires the gaussian family with "
                            "the identity link")
        y = np.asarray(data[resp], dtype=float)
        return fit_additive(design, y, _control_from(opts)), design, y
    if engine == "gam":
        y = np.asarray(data[resp], dtype=float)
        fam = get_family(family)
        lnk = get_link(link) if link else get_link(fam.default_link)
        return fit_gam(design, y, fam, lnk, _control_from(opts)), design, y
    if engine in ("gsmm", "lqefs"):
        if family not in GSMM_FAMILIES:
            raise SpecError(f"engine {engine!r} supports families "
                            f"{GSMM_FAMILIES}")
        if family == "coxph":
            event = doc.get("event")
            if event is None or event not in data:
                raise SpecError("coxph needs an 'event' column in the spec "
                                "document")
            y = np.asarray(data[resp], dtype=float)
            fam = CoxphFamily(y, np.asarray(data[event], dtype=float))
        else:
            y = np.asarray(data[resp], dtype=float)
            fam = GamlssFamily(family, y)
        if engine == "gsmm":
            return fit_gsmm(design, fam, _control_from(opts)), design, y
        ctl = LqefsControl(n_v=config.get("nv") or 30,
                           tol=config.get("tol") or 1e-7,
                           seed=config.get("seed") or 0)
        return lqefs_fit(design, fam, ctl), design, y
    raise SpecError(f"unknown engine {engine!r}")


def refit_artifact(artifact, data, path):
    """Re-fit the model an artifact describes on ``data``.

    Raises SpecError unless the re-fit coefficients reproduce the
    artifact's, to 1e-8 of max(1, max|beta|): the data must be the table
    the artifact was fitted on.
    """
    config = {"engine": artifact["engine"], "family": artifact["family"],
              "link": artifact["link"], **artifact["options"]}
    fit, _, _ = fit_from_config(artifact["spec_doc"], data, config)
    stored = np.asarray(artifact["coefficients"], dtype=float)
    if stored.shape != fit.beta.shape or np.max(np.abs(fit.beta - stored)) \
            > 1e-8 * max(1.0, float(np.max(np.abs(stored)))):
        raise SpecError(f"{path}: artifact was not fitted on this data")
    return fit


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args):
    data = read_table(args.data)
    doc = read_spec_doc(args.spec)
    config = {"engine": args.engine, "family": args.family,
              "link": args.link, "nv": args.nv, "max_inner": args.max_inner,
              "tol": args.tol, "seed": args.seed}
    fit, design, _ = fit_from_config(doc, data, config)
    artifact = build_artifact(doc, config, fit, design)
    save_artifact(args.out, artifact, fit=fit, sidecar=not args.no_cache)
    print(f"engine={fit.engine} converged={fit.converged} "
          f"iterations={fit.iterations}")
    print(f"edf={fit.edf:.3f} phi={fit.phi:.5g} reml={fit.reml:.6g}")
    for name, edf in fit.term_edf.items():
        print(f"  {name}: edf={edf:.3f}")
    if fit.dropped:
        print(f"dropped coefficients: {sorted(fit.dropped)}")
    if not fit.converged:
        print("warning: fit did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_predict(args):
    with open(args.artifact, encoding="utf-8") as fh:
        artifact = json.load(fh)
    if artifact.get("schema") != ARTIFACT_SCHEMA:
        raise SpecError(f"{args.artifact}: unknown artifact schema")
    restored = RestoredFit(artifact, sidecar_path=args.artifact + ".cache.npz")
    data = read_table(args.data)
    n = _table_length(data)
    cols = {"row": np.arange(n)}
    if n:
        X = restored.predict_rows(data, clamp=True)
        slices = restored.param_slices()
        link = get_link(artifact["link"] or "identity") \
            if artifact["family"] in ("gaussian", "gamma", "binomial",
                                      "poisson", "inverse_gaussian") \
            else get_link("identity")
        for m, sl in enumerate(slices):
            cols[f"eta_{m}"] = np.asarray(X[:, sl] @ restored.beta[sl])
        cols["mu"] = link.inverse(cols["eta_0"])
        if restored.factor is not None:
            # the interval of eta_0 sees only its own coefficients
            X0 = X
            if len(slices) > 1:
                mask = np.zeros(X.shape[1])
                mask[slices[0]] = 1.0
                X0 = X @ sp.diags_array(mask)
            _, cols["eta_0_lo"], cols["eta_0_hi"], _ = credible_intervals(
                restored, X0, level=0.95)
    write_table(args.out, cols)
    print(f"wrote {n} prediction rows to {args.out}")
    return 0


def cmd_aic(args):
    data = read_table(args.data)
    variants = [v.strip() for v in args.aic_variant.split(",") if v.strip()]
    rows = []
    fits = []
    ref = None
    for path in args.artifacts:
        with open(path, encoding="utf-8") as fh:
            artifact = json.load(fh)
        doc = artifact["spec_doc"]
        if ref is None:
            ref = (doc["response"], artifact["n_obs"])
        elif doc["response"] != ref[0] or artifact["n_obs"] != ref[1]:
            raise SpecError("artifacts disagree on the response vector")
        fits.append((path, refit_artifact(artifact, data, path)))
    for path, fit in fits:
        row = {"model": path, "llk": fit.llk, "tau": fit.edf}
        for variant in variants:
            rep = caic(fit, variant, n_r=args.nr, seed=args.seed)
            row[f"caic_{variant}"] = rep.caic
            row[f"tau_prime_{variant}"] = rep.tau_prime
        rows.append(row)
    for variant in variants:
        key = f"caic_{variant}"
        best = min(range(len(rows)), key=lambda i: rows[i][key])
        for i, row in enumerate(rows):
            row[f"preferred_{variant}"] = int(i == best)
    columns = (["model", "llk", "tau"]
               + [f"tau_prime_{v}" for v in variants]
               + [f"caic_{v}" for v in variants]
               + [f"preferred_{v}" for v in variants])
    write_table(args.out, rows, columns)
    print(f"wrote comparison of {len(rows)} models to {args.out}")
    return 0


def cmd_sample(args):
    data = read_table(args.data)
    with open(args.artifact, encoding="utf-8") as fh:
        artifact = json.load(fh)
    fit = refit_artifact(artifact, data, args.artifact)
    draws = sample_beta_conditional(fit, args.n, seed=args.seed)
    rows = [{"draw": i, **{f"b{j}": draws[j, i]
                           for j in range(draws.shape[0])}}
            for i in range(draws.shape[1])]
    write_table(args.out, rows,
                ["draw"] + [f"b{j}" for j in range(draws.shape[0])])
    print(f"wrote {args.n} posterior draws to {args.out}")
    return 0


def cmd_simulate(args):
    rows = run_study(args.study, args.replicates, args.seed, n=args.n,
                     effect=args.effect, n_r=args.nr, nv=args.nv)
    write_table(args.out, rows)
    print(f"wrote {len(rows)} metric rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="smoothfit",
        description="estimation, regularization, and selection of mixed "
                    "sparse smooth models")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate a model and save an artifact")
    fit.add_argument("--data", required=True)
    fit.add_argument("--spec", required=True)
    fit.add_argument("--engine", default="am",
                     choices=["am", "gam", "gsmm", "lqefs"])
    fit.add_argument("--family", default="gaussian")
    fit.add_argument("--link", default=None)
    fit.add_argument("--nv", type=int, default=30)
    fit.add_argument("--max-inner", dest="max_inner", type=int, default=1)
    fit.add_argument("--tol", type=float, default=1e-7)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True)
    fit.add_argument("--no-cache", action="store_true",
                     help="skip the binary factor sidecar")
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="predictions from a fit artifact")
    pred.add_argument("--artifact", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)
    pred.set_defaults(func=cmd_predict)

    aic = sub.add_parser("aic", help="compare fit artifacts by cAIC")
    aic.add_argument("artifacts", nargs="+")
    aic.add_argument("--data", required=True)
    aic.add_argument("--aic-variant", dest="aic_variant",
                     default="conventional,pql_corrected")
    aic.add_argument("--nr", type=int, default=250)
    aic.add_argument("--seed", type=int, default=0)
    aic.add_argument("--out", required=True)
    aic.set_defaults(func=cmd_aic)

    samp = sub.add_parser("sample", help="draws from the coefficient "
                                         "posterior approximation")
    samp.add_argument("--artifact", required=True)
    samp.add_argument("--data", required=True)
    samp.add_argument("--n", type=int, default=1000)
    samp.add_argument("--seed", type=int, default=0)
    samp.add_argument("--out", required=True)
    samp.set_defaults(func=cmd_sample)

    sim = sub.add_parser("simulate", help="run a desk-scale study")
    sim.add_argument("--study", required=True, choices=list(STUDIES))
    sim.add_argument("--replicates", type=int, default=5)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--effect", type=float, default=None)
    sim.add_argument("--nr", type=int, default=250)
    sim.add_argument("--nv", type=int, default=30)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SmoothfitError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
