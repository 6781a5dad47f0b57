"""Command-line round trips, error contracts, determinism, formats."""

import csv
import json

import numpy as np
import pytest

from smoothfit.cli import main, read_table, write_table
from smoothfit.errors import SpecError


def write_csv(path, cols):
    names = list(cols)
    n = len(next(iter(cols.values())))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for i in range(n):
            w.writerow([cols[c][i] for c in names])


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(42)
    n = 150
    x = rng.uniform(-1, 1, n)
    v = rng.uniform(-1, 1, n)
    y = 2 * np.sin(np.pi * (x + 1) / 2) + 0.4 * v + rng.normal(0, 0.8, n)
    data = tmp_path / "train.csv"
    write_csv(data, {"y": [float(t) for t in y],
                     "x": [float(t) for t in x],
                     "v": [float(t) for t in v]})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "response": "y",
        "terms": [{"kind": "intercept"},
                  {"kind": "linear", "covariates": ["v"]},
                  {"kind": "smooth", "covariates": ["x"], "k": 10}]}))
    spec0 = tmp_path / "spec0.json"
    spec0.write_text(json.dumps({
        "response": "y",
        "terms": [{"kind": "intercept"},
                  {"kind": "linear", "covariates": ["v"]}]}))
    return tmp_path, data, spec, spec0, x, v, y


class TestReadTable:
    def test_rejects_na_with_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,NA\n")
        with pytest.raises(SpecError, match="line 3"):
            read_table(p)

    def test_rejects_ragged_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0\n")
        with pytest.raises(SpecError, match="line 2"):
            read_table(p)

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("")
        with pytest.raises(SpecError, match="header"):
            read_table(p)

    def test_factor_columns_stay_strings(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("a,g\n1.0,s1\n2.5,s2\n")
        t = read_table(p)
        assert t["a"].dtype.kind == "f"
        assert t["g"].dtype.kind in ("U", "O", "S")


class TestFit:
    def test_intercept_only(self, tmp_path):
        write_csv(tmp_path / "d.csv", {"y": [1.0, 2.0, 3.0],
                                       "c": [0.0, 0.0, 0.0]})
        (tmp_path / "s.json").write_text(json.dumps(
            {"response": "y", "terms": [{"kind": "intercept"}]}))
        rc = main(["fit", "--data", str(tmp_path / "d.csv"),
                   "--spec", str(tmp_path / "s.json"),
                   "--engine", "am", "--out", str(tmp_path / "m.json")])
        assert rc == 0
        art = json.loads((tmp_path / "m.json").read_text())
        assert abs(art["coefficients"][0] - 2.0) < 1e-10
        assert np.isfinite(art["phi"])

    def test_malformed_csv_exit_2(self, workspace):
        tmp, data, spec, *_ = workspace
        bad = tmp / "bad.csv"
        bad.write_text("y,x,v\n1.0,0.1,0.2\n2.0,NA,0.3\n")
        rc = main(["fit", "--data", str(bad), "--spec", str(spec),
                   "--engine", "am", "--out", str(tmp / "m.json")])
        assert rc == 2

    def test_engine_family_validated(self, workspace):
        tmp, data, spec, *_ = workspace
        rc = main(["fit", "--data", str(data), "--spec", str(spec),
                   "--engine", "am", "--family", "gamma",
                   "--out", str(tmp / "m.json")])
        assert rc == 2

    def test_deterministic_artifact(self, workspace):
        tmp, data, spec, *_ = workspace
        for name in ("m1.json", "m2.json"):
            rc = main(["fit", "--data", str(data), "--spec", str(spec),
                       "--engine", "am", "--seed", "7",
                       "--out", str(tmp / name)])
            assert rc == 0
        assert (tmp / "m1.json").read_bytes() == \
            (tmp / "m2.json").read_bytes()


class TestPredict:
    def test_training_rows_reproduce_fit(self, workspace):
        tmp, data, spec, _, x, v, y = workspace
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "m.json")])
        rc = main(["predict", "--artifact", str(tmp / "m.json"),
                   "--data", str(data), "--out", str(tmp / "pred.csv")])
        assert rc == 0
        art = json.loads((tmp / "m.json").read_text())
        pred = read_table(tmp / "pred.csv")
        # in-process fitted values from the artifact
        from smoothfit.cli import RestoredFit
        restored = RestoredFit(art)
        table = read_table(data)
        mu = np.asarray(restored.predict_rows(table)
                        @ np.asarray(art["coefficients"]))
        np.testing.assert_allclose(pred["mu"], mu, atol=1e-12)
        # interval half-widths match the library call
        from smoothfit import uncertainty as unc
        from smoothfit.cli import fit_from_config
        fit, design, _ = fit_from_config(art["spec_doc"], table,
                                         {"engine": "am",
                                          "family": "gaussian",
                                          "link": None})
        Xp = design.build_rows(table)
        _, lo, hi, _ = unc.credible_intervals(fit, Xp, level=0.95)
        np.testing.assert_allclose(pred["eta_0_hi"] - pred["eta_0_lo"],
                                   hi - lo, atol=1e-10)

    def test_empty_prediction_table(self, workspace, tmp_path):
        tmp, data, spec, *_ = workspace
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "m.json")])
        empty = tmp / "empty.csv"
        empty.write_text("y,x,v\n")
        rc = main(["predict", "--artifact", str(tmp / "m.json"),
                   "--data", str(empty), "--out", str(tmp / "pred.csv")])
        assert rc == 0
        lines = (tmp / "pred.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_out_of_range_clamped(self, workspace, caplog):
        tmp, data, spec, *_ = workspace
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "m.json")])
        far = tmp / "far.csv"
        write_csv(far, {"y": [0.0], "x": [5.0], "v": [0.0]})
        with caplog.at_level("WARNING"):
            rc = main(["predict", "--artifact", str(tmp / "m.json"),
                       "--data", str(far), "--out", str(tmp / "p.csv")])
        assert rc == 0
        assert "clamped" in caplog.text


class TestSidecar:
    """A sidecar that cannot serve degrades to point predictions."""

    def _fit(self, workspace, name="m.json", spec_index=2):
        tmp = workspace[0]
        rc = main(["fit", "--data", str(workspace[1]),
                   "--spec", str(workspace[spec_index]),
                   "--engine", "am", "--out", str(tmp / name)])
        assert rc == 0
        return tmp / name

    def _predict_header(self, workspace, artifact):
        out = workspace[0] / "pred.csv"
        rc = main(["predict", "--artifact", str(artifact),
                   "--data", str(workspace[1]), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            return fh.readline().strip().split(",")

    def _check_degraded(self, workspace, artifact, caplog):
        with caplog.at_level("WARNING"):
            header = self._predict_header(workspace, artifact)
        assert "mu" in header and "eta_0_lo" not in header
        assert "sidecar" in caplog.text

    def test_missing_sidecar_is_silent(self, workspace, caplog):
        art = self._fit(workspace)
        (workspace[0] / "m.json.cache.npz").unlink()
        with caplog.at_level("WARNING"):
            header = self._predict_header(workspace, art)
        assert "eta_0_lo" not in header
        assert "sidecar" not in caplog.text

    def test_garbage_sidecar(self, workspace, caplog):
        art = self._fit(workspace)
        (workspace[0] / "m.json.cache.npz").write_bytes(b"not an npz file")
        self._check_degraded(workspace, art, caplog)

    def test_sidecar_missing_key(self, workspace, caplog):
        art = self._fit(workspace)
        path = workspace[0] / "m.json.cache.npz"
        with np.load(path) as data:
            kept = {k: data[k] for k in data.files if k != "Lp"}
        np.savez(path, **kept)
        self._check_degraded(workspace, art, caplog)

    def test_sidecar_of_another_model(self, workspace, caplog):
        art = self._fit(workspace)
        self._fit(workspace, name="small.json", spec_index=3)
        (workspace[0] / "small.json.cache.npz").replace(
            workspace[0] / "m.json.cache.npz")
        self._check_degraded(workspace, art, caplog)

    def test_sidecar_of_a_same_spec_fit_on_other_data(self, workspace,
                                                       caplog):
        tmp, _, spec, _, x, v, y = workspace
        art = self._fit(workspace)
        other = tmp / "other.csv"
        write_csv(other, {"y": [float(t) for t in y + 0.5 * np.sin(3 * x)],
                          "x": [float(t) for t in x],
                          "v": [float(t) for t in v]})
        assert main(["fit", "--data", str(other), "--spec", str(spec),
                     "--engine", "am", "--out", str(tmp / "o.json")]) == 0
        mine, theirs = json.loads(art.read_text()), \
            json.loads((tmp / "o.json").read_text())
        assert mine["n_coef"] == theirs["n_coef"]
        (tmp / "o.json.cache.npz").replace(tmp / "m.json.cache.npz")
        self._check_degraded(workspace, art, caplog)

    def test_dense_factor_with_column_order_refused(self, workspace, caplog,
                                                    capsys):
        # a dense R with an ordering ``perm`` and retained columns ``kept``
        # is in permuted column order, which the dense factor cannot apply:
        # its intervals would be silently wrong
        art = self._fit(workspace)
        path = workspace[0] / "m.json.cache.npz"
        with np.load(path) as data:
            beta = data["coefficients"]
            stored = {k: data[k] for k in ("engine", "phi", "coefficients")}
        n = beta.size
        np.savez(path, **stored, kind=np.array("dense_r"), R=np.eye(n),
                 perm=np.arange(n)[::-1], kept=np.arange(n))
        self._check_degraded(workspace, art, caplog)
        assert "Traceback" not in capsys.readouterr().err


@pytest.fixture
def duplicate_workspace(tmp_path):
    """Smooths of v, of its copy v2 and of x: the rank check drops one
    column.  The table holds a Gaussian response y and Cox times t."""
    rng = np.random.default_rng(0)
    n = 300
    v = rng.uniform(-1, 1, n)
    x = rng.uniform(-1, 1, n)
    eta = np.sin(np.pi * v) + x ** 2
    data = tmp_path / "dup.csv"
    write_csv(data, {"y": [float(t) for t in eta + rng.normal(0, 0.5, n)],
                     "t": [float(t) for t in rng.exponential(np.exp(-eta))],
                     "d": [1.0] * n,
                     "v": [float(t) for t in v], "v2": [float(t) for t in v],
                     "x": [float(t) for t in x]})
    smooths = [{"kind": "smooth", "covariates": [c], "k": 8}
               for c in ("v", "v2", "x")]
    am = tmp_path / "am.json"
    am.write_text(json.dumps({"response": "y",
                              "terms": [{"kind": "intercept"}] + smooths}))
    cox = tmp_path / "cox.json"
    cox.write_text(json.dumps({"response": "t", "event": "d",
                               "terms": smooths}))
    return tmp_path, data, am, cox


class TestRankCheckCli:
    """Fits that drop an unidentifiable column predict with intervals."""

    def _fit_and_predict(self, workspace, spec, engine_args, capsys):
        tmp, data = workspace[:2]
        art = tmp / "m.json"
        rc = main(["fit", "--data", str(data), "--spec", str(spec),
                   "--out", str(art), *engine_args])
        out = capsys.readouterr().out
        assert rc == 0
        stored = json.loads(art.read_text())
        assert len(stored["dropped"]) == 1 and stored["converged"]
        assert f"dropped coefficients: {stored['dropped']}" in out
        beta = np.asarray(stored["coefficients"])
        assert stored["dropped"][0] < beta.size
        rc = main(["predict", "--artifact", str(art), "--data", str(data),
                   "--out", str(tmp / "p.csv")])
        assert rc == 0
        p = read_table(tmp / "p.csv")
        assert np.all(np.isfinite(p["eta_0_lo"]))
        assert np.all((p["eta_0_lo"] < p["eta_0"])
                      & (p["eta_0"] < p["eta_0_hi"]))
        return stored

    def test_default_am_fit(self, duplicate_workspace, capsys):
        stored = self._fit_and_predict(duplicate_workspace,
                                       duplicate_workspace[2], [], capsys)
        assert stored["coefficients"][stored["dropped"][0]] == 0.0

    def test_coxph_gsmm_fit(self, duplicate_workspace, capsys):
        self._fit_and_predict(duplicate_workspace, duplicate_workspace[3],
                              ["--engine", "gsmm", "--family", "coxph"],
                              capsys)
        with np.load(duplicate_workspace[0] / "m.json.cache.npz") as side:
            assert side["keep"].size == side["coefficients"].size - 1


class TestAic:
    def test_identical_artifacts_zero_difference(self, workspace):
        tmp, data, spec, *_ = workspace
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "a.json")])
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "b.json")])
        rc = main(["aic", str(tmp / "a.json"), str(tmp / "b.json"),
                   "--data", str(data), "--out", str(tmp / "cmp.csv")])
        assert rc == 0
        t = read_table(tmp / "cmp.csv")
        assert abs(t["caic_conventional"][0]
                   - t["caic_conventional"][1]) < 1e-9

    def test_variant_columns_match_request(self, workspace):
        tmp, data, spec, spec0, *_ = workspace
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "a.json")])
        main(["fit", "--data", str(data), "--spec", str(spec0),
              "--engine", "am", "--out", str(tmp / "b.json")])
        rc = main(["aic", str(tmp / "a.json"), str(tmp / "b.json"),
                   "--data", str(data),
                   "--aic-variant", "conventional,mc_gaussian",
                   "--nr", "40", "--out", str(tmp / "cmp.csv")])
        assert rc == 0
        with open(tmp / "cmp.csv") as fh:
            header = fh.readline().strip().split(",")
        assert "caic_conventional" in header
        assert "caic_mc_gaussian" in header
        assert "caic_pql_corrected" not in header


    def test_artifact_from_other_data_rejected(self, workspace, capsys):
        # same row count and response, another covariate column: the re-fit
        # does not reproduce the artifact's coefficients
        tmp, data, spec, _, x, v, y = workspace
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "a.json")])
        other = tmp / "other.csv"
        write_csv(other, {"y": [float(t) for t in y],
                          "x": [float(t) for t in x[::-1]],
                          "v": [float(t) for t in v]})
        capsys.readouterr()
        assert main(["aic", str(tmp / "a.json"), "--data", str(other),
                     "--out", str(tmp / "cmp.csv")]) == 2
        err = capsys.readouterr().err
        assert "artifact was not fitted on this data" in err
        assert not (tmp / "cmp.csv").exists()
        assert main(["sample", "--artifact", str(tmp / "a.json"),
                     "--data", str(other), "--out", str(tmp / "d.csv")]) == 2
        assert main(["aic", str(tmp / "a.json"), "--data", str(data),
                     "--out", str(tmp / "cmp.csv")]) == 0


class TestSampleAndSimulate:
    def test_sample_deterministic(self, workspace):
        tmp, data, spec, *_ = workspace
        main(["fit", "--data", str(data), "--spec", str(spec),
              "--engine", "am", "--out", str(tmp / "m.json")])
        for name in ("d1.csv", "d2.csv"):
            rc = main(["sample", "--artifact", str(tmp / "m.json"),
                       "--data", str(data), "--n", "20", "--seed", "3",
                       "--out", str(tmp / name)])
            assert rc == 0
        assert (tmp / "d1.csv").read_bytes() == (tmp / "d2.csv").read_bytes()

    def test_simulate_s1_rows(self, tmp_path):
        rc = main(["simulate", "--study", "s1", "--replicates", "2",
                   "--n", "100", "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        t = read_table(tmp_path / "s.csv")
        assert len(t["mse"]) == 4  # 2 replicates x 2 engines
        assert np.all(np.isfinite(t["mse"]))

    def test_simulate_s5_selection_columns(self, tmp_path):
        rc = main(["simulate", "--study", "s5", "--replicates", "2",
                   "--n", "200", "--effect", "0.0", "--nr", "30",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        with open(tmp_path / "s.csv") as fh:
            header = fh.readline().strip().split(",")
        for v in ("conventional", "pql_corrected", "mc_gaussian"):
            assert f"select_{v}" in header

    def test_simulate_deterministic(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            main(["simulate", "--study", "s4", "--replicates", "1",
                  "--n", "150", "--effect", "0.5", "--nr", "25",
                  "--seed", "11", "--out", str(tmp_path / name)])
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()


class TestGsmmCli:
    @pytest.fixture
    def cox_artifact(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 120
        x = rng.uniform(-1, 1, n)
        rate = np.exp(0.8 * x)
        t = rng.exponential(1.0 / rate)
        data = tmp_path / "surv.csv"
        write_csv(data, {"t": [float(v) for v in t],
                         "d": [1.0] * n,
                         "x": [float(v) for v in x]})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "response": "t", "event": "d",
            "terms": [{"kind": "smooth", "covariates": ["x"], "k": 8}]}))
        rc = main(["fit", "--data", str(data), "--spec", str(spec),
                   "--engine", "gsmm", "--family", "coxph",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 0
        return tmp_path / "m.json", data

    def test_coxph_fit_and_predict(self, cox_artifact, tmp_path):
        art, data = cox_artifact
        rc = main(["predict", "--artifact", str(art),
                   "--data", str(data), "--out", str(tmp_path / "p.csv")])
        assert rc == 0
        p = read_table(tmp_path / "p.csv")
        assert np.all(np.isfinite(p["eta_0"]))
        assert np.all(p["eta_0_lo"] < p["eta_0_hi"])

    def test_coxph_term_edfs_sum_to_edf(self, cox_artifact):
        stored = json.loads(cox_artifact[0].read_text())
        assert abs(sum(stored["term_edf"].values()) - stored["edf"]) \
            <= 1e-8 * stored["edf"]

    def test_coxph_sample_and_corrected_aic(self, cox_artifact, tmp_path):
        art, data = cox_artifact
        rc = main(["sample", "--artifact", str(art), "--data", str(data),
                   "--n", "20", "--out", str(tmp_path / "draws.csv")])
        assert rc == 0
        rc = main(["aic", str(art), "--data", str(data),
                   "--aic-variant", "pql_corrected",
                   "--out", str(tmp_path / "cmp.csv")])
        assert rc == 0
        t = read_table(tmp_path / "cmp.csv")
        assert np.isfinite(t["caic_pql_corrected"][0])


def old_write_table(path, rows, columns):
    """The row-dict CSV writer that predict used before its columnar one."""
    def fmt(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else v
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row.get(c, "")) for c in columns])


class TestWriteTable:
    def test_columns_match_row_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 50
        cols = {"row": np.arange(n)}
        for name in ("eta_0", "eta_1", "mu", "eta_0_lo", "eta_0_hi"):
            cols[name] = rng.standard_normal(n) * 10.0 ** rng.integers(
                -300, 300, n)
        cols["eta_1"][:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        rows = [{c: v[i] for c, v in cols.items()} for i in range(n)]
        old_write_table(tmp_path / "old.csv", rows, list(cols))
        write_table(tmp_path / "new.csv", cols)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()


class TestLocationScaleCli:
    @pytest.fixture
    def ls_fit(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 300
        x = rng.uniform(-1, 1, n)
        y = np.sin(2 * x) + rng.normal(0, np.exp(0.5 * x - 1.0))
        data = tmp_path / "ls.csv"
        write_csv(data, {"y": [float(v) for v in y],
                         "x": [float(v) for v in x]})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"response": "y", "terms": [
            {"kind": "intercept"},
            {"kind": "smooth", "covariates": ["x"], "k": 8},
            {"kind": "intercept", "parameter_index": 1},
            {"kind": "linear", "covariates": ["x"], "parameter_index": 1}]}))
        art = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--spec", str(spec),
                     "--engine", "gsmm", "--family", "gaussian_ls",
                     "--out", str(art)]) == 0
        assert main(["predict", "--artifact", str(art), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 0
        return tmp_path, data, art

    def test_predict_bytes_match_row_writer(self, ls_fit):
        # the row dicts that predict built before writing by columns
        tmp_path, data, art = ls_fit
        from scipy.sparse import diags_array
        from smoothfit.cli import RestoredFit
        from smoothfit.families import get_link
        from smoothfit.uncertainty import credible_intervals
        restored = RestoredFit(json.loads(art.read_text()),
                               sidecar_path=str(art) + ".cache.npz")
        table = read_table(data)
        n = len(table["x"])
        X = restored.predict_rows(table)
        slices = restored.param_slices()
        rows = [{"row": i} for i in range(n)]
        for m, sl in enumerate(slices):
            eta = np.asarray(X[:, sl] @ restored.beta[sl])
            for i in range(n):
                rows[i][f"eta_{m}"] = eta[i]
            if m == 0:
                mu = get_link("identity").inverse(eta)
                mask = np.zeros(X.shape[1])
                mask[sl] = 1.0
                _, lo, hi, _ = credible_intervals(
                    restored, X @ diags_array(mask), level=0.95)
                for i in range(n):
                    rows[i]["mu"] = mu[i]
                    rows[i]["eta_0_lo"] = lo[i]
                    rows[i]["eta_0_hi"] = hi[i]
        columns = ["row", "eta_0", "eta_1", "mu", "eta_0_lo", "eta_0_hi"]
        old_write_table(tmp_path / "old.csv", rows, columns)
        assert (tmp_path / "p.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    def test_location_interval_ignores_scale_columns(self, ls_fit):
        tmp_path, data, art = ls_fit
        p = read_table(tmp_path / "p.csv")
        from scipy.stats import norm
        from smoothfit.cli import RestoredFit
        restored = RestoredFit(json.loads(art.read_text()),
                               sidecar_path=str(art) + ".cache.npz")
        X = restored.predict_rows(read_table(data)).toarray()
        sl = restored.param_slices()[0]
        X0 = np.zeros_like(X)
        X0[:, sl] = X[:, sl]
        var0 = np.einsum("ij,ji->i", X0, restored.solve_H(X0.T))
        var_all = np.einsum("ij,ji->i", X, restored.solve_H(X.T))
        assert not np.allclose(var0, var_all, rtol=1e-3)
        half = 0.5 * (p["eta_0_hi"] - p["eta_0_lo"])
        np.testing.assert_allclose(half, norm.ppf(0.975) * np.sqrt(var0),
                                   rtol=1e-8)
