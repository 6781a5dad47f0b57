"""Self-test of the benchmark at reduced input sizes.

    python3 -m pytest perfbench -q

Runs every workload once untraced and once traced with ``--size small`` and
checks the output contract: every end-to-end metric with its unit, every
per-layer metric reached on the workload that exercises it, and a refusal
to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: end-to-end metrics with unit and direction
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("1", "higher"),
}

#: the workload's own metrics, printed before the result
OWN_METRICS = {
    "multilevel": {"eta_mse": ("eta_sq", "lower"), "fit_s": ("s", "lower")},
    "survival": {"eta_mse": ("eta_sq", "lower"), "fit_s": ("s", "lower"),
                 "fit_lqefs_s": ("s", "lower")},
    "predict_select": {"eta_mse": ("eta_sq", "lower"),
                       "fit_s": ("s", "lower"),
                       "predict_rows_per_s": ("rows/s", "higher"),
                       "select_s": ("s", "lower")},
}

#: per-layer metrics and the workload that must reach each of them
REACHED_ON = {
    "multilevel": [
        "design.build_s", "design.build_calls", "basis.eval_s",
        "basis.eval_rows", "sparsela.order_s", "sparsela.symbolic_s",
        "sparsela.factor_s", "sparsela.factor_calls", "sparsela.nnz_L",
        "sparsela.solve_s", "sparsela.solve_cols", "sparsela.trace_s",
        "sparsela.trace_cols", "kernels.calls", "kernels.s",
        "efs.outer_iters", "efs.reml_grad_s", "efs.reml_grad_calls",
        "efs.term_edf_s", "efs.self_s"],
    "survival": [
        "sparsela.cond_s", "efs.newton_s", "efs.newton_calls",
        "families.cox_llk_s", "families.cox_llk_calls",
        "families.cox_grad_s", "families.cox_grad_calls",
        "families.cox_hess_s", "families.cox_hess_calls",
        "lqefs.outer_iters", "lqefs.line_search_s",
        "lqefs.line_search_calls", "lqefs.pen_inverse_s", "lqefs.trace_s",
        "lqefs.chol_compact_s"],
    "predict_select": [
        "sparsela.pair_trace_s", "uncertainty.caic_s",
        "uncertainty.rho_posterior_s", "uncertainty.mc_s",
        "cli.read_table_s", "cli.read_rows", "cli.write_table_s",
        "cli.save_s", "cli.artifact_bytes", "cli.restore_s",
        "cli.solve_H_s", "cli.solve_H_calls", "cli.refit_s"],
}

#: counts that may legitimately be zero on every workload
MAY_BE_ZERO = {"lqefs.queue_skips", "trace.overhead_s"}


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return report, result


def test_benchmark_json_lists_the_metrics():
    declared = {m["name"]: (m["unit"], m["better"])
                for m in BENCH["end_to_end"]}
    assert declared == END_TO_END
    layers = {m["name"] for m in BENCH["per_layer"]}
    named = {n for names in REACHED_ON.values() for n in names}
    assert named | MAY_BE_ZERO == layers


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = parse(run_bench(workload, 0))
    metrics = result["metrics"]
    assert set(metrics) == set(END_TO_END)
    for name, (unit, _) in END_TO_END.items():
        assert metrics[name]["unit"] == unit
        value = metrics[name]["value"]
        assert math.isfinite(value) and value > 0, (name, value)
    own = {k: (v["unit"], v["better"])
           for k, v in report["workload_metrics"].items()}
    assert own == OWN_METRICS[workload]
    env = report["environment"]
    assert env["blas_threads"] <= env["nproc"]
    assert {"backend", "python", "numpy", "scipy"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_reached(workload):
    report, result = parse(run_bench(workload, 1))
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert set(metrics) == set(units)
    for name, unit in units.items():
        assert metrics[name]["unit"] == unit
    absent = set(report["absent"])
    for name in REACHED_ON[workload]:
        if name not in absent:
            assert metrics[name]["value"] > 0, name
    assert (ROOT / report["trace_file"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_checks_against_the_stored_reference(workload):
    sys.path.insert(0, str(HERE))
    from workloads import fingerprint_problems
    stored = json.loads((HERE / "reference.json").read_text())[workload]
    envelope = stored["envelope"]
    for ref in list(stored["seeds"].values())[:5]:
        assert fingerprint_problems(ref, ref, envelope) == []
        assert fingerprint_problems(ref, None, envelope) == []
        worse = dict(ref, edf=ref["edf"] * 1.01,
                     reml=ref["reml"] - 5 * abs(ref["reml"]))
        assert len(fingerprint_problems(worse, ref, envelope)) == 2
        assert len(fingerprint_problems(worse, None, envelope)) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
