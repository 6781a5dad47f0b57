"""smoothfit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload multilevel --seed 0 --seconds 25 \\
        --trace 0

Run from the repository root.  The program is imported from ``src/`` of
that checkout; without it the benchmark exits with a non-zero code.  The
workload's inputs are generated from ``--seed``, operations repeat for
``--seconds`` and the last line of standard output is the result::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each pass
on a new replicate input.  ``--trace 1`` repeats replicate 0, untraced then
traced, and reports the per-layer metrics of the traced passes (times as
medians; counts repeat exactly); the spans are written to
``.perfbench_out/``.  The line before the result holds the environment,
the workload's own metrics (eta_mse and per-operation times, as medians
over the passes), the failures and, when traced, the absent layers and
the share of the layers the workload is meant to load.
"""

import os

#: BLAS threads, pinned before numpy loads; one thread keeps runs steady
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
#: what a fresh process imports before its first operation
SETUP_CODE = "import smoothfit, smoothfit.cli"
LAYER_MODULES = ("design", "basis", "sparsela", "efs", "families", "lqefs",
                 "uncertainty", "cli")

#: each workload's premise, checked by the traced run: the self time of
#: spans with these prefixes is at least this share of these op spans
PREMISES = {
    "multilevel": (("sparsela.", "efs."), ("op.fit",), 0.80),
    "survival": (("families.", "lqefs."), ("op.fit_gsmm", "op.fit_lqefs"),
                 0.80),
    "predict_select": (("cli.solve_H",), ("op.cli_predict",), 0.70),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small inputs, for the self-test; skips the stored "
                        "fingerprints")
    return p.parse_args(argv)


def import_program():
    """Import smoothfit from this checkout's src/, never from elsewhere."""
    if not (SRC / "smoothfit" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'smoothfit'} not found; run the "
                         "benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import smoothfit
    if Path(smoothfit.__file__).resolve().parent != SRC / "smoothfit":
        raise SystemExit(f"error: imported smoothfit from "
                         f"{smoothfit.__file__}, not from {SRC}")
    return smoothfit


class Program:
    """The smoothfit modules the workloads call, as attributes."""

    def __init__(self):
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module(f"smoothfit.{name}"))


def measure_setup():
    """Median wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def environment(smoothfit):
    import numpy
    import scipy
    return {"blas_threads": BLAS_THREADS,
            "backend": smoothfit.backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def faster_half_mean(values):
    """Mean of the faster half of the passes: the statistic of ``pass_s``.

    A pass's time depends on its input through the EFS outer-iteration
    count, which has a heavy right tail: the weight of the zero smooth
    either reaches its clamp in about ten iterations or creeps towards a
    large finite value for up to seventy.  A run's median swings with how
    many slow inputs it drew, and a loaded host only ever adds time.  Over
    ten seeds of ``multilevel`` the faster-half mean spread 9% where the
    median spread 13%.  The slow cases show in the median operation times
    printed before the result and in the per-layer ``efs.outer_iters``.
    """
    faster = sorted(values)[:max(1, len(values) // 2)]
    return sum(faster) / len(faster)


def run(args):
    smoothfit = import_program()
    sf = Program()
    env = environment(smoothfit)
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() \
        else None
    cls = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    untraced = lambda name: contextlib.nullcontext()  # noqa: E731
    try:
        (work / "warm").mkdir(parents=True)
        # one small pass first, so lazy imports and caches are not timed
        warm = cls(args.seed, "small", None, str(work / "warm"))
        warm.prepare(0)
        warm.run_pass(sf, Ops(), untraced)
        workload = cls(args.seed, args.size, reference, str(work))
        setup_s = measure_setup()

        ops = Ops()
        timings = {}
        traced = []
        overheads = []
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            # traced runs repeat replicate 0, so their counts repeat exactly
            if passes == 0 or not args.trace:
                workload.prepare(passes)
            passes += 1
            t0 = time.perf_counter()
            times = workload.run_pass(sf, ops, untraced)
            wall = time.perf_counter() - t0
            for key, value in times.items():
                timings.setdefault(key, []).append(value)
            if args.trace:
                tracer = tracing.Tracer()
                inst = tracing.Instrumentation(tracer)
                t0 = time.perf_counter()
                try:
                    workload.run_pass(sf, ops, span_factory(tracer))
                finally:
                    inst.restore()
                overheads.append(time.perf_counter() - t0 - wall)
                traced.append((tracer, inst.absent))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    report = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "environment": env,
              "passes": passes, "failures": ops.failures}
    report["workload_metrics"] = {
        k: {"value": v, "unit": u, "better": b}
        for k, (v, u, b) in workload.extra_metrics(timings).items()}
    if args.trace:
        metrics = traced_metrics(workload.name, traced, overheads, report)
        report["trace_file"] = write_spans(args, traced)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (faster_half_mean(timings["pass"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((ops.attempted - ops.failed) / ops.attempted,
                        "1"),
        }
    print(json.dumps(report))
    return {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def span_factory(tracer):
    @contextlib.contextmanager
    def span(name):
        tracer.open(name)
        try:
            yield
        finally:
            tracer.close()
    return span


def traced_metrics(name, traced, overheads, report):
    per_pass = [tracing.per_layer_metrics(t) for t, _ in traced]
    absent = sorted(set().union(*(a for _, a in traced)))
    values = {}
    for key in per_pass[0]:
        seen = [p[key] for p in per_pass]
        if tracing.unit_of(key) == "s":
            values[key] = median(seen)
        else:
            # every traced pass runs the same inputs: counts must agree
            values[key] = seen[0]
            if len(set(seen)) > 1:
                report.setdefault("unrepeated_counts", []).append(key)
    values["trace.overhead_s"] = median(overheads)
    prefixes, ops, least = PREMISES[name]
    share = median([tracing.layer_share(t, prefixes, ops)
                    for t, _ in traced])
    report["absent"] = absent
    report["premise"] = {"layers": prefixes, "ops": ops, "share": share,
                         "least": least, "met": share >= least}
    return {k: (v, tracing.unit_of(k)) for k, v in values.items()}


def write_spans(args, traced):
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace.json"
    passes = [{"spans": [{"name": n, "start": s, "end": e, "parent": p}
                         for n, s, e, p in t.spans],
               "counters": dict(t.counters), "absent": sorted(a)}
              for t, a in traced]
    path.write_text(json.dumps({"workload": args.workload,
                                "seed": args.seed, "passes": passes}))
    return str(path.relative_to(ROOT))


def main(argv=None):
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
