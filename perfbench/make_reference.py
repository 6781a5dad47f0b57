"""Regenerate the stored fingerprints in ``perfbench/reference.json``.

    python3 perfbench/make_reference.py --seeds 0-39 [--workload NAME ...]

Runs one untimed pass of each workload per seed on replicate 0 and stores
its fingerprint (rho, REML, EDF, nnz(L), eta_mse) plus, per workload, the
range of every fingerprint over the stored seeds.  Run it only when the
workloads' inputs change, from the code whose results are the reference.
"""

import argparse
import contextlib
import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads
import numpy as np
from workloads import WORKLOADS, Ops


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def envelope(fps):
    """Per fingerprint key, [elementwise min, elementwise max] over fps."""
    out = {}
    for key in ("rho", "reml", "edf", "nnz_L", "eta_mse"):
        vals = np.array([fp[key] for fp in fps])
        out[key] = [vals.min(axis=0).tolist(), vals.max(axis=0).tolist()]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-39")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    run.import_program()
    sf = run.Program()
    path = run.HERE / "reference.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    work = run.ROOT / ".perfbench_work" / "reference"
    for name in args.workload or sorted(WORKLOADS):
        seeds = {}
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ops = Ops()
            wl = WORKLOADS[name](seed, "full", None, str(work))
            wl.prepare(0)
            wl.run_pass(sf, ops, lambda n: contextlib.nullcontext())
            if ops.failures or wl.fingerprint is None:
                sys.exit(f"{name} seed {seed} failed: {ops.failures}")
            seeds[str(seed)] = wl.fingerprint
            print(name, seed, json.dumps(wl.fingerprint), flush=True)
        stored[name] = {"seeds": seeds,
                        "envelope": envelope(list(seeds.values()))}
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        work.parent.rmdir()


if __name__ == "__main__":
    main()
