#!/usr/bin/env python3
"""Record the reference values the benchmark's correctness gates compare against.

    python3 perfbench/record.py

Run from the root of a source checkout of the commit whose outputs define
"correct".  It runs the first operations of every input case of every
workload with the package in ./src and rewrites perfbench/reference.json:
the stored 24-run tin design (seed-0 search), the CLI pipeline's output
digests, the Monte Carlo replicates' ratios and p-values, the design
searches' log D values, and the large fits' ratios and coefficients.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402

MC_REPLICATES = 32
DESIGN_CALLS = 4
LARGE_FITS = 3


def main() -> int:
    from splitplot import boomerang_sim, design_gen

    model = boomerang_sim.boomerang_model()
    tin = design_gen.generate_design(
        design_gen.DesignSpec(model=model, n_runs=24, n_whole_plots=6, ratio=1.0,
                              n_starts=20, seed=0))
    ref = {
        "cases": w.N_CASES,
        "tin_design": {
            "whole_plot": list(tin.whole_plot),
            "settings": tin.settings.tolist(),
            "criterion": tin.criterion,
        },
        "cli": [], "mc": [], "design": [], "large": [],
    }
    workdir = ROOT / ".bench_work" / f"record-{os.getpid()}"
    try:
        for case in range(w.N_CASES):
            cli = w.CliTin(ROOT, workdir, case, ref)
            cli.prepare()
            digests = w.pipeline_digests(w.run_pipeline_inprocess(workdir, case))
            if any(code != 0 for code in digests.pop("codes").values()):
                raise SystemExit(f"CLI pipeline of case {case} failed")
            ref["cli"].append(digests)

            mc = w.McPower(ROOT, workdir, case, ref)
            mc.prepare()
            ref["mc"].append([])
            for i in range(MC_REPLICATES):
                res = mc.op(mc.inputs(i))
                ref["mc"][-1].append({"ratio": res["ratio"],
                                      "values": [p for _, p, _, _ in res["tests"]]})

            search = w.DesignSearch(ROOT, workdir, case, ref)
            search.prepare()
            ref["design"].append([search.op(search.inputs(i)).criterion
                                  for i in range(DESIGN_CALLS)])

            large = w.FitLarge(ROOT, workdir, case, ref)
            large.prepare()
            ref["large"].append([])
            for i in range(LARGE_FITS):
                fit = large.op(large.inputs(i))
                ref["large"][-1].append({"ratio": fit.ratio, "values": fit.beta.tolist()})
            print(f"case {case} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
