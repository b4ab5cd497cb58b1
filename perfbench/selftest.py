"""Self-test of the benchmark's correctness gates.

    python3 perfbench/run.py --self-test

Runs one real operation of every workload, checks that the gate accepts it,
then perturbs the output in small ways and checks that each perturbed copy
is counted as failed.  Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import types

import numpy as np

import workloads as w


class Expectations:
    def __init__(self):
        self.broken = 0

    def passes(self, what, problems):
        self._report(what, not problems, problems)

    def fails(self, what, problems):
        self._report(what, bool(problems), ["the gate accepted it"])

    def _report(self, what, ok, problems):
        if not ok:
            self.broken += 1
        print(f"{'ok    ' if ok else 'BROKEN'} {what}" + ("" if ok else f": {problems[0]}"))


def _cli(root, workdir, ex):
    wl = w.CliTin(root, workdir, 1)
    wl.prepare()
    out = wl.op_inprocess(1)
    ex.passes("cli-tin: recorded pipeline output", wl.check(0, 1, out))

    bad = copy.deepcopy(out)
    bad["stdout"]["fit"] = bad["stdout"]["fit"].replace(b"R2=", b"R2= ", 1)
    ex.fails("cli-tin: one extra byte in the fit report", wl.check(0, 1, bad))
    bad = copy.deepcopy(out)
    data = bytearray(bad["files"]["tin_data.csv"])
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    bad["files"]["tin_data.csv"] = bytes(data)
    ex.fails("cli-tin: last digit of the simulated data changed", wl.check(0, 1, bad))
    bad = copy.deepcopy(out)
    bad["stderr_design"] = b"log D criterion: 31.3863\n"
    ex.fails("cli-tin: design criterion off by 7e-5", wl.check(0, 1, bad))
    bad = copy.deepcopy(out)
    bad["codes"]["eval"] = 2
    ex.fails("cli-tin: eval exits with 2", wl.check(0, 1, bad))


def _mc(root, workdir, ex):
    wl = w.McPower(root, workdir, 1)
    ex.passes("mc-power: stored design scores its recorded criterion", wl.prepare())
    beyond = len(wl.reference["mc"][wl.case]) + 5
    for i, where in ((0, "recorded"), (beyond, "unrecorded")):
        res = wl.op(wl.inputs(i))
        ex.passes(f"mc-power: {where} replicate", wl.check(i, None, res))
        bad = dict(res, tests=list(res["tests"]))
        f_stat, p, d1, d2 = bad["tests"][3]
        bad["tests"][3] = (f_stat, p * (1 + 1e-4), d1, d2)
        ex.fails(f"mc-power: {where} p-value scaled by 1+1e-4", wl.check(i, None, bad))
        ex.fails(f"mc-power: {where} ratio scaled by 1.01",
                 wl.check(i, None, dict(res, ratio=res["ratio"] * 1.01 + 1e-3)))
        ex.fails(f"mc-power: {where} coefficient shifted",
                 wl.check(i, None, dict(res, beta=res["beta"] + 1e-3)))
    never = {"tests": [(0.0, 1.0, 1, 4)] * len(wl.model.terms)}
    ex.fails("mc-power: 1000 replicates that never reject", wl.finish([never] * 1000))


def _design(root, workdir, ex):
    from splitplot import design_gen

    wl = w.DesignSearch(root, workdir, 1)
    wl.prepare()
    spec = wl.inputs(0)
    design = wl.op(spec)
    ex.passes("design-search: returned design", wl.check(0, spec, design))
    ex.fails("design-search: criterion reported 1e-6 too high",
             wl.check(0, spec, dataclasses.replace(design, criterion=design.criterion + 1e-6)))
    settings = np.array(design.settings)
    easy = [j for j, f in enumerate(design.factors) if not f.hard_to_change][0]
    settings[0, easy] = 0.0 if settings[0, easy] != 0.0 else 1.0
    worse = dataclasses.replace(design, settings=settings, criterion=None)
    worse = dataclasses.replace(worse, criterion=design_gen.d_criterion(worse, wl.model, 1.0))
    ex.fails("design-search: valid design below the recorded optimum", wl.check(0, spec, worse))
    settings = np.array(design.settings)
    settings[0, 0] = 1 - settings[0, 0]  # the hard factor now varies inside plot 1
    fake = types.SimpleNamespace(factors=design.factors, whole_plot=design.whole_plot,
                                 settings=settings, criterion=design.criterion)
    ex.fails("design-search: hard factor varies inside a whole plot",
             wl.check(0, spec, fake))


def _large(root, workdir, ex):
    wl = w.FitLarge(root, workdir, 1)
    wl.prepare()
    beyond = len(wl.reference["large"][wl.case]) + 2
    for i, where in ((0, "recorded"), (beyond, "unrecorded")):
        table = wl.inputs(i)
        fit = wl.op(table)
        ex.passes(f"fit-large: {where} fit", wl.check(i, table, fit))
        beta = np.array(fit.beta)
        beta[2] *= 1 + 1e-4
        ex.fails(f"fit-large: {where} coefficient scaled by 1+1e-4",
                 wl.check(i, table, dataclasses.replace(fit, beta=beta)))
        ex.fails(f"fit-large: {where} ratio scaled by 1.01",
                 wl.check(i, table, dataclasses.replace(fit, ratio=fit.ratio * 1.01)))


def main(root, workdir) -> int:
    ex = Expectations()
    try:
        for part in (_cli, _mc, _design, _large):
            part(root, workdir, ex)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: {'PASS' if ex.broken == 0 else f'{ex.broken} expectation(s) broken'}")
    return 0 if ex.broken == 0 else 1
