"""The benchmark's four workloads.

Each workload turns the workload seed into inputs, runs one timed
operation at a time, and checks every result after the timed loop.  The
seed picks one of ``N_CASES`` input cases; every design, replicate and
simulation seed is derived from the case, so the same seed always gives
the same inputs, and ``reference.json`` (written by ``record.py``) holds the
values the unmodified package produced for the first operations of every
case.

Workloads call the package through module attributes
(``inference.reml_fit``, not a name bound at import time) so the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
N_CASES = 16

TIN_MODEL_TEXT = """\
# rolling-tin study: forward run-out y1, rollback y2
factor nut_weight categorical light,heavy hard
factor tension continuous 1 3
factor twist categorical no,yes
factor ramp_height continuous 10 30
terms mains_and_all_2fi
"""

CLI_STEPS = ("plan", "design", "eval", "simulate", "fit", "profile")

# tolerances against the values recorded from the unmodified package
RATIO_RTOL = 1e-5  # REML ratio; golden section stops at 1e-8 in log ratio
VALUE_RTOL = 1e-6  # p-values and coefficients
CRITERION_ATOL = 1e-6  # log D, as in the acceptance test of the seed design
MC_BAND_SLACK = 0.025  # analytic power vs Monte Carlo gap allowed at 5000 reps
MC_BAND_Z = 4.0  # binomial standard errors on top of the slack


def derive(*parts) -> int:
    """A 31-bit seed determined by its parts."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


# ---------------------------------------------------------------- CLI pipeline


def cli_seeds(case: int) -> tuple[int, int]:
    """Design and simulate seeds; case 0 is the README walkthrough."""
    if case == 0:
        return 0, 7
    return derive("cli-design", case) % 1_000_000, derive("cli-simulate", case) % 1_000_000


def write_cli_inputs(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "tin.model").write_text(TIN_MODEL_TEXT, encoding="utf-8")


def cli_argvs(workdir: Path, case: int) -> list[tuple[str, list[str]]]:
    design_seed, simulate_seed = cli_seeds(case)
    model = str(workdir / "tin.model")
    design = str(workdir / "tin_design.csv")
    data = str(workdir / "tin_data.csv")
    return [
        ("plan", ["plan", model, "--subplot-error-df", "9"]),
        ("design", ["design", model, "--runs", "24", "--whole-plots", "6",
                    "--seed", str(design_seed), "--out", design]),
        ("eval", ["eval", model, design]),
        ("simulate", ["simulate", model, design, "--seed", str(simulate_seed),
                      "--out", data]),
        ("fit", ["fit", model, data, "--response", "y1"]),
        ("profile", ["profile", model, data, "--goal", "y1:maximize",
                     "--goal", "y2:maximize"]),
    ]


def pipeline_outputs(workdir: Path, stdouts: dict, stderr_design: bytes, codes: dict) -> dict:
    """Everything the pipeline's correctness depends on, as raw bytes."""
    return {
        "codes": dict(codes),
        "stdout": dict(stdouts),
        "files": {
            name: (workdir / name).read_bytes()
            for name in ("tin_design.csv", "tin_data.csv")
            if (workdir / name).exists()
        },
        "stderr_design": stderr_design,
    }


def pipeline_digests(out: dict) -> dict:
    def h(b: bytes) -> str:
        return hashlib.sha256(b).hexdigest()[:20]

    text = out["stderr_design"].decode("utf-8", "replace").strip()
    criterion = None
    if text.startswith("log D criterion: "):
        criterion = float(text.split(": ", 1)[1])
    return {
        "codes": out["codes"],
        "stdout": {step: h(b) for step, b in out["stdout"].items()},
        "files": {name: h(b) for name, b in out["files"].items()},
        "criterion": criterion,
    }


def check_pipeline(out: dict, expected: dict) -> list[str]:
    got = pipeline_digests(out)
    problems = []
    for step in CLI_STEPS:
        if got["codes"].get(step) != 0:
            problems.append(f"{step} exited with {got['codes'].get(step)}")
        elif got["stdout"].get(step) != expected["stdout"][step]:
            problems.append(f"{step} stdout differs from the recorded bytes")
    for name, digest in expected["files"].items():
        if got["files"].get(name) != digest:
            problems.append(f"{name} differs from the recorded bytes")
    if got["criterion"] is None or not close(got["criterion"], expected["criterion"], 0.0,
                                             CRITERION_ATOL):
        problems.append(f"design criterion {got['criterion']!r} != {expected['criterion']!r}")
    return problems


def run_pipeline_inprocess(workdir: Path, case: int, step_s: dict | None = None) -> dict:
    """The six subcommands through splitplot.cli.main in this process."""
    import splitplot.cli as cli

    stdouts, codes, stderr_design = {}, {}, b""
    for step, argv in cli_argvs(workdir, case):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[step] = cli.main(argv)
        if step_s is not None:
            step_s.setdefault(step, []).append(time.perf_counter() - t0)
        stdouts[step] = out.getvalue().encode("utf-8")
        if step == "design":
            stderr_design = err.getvalue().encode("utf-8")
    return pipeline_outputs(workdir, stdouts, stderr_design, codes)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def spawn_wait(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; returns (exit code, max RSS in KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    op_label = ""  # what one timed operation is
    aliases = {}  # generic metric -> (this workload's name for it, scale, unit)
    nominal_op_s = 1.0  # rough cost of one operation, sizes the traced run
    in_process = True  # False: the timed work runs in child processes

    def __init__(self, root: Path, workdir: Path, seed: int, reference: dict | None = None):
        self.root = root
        self.workdir = workdir
        self.case = seed % N_CASES
        self.reference = load_reference() if reference is None else reference
        self.peak_rss_kib = 0
        self.cal = None  # calibration sampled between the steps of a long operation

    def prepare(self) -> list[str]:
        """Set-up before the first timed operation; returns set-up problems."""
        return []

    def inputs(self, i: int):
        """Untimed per-operation input."""
        return i

    def op(self, inp):
        raise NotImplementedError

    def check(self, i: int, inp, result) -> list[str]:
        return []

    def finish(self, results) -> list[str]:
        """Checks over all operations of the run."""
        return []

    def summary(self, results) -> list[str]:
        return []


class CliTin(Workload):
    name = "cli-tin"
    op_label = "six-process plan/design/eval/simulate/fit/profile pipeline"
    aliases = {"op_ms.p50": ("cli_pipeline_s", 1e-3, "s")}
    nominal_op_s = 1.6  # in-process replay, used by the traced run
    in_process = False

    def prepare(self):
        write_cli_inputs(self.workdir)
        self.env = child_env(self.root)
        self.step_s = {}
        return []

    def inputs(self, i):
        return (self.case + i) % N_CASES

    def op(self, case):
        stdouts, codes, stderr_design = {}, {}, b""
        for step, argv in cli_argvs(self.workdir, case):
            if self.cal is not None and step != CLI_STEPS[0]:
                self.cal.sample()
            out_path = self.workdir / f"{step}.out"
            err_path = self.workdir / f"{step}.err"
            t0 = time.perf_counter()
            code, rss = spawn_wait([sys.executable, "-m", "splitplot.cli", *argv],
                                   self.env, out_path, err_path)
            self.step_s.setdefault(step, []).append(time.perf_counter() - t0)
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            codes[step] = code
            stdouts[step] = out_path.read_bytes()
            if step == "design":
                stderr_design = err_path.read_bytes()
        return pipeline_outputs(self.workdir, stdouts, stderr_design, codes)

    def op_inprocess(self, case):
        return run_pipeline_inprocess(self.workdir, case)

    def check(self, i, case, result):
        return check_pipeline(result, self.reference["cli"][case])

    def summary(self, results):
        import statistics

        return [f"  {step:<9} raw median {statistics.median(v):.3f} s over {len(v)}"
                for step, v in self.step_s.items()]


def _tin_design(reference):
    from splitplot import boomerang_sim, design_gen

    stored = reference["tin_design"]
    return design_gen.Design(
        factors=boomerang_sim.boomerang_factors(),
        whole_plot=tuple(stored["whole_plot"]),
        settings=stored["settings"],
    )


def _fit_problems(fit_ref, ratio, values) -> list[str]:
    """Compare a ratio and a value vector against recorded ones."""
    problems = []
    if not close(ratio, fit_ref["ratio"], RATIO_RTOL, 1e-12):
        problems.append(f"ratio {ratio!r} != recorded {fit_ref['ratio']!r}")
    ref_values = fit_ref["values"]
    scale = max(abs(v) for v in ref_values)
    for k, (got, want) in enumerate(zip(values, ref_values)):
        if not close(got, want, VALUE_RTOL, VALUE_RTOL * scale * 1e-3):
            problems.append(f"value {k}: {got!r} != recorded {want!r}")
            break
    return problems


class McPower(Workload):
    name = "mc-power"
    op_label = "one replicate: simulate, reml_fit, fixed_effect_tests (24 runs)"
    aliases = {"op_ms.p50": ("mc_fit_ms.p50", 1.0, "ms"),
               "op_ms.p90": ("mc_fit_ms.p90", 1.0, "ms"),
               "ops_per_s": ("mc_fits_per_s", 1.0, "1/s")}
    nominal_op_s = 0.018

    def prepare(self):
        from splitplot import boomerang_sim, design_gen

        self.model = boomerang_sim.boomerang_model()
        self.design = _tin_design(self.reference)
        self.truth = boomerang_sim.TruthConfig(
            responses={
                "y": boomerang_sim.ResponseTruth(
                    intercept=0.0,
                    coefficients={t.label: 1.0 for t in self.model.terms},
                    sigma_gamma=1.0,
                    sigma_epsilon=1.0,
                )
            },
            seed=0,
        )
        # case 0 replays the acceptance test's criterion-7 stream (7, k)
        self.base = 7 if self.case == 0 else derive("mc", self.case)
        criterion = design_gen.d_criterion(self.design, self.model, 1.0)
        want = self.reference["tin_design"]["criterion"]
        if not close(criterion, want, 0.0, CRITERION_ATOL):
            return [f"stored tin design scores {criterion!r}, recorded {want!r}"]
        return []

    def inputs(self, i):
        return (self.base, i)

    def op(self, seed):
        from splitplot import boomerang_sim, inference

        table = boomerang_sim.simulate(self.design, self.truth, seed=seed)
        fit = inference.reml_fit(table, self.model, response="y")
        tests = inference.fixed_effect_tests(fit)
        return {
            "y": table.responses["y"],
            "ratio": fit.ratio,
            "beta": fit.beta,
            "tests": [(t.f_stat, t.p_value, t.df_num, t.df_den) for t in tests],
        }

    def check(self, i, seed, result):
        from splitplot import design_gen

        from oracle import check_fit

        if not hasattr(self, "_x"):
            self._x = design_gen.expand_model_matrix(self.design, self.model)
            self._plot = self.design.layout.zero_based
            self._dfs = [t.df for t in self.model.terms]
        problems = []
        recorded = self.reference["mc"][self.case]
        if i < len(recorded):
            problems += _fit_problems(recorded[i], result["ratio"],
                                      [p for _, p, _, _ in result["tests"]])
        problems += check_fit(self._x, result["y"], self._plot, result["ratio"],
                              result["beta"], result["tests"], self._dfs)
        return problems

    def rejection_rates(self, results):
        labels = [t.label for t in self.model.terms]
        done = [r for r in results if isinstance(r, dict)]
        rates = {
            label: sum(r["tests"][k][1] < 0.05 for r in done) / len(done)
            for k, label in enumerate(labels)
        }
        return rates, len(done)

    def finish(self, results):
        from splitplot import design_eval

        rates, n = self.rejection_rates(results)
        if n == 0:
            return ["no replicate completed"]
        report = design_eval.power_report(self.design, self.model, ratio=1.0, snr=1.0,
                                          alpha=0.05)
        problems = []
        for row in report.rows:
            band = MC_BAND_SLACK + MC_BAND_Z * math.sqrt(row.power * (1 - row.power) / n)
            if abs(rates[row.label] - row.power) > band:
                problems.append(
                    f"{row.label}: rejection rate {rates[row.label]:.4f} over {n} replicates "
                    f"is outside power {row.power:.4f} +- {band:.4f}"
                )
        return problems

    def summary(self, results):
        rates, n = self.rejection_rates(results)
        return [f"rejection rates over {n} replicates: "
                + ", ".join(f"{label} {rate:.4f}" for label, rate in rates.items())]


class DesignSearch(Workload):
    name = "design-search"
    op_label = "one generate_design call: tin model, 128 runs, 32 whole plots, 2 starts"
    aliases = {"op_ms.p50": ("design_s", 1e-3, "s")}
    nominal_op_s = 0.8
    n_runs, n_whole_plots, n_starts = 128, 32, 2

    def prepare(self):
        from splitplot import boomerang_sim

        self.model = boomerang_sim.boomerang_model()
        return []

    def inputs(self, i):
        from splitplot import design_gen

        return design_gen.DesignSpec(
            model=self.model, n_runs=self.n_runs, n_whole_plots=self.n_whole_plots,
            ratio=1.0, n_starts=self.n_starts, seed=derive("design", self.case, i),
        )

    def op(self, spec):
        from splitplot import design_gen

        return design_gen.generate_design(spec)

    def check(self, i, spec, design):
        from splitplot import design_gen
        from splitplot.errors import ValidationError

        try:
            rebuilt = design_gen.Design(factors=design.factors, whole_plot=design.whole_plot,
                                        settings=design.settings)
        except ValidationError as exc:
            return [f"returned design fails validation: {exc}"]
        problems = []
        if rebuilt.n_runs != self.n_runs or rebuilt.layout.n_plots != self.n_whole_plots:
            problems.append("returned design has the wrong shape")
        score = design_gen.d_criterion(rebuilt, self.model, 1.0)
        if not close(score, design.criterion, 1e-9):
            problems.append(f"d_criterion {score!r} != reported {design.criterion!r}")
        recorded = self.reference["design"][self.case]
        if i < len(recorded) and design.criterion < recorded[i] - CRITERION_ATOL:
            problems.append(f"log D {design.criterion!r} is below recorded {recorded[i]!r}")
        return problems

    def summary(self, results):
        scores = [d.criterion for d in results if hasattr(d, "criterion")]
        if not scores:
            return []
        return [f"design_logD = {sum(scores) / len(scores):.12g} "
                f"(mean log D over {len(scores)} designs; higher is better)"]


class FitLarge(Workload):
    name = "fit-large"
    op_label = "one reml_fit on 12800 runs (3200 whole plots of 4, tin model)"
    aliases = {"op_ms.p50": ("large_fit_s", 1e-3, "s")}
    nominal_op_s = 1.2
    n_plots = 3200

    def prepare(self):
        import numpy as np

        from splitplot import boomerang_sim, design_gen

        self.model = boomerang_sim.boomerang_model()
        tin = _tin_design(self.reference)
        a0 = tin.layout.zero_based
        blocks = [tin.settings[a0 == p] for p in range(tin.layout.n_plots)]
        rng = np.random.default_rng(derive("large-design", self.case))
        order = rng.integers(0, len(blocks), size=self.n_plots)
        settings = np.vstack([blocks[k] for k in order])
        whole_plot = np.repeat(np.arange(1, self.n_plots + 1), [len(blocks[k]) for k in order])
        self.design = design_gen.Design(factors=self.model.factors,
                                        whole_plot=tuple(int(w) for w in whole_plot),
                                        settings=settings)
        self.truth = boomerang_sim.default_truth()
        self.base = derive("large", self.case)
        return []

    def inputs(self, i):
        from splitplot import boomerang_sim

        return boomerang_sim.simulate(self.design, self.truth, seed=(self.base, i))

    def op(self, table):
        from splitplot import inference

        return inference.reml_fit(table, self.model, response="y1")

    def check(self, i, table, fit):
        from splitplot import design_gen

        from oracle import check_fit

        if not hasattr(self, "_x"):
            self._x = design_gen.expand_model_matrix(self.design, self.model)
            self._plot = self.design.layout.zero_based
        problems = []
        recorded = self.reference["large"][self.case]
        if i < len(recorded):
            problems += _fit_problems(recorded[i], fit.ratio, list(fit.beta))
        problems += check_fit(self._x, table.responses["y1"], self._plot, fit.ratio,
                              fit.beta, [], [])
        return problems


WORKLOADS = {w.name: w for w in (CliTin, McPower, DesignSearch, FitLarge)}
