#!/usr/bin/env python3
"""Benchmark of the splitplot package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run repeats the workload's operation for
``--seconds`` seconds and reports end-to-end metrics (in-process workloads
run in three worker interpreters, one after another); with ``--trace 1`` it
runs a fixed amount of the same work untraced and then traced, replays the
CLI walkthrough in-process under the tracer, and reports per-layer metrics.
Either way every result is checked, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs the four workloads one after another.
``--self-test`` checks that the correctness gates reject perturbed outputs.
See README.md in this directory for the workloads and metrics.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3  # fresh interpreters per untraced in-process run; also set-up samples
SETUP_PROBES = 3
IMPORT_PROBES = 3
# the parent's samples bracket long spans (a CLI step, a set-up probe), so
# each takes a longer look than the workers' frequent ones
PARENT_CALIBRATION_REPS = 15
TRACED_SHARE = 0.4  # the untraced and the traced pass each take about this share of --seconds
TRACE_BLOCKS = 4


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_sources() -> None:
    """Import splitplot from ./src of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "splitplot" / "__init__.py").is_file():
        fail(f"no package sources at {src / 'splitplot'}; run from a source checkout")
    sys.path.insert(0, str(src))


def import_package():
    import splitplot
    import splitplot.cli  # noqa: F401  (the user-facing entry point)

    if not Path(splitplot.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        fail(f"splitplot was imported from {splitplot.__file__}, not ./src")
    return splitplot


def environment(args, case) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "case": case,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, as numpy's default."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def spawn_self(wl_module, flags, workdir: Path, tag: str):
    """Run this script in a fresh interpreter.

    Returns (exit code, wall s, stdout text, max RSS KiB).
    """
    env = wl_module.child_env(ROOT)
    out, err = workdir / f"{tag}.out", workdir / f"{tag}.err"
    t0 = time.perf_counter()
    code, rss = wl_module.spawn_wait([sys.executable, str(HERE / "run.py"), *flags],
                                     env, out, err)
    wall = time.perf_counter() - t0
    if code != 0:
        sys.stderr.write(err.read_text(encoding="utf-8", errors="replace"))
    return code, wall, out.read_text(encoding="utf-8"), rss


# ---------------------------------------------------------------- probes


def probe_setup(args, workdir: Path) -> int:
    """Child side of the set-up probe: import, then prepare the workload."""
    use_checkout_sources()
    import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
    problems = wl.prepare()
    print(repr(time.time()))
    for p in problems:
        print(f"set-up problem: {p}", file=sys.stderr)
    return 1 if problems else 0


def probe_import() -> int:
    use_checkout_sources()
    t0 = time.perf_counter()
    import_package()
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(workloads, args, workdir: Path, cal) -> list[float]:
    """Spawn-to-ready time of fresh set-up probes, rescaled by the kernel around each."""
    walls = []
    cal.sample()
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        flags = ["--probe-setup", "--workload", args.workload, "--seed", str(args.seed),
                 "--workdir", str(probe_dir)]
        spawned = time.time()
        code, _, out, _ = spawn_self(workloads, flags, workdir, f"setup{k}")
        if code != 0:
            fail("set-up probe failed")
        cal.sample()
        ready = float(out.strip().splitlines()[-1])
        walls.append((ready - spawned) * cal.scale(len(cal.samples) - 2, len(cal.samples) - 1))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return walls


def measure_import(workloads, workdir: Path) -> list[float]:
    times = []
    for k in range(IMPORT_PROBES):
        code, _, out, _ = spawn_self(workloads, ["--probe-import"], workdir, f"import{k}")
        if code != 0:
            fail("import probe failed")
        times.append(float(out.strip()))
    return times


# ---------------------------------------------------------------- running


class Run:
    """Operations of one run, with their latencies and verdicts."""

    def __init__(self, wl, cal):
        self.wl = wl
        self.cal = cal
        # (index, input, result or exception, seconds, calibration samples around it)
        self.records = []
        self.problems = []
        self.extra_failed = 0  # failed set-up or replay checks

    def note(self, where, problems):
        if problems:
            self.extra_failed += 1
            self.problems.append(f"{where}: " + "; ".join(problems))

    def one(self, op, i):
        inp = self.wl.inputs(i)
        if self.cal.due():
            self.cal.sample()
        first = len(self.cal.samples) - 1
        t0 = time.perf_counter()
        try:
            result = op(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        # the next sample, taken before a later operation or at the end, closes the span
        self.records.append((i, inp, result, elapsed, (first, len(self.cal.samples))))

    def latencies(self, start=0, stop=None):
        return [r[3] for r in self.records[start:stop]]

    def normalized(self):
        """Latencies rescaled to the calibration kernel's reference time."""
        return [r[3] * self.cal.scale(*r[4]) for r in self.records]

    def check(self) -> int:
        failed = self.extra_failed
        for i, inp, result, *_ in self.records:
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            else:
                try:
                    problems = self.wl.check(i, inp, result)
                except Exception as exc:
                    traceback.print_exc()
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                self.problems.append(f"operation {i}: " + "; ".join(problems))
        try:
            aggregate = self.wl.finish([r[2] for r in self.records])
        except Exception as exc:
            traceback.print_exc()
            aggregate = [f"aggregate check raised {type(exc).__name__}: {exc}"]
        if aggregate:
            failed += 1
            self.problems.append("all operations: " + "; ".join(aggregate))
        return failed


def timed_loop(run: Run, op, seconds: float, indices) -> None:
    """Start operations until `seconds` have passed, then close the calibration."""
    t_start = time.perf_counter()
    for i in indices:
        run.one(op, i)
        if time.perf_counter() - t_start >= seconds:
            break
    run.cal.sample()


def latency_metrics(lat: list) -> dict:
    return {
        "op_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms.p90": (quantile(lat, 0.9) * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
    }


def worker(args) -> int:
    """Child side of an untraced in-process run: set up, measure, check, report."""
    use_checkout_sources()
    import_package()
    import workloads
    from calib import Calibration

    wl = workloads.WORKLOADS[args.workload](ROOT, Path(args.workdir), args.seed)
    problems = wl.prepare()
    setup_done = time.time()
    run = Run(wl, Calibration())
    run.note("set-up", problems)
    k, count = args.worker
    timed_loop(run, wl.op, args.seconds / count, itertools.count(k, count))
    failed = run.check()
    print(json.dumps({
        "setup_done": setup_done,
        "raw": run.latencies(),
        "normalized": run.normalized(),
        "samples": run.cal.samples,
        "attempted": len(run.records),
        "failed": failed,
        "problems": run.problems,
        "summary": wl.summary([r[2] for r in run.records]),
    }))
    return 0


def run_workers(args, workloads, workdir: Path, cal) -> tuple:
    """Untraced run of an in-process workload over WORKERS fresh interpreters.

    Each worker sets up (its set-up time is one sample of setup_s), then
    measures its share of the operations: worker k takes operations k,
    k + WORKERS, ...  Pooling three processes evens out per-process effects
    such as memory layout.
    """
    import calib

    setups, raw, lat, samples, reports = [], [], [], [], []
    rss_kib = 0
    for k in range(WORKERS):
        cal.sample()
        flags = ["--worker", str(k), str(WORKERS), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--workdir", str(workdir / f"worker{k}")]
        spawned = time.time()
        code, _, out, rss = spawn_self(workloads, flags, workdir, f"worker{k}")
        if code != 0:
            fail(f"worker {k} failed")
        rep = json.loads(out.strip().splitlines()[-1])
        setup_scale = calib.REFERENCE_S / ((cal.samples[-1] + rep["samples"][0]) / 2)
        setups.append((rep["setup_done"] - spawned) * setup_scale)
        raw += rep["raw"]
        lat += rep["normalized"]
        samples += rep["samples"]
        rss_kib = max(rss_kib, rss)
        reports.append(rep)
    metrics = latency_metrics(lat)
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    return metrics, raw, samples, setups, reports


def run_in_parent(wl, args, workloads, workdir: Path, cal) -> tuple:
    """Untraced run of a workload whose operations spawn their own processes."""
    setups = measure_setup(workloads, args, workdir, cal)
    run = Run(wl, cal)
    run.note("set-up", wl.prepare())
    timed_loop(run, wl.op, args.seconds, itertools.count())
    metrics = latency_metrics(run.normalized())
    metrics["peak_rss_mb"] = (wl.peak_rss_kib / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    report = {"attempted": len(run.records), "failed": run.check(), "problems": run.problems,
              "summary": wl.summary([r[2] for r in run.records])}
    return metrics, run.latencies(), cal.samples, setups, [report]


def run_traced(wl, workloads, args, workdir: Path, cal) -> tuple:
    """Fixed work untraced and traced, then a traced CLI replay; per-layer metrics."""
    from tracer import Tracer

    run = Run(wl, cal)
    run.note("set-up", wl.prepare())

    op = wl.op if wl.in_process else wl.op_inprocess
    replay_s = {}  # per CLI step, seconds of each traced replay

    def traced_op(inp):
        if wl.in_process:
            return op(inp)
        return workloads.run_pipeline_inprocess(wl.workdir, inp, replay_s)

    # untraced and traced passes over the same inputs, alternating in blocks
    # so that drift in machine speed does not land on one side
    n = max(2, math.ceil(TRACED_SHARE * args.seconds / wl.nominal_op_s))
    n_blocks = min(n, TRACE_BLOCKS)
    bounds = [n * b // n_blocks for b in range(n_blocks + 1)]
    tr = Tracer()
    untraced = traced = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        for i in range(lo, hi):
            run.one(op, i)
        untraced += sum(run.latencies(-(hi - lo)))
        with tr:
            for i in range(lo, hi):
                run.one(traced_op, i)
        traced += sum(run.latencies(-(hi - lo)))
    if wl.in_process:
        replay_dir = wl.workdir / "replay"
        workloads.write_cli_inputs(replay_dir)
        with tr:
            replay = workloads.run_pipeline_inprocess(replay_dir, wl.case, replay_s)
        run.note("traced CLI replay",
                 workloads.check_pipeline(replay, wl.reference["cli"][wl.case]))
    import_s = statistics.median(measure_import(workloads, workdir))

    def per(num, den):
        return num / den if den else 0.0

    calls, incl, self_s, counts = tr.calls, tr.incl_s, tr.self_s, tr.counts
    fits = calls["inference.reml_fit"]
    metrics = {"cli.import_s": (import_s, "s")}
    for step in workloads.CLI_STEPS:
        metrics[f"cli.{step}_s"] = (statistics.median(replay_s[step]), "s")
    metrics.update({
        "covariance.solve_v.calls": (per(counts["solve_v_in_fit"], fits), "count"),
        "covariance.solve_v.self_ms": (self_s["covariance.solve_v"] * 1e3, "ms"),
        "inference.reml_objective.calls": (per(counts["objective_in_fit"], fits), "count"),
        "inference.reml_objective.self_ms": (self_s["inference.reml_objective"] * 1e3, "ms"),
        "inference.reml_fit.ms": (incl["inference.reml_fit"] * 1e3, "ms"),
        "inference.fixed_effect_tests.ms": (incl["inference.fixed_effect_tests"] * 1e3, "ms"),
        "boomerang_sim.simulate.ms": (incl["boomerang_sim.simulate"] * 1e3, "ms"),
        "design_gen.generate_design.s": (incl["design_gen.generate_design"], "s"),
        "design_gen.model_matrix.calls": (
            per(counts["model_matrix_in_search"], counts["starts"]), "count"),
        "design_gen.model_matrix.self_ms": (self_s["design_gen.model_matrix"] * 1e3, "ms"),
        "design_eval.power_report.ms": (incl["design_eval.power_report"] * 1e3, "ms"),
        "design_eval.diagnostics.ms": (incl["design_eval.diagnostics"] * 1e3, "ms"),
        "profiler.optimize.ms": (incl["profiler.optimize"] * 1e3, "ms"),
        "profiler.points_scored": (
            per(counts["optimize_rows"], counts["optimize_fits"]), "count"),
        "model_spec.build_model.ms": (incl["model_spec.build_model"] * 1e3, "ms"),
        "trace.overhead_pct": (per(traced - untraced, untraced) * 100.0, "%"),
    })
    print(f"{n} operations untraced then traced, in {n_blocks} alternating blocks: "
          f"untraced {untraced:.4f} s, traced {traced:.4f} s")
    for name in sorted(calls):
        print(f"  {name:<36} calls {calls[name]:>7}  incl {incl[name] * 1e3:10.2f} ms"
              f"  self {self_s[name] * 1e3:10.2f} ms")
    report = {"attempted": len(run.records), "failed": run.check(), "problems": run.problems,
              "summary": wl.summary([r[2] for r in run.records])}
    return metrics, [report]


def run_workload(args) -> int:
    use_checkout_sources()
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _run_workload(args, workloads, workdir: Path) -> int:
    from calib import Calibration

    cls = workloads.WORKLOADS[args.workload]
    # one CPU for this process and every child, so the calibration kernel runs
    # where the measured work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cal = Calibration(reps=PARENT_CALIBRATION_REPS)
    wl = cls(ROOT, workdir / "run", args.seed)
    wl.workdir.mkdir()
    wl.cal = cal
    print("env " + json.dumps(environment(args, wl.case), sort_keys=True))
    print(f"workload {wl.name}: {wl.op_label}; case {wl.case} of {workloads.N_CASES}")

    if args.trace:
        import_package()
        metrics, reports = run_traced(wl, workloads, args, workdir, cal)
    else:
        if wl.in_process:
            metrics, raw, samples, setups, reports = run_workers(args, workloads, workdir, cal)
        else:
            metrics, raw, samples, setups, reports = run_in_parent(wl, args, workloads,
                                                                   workdir, cal)
        print(f"{len(raw)} operations; raw wall time median {statistics.median(raw) * 1e3:.4f} ms,"
              f" p90 {quantile(raw, 0.9) * 1e3:.4f} ms; calibration kernel median "
              f"{statistics.median(samples) * 1e3:.4f} ms over {len(samples)} samples; "
              f"set-up samples {', '.join(f'{x:.4f}' for x in setups)} s")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for k, rep in enumerate(reports):
        for line in rep["summary"]:
            print(f"[{k}] {line}" if len(reports) > 1 else line)
        for p in rep["problems"][:20]:
            print(f"problem: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        line = f"{name:<36} {value:14.6f} {unit}"
        if name in wl.aliases:
            alias, scale, alias_unit = wl.aliases[name]
            line += f"   ({alias} = {value * scale:.6g} {alias_unit})"
        print(line)
    correct = failed == 0
    print(f"failed_ratio = {failed / attempted:.6f} ({failed}/{attempted}); "
          f"verdict: {'CORRECT' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    import subprocess

    code = 0
    for name in ("cli-tin", "mc-power", "design-search", "fit-large"):
        print(f"==== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-import", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", nargs=2, type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if args.probe_import:
        return probe_import()
    if args.worker:
        return worker(args)
    if args.probe_setup:
        return probe_setup(args, Path(args.workdir))
    if args.self_test:
        use_checkout_sources()
        import selftest

        return selftest.main(ROOT, ROOT / ".bench_work" / f"selftest-{os.getpid()}")
    if args.workload == "all":
        return run_all(args)
    use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
