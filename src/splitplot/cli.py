"""Command-line surface and the text formats it speaks.

Subcommands: plan, design, eval, simulate, fit, profile.

Model file, one directive per line, '#' starts a comment:

    factor <name> continuous <low> <high> [hard|easy]
    factor <name> categorical <lev1,lev2,...> [hard|easy]
    terms mains_and_all_2fi | mains_only | <label> [<label> ...]

Term labels look like "tension" or "nut_weight*tension".  Without a terms
line the model gets mains and all two-factor interactions.

Design CSV: UTF-8, comma separated, '.' decimal, header
run_id,whole_plot,<factors...>[,<responses...>].  Factor values are in
natural units (level labels, finite numbers inside the factor range).  A
number reads back as the shortest coded decimal that writes it exactly
(Factor.to_coded), so a written design reads back as itself.

Truth file for simulate, key = value lines:

    seed = 7
    <response>.intercept = 350
    <response>.coef.<term label> = 90
    <response>.sigma_gamma = 30
    <response>.sigma_epsilon = 60

Seeds, here and in every --seed flag, are non-negative integers.

CSV outputs (design --out, simulate --out, profile --out) go to stdout when
the path is omitted or '-'; profile prints its report there first.  A command
that fails leaves an existing output file as it was.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.  A negative
seed and a non-finite factor cell (nan, inf) are invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys

import numpy as np

from .boomerang_sim import ResponseTruth, TruthConfig, default_truth, simulate
from .design_eval import diagnostics, power_report
from .design_gen import Design, DesignSpec, generate_design
from .errors import NumericalError, ValidationError
from .inference import ResponseTable, fixed_effect_tests, reml_fit, residual_report
from .model_spec import ModelSpec, build_model, define_factor
from .profiler import Goal, optimize


def _fmt(value) -> str:
    """Canonical cell text: shortest float repr, plain ints, labels verbatim."""
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError("boolean cells are not part of any format")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v == 0.0:
            v = 0.0  # fold -0.0
        return repr(v)
    return str(value)


def _read_text(path, what: str) -> str:
    """The whole of a UTF-8 text file, line endings untranslated."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from None


@contextlib.contextmanager
def _output(target):
    """Stdout for None and '-', a stream as is, else a UTF-8 file with newline=''.

    A file is written to a new temporary file beside it, which replaces it only
    when the block succeeds, so a failing command leaves an existing file as it
    was.  A target that exists and is not a regular file (a device, a pipe) is
    written in place.
    """
    if target is None or target == "-":
        yield sys.stdout
        return
    if hasattr(target, "write"):
        yield target
        return
    path = os.fspath(target)
    in_place = os.path.exists(path) and not os.path.isfile(path)
    head, tail = os.path.split(path)
    tmp = path if in_place else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w" if in_place else "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {target}: {exc}") from None
    try:
        with fh:
            yield fh
        if not in_place:
            os.replace(tmp, path)
    except BaseException:
        if not in_place:
            os.unlink(tmp)
        raise


def _write_table(target, header, rows) -> None:
    cells = [[_fmt(c) for c in row] for row in rows]
    with _output(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)


def _parse_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"{where}: {token!r} is not a number") from None


# ---------------------------------------------------------------- model file


def parse_model_text(text: str) -> ModelSpec:
    factors = []
    terms = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        where = f"model file line {lineno}"
        if fields[0] == "factor":
            if len(fields) < 4:
                raise ValidationError(f"{where}: expected 'factor <name> <kind> ...'")
            name, kind = fields[1], fields[2]
            hard = False
            rest = fields[3:]
            if rest and rest[-1] in ("hard", "easy"):
                hard = rest[-1] == "hard"
                rest = rest[:-1]
            if kind == "continuous":
                if len(rest) != 2:
                    raise ValidationError(f"{where}: continuous factors need '<low> <high>'")
                low = _parse_float(rest[0], where)
                high = _parse_float(rest[1], where)
                factors.append(define_factor(name, "continuous", low=low, high=high,
                                             hard_to_change=hard))
            elif kind == "categorical":
                if len(rest) != 1:
                    raise ValidationError(f"{where}: categorical factors need '<lev1,lev2,...>'")
                levels = tuple(s.strip() for s in rest[0].split(","))
                factors.append(define_factor(name, "categorical", levels=levels,
                                             hard_to_change=hard))
            else:
                raise ValidationError(f"{where}: unknown factor kind {kind!r}")
        elif fields[0] == "terms":
            if terms is not None:
                raise ValidationError(f"{where}: duplicate terms line")
            if len(fields) == 2 and fields[1] in ("mains_and_all_2fi", "mains_only"):
                terms = fields[1]
            elif len(fields) >= 2:
                terms = fields[1:]
            else:
                raise ValidationError(f"{where}: empty terms line")
        else:
            raise ValidationError(f"{where}: unknown directive {fields[0]!r}")
    if not factors:
        raise ValidationError("model file declares no factors")
    return build_model(factors, terms if terms is not None else "mains_and_all_2fi")


def parse_model_file(path) -> ModelSpec:
    return parse_model_text(_read_text(path, "model"))


# ---------------------------------------------------------------- truth file


def parse_truth_text(text: str) -> TruthConfig:
    seed = 0
    data: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"truth file line {lineno}"
        key, sep, value = (s.strip() for s in line.partition("="))
        if not sep or not key or not value:
            raise ValidationError(f"{where}: expected 'key = value'")
        if key == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise ValidationError(f"{where}: seed must be an integer") from None
            continue
        parts = key.split(".")
        if len(parts) < 2:
            raise ValidationError(f"{where}: unknown key {key!r}")
        resp, field = parts[0], parts[1]
        entry = data.setdefault(resp, {"intercept": 0.0, "coefficients": {},
                                       "sigma_gamma": 0.0, "sigma_epsilon": 0.0})
        if field == "intercept" and len(parts) == 2:
            entry["intercept"] = _parse_float(value, where)
        elif field in ("sigma_gamma", "sigma_epsilon") and len(parts) == 2:
            entry[field] = _parse_float(value, where)
        elif field == "coef" and len(parts) == 3:
            entry["coefficients"][parts[2]] = _parse_float(value, where)
        else:
            raise ValidationError(f"{where}: unknown key {key!r}")
    if not data:
        raise ValidationError("truth file declares no responses")
    responses = {
        name: ResponseTruth(
            intercept=entry["intercept"],
            coefficients=entry["coefficients"],
            sigma_gamma=entry["sigma_gamma"],
            sigma_epsilon=entry["sigma_epsilon"],
        )
        for name, entry in data.items()
    }
    return TruthConfig(responses=responses, seed=seed)


def parse_truth_file(path) -> TruthConfig:
    return parse_truth_text(_read_text(path, "truth"))


# ---------------------------------------------------------------- design CSV


def write_design_csv(target, design: Design, responses: dict | None = None) -> None:
    """Canonical CSV, same bytes for same content, to a path, a stream or stdout (None, '-')."""
    responses = responses or {}
    header = ["run_id", "whole_plot"] + [f.name for f in design.factors] + list(responses)
    _write_table(target, header, (
        [i + 1, int(wp)]
        + [f.to_natural(v) for f, v in zip(design.factors, design.settings[i])]
        + [float(values[i]) for values in responses.values()]
        for i, wp in enumerate(design.whole_plot)
    ))


def read_design_csv(path, model: ModelSpec):
    """Parse a design CSV against a model; returns (design, response columns)."""
    rows = list(csv.reader(io.StringIO(_read_text(path, "design"), newline="")))
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    expected = ["run_id", "whole_plot"] + list(model.factor_names)
    if header[: len(expected)] != expected:
        raise ValidationError(
            f"{path}: header must start with {','.join(expected)}"
        )
    response_names = header[len(expected):]
    if len(set(response_names)) != len(response_names):
        raise ValidationError(f"{path}: duplicate response columns")
    if not body:
        raise ValidationError(f"{path}: no data rows")

    run_ids = []
    whole_plot = []
    settings = []
    responses = {name: [] for name in response_names}
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValidationError(f"{path} line {lineno}: expected {len(header)} cells")
        where = f"{path} line {lineno}"
        try:
            run_ids.append(int(row[0]))
            whole_plot.append(int(row[1]))
        except ValueError:
            raise ValidationError(f"{where}: run_id and whole_plot must be integers") from None
        coded_row = []
        for f, cell in zip(model.factors, row[2:]):
            value = cell if f.is_categorical else _parse_float(cell, where)
            try:
                coded_row.append(f.to_coded(value))
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from None
        settings.append(coded_row)
        for k, name in enumerate(response_names):
            responses[name].append(_parse_float(row[len(expected) + k], where))
    if len(set(run_ids)) != len(run_ids):
        raise ValidationError(f"{path}: duplicate run_id values")
    design = Design(
        factors=model.factors,
        whole_plot=tuple(whole_plot),
        settings=np.asarray(settings),
    )
    return design, {name: np.asarray(vals) for name, vals in responses.items()}


def randomize_run_order(design: Design, rng) -> Design:
    """Shuffle whole-plot order and run order within plots; groups stay intact."""
    order = []
    for plot in rng.permutation(design.layout.n_plots):
        order.extend(rng.permutation(design.layout.plot_rows[plot]))
    order = np.asarray(order)
    return Design(
        factors=design.factors,
        whole_plot=tuple(int(design.whole_plot[i]) for i in order),
        settings=design.settings[order],
        criterion=design.criterion,
    )


# ---------------------------------------------------------------- subcommands


def _read_responses(args):
    """The model and the ResponseTable of args.data; a file without responses is refused."""
    model = parse_model_file(args.model)
    design, responses = read_design_csv(args.data, model)
    if not responses:
        raise ValidationError(f"{args.data} has no response columns")
    return model, ResponseTable(design=design, responses=responses)


def cmd_plan(args) -> int:
    from .model_spec import count_subplot_df, count_whole_plot_df

    model = parse_model_file(args.model)
    wp = count_whole_plot_df(model, args.min_wp_error_df)
    n_plots = args.whole_plots if args.whole_plots is not None else wp.min_units
    sp = count_subplot_df(
        model, n_plots, min_error_df=args.min_sp_error_df,
        proposed_error_df=args.subplot_error_df, min_wp_error_df=args.min_wp_error_df,
    )

    print("whole-plot level")
    print("  intercept                      1")
    for label, df in wp.per_term_df:
        print(f"  {label:<30} {df}")
    print(f"  error (minimum)                {wp.error_df}")
    print(f"  minimum whole plots            {wp.min_units}")
    print()
    print(f"subplot level ({n_plots} whole plots)")
    print(f"  whole-plot takeover            {sp.takeover_df}")
    for label, df in sp.per_term_df:
        print(f"  {label:<30} {df}")
    print(f"  error                          {sp.error_df}")
    print(f"  total runs                     {sp.min_units}")
    if not sp.meets_minimum:
        print(f"  warning: error df below the minimum of {args.min_sp_error_df}")

    if args.out_prefix:
        rows = [("intercept", 1)] + list(wp.per_term_df)
        rows += [("error", wp.error_df), ("minimum_whole_plots", wp.min_units)]
        _write_table(f"{args.out_prefix}whole_plot.csv", ["source", "df"], rows)
        rows = [("whole_plot_takeover", sp.takeover_df)] + list(sp.per_term_df)
        rows += [("error", sp.error_df), ("total_runs", sp.min_units)]
        _write_table(f"{args.out_prefix}subplot.csv", ["source", "df"], rows)
    return 0


def cmd_design(args) -> int:
    model = parse_model_file(args.model)
    spec = DesignSpec(
        model=model,
        n_runs=args.runs,
        n_whole_plots=args.whole_plots,
        ratio=args.ratio,
        n_starts=args.starts,
        seed=args.seed,
    )
    # open --out first: an unwritable path fails before the search, not after it
    with _output(args.out) as out:
        design = generate_design(spec)
        if not args.no_randomize:
            design = randomize_run_order(design, np.random.default_rng((args.seed, 1)))
        write_design_csv(out, design)
    print(f"log D criterion: {_fmt(design.criterion)}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    model = parse_model_file(args.model)
    design, _ = read_design_csv(args.design, model)
    report = power_report(design, model, ratio=args.ratio, snr=args.snr, alpha=args.alpha)
    diag = diagnostics(design, model)

    print(f"power at snr={_fmt(args.snr)}, ratio={_fmt(args.ratio)}, alpha={_fmt(args.alpha)}")
    for row in report.rows:
        print(
            f"  {row.label:<28} {row.level:<11} df={row.error_df:<3}"
            f" power={row.power:.4f}"
        )
    off = diag.correlation[~np.eye(len(diag.labels), dtype=bool)]
    finite = off[np.isfinite(off)]
    worst = float(np.max(np.abs(finite))) if finite.size else float("nan")
    print(f"largest |column correlation|: {worst:.4f}")
    for a, b in diag.alias_warnings:
        print(f"  warning: {a} aliased with {b}")
    print("variance inflation")
    for label, value in zip(diag.labels, diag.vif):
        print(f"  {label:<28} {value:.4f}")

    if args.out_prefix:
        _write_table(
            f"{args.out_prefix}power.csv",
            ["term", "level", "variance_factor", "noncentrality", "error_df", "power"],
            [
                (r.label, r.level, r.variance_factor, r.noncentrality, r.error_df, r.power)
                for r in report.rows
            ],
        )
        _write_table(
            f"{args.out_prefix}correlation.csv",
            ["term", *diag.labels],
            [
                (label, *[diag.correlation[i, j] for j in range(len(diag.labels))])
                for i, label in enumerate(diag.labels)
            ],
        )
        _write_table(
            f"{args.out_prefix}vif.csv",
            ["term", "vif"],
            list(zip(diag.labels, diag.vif)),
        )
    return 0


def cmd_simulate(args) -> int:
    model = parse_model_file(args.model)
    design, existing = read_design_csv(args.design, model)
    truth = parse_truth_file(args.truth) if args.truth else default_truth()
    clash = set(existing) & set(truth.responses)
    if clash:
        raise ValidationError(f"design file already has response columns {sorted(clash)}")
    table = simulate(design, truth, seed=args.seed)
    merged = dict(existing)
    merged.update(table.responses)
    write_design_csv(args.out, design, merged)
    return 0


def cmd_fit(args) -> int:
    model, table = _read_responses(args)
    fit = reml_fit(table, model, response=args.response)
    tests = fixed_effect_tests(fit)

    comps = fit.components
    print(f"response: {fit.response}   n={fit.n_runs}")
    print(
        f"sigma2_gamma={comps.sigma2_gamma:.6g}  sigma2_epsilon={comps.sigma2_epsilon:.6g}"
        f"  ratio={fit.ratio:.6g}" + ("  (boundary)" if fit.boundary else "")
    )
    print(f"R2={fit.r2:.4f}  RMSE={fit.rmse:.4f}")
    if fit.f_overall is not None:
        q, den = fit.df_overall
        print(f"overall F({q},{den})={fit.f_overall:.4f}  p={fit.p_overall:.4g}")
    print("term tests")
    for t in tests:
        print(
            f"  {t.label:<28} {t.level:<11} F({t.df_num},{t.df_den})={t.f_stat:<10.4f}"
            f" p={t.p_value:.4g}"
        )

    if args.out_prefix:
        se = np.sqrt(np.diag(fit.cov_beta))
        _write_table(
            f"{args.out_prefix}coefficients.csv",
            ["column", "estimate", "se"],
            [(lab, float(b), float(s)) for lab, b, s in zip(fit.labels, fit.beta, se)],
        )
        _write_table(
            f"{args.out_prefix}tests.csv",
            ["term", "level", "df_num", "df_den", "f", "p"],
            [(t.label, t.level, t.df_num, t.df_den, t.f_stat, t.p_value) for t in tests],
        )
        _write_table(
            f"{args.out_prefix}residuals.csv",
            ["run", "whole_plot", "observed", "fitted", "residual"],
            residual_report(fit),
        )
    return 0


def _parse_goal(text: str) -> Goal:
    parts = [p.strip() for p in text.split(":")]
    if len(parts) < 2 or not parts[0]:
        raise ValidationError(
            f"goal {text!r} must look like 'response:direction[:bounds=lo,hi][:weight=w]'"
        )
    response = parts[0]
    direction = parts[1]
    target = None
    if direction.startswith("target="):
        target = _parse_float(direction[7:], f"goal {text!r}")
        direction = "target"
    bounds = None
    weight = 1.0
    for extra in parts[2:]:
        key, sep, value = extra.partition("=")
        if key == "bounds" and sep:
            pieces = value.split(",")
            if len(pieces) != 2:
                raise ValidationError(f"goal {text!r}: bounds need two values")
            bounds = (
                _parse_float(pieces[0], f"goal {text!r}"),
                _parse_float(pieces[1], f"goal {text!r}"),
            )
        elif key == "weight" and sep:
            weight = _parse_float(value, f"goal {text!r}")
        else:
            raise ValidationError(f"goal {text!r}: unknown option {extra!r}")
    return Goal(response=response, direction=direction, target=target,
                bounds=bounds, weight=weight)


def cmd_profile(args) -> int:
    model, table = _read_responses(args)
    goals = [_parse_goal(g) for g in args.goal]
    fits = {}
    for g in goals:
        if g.response not in table.responses:
            raise ValidationError(f"goal references {g.response!r}; file has {table.names}")
        if g.response not in fits:
            fits[g.response] = reml_fit(table, model, response=g.response)
    rec = optimize(fits, goals)

    print("recommended settings")
    for name, natural, coded in rec.settings:
        print(f"  {name:<28} {_fmt(natural):<12} (coded {_fmt(coded)})")
    print("predicted responses")
    for name, value, se in rec.predictions:
        print(f"  {name:<28} {value:.4f} (se {se:.4f})")
    print(f"desirability: {rec.desirability:.6f}")

    if args.out:
        _write_table(
            args.out,
            ["factor", "natural", "coded"],
            [(name, natural, coded) for name, natural, coded in rec.settings],
        )
    return 0


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitplot",
        description="Plan, build, assess and analyze split-plot experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="degree-of-freedom budget for a model")
    p.add_argument("model")
    p.add_argument("--min-wp-error-df", type=int, default=4)
    p.add_argument("--min-sp-error-df", type=int, default=5)
    p.add_argument("--whole-plots", type=int, default=None)
    p.add_argument("--subplot-error-df", type=int, default=None,
                   help="propose a subplot error budget instead of the minimum")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("design", help="search a D-optimal split-plot design")
    p.add_argument("model")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--whole-plots", type=int, required=True)
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-randomize", action="store_true",
                   help="keep the canonical plot-by-plot order")
    p.add_argument("--out", default=None, help="design CSV path (default stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("eval", help="power and collinearity diagnostics")
    p.add_argument("model")
    p.add_argument("design")
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--snr", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="draw synthetic responses for a design")
    p.add_argument("model")
    p.add_argument("design")
    p.add_argument("--truth", default=None, help="truth config (default: rolling-tin)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="REML plus GLS analysis of one response")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--response", default=None)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("profile", help="multi-response desirability optimization")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--goal", action="append", required=True,
                   help="response:direction[:bounds=lo,hi][:weight=w]; "
                        "direction is maximize, minimize or target=VALUE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
