"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test prints `criterion NN: PASS/FAIL (detail)` so a plain pytest run
doubles as the release checklist.  Tolerances are pinned inline next to the
assertions they guard.  Monte Carlo work uses frozen seed tuples so reruns
are bit-identical; the oracle constants were computed independently of the
code under test (closed forms, exhaustive enumeration, or textbook
estimators) and are asserted, not regenerated.
"""

import time

import numpy as np
import pytest

from splitplot import (
    CovarianceModel,
    Design,
    DesignSpec,
    ResponseTable,
    ResponseTruth,
    SUBPLOT,
    TruthConfig,
    VarianceComponents,
    WHOLE_PLOT,
    WholePlotLayout,
    build_model,
    count_subplot_df,
    count_whole_plot_df,
    define_factor,
    default_truth,
    expand_model_matrix,
    fixed_effect_tests,
    generate_design,
    gls_fit,
    log_det_v,
    power_report,
    reml_fit,
    simulate,
    solve_v,
)
from splitplot.cli import main as cli_main
from splitplot.covariance import build_v
from splitplot.cli import parse_model_file, read_design_csv, write_design_csv


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def two_factor_model():
    return build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_and_all_2fi",
    )


def intercept_only_model():
    return build_model([define_factor("x", "continuous")], [])


# -------------------------------------------------------------- criterion 1


def test_criterion_01_df_accounting(tin_model):
    """Budget for the 4-factor mains+2FI model: 2 wp df, 6 plots, 24 runs."""
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        wp = count_whole_plot_df(tin_model)
        assert wp.model_df == 2
        assert wp.error_df == 4
        assert wp.min_units == 6
        sp = count_subplot_df(tin_model, wp.min_units, proposed_error_df=9)
        assert sp.takeover_df == 6
        assert sp.model_df == 15
        assert sp.error_df == 9
        assert sp.min_units == 24
        assert sp.meets_minimum
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        ok, detail = True, f"2 wp df, 6 plots, 15 sp df, 24 runs, {elapsed:.3f}s"
    finally:
        _verdict(1, ok, detail)


# -------------------------------------------------------------- criterion 2


def _exhaustive_d_optimum() -> float:
    """Best log det over every candidate-grid design: 1 hard + 1 easy factor,
    mains+2FI, 8 runs in 4 plots of 2, eta = 1.  3^4 plot settings crossed
    with 3^8 run settings is the complete search space of the exchanger."""
    levels = np.array([-1.0, 0.0, 1.0])
    plots = np.repeat(np.arange(4), 2)
    w_all = np.array(np.meshgrid(*[levels] * 4, indexing="ij")).reshape(4, -1).T
    s_all = np.array(np.meshgrid(*[levels] * 8, indexing="ij")).reshape(8, -1).T
    z = np.zeros((8, 4))
    z[np.arange(8), plots] = 1.0
    vinv = np.linalg.inv(np.eye(8) + z @ z.T)
    best = -np.inf
    for w in w_all:
        a = w[plots]
        x = np.empty((s_all.shape[0], 8, 4))
        x[:, :, 0] = 1.0
        x[:, :, 1] = a
        x[:, :, 2] = s_all
        x[:, :, 3] = a * s_all
        m = np.einsum("nia,ij,njb->nab", x, vinv, x, optimize=True)
        sign, ld = np.linalg.slogdet(m)
        ld[sign <= 0] = -np.inf
        best = max(best, float(ld.max()))
    return best


def test_criterion_02_exchange_matches_exhaustive_optimum():
    """>= 95/100 seeded searches reach the enumerated optimum to 1e-9."""
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        oracle = 6.120541589383125  # frozen exhaustive-enumeration value
        fresh = _exhaustive_d_optimum()
        assert fresh == pytest.approx(oracle, abs=1e-6)
        m = two_factor_model()
        hits = 0
        for seed in range(100):
            spec = DesignSpec(
                model=m, n_runs=8, n_whole_plots=4, ratio=1.0, n_starts=10, seed=seed
            )
            hits += abs(generate_design(spec).criterion - oracle) <= 1e-9
        elapsed = time.monotonic() - t0
        assert hits >= 95
        assert elapsed < 60.0
        ok, detail = True, f"{hits}/100 hits, optimum {oracle:.6f}, {elapsed:.1f}s"
    finally:
        _verdict(2, ok, detail)


# -------------------------------------------------------------- criterion 3


def test_criterion_03_full_scale_design_properties(tin_model):
    """24-run/6-plot tin design: structure sound, whole-plot term weakest."""
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        spec = DesignSpec(
            model=tin_model, n_runs=24, n_whole_plots=6, ratio=1.0, n_starts=20, seed=0
        )
        design = generate_design(spec)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        assert np.isfinite(design.criterion)  # nonsingular information
        assert design.criterion == pytest.approx(31.386367201990048, abs=1e-6)
        assert design.layout.sizes.tolist() == [4] * 6
        plots = np.asarray(design.whole_plot)
        hard = design.settings[:, 0]
        for p in range(1, 7):
            assert np.ptp(hard[plots == p]) == 0.0  # constant within each plot
        report = power_report(design, tin_model, ratio=1.0, snr=1.0, alpha=0.05)
        wp_power = [r.power for r in report.rows if r.level == WHOLE_PLOT]
        sp_power = [r.power for r in report.rows if r.level == SUBPLOT]
        assert len(wp_power) == 1 and len(sp_power) == 9
        assert max(wp_power) < min(sp_power)
        ok, detail = (
            True,
            f"wp power {wp_power[0]:.3f} < min sp power {min(sp_power):.3f}, "
            f"{elapsed:.1f}s",
        )
    finally:
        _verdict(3, ok, detail)


# -------------------------------------------------------------- criterion 4


def test_criterion_04_reml_closed_form():
    """Balanced one-way data [0,2 | 4,6]: ANOVA estimators (7, 2) to 1e-6."""
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        m = intercept_only_model()
        d = Design(
            factors=m.factors, whole_plot=(1, 1, 2, 2), settings=np.zeros((4, 1))
        )
        tab = ResponseTable(design=d, responses={"y": np.array([0.0, 2.0, 4.0, 6.0])})
        fit = reml_fit(tab, m, response="y")
        assert fit.components.sigma2_gamma == pytest.approx(7.0, abs=1e-6)
        assert fit.components.sigma2_epsilon == pytest.approx(2.0, abs=1e-6)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        ok, detail = (
            True,
            f"sigma2_gamma {fit.components.sigma2_gamma:.8f}, "
            f"sigma2_epsilon {fit.components.sigma2_epsilon:.8f}, {elapsed:.3f}s",
        )
    finally:
        _verdict(4, ok, detail)


# -------------------------------------------------------------- criterion 5


def test_criterion_05_ols_gls_limit_equivalence():
    """Boundary fits collapse to OLS; orthogonal designs ignore the ratio."""
    ok, detail = False, ""
    try:
        m = two_factor_model()
        # unequal plot sizes and settings keep GLS ratio-sensitive on purpose
        lop = Design(
            factors=m.factors,
            whole_plot=(1, 1, 1, 2, 2, 2, 3, 3),
            settings=np.array(
                [[1.0, 1.0], [1.0, -1.0], [1.0, 0.0],
                 [-1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0],
                 [0.0, 1.0], [0.0, -1.0]]
            ),
        )
        truth = TruthConfig(
            responses={
                "y": ResponseTruth(
                    intercept=10.0, coefficients={"a": 2.0, "b": 1.0},
                    sigma_gamma=0.0, sigma_epsilon=1.0,
                )
            },
            seed=0,
        )
        tab = simulate(lop, truth, seed=(50, 0))  # frozen boundary-landing draw
        fit = reml_fit(tab, m, response="y")
        assert fit.boundary and fit.ratio == 0.0
        x = expand_model_matrix(lop, m)
        ols = np.linalg.lstsq(x, tab.responses["y"], rcond=None)[0]
        gap_ols = float(np.max(np.abs(fit.beta - ols)))
        assert gap_ols <= 1e-8

        orth = Design(
            factors=m.factors,
            whole_plot=(1, 1, 2, 2, 3, 3, 4, 4),
            settings=np.array(
                [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
                 [1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]]
            ),
        )
        truth2 = TruthConfig(
            responses={
                "y": ResponseTruth(
                    intercept=5.0, coefficients={"a": 3.0, "b": 2.0},
                    sigma_gamma=1.0, sigma_epsilon=1.0,
                )
            },
            seed=0,
        )
        tab2 = simulate(orth, truth2, seed=(55, 0))
        fits = [gls_fit(tab2, m, ratio=eta, response="y") for eta in (0.0, 0.5, 1.0, 5.0)]
        gap_eta = max(
            float(np.max(np.abs(f.beta - fits[0].beta))) for f in fits[1:]
        )
        assert gap_eta <= 1e-8
        ok, detail = True, f"|beta-OLS| {gap_ols:.1e}, eta sweep spread {gap_eta:.1e}"
    finally:
        _verdict(5, ok, detail)


# -------------------------------------------------------------- criterion 6


def test_criterion_06_variance_component_recovery():
    """200 plots x 4 runs, truth (900, 3600): medians within 15%, few boundaries."""
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        m = intercept_only_model()
        d = Design(
            factors=m.factors,
            whole_plot=tuple(np.repeat(np.arange(1, 201), 4)),
            settings=np.zeros((800, 1)),
        )
        truth = TruthConfig(
            responses={
                "y": ResponseTruth(
                    intercept=0.0, coefficients={}, sigma_gamma=30.0, sigma_epsilon=60.0
                )
            },
            seed=0,
        )
        gammas, epsilons, boundaries = [], [], 0
        for k in range(200):
            fit = reml_fit(simulate(d, truth, seed=(6, k)), m, response="y")
            gammas.append(fit.components.sigma2_gamma)
            epsilons.append(fit.components.sigma2_epsilon)
            boundaries += fit.boundary
        med_g = float(np.median(gammas))
        med_e = float(np.median(epsilons))
        assert abs(med_g - 900.0) <= 0.15 * 900.0
        assert abs(med_e - 3600.0) <= 0.15 * 3600.0
        assert boundaries / 200 < 0.05
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        ok, detail = (
            True,
            f"medians ({med_g:.1f}, {med_e:.1f}), {boundaries} boundary fits, "
            f"{elapsed:.1f}s",
        )
    finally:
        _verdict(6, ok, detail)


# -------------------------------------------------------------- criterion 7


def test_criterion_07_analytic_power_matches_monte_carlo(tin_design, tin_model):
    """Every term's analytic power within 2.5 points of 5000-rep rejection."""
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        report = power_report(tin_design, tin_model, ratio=1.0, snr=1.0, alpha=0.05)
        analytic = {row.label: row.power for row in report.rows}
        truth = TruthConfig(
            responses={
                "y": ResponseTruth(
                    intercept=0.0,
                    coefficients={t.label: 1.0 for t in tin_model.terms},
                    sigma_gamma=1.0,
                    sigma_epsilon=1.0,
                )
            },
            seed=0,
        )
        reps = 5000
        rejections = {t.label: 0 for t in tin_model.terms}
        for k in range(reps):
            fit = reml_fit(simulate(tin_design, truth, seed=(7, k)), tin_model, response="y")
            for row in fixed_effect_tests(fit):
                rejections[row.label] += row.p_value < 0.05
        worst = max(
            abs(rejections[label] / reps - analytic[label]) for label in analytic
        )
        assert worst <= 0.025  # 2.5 percentage points
        elapsed = time.monotonic() - t0
        ok, detail = True, f"worst gap {100 * worst:.2f}pp over 10 terms, {elapsed:.0f}s"
    finally:
        _verdict(7, ok, detail)


# -------------------------------------------------------------- criterion 8


def test_criterion_08_significance_pattern_recovery(tin_design, tin_model):
    """Simulated tin studies recover both response patterns >= 90% of the time.

    A replicate recovers y1 when all four mains test significant at 0.05 and
    no interaction survives a familywise 0.05 screen (Bonferroni over the 6
    interactions); it recovers y2 when the nut weight is significant and no
    other term survives a familywise 0.05 screen over the other 9 terms.
    The y1 R2 window [0.75, 0.97] is checked as a distribution: median and
    at least 95% of replicates inside, and this frozen base has every one in.
    """
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        truth = default_truth()
        mains = ("nut_weight", "tension", "twist", "ramp_height")
        interactions = tuple(t.label for t in tin_model.terms if t.order == 2)
        reps = 200
        y1_hits = y2_hits = 0
        r2 = []
        for k in range(reps):
            tab = simulate(tin_design, truth, seed=(8, k))
            fit1 = reml_fit(tab, tin_model, response="y1")
            p1 = {row.label: row.p_value for row in fixed_effect_tests(fit1)}
            y1_hits += all(p1[lab] < 0.05 for lab in mains) and all(
                p1[lab] >= 0.05 / 6 for lab in interactions
            )
            r2.append(fit1.r2)
            fit2 = reml_fit(tab, tin_model, response="y2")
            p2 = {row.label: row.p_value for row in fixed_effect_tests(fit2)}
            y2_hits += p2["nut_weight"] < 0.05 and all(
                p2[lab] >= 0.05 / 9 for lab in p2 if lab != "nut_weight"
            )
        rate1 = y1_hits / reps
        rate2 = y2_hits / reps
        assert rate1 >= 0.90
        assert rate2 >= 0.90
        r2 = np.asarray(r2)
        in_window = np.mean((r2 >= 0.75) & (r2 <= 0.97))
        assert 0.75 <= float(np.median(r2)) <= 0.97
        assert in_window >= 0.95
        assert float(r2.min()) >= 0.75 and float(r2.max()) <= 0.97
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        ok, detail = (
            True,
            f"y1 {rate1:.3f}, y2 {rate2:.3f}, R2 in "
            f"[{r2.min():.3f}, {r2.max():.3f}], {elapsed:.0f}s",
        )
    finally:
        _verdict(8, ok, detail)


# -------------------------------------------------------------- criterion 9


def test_criterion_09_covariance_algebra_and_simulator_moments():
    """Closed-form solves match dense oracles; simulated noise matches Gamma."""
    ok, detail = False, ""
    try:
        rng = np.random.default_rng(9)
        worst_solve = worst_logdet = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            r = int(rng.integers(1, n + 1))
            labels = np.concatenate(
                [np.arange(1, r + 1), rng.integers(1, r + 1, size=n - r)]
            )
            rng.shuffle(labels)
            cov = CovarianceModel(
                WholePlotLayout(tuple(int(v) for v in labels)),
                VarianceComponents(
                    sigma2_gamma=float(rng.uniform(0.0, 4.0)),
                    sigma2_epsilon=float(rng.uniform(0.2, 3.0)),
                ),
            )
            dense = build_v(cov)
            b = rng.normal(size=(n, 2))
            worst_solve = max(
                worst_solve,
                float(np.max(np.abs(solve_v(cov, b) - np.linalg.solve(dense, b)))),
            )
            worst_logdet = max(
                worst_logdet, abs(log_det_v(cov) - np.linalg.slogdet(dense)[1])
            )
        assert worst_solve <= 1e-10
        assert worst_logdet <= 1e-10

        # second moments of the simulator noise against the within-plot pattern
        facs = (define_factor("x", "continuous"),)
        d = Design(
            factors=facs, whole_plot=(1, 1, 2, 2, 3, 3, 4, 4), settings=np.zeros((8, 1))
        )
        truth = TruthConfig(
            responses={
                "y": ResponseTruth(
                    intercept=0.0, coefficients={},
                    sigma_gamma=30.15, sigma_epsilon=60.3,
                )
            },
            seed=0,
        )
        reps = 100_000
        diag_acc = off_acc = 0.0
        for k in range(reps):
            y = simulate(d, truth, seed=(9, k)).responses["y"]
            diag_acc += y @ y
            off_acc += y[0::2] @ y[1::2]
        diag = diag_acc / (reps * 8)
        off = off_acc / (reps * 4)
        want_diag = 30.15**2 + 60.3**2
        want_off = 30.15**2
        rel_diag = abs(diag - want_diag) / want_diag
        rel_off = abs(off - want_off) / want_off
        assert rel_diag <= 0.02
        assert rel_off <= 0.02
        ok, detail = (
            True,
            f"solve {worst_solve:.1e}, logdet {worst_logdet:.1e}, "
            f"moment errors {100 * rel_diag:.2f}%/{100 * rel_off:.2f}%",
        )
    finally:
        _verdict(9, ok, detail)


# ------------------------------------------------------------- criterion 10


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    """Same seed, same bytes; write -> read -> write changes nothing."""
    ok, detail = False, ""
    try:
        model_path = tmp_path / "model.txt"
        model_path.write_text(
            "factor a continuous -1 1 hard\n"
            "factor b continuous -1 1\n"
            "terms mains_and_all_2fi\n"
        )
        truth_path = tmp_path / "truth.txt"
        truth_path.write_text(
            "seed = 1\n"
            "y.intercept = 5\n"
            "y.coef.a = 1\n"
            "y.sigma_gamma = 0.5\n"
            "y.sigma_epsilon = 1\n"
        )
        d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        base = ["design", str(model_path), "--runs", "8", "--whole-plots", "4",
                "--starts", "5", "--seed", "5"]
        assert cli_main(base + ["--out", str(d1)]) == 0
        assert cli_main(base + ["--out", str(d2)]) == 0
        assert d1.read_bytes() == d2.read_bytes()

        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        sim = ["simulate", str(model_path), str(d1), "--truth", str(truth_path),
               "--seed", "7"]
        assert cli_main(sim + ["--out", str(s1)]) == 0
        assert cli_main(sim + ["--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

        model = parse_model_file(model_path)
        design, _ = read_design_csv(d1, model)
        rewrite = tmp_path / "d1_rewrite.csv"
        write_design_csv(rewrite, design)
        assert rewrite.read_bytes() == d1.read_bytes()

        with_y, responses = read_design_csv(s1, model)
        rewrite2 = tmp_path / "s1_rewrite.csv"
        write_design_csv(rewrite2, with_y, responses)
        assert rewrite2.read_bytes() == s1.read_bytes()
        ok, detail = True, "design, simulate and round-trip bytes all identical"
    finally:
        _verdict(10, ok, detail)
