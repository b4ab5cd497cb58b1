"""Variance-component estimation, GLS fits and the per-term F tests."""

import numpy as np
import pytest

from splitplot import (
    Design,
    NumericalError,
    ResponseTable,
    ResponseTruth,
    SUBPLOT,
    TruthConfig,
    ValidationError,
    WHOLE_PLOT,
    build_model,
    define_factor,
    expand_model_matrix,
    fixed_effect_tests,
    gls_fit,
    reml_fit,
    reml_objective,
    residual_report,
    simulate,
)


def intercept_only_design(whole_plot):
    m = build_model([define_factor("x", "continuous")], [])
    n = len(whole_plot)
    d = Design(factors=m.factors, whole_plot=whole_plot, settings=np.zeros((n, 1)))
    return d, m


def lopsided_design():
    """Unequal plots and settings, so GLS genuinely depends on the ratio."""
    m = build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_and_all_2fi",
    )
    settings = np.array(
        [[1.0, 1.0], [1.0, -1.0], [1.0, 0.0],
         [-1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0],
         [0.0, 1.0], [0.0, -1.0]]
    )
    d = Design(factors=m.factors, whole_plot=(1, 1, 1, 2, 2, 2, 3, 3), settings=settings)
    return d, m


def orthogonal_design():
    """Balanced plots, hard factor split evenly, easy factor balanced per plot."""
    m = build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_and_all_2fi",
    )
    settings = np.array(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
         [1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]]
    )
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 3, 3, 4, 4), settings=settings)
    return d, m


# ---------------------------------------------------------------- reml basics


def test_balanced_one_way_recovers_anova_estimators():
    """Two plots of two runs, y = [0, 2 | 4, 6].

    Plot means 1 and 5: between-plot mean square 2 * var([1, 5]) = 16, so
    sigma2_gamma = (16 - 2) / 2 = 7 with sigma2_eps = 2, and the profiled
    objective -2 log(1 + 2 eta) + 3 log(20 + 8 eta) bottoms out at eta = 3.5.
    """
    d, m = intercept_only_design((1, 1, 2, 2))
    tab = ResponseTable(design=d, responses={"y": np.array([0.0, 2.0, 4.0, 6.0])})
    fit = reml_fit(tab, m, response="y")
    assert fit.components.sigma2_gamma == pytest.approx(7.0, abs=1e-6)
    assert fit.components.sigma2_epsilon == pytest.approx(2.0, abs=1e-6)
    assert fit.ratio == pytest.approx(3.5, abs=1e-5)
    assert not fit.boundary
    assert fit.method == "reml"


def test_reml_optimum_beats_a_dense_grid():
    d, m = lopsided_design()
    rng = np.random.default_rng(21)
    for k in range(5):
        tab = ResponseTable(design=d, responses={"y": rng.normal(size=8) * 2.0 + 5.0})
        fit = reml_fit(tab, m, response="y")
        x = expand_model_matrix(d, m)
        y = tab.responses["y"]
        best = fit.objective
        for eta in np.concatenate([[0.0], np.logspace(-6, 6, 241)]):
            assert best <= reml_objective(eta, x, y, d.layout) + 1e-6


def test_reml_objective_validation():
    d, m = intercept_only_design((1, 1, 2, 2))
    x = expand_model_matrix(d, m)
    y = np.array([0.0, 2.0, 4.0, 6.0])
    with pytest.raises(ValidationError):
        reml_objective(-1.0, x, y, d.layout)
    with pytest.raises(ValidationError):
        reml_objective(1.0, np.ones((2, 2)), np.zeros(2), d.layout)


def test_noise_free_data_raises_instead_of_faking_components():
    d, m = orthogonal_design()
    x = expand_model_matrix(d, m)
    y = x @ np.array([5.0, 3.0, 2.0, 0.5])
    tab = ResponseTable(design=d, responses={"y": y})
    with pytest.raises(NumericalError):
        reml_fit(tab, m, response="y")
    with pytest.raises(NumericalError):
        gls_fit(tab, m, ratio=1.0, response="y")


def test_rank_deficient_model_raises():
    facs = [define_factor("u", "continuous"), define_factor("v", "continuous")]
    m = build_model(facs, "mains_only")
    settings = np.column_stack([np.tile([-1.0, 1.0], 4), np.tile([-1.0, 1.0], 4)])
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 3, 3, 4, 4), settings=settings)
    tab = ResponseTable(design=d, responses={"y": np.arange(8.0)})
    with pytest.raises(NumericalError):
        reml_fit(tab, m, response="y")


# ---------------------------------------------------------------- boundary


def test_boundary_fit_equals_ols():
    d, m = lopsided_design()
    truth = TruthConfig(
        responses={
            "y": ResponseTruth(
                intercept=10.0, coefficients={"a": 2.0, "b": 1.0},
                sigma_gamma=0.0, sigma_epsilon=1.0,
            )
        },
        seed=0,
    )
    x = expand_model_matrix(d, m)

    tab = simulate(d, truth, seed=(50, 0))  # known boundary case
    fit = reml_fit(tab, m, response="y")
    assert fit.boundary
    assert fit.ratio == 0.0
    assert fit.components.sigma2_gamma == 0.0
    ols = np.linalg.lstsq(x, tab.responses["y"], rcond=None)[0]
    assert fit.beta == pytest.approx(ols, abs=1e-8)

    tab2 = simulate(d, truth, seed=(50, 1))  # known interior case
    fit2 = reml_fit(tab2, m, response="y")
    assert not fit2.boundary
    ols2 = np.linalg.lstsq(x, tab2.responses["y"], rcond=None)[0]
    assert np.max(np.abs(fit2.beta - ols2)) > 1e-3


def test_gls_on_orthogonal_design_ignores_the_ratio():
    d, m = orthogonal_design()
    truth = TruthConfig(
        responses={
            "y": ResponseTruth(
                intercept=5.0, coefficients={"a": 3.0, "b": 2.0},
                sigma_gamma=1.0, sigma_epsilon=1.0,
            )
        },
        seed=0,
    )
    tab = simulate(d, truth, seed=(55, 0))
    fits = [gls_fit(tab, m, ratio=eta, response="y") for eta in (0.0, 0.5, 1.0, 5.0)]
    for fit in fits[1:]:
        assert fit.beta == pytest.approx(fits[0].beta, abs=1e-8)
    assert fits[0].boundary  # ratio 0 is a boundary by definition
    assert not fits[1].boundary
    assert all(f.method == "gls" for f in fits)


def test_gls_fit_validates_ratio():
    d, m = orthogonal_design()
    tab = ResponseTable(design=d, responses={"y": np.arange(8.0)})
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValidationError):
            gls_fit(tab, m, ratio=bad, response="y")


# ---------------------------------------------------------------- fit contract


def test_scale_equivariance():
    d, m = lopsided_design()
    rng = np.random.default_rng(33)
    y = rng.normal(size=8) * 3.0 + 4.0
    tab1 = ResponseTable(design=d, responses={"y": y})
    tab2 = ResponseTable(design=d, responses={"y": 3.7 * y})
    f1 = reml_fit(tab1, m, response="y")
    f2 = reml_fit(tab2, m, response="y")
    assert f2.beta == pytest.approx(3.7 * f1.beta, rel=1e-7)
    assert f2.components.sigma2_epsilon == pytest.approx(
        3.7**2 * f1.components.sigma2_epsilon, rel=1e-6
    )
    assert f2.ratio == pytest.approx(f1.ratio, rel=1e-4, abs=1e-8)
    assert f2.r2 == pytest.approx(f1.r2, abs=1e-9)
    t1 = fixed_effect_tests(f1)
    t2 = fixed_effect_tests(f2)
    for a, b in zip(t1, t2):
        assert b.f_stat == pytest.approx(a.f_stat, rel=1e-5)


def test_one_df_f_stat_is_squared_t():
    d, m = lopsided_design()
    rng = np.random.default_rng(44)
    tab = ResponseTable(design=d, responses={"y": rng.normal(size=8)})
    fit = gls_fit(tab, m, ratio=1.0, response="y")
    se = np.sqrt(np.diag(fit.cov_beta))
    tests = fixed_effect_tests(fit)
    for j, t in enumerate(tests, start=1):
        assert t.df_num == 1
        assert t.f_stat == pytest.approx((fit.beta[j] / se[j]) ** 2, abs=1e-10)


def test_multi_df_term_matches_classical_anova_f():
    """One 3-level factor in a single plot at ratio 0 is one-way ANOVA."""
    m = build_model(
        [define_factor("g", "categorical", levels=("p", "q", "r"))], "mains_only"
    )
    codes = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=float)
    d = Design(factors=m.factors, whole_plot=(1,) * 9, settings=codes[:, None])
    rng = np.random.default_rng(17)
    y = rng.normal(size=9) + codes
    tab = ResponseTable(design=d, responses={"y": y})
    fit = gls_fit(tab, m, ratio=0.0, response="y")
    (test,) = fixed_effect_tests(fit)

    groups = [y[codes == c] for c in (0.0, 1.0, 2.0)]
    grand = y.mean()
    ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    f_classical = (ss_between / 2) / (ss_within / 6)
    assert test.df_num == 2
    assert test.df_den == 6
    assert test.f_stat == pytest.approx(f_classical, abs=1e-10)


def test_flat_fit_reports_zero_r2():
    d, m = intercept_only_design((1, 1, 2, 2, 3, 3))
    y = np.array([1.0, 2.0, 0.5, 1.5, 2.5, 0.0])
    fit = gls_fit(
        ResponseTable(design=d, responses={"y": y}), m, ratio=0.0, response="y"
    )
    assert fit.r2 == 0.0
    assert fit.fitted == pytest.approx(np.full(6, y.mean()), abs=1e-12)


def test_error_df_and_overall_f_bookkeeping():
    d, m = lopsided_design()
    rng = np.random.default_rng(5)
    tab = ResponseTable(design=d, responses={"y": rng.normal(size=8)})
    fit = gls_fit(tab, m, ratio=1.0, response="y")
    assert fit.error_df == {WHOLE_PLOT: 3 - 2, SUBPLOT: 8 - 3 - 2}
    q, den = fit.df_overall
    assert q == m.n_parameters - 1
    assert den == fit.error_df[SUBPLOT]
    assert fit.p_overall is not None


def test_no_subplot_error_df_disables_overall_f_and_term_tests():
    m = build_model([define_factor("x", "continuous")], "mains_only")
    d = Design(
        factors=m.factors, whole_plot=(1, 1, 2), settings=np.array([[-1.0], [1.0], [0.0]])
    )
    tab = ResponseTable(design=d, responses={"y": np.array([0.0, 1.1, 0.4])})
    fit = gls_fit(tab, m, ratio=0.5, response="y")
    assert fit.f_overall is None
    with pytest.raises(ValidationError):
        fixed_effect_tests(fit)


def test_residual_report_rows():
    d, m = lopsided_design()
    rng = np.random.default_rng(2)
    tab = ResponseTable(design=d, responses={"y": rng.normal(size=8)})
    fit = gls_fit(tab, m, ratio=1.0, response="y")
    rows = residual_report(fit)
    assert [r[0] for r in rows] == list(range(1, 9))
    assert [r[1] for r in rows] == [1, 1, 1, 2, 2, 2, 3, 3]
    for _, _, observed, fitted, resid in rows:
        assert resid == pytest.approx(observed - fitted, abs=1e-12)


# ---------------------------------------------------------------- inputs


def test_response_table_validation():
    d, m = intercept_only_design((1, 1, 2, 2))
    with pytest.raises(ValidationError):
        ResponseTable(design=d, responses={})
    with pytest.raises(ValidationError):
        ResponseTable(design=d, responses={"y": np.zeros(3)})
    with pytest.raises(ValidationError):
        ResponseTable(design=d, responses={"y": np.array([1.0, np.nan, 0.0, 0.0])})
    with pytest.raises(ValidationError):
        ResponseTable(design=d, responses={"y:bad": np.zeros(4)})
    tab = ResponseTable(design=d, responses={"y": np.zeros(4), "z": np.ones(4)})
    assert tab.names == ("y", "z")
    with pytest.raises(ValueError):
        tab.responses["y"][0] = 5.0  # stored columns are read-only


def test_response_selection_rules():
    d, m = intercept_only_design((1, 1, 2, 2))
    tab = ResponseTable(
        design=d, responses={"y": np.array([0.0, 2.0, 4.0, 6.0]), "z": np.ones(4)}
    )
    with pytest.raises(ValidationError):
        reml_fit(tab, m)  # ambiguous, two responses
    with pytest.raises(ValidationError):
        reml_fit(tab, m, response="nope")
    single = ResponseTable(design=d, responses={"y": np.array([0.0, 2.0, 4.0, 6.0])})
    fit = reml_fit(single, m)
    assert fit.response == "y"
