"""Variance-component estimation, GLS fits and the per-term F tests."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import f as f_dist

from splitplot import (
    Design,
    NumericalError,
    ResponseTable,
    ResponseTruth,
    SUBPLOT,
    TruthConfig,
    ValidationError,
    WHOLE_PLOT,
    boomerang_model,
    build_model,
    default_truth,
    define_factor,
    expand_model_matrix,
    fixed_effect_tests,
    gls_fit,
    reml_fit,
    reml_objective,
    residual_report,
    simulate,
)
from splitplot.tails import f_sf


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


def test_gls_fit_refuses_an_exactly_rank_deficient_model():
    """A 3-level factor that never takes its first level has effect-coded columns
    with c2 = 1 + 2 c1; slogdet of X' V^{-1} X can still come out positive from
    rounding, so the rank of X itself is what has to be checked."""
    m = build_model(
        [
            define_factor("h", "categorical", levels=["a", "b"], hard_to_change=True),
            define_factor("g", "categorical", levels=["p", "q", "r"], hard_to_change=True),
        ],
        "mains_only",
    )
    whole_plot = (1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4)
    a = np.asarray(whole_plot) - 1
    settings = np.column_stack([
        np.array([0.0, 1.0, 1.0, 1.0])[a],  # h per plot
        np.array([1.0, 1.0, 2.0, 2.0])[a],  # g per plot, never at its first level
    ])
    d = Design(factors=m.factors, whole_plot=whole_plot, settings=settings)
    y = np.array([0.9, 0.4, -0.5, 0.6, 0.4, 0.3, 0.0, 0.5, -0.7, -0.2, -0.5])
    tab = ResponseTable(design=d, responses={"y": y})
    for ratio in (0.0, 1.0, 7.5):
        with pytest.raises(NumericalError, match="rank deficient"):
            gls_fit(tab, m, ratio=ratio, response="y")
    with pytest.raises(NumericalError, match="rank deficient"):
        reml_fit(tab, m, response="y")
    with pytest.raises(NumericalError, match="rank deficient"):
        reml_objective(1.0, expand_model_matrix(d, m), y, d.layout)


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


@pytest.mark.parametrize(
    "sigma_epsilon, seed, at_cap",
    [
        (1e-5, 0, True),  # true ratio about 1e10: REML stops at its cap, 1e8
        (1e-2, 0, False),  # ratio about 4e6, inside the grid
        (3e-3, 4, False),  # the grid minimum is its last point, the optimum 25 % below the cap
    ],
)
def test_fit_pinned_to_the_upper_ratio_cap_is_a_boundary_fit(
    tin_design, tin_model, sigma_epsilon, seed, at_cap
):
    y1 = dataclasses.replace(default_truth().responses["y1"], sigma_epsilon=sigma_epsilon)
    tab = simulate(tin_design, TruthConfig(responses={"y1": y1}, seed=seed))
    fit = reml_fit(tab, tin_model, response="y1")
    assert fit.boundary is at_cap
    if at_cap:
        assert fit.ratio == pytest.approx(1e8, rel=1e-4)
    else:
        assert fit.ratio < 0.8e8


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


def one_run_plot_design():
    """25 runs in 6 plots on the tin model: four plots of 5, one of 4, one of 1."""
    m = boomerang_model()
    whole_plot = np.repeat(np.arange(1, 7), [5, 5, 5, 5, 4, 1])
    rng = np.random.default_rng(25)
    settings = np.column_stack([
        (whole_plot + 1) % 2,  # nut_weight, hard to change: one level per plot
        rng.choice([-1.0, 1.0], size=25),  # tension
        rng.integers(0, 2, size=25),  # twist
        rng.choice([-1.0, 1.0], size=25),  # ramp_height
    ])
    d = Design(factors=m.factors, whole_plot=tuple(int(i) for i in whole_plot), settings=settings)
    return d, m


def repeated_tin_design(tin_design, copies):
    """The tin design's plots repeated copies times: 24 * copies runs in 6 * copies plots."""
    a = np.asarray(tin_design.whole_plot)
    whole_plot = np.concatenate([a + 6 * c for c in range(copies)])
    return Design(
        factors=tin_design.factors,
        whole_plot=tuple(int(i) for i in whole_plot),
        settings=np.tile(tin_design.settings, (copies, 1)),
    )


def _pinned_fits(case, tin_design, tin_model):
    y1 = default_truth().responses["y1"]
    if case == "tin":
        truth = TruthConfig(responses={"y1": y1})
        for k in range(100):
            yield reml_fit(simulate(tin_design, truth, seed=(7, k)), tin_model)
    elif case == "one-run plot":
        d, m = one_run_plot_design()
        truth = TruthConfig(responses={"y1": y1})
        for k in range(20):
            yield reml_fit(simulate(d, truth, seed=(7, k)), m)
    elif case == "cap":
        capped = dataclasses.replace(y1, sigma_epsilon=1e-5)
        yield reml_fit(simulate(tin_design, TruthConfig(responses={"y1": capped})), tin_model)
    elif case == "zero boundary":
        d, m = lopsided_design()
        truth = TruthConfig(responses={"y": ResponseTruth(
            intercept=10.0, coefficients={"a": 2.0, "b": 1.0}, sigma_gamma=0.0, sigma_epsilon=1.0,
        )})
        yield reml_fit(simulate(d, truth, seed=(50, 0)), m)
    elif case == "large layout":
        d = repeated_tin_design(tin_design, 82)  # 1 968 runs: 3 ratios per 2**16-cell pass
        truth = TruthConfig(responses={"y1": y1})
        for k in range(3):
            yield reml_fit(simulate(d, truth, seed=(9, k)), tin_model)
    else:
        tab = simulate(tin_design, TruthConfig(responses={"y1": y1}), seed=(7, 0))
        for ratio in (0.0, 1.0, 7.5):
            yield gls_fit(tab, tin_model, ratio=ratio)


# sha256 over repr(ratio), repr(objective), boundary and the beta and cov_beta bytes
# of each fit, recorded with the golden-section fit that solved V^{-1} X afresh at
# every evaluation and refitted at the chosen ratio ("large layout", whose grid now
# runs in several unequal passes, with the fit that scored one ratio at a time);
# fits must reproduce them exactly
PINNED_FITS = {
    "tin": "eadd0e33f7f6e79216c00993253514661cebd6cfc53a47397270be645b43d209",
    "one-run plot": "0e744b98cec5d971dab815bebe698213f5c2f92260c1a21be3751a2d26c0d84d",
    "cap": "bd047fa590faffcdef796e36dc1edd4f07c59daa6e8c38ab0b28d350962dfb59",
    "zero boundary": "a939619d1b11125381d20504e1a6fa5bb077fec60eedd0ec4cd44aa7d0b40395",
    "gls": "d4864e2317836f3fe2471baef1aa2a594f466ebb280569ded13f94ee3b93e230",
    "large layout": "6f5d82830ca9ea3af78f1b42fd2e54acb2835414acec5eead6d6faae7c1389ef",
}


@pytest.mark.parametrize("case", list(PINNED_FITS))
def test_reml_fits_match_their_recorded_digests(tin_design, tin_model, case):
    digest = hashlib.sha256()
    for fit in _pinned_fits(case, tin_design, tin_model):
        digest.update(f"{fit.ratio!r} {fit.objective!r} {fit.boundary}".encode())
        digest.update(fit.beta.tobytes())
        digest.update(fit.cov_beta.tobytes())
    assert digest.hexdigest() == PINNED_FITS[case]


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
    assert fit.p_overall == pytest.approx(f_dist.sf(fit.f_overall, q, den), rel=1e-12, abs=0)
    for test in fixed_effect_tests(fit):
        expected = f_dist.sf(test.f_stat, test.df_num, test.df_den)
        assert test.p_value == pytest.approx(expected, rel=1e-12, abs=0)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, -0.0, -1e-300, math.nan, math.inf])),
    st.integers(1, 50),
    st.integers(1, 10_000),
)
@example(1.5804010189250162, 5, 8480)  # x near the continued fraction's switch point
@example(878815.5075774473, 21, 43)
@example(3.0, 1, 9)
def test_f_p_value_matches_mpmath(stat, df_num, df_den):
    """I_x(df_den / 2, df_num / 2) at x = df_den / (df_den + df_num stat), to 40 digits."""
    mp = pytest.importorskip("mpmath")
    p = f_sf(stat, df_num, df_den)
    assert type(p) is float
    if math.isnan(stat):
        assert math.isnan(p)
        return
    if stat <= 0 or stat == math.inf:
        assert p == (1.0 if stat <= 0 else 0.0)
        return
    with mp.workdps(40):
        x = mp.mpf(df_den) / (df_den + df_num * mp.mpf(stat))
        expected = mp.betainc(mp.mpf(df_den) / 2, mp.mpf(df_num) / 2, 0, x, regularized=True)
    if expected >= mp.mpf("1e-300"):
        assert p == pytest.approx(float(expected), rel=1e-12, abs=0)


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
