"""Variance-component estimation, GLS fits and the per-term F tests."""

import dataclasses
import hashlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import f as f_dist
from test_covariance import layouts

from splitplot import (
    Design,
    ModelSpec,
    ModelTerm,
    NumericalError,
    ResponseTable,
    ResponseTruth,
    SUBPLOT,
    TruthConfig,
    ValidationError,
    WHOLE_PLOT,
    WholePlotLayout,
    boomerang_model,
    build_model,
    column_labels,
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
from splitplot import inference
from splitplot.inference import _wald_f
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


@st.composite
def orthogonal_cases(draw):
    """An equal-plot design on which GLS is OLS at every ratio, with its mains-only model
    of continuous factors: whole-plot columns are constant within plots, subplot columns
    sum to zero within every plot, and both levels keep at least one error df.  The plot
    count, the plot size and which factors are whole-plot are drawn."""
    hard = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    n_plots = draw(st.integers(2 + sum(hard), 8))
    size = draw(st.integers(2, 6))
    assume(n_plots * (size - 1) > len(hard) - sum(hard))
    m = build_model([define_factor(f"f{j}", "continuous", hard_to_change=h)
                     for j, h in enumerate(hard)], "mains_only")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plots = np.repeat(np.arange(n_plots), size)
    settings = np.empty((n_plots * size, len(hard)))
    for j, h in enumerate(hard):
        if h:
            settings[:, j] = rng.uniform(-1.0, 1.0, n_plots)[plots]
        else:
            col = rng.uniform(-0.5, 0.5, (n_plots, size))
            settings[:, j] = (col - col.mean(axis=1, keepdims=True)).ravel()
    return Design(factors=m.factors, whole_plot=tuple((plots + 1).tolist()),
                  settings=settings), m


@settings(max_examples=150, deadline=None)
@given(orthogonal_cases(), st.sampled_from([0.0, 0.3, 1.0, 3.0]), st.integers(0, 2**32 - 1))
def test_reml_on_an_orthogonal_design_is_the_truncated_stratum_anova(case, sigma_gamma, seed):
    """Where GLS is OLS at every ratio, REML is the stratum ANOVA truncated at zero:
    eta = max(0, (MS_wp / MS_sp - 1) / m) for plots of m runs, within 1e-5 relative
    plus 1e-6 absolute; the zero boundary exactly where MS_wp <= MS_sp; beta the OLS coefficients; and in
    the interior each whole-plot term's Wald F is MS_term / MS_wp, the term's extra sum
    of squares in the whole-plot stratum over that stratum's mean square."""
    d, m = case
    layout, n = d.layout, d.n_runs
    size = int(layout.sizes[0])
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n) + sigma_gamma * rng.normal(size=layout.n_plots)[layout.zero_based]
    fit = reml_fit(ResponseTable(design=d, responses={"y": y}), m, response="y")

    x = expand_model_matrix(d, m)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    e = y - x @ beta
    plot_mean = np.bincount(layout.zero_based, weights=e) / size
    df = m.error_df(n, layout.n_plots)
    ms_wp = size * float(plot_mean @ plot_mean) / df[WHOLE_PLOT]
    ms_sp = float(np.sum((e - plot_mean[layout.zero_based]) ** 2)) / df[SUBPLOT]
    assert fit.beta == pytest.approx(beta, rel=1e-9, abs=1e-9 * float(np.abs(y).max()))
    assert (fit.search.boundary == "zero") == (ms_wp <= ms_sp)
    if ms_wp <= ms_sp:
        assert fit.ratio == 0.0
        return
    # near zero the objective is flat to rounding across about 1e-7 of eta: over 600 fits
    # whose closed form lay in [1e-7, 1e-2], the fitted eta was off by at most 1.6e-7
    assert fit.ratio == pytest.approx((ms_wp / ms_sp - 1.0) / size, rel=1e-5, abs=1e-6)
    whole = [j for term, cols in zip(m.terms, m.term_columns) if term.level == WHOLE_PLOT
             for j in range(cols.start, cols.stop)]
    whole = [0, *whole]  # the intercept is a whole-plot column
    xw_inv = np.linalg.inv(x[:, whole].T @ x[:, whole])
    for test in fixed_effect_tests(fit):
        if test.level == WHOLE_PLOT:
            col = whole.index(m.term_columns[[t.label for t in m.terms].index(test.label)].start)
            ms_term = beta[whole[col]] ** 2 / xw_inv[col, col]
            assert test.f_stat == pytest.approx(ms_term / ms_wp, rel=1e-5)


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
    """A bad ratio, no residual df, and an x or y that does not fit the layout or is not
    finite raise ValidationError, not a nan objective or a raw numpy error."""
    d, m = intercept_only_design((1, 1, 2, 2))
    x = expand_model_matrix(d, m)
    y = np.array([0.0, 2.0, 4.0, 6.0])
    with pytest.raises(ValidationError):
        reml_objective(-1.0, x, y, d.layout)
    with pytest.raises(ValidationError):
        reml_objective(1.0, np.ones((2, 2)), np.zeros(2), d.layout)
    six = intercept_only_design((1, 1, 2, 2, 3, 3))[0].layout
    for bad_x, bad_y, layout in [
        (x, np.array([0.0, np.nan, 4.0, 6.0]), d.layout),
        (np.ones((6, 1)), np.ones(5), six),
        (np.ones((7, 1)), np.ones(6), six),
        (np.ones((6, 1)), np.ones((6, 1)), six),
        (np.ones(6), np.ones(6), six),
    ]:
        with pytest.raises(ValidationError):
            reml_objective(1.0, bad_x, bad_y, layout)


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


def _flat_designs():
    """Designs on which the restricted likelihood cannot depend on eta, with the tin
    mains-only model: (design, whole-plot error df, subplot error df)."""
    m = boomerang_model("mains_only")
    full = np.array([[n, t, w, r] for n in (0, 1) for t in (-1, 1) for w in (0, 1)
                     for r in (-1, 1)], dtype=float)
    rng = np.random.default_rng(2)
    halves = np.column_stack([np.repeat([0.0, 1.0], 12), rng.choice([-1.0, 1.0], size=24),
                              rng.integers(0, 2, size=24), rng.choice([-1.0, 1.0], size=24)])
    pairs = np.array([[0, -1, 0, -1], [0, 1, 0, -1], [1, -1, 0, 1], [1, -1, 1, 1],
                      [0, 1, 1, -1], [0, 1, 1, 1]], dtype=float)
    return m, [
        (Design(factors=m.factors, whole_plot=tuple(range(1, 17)), settings=full), 14, -3),
        (Design(factors=m.factors, whole_plot=(1,) * 12 + (2,) * 12, settings=halves), 0, 19),
        (Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 3, 3), settings=pairs), 1, 0),
    ]


def test_reml_refuses_a_design_whose_likelihood_cannot_depend_on_the_ratio():
    """With one-run plots (16 runs), as many plots as whole-plot model df (24 runs in a
    light and a heavy plot) or no subplot error df (three plots of two runs), the fixed
    effects absorb a whole stratum and the restricted likelihood is flat in eta, so a
    REML ratio would be picked by rounding.  reml_fit refuses each design, naming both
    error dfs; gls_fit at an assumed ratio still fits."""
    m, designs = _flat_designs()
    for d, wp, sp in designs:
        x = expand_model_matrix(d, m)
        for seed in range(4):
            tab = simulate(d, default_truth(), seed=seed)
            y = tab.responses["y1"]
            objective = [reml_objective(eta, x, y, d.layout) for eta in (0.0, 0.1, 1.0, 100.0)]
            assert max(objective) - min(objective) <= 1e-9
            with pytest.raises(ValidationError,
                               match=f"leaves {wp} whole-plot and {sp} subplot error df"):
                reml_fit(tab, m, response="y1")
            fit = gls_fit(tab, m, ratio=1.0, response="y1")
            assert fit.method == "gls" and np.isfinite(fit.cov_beta).all()


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
    elif case == "one ratio per pass":
        # 6 000 runs, n p = 66 000 > 2**16 cells, in a shuffled order: no plot is contiguous
        d = repeated_tin_design(tin_design, 250)
        order = np.random.default_rng(250).permutation(d.n_runs)
        d = Design(
            factors=d.factors,
            whole_plot=tuple(d.whole_plot[i] for i in order),
            settings=d.settings[order],
        )
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
# runs in several unequal passes, with the fit that scored one ratio at a time;
# "one ratio per pass" with the kernel that gathered Z'X to runs before scaling it);
# fits must reproduce them exactly
PINNED_FITS = {
    "tin": "eadd0e33f7f6e79216c00993253514661cebd6cfc53a47397270be645b43d209",
    "one-run plot": "0e744b98cec5d971dab815bebe698213f5c2f92260c1a21be3751a2d26c0d84d",
    "cap": "bd047fa590faffcdef796e36dc1edd4f07c59daa6e8c38ab0b28d350962dfb59",
    "zero boundary": "a939619d1b11125381d20504e1a6fa5bb077fec60eedd0ec4cd44aa7d0b40395",
    "gls": "d4864e2317836f3fe2471baef1aa2a594f466ebb280569ded13f94ee3b93e230",
    "large layout": "6f5d82830ca9ea3af78f1b42fd2e54acb2835414acec5eead6d6faae7c1389ef",
    "one ratio per pass": "e1bb93817e7809deb529373c714983c24138db63d9c42f5e34da5be014869f09",
}


@pytest.mark.parametrize("case", list(PINNED_FITS))
def test_reml_fits_match_their_recorded_digests(tin_design, tin_model, case):
    digest = hashlib.sha256()
    for fit in _pinned_fits(case, tin_design, tin_model):
        digest.update(f"{fit.ratio!r} {fit.objective!r} {fit.boundary}".encode())
        digest.update(fit.beta.tobytes())
        digest.update(fit.cov_beta.tobytes())
    assert digest.hexdigest() == PINNED_FITS[case]


# sha256 over repr((r2, rmse, f_overall, df_overall, p_overall)) of each fit, recorded
# with the fits that formed r2 and the overall F when they were made; the summaries read
# now must reproduce them exactly
PINNED_SUMMARIES = {
    "tin": "ff5596b90ee72c7600eb462df6339f1042e76946fb17e189abf747db485c70d5",
    "one-run plot": "d2d85344d7ba1761eab54b294869f761c80b93fb0a40e9b21dbf46a32af2671d",
    "gls": "2a6b862edc72446183049570f9d6fee60c14cd210e5c739625a677d42865efa5",
    "large layout": "d37880a5dfd9c39fcc9afcae7667dfe57a22d5af8c913d839820c2b055aa3206",
}


@pytest.mark.parametrize("case", list(PINNED_SUMMARIES))
def test_fit_summaries_match_their_recorded_digests(tin_design, tin_model, case):
    digest = hashlib.sha256()
    for fit in _pinned_fits(case, tin_design, tin_model):
        summary = (fit.r2, fit.rmse, fit.f_overall, fit.df_overall, fit.p_overall)
        digest.update(repr(summary).encode())
    assert digest.hexdigest() == PINNED_SUMMARIES[case]


def _stratum_terms(x, y, plots):
    """The split-plot stratum form of x and y at 40 digits: with B = [X y], W its
    cross-products centered by plot means, and H_d = sum_{m_i = d} s_i s_i' / d over the
    plot sums s_i of B, returns W, H_d and the count n_d of plots of d runs, so that
    A = B' V^{-1} B = W + sum_d c_d H_d with c_d = 1 / (1 + d eta)."""
    mp = pytest.importorskip("mpmath")
    p = x.shape[1]
    with mp.workdps(40):
        rows = [[mp.mpf(v) for v in row] for row in np.column_stack([x, y]).tolist()]
        sums, sizes = {}, {}
        for plot, row in zip(plots.tolist(), rows):
            sums[plot] = [a + b for a, b in zip(sums.get(plot, [0] * (p + 1)), row)]
            sizes[plot] = sizes.get(plot, 0) + 1
        w = mp.zeros(p + 1, p + 1)
        for plot, row in zip(plots.tolist(), rows):
            centered = mp.matrix([v - s / sizes[plot] for v, s in zip(row, sums[plot])])
            w += centered * centered.T
        h, counts = {}, {}
        for plot, s in sums.items():
            d = sizes[plot]
            h[d] = h.get(d, mp.zeros(p + 1, p + 1)) + mp.matrix(s) * mp.matrix(s).T / d
            counts[d] = counts.get(d, 0) + 1
    return w, h, counts


def _reml_score(fit):
    """eta -> d obj / d eta for fit's data at 40 digits, from the stratum form A of
    _stratum_terms: obj' = sum_d n_d d c_d + tr(A_xx^-1 A'_xx) + (n - p) r' A' r / y'P y,
    where A' = -sum_d d c_d^2 H_d, r = [-beta; 1] and n_d plots have d runs."""
    mp = pytest.importorskip("mpmath")
    n, p = fit.x.shape
    w, h, counts = _stratum_terms(fit.x, fit.y, fit.layout.zero_based)

    def score(eta):
        with mp.workdps(40):
            eta = mp.mpf(eta)
            c = {d: 1 / (1 + d * eta) for d in h}
            a = w + sum((c[d] * h[d] for d in h), mp.zeros(p + 1, p + 1))
            da = -sum((d * c[d] ** 2 * h[d] for d in h), mp.zeros(p + 1, p + 1))
            axx_inv = mp.inverse(a[:p, :p])
            beta = axx_inv * a[:p, p]
            r = mp.matrix([*(-beta[i] for i in range(p)), 1])
            qform = a[p, p] - sum(a[i, p] * beta[i] for i in range(p))
            trace = mp.fsum(axx_inv[i, j] * da[j, i] for i in range(p) for j in range(p))
            return (sum(counts[d] * d * c[d] for d in h) + trace
                    + (n - p) * (r.T * da * r)[0] / qform)

    return score


def test_reml_ratio_is_the_root_of_the_score(tin_design, tin_model):
    """The first interior fit of the "tin" and "one-run plot" cases sits at a root of the
    REML score, in 40 digits, to 1e-5 relative: golden section stops up to 3.1e-6 from
    it.  The zero-boundary fit's score is not negative at eta = 0, and the cap fit's is
    negative at the cap, so the objective falls toward each boundary."""
    mp = pytest.importorskip("mpmath")
    for case in ("tin", "one-run plot"):
        fit = next(_pinned_fits(case, tin_design, tin_model))
        assert not fit.boundary
        score = _reml_score(fit)
        lo, hi = fit.ratio * (1 - 1e-4), fit.ratio * (1 + 1e-4)
        assert score(lo) < 0 < score(hi)
        with mp.workdps(40):
            root = mp.findroot(score, (lo, hi), solver="anderson", tol=mp.mpf(10) ** -30)
        assert abs(fit.ratio - float(root)) <= 1e-5 * float(root)
    (zero,) = _pinned_fits("zero boundary", tin_design, tin_model)
    assert zero.ratio == 0.0 and _reml_score(zero)(0) >= 0
    (cap,) = _pinned_fits("cap", tin_design, tin_model)
    assert cap.search.boundary == "cap" and _reml_score(cap)(math.exp(inference.LOG_ETA_HIGH)) < 0


def _fit_digest(fits):
    digest = hashlib.sha256()
    for fit in fits:
        digest.update(f"{fit.ratio!r} {fit.objective!r} {fit.boundary}".encode())
        digest.update(fit.beta.tobytes())
        digest.update(fit.cov_beta.tobytes())
    return digest.hexdigest()


def _refuses(tab, m, response=None):
    """Whether tab's design leaves m fewer than 1 error df at either level, having
    checked that reml_fit refuses it there."""
    layout = tab.design.layout
    if min(m.error_df(layout.n_runs, layout.n_plots).values()) >= 1:
        return False
    with pytest.raises(ValidationError, match="error df at both levels"):
        reml_fit(tab, m, response=response)
    return True


@settings(max_examples=40, deadline=None)
@given(
    layouts(extra_runs=3),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.3, 3.0, 1e5]),
    st.integers(0, 2**32 - 1),
)
def test_reml_fit_is_the_same_at_every_lookahead_depth(layout, p, plot_scale, seed):
    """Golden section scoring up to 1, 3, 7 or 15 points per pass, on its predicted
    path, walks to the same ratio and reports the same fit bit for bit, on layouts
    with one-run plots and on data that pin the ratio at zero, inside the grid or at
    its cap."""
    n = layout.n_runs
    assume(n > p)
    factors = [define_factor(f"u{j}", "continuous") for j in range(max(p - 1, 1))]
    m = build_model(factors, "mains_only" if p > 1 else [])
    rng = np.random.default_rng(seed)
    d = Design(factors=m.factors, whole_plot=layout.assignment,
               settings=rng.uniform(-1.0, 1.0, size=(n, len(m.factors))))
    y = rng.normal(size=n) + plot_scale * rng.normal(size=layout.n_plots)[layout.zero_based]
    tab = ResponseTable(design=d, responses={"y": y})
    if _refuses(tab, m):
        return
    digests = set()
    for points in (1, 3, 7, 15):  # each fits one pass: these layouts have 50 ratios per pass
        with mock.patch.object(inference, "_PATH_POINTS", points):
            digests.add(_fit_digest([reml_fit(tab, m, response="y")]))
    assert len(digests) == 1


def _one_point_golden_section(fun, lo, hi, tol):
    """Golden section scoring one point per step: the reference for the lookahead."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def _misleading_seeds(lo, width, side):
    """Three seeds far below any score, whose parabola's vertex lies a bracket's width
    beyond `side` (-1 left, +1 right) of [lo, lo + width]: every prediction points there."""
    centre = lo + width / 2.0 + side * 1.5 * width
    return [(-1e6, centre - width / 4.0), (-2e6, centre), (-1e6, centre + width / 4.0)]


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-20.0, 20.0),
    st.sampled_from([2e-8, 1e-7, 1e-3, 0.77, 1.54]),
    st.floats(-0.5, 1.5),
    st.sampled_from([1.0, 0.05, 20.0]),
    st.integers(1, 40),
    st.one_of(
        st.lists(st.tuples(st.floats(-1e6, 1e3), st.floats(-2.0, 3.0)), min_size=3, max_size=4),
        st.sampled_from([-1, 1]),
    ),
    st.sampled_from([None, 0.0, 0.01]),
)
@example(lo=0.0, width=1.54, where=1.5, skew=1.0, budget=7, seeds=-1, margin=None)
@example(lo=0.0, width=1.54, where=-0.5, skew=20.0, budget=7, seeds=1, margin=None)
# a bracket done a few steps in, with the first seed inside it
@example(lo=0.0, width=1e-07, where=0.5625, skew=1.0, budget=4,
         seeds=[(0.0, 0.71875), (1.0, 0.5), (2.0, 0.0)], margin=None)
def test_lookahead_golden_section_walks_the_one_point_search(lo, width, where, skew, budget, seeds,
                                                            margin):
    """Any point budget, brackets that end a few steps in (a done step ends the
    path), V-shaped and lopsided targets, and seeds that mislead the parabola (an
    int seeds side puts its vertex past that end of the bracket, so every
    prediction is wrong where the target lies past the other end) return the
    one-point search's midpoint bit for bit and the score of that midpoint.  So does
    a walk whose first steps a screen with the given margin decides, up to the first
    comparison it cannot decide (a margin of 0 decides every step but the last);
    without a screen it decides none.  The first exact pass scores golden section's
    pair and, with a budget over one point, the path the seeds' parabola predicts and
    the first seed's point; the walk reads every point scored already, so no later
    pass opens with one, and each holds at most the budget."""
    hi = lo + width
    target = lo + where * width
    if isinstance(seeds, int):
        seeds = _misleading_seeds(lo, width, seeds)
    else:
        seeds = [(value, lo + at * width) for value, at in seeds]
    calls = []

    def fun(t):
        return (t - target) * (skew if t > target else -1.0)

    def score(points):
        assert points[0] not in {t for call in calls for t in call}
        calls.append(points)
        return [SimpleNamespace(objective=fun(t)) for t in points]

    screen = None if margin is None else lambda ts: [(fun(t), margin) for t in ts]
    t_star, at_star, decided = inference._golden_section(
        score, lo, hi, 1e-8, budget, seeds, screen
    )
    assert t_star == _one_point_golden_section(fun, lo, hi, 1e-8)
    assert at_star.objective == fun(t_star)
    first, *later = calls
    if budget > 1:
        assert 4 <= len(first) <= budget + 3 and first[-1] == seeds[0][1]
    else:
        assert len(first) == 2
    assert all(len(call) <= budget for call in later)
    if screen is None:
        assert decided == 0


def test_lookahead_pass_counts(tin_design, tin_model):
    """Every evaluator pass forms its own X' V^{-1} X and makes one slogdet call over
    its ratios; the design's first fit also makes the grid's passes, once per design.
    A fit's search record counts every exact pass and ratio after its grid screen.

    The tin fit scores up to 7 points per pass: the grid with eta = 0 for the memo,
    then golden section's first pass of 10 ratios (its first pair, the 7 points of
    the path the screened objective at three grid ratios predicts, and the grid
    argmin, the screen's lone candidate) and 8 passes on the predicted path, the
    last three cut short where the bracket is done; the screen rules out eta = 0.
    That is 9 passes after the grid screen, against 44 when golden section scored
    one point per pass.  The 1 968-run layout, whose passes hold 3 ratios, keeps one
    point per pass, the one-point search, whose 40 comparisons the screen decides
    first where it can.
    There the screen leaves one grid candidate, the grid argmin, and rules out
    eta = 0, so neither is scored exactly: the 50 grid ratios and 24 golden-section
    ratios on the first fit, then 24 and 23 golden-section ratios on the later fits
    on the same design, whose grid terms come from the design's memo, against 42
    golden-section ratios per fit without the screen."""
    y1 = default_truth().responses["y1"]
    tab = simulate(tin_design, TruthConfig(responses={"y1": y1}), seed=(7, 0))
    fresh = ResponseTable(design=dataclasses.replace(tin_design), responses=tab.responses)
    with mock.patch.object(inference, "_slogdet", wraps=inference._slogdet) as slogdet:
        fit = reml_fit(fresh, tin_model)
    widths = [call.args[0].shape[0] for call in slogdet.call_args_list]
    assert widths == [50, 10] + [7] * 5 + [6, 4, 2]
    assert (fit.search.passes, fit.search.ratios) == (len(widths) - 1, sum(widths) - 50)
    per_fit = []
    with mock.patch.object(inference, "_slogdet", wraps=inference._slogdet) as slogdet:
        for fit in _pinned_fits("large layout", tin_design, tin_model):
            per_fit.append([call.args[0].shape[0] for call in slogdet.call_args_list])
            slogdet.reset_mock()
            if len(per_fit) > 1:
                assert (fit.search.passes, fit.search.ratios) == (len(per_fit[-1]),
                                                                  sum(per_fit[-1]))
    assert len(per_fit) == 3
    assert sum(map(sum, per_fit)) == 74 + 24 + 23
    # the first fit: the grid and eta = 0 in 16 passes of 3 and one of 2, the golden
    # pair the screen hands over in one pass, then one point per pass
    first, *later = per_fit
    assert first == [3] * 16 + [2] * 2 + [1] * 22
    # later fits: the golden pair the screen hands over, then one point per pass
    assert later == [[2] + [1] * 22, [2] + [1] * 21]


@pytest.mark.parametrize("case, boundary", [("cap", "cap"), ("zero boundary", "zero")])
def test_reml_fit_records_its_search(tin_design, tin_model, case, boundary):
    """GlsFit.search: the grid argmin, the bracket golden section refined, its passes
    and ratios, why the fit is a boundary fit, how many of the 50 grid ratios the
    screen left to the exact evaluator and how many golden-section comparisons it
    decided; a gls_fit has none."""
    (fit,) = _pinned_fits(case, tin_design, tin_model)
    k, (lo, hi), passes, ratios, reason, exact_grid, certified = fit.search
    ts = inference._GRID_LOG_ETAS
    assert reason == boundary and fit.boundary
    assert k == (len(ts) - 1 if boundary == "cap" else 0)
    assert (lo, hi) == (ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)])
    if boundary == "cap":
        assert lo <= math.log(fit.ratio) <= hi
    else:
        assert fit.ratio == 0.0
    assert 2 <= passes < ratios
    # at the cap the grid's end with a neighbour or two the margin keeps in, and eta = 0
    # ruled out (2 measured); at zero the lone grid argmin and eta = 0, which the screen
    # cannot rule out where it wins (1 measured)
    assert 1 <= exact_grid <= 4
    assert certified == 0  # a tin fit scores 7 points per pass and walks exactly
    interior = next(_pinned_fits("tin", tin_design, tin_model))
    assert interior.search.boundary is None and not interior.boundary
    tab = ResponseTable(design=tin_design, responses={"y1": interior.y})
    assert gls_fit(tab, tin_model, ratio=1.0).search is None


# sha256 over repr(f_stat) and repr(p_value) of each fixed_effect_tests row of the
# "tin" fits, recorded with the Wald F that solved b' C^{-1} b for every term
PINNED_TIN_TESTS = "6ab43844ab8273c6ce47289e2e4c83f8c17757778d53a7f797e6df45af241d81"


def test_tin_wald_tests_match_their_recorded_digest(tin_design, tin_model):
    digest = hashlib.sha256()
    for fit in _pinned_fits("tin", tin_design, tin_model):
        for test in fixed_effect_tests(fit):
            digest.update(f"{test.f_stat!r} {test.p_value!r}".encode())
    assert digest.hexdigest() == PINNED_TIN_TESTS


magnitudes = st.floats(-5.0, 5.0).map(lambda e: 10.0**e)


@settings(max_examples=500, deadline=None)
@given(magnitudes, magnitudes, st.booleans())
@example(3.0, 7.0, False)
def test_one_df_wald_f_rounds_like_the_solve(b, c, negative):
    """The 1-df shortcut b (b / c) is b' C^{-1} b as the LAPACK solve rounds it."""
    b = np.array([-b if negative else b])
    c = np.array([[c]])
    assert _wald_f(b, c, 1).hex() == float(b @ np.linalg.solve(c, b)).hex()


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


# ---------------------------------------------------------------- per-design memo


def _rebuilt(design):
    """A fresh Design with the same settings: an empty memo."""
    return Design(factors=design.factors, whole_plot=design.whole_plot, settings=design.settings)


def _replicate_digest(design_for, model, replicates):
    """sha256 over the simulate, reml_fit, gls_fit and fixed_effect_tests output of
    replicates (7, k) of the default truth, each on the design design_for(k)."""
    digest = hashlib.sha256()
    truth = default_truth()
    for k in range(replicates):
        table = simulate(design_for(k), truth, seed=(7, k))
        for name in table.names:
            digest.update(table.responses[name].tobytes())
        fits = [reml_fit(table, model, response="y1"), gls_fit(table, model, 1.0, "y2")]
        digest.update(_fit_digest(fits).encode())
        for fit in fits:
            digest.update(repr(fit.labels).encode())
            digest.update(fit.fitted.tobytes())
            for test in fixed_effect_tests(fit):
                digest.update(f"{test.f_stat!r} {test.p_value!r}".encode())
    return digest.hexdigest()


def test_replicates_on_one_design_match_replicates_on_fresh_designs(tin_design, tin_model):
    shared = _rebuilt(tin_design)
    once = _replicate_digest(lambda k: shared, tin_model, 200)
    assert tin_model in shared._memo  # the replicates did share the design's terms
    assert once == _replicate_digest(lambda k: _rebuilt(tin_design), tin_model, 200)


def test_each_model_on_a_design_keeps_its_own_terms(tin_design):
    full, mains = boomerang_model(), boomerang_model("mains_only")
    shared = _rebuilt(tin_design)
    table = simulate(shared, default_truth(), seed=(3, 0))
    fits = [reml_fit(table, m, response="y1") for m in (full, mains, full, mains)]
    for fit, m in zip(fits, (full, mains, full, mains)):
        x = shared._memo[m].x
        assert np.array_equal(x, expand_model_matrix(shared, m))
        assert fit.labels == column_labels(m)
        assert fit.beta.shape == (m.n_parameters,)
        fresh = simulate(_rebuilt(tin_design), default_truth(), seed=(3, 0))
        assert _fit_digest([fit]) == _fit_digest([reml_fit(fresh, m, response="y1")])
    assert shared._memo[full].x.shape[1] > shared._memo[mains].x.shape[1]


def test_a_spec_built_from_lists_fits_like_build_model(tin_design):
    """Fits key the design's memo by ModelSpec, so a spec whose fields were given as
    lists must still hash; it fits as the spec build_model makes."""
    built = boomerang_model("mains_only")
    by_hand = ModelSpec(
        factors=[dataclasses.replace(f, levels=list(f.levels)) for f in built.factors],
        terms=[ModelTerm(list(t.factors), t.level, t.df) for t in built.terms],
    )
    assert by_hand == built
    table = simulate(_rebuilt(tin_design), default_truth(), seed=(3, 1))
    assert _fit_digest([reml_fit(table, by_hand, "y1")]) == _fit_digest(
        [reml_fit(simulate(_rebuilt(tin_design), default_truth(), seed=(3, 1)), built, "y1")]
    )


def test_a_failed_check_fails_on_every_call():
    facs = [define_factor("u", "continuous"), define_factor("v", "continuous")]
    m = build_model(facs, "mains_only")
    settings = np.column_stack([np.tile([-1.0, 1.0], 4), np.tile([-1.0, 1.0], 4)])
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 3, 3, 4, 4), settings=settings)
    tab = ResponseTable(design=d, responses={"y": np.arange(8.0)})
    for _ in range(2):
        with pytest.raises(NumericalError, match="rank deficient"):
            reml_fit(tab, m, response="y")
        with pytest.raises(NumericalError, match="rank deficient"):
            gls_fit(tab, m, ratio=1.0, response="y")
    saturated = build_model(facs, "mains_and_all_2fi")
    small = Design(factors=m.factors, whole_plot=(1, 2, 3, 4),
                   settings=[[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    tab = ResponseTable(design=small, responses={"y": np.arange(4.0)})
    for _ in range(2):
        with pytest.raises(ValidationError, match="no residual degrees of freedom"):
            reml_fit(tab, saturated, response="y")
    assert not d._memo and not small._memo


def test_writing_into_an_expanded_model_matrix_changes_no_fit(tin_design, tin_model):
    d = _rebuilt(tin_design)
    table = simulate(d, default_truth(), seed=(5, 0))
    x = expand_model_matrix(d, tin_model)
    x[:] = 0.0  # before the first fit
    first = reml_fit(table, tin_model, response="y1")
    x = expand_model_matrix(d, tin_model)
    assert x.flags.writeable
    x[:] = 0.0  # after it
    again = reml_fit(table, tin_model, response="y1")
    fresh = reml_fit(simulate(_rebuilt(tin_design), default_truth(), seed=(5, 0)),
                     tin_model, response="y1")
    assert _fit_digest([first]) == _fit_digest([again]) == _fit_digest([fresh])
    with pytest.raises(ValueError):
        d._memo[tin_model].x[0, 0] = 1.0  # the memo's arrays are read-only


def _kept_grid(design, model):
    """The grid terms reml_fit keeps on the design's memo part (_DesignPart.strata), or
    None."""
    return vars(design._memo[model]).get("strata")


def _grid_screen(part, y):
    """obj~, its margin and beta~ at the 50 grid ratios, as reml_fit screens them."""
    strata = part.strata
    return inference._screen(strata, strata.screen, strata.response(part, y), float(y @ y),
                             strata.base, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    layouts(extra_runs=3),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.3, 3.0, 1e5]),
    st.sampled_from([0.0, 0.3, 3.0, 1e5]),
    st.integers(0, 2**32 - 1),
)
def test_a_fit_from_the_kept_grid_is_a_fresh_fit(layout, p, fill_scale, plot_scale, seed):
    """Once a fit has kept the grid in the design's memo, a later fit on that design
    reports the fit of a fresh, equal Design byte for byte, on layouts with one-run
    plots and on data that pin the ratio at zero, inside the grid or at its cap."""
    n = layout.n_runs
    assume(n > p)
    factors = [define_factor(f"u{j}", "continuous") for j in range(max(p - 1, 1))]
    m = build_model(factors, "mains_only" if p > 1 else [])
    rng = np.random.default_rng(seed)
    d = Design(factors=m.factors, whole_plot=layout.assignment,
               settings=rng.uniform(-1.0, 1.0, size=(n, len(m.factors))))
    y_fill, y = (rng.normal(size=n) + scale * rng.normal(size=layout.n_plots)[layout.zero_based]
                 for scale in (fill_scale, plot_scale))
    tab = ResponseTable(design=d, responses={"fill": y_fill, "y": y})
    if _refuses(tab, m, "y"):
        return
    reml_fit(tab, m, response="fill")
    kept = _kept_grid(d, m)
    assert kept is not None
    fit = reml_fit(tab, m, response="y")
    assert _kept_grid(d, m) is kept
    fresh = reml_fit(ResponseTable(design=_rebuilt(d), responses={"y": y}), m, response="y")
    assert _fit_digest([fit]) == _fit_digest([fresh])


@pytest.mark.parametrize("case", ["zero boundary", "cap"])
def test_boundary_fits_from_the_kept_grid_are_fresh_fits(tin_design, tin_model, case):
    """The pinned zero-boundary and cap fits, refitted on a design whose memo
    already holds the grid, report the fresh fits byte for byte."""
    (fresh,) = _pinned_fits(case, _rebuilt(tin_design), tin_model)
    d = _rebuilt(tin_design) if case == "cap" else lopsided_design()[0]
    filler = np.random.default_rng(1).normal(size=d.n_runs)
    reml_fit(ResponseTable(design=d, responses={"fill": filler}), fresh.model)
    assert _kept_grid(d, fresh.model) is not None
    fit = reml_fit(ResponseTable(design=d, responses={"y": fresh.y}), fresh.model)
    assert fit.boundary and (fit.ratio == 0.0) == (case == "zero boundary")
    assert _fit_digest([fit]) == _fit_digest([fresh])


def test_a_noise_free_response_raises_after_the_grid_is_kept():
    d, m = lopsided_design()
    rng = np.random.default_rng(3)
    noisy = rng.normal(size=d.n_runs)
    x = expand_model_matrix(d, m)
    flat = x @ np.array([10.0, 2.0, 1.0, 0.5])
    tab = ResponseTable(design=d, responses={"noisy": noisy, "flat": flat})
    first = reml_fit(tab, m, response="noisy")
    kept = _kept_grid(d, m)
    for _ in range(2):
        with pytest.raises(NumericalError, match="zero residual variation"):
            reml_fit(tab, m, response="flat")
    assert _kept_grid(d, m) is kept
    assert _fit_digest([reml_fit(tab, m, response="noisy")]) == _fit_digest([first])


def test_a_grid_that_fails_its_check_is_never_kept():
    """A failed rank check at a grid ratio raises on every call and keeps no grid;
    the next fit whose grid passes keeps it.  A model whose X itself lacks full rank
    keeps nothing at all: test_a_failed_check_fails_on_every_call."""
    d, m = lopsided_design()
    tab = ResponseTable(design=d, responses={"y": np.random.default_rng(4).normal(size=8)})
    slogdet = inference._slogdet

    def one_negative_sign(a):
        sign, ld = slogdet(a)
        sign = sign.copy()
        sign[-1] = -1.0  # eta = 0, the grid's last ratio
        return sign, ld

    for _ in range(2):
        with mock.patch.object(inference, "_slogdet", one_negative_sign):
            with pytest.raises(NumericalError, match="rank deficient"):
                reml_fit(tab, m, response="y")
        assert _kept_grid(d, m) is None
    fit = reml_fit(tab, m, response="y")
    assert _kept_grid(d, m) is not None
    assert _fit_digest([fit]) == _fit_digest([reml_fit(
        ResponseTable(design=_rebuilt(d), responses={"y": tab.responses["y"]}), m)])


# ---------------------------------------------------------------- grid screen


def _screen_case(layout, p, plot_scale, offset, noise, skip, seed):
    """A design with p columns on layout and a response: run noise times noise, plot
    effects times plot_scale and an offset, plus X times random coefficients where
    noise is 0.  skip responses are drawn and dropped first.  With offset 0, noise 1
    and skip 0 (or skip 1) this is the design and response of
    test_reml_fit_is_the_same_at_every_lookahead_depth (of
    test_a_fit_from_the_kept_grid_is_a_fresh_fit) at the same seed."""
    n = layout.n_runs
    factors = [define_factor(f"u{j}", "continuous") for j in range(max(p - 1, 1))]
    m = build_model(factors, "mains_only" if p > 1 else [])
    rng = np.random.default_rng(seed)
    d = Design(factors=m.factors, whole_plot=layout.assignment,
               settings=rng.uniform(-1.0, 1.0, size=(n, len(m.factors))))
    for _ in range(skip + 1):
        y = (noise * rng.normal(size=n)
             + plot_scale * rng.normal(size=layout.n_plots)[layout.zero_based] + offset)
    if noise == 0.0:
        y = y + expand_model_matrix(d, m) @ rng.normal(size=p)
    return d, m, ResponseTable(design=d, responses={"y": y})


# data whose objective is flat in eta near the cap, where a margin of 1e-9 relative
# excludes the grid minimum, and one 4-run plot with p = 3 and a response offset by
# 1e3, where y' P y is a small difference of large stratum sums
_SCREEN_EXAMPLES = [
    dict(layout=WholePlotLayout((1, 1, 2)), p=2, plot_scale=0.0, offset=0.0, noise=1.0,
         skip=0, seed=3),
    dict(layout=WholePlotLayout((1, 2)), p=1, plot_scale=0.3, offset=0.0, noise=1.0,
         skip=0, seed=0),
    dict(layout=WholePlotLayout((1, 2)), p=1, plot_scale=0.3, offset=0.0, noise=1.0,
         skip=1, seed=1),
    dict(layout=WholePlotLayout((1, 1, 1, 1)), p=3, plot_scale=0.0, offset=1e3, noise=1.0,
         skip=0, seed=0),
]


def _with_screen_examples(test):
    for case in reversed(_SCREEN_EXAMPLES):
        test = example(**case)(test)
    return test


_screen_inputs = dict(
    layout=layouts(),
    p=st.integers(1, 3),
    plot_scale=st.sampled_from([0.0, 0.3, 3.0, 1e5]),
    offset=st.sampled_from([0.0, 1e3]),
    noise=st.sampled_from([1.0, 0.0]),
    skip=st.just(0),
    seed=st.integers(0, 2**32 - 1),
)
# the same on layouts that leave at least one error df at both levels for every p,
# so that each drawn example fits; the refusal has its own test
_fitting_inputs = dict(_screen_inputs, layout=layouts(extra_runs=3))


@settings(max_examples=100, deadline=None)
@given(layouts(), st.integers(1, 3), st.sampled_from([0.0, 0.3, 3.0]), st.integers(0, 2**32 - 1))
def test_reml_refuses_exactly_the_designs_without_error_df_at_a_level(layout, p, plot_scale,
                                                                       seed):
    """On the screen tests' layouts, one-run plots and all, reml_fit refuses each design
    that leaves fewer than 1 error df at a level and fits every other one."""
    assume(layout.n_runs > p)
    _, m, tab = _screen_case(layout, p, plot_scale, 0.0, 1.0, 0, seed)
    if not _refuses(tab, m):
        assert reml_fit(tab, m).method == "reml"


@settings(max_examples=150, deadline=None)
@given(**_fitting_inputs)
@_with_screen_examples
def test_the_grid_screen_bounds_the_exact_objective(layout, p, plot_scale, offset, noise,
                                                    skip, seed):
    """At all 50 grid ratios the stratum-sum objective is within an eighth of its margin
    of the exact one, on layouts with one-run and unequal plots, offset and noise-free
    responses, and optima at zero, inside the grid and at its cap.  A response whose
    exact scan hits the noise floor is refused by reml_fit too."""
    assume(layout.n_runs > p)
    d, m, tab = _screen_case(layout, p, plot_scale, offset, noise, skip, seed)
    y = tab.responses["y"]
    _, part, _ = inference._prepare(tab, m, "y")
    objective, margin, _ = _grid_screen(part, y)
    try:
        exact = part.evaluator(y)(inference._GRID_RATIOS)
    except NumericalError:
        if not _refuses(tab, m):  # a design without error df is refused before its grid
            with pytest.raises(NumericalError, match="zero residual variation"):
                reml_fit(tab, m)
        return
    got = np.array([e.objective for e in exact])
    bounded = np.isfinite(margin)
    assert np.all(np.abs(got - objective)[bounded] <= margin[bounded] / 8)


@settings(max_examples=80, deadline=None)
@given(**_fitting_inputs)
@_with_screen_examples
def test_every_fit_equals_the_fit_with_the_screen_off(layout, p, plot_scale, offset, noise,
                                                      skip, seed):
    """With an infinite margin every grid ratio is scored exactly; the screened fit
    reports the same fit byte for byte, or the same error, and the same grid argmin,
    bracket and boundary (its passes and ratios count the grid ratios it scores
    exactly).  With one ratio per pass golden section walks one point per pass, so
    the screen decides what comparisons it can first; that fit too is the one without
    the screen, byte for byte, and the fit at the default width: one path at both."""
    assume(layout.n_runs > p)
    _, m, tab = _screen_case(layout, p, plot_scale, offset, noise, skip, seed)
    if _refuses(tab, m):
        return
    fields = ("grid_argmin", "bracket", "boundary")

    def fit():
        _, m, tab = _screen_case(layout, p, plot_scale, offset, noise, skip, seed)
        try:
            return reml_fit(tab, m)
        except NumericalError as exc:
            return str(exc)

    screened = fit()
    with mock.patch.object(inference, "_SCREEN_SAFETY", math.inf):
        full = fit()
    if isinstance(full, str):
        assert screened == full
    else:
        assert full.search.exact_grid == 50
        assert _fit_digest([screened]) == _fit_digest([full])
        assert [getattr(screened.search, f) for f in fields] == [
            getattr(full.search, f) for f in fields
        ]

    with mock.patch.object(inference, "_PASS_CELLS", layout.n_runs * p):
        walked = fit()
        with mock.patch.object(inference, "_SCREEN_SAFETY", math.inf):
            unwalked = fit()
    if isinstance(unwalked, str):
        assert walked == unwalked
    else:
        assert unwalked.search.certified == 0
        assert _fit_digest([walked]) == _fit_digest([unwalked])
        assert [getattr(walked.search, f) for f in fields] == [
            getattr(unwalked.search, f) for f in fields
        ]
        assert _fit_digest([walked]) == _fit_digest([screened])
        assert [getattr(walked.search, f) for f in fields] == [
            getattr(screened.search, f) for f in fields
        ]


# 6 plots of 4 runs with a plot-effect scale bisected to within 2e-9 of the edge between
# zero-boundary and interior fits: the exact obj(0) ties the walk's final objective, which
# lies 1.4e-14 below obj~(0), against a margin of 2e-11, so only the margin has eta = 0 scored
_ZERO_TIE = dict(layout=WholePlotLayout(tuple(np.repeat(np.arange(1, 7), 4).tolist())), p=3,
                 plot_scale=0.5238315026467493, offset=0.0, noise=1.0, skip=0, seed=0)


@settings(max_examples=80, deadline=None)
@given(**_fitting_inputs)
@example(**_ZERO_TIE)
@_with_screen_examples
def test_eta_zero_is_left_unscored_only_where_it_loses(layout, p, plot_scale, offset, noise,
                                                      skip, seed):
    """At the default width and at one ratio per pass, a fit that leaves eta = 0 unscored
    (its stratum screen puts obj~(0) less its margin above the walk's final objective)
    has an exact objective at eta = 0 above the fit's: the rule never drops a zero that
    would win, or tie.  On _ZERO_TIE the rule without its margin would drop a tie."""
    assume(layout.n_runs > p)
    _, m, tab = _screen_case(layout, p, plot_scale, offset, noise, skip, seed)
    if _refuses(tab, m):
        return
    evaluator = inference._DesignPart.evaluator
    for cells in (inference._PASS_CELLS, layout.n_runs * p):
        _, m, tab = _screen_case(layout, p, plot_scale, offset, noise, skip, seed)  # a fresh memo
        scored = []

        def recording(part, y):  # the fit's evaluator, keeping every ratio it scores
            evaluate = evaluator(part, y)

            def record(etas):
                scored.extend(np.asarray(etas, dtype=float).tolist())
                return evaluate(etas)

            return record

        with mock.patch.object(inference, "_PASS_CELLS", cells), \
                mock.patch.object(inference._DesignPart, "evaluator", recording):
            try:
                fit = reml_fit(tab, m)
            except NumericalError:
                return  # as at the other width: test_every_fit_equals_the_fit_with_the_screen_off
        if 0.0 not in scored:
            assert reml_objective(0.0, fit.x, fit.y, fit.layout) > fit.objective
            assert fit.ratio > 0.0


@settings(max_examples=150, deadline=None)
@given(**_screen_inputs)
@_with_screen_examples
def test_the_walk_screen_bounds_the_exact_objective(layout, p, plot_scale, offset, noise,
                                                    skip, seed):
    """At random ratios inside a random grid bracket, the stratum-sum objective of y
    centered by the exact coefficients at the bracket's grid point is within an eighth
    of its margin of the exact one, on the inputs of the grid screen's test.  A ratio
    with a finite margin passes the exact rank and noise-floor checks.  Where every
    plot has one run the objective is flat in eta, and no comparison is decided."""
    assume(layout.n_runs > p)
    _, m, tab = _screen_case(layout, p, plot_scale, offset, noise, skip, seed)
    y = tab.responses["y"]
    _, part, _ = inference._prepare(tab, m, "y")
    evaluate = part.evaluator(y)
    try:
        exact = evaluate(inference._GRID_RATIOS)
    except NumericalError:
        return  # reml_fit refuses it: test_the_grid_screen_bounds_the_exact_objective
    rng = np.random.default_rng(seed)
    ts = inference._GRID_LOG_ETAS
    k = int(rng.integers(len(ts)))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    screen = inference._walk_screen(part, y, exact[k].beta)
    points = (lo + (hi - lo) * rng.uniform(size=6)).tolist()
    for t, (objective, margin) in zip(points, screen(points)):
        if math.isfinite(margin):
            (got,) = evaluate([math.exp(t)])
            assert abs(got.objective - objective) <= margin / 8
    if set(layout.sizes.tolist()) == {1}:
        walk = inference._golden_section(lambda ts: evaluate([math.exp(t) for t in ts]), lo, hi,
                                         inference.GOLDEN_TOL, 1, [(exact[k].objective, ts[k])],
                                         screen)
        assert walk[2] == 0


def test_the_walk_margin_carries_the_a_entry_term_on_a_large_layout():
    """On 2 000 runs in 500 plots of 4, as on fit-large, the margin's term for the entries
    of A, eps e S^2 (1 + p (e + 6p + 6) eps / lambda)^2 with e = 2 (n + p + 8 + m^1.5)
    and S = sqrt(A_yy) + sum_l |beta~_l| sqrt(A_ll), is more than half the walk's
    margin at each point the walk screens: without it the margin is that much less.
    There |obj - obj~| stays below an eighth of the margin, and at 40 digits the
    entries the screen forms move y' P y by at most that term, as the module docstring
    derives (on the few-dozen-run layouts of the margin tests the other terms alone
    cover the error)."""
    mp = pytest.importorskip("mpmath")
    layout = WholePlotLayout(tuple(np.repeat(np.arange(1, 501), 4).tolist()))
    _, m, tab = _screen_case(layout, 3, 0.3, 0.0, 1.0, 0, 0)
    n, p = layout.n_runs, 3
    walk_screen = inference._walk_screen
    calls, screened = [], []

    def recording(*args):  # the walk's screen, keeping every point it screens
        calls.append(args)
        screen = walk_screen(*args)

        def record(ts):
            pairs = screen(ts)
            screened.extend(zip(ts, pairs))
            return pairs

        return record

    with mock.patch.object(inference, "_PASS_CELLS", n * p), \
            mock.patch.object(inference, "_walk_screen", recording):
        fit = reml_fit(tab, m)
    assert fit.search.certified > 10
    ((part, y, center),) = calls
    ts = [t for t, _ in screened]
    at = inference._Strata.at
    with mock.patch.object(inference._Strata, "at",
                           lambda self, ratios: at(self, ratios)._replace(per_form=0 * ratios)):
        bare = [margin for _, margin in walk_screen(part, y, center)(ts)]

    evaluate = part.evaluator(y)
    strata = part.strata
    yc = y - part.x @ center  # as the walk's screen centers y
    wxy, wyy, hxy, hyy = strata.response(part, yc)
    w, h, _ = _stratum_terms(part.x, yc, layout.zero_based)
    e = 2 * (n + p + 8 + 4 ** 1.5)
    for (t, (objective, margin)), without in zip(screened, bare):
        (got,) = evaluate([math.exp(t)])
        assert abs(got.objective - objective) <= margin / 8
        # A as the screen forms it, and the term for its entries
        shrink = 1.0 / (1.0 + math.exp(t) * strata.sizes)
        axx = strata.wxx + np.tensordot(shrink, strata.between, 1)
        ax, ayy = wxy + shrink @ hxy, wyy + shrink @ hyy
        beta = np.linalg.solve(axx, ax)
        root = np.sqrt(np.diag(axx))
        lam = np.linalg.eigvalsh(axx / np.outer(root, root))[0]
        s = math.sqrt(ayy) + np.abs(beta) @ root
        term = inference._EPS * e * s * s * (1 + p * (e + 6 * p + 6) * inference._EPS / lam) ** 2
        rho = inference._SCREEN_SAFETY * term / (ayy - ax @ beta)
        assert margin - without >= 0.999 * (n - p) * rho and margin - without > margin / 2
        with mp.workdps(40):
            c = {d: 1 / (1 + d * mp.mpf(math.exp(t))) for d in h}
            exact = w + sum((c[d] * h[d] for d in h), mp.zeros(p + 1, p + 1))
            formed = mp.matrix([[*row, a] for row, a in zip(axx.tolist(), ax.tolist())]
                               + [[*ax.tolist(), ayy]])
            q = [a[p, p] - (a[p, :p] * mp.inverse(a[:p, :p]) * a[:p, p])[0]
                 for a in (exact, formed)]
            assert abs(q[1] - q[0]) <= term

@given(**_fitting_inputs)
@_with_screen_examples
def test_one_point_fits_take_from_the_screen_only_what_exact_scores_decide(
        layout, p, plot_scale, offset, noise, skip, seed):
    """Where golden section scores one point per pass (here passes of 3 ratios), a grid
    argmin taken from the screen (a lone candidate) is the exact grid argmin, eta = 0 is
    ruled out only where its exact objective exceeds the walk's final one, and every
    comparison the screen certifies goes the way the exact comparison goes: a replay of
    the walk, with y centered and golden section seeded as reml_fit does (obj~ at the
    grid argmin and its two grid neighbours), certifies as many.  The search record
    counts the exact passes and ratios the fit makes after its grid screen."""
    assume(layout.n_runs > p)
    _, m, tab = _screen_case(layout, p, plot_scale, offset, noise, skip, seed)
    if _refuses(tab, m):
        return
    y = tab.responses["y"]
    with mock.patch.object(inference, "_PASS_CELLS", 3 * layout.n_runs * p):
        _, part, _ = inference._prepare(tab, m, "y")
        try:
            part.strata  # kept before the fit, whose passes alone the slogdet count sees
            with mock.patch.object(inference, "_slogdet", wraps=inference._slogdet) as slogdet:
                fit = reml_fit(tab, m)
        except NumericalError:
            return  # the walk that raises: test_every_fit_equals_the_fit_with_the_screen_off
    widths = [call.args[0].shape[0] for call in slogdet.call_args_list]
    assert (fit.search.passes, fit.search.ratios) == (len(widths), sum(widths))
    evaluate = part.evaluator(y)
    grid_fits = evaluate(inference._GRID_RATIOS)
    exact = [e.objective for e in grid_fits]
    objective, margin, beta = _grid_screen(part, y)
    upper, lower = (objective + margin)[:-1], (objective - margin)[:-1]
    at = np.flatnonzero(lower <= upper.min()).tolist()
    k = exact.index(min(exact[:-1]))  # the first lowest
    assert fit.search.grid_argmin == k
    if len(at) == 1:  # reml_fit centers y by beta~_k
        assert at == [k]
        center = beta[k]
    else:  # by the exact coefficients at k
        center = grid_fits[k].beta
    ts = inference._GRID_LOG_ETAS
    i = min(max(k - 1, 0), len(ts) - 3)  # and seeds the walk with obj~ at k and its neighbours
    seeds = [(float(objective[h]), ts[h]) for h in sorted(range(i, i + 3), key=lambda h: h != k)]

    marks = {}
    walk = inference._walk_screen(part, y, center)

    def screen(points):
        pairs = walk(points)
        marks.update(zip(points, pairs))
        return pairs

    lo, hi = fit.search.bracket
    t_star, star, decided = inference._golden_section(
        lambda ts: evaluate([math.exp(t) for t in ts]), lo, hi, inference.GOLDEN_TOL, 1,
        seeds, screen,
    )
    assert decided == fit.search.certified  # the replay is the fit's own walk
    a, b = lo, hi
    c, d = inference._golden_pair(a, b)
    for _ in range(decided):
        (sc, mc), (sd, md) = marks[c], marks[d]
        fc, fd = (e.objective for e in evaluate([math.exp(c), math.exp(d)]))
        assert abs(sc - sd) > mc + md and (sc < sd) == (fc <= fd)
        a, b, c, d, _ = inference._golden_step(a, b, c, d, fc <= fd, inference.GOLDEN_TOL)

    zero = exact[-1]
    ruled_out = objective[-1] - margin[-1] > star.objective
    if ruled_out:
        assert zero > star.objective
    assert fit.ratio == (0.0 if zero <= star.objective else math.exp(t_star))
    if len(at) == 1 and ruled_out:
        assert fit.search.exact_grid == 0


def test_the_walk_screen_decides_only_one_point_per_pass_walks(tin_design, tin_model):
    """A large fit, which scores one point per pass, has the screen decide about two
    fifths of its 40 golden-section comparisons and scores at most 32 golden-section
    ratios exactly, 42 without the screen; every comparison is decided once, by the
    screen or exactly.  Its search record's ratios also count the exact grid ratios.
    A tin fit, which scores 7 points per pass, walks exactly."""
    for fit in _pinned_fits("one ratio per pass", tin_design, tin_model):
        search = fit.search
        golden = search.ratios - search.exact_grid
        assert search.certified > 0 and golden <= 32
        assert golden + search.certified == 42
    tin = next(_pinned_fits("tin", tin_design, tin_model))
    assert tin.search.certified == 0


def test_the_screen_leaves_few_grid_ratios_to_the_exact_evaluator(tin_design, tin_model):
    """Nearly every tin fit leaves one grid candidate, the grid argmin, which is not
    scored exactly, and most also rule out eta = 0 (76 of 100 score no grid ratio
    exactly, 20 only eta = 0).  Where the objective is nearly flat between the first
    grid ratios, the margin keeps a few candidates, scored in one pass.  On a layout of
    one-run plots V = (1 + eta) I and the objective does not depend on eta; the design
    leaves no subplot error df, and reml_fit refuses it before its grid."""
    searches = [fit.search for fit in _pinned_fits("tin", tin_design, tin_model)]
    assert max(s.exact_grid for s in searches) <= 6
    assert sum(s.exact_grid <= 1 for s in searches) >= 90
    assert sum(s.exact_grid == 0 for s in searches) >= 60
    m = build_model([define_factor("u", "continuous"), define_factor("v", "continuous")],
                    "mains_only")
    rng = np.random.default_rng(6)
    d = Design(factors=m.factors, whole_plot=tuple(range(1, 13)),
               settings=rng.uniform(-1.0, 1.0, size=(12, 2)))
    with pytest.raises(ValidationError, match="leaves 11 whole-plot and -2 subplot error df"):
        reml_fit(ResponseTable(design=d, responses={"y": rng.normal(size=12)}), m)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 50),
    st.sampled_from([24, 25, 96, 800, 1968, 12800]),
    st.floats(-5.0, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_stacked_row_dots_round_like_the_per_row_product(k, n, log_scale, seed):
    """y' P y of every ratio in a pass, taken in one stacked matmul, is the per-row
    resid @ vr bit for bit."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    a = rng.normal(size=(k, n)) * scale
    b = a + rng.normal(size=(k, n)) * scale * rng.uniform(0.0, 1.0)
    got = inference._row_dots(a, b)
    assert [v.hex() for v in got] == [float(a[i] @ b[i]).hex() for i in range(k)]
