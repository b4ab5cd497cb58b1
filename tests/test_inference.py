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


def _fit_digest(fits):
    digest = hashlib.sha256()
    for fit in fits:
        digest.update(f"{fit.ratio!r} {fit.objective!r} {fit.boundary}".encode())
        digest.update(fit.beta.tobytes())
        digest.update(fit.cov_beta.tobytes())
    return digest.hexdigest()


@settings(max_examples=40, deadline=None)
@given(
    layouts(),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.3, 3.0, 1e5]),
    st.integers(0, 2**32 - 1),
)
def test_reml_fit_is_the_same_at_every_lookahead_depth(layout, p, plot_scale, seed):
    """Golden section looking 1, 2, 3 or 4 steps ahead walks to the same ratio and
    reports the same fit bit for bit, on layouts with one-run plots and on data that
    pin the ratio at zero, inside the grid or at its cap."""
    n = layout.n_runs
    assume(n > p)
    factors = [define_factor(f"u{j}", "continuous") for j in range(max(p - 1, 1))]
    m = build_model(factors, "mains_only" if p > 1 else [])
    rng = np.random.default_rng(seed)
    d = Design(factors=m.factors, whole_plot=layout.assignment,
               settings=rng.uniform(-1.0, 1.0, size=(n, len(m.factors))))
    y = rng.normal(size=n) + plot_scale * rng.normal(size=layout.n_plots)[layout.zero_based]
    tab = ResponseTable(design=d, responses={"y": y})
    digests = set()
    for depth in (1, 2, 3, 4):
        # the largest depth whose 2**depth - 1 points fit the cell budget is `depth`
        with mock.patch.object(inference, "_LOOKAHEAD_CELLS", (2**depth - 1) * n * p):
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


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-20.0, 20.0),
    st.sampled_from([2e-8, 1e-7, 1e-3, 0.77, 1.54]),
    st.floats(-0.5, 1.5),
    st.integers(1, 6),
)
def test_lookahead_golden_section_walks_the_one_point_search(lo, width, where, depth):
    """Any depth, and brackets that end a few steps in (a done node high in the tree
    leaves its subtree unscored), return the one-point search's midpoint bit for bit
    and the score of that midpoint."""
    hi = lo + width
    target = lo + where * width

    def score(points):
        return [SimpleNamespace(objective=abs(t - target)) for t in points]

    t_star, at_star = inference._golden_section(score, lo, hi, 1e-8, depth)
    assert t_star == _one_point_golden_section(lambda t: abs(t - target), lo, hi, 1e-8)
    assert at_star.objective == abs(t_star - target)


def test_lookahead_pass_counts(tin_design, tin_model):
    """Every stacked evaluator pass makes one slogdet call over its ratios.

    The tin fit looks 3 steps ahead: the grid with eta = 0, the first golden pair,
    13 passes of 7 points and the midpoint make 16 passes, against 44 when golden
    section scored one point per pass.  The 1 968-run layout keeps depth 1, the
    one-point search: 92 ratios on the first fit, the 93 of that search less the
    point its last step scored and never compared, and 42 on each later fit on the
    same design, whose 50 grid ratios come from the design's memo."""
    y1 = default_truth().responses["y1"]
    tab = simulate(tin_design, TruthConfig(responses={"y1": y1}), seed=(7, 0))
    with mock.patch.object(np.linalg, "slogdet", wraps=np.linalg.slogdet) as slogdet:
        reml_fit(tab, tin_model)
    assert slogdet.call_count <= 16
    per_fit = []
    with mock.patch.object(np.linalg, "slogdet", wraps=np.linalg.slogdet) as slogdet:
        for _ in _pinned_fits("large layout", tin_design, tin_model):
            per_fit.append([call.args[0].shape[0] for call in slogdet.call_args_list])
            slogdet.reset_mock()
    assert len(per_fit) == 3
    assert sum(map(sum, per_fit)) == 92 + 2 * 42
    # the first fit: the grid and eta = 0 in 16 passes of 3 and one of 2, the first
    # golden pair in one pass, then one point per pass
    first, *later = per_fit
    assert set(first) == {1, 2, 3}
    assert first.count(3) == 16
    assert first.count(2) == 2
    # later fits: the first golden pair, then one point per pass
    assert all(widths == [2] + [1] * 40 for widths in later)


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
        x = shared._memo[m][0].x
        assert np.array_equal(x, expand_model_matrix(shared, m))
        assert fit.labels == column_labels(m)
        assert fit.beta.shape == (m.n_parameters,)
        fresh = simulate(_rebuilt(tin_design), default_truth(), seed=(3, 0))
        assert _fit_digest([fit]) == _fit_digest([reml_fit(fresh, m, response="y1")])
    assert shared._memo[full][0].x.shape[1] > shared._memo[mains][0].x.shape[1]


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
        d._memo[tin_model][0].x[0, 0] = 1.0  # the memo's arrays are read-only


def _kept_grid(design, model):
    """The grid passes reml_fit keeps in the design's memo, or None."""
    return design._memo[model][2]


@settings(max_examples=60, deadline=None)
@given(
    layouts(),
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
    slogdet = np.linalg.slogdet

    def one_negative_sign(a):
        sign, ld = slogdet(a)
        sign = sign.copy()
        sign[-1] = -1.0  # eta = 0, the grid's last ratio
        return sign, ld

    for _ in range(2):
        with mock.patch.object(np.linalg, "slogdet", one_negative_sign):
            with pytest.raises(NumericalError, match="rank deficient"):
                reml_fit(tab, m, response="y")
        assert _kept_grid(d, m) is None
    fit = reml_fit(tab, m, response="y")
    assert _kept_grid(d, m) is not None
    assert _fit_digest([fit]) == _fit_digest([reml_fit(
        ResponseTable(design=_rebuilt(d), responses={"y": tab.responses["y"]}), m)])


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
