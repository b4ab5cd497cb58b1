"""Power, collinearity and prediction-variance diagnostics."""

import numpy as np
import pytest
from scipy.stats import t as t_dist

from splitplot import (
    Design,
    NumericalError,
    SUBPLOT,
    ValidationError,
    WHOLE_PLOT,
    build_model,
    define_factor,
    diagnostics,
    power_report,
    prediction_variance,
    term_correlation,
    vif,
)


def easy_pair_design(u_col, v_col):
    facs = [define_factor("u", "continuous"), define_factor("v", "continuous")]
    m = build_model(facs, "mains_only")
    settings = np.column_stack(
        [np.asarray(u_col, dtype=float), np.asarray(v_col, dtype=float)]
    )
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 3, 3, 4, 4), settings=settings)
    return d, m


# ---------------------------------------------------------------- containment


def test_containment_df_on_tin_design(tin_design, tin_model):
    dfs = tin_model.error_df(tin_design.n_runs, tin_design.layout.n_plots)
    assert dfs == {WHOLE_PLOT: 4, SUBPLOT: 9}


# ---------------------------------------------------------------- power


def test_power_at_zero_snr_equals_alpha(tin_design, tin_model):
    rep = power_report(tin_design, tin_model, snr=0.0, alpha=0.05)
    for row in rep.rows:
        assert row.power == pytest.approx(0.05, abs=1e-9)
        assert row.noncentrality == 0.0


def test_power_increases_with_snr(tin_design, tin_model):
    reports = [
        power_report(tin_design, tin_model, snr=s).rows for s in (0.25, 0.5, 1.0, 2.0)
    ]
    for rows in zip(*reports):
        powers = [r.power for r in rows]
        assert powers == sorted(powers)


def test_tin_design_variance_factors(tin_design, tin_model):
    """The optimal 24-run design hits known variance factors per column."""
    rep = power_report(tin_design, tin_model, ratio=1.0, snr=1.0)
    by_label = {r.label: r for r in rep.rows}
    assert by_label["nut_weight"].level == WHOLE_PLOT
    assert by_label["nut_weight"].variance_factor == pytest.approx(5 / 24, abs=1e-9)
    for label in ("tension", "twist", "ramp_height"):
        assert by_label[label].variance_factor == pytest.approx(1 / 24, abs=1e-9)
        assert by_label[label].level == SUBPLOT
    for row in rep.rows:
        if "*" in row.label:
            assert row.variance_factor == pytest.approx(3 / 64, abs=1e-9)
    assert by_label["nut_weight"].error_df == 4
    assert by_label["tension"].error_df == 9


def test_power_matches_independent_monte_carlo():
    """Two-group comparison in one plot at ratio 0 is a classical t test.

    The rejection rate is simulated from scratch with plain normal and
    chi-square draws, no noncentral distributions involved.
    """
    m = build_model(
        [define_factor("g", "categorical", levels=("a", "b"))], "mains_only"
    )
    d = Design(
        factors=m.factors,
        whole_plot=(1,) * 8,
        settings=np.array([[0.0]] * 4 + [[1.0]] * 4),
    )
    snr, alpha = 1.0, 0.05
    rep = power_report(d, m, ratio=0.0, snr=snr, alpha=alpha)
    (row,) = rep.rows
    assert row.error_df == 6
    assert row.variance_factor == pytest.approx(1 / 8, abs=1e-12)

    rng = np.random.default_rng(123)
    n = 200_000
    delta = snr * np.sqrt(8.0)
    t_stat = (rng.normal(delta, 1.0, size=n)) / np.sqrt(rng.chisquare(6, size=n) / 6)
    t_crit = t_dist.ppf(1 - alpha / 2, 6)
    mc = np.mean(np.abs(t_stat) > t_crit)
    assert row.power == pytest.approx(mc, abs=4e-3)


def test_power_report_validation(tin_design, tin_model):
    with pytest.raises(ValidationError):
        power_report(tin_design, tin_model, alpha=0.0)
    with pytest.raises(ValidationError):
        power_report(tin_design, tin_model, alpha=1.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            power_report(tin_design, tin_model, snr=bad)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            power_report(tin_design, tin_model, ratio=bad)


def test_power_report_rejects_design_without_error_df():
    m = build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_and_all_2fi",
    )
    settings = np.array(
        [[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 0.0]]
    )
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 2), settings=settings)
    with pytest.raises(ValidationError):
        power_report(d, m)


def test_power_report_raises_on_singular_information():
    m = build_model(
        [define_factor("u", "continuous"), define_factor("v", "continuous")],
        "mains_only",
    )
    settings = np.column_stack([np.tile([-1.0, 1.0], 4), np.tile([-1.0, 1.0], 4)])
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 3, 3, 4, 4), settings=settings)
    with pytest.raises(NumericalError):
        power_report(d, m)


# ---------------------------------------------------------------- collinearity


def test_orthogonal_columns_have_unit_vif_and_zero_correlation():
    u = [1, 1, 1, 1, -1, -1, -1, -1]
    v = [1, 1, -1, -1, 1, 1, -1, -1]
    d, m = easy_pair_design(u, v)
    labels, corr, aliases = term_correlation(d, m)
    assert labels == ("u", "v")
    assert corr[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert corr[0, 0] == 1.0
    assert aliases == ()
    _, vifs = vif(d, m)
    assert vifs == pytest.approx((1.0, 1.0), abs=1e-12)


def test_correlated_pair_hits_textbook_vif():
    # corr(u, v) = 0.6 by construction, so VIF = 1 / (1 - 0.36) = 1.5625
    u = [1, 1, 1, 1, -1, -1, -1, -1]
    v = [0.7, 0.7, -0.1, -0.1, 0.1, -0.7, 0.1, -0.7]
    d, m = easy_pair_design(u, v)
    _, corr, _ = term_correlation(d, m)
    assert corr[0, 1] == pytest.approx(0.6, abs=1e-12)
    _, vifs = vif(d, m)
    assert vifs == pytest.approx((1.5625, 1.5625), abs=1e-10)


def test_aliased_columns_are_flagged():
    u = [1, 1, -1, -1, 1, 1, -1, -1]
    d, m = easy_pair_design(u, u)
    labels, corr, aliases = term_correlation(d, m)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert aliases == (("u", "v"),)
    _, vifs = vif(d, m)
    assert vifs[0] == float("inf")
    assert vifs[1] == float("inf")


def test_constant_column_reports_nan_not_alias():
    u = [1, 1, -1, -1, 1, 1, -1, -1]
    c = [0.5] * 8
    d, m = easy_pair_design(u, c)
    labels, corr, aliases = term_correlation(d, m)
    assert np.isnan(corr[1, 1])
    assert np.isnan(corr[0, 1])
    assert aliases == ()
    _, vifs = vif(d, m)
    assert np.isnan(vifs[1])
    assert vifs[0] == pytest.approx(1.0)


def test_diagnostics_bundles_consistent_labels(tin_design, tin_model):
    rep = diagnostics(tin_design, tin_model)
    k = len(rep.labels)
    assert rep.correlation.shape == (k, k)
    assert len(rep.vif) == k
    assert "intercept" not in rep.labels


# ---------------------------------------------------------------- prediction


def test_prediction_variance_center_and_hat_identity():
    """At ratio 0 the average prediction variance over the runs is p / n."""
    m = build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_and_all_2fi",
    )
    settings = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]])
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2), settings=settings)
    assert prediction_variance(d, m, [0.0, 0.0], ratio=0.0) == pytest.approx(0.25, abs=1e-12)
    at_runs = [prediction_variance(d, m, row, ratio=0.0) for row in settings]
    assert at_runs == pytest.approx([1.0] * 4, abs=1e-12)  # p = n here


def test_prediction_variance_accepts_named_points(tin_design, tin_model):
    named = {"nut_weight": "heavy", "tension": 0.3, "twist": "no", "ramp_height": -0.2}
    by_name = prediction_variance(tin_design, tin_model, named)
    by_row = prediction_variance(tin_design, tin_model, [1.0, 0.3, 0.0, -0.2])
    assert by_name == pytest.approx(by_row, abs=1e-12)


def test_prediction_variance_warns_on_extrapolation(tin_design, tin_model):
    with pytest.warns(UserWarning):
        prediction_variance(tin_design, tin_model, [1.0, 1.5, 0.0, 0.0])


def test_prediction_variance_validates_points(tin_design, tin_model):
    with pytest.raises(ValidationError):
        prediction_variance(tin_design, tin_model, {"tension": 0.0})
    with pytest.raises(ValidationError):
        prediction_variance(
            tin_design,
            tin_model,
            {"nut_weight": "heavy", "tension": 0.0, "twist": "no",
             "ramp_height": 0.0, "bogus": 1.0},
        )
    with pytest.raises(ValidationError):
        prediction_variance(tin_design, tin_model, [0.0, 0.0])
    with pytest.raises(ValidationError):
        prediction_variance(tin_design, tin_model, [0.0, 0.0, 0.0, 0.0], ratio=float("nan"))
