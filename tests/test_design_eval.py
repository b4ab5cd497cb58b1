"""Power, collinearity and prediction-variance diagnostics."""

import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtrit
from scipy.stats import nct, t as t_dist

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
)
import splitplot
from splitplot import design_eval, tails


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


def test_power_report_leaves_numpy_ma_unimported(tin_design, tin_model):
    """A power report imports no numpy.ma, about 13 ms of every eval process: its
    quadrature takes distinct edges by a sort and an adjacent difference, where a
    first np.unique on floats imports it."""
    code = (
        "import sys\n"
        "from splitplot import Design, boomerang_model, power_report\n"
        "model = boomerang_model()\n"
        f"design = Design(factors=model.factors, whole_plot={tin_design.whole_plot!r},\n"
        f"                settings={tin_design.settings.tolist()!r})\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "power_report(design, model, ratio=1.0, snr=1.0, alpha=0.05)\n"
        "print('numpy.ma loaded:', 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(splitplot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["numpy.ma loaded: False"]


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1000), st.floats(0.0, 100.0), st.floats(0.01, 0.5))
@example(1, 8.0, 0.05)  # a lower tail of 1e-27
@example(4, 40.0, 0.05)  # a lower tail below the smallest double
@example(9, 40.0, 0.05)  # an upper tail that rounds to 1
def test_power_row_matches_scipy_stats_oracle(df, delta, alpha):
    power = tails.two_sided_power(df, delta, alpha)
    t_crit = t_dist.ppf(1 - alpha / 2, df)
    assert 0.0 <= power <= 1.0
    oracle = nct.sf(t_crit, df, delta) + nct.sf(t_crit, df, -delta)
    assert abs(power - oracle) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(1, 1000), st.floats(1.0, 1e6)),
    st.floats(-10.0, math.log10(0.999)).map(lambda e: 10.0**e),
)
@example(1, 1e-10)
@example(2, 1e-10)
@example(10**6, 1e-10)
@example(10**6, 0.999)
@example(1, 0.999)
@example(4, 0.9821718891880378)  # -stdtrit(4, alpha / 2) is 3.9e-13 too large here
def test_t_crit_matches_mpmath(df, alpha):
    """t with I_x(df / 2, 1 / 2) = alpha at x = df / (df + t^2), to 30 digits,
    started from stdtrit at alpha / 2 (at 1 - alpha / 2 its rounding moves t_crit
    by up to 8e-8 relative at alpha 1e-10), in at most 6 Newton steps."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        expected = mp.findroot(
            lambda t: mp.betainc(mp.mpf(df) / 2, 0.5, 0, df / (df + t * t), regularized=True)
            - alpha,
            mp.mpf(float(-stdtrit(df, alpha / 2))),
        )
    with mock.patch.object(tails, "_f_tails", wraps=tails._f_tails) as f_tails:
        t_crit = tails._t_crit(df, alpha)
    assert t_crit == pytest.approx(float(expected), rel=1e-13, abs=0)
    # one tail evaluation per Newton step: at most 5 over df 1..1e6 and alpha 1e-10..0.999
    assert f_tails.call_count <= 6


@pytest.mark.parametrize("snr", [5.0, 8.0, 40.0, 1e12, 1e300])
def test_power_is_finite_for_strong_effects(tin_design, tin_model, snr):
    rep = power_report(tin_design, tin_model, snr=snr)
    for row in rep.rows:
        assert 0.0 <= row.power <= 1.0
    if snr >= 40.0:
        assert all(row.power == 1.0 for row in rep.rows)


def _t_crit(df, alpha):
    """The oracles' critical t, from the exact input alpha / 2 (see test_t_crit_matches_mpmath)."""
    return float(-stdtrit(df, alpha / 2))


def _mp_tail(df, delta, t):
    """E[ndtr(delta - t S)], S = sqrt(chi2_df / df), to 30 digits: P(T > t) at noncentrality
    delta, or P(T <= -t) at -delta.  For delta > 0, ndtr(delta - t s) steps down over a
    width 1/t around s = delta/t, so the pieces break there too.  A far lower tail peaks
    narrowly, so they also break around the integrand's mode, in units of its curvature
    width.  mp.quad stops on an absolute error, so the integrand is taken relative to its
    value at the mode: unscaled, a tail of 1e-115 was accepted 1e-7 off."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        df, delta, t = mp.mpf(df), mp.mpf(delta), mp.mpf(t)
        half = df / 2
        log_norm = mp.log(2) + half * mp.log(half) - mp.loggamma(half)

        def log_h(s):
            return mp.log(mp.ncdf(delta - t * s)) + (df - 1) * mp.log(s) - half * s * s

        def mills(x):
            return mp.npdf(x) / mp.ncdf(x)

        lo, hi = mp.mpf("1e-30"), mp.mpf("1e30")
        for _ in range(80):  # bisection in log s on the slope of log_h, which falls once
            s = mp.sqrt(lo * hi)
            if (df - 1) / s - df * s - t * mills(delta - t * s) > 0:
                lo = s
            else:
                hi = s
        mode = mp.sqrt(lo * hi)
        x = delta - t * mode
        m = mills(x)
        width = 1 / mp.sqrt((df - 1) / mode**2 + df + t * t * m * (x + m))
        peak = log_h(mode)

        pieces = [0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1, 1.5, 2, 4]
        if delta > 0:
            pieces += [(delta + k) / t for k in (-40, -10, -4, -2, -1, 0, 1, 2, 4, 10, 40)
                       if delta + k > 0]
        pieces += [mode + k * width for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16)
                   if mode + k * width > 0]
        scaled = mp.quad(lambda s: mp.exp(log_h(s) - peak), sorted(set(pieces)) + [mp.inf])
        return float(scaled * mp.exp(log_norm + peak))


@pytest.mark.parametrize(
    "df, delta", [(4, 6.37), (4, 6.39), (4, 6.41), (9, 6.18), (9, 6.22), (9, 6.26)]
)
def test_power_in_the_small_alpha_windows_matches_mpmath(df, delta):
    """Both tails far out at a small alpha: the lower tail is about 2e-13."""
    t_crit = _t_crit(df, 0.001)
    oracle = _mp_tail(df, delta, t_crit) + _mp_tail(df, -delta, t_crit)
    assert abs(tails.two_sided_power(df, delta, 0.001) - oracle) <= 1e-12


@pytest.mark.parametrize(
    "df, delta, alpha",
    [(1e6, 37.25, 0.999), (1e6, 37.3, 0.999), (1e6, 37.45, 0.999), (1e4, 37.5, 0.99),
     (1e6, 37.5, 0.99)],
)
def test_power_is_one_where_the_upper_tail_is_settled_as_one(df, delta, alpha):
    """An upper tail whose complement is below rounding settles the power as 1; the
    lower tail here is below 1e-300, and a wrong one of 1.4e-14 at df 1e6, alpha 0.999
    would make the power 1.0000000000000135."""
    t_crit = _t_crit(df, alpha)
    oracle = _mp_tail(df, delta, t_crit) + _mp_tail(df, -delta, t_crit)
    power = tails.two_sided_power(df, delta, alpha)
    assert 0.0 <= power <= 1.0
    assert abs(power - oracle) <= 1e-12


@pytest.mark.parametrize(
    "df, delta, alpha",
    [(1, 1e6, 1e-10), (1, 3e5, 1e-6), (1, 1e9, 1e-10), (2, 1e6, 1e-10)],
)
def test_power_where_the_upper_tail_is_nan_both_ways_matches_mpmath(df, delta, alpha):
    """Far upper tails at t up to 6e9 and delta up to 1e9, where Phi(delta - t s) steps
    over a width of 1 / delta in log s.  At df 2 the upper tail's complement is below
    rounding, which settles the power as 1."""
    t_crit = _t_crit(df, alpha)
    oracle = _mp_tail(df, delta, t_crit) + _mp_tail(df, -delta, t_crit)
    power = tails.two_sided_power(df, delta, alpha)
    assert 0.0 <= power <= 1.0
    assert abs(power - oracle) <= 1e-12
    upper = tails._tail_by_quadrature(df, delta, t_crit)
    assert upper == pytest.approx(_mp_tail(df, delta, t_crit), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "df, delta, alpha, expected",
    [(2, 82222.0, 1e-10, 0.4913757404587445), (1, 25773.0, 1e-6, 0.03229284387956707),
     (1, 1e5, 1e-10, 1.25331413726396e-05)],
)
def test_power_at_finite_scipy_errors_matches_mpmath(df, delta, alpha, expected):
    """Far tails at df <= 2 and alpha <= 1e-6, near points where nctdtr's finite
    tails were wrong by up to 2e-7; expected is _mp_tail's sum of the two tails."""
    t_crit = _t_crit(df, alpha)
    oracle = _mp_tail(df, delta, t_crit) + _mp_tail(df, -delta, t_crit)
    assert oracle == pytest.approx(expected, rel=1e-13)
    assert abs(tails.two_sided_power(df, delta, alpha) - oracle) <= 1e-12


@pytest.mark.parametrize(
    "df, delta, alpha",
    [(1e6, 2.0, 0.05), (1e6, -2.0, 0.05), (1e6, 4.0, 0.001), (1e6, -1.0, 1e-6)],
)
def test_tail_quadrature_at_df_1e6_matches_mpmath(df, delta, alpha):
    """At df 1e6, (df / 2) log(df / 2) - lgamma(df / 2) and -(df / 2) s^2 are each
    about 5e5 in the log density of log S; summed as such they cost about 2e-10
    relative."""
    t_crit = _t_crit(df, alpha)
    tail = tails._tail_by_quadrature(df, delta, t_crit)
    assert tail == pytest.approx(_mp_tail(df, delta, t_crit), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "df, delta, alpha",
    [(1, 3.0, 0.05), (1, 3.0, 1e-6), (4, 0.5, 0.05), (4, 6.39, 1e-10), (9, 6.18, 0.001),
     (30, 2.0, 0.999), (30, 20.0, 1e-6)],
)
def test_lower_tail_quadrature_matches_mpmath(df, delta, alpha):
    t_crit = _t_crit(df, alpha)
    oracle = _mp_tail(df, -delta, t_crit)
    tail = tails._tail_by_quadrature(df, -delta, t_crit)
    assert tail == pytest.approx(oracle, rel=1e-9, abs=0)


def test_mpmath_oracle_resolves_the_step_at_large_t():
    """At df 1, alpha 1e-6 and delta 5462, ndtr(delta - t s) drops from 1 to 0 within
    about 3e-6 of s = delta / t; fixed pieces missed it and gave 0.0068587.  The same
    tail as E over Z of P(S < (Z + delta) / t) has a smooth integrand."""
    mp = pytest.importorskip("mpmath")
    df, delta = 1, 5462.0
    t_crit = float(stdtrit(df, 1 - 1e-6 / 2))
    with mp.workdps(30):
        def cdf_s(z):  # P(S < (z + delta) / t), S = sqrt(chi2_df / df)
            c = (z + delta) / mp.mpf(t_crit)
            return mp.gammainc(mp.mpf(df) / 2, 0, df * c * c / 2, regularized=True)

        smooth = float(mp.quad(lambda z: mp.npdf(z) * cdf_s(z), [-12, -4, 0, 4, 12]))
    assert _mp_tail(df, delta, t_crit) == pytest.approx(smooth, rel=1e-15)
    assert smooth == pytest.approx(0.006845517833029953, rel=1e-15)


def test_power_report_flags_an_uncomputable_power(tin_design, tin_model, monkeypatch):
    monkeypatch.setattr(design_eval, "two_sided_power", lambda df, delta, alpha: np.nan)
    with pytest.raises(NumericalError, match="power for column 'nut_weight' is not computable"):
        power_report(tin_design, tin_model)


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
    rep = diagnostics(d, m)
    labels, corr, aliases = rep.labels, rep.correlation, rep.alias_warnings
    assert labels == ("u", "v")
    assert corr[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert corr[0, 0] == 1.0
    assert aliases == ()
    vifs = rep.vif
    assert vifs == pytest.approx((1.0, 1.0), abs=1e-12)


def test_correlated_pair_hits_textbook_vif():
    # corr(u, v) = 0.6 by construction, so VIF = 1 / (1 - 0.36) = 1.5625
    u = [1, 1, 1, 1, -1, -1, -1, -1]
    v = [0.7, 0.7, -0.1, -0.1, 0.1, -0.7, 0.1, -0.7]
    d, m = easy_pair_design(u, v)
    rep = diagnostics(d, m)
    corr = rep.correlation
    assert corr[0, 1] == pytest.approx(0.6, abs=1e-12)
    vifs = rep.vif
    assert vifs == pytest.approx((1.5625, 1.5625), abs=1e-10)


def test_aliased_columns_are_flagged():
    u = [1, 1, -1, -1, 1, 1, -1, -1]
    d, m = easy_pair_design(u, u)
    rep = diagnostics(d, m)
    corr, aliases = rep.correlation, rep.alias_warnings
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert aliases == (("u", "v"),)
    vifs = rep.vif
    assert vifs[0] == float("inf")
    assert vifs[1] == float("inf")


def test_constant_column_reports_nan_not_alias():
    u = [1, 1, -1, -1, 1, 1, -1, -1]
    c = [0.5] * 8
    d, m = easy_pair_design(u, c)
    rep = diagnostics(d, m)
    corr, aliases = rep.correlation, rep.alias_warnings
    assert np.isnan(corr[1, 1])
    assert np.isnan(corr[0, 1])
    assert aliases == ()
    vifs = rep.vif
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
    # a number is a coded value; text, which to_coded reads in natural units, is refused:
    # "1" is tension's low end, coded -1, where 1.0 is coded +1
    for text in ("1", "1.0", "0"):
        with pytest.raises(ValidationError, match="tension"):
            prediction_variance(
                tin_design,
                tin_model,
                {"nut_weight": "heavy", "tension": text, "twist": "no", "ramp_height": 0.0},
            )
    with pytest.raises(ValidationError):
        prediction_variance(tin_design, tin_model, [0.0, 0.0])
    with pytest.raises(ValidationError):
        prediction_variance(tin_design, tin_model, [0.0, 0.0, 0.0, 0.0], ratio=float("nan"))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="must be finite"):
            prediction_variance(tin_design, tin_model, [0.0, bad, 0.0, 0.0])
        with pytest.raises(ValidationError, match="must be finite"):
            prediction_variance(
                tin_design,
                tin_model,
                {"nut_weight": "heavy", "tension": bad, "twist": "no", "ramp_height": 0.0},
            )
