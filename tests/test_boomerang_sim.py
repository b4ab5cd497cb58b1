"""Rolling-tin simulator: factor catalog, truth config and replicate draws."""

import dataclasses

import numpy as np
import pytest

from splitplot import (
    Design,
    ResponseTruth,
    TruthConfig,
    ValidationError,
    boomerang_factors,
    boomerang_model,
    build_model,
    default_truth,
    define_factor,
    mean_surface,
    reml_fit,
    simulate,
)
from splitplot.boomerang_sim import _term_column


def small_tin_design():
    settings = np.array(
        [[0.0, -1.0, 0.0, -1.0],
         [0.0, 1.0, 1.0, 1.0],
         [1.0, -1.0, 1.0, -1.0],
         [1.0, 1.0, 0.0, 1.0],
         [0.0, 0.0, 1.0, 0.0],
         [0.0, -1.0, 0.0, 1.0],
         [1.0, 1.0, 1.0, -1.0],
         [1.0, 0.0, 0.0, 0.0]]
    )
    return Design(
        factors=boomerang_factors(),
        whole_plot=(1, 1, 2, 2, 3, 3, 4, 4),
        settings=settings,
    )


def test_factor_catalog():
    facs = boomerang_factors()
    assert [f.name for f in facs] == ["nut_weight", "tension", "twist", "ramp_height"]
    assert [f.hard_to_change for f in facs] == [True, False, False, False]
    nut, tension, twist, ramp = facs
    assert nut.is_categorical and nut.levels == ("light", "heavy")
    assert twist.is_categorical and twist.levels == ("no", "yes")
    assert (tension.low, tension.high) == (1.0, 3.0)
    assert (ramp.low, ramp.high) == (10.0, 30.0)


def test_model_shape():
    m = boomerang_model()
    assert len(m.terms) == 10
    assert [t.label for t in m.whole_plot_terms] == ["nut_weight"]
    assert len(m.subplot_terms) == 9
    assert m.whole_plot_model_df == 2  # intercept plus the nut weight
    assert m.subplot_model_df == 9
    assert m.n_parameters == 11
    mains = boomerang_model("mains_only")
    assert [t.label for t in mains.terms] == [
        "nut_weight", "tension", "twist", "ramp_height",
    ]


def test_default_truth_calibration():
    truth = default_truth()
    assert list(truth.responses) == ["y1", "y2"]
    y1 = truth.responses["y1"]
    y2 = truth.responses["y2"]
    assert set(y1.coefficients) == {"nut_weight", "tension", "twist", "ramp_height"}
    assert all(c != 0 for c in y1.coefficients.values())
    # y2 moves with the nut weight alone, and a heavy nut helps both
    assert list(y2.coefficients) == ["nut_weight"]
    assert y1.coefficients["nut_weight"] > 0
    assert y2.coefficients["nut_weight"] > 0
    # plot noise pinned at half the run noise for both responses
    assert y1.sigma_epsilon == 60.3
    assert y2.sigma_epsilon == 53.9
    assert y1.sigma_gamma == pytest.approx(y1.sigma_epsilon / 2)
    assert y2.sigma_gamma == pytest.approx(y2.sigma_epsilon / 2)
    assert truth.seed == 0


def test_mean_surface_by_hand():
    d = small_tin_design()
    truth = default_truth().responses["y1"]
    sign = lambda code: 2.0 * code - 1.0  # 2-level contrast: 0 -> -1, 1 -> +1
    expected = (
        350.0
        + 105.0 * sign(d.settings[:, 0])
        + 70.0 * d.settings[:, 1]
        - 65.0 * sign(d.settings[:, 2])
        + 65.0 * d.settings[:, 3]
    )
    assert mean_surface(d, truth) == pytest.approx(expected, abs=1e-12)


def test_mean_surface_supports_interaction_coefficients():
    d = small_tin_design()
    truth = ResponseTruth(
        intercept=0.0,
        coefficients={"tension*ramp_height": 2.0},
        sigma_gamma=0.0,
        sigma_epsilon=0.0,
    )
    expected = 2.0 * d.settings[:, 1] * d.settings[:, 3]
    assert mean_surface(d, truth) == pytest.approx(expected, abs=1e-12)


def test_heavy_minus_light_gap_is_twice_the_coefficient():
    d = Design(
        factors=boomerang_factors(),
        whole_plot=(1, 2),
        settings=np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
    )
    truth = default_truth()
    m1 = mean_surface(d, truth.responses["y1"])
    m2 = mean_surface(d, truth.responses["y2"])
    assert m1[1] - m1[0] == pytest.approx(2 * 105.0)
    assert m2[1] - m2[0] == pytest.approx(2 * 120.0)


def test_simulate_streams():
    d = small_tin_design()
    truth = default_truth()
    a = simulate(d, truth, seed=5)
    b = simulate(d, truth, seed=5)
    c = simulate(d, truth, seed=6)
    assert a.names == ("y1", "y2")
    assert np.array_equal(a.responses["y1"], b.responses["y1"])
    assert np.array_equal(a.responses["y2"], b.responses["y2"])
    assert not np.array_equal(a.responses["y1"], c.responses["y1"])
    default = simulate(d, truth)  # seed=None falls back to truth.seed
    pinned = simulate(d, truth, seed=truth.seed)
    assert np.array_equal(default.responses["y1"], pinned.responses["y1"])
    tupled = simulate(d, truth, seed=(11, 3))
    assert not np.array_equal(tupled.responses["y1"], a.responses["y1"])


@pytest.mark.parametrize("seed", [-1, (7, -1), (7, 1.5), "a", 2.0, [7, 1]])
def test_simulate_rejects_seeds_that_are_not_non_negative_ints(seed):
    """A seed is a non-negative int or a tuple of them; anything else, a float inside
    a tuple or a string included, is a ValidationError, not numpy's own error."""
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        simulate(small_tin_design(), default_truth(), seed=seed)


def test_first_response_draws_do_not_depend_on_later_ones():
    d = small_tin_design()
    full = default_truth()
    only_y1 = TruthConfig(responses={"y1": full.responses["y1"]}, seed=full.seed)
    a = simulate(d, full, seed=42)
    b = simulate(d, only_y1, seed=42)
    assert np.array_equal(a.responses["y1"], b.responses["y1"])


def test_zero_noise_reproduces_the_mean_surface():
    d = small_tin_design()
    quiet = ResponseTruth(
        intercept=100.0,
        coefficients={"tension": 3.0, "nut_weight": 7.0},
        sigma_gamma=0.0,
        sigma_epsilon=0.0,
    )
    tab = simulate(d, TruthConfig(responses={"y": quiet}), seed=1)
    assert np.array_equal(tab.responses["y"], mean_surface(d, quiet))


def test_plot_noise_is_shared_within_plots():
    d = small_tin_design()
    lumpy = ResponseTruth(
        intercept=0.0, coefficients={}, sigma_gamma=4.0, sigma_epsilon=0.0
    )
    tab = simulate(d, TruthConfig(responses={"y": lumpy}), seed=3)
    y = tab.responses["y"]
    plots = np.asarray(d.whole_plot)
    effects = []
    for p in (1, 2, 3, 4):
        vals = y[plots == p]
        assert vals[0] == vals[1]
        effects.append(vals[0])
    assert len(set(effects)) == 4


def test_term_column_rejections():
    d = small_tin_design()
    with pytest.raises(ValidationError):
        _term_column(d, "tension*tension")
    with pytest.raises(ValidationError):
        _term_column(d, "mass")
    g = define_factor("g", "categorical", levels=("a", "b", "c"))
    m = build_model([g], "mains_only")
    d3 = Design(
        factors=m.factors,
        whole_plot=(1, 1, 1),
        settings=np.array([[0.0], [1.0], [2.0]]),
    )
    with pytest.raises(ValidationError):
        _term_column(d3, "g")  # 3-level factor spans 2 columns


def test_an_unknown_truth_term_raises_on_every_call():
    d = small_tin_design()
    bad = TruthConfig(responses={"y": ResponseTruth(
        intercept=0.0, coefficients={"tension": 1.0, "mass": 2.0},
        sigma_gamma=1.0, sigma_epsilon=1.0,
    )})
    for _ in range(2):
        with pytest.raises(ValidationError, match="mass"):
            simulate(d, bad, seed=0)
    assert "mass" not in d._memo
    col = _term_column(d, "tension")
    assert col is _term_column(d, "tension")  # expanded once per design
    with pytest.raises(ValueError):
        col[0] = 5.0  # and read-only


def test_a_filled_memo_leaves_design_equality_and_repr_alone():
    d = small_tin_design()
    twin = small_tin_design()
    before = repr(d)
    table = simulate(d, default_truth(), seed=0)
    reml_fit(table, build_model(d.factors, "mains_only"), response="y1")
    assert len(d._memo) == 7 and not twin._memo  # 4 truth terms, 2 truth means, one model
    assert d == twin and twin == d
    assert repr(d) == repr(twin) == before
    memo = next(f for f in dataclasses.fields(Design) if f.name == "_memo")
    assert not (memo.init or memo.repr or memo.compare)


def _table_bytes(table):
    return {name: values.tobytes() for name, values in table.responses.items()}


def test_a_memoized_mean_never_goes_stale():
    """simulate keeps each truth's mean surface on the design under its intercept and
    coefficient items: a truth whose coefficients change afterwards, and a second truth
    equal to the first, each draw the bytes a fresh design gives, and memoized
    replicates equal unmemoized ones."""
    d = small_tin_design()
    truth = default_truth()
    first = simulate(d, truth, seed=3)
    truth.responses["y1"].coefficients["tension"] = -40.0
    changed = simulate(d, truth, seed=3)
    assert _table_bytes(changed) == _table_bytes(simulate(small_tin_design(), truth, seed=3))
    assert changed.responses["y1"].tobytes() != first.responses["y1"].tobytes()
    assert changed.responses["y2"].tobytes() == first.responses["y2"].tobytes()
    for equal in (default_truth(), default_truth()):  # both read the entry of the first call
        assert _table_bytes(simulate(d, equal, seed=3)) == _table_bytes(first)
    for k in range(20):
        memoized = simulate(d, truth, seed=(7, k))
        fresh = simulate(dataclasses.replace(d), truth, seed=(7, k))  # an empty memo
        assert _table_bytes(memoized) == _table_bytes(fresh)


def test_truth_validation():
    with pytest.raises(ValidationError):
        ResponseTruth(intercept=0.0, coefficients={}, sigma_gamma=-1.0, sigma_epsilon=1.0)
    with pytest.raises(ValidationError):
        ResponseTruth(intercept=0.0, coefficients={}, sigma_gamma=1.0, sigma_epsilon=np.nan)
    with pytest.raises(ValidationError):
        TruthConfig(responses={})
    ok = ResponseTruth(intercept=0.0, coefficients={}, sigma_gamma=0.0, sigma_epsilon=1.0)
    with pytest.raises(ValidationError):
        TruthConfig(responses={"y*1": ok})


def test_truth_copies_its_coefficients():
    coefs = {"tension": 1.0}
    truth = ResponseTruth(
        intercept=0.0, coefficients=coefs, sigma_gamma=0.0, sigma_epsilon=0.0
    )
    coefs["tension"] = 99.0
    assert truth.coefficients["tension"] == 1.0
