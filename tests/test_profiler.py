"""Desirability goals, prediction at natural settings and the grid search."""

import dataclasses

import numpy as np
import pytest

from splitplot import (
    Design,
    Goal,
    ResponseTable,
    ValidationError,
    build_model,
    default_truth,
    define_factor,
    gls_fit,
    optimize,
    predict,
    reml_fit,
    simulate,
)
from splitplot import profiler


def line_fits(slopes, low=-1.0, high=1.0):
    """One-factor fits with y ~= slope * coded(x), tiny noise keeps REML legal."""
    m = build_model([define_factor("x", "continuous", low=low, high=high)], "mains_only")
    coded = np.linspace(-1.0, 1.0, 8)
    d = Design(
        factors=m.factors,
        whole_plot=(1, 1, 1, 1, 2, 2, 2, 2),
        settings=coded[:, None],
    )
    rng = np.random.default_rng(99)
    fits = {}
    for name, slope in slopes.items():
        y = slope * coded + rng.normal(0.0, 1e-9, size=8)
        tab = ResponseTable(design=d, responses={name: y})
        fits[name] = gls_fit(tab, m, ratio=0.0, response=name)
    return fits


# ---------------------------------------------------------------- goals


def test_goal_validation():
    with pytest.raises(ValidationError):
        Goal("y", "sideways")
    with pytest.raises(ValidationError):
        Goal("y", "target")  # target direction without a value
    with pytest.raises(ValidationError):
        Goal("y", "target", target=np.inf)
    with pytest.raises(ValidationError):
        Goal("y", "maximize", target=3.0)  # value on a non-target goal
    with pytest.raises(ValidationError):
        Goal("y", "maximize", bounds=(2.0, 2.0))
    with pytest.raises(ValidationError):
        Goal("y", "minimize", weight=0.0)
    goal = Goal("y", "target", target=1.0, bounds=(0.0, 2.0), weight=2.0)
    assert goal.weight == 2.0


# ---------------------------------------------------------------- predict


def test_predict_maps_natural_units():
    fits = line_fits({"y": 3.0}, low=0.0, high=10.0)
    fit = fits["y"]
    value, se = predict(fit, {"x": 7.5})  # coded 0.5
    assert value == pytest.approx(3.0 * 0.5, abs=1e-6)
    assert se > 0
    row = np.array([1.0, 0.5])
    assert se == pytest.approx(float(np.sqrt(row @ fit.cov_beta @ row)), rel=1e-12)


def test_predict_input_errors():
    fits = line_fits({"y": 1.0})
    with pytest.raises(ValidationError):
        predict(fits["y"], {"x": 0.0, "z": 1.0})
    with pytest.raises(ValidationError):
        predict(fits["y"], {})
    with pytest.raises(ValidationError):
        predict(fits["y"], [0.0])


# ---------------------------------------------------------------- geometry


def test_opposing_goals_balance_at_the_center():
    fits = line_fits({"up": 1.0, "down": -1.0})
    goals = [
        Goal("up", "maximize", bounds=(-1.0, 1.0)),
        Goal("down", "maximize", bounds=(-1.0, 1.0)),
    ]
    rec = optimize(fits, goals)
    assert rec.setting("x") == pytest.approx(0.0, abs=1e-12)
    assert rec.desirability == pytest.approx(0.5, abs=1e-6)
    names = [name for name, _, _ in rec.predictions]
    assert names == ["up", "down"]


def test_weights_shift_the_compromise():
    fits = line_fits({"up": 1.0, "down": -1.0})
    goals = [
        Goal("up", "maximize", bounds=(-1.0, 1.0), weight=3.0),
        Goal("down", "maximize", bounds=(-1.0, 1.0), weight=1.0),
    ]
    rec = optimize(fits, goals)
    # maximize d_up^(3/4) d_down^(1/4) with d_up = (x+1)/2: optimum x = 1/2
    assert rec.setting("x") == pytest.approx(0.5, abs=1e-12)
    assert rec.desirability == pytest.approx((0.75**3 * 0.25) ** 0.25, abs=1e-6)


def test_target_goal_peaks_between_grid_points():
    fits = line_fits({"y": 1.0})
    rec = optimize(fits, [Goal("y", "target", target=0.25, bounds=(-1.0, 1.0))])
    # 0.25 is off the 21-point scan but on the 201-point refinement axis
    assert rec.setting("x") == pytest.approx(0.25, abs=1e-12)
    assert rec.desirability == pytest.approx(1.0, abs=1e-6)


def test_bounds_gate_out_low_responses():
    fits = line_fits({"y": 1.0})
    rec = optimize(fits, [Goal("y", "maximize", bounds=(0.5, 1.0))])
    assert rec.setting("x") == pytest.approx(1.0, abs=1e-12)
    assert rec.desirability == pytest.approx(1.0, abs=1e-6)


def test_minimize_with_default_bounds_uses_observed_range():
    fits = line_fits({"y": 1.0})
    rec = optimize(fits, [Goal("y", "minimize")])
    assert rec.setting("x") == pytest.approx(-1.0, abs=1e-12)
    assert rec.desirability == pytest.approx(1.0, abs=1e-5)


def test_explicit_bounds_are_a_range_whose_best_end_the_direction_picks(tin_design, tin_model):
    """Minimizing y2 within bounds (0, 600), given in either order, recommends what
    minimizing it within its observed range does, the light nut; maximizing within
    (600, 0) recommends the heavy nut, as maximizing within (0, 600) does."""
    fits = {"y2": reml_fit(simulate(tin_design, default_truth(), seed=7), tin_model, "y2")}
    lowest = optimize(fits, [Goal("y2", "minimize")])
    assert lowest.setting("nut_weight") == "light"
    for bounds in ((0.0, 600.0), (600.0, 0.0)):
        rec = optimize(fits, [Goal("y2", "minimize", bounds=bounds)])
        assert (rec.settings, rec.predictions) == (lowest.settings, lowest.predictions)
    highest = [optimize(fits, [Goal("y2", "maximize", bounds=bounds)])
               for bounds in ((600.0, 0.0), (0.0, 600.0))]
    assert highest[0] == highest[1]
    assert highest[0].setting("nut_weight") == "heavy"
    assert highest[0].predictions[0][1] > lowest.predictions[0][1]


def test_target_outside_bounds_rejected():
    fits = line_fits({"y": 1.0})
    with pytest.raises(ValidationError):
        optimize(fits, [Goal("y", "target", target=5.0)])  # beyond observed range
    with pytest.raises(ValidationError):
        optimize(fits, [Goal("y", "target", target=2.0, bounds=(0.0, 1.0))])


# ---------------------------------------------------------------- end to end


def test_tin_study_recommends_the_heavy_nut(tin_design, tin_model):
    tab = simulate(tin_design, default_truth(), seed=(8, 0))
    fits = {
        name: reml_fit(tab, tin_model, response=name) for name in tab.names
    }
    rec = optimize(fits, [Goal("y1", "maximize"), Goal("y2", "maximize")])
    assert rec.setting("nut_weight") == "heavy"
    assert rec.setting("twist") == "no"
    assert rec.setting("tension") == pytest.approx(3.0)
    assert rec.setting("ramp_height") == pytest.approx(30.0)
    assert 0.0 < rec.desirability <= 1.0
    by_name = {name: (value, se) for name, value, se in rec.predictions}
    assert by_name["y1"][0] > by_name["y2"][0]  # run-out beats rollback out there
    assert all(se > 0 for _, se in by_name.values())


def test_grid_scan_in_small_chunks_matches_the_one_shot_scan(monkeypatch):
    """Chunking keeps the C-order enumeration and the first-index tie rule."""
    facs = [
        define_factor("g", "categorical", levels=("p", "q", "r")),
        define_factor("x", "continuous"),
        define_factor("z", "continuous", low=0.0, high=10.0),
    ]
    m = build_model(facs, "mains_and_all_2fi")
    levels = np.array([(g, x, z) for g in range(3) for x in (-1, 0, 1) for z in (-1, 0, 1)],
                      dtype=float)
    d = Design(factors=m.factors, whole_plot=tuple(range(1, 28)), settings=levels)
    rng = np.random.default_rng(5)
    tab = ResponseTable(design=d, responses={"y": rng.normal(size=27), "w": rng.normal(size=27)})
    fits = {name: gls_fit(tab, m, ratio=0.0, response=name) for name in ("y", "w")}
    plateau = float(np.quantile(fits["y"].fitted, 0.3))  # many grid points tie at desirability 1
    for goals in (
        [Goal("y", "maximize"), Goal("w", "minimize", weight=2.0)],
        [Goal("y", "maximize", bounds=(plateau - 1.0, plateau))],
    ):
        whole = optimize(fits, goals)
        with monkeypatch.context() as patched:
            patched.setattr(profiler, "_GRID_CHUNK", 7)
            chunked = optimize(fits, goals)
        assert chunked.settings == whole.settings
        assert chunked.predictions == whole.predictions
        assert chunked.desirability == pytest.approx(whole.desirability, rel=1e-12)


# ---------------------------------------------------------------- validation


def test_optimize_input_errors():
    fits = line_fits({"y": 1.0})
    goal = Goal("y", "maximize", bounds=(-1.0, 1.0))
    with pytest.raises(ValidationError):
        optimize(fits, [])
    with pytest.raises(ValidationError):
        optimize({}, [goal])
    with pytest.raises(ValidationError):
        optimize(fits, [Goal("other", "maximize", bounds=(0.0, 1.0))])
    other = line_fits({"y": 1.0}, low=0.0, high=5.0)
    with pytest.raises(ValidationError):
        optimize({"y": fits["y"], "z": other["y"]}, [goal])


def test_optimize_refuses_a_constant_response_without_bounds():
    """A response with one observed value gives no default range to scale desirability
    over: without explicit bounds optimize refuses it, with them it runs.  No fit of a
    constant response exists (the fit refuses zero residual variation), so the fit's y is
    replaced."""
    fit = line_fits({"y": 1.0})["y"]
    flat = {"y": dataclasses.replace(fit, y=np.full_like(fit.y, 3.0))}
    with pytest.raises(ValidationError, match="response 'y' is constant; pass explicit bounds"):
        optimize(flat, [Goal("y", "maximize")])
    rec = optimize(flat, [Goal("y", "maximize", bounds=(-1.0, 1.0))])
    assert rec.setting("x") == 1.0  # the fitted line, not y, is what it maximizes


def test_recommendation_lookup_errors():
    fits = line_fits({"y": 1.0})
    rec = optimize(fits, [Goal("y", "maximize", bounds=(-1.0, 1.0))])
    with pytest.raises(ValidationError):
        rec.setting("nope")
