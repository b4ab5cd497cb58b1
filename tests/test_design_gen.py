"""Design construction, model matrices and the coordinate-exchange search."""

import dataclasses
import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitplot import (
    Design,
    DesignSpec,
    NumericalError,
    ValidationError,
    WholePlotLayout,
    assign_whole_plot_sizes,
    build_model,
    column_labels,
    d_criterion,
    define_factor,
    expand_model_matrix,
    generate_design,
    model_matrix,
)
from splitplot import design_gen
from splitplot.cli import randomize_run_order
from splitplot.covariance import _plot_sums, information


def two_factor_model():
    return build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_and_all_2fi",
    )


def factorial_design(model):
    """2x2 factorial split over two plots of two runs."""
    settings = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]])
    return Design(factors=model.factors, whole_plot=(1, 1, 2, 2), settings=settings)


# ---------------------------------------------------------------- plot sizes


def test_whole_plot_sizes_split_evenly_larger_first():
    assert assign_whole_plot_sizes(24, 6) == (4, 4, 4, 4, 4, 4)
    assert assign_whole_plot_sizes(7, 3) == (3, 2, 2)
    assert assign_whole_plot_sizes(5, 5) == (1, 1, 1, 1, 1)


def test_whole_plot_sizes_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = int(rng.integers(1, 10))
        n = int(rng.integers(r, 40))
        sizes = assign_whole_plot_sizes(n, r)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert list(sizes) == sorted(sizes, reverse=True)


def test_whole_plot_sizes_rejects_infeasible():
    with pytest.raises(ValidationError):
        assign_whole_plot_sizes(3, 4)
    with pytest.raises(ValidationError):
        assign_whole_plot_sizes(3, 0)


# ---------------------------------------------------------------- validation


def test_design_spec_validation():
    m = two_factor_model()
    DesignSpec(model=m, n_runs=8, n_whole_plots=4)  # feasible
    with pytest.raises(ValidationError):
        DesignSpec(model=m, n_runs=3, n_whole_plots=2)  # fewer runs than parameters
    with pytest.raises(ValidationError):
        DesignSpec(model=m, n_runs=8, n_whole_plots=1)  # too few plots for the hard main
    with pytest.raises(ValidationError):
        DesignSpec(model=m, n_runs=8, n_whole_plots=4, ratio=-0.5)
    with pytest.raises(ValidationError):
        DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=0)
    with pytest.raises(ValidationError):
        DesignSpec(model=m, n_runs=8, n_whole_plots=4, ratio=float("nan"))
    with pytest.raises(ValidationError):
        DesignSpec(model=m, n_runs=8, n_whole_plots=4, seed=-1)


def test_design_rejects_hard_factor_varying_inside_a_plot():
    m = two_factor_model()
    settings = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        Design(factors=m.factors, whole_plot=(1, 1, 2, 2), settings=settings)


def test_design_rejects_out_of_range_and_bad_codes():
    m = two_factor_model()
    with pytest.raises(ValidationError):
        Design(
            factors=m.factors,
            whole_plot=(1, 1),
            settings=np.array([[1.0, 1.5], [1.0, 0.0]]),
        )
    cat = build_model(
        [define_factor("g", "categorical", levels=("x", "y"))], "mains_only"
    )
    with pytest.raises(ValidationError):
        Design(factors=cat.factors, whole_plot=(1, 1), settings=np.array([[0.0], [2.0]]))
    with pytest.raises(ValidationError):
        Design(factors=m.factors, whole_plot=(1, 1), settings=np.zeros((3, 2)))
    # NaN fails both range comparisons, so it needs its own check
    nan = float("nan")
    for bad in ([[1.0, nan], [1.0, 0.0]], [[nan, 0.0], [nan, 0.0]]):
        with pytest.raises(ValidationError, match="non-finite"):
            Design(factors=m.factors, whole_plot=(1, 1), settings=np.array(bad))
    with pytest.raises(ValidationError, match="non-finite"):
        Design(factors=cat.factors, whole_plot=(1, 1), settings=np.array([[0.0], [nan]]))


def test_design_settings_are_read_only():
    m = two_factor_model()
    d = factorial_design(m)
    with pytest.raises(ValueError):
        d.settings[0, 0] = 0.0


def test_designs_compare_by_value():
    """Equal settings compare equal; one changed cell, plot or criterion does not."""
    m = two_factor_model()
    d = factorial_design(m)
    twin = factorial_design(m)
    assert twin.settings is not d.settings
    assert d == twin and not d != twin
    cell = d.settings.copy()
    cell[1, 1] = 0.0
    assert d != Design(factors=d.factors, whole_plot=d.whole_plot, settings=cell)
    assert d != Design(factors=d.factors, whole_plot=(1, 2, 1, 2),
                       settings=d.settings[[0, 2, 1, 3]])
    assert d != dataclasses.replace(d, criterion=1.0)
    assert dataclasses.replace(d, criterion=1.0) == dataclasses.replace(twin, criterion=1.0)
    assert d != "design"


# ---------------------------------------------------------------- plot membership


TWO_HARD_MODEL = build_model(
    [
        define_factor("a", "continuous", hard_to_change=True),
        define_factor("g", "categorical", levels=("p", "q", "r"), hard_to_change=True),
        define_factor("b", "continuous"),
    ],
    "mains_only",
)


@st.composite
def membership_cases(draw):
    """A shuffled layout (always one single-run plot) with per-plot hard settings,
    a few of whose runs may be knocked off their plot's value."""
    sizes = draw(st.permutations(draw(st.lists(st.integers(1, 5), max_size=7)) + [1]))
    plots = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    order = draw(st.permutations(range(len(plots))))
    whole_plot = tuple(int(plots[i]) for i in order)
    n, r = len(whole_plot), len(sizes)
    codes = draw(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                          min_size=r, max_size=r))
    values = np.array([codes[w - 1] + [draw(st.integers(0, 2))] for w in whole_plot],
                      dtype=float)
    for run in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        j = draw(st.integers(0, 1))
        values[run, j] = (values[run, j] + 1.0) % 3.0
    values[:, [0, 2]] -= 1.0  # a and b are coded -1, 0, +1; g keeps level indices
    return whole_plot, values


@settings(max_examples=300, deadline=None)
@given(membership_cases(), st.integers(0, 2**32 - 1))
def test_plot_membership_matches_per_plot_oracle(case, seed):
    whole_plot, values = case
    n_plots = max(whole_plot)
    rows = [[i for i, w in enumerate(whole_plot) if w == p] for p in range(1, n_plots + 1)]
    verdict = None  # the first hard factor, and its lowest plot, that varies
    for j, f in enumerate(TWO_HARD_MODEL.factors[:2]):
        varying = [p + 1 for p, idx in enumerate(rows) if len(set(values[idx, j])) > 1]
        if varying:
            verdict = f"hard-to-change factor {f.name!r} varies inside whole plot {varying[0]}"
            break

    assert [idx.tolist() for idx in WholePlotLayout(whole_plot).plot_rows] == rows
    if verdict is not None:
        with pytest.raises(ValidationError) as err:
            Design(factors=TWO_HARD_MODEL.factors, whole_plot=whole_plot, settings=values)
        assert str(err.value) == verdict
        return
    d = Design(factors=TWO_HARD_MODEL.factors, whole_plot=whole_plot, settings=values)

    shuffled = randomize_run_order(d, np.random.default_rng(seed))
    blocks = [w for k, w in enumerate(shuffled.whole_plot)
              if k == 0 or shuffled.whole_plot[k - 1] != w]
    assert sorted(blocks) == list(range(1, n_plots + 1))  # each plot is one run of rows
    key = lambda des: sorted((w, *s) for w, s in zip(des.whole_plot, des.settings.tolist()))
    assert key(shuffled) == key(d)


# ---------------------------------------------------------------- model matrix


def test_model_matrix_continuous_products():
    m = two_factor_model()
    d = factorial_design(m)
    x = expand_model_matrix(d, m)
    assert x.shape == (4, 4)
    assert np.array_equal(x[:, 0], np.ones(4))
    assert np.array_equal(x[:, 1], d.settings[:, 0])
    assert np.array_equal(x[:, 2], d.settings[:, 1])
    assert np.array_equal(x[:, 3], d.settings[:, 0] * d.settings[:, 1])


def test_model_matrix_effect_codes_categoricals():
    m = build_model(
        [
            define_factor("g", "categorical", levels=("p", "q", "r")),
            define_factor("x", "continuous"),
        ],
        "mains_and_all_2fi",
    )
    settings = np.array([[0.0, 0.5], [1.0, -1.0], [2.0, 1.0]])
    x = model_matrix(m, settings)
    # columns: intercept, g[p], g[q], x, g[p]*x, g[q]*x
    assert x.shape == (3, 6)
    assert np.array_equal(x[:, 1:3], [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    assert np.array_equal(x[:, 3], settings[:, 1])
    assert np.array_equal(x[:, 4], x[:, 1] * x[:, 3])
    assert np.array_equal(x[:, 5], x[:, 2] * x[:, 3])
    assert column_labels(m) == ("intercept", "g[p]", "g[q]", "x", "g[p]*x", "g[q]*x")


def test_model_matrix_accepts_single_row():
    m = two_factor_model()
    row = model_matrix(m, np.array([0.5, -0.5]))
    assert row.shape == (1, 4)
    assert row[0].tolist() == [1.0, 0.5, -0.5, -0.25]


def test_expand_model_matrix_checks_factor_agreement():
    m = two_factor_model()
    other = build_model(
        [define_factor("u", "continuous"), define_factor("v", "continuous")],
        "mains_only",
    )
    d = factorial_design(m)
    with pytest.raises(ValidationError):
        expand_model_matrix(d, other)


def test_column_labels_for_tin_model(tin_model):
    labels = column_labels(tin_model)
    assert labels[0] == "intercept"
    assert labels[1:5] == ("nut_weight", "tension", "twist", "ramp_height")
    assert labels[5] == "nut_weight*tension"
    assert len(labels) == tin_model.n_parameters


# ---------------------------------------------------------------- criterion


def test_criterion_of_factorial_has_closed_form():
    """M is diagonal for the 2x2 factorial, so log det is hand-computable.

    Columns are orthogonal with squared norm 4; the plot-sum correction
    shrinks the intercept and the hard-factor column by 1/(1 + 2 ratio):
    log det M = 4 log 4 - 2 log(1 + 2 ratio).
    """
    m = two_factor_model()
    d = factorial_design(m)
    for ratio in (0.0, 1.0, 2.5):
        expected = 4 * np.log(4.0) - 2 * np.log(1.0 + 2.0 * ratio)
        assert d_criterion(d, m, ratio=ratio) == pytest.approx(expected, abs=1e-12)


def test_criterion_is_minus_inf_when_singular():
    m = build_model([define_factor("b", "continuous")], "mains_only")
    d = Design(factors=m.factors, whole_plot=(1, 1), settings=np.zeros((2, 1)))
    assert d_criterion(d, m) == float("-inf")


def test_criterion_rejects_bad_ratio():
    m = two_factor_model()
    d = factorial_design(m)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            d_criterion(d, m, ratio=bad)


def test_exchange_refuses_a_criterion_that_cannot_be_compared(monkeypatch):
    """A nan criterion breaks the uphill invariant; it is raised, not asserted."""
    monkeypatch.setattr(design_gen._Exchanger, "criterion", lambda self, settings: np.nan)
    spec = DesignSpec(model=two_factor_model(), n_runs=8, n_whole_plots=4, n_starts=1)
    with pytest.raises(NumericalError, match="exchange criterion must not decrease"):
        generate_design(spec)


def test_criterion_invariant_to_run_permutation_and_plot_relabeling():
    m = two_factor_model()
    spec = DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=3, seed=5)
    d = generate_design(spec)
    base = d_criterion(d, m)

    rng = np.random.default_rng(0)
    perm = rng.permutation(d.n_runs)
    shuffled = Design(
        factors=d.factors,
        whole_plot=tuple(int(d.whole_plot[i]) for i in perm),
        settings=d.settings[perm],
    )
    assert d_criterion(shuffled, m) == pytest.approx(base, abs=1e-9)

    relabel = {1: 3, 2: 1, 3: 4, 4: 2}
    relabeled = Design(
        factors=d.factors,
        whole_plot=tuple(relabel[int(w)] for w in d.whole_plot),
        settings=d.settings,
    )
    assert d_criterion(relabeled, m) == pytest.approx(base, abs=1e-9)


def test_criterion_invariant_to_sign_flip_of_easy_factor():
    m = two_factor_model()
    spec = DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=3, seed=6)
    d = generate_design(spec)
    flipped = Design(
        factors=d.factors,
        whole_plot=d.whole_plot,
        settings=d.settings * np.array([1.0, -1.0]),
    )
    assert d_criterion(flipped, m) == pytest.approx(d_criterion(d, m), abs=1e-9)


# ---------------------------------------------------------------- search


def test_generation_is_deterministic_for_a_seed():
    m = two_factor_model()
    spec = DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=5, seed=11)
    d1 = generate_design(spec)
    d2 = generate_design(spec)
    assert np.array_equal(d1.settings, d2.settings)
    assert d1.criterion == d2.criterion
    assert d1.whole_plot == d2.whole_plot

    single = DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=1, seed=11)
    assert np.array_equal(generate_design(single).settings, generate_design(single).settings)


def test_more_starts_never_hurt():
    m = two_factor_model()
    for seed in range(5):
        one = generate_design(
            DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=1, seed=seed)
        )
        many = generate_design(
            DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=10, seed=seed)
        )
        assert many.criterion >= one.criterion - 1e-12


def test_generated_design_uses_candidate_settings_only():
    m = build_model(
        [
            define_factor("g", "categorical", levels=("p", "q", "r"), hard_to_change=True),
            define_factor("x", "continuous"),
        ],
        "mains_only",
    )
    d = generate_design(DesignSpec(model=m, n_runs=9, n_whole_plots=3, n_starts=4, seed=2))
    assert set(np.unique(d.settings[:, 0])) <= {0.0, 1.0, 2.0}
    assert set(np.unique(d.settings[:, 1])) <= {-1.0, 0.0, 1.0}
    assert d.layout.sizes.tolist() == [3, 3, 3]
    assert np.isfinite(d.criterion)


def test_generated_criterion_matches_a_fresh_evaluation():
    m = two_factor_model()
    d = generate_design(DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=5, seed=1))
    assert d_criterion(d, m, ratio=1.0) == pytest.approx(d.criterion, abs=1e-9)


# ---------------------------------------------------------------- model-row cache


@st.composite
def exchange_cases(draw, max_plots=5):
    """A random model (continuous and 2- or 3-level factors, hard and easy) on a
    shuffled layout of unequal plots that always includes a one-run plot."""
    kinds = draw(st.lists(st.sampled_from(["continuous", 2, 3]), min_size=1, max_size=4))
    hard = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    factors = [
        define_factor(f"f{i}", "continuous", hard_to_change=h) if k == "continuous"
        else define_factor(f"f{i}", "categorical", levels=("p", "q", "r")[:k], hard_to_change=h)
        for i, (k, h) in enumerate(zip(kinds, hard))
    ]
    model = build_model(factors, draw(st.sampled_from(["mains_only", "mains_and_all_2fi"])))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_plots)) + [1]
    plots = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    order = draw(st.permutations(range(len(plots))))
    return model, WholePlotLayout(tuple(int(plots[i]) for i in order))


@settings(max_examples=60, deadline=None)
@given(exchange_cases(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 7.5]))
def test_exchange_keeps_the_model_matrix_of_its_settings(case, seed, ratio):
    """After every scan, the maintained X is exactly model_matrix(settings)."""
    model, layout = case
    worker = design_gen._Exchanger(model, layout, ratio)
    scan = worker._scan
    scans = []

    def checked(settings, x, *rest):
        best = scan(settings, x, *rest)
        assert np.array_equal(x, model_matrix(model, settings))
        assert best == worker.criterion(model_matrix(model, settings))
        scans.append(best)
        return best

    worker._scan = checked
    with patch.object(design_gen, "_MAX_SWEEPS", 3):  # small models may stay singular
        settings, (best, sweeps, evaluations, _) = worker.run(np.random.default_rng(seed))
    assert scans and scans[-1] == best
    assert 1 <= sweeps <= 3 and evaluations >= 1
    for (fi, key), block in worker.blocks.items():  # each block is its key row at every candidate
        row = np.frombuffer(key).copy()
        assert row[fi] == worker.cands[fi][0] and len(block) == len(worker.cands[fi])
        for cand, block_row in zip(worker.cands[fi], block):
            row[fi] = cand
            assert np.array_equal(block_row, model_matrix(model, row)[0])


@settings(max_examples=60, deadline=None)
@given(exchange_cases(max_plots=8), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False),
       st.sampled_from([0.0, 1.0, 7.5]))
def test_criterion_invariant_to_run_permutation_and_plot_relabeling_on_random_designs(
        case, seed, shuffle, ratio):
    model, layout = case
    worker = design_gen._Exchanger(model, layout, ratio)
    settings = worker.random_start(np.random.default_rng(seed))
    x = model_matrix(model, settings)
    assume(np.linalg.matrix_rank(x) == x.shape[1])  # a singular criterion has no value to keep
    d = Design(factors=model.factors, whole_plot=layout.assignment, settings=settings)
    base = d_criterion(d, model, ratio)

    perm = list(range(d.n_runs))
    shuffle.shuffle(perm)
    shuffled = Design(factors=d.factors, whole_plot=tuple(d.whole_plot[i] for i in perm),
                      settings=d.settings[perm])
    assert d_criterion(shuffled, model, ratio) == pytest.approx(base, rel=1e-9, abs=1e-9)

    labels = list(range(1, layout.n_plots + 1))
    shuffle.shuffle(labels)
    relabeled = Design(factors=d.factors, whole_plot=tuple(labels[w - 1] for w in d.whole_plot),
                       settings=d.settings)
    assert d_criterion(relabeled, model, ratio) == pytest.approx(base, rel=1e-9, abs=1e-9)


def check_every_screen(worker):
    """Wrap worker._screen so that each call checks its output against exact scores.

    A screened log det within 10 of the incumbent must be its exact criterion to
    1e-9, and one further down must stay that far down.  A screen that is off at
    a positive log det must be off by the cond_1 gate.  Returns the list of
    calls, True for each screen that ran.
    """
    model, layout, ratio, screen = worker.model, worker.layout, worker.ratio, worker._screen
    calls = []

    def checked(settings, x, r, fi, best):
        out = screen(settings, x, r, fi, best)
        calls.append(out is not None)
        if out is None:
            if best > 0:
                m = information(layout, x, ratio)
                cond = np.abs(m).sum(axis=0).max() * np.abs(np.linalg.inv(m)).sum(axis=0).max()
                assert not cond <= design_gen._SCREEN_MAX_COND
            return out
        assert best > 0
        for cand, val in zip(worker.cands[fi], out):
            trial = settings.copy()
            trial[r, fi] = cand
            exact = worker.criterion(model_matrix(model, trial))
            if cand == settings[r, fi]:
                assert val == best
            elif np.isfinite(exact) and exact > best - 10:
                assert abs(val - exact) <= 1e-9
            else:  # singular or nearly so: the screen must not rank it near the incumbent
                assert not val > best - 10 + 1e-9
        return out

    worker._screen = checked
    return calls


@settings(max_examples=150, deadline=None)
@given(exchange_cases(max_plots=8), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1.0, 7.5, 1e4, 1e6, 1e8]))
def test_screened_log_det_matches_the_exact_criterion(case, seed, ratio):
    """Every screen passes check_every_screen, and the screened search makes the same
    moves as one that scores every candidate."""
    model, layout = case
    worker = design_gen._Exchanger(model, layout, ratio)
    check_every_screen(worker)
    with patch.object(design_gen, "_MAX_SWEEPS", 3):
        settings, (best, sweeps, evaluations, _) = worker.run(np.random.default_rng(seed))
        exact = design_gen._Exchanger(model, layout, ratio)
        exact._screen = lambda *args: None
        ref_settings, (ref_best, ref_sweeps, ref_evaluations, ref_screened) = exact.run(
            np.random.default_rng(seed))
    assert settings.tobytes() == ref_settings.tobytes()
    assert repr(best) == repr(ref_best) and sweeps == ref_sweeps
    assert evaluations <= ref_evaluations and ref_screened == 0


@pytest.mark.parametrize("ratio", [1e6, 1e8])
def test_screened_log_det_at_large_ratios(tin_model, ratio):
    """Small random models rarely keep a positive log det at large ratios, so the tin
    model at 48 runs covers them: the screen runs at 1e6, where the held
    M = information(X) has lost digits to cancellation, and the cond_1 gate keeps it
    off at 1e8.  Both pass check_every_screen and match a search that screens none."""
    layout = WholePlotLayout(tuple(int(i) for i in np.repeat(np.arange(1, 13), 4)))
    worker = design_gen._Exchanger(tin_model, layout, ratio)
    calls = check_every_screen(worker)
    exact = design_gen._Exchanger(tin_model, layout, ratio)
    exact._screen = lambda *args: None
    for seed in range(2):
        settings, (best, sweeps, evaluations, _) = worker.run(np.random.default_rng(seed))
        ref_settings, (ref_best, ref_sweeps, ref_evaluations, _) = exact.run(
            np.random.default_rng(seed))
        assert settings.tobytes() == ref_settings.tobytes()
        assert repr(best) == repr(ref_best) and sweeps == ref_sweeps and best > 0
        assert evaluations <= ref_evaluations
    assert calls and any(calls) == (ratio < 1e8)


def test_the_held_state_is_the_incumbents(tin_model):
    """Every screen reads the incumbent's own M and S, byte for byte, and a (w_r, e_r)
    that matches a dense from-scratch solve to 1e-12 relative."""
    ratio = 1.0
    layout = WholePlotLayout(tuple(int(i) for i in np.repeat(np.arange(1, 13), 4)))
    worker = design_gen._Exchanger(tin_model, layout, ratio)
    z = layout.indicator()
    v_inv = np.linalg.inv(np.eye(layout.n_runs) + ratio * z @ z.T)
    scan, screen = worker._scan, worker._screen
    accepted, used = [], []

    def held_is_current(x):
        m, s = worker.held
        assert m.tobytes() == information(layout, x, ratio).tobytes()
        assert s.tobytes() == _plot_sums(layout, x).tobytes()

    def checked_scan(settings, x, *rest):
        before = settings.tobytes()
        best = scan(settings, x, *rest)
        if settings.tobytes() != before:
            held_is_current(x)
            accepted.append(best)
        return best

    def checked_screen(settings, x, r, fi, best):
        out = screen(settings, x, r, fi, best)
        held_is_current(x)
        if out is not None:
            u = v_inv @ x  # row r is u_r
            want = np.linalg.solve(x.T @ u, u[r])
            w, e = worker.lemma[1][r]
            assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max()
            assert abs(e - want @ u[r]) <= 1e-12 * abs(want @ u[r])
            used.append(r)
        return out

    worker._scan, worker._screen = checked_scan, checked_screen
    settings, (best, _, _, screened) = worker.run(np.random.default_rng(1))
    assert len(accepted) > 20 and accepted[-1] == best
    assert screened > len(used) > 100 and len(set(used)) == layout.n_runs


def test_the_screen_replaces_most_exact_scores(tin_model):
    """On the tin model at 48 runs the screen scores most candidates and leaves a
    small share to the exact path, with the design of a search that screens none."""
    spec = DesignSpec(model=tin_model, n_runs=48, n_whole_plots=12, n_starts=2, seed=1)
    d = generate_design(spec)
    with patch.object(design_gen, "_SCREEN_MAX_COND", -1.0):  # every incumbent exact
        ref = generate_design(spec)
    assert d.settings.tobytes() == ref.settings.tobytes()
    assert repr(d.criterion) == repr(ref.criterion)
    for (val, sweeps, evals, screened), (ref_val, ref_sweeps, ref_evals, none) in zip(
            d.search, ref.search):
        assert (val, sweeps, none) == (ref_val, ref_sweeps, 0)
        assert screened > ref_evals / 2 and evals < ref_evals / 4


# generate_design digests (sha256 over settings bytes and repr(criterion), seed by
# seed), recorded with the exchange that rebuilt the full model matrix for every
# candidate (the ratio-1 shapes) or scored every candidate exactly (ratios 0 and
# 7.5); the row cache and the screen must reproduce them exactly
PINNED_DESIGNS = {
    (24, 6, 20, range(50), 1.0): "66f4223ce239080256312565c461eba6a85cd712c6a92ff671da09987e4c8e9a",
    (25, 6, 20, range(50), 1.0): "3a61ec1bdfcb9ec55f94b31ed726c0e59db5ca243c394d5e554a071d9f7b784a",
    (128, 32, 2, range(4), 1.0): "8c0cd8b41669e1aae3c1331d77d9d3a4a78527eeee2f3dfb612d3872258bddce",
    (48, 12, 5, range(8), 0.0): "b6c745b83a3ffa8768a0a4b1d6b5b2ab0ea4ba59eaa547bbf968477eee879fb4",
    (48, 12, 5, range(8), 7.5): "f6ad2f142c3d88f49ad3576f1273b59a3ff9186871c48c52232f41be9f400c4c",
    # eight one-run plots
    (16, 12, 5, range(8), 7.5): "cd4b5f787299077c8990bdcbc093db863cc86b40023c9a7c3e68ab2aa20745a0",
}


def _shape_id(shape):
    n_runs, n_plots, _, _, ratio = shape
    return f"{n_runs}x{n_plots}" + ("" if ratio == 1.0 else f"-ratio{ratio:g}")


@pytest.mark.parametrize("shape", list(PINNED_DESIGNS), ids=_shape_id)
def test_seeded_designs_match_their_recorded_digests(tin_model, shape):
    n_runs, n_plots, n_starts, seeds, ratio = shape
    digest = hashlib.sha256()
    for seed in seeds:
        d = generate_design(DesignSpec(model=tin_model, n_runs=n_runs, n_whole_plots=n_plots,
                                       ratio=ratio, n_starts=n_starts, seed=seed))
        digest.update(d.settings.tobytes())
        digest.update(repr(d.criterion).encode())
    assert digest.hexdigest() == PINNED_DESIGNS[shape]


# ---------------------------------------------------------------- search trace


def test_search_trace_reports_every_start(monkeypatch):
    calls = []
    per_start = []
    criterion, run = design_gen._Exchanger.criterion, design_gen._Exchanger.run

    def counting_criterion(self, x):
        calls.append(1)
        return criterion(self, x)

    def counting_run(self, rng):
        before = len(calls)
        out = run(self, rng)
        per_start.append(len(calls) - before)
        return out

    monkeypatch.setattr(design_gen._Exchanger, "criterion", counting_criterion)
    monkeypatch.setattr(design_gen._Exchanger, "run", counting_run)
    m = two_factor_model()
    spec = DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=6, seed=3)
    d = generate_design(spec)

    assert len(d.search) == spec.n_starts
    assert max(val for val, _, _, _ in d.search) == d.criterion
    assert [evals for _, _, evals, _ in d.search] == per_start
    assert sum(per_start) == len(calls)
    assert all(1 <= sweeps <= design_gen._MAX_SWEEPS for _, sweeps, _, _ in d.search)

    # the trace is diagnostics: it leaves repr (and equality) alone
    bare = Design(factors=d.factors, whole_plot=d.whole_plot, settings=d.settings,
                  criterion=d.criterion)
    assert bare.search is None
    assert repr(bare) == repr(d)
    search = next(f for f in dataclasses.fields(Design) if f.name == "search")
    assert not search.compare and not search.repr
