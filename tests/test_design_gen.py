"""Design construction, model matrices and the coordinate-exchange search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitplot import (
    Design,
    DesignSpec,
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
from splitplot.cli import randomize_run_order


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
