"""Factors, term classification and degree-of-freedom budgets."""

import re

import numpy as np
import pytest

from splitplot import (
    SUBPLOT,
    WHOLE_PLOT,
    ValidationError,
    build_model,
    classify_term,
    column_labels,
    count_subplot_df,
    count_whole_plot_df,
    define_factor,
)


def two_level(name, hard=False):
    return define_factor(name, "categorical", levels=("lo", "hi"), hard_to_change=hard)


# ---------------------------------------------------------------- factors


def test_continuous_factor_round_trip():
    f = define_factor("ramp", "continuous", low=10.0, high=30.0)
    assert f.to_coded(10.0) == -1.0
    assert f.to_coded(30.0) == 1.0
    assert f.to_coded(20.0) == 0.0
    assert f.to_natural(0.5) == 25.0
    for value in (10.0, 14.2, 23.7, 30.0):
        assert f.to_natural(f.to_coded(value)) == pytest.approx(value, abs=1e-12)


def test_continuous_factor_tolerates_text_fuzz_but_rejects_violations():
    f = define_factor("ramp", "continuous", low=10.0, high=30.0)
    # a value a hair outside the range (printing fuzz) clips to the bound
    assert f.to_coded(30.0 + 1e-9) == 1.0
    assert f.to_coded(10.0 - 1e-9) == -1.0
    with pytest.raises(ValidationError):
        f.to_coded(30.1)
    with pytest.raises(ValidationError):
        f.to_coded(9.9)
    # text that is not a number is invalid input too, not a raw ValueError
    for text in ("abc", "", None):
        with pytest.raises(ValidationError, match="is not a number"):
            f.to_coded(text)


def test_categorical_factor_levels_and_codes():
    f = define_factor("nut", "categorical", levels=("light", "heavy"))
    assert f.n_levels == 2
    assert f.n_columns == 1
    assert f.to_coded("light") == 0.0
    assert f.to_coded("heavy") == 1.0
    assert f.to_natural(1) == "heavy"
    with pytest.raises(ValidationError):
        f.to_coded("medium")


def test_two_level_contrast_is_minus_one_plus_one():
    f = define_factor("nut", "categorical", levels=("light", "heavy"))
    assert np.array_equal(f.contrast_matrix(), [[-1.0], [1.0]])


def test_multilevel_contrast_rows():
    f = define_factor("mat", "categorical", levels=("a", "b", "c", "d"))
    c = f.contrast_matrix()
    assert c.shape == (4, 3)
    assert np.array_equal(c[:3], np.eye(3))
    assert np.array_equal(c[3], [-1.0, -1.0, -1.0])


def test_coded_columns_rejects_bad_level_codes():
    f = define_factor("mat", "categorical", levels=("a", "b", "c"))
    with pytest.raises(ValidationError):
        f.coded_columns(np.array([0.0, 3.0]))
    with pytest.raises(ValidationError):
        f.coded_columns(np.array([0.5]))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="x,y", kind="continuous"),
        dict(name="x", kind="fuzzy"),
        dict(name="x", kind="categorical", levels=("a",)),
        dict(name="x", kind="categorical", levels=("a", "a")),
        dict(name="x", kind="categorical", levels=("a", "b*c")),
        dict(name="x", kind="continuous", low=2.0, high=2.0),
        dict(name="x", kind="continuous", low=1.0, high=float("inf")),
        dict(name="x", kind="continuous", levels=("a", "b")),
        dict(name=" x", kind="continuous"),
        dict(name="", kind="continuous"),
    ],
)
def test_factor_validation_rejects(kwargs):
    with pytest.raises(ValidationError):
        define_factor(**kwargs)


# ---------------------------------------------------------------- terms


def test_term_is_whole_plot_only_when_all_factors_are_hard():
    hard = define_factor("w", "continuous", hard_to_change=True)
    hard2 = define_factor("v", "continuous", hard_to_change=True)
    easy = define_factor("s", "continuous")
    facs = (hard, hard2, easy)
    assert classify_term(("w",), facs) == WHOLE_PLOT
    assert classify_term(("w", "v"), facs) == WHOLE_PLOT
    assert classify_term(("s",), facs) == SUBPLOT
    assert classify_term(("w", "s"), facs) == SUBPLOT
    with pytest.raises(ValidationError):
        classify_term(("unknown",), facs)


def test_interaction_df_is_product_of_level_counts_minus_one():
    three = define_factor("a", "categorical", levels=("p", "q", "r"))
    two = two_level("b")
    cont = define_factor("c", "continuous")
    m = build_model([three, two, cont], "mains_and_all_2fi")
    df = {t.label: t.df for t in m.terms}
    assert df["a"] == 2
    assert df["b"] == 1
    assert df["c"] == 1
    assert df["a*b"] == 2
    assert df["a*c"] == 2
    assert df["b*c"] == 1


def test_term_columns_partition_the_model_columns_in_term_order():
    three = define_factor("a", "categorical", levels=("p", "q", "r"), hard_to_change=True)
    m = build_model([three, two_level("b"), define_factor("c", "continuous")])
    labels = column_labels(m)
    cols = m.term_columns
    assert len(cols) == len(m.terms)
    assert cols[0].start == 1 and cols[-1].stop == m.n_parameters == len(labels)
    for term, this, after in zip(m.terms, cols, cols[1:] + (None,)):
        assert this.stop - this.start == term.df
        assert after is None or this.stop == after.start
        # a column label is its term's label with the level tags dropped
        assert [re.sub(r"\[[^]]*\]", "", lab) for lab in labels[this]] == [term.label] * term.df


def test_model_term_order_is_canonical(tin_model):
    labels = [t.label for t in tin_model.terms]
    assert labels == [
        "nut_weight",
        "tension",
        "twist",
        "ramp_height",
        "nut_weight*tension",
        "nut_weight*twist",
        "nut_weight*ramp_height",
        "tension*twist",
        "tension*ramp_height",
        "twist*ramp_height",
    ]


def test_explicit_terms_are_sorted_into_canonical_order():
    facs = [two_level("a", hard=True), two_level("b"), two_level("c")]
    m = build_model(facs, ["c*a", "b", "a"])
    assert [t.label for t in m.terms] == ["a", "b", "a*c"]


def test_mains_only_policy():
    facs = [two_level("a", hard=True), two_level("b")]
    m = build_model(facs, "mains_only")
    assert [t.label for t in m.terms] == ["a", "b"]
    assert m.n_parameters == 3


@pytest.mark.parametrize(
    "terms",
    [
        "mains_and_everything",
        ["a*a"],
        ["a*b*c"],
        ["unknown"],
        ["a", "a"],
        ["a*b", "b*a"],
    ],
)
def test_build_model_rejects_bad_term_lists(terms):
    facs = [two_level("a"), two_level("b"), two_level("c")]
    with pytest.raises(ValidationError):
        build_model(facs, terms)


def test_build_model_rejects_duplicate_factors():
    with pytest.raises(ValidationError):
        build_model([two_level("a"), two_level("a")])
    with pytest.raises(ValidationError):
        build_model([])


# ---------------------------------------------------------------- df budgets


def test_tin_whole_plot_budget(tin_model):
    rep = count_whole_plot_df(tin_model)
    assert rep.level == WHOLE_PLOT
    assert rep.per_term_df == (("nut_weight", 1),)
    assert rep.model_df == 2
    assert rep.error_df == 4
    assert rep.min_units == 6


def test_tin_subplot_budget_with_nine_error_df(tin_model):
    rep = count_subplot_df(tin_model, n_whole_plots=6, proposed_error_df=9)
    assert rep.level == SUBPLOT
    assert rep.takeover_df == 6
    assert sum(df for _, df in rep.per_term_df) == 9
    assert rep.model_df == 15
    assert rep.error_df == 9
    assert rep.min_units == 24
    assert rep.meets_minimum


def test_tin_subplot_budget_defaults_to_minimum_error(tin_model):
    rep = count_subplot_df(tin_model, n_whole_plots=6)
    assert rep.error_df == 5
    assert rep.min_units == 20


def test_subplot_budget_flags_skimpy_error_proposal(tin_model):
    rep = count_subplot_df(tin_model, n_whole_plots=6, proposed_error_df=2)
    assert not rep.meets_minimum
    assert rep.min_units == 17
    with pytest.raises(ValidationError):
        count_subplot_df(tin_model, n_whole_plots=6, proposed_error_df=-1)


def test_subplot_budget_rejects_too_few_whole_plots(tin_model):
    with pytest.raises(ValidationError):
        count_subplot_df(tin_model, n_whole_plots=5)


def test_df_budgets_add_up_on_random_models():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n_fac = int(rng.integers(1, 5))
        facs = []
        for i in range(n_fac):
            if rng.random() < 0.5:
                k = int(rng.integers(2, 5))
                levels = tuple(f"l{j}" for j in range(k))
                facs.append(
                    define_factor(f"f{i}", "categorical", levels=levels,
                                  hard_to_change=bool(rng.random() < 0.5))
                )
            else:
                facs.append(
                    define_factor(f"f{i}", "continuous",
                                  hard_to_change=bool(rng.random() < 0.5))
                )
        m = build_model(facs, "mains_and_all_2fi")
        assert m.whole_plot_model_df == 1 + sum(t.df for t in m.whole_plot_terms)
        assert m.subplot_model_df == sum(t.df for t in m.subplot_terms)
        assert m.n_parameters == m.whole_plot_model_df + m.subplot_model_df
        wp = count_whole_plot_df(m)
        assert wp.min_units == wp.model_df + wp.error_df
        r = wp.min_units + int(rng.integers(0, 3))
        sp = count_subplot_df(m, n_whole_plots=r)
        assert sp.takeover_df == r
        assert sp.min_units == r + m.subplot_model_df + sp.error_df
