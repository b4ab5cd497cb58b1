"""Design construction, model matrices and the coordinate-exchange search."""

import dataclasses
import hashlib
from unittest.mock import patch

import mpmath
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


@pytest.mark.parametrize("field, value", [
    ("n_runs", 8.0), ("n_runs", True), ("n_whole_plots", 4.5), ("n_whole_plots", "4"),
    ("n_starts", 2.5), ("n_starts", np.float64(2.0)), ("seed", 1.5), ("seed", False),
])
def test_design_spec_refuses_integer_fields_that_are_not_integers(field, value):
    """n_runs, n_whole_plots, n_starts and seed must be ints or numpy integers, not
    bools: anything else is refused with a ValidationError before generate_design
    reads it."""
    kwargs = dict(model=two_factor_model(), n_runs=8, n_whole_plots=4, n_starts=2, seed=0)
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        DesignSpec(**{**kwargs, field: value})
    DesignSpec(**{**kwargs, field: np.int64(kwargs[field])})  # a numpy integer passes


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


def test_equal_designs_hash_equal_and_key_a_dict():
    m = two_factor_model()
    d, twin = factorial_design(m), factorial_design(m)
    assert hash(d) == hash(twin)
    graded = dataclasses.replace(d, criterion=1.0)
    cell = d.settings.copy()
    cell[1, 1] = 0.0
    moved = Design(factors=d.factors, whole_plot=d.whole_plot, settings=cell)
    seen = {d: "d", graded: "graded", moved: "moved"}
    assert len(seen) == 3
    assert seen[twin] == "d"
    assert seen[dataclasses.replace(twin, criterion=1.0)] == "graded"
    assert {d, twin, moved} == {twin, moved}


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
    """A nan criterion breaks the uphill invariant; it is raised, not asserted, by the
    per-start search (one start) and by the lockstep (four)."""
    monkeypatch.setattr(design_gen._OneStart, "criterion", lambda self, settings: np.nan)
    criteria = design_gen._Exchanger._criteria

    def nan_criteria(self, codes):
        vals, m, s = criteria(self, codes)
        return np.full_like(vals, np.nan), m, s

    monkeypatch.setattr(design_gen._Exchanger, "_criteria", nan_criteria)
    for n_starts in (1, design_gen._LOCKSTEP_STARTS):
        spec = DesignSpec(model=two_factor_model(), n_runs=8, n_whole_plots=4,
                          n_starts=n_starts)
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


# ---------------------------------------------------------------- lockstep exchange


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


def start_rngs(seed, n_starts):
    """The generators generate_design gives its starts."""
    return [np.random.default_rng((seed, 0, k)) for k in range(n_starts)]


def exact_log_d(worker, codes):
    """log det(X' V^-1 X) of the design a row of lockstep codes names, from scratch."""
    return design_gen._log_det(information(worker.layout, worker.table[codes], worker.ratio))


@settings(max_examples=60, deadline=None)
@given(exchange_cases(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 7.5]))
def test_exchange_keeps_the_model_matrix_of_its_settings(case, seed, ratio):
    """After every scan, each start's codes give exactly model_matrix of its settings and
    its incumbent's log det is that design's exact criterion; every table row is
    model_matrix of the settings row its code names, and each factor's tables move
    and difference codes as they say."""
    model, layout = case
    worker = design_gen._Exchanger(model, layout, ratio)
    counts = [len(c) for c in worker.cands]
    scan = worker._scan
    scans = []

    def settings_of(codes):
        return np.stack([c[worker.digits[j][codes]] for j, c in enumerate(worker.cands)], -1)

    def checked(rows, fi):
        scan(rows, fi)
        for k, codes in enumerate(worker.codes):
            x = model_matrix(model, settings_of(codes))
            assert np.array_equal(worker.table[codes], x)
            assert worker.best[k] == design_gen._log_det(information(layout, x, ratio))
        scans.append(dict(zip(worker.ids.tolist(), worker.best.tolist())))

    worker._scan = checked
    with patch.object(design_gen, "_MAX_SWEEPS", 3):  # small models may stay singular
        settings, records = worker.run(start_rngs(seed, 3))
    assert scans
    for k, (best, sweeps, evaluations, _) in enumerate(records):
        assert [s[k] for s in scans if k in s][-1] == best
        assert best == design_gen._log_det(information(layout, model_matrix(model, settings[k]),
                                                       ratio))
        assert 1 <= sweeps <= 3 and evaluations >= 1
    for code, row in enumerate(worker.table):
        levels = np.unravel_index(code, counts)
        assert np.array_equal(row, model_matrix(model, [c[i] for c, i in zip(worker.cands, levels)])[0])
        for j, nc in enumerate(counts):
            assert worker.digits[j][code] == levels[j]
            for cand in range(nc):
                moved = worker.moves[j][code, cand]
                assert np.unravel_index(moved, counts) == levels[:j] + (cand,) + levels[j + 1:]
                assert worker.others[j][code, cand] == (cand != levels[j])
                assert worker.deltas[j][code, cand].tobytes() == (worker.table[moved] - row).tobytes()


@settings(max_examples=60, deadline=None)
@given(exchange_cases(max_plots=8), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1.0, 7.5, 1e4]), st.sampled_from([1, 2, 5]))
def test_the_lockstep_gives_every_start_its_one_start_search(case, seed, ratio, n_starts):
    """The lockstep and the per-start search leave every start with the same settings
    bytes and the same Design.search record, exact and screened counts included.  Each
    of the per-start search's cached blocks is its key row at every candidate."""
    model, layout = case
    with patch.object(design_gen, "_MAX_SWEEPS", 4):
        settings, records = design_gen._Exchanger(model, layout, ratio).run(
            start_rngs(seed, n_starts))
        one = design_gen._OneStart(model, layout, ratio)
        for k, rng in enumerate(start_rngs(seed, n_starts)):
            ref_settings, ref_record = one.run(rng)
            assert settings[k].tobytes() == ref_settings.tobytes()
            assert repr(records[k]) == repr(ref_record)
    for (fi, key), block in one.blocks.items():
        row = np.frombuffer(key).copy()
        assert row[fi] == one.cands[fi][0] and len(block) == len(one.cands[fi])
        for cand, block_row in zip(one.cands[fi], block):
            row[fi] = cand
            assert np.array_equal(block_row, model_matrix(model, row)[0])


def test_a_model_too_large_for_the_row_tables_runs_one_start_at_a_time(tin_model):
    """Above _TABLE_CELLS the starts run one after another, to the same design and
    search record."""
    spec = DesignSpec(model=tin_model, n_runs=24, n_whole_plots=6, seed=3,
                      n_starts=design_gen._LOCKSTEP_STARTS)
    d = generate_design(spec)
    with patch.object(design_gen, "_TABLE_CELLS", design_gen._table_cells(tin_model) - 1), \
            patch.object(design_gen._Exchanger, "run", side_effect=AssertionError("lockstep")):
        ref = generate_design(spec)
    assert d == ref and d.search == ref.search


@settings(max_examples=60, deadline=None)
@given(exchange_cases(max_plots=8), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False),
       st.sampled_from([0.0, 1.0, 7.5]))
def test_criterion_invariant_to_run_permutation_and_plot_relabeling_on_random_designs(
        case, seed, shuffle, ratio):
    model, layout = case
    worker = design_gen._OneStart(model, layout, ratio)
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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_the_shared_rules_on_a_stack_equal_one_matrix_at_a_time(p, data):
    """The log-D and conditioning rules both exchangers read give each slice of a
    (k, p, p) stack exactly what one 2-D call gives that slice: that is what lets the
    lockstep reproduce one start's records.  Slices are well conditioned, scaled past
    the cond_1 limit, exactly singular (a zero row and column) or negated."""
    kinds = data.draw(st.lists(st.sampled_from(["well", "ill", "singular", "negated"]),
                               min_size=1, max_size=6))
    stack = []
    for kind in kinds:
        b = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=p * p, max_size=p * p)))
        m = b.reshape(p, p) @ b.reshape(p, p).T + p * np.eye(p)  # eigenvalues in [p, p + p^2]
        if kind == "ill":
            scale = np.ones(p)
            scale[-1] = 1e-6
            m = m * scale * scale[:, None]
        elif kind == "singular":
            m[-1], m[:, -1] = 0.0, 0.0
        elif kind == "negated":
            m = -m
        stack.append(m)
    stack = np.stack(stack)

    log_d = design_gen._log_det(stack)
    assert log_d.tobytes() == np.array([design_gen._log_det(m) for m in stack]).tobytes()
    for kind, value, m in zip(kinds, log_d.tolist(), stack):
        if kind == "singular" or (kind == "negated" and p % 2):
            assert value == -np.inf
        else:
            assert value == np.linalg.slogdet(m)[1]

    nonsingular = [k for k, kind in enumerate(kinds) if kind != "singular"]
    if nonsingular:
        minv, ok = design_gen._screen_inverse(stack[nonsingular])
        for k, m_inv, m_ok in zip(nonsingular, minv, ok.tolist()):
            one_inv, one_ok = design_gen._screen_inverse(stack[k])
            assert m_inv.tobytes() == one_inv.tobytes() and m_ok is bool(one_ok)
            assert m_ok == (kinds[k] != "ill" or p == 1)  # a 1 x 1 M has cond_1 = 1


def check_every_screen(worker):
    """Wrap a lockstep worker's _screen so that each call checks its output against
    exact scores.

    For every start that screens, a screened log det within 10 of the incumbent
    must be its exact criterion to 1e-9, and one further down must stay that far
    down.  A start that does not screen at a positive log det must be held off by
    the cond_1 gate, and its row is all nan.  Returns the list of calls, True for
    each call in which some start screened.
    """
    layout, ratio, screen = worker.layout, worker.ratio, worker._screen
    calls = []

    def checked(r, fi, c):
        out = screen(r, fi, c)
        calls.append(bool(worker.lemma.any()))
        for k, best in enumerate(worker.best.tolist()):
            if not worker.lemma[k]:
                assert np.isnan(out[k]).all()
                if best > 0:
                    m = information(layout, worker.table[worker.codes[k]], ratio)
                    cond = np.abs(m).sum(axis=0).max() * np.abs(np.linalg.inv(m)).sum(axis=0).max()
                    assert not cond <= design_gen._SCREEN_MAX_COND
                continue
            assert best > 0
            for j, val in enumerate(out[k].tolist()):
                trial = worker.codes[k].copy()
                trial[r] = worker.moves[fi][c[k], j]
                exact = exact_log_d(worker, trial)
                if j == worker.digits[fi][c[k]]:
                    assert val == best
                elif np.isfinite(exact) and exact > best - 10:
                    assert abs(val - exact) <= 1e-9
                else:  # singular or nearly so: the screen must not rank it near the incumbent
                    assert not val > best - 10 + 1e-9
        return out

    worker._screen = checked
    return calls


def _unscreened(worker_factory, rngs):
    """worker_factory().run(rngs) with no incumbent screening: every candidate is exact."""
    with patch.object(design_gen, "_SCREEN_MAX_COND", -1.0):
        return worker_factory().run(rngs)


@settings(max_examples=150, deadline=None)
@given(exchange_cases(max_plots=8), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1.0, 7.5, 1e4, 1e6, 1e8]))
def test_screened_log_det_matches_the_exact_criterion(case, seed, ratio):
    """Every screen passes check_every_screen, and every start of the screened
    lockstep makes the same moves as in one that scores every candidate."""
    model, layout = case
    worker = design_gen._Exchanger(model, layout, ratio)
    check_every_screen(worker)
    with patch.object(design_gen, "_MAX_SWEEPS", 3):
        settings, records = worker.run(start_rngs(seed, 3))
        ref_settings, ref_records = _unscreened(
            lambda: design_gen._Exchanger(model, layout, ratio), start_rngs(seed, 3))
    assert settings.tobytes() == ref_settings.tobytes()
    for (best, sweeps, evaluations, _), (ref_best, ref_sweeps, ref_evaluations, ref_screened) in zip(
            records, ref_records):
        assert repr(best) == repr(ref_best) and sweeps == ref_sweeps
        assert evaluations <= ref_evaluations and ref_screened == 0


@pytest.mark.parametrize("ratio", [1e6, 1e8])
def test_screened_log_det_at_large_ratios(tin_model, ratio):
    """Small random models rarely keep a positive log det at large ratios, so the tin
    model at 48 runs covers them: the screen runs at 1e6, where the held
    M = information(X) has lost digits to cancellation, and the cond_1 gate keeps it
    off at 1e8.  Both pass check_every_screen and match a search that screens none,
    start by start."""
    layout = WholePlotLayout(tuple(int(i) for i in np.repeat(np.arange(1, 13), 4)))
    worker = design_gen._Exchanger(tin_model, layout, ratio)
    calls = check_every_screen(worker)
    rngs = lambda: [np.random.default_rng(seed) for seed in range(2)]  # noqa: E731
    settings, records = worker.run(rngs())
    ref_settings, ref_records = _unscreened(
        lambda: design_gen._Exchanger(tin_model, layout, ratio), rngs())
    assert settings.tobytes() == ref_settings.tobytes()
    for (best, sweeps, evaluations, _), (ref_best, ref_sweeps, ref_evaluations, _) in zip(
            records, ref_records):
        assert repr(best) == repr(ref_best) and sweeps == ref_sweeps and best > 0
        assert evaluations <= ref_evaluations
    assert calls and any(calls) == (ratio < 1e8)


def test_the_held_state_is_the_incumbents(tin_model):
    """Every screen reads each start's incumbent's own M and S, byte for byte, and a
    (w_r, e_r) that matches a dense from-scratch solve to 1e-12 relative."""
    ratio = 1.0
    layout = WholePlotLayout(tuple(int(i) for i in np.repeat(np.arange(1, 13), 4)))
    worker = design_gen._Exchanger(tin_model, layout, ratio)
    z = layout.indicator()
    v_inv = np.linalg.inv(np.eye(layout.n_runs) + ratio * z @ z.T)
    scan, screen = worker._scan, worker._screen
    accepted = {0: [], 1: []}
    used = {0: [], 1: []}

    def held_is_current(k):
        x = worker.table[worker.codes[k]]
        assert worker.m[k].tobytes() == information(layout, x, ratio).tobytes()
        assert worker.s[k].tobytes() == _plot_sums(layout, x).tobytes()

    def checked_scan(rows, fi):
        before, ids = worker.codes.copy(), worker.ids.copy()
        scan(rows, fi)
        for k in np.flatnonzero((worker.codes != before).any(axis=1)).tolist():
            held_is_current(k)
            accepted[ids[k]].append(worker.best[k])

    def checked_screen(r, fi, c):
        out = screen(r, fi, c)
        for k in range(len(worker.best)):
            held_is_current(k)
            if worker.lemma[k]:
                x = worker.table[worker.codes[k]]
                u = v_inv @ x  # row r is u_r
                want = np.linalg.solve(x.T @ u, u[r])
                w, e = worker.w[k, r], worker.e[k, r]
                assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max()
                assert abs(e - want @ u[r]) <= 1e-12 * abs(want @ u[r])
                used[worker.ids[k]].append(r)
        return out

    worker._scan, worker._screen = checked_scan, checked_screen
    settings, records = worker.run([np.random.default_rng(1), np.random.default_rng(2)])
    for start, (best, _, _, screened) in enumerate(records):
        assert len(accepted[start]) > 20 and accepted[start][-1] == best
        assert screened > len(used[start]) > 100 and len(set(used[start])) == layout.n_runs


@pytest.mark.parametrize("ratio", [1e4, 1e6])
def test_the_refined_w_r_is_the_rounded_solve_more_often(tin_model, ratio):
    """Each (w_r, e_r) a screen reads, against a 40-digit solve of the held M for the
    screen's own u_r; a dense float reference is too coarse at these ratios.  Both
    exchangers are checked, each run once per incumbent: the lockstep forms every run's
    terms in _refresh, one start at a time forms a run's terms when that run is first
    screened.  Both are within a few ulps of the solve with or without the refinement
    step, but the step makes more entries of w_r the correctly rounded solve: 64 % and
    62 % of them at these ratios in either exchanger, against 48 % with inv alone."""
    layout = WholePlotLayout(tuple(int(i) for i in np.repeat(np.arange(1, 13), 4)))
    run_plot_keep = design_gen._Search(tin_model, layout, ratio).run_plot_keep
    inverses, rounded = {}, {"lockstep": [], "one start": []}
    seen = {arm: set() for arm in rounded}

    def check(arm, m, s, x_r, r, w, e):
        if (m.tobytes(), r) in seen[arm]:
            return
        seen[arm].add((m.tobytes(), r))
        if m.tobytes() not in inverses:
            inverses[m.tobytes()] = mpmath.inverse(mpmath.matrix(m.tolist()))
        i = layout.zero_based[r]
        mean = s[i] / layout.sizes[i]
        u = (x_r - mean) + mean * run_plot_keep[r]  # as the screen forms it
        exact = mpmath.matrix([u.tolist()]) * inverses[m.tobytes()]
        want = np.array([float(v) for v in exact])
        want_e = float(mpmath.fsum(v * float(uj) for v, uj in zip(exact, u)))
        assert np.all(np.abs(w - want) <= 1e-14 * np.abs(want))
        assert abs(e - want_e) <= 4 * np.spacing(want_e)
        rounded[arm].extend(w == want)

    worker = design_gen._Exchanger(tin_model, layout, ratio)
    one = design_gen._OneStart(tin_model, layout, ratio)
    lockstep_screen, one_screen = worker._screen, one._screen

    def checked_lockstep_screen(r, fi, c):
        out = lockstep_screen(r, fi, c)
        for k in np.flatnonzero(worker.lemma).tolist():
            check("lockstep", worker.m[k], worker.s[k], worker.table[c[k]], r, worker.w[k, r],
                  worker.e[k, r])
        return out

    def checked_one_screen(settings, x, r, fi, best):
        out = one_screen(settings, x, r, fi, best)
        if one.lemma:
            check("one start", *one.held, x[r], r, *one.lemma[1][r])
        return out

    worker._screen, one._screen = checked_lockstep_screen, checked_one_screen
    with mpmath.workdps(40):
        worker.run([np.random.default_rng(1)])
        one.run(np.random.default_rng(1))
    for arm in rounded.values():
        assert len(arm) > 1000
        assert np.mean(arm) >= 0.56


def test_the_screen_replaces_most_exact_scores(tin_model):
    """On the tin model at 48 runs the screen scores most candidates and leaves a
    small share to the exact path, with the design of a search that screens none:
    one start at a time (2 starts) and in lockstep."""
    for n_starts in (2, design_gen._LOCKSTEP_STARTS):
        spec = DesignSpec(model=tin_model, n_runs=48, n_whole_plots=12, n_starts=n_starts,
                          seed=1)
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
# 7.5); the row cache, the screen and the lockstep must reproduce them exactly
PINNED_DESIGNS = {
    (24, 6, 20, range(50), 1.0): "66f4223ce239080256312565c461eba6a85cd712c6a92ff671da09987e4c8e9a",
    (25, 6, 20, range(50), 1.0): "3a61ec1bdfcb9ec55f94b31ed726c0e59db5ca243c394d5e554a071d9f7b784a",
    (128, 32, 2, range(4), 1.0): "8c0cd8b41669e1aae3c1331d77d9d3a4a78527eeee2f3dfb612d3872258bddce",
    (48, 12, 5, range(8), 0.0): "b6c745b83a3ffa8768a0a4b1d6b5b2ab0ea4ba59eaa547bbf968477eee879fb4",
    (48, 12, 5, range(8), 7.5): "f6ad2f142c3d88f49ad3576f1273b59a3ff9186871c48c52232f41be9f400c4c",
    # eight one-run plots
    (16, 12, 5, range(8), 7.5): "cd4b5f787299077c8990bdcbc093db863cc86b40023c9a7c3e68ab2aa20745a0",
}
# sha256 over repr(Design.search), seed by seed, for the same shapes: every start's
# criterion, sweeps, exact and screened counts, recorded with the per-start search
PINNED_SEARCHES = {
    (24, 6, 20, range(50), 1.0): "a9d47595a4266fdb5a515361c2fc92a6e53b8cdf7a91f39e699b64cd039d4d25",
    (25, 6, 20, range(50), 1.0): "22e6c3a84c54418d126635a1f8c66e68613b58c3cf37b8758ec8a13a458492cf",
    (128, 32, 2, range(4), 1.0): "6732f2eb3285147d080b033e96634e0bcde46737ac3ea252fb3fbd2cc8bdfa2e",
    (48, 12, 5, range(8), 0.0): "3c68e8302377a2b58ce05ff33e374a0346b9f4f407b2f1e4b10227f995c03d0b",
    (48, 12, 5, range(8), 7.5): "264c78aa2f12f213474b1844b840eed55b0692cf48ba5493c84aa2a5e2093974",
    (16, 12, 5, range(8), 7.5): "3754fc4002126d2a10fd5f95bd9bdc487bc9147bfaa294536c71296499b69c22",
}


def _shape_id(shape):
    n_runs, n_plots, _, _, ratio = shape
    return f"{n_runs}x{n_plots}" + ("" if ratio == 1.0 else f"-ratio{ratio:g}")


@pytest.mark.parametrize("shape", list(PINNED_DESIGNS), ids=_shape_id)
def test_seeded_designs_match_their_recorded_digests(tin_model, shape):
    n_runs, n_plots, n_starts, seeds, ratio = shape
    digest, searches = hashlib.sha256(), hashlib.sha256()
    for seed in seeds:
        d = generate_design(DesignSpec(model=tin_model, n_runs=n_runs, n_whole_plots=n_plots,
                                       ratio=ratio, n_starts=n_starts, seed=seed))
        digest.update(d.settings.tobytes())
        digest.update(repr(d.criterion).encode())
        searches.update(repr(d.search).encode())
    assert digest.hexdigest() == PINNED_DESIGNS[shape]
    assert searches.hexdigest() == PINNED_SEARCHES[shape]


# ---------------------------------------------------------------- search trace


def test_search_trace_reports_every_start(monkeypatch):
    """Each start's exact count is the number of exact scores the per-start search
    makes for it, and the lockstep scores every one of them (and at most a few
    more, which count for no start)."""
    calls, per_start, lockstep_rows = [], [], []
    criterion, run = design_gen._OneStart.criterion, design_gen._OneStart.run
    criteria = design_gen._Exchanger._criteria

    def counting_criterion(self, x):
        calls.append(1)
        return criterion(self, x)

    def counting_run(self, rng):
        before = len(calls)
        out = run(self, rng)
        per_start.append(len(calls) - before)
        return out

    def counting_criteria(self, codes):
        lockstep_rows.append(len(codes))
        return criteria(self, codes)

    monkeypatch.setattr(design_gen._OneStart, "criterion", counting_criterion)
    monkeypatch.setattr(design_gen._OneStart, "run", counting_run)
    monkeypatch.setattr(design_gen._Exchanger, "_criteria", counting_criteria)
    m = two_factor_model()
    spec = DesignSpec(model=m, n_runs=8, n_whole_plots=4, n_starts=6, seed=3)
    d = generate_design(spec)  # in lockstep
    one = design_gen._OneStart(m, d.layout, spec.ratio)
    for rng in start_rngs(spec.seed, spec.n_starts):
        one.run(rng)

    assert len(d.search) == spec.n_starts
    assert max(val for val, _, _, _ in d.search) == d.criterion
    assert [evals for _, _, evals, _ in d.search] == per_start
    assert sum(per_start) == len(calls) <= sum(lockstep_rows)
    assert all(1 <= sweeps <= design_gen._MAX_SWEEPS for _, sweeps, _, _ in d.search)

    # the trace is diagnostics: it leaves repr (and equality) alone
    bare = Design(factors=d.factors, whole_plot=d.whole_plot, settings=d.settings,
                  criterion=d.criterion)
    assert bare.search is None
    assert repr(bare) == repr(d)
    search = next(f for f in dataclasses.fields(Design) if f.name == "search")
    assert not search.compare and not search.repr
