"""Command-line surface: file grammars, CSV round trips and exit codes."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splitplot
from splitplot import Design, NumericalError, ValidationError, build_model, define_factor
from splitplot.cli import (
    _fmt,
    main,
    parse_model_text,
    parse_truth_text,
    randomize_run_order,
    read_design_csv,
    write_design_csv,
)

TWO_FACTOR_MODEL = """\
# two-factor variant of the rolling tin study
factor a continuous -1 1 hard
factor b continuous -1 1
terms mains_and_all_2fi
"""

TIN_MODEL = """\
factor nut_weight categorical light,heavy hard
factor tension continuous 1 3
factor twist categorical no,yes
factor ramp_height continuous 10 30
"""

TIN_DESIGN_CSV = """\
run_id,whole_plot,nut_weight,tension,twist,ramp_height
1,1,light,1.0,no,10.0
2,1,light,3.0,yes,30.0
3,2,heavy,1.0,yes,10.0
4,2,heavy,3.0,no,30.0
5,3,light,2.0,yes,20.0
6,3,light,1.0,no,30.0
7,4,heavy,3.0,yes,10.0
8,4,heavy,2.0,no,20.0
"""

TRUTH_TEXT = """\
# single response on the two-factor model
seed = 4
y.intercept = 10
y.coef.a = 3
y.coef.b = 2
y.coef.a*b = 1
y.sigma_gamma = 0.5
y.sigma_epsilon = 1
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(TWO_FACTOR_MODEL)
    return path


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text(TRUTH_TEXT)
    return path


def small_design():
    m = build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_and_all_2fi",
    )
    settings = np.array(
        [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0],
         [0.0, 0.5], [0.0, -0.5], [1.0, 0.0], [1.0, 1.0]]
    )
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2, 3, 3, 4, 4), settings=settings)
    return d, m


# ---------------------------------------------------------------- formatting


def test_fmt_canonical_cells():
    assert _fmt(-0.0) == "0.0"
    assert _fmt(1.5) == "1.5"
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(1 / 3) == repr(1 / 3)
    assert _fmt(3) == "3"
    assert _fmt(np.int64(-7)) == "-7"
    assert _fmt("heavy") == "heavy"
    with pytest.raises(ValidationError):
        _fmt(True)


# ---------------------------------------------------------------- grammars


def test_model_grammar():
    m = parse_model_text(TWO_FACTOR_MODEL)
    assert m.factor_names == ("a", "b")
    assert m.factor("a").hard_to_change
    assert not m.factor("b").hard_to_change
    assert [t.label for t in m.terms] == ["a", "b", "a*b"]

    tin = parse_model_text(TIN_MODEL)  # terms line omitted: full default model
    assert tin.factor("nut_weight").levels == ("light", "heavy")
    assert tin.factor("ramp_height").high == 30.0
    assert len(tin.terms) == 10

    explicit = parse_model_text(
        "factor a continuous -1 1\nfactor b continuous -1 1\nterms b a\n"
    )
    assert [t.label for t in explicit.terms] == ["a", "b"]
    only_mains = parse_model_text(
        "factor a continuous -1 1\nfactor b continuous -1 1\nterms mains_only\n"
    )
    assert [t.label for t in only_mains.terms] == ["a", "b"]


@pytest.mark.parametrize(
    "text",
    [
        "widget a continuous -1 1\n",
        "factor a sorta -1 1\n",
        "factor a continuous -1\n",
        "factor a continuous -1 one\n",
        "factor g categorical\n",
        "factor g categorical p,q extra_field junk\n",
        "factor g categorical onlyone\n",
        "factor a continuous -1 1\nterms a\nterms a\n",
        "terms a\n",
        "# nothing but commentary\n",
        "",
    ],
)
def test_model_grammar_rejects(text):
    with pytest.raises(ValidationError):
        parse_model_text(text)


def test_truth_grammar():
    truth = parse_truth_text(TRUTH_TEXT)
    assert truth.seed == 4
    y = truth.responses["y"]
    assert y.intercept == 10.0
    assert y.coefficients == {"a": 3.0, "b": 2.0, "a*b": 1.0}
    assert y.sigma_gamma == 0.5
    assert y.sigma_epsilon == 1.0

    sparse = parse_truth_text("z.sigma_epsilon = 2\n")
    z = sparse.responses["z"]
    assert z.intercept == 0.0 and z.coefficients == {} and z.sigma_gamma == 0.0
    assert sparse.seed == 0


@pytest.mark.parametrize(
    "text",
    [
        "seed = 1.5\n",
        "y.intercept 10\n",
        "lonely = 3\n",
        "y.intercept.extra = 3\n",
        "y.mystery = 3\n",
        "y.coef = 3\n",
        "y.coef.a = fast\n",
        "seed = 7\n",  # seed alone declares no responses
        "",
    ],
)
def test_truth_grammar_rejects(text):
    with pytest.raises(ValidationError):
        parse_truth_text(text)


# ---------------------------------------------------------------- CSV io


def test_design_csv_round_trip_is_byte_stable(tmp_path):
    m = build_model(
        [
            define_factor("a", "continuous", low=10.0, high=30.0, hard_to_change=True),
            define_factor("g", "categorical", levels=("p", "q")),
        ],
        "mains_only",
    )
    settings = np.array([[-1.0, 0.0], [-1.0, 1.0], [0.5, 1.0], [0.5, 0.0]])
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2), settings=settings)
    first = tmp_path / "d1.csv"
    second = tmp_path / "d2.csv"
    write_design_csv(first, d)
    text = first.read_text()
    assert text.splitlines()[0] == "run_id,whole_plot,a,g"
    assert text.splitlines()[1] == "1,1,10.0,p"
    assert text.splitlines()[3] == "3,2,25.0,q"

    back, responses = read_design_csv(first, m)
    assert responses == {}
    assert back.whole_plot == d.whole_plot
    assert back.settings == pytest.approx(d.settings, abs=1e-12)
    write_design_csv(second, back)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def csv_designs(draw):
    """A design over random continuous (random natural range) and 2- or 3-level
    factors, hard and easy, on a shuffled layout of unequal plots that always
    includes a one-run plot; ranges have 3 decimals, coded values sit on a 0.001 grid."""
    kinds = draw(st.lists(st.sampled_from(["continuous", 2, 3]), min_size=1, max_size=4))
    factors = []
    for i, kind in enumerate(kinds):
        hard = draw(st.booleans())
        if kind == "continuous":
            low = draw(st.integers(-10**6, 10**6)) / 1000
            high = low + draw(st.integers(1, 10**6)) / 1000
            factors.append(define_factor(f"f{i}", "continuous", low=low, high=high,
                                         hard_to_change=hard))
        else:
            factors.append(define_factor(f"f{i}", "categorical", levels=("p", "q", "r")[:kind],
                                         hard_to_change=hard))
    model = build_model(factors, "mains_only")
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)) + [1]
    plots = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    plots = plots[draw(st.permutations(range(len(plots))))]

    def values(f, n):
        codes = st.integers(0, f.n_levels - 1) if f.is_categorical else st.integers(-1000, 1000)
        vals = np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=float)
        return vals if f.is_categorical else vals / 1000

    settings = np.column_stack([
        values(f, len(sizes))[plots - 1] if f.hard_to_change else values(f, len(plots))
        for f in factors
    ])
    return model, Design(factors=model.factors, whole_plot=tuple(plots.tolist()),
                         settings=settings)


def _snap_case():
    """215.2263 converts to coded -0.8500000000000001, which rewrites as 215.22629999999998
    unless the reader takes the shorter -0.85 that writes 215.2263 too."""
    m = build_model([define_factor("a", "continuous", low=184.05, high=599.734)], "mains_only")
    return m, Design(factors=m.factors, whole_plot=(1,), settings=[[-0.85]])


@settings(max_examples=60, deadline=None)
@given(csv_designs())
@example(_snap_case())
def test_design_csv_round_trip_is_byte_stable_on_random_designs(tmp_path_factory, case):
    model, d = case
    tmp_path = tmp_path_factory.mktemp("csv")
    first, second = tmp_path / "d1.csv", tmp_path / "d2.csv"
    write_design_csv(first, d)
    back, responses = read_design_csv(first, model)
    assert responses == {}
    assert back.whole_plot == d.whole_plot
    # natural-unit text carries a coded value only to the float spacing of the range
    for f, got, want in zip(model.factors, back.settings.T, d.settings.T):
        spacing = np.spacing(max(abs(f.low), abs(f.high))) / ((f.high - f.low) / 2)
        assert np.all(np.abs(got - want) <= (0.0 if f.is_categorical else 1e-12 + 8 * spacing))
    write_design_csv(second, back)
    assert second.read_bytes() == first.read_bytes()
    # the drawn settings are k/1000, the shortest decimals that write their text
    assert back == d


@pytest.mark.parametrize("low, high, coded", [
    (8.0, 8.001, 0.0),
    (1000.0, 1000.001, 0.5),
    (8.0, 8.001, 0.123456789),
    (1e13, 1e13 + 1, 0.25),
    (1e13, 1e13 + 1, -0.35),
])
def test_design_csv_round_trip_is_exact_on_narrow_ranges_far_from_zero(
    tmp_path, low, high, coded
):
    """There the text round trip moves a coded value by ~1e-10 to ~0.01; the reader
    takes the shortest coded decimal that writes the same text, which recovers it
    exactly: coded 0 on [8, 8.001] as +0.0, not the -0.0 it rounds to, and 0.25 and
    -0.35 on [1e13, 1e13 + 1], not the 0.2 and -0.4 of a grid sized to that fuzz."""
    m = build_model([define_factor("a", "continuous", low=low, high=high)], "mains_only")
    d = Design(factors=m.factors, whole_plot=(1, 1), settings=[[coded], [-1.0]])
    first, second = tmp_path / "d1.csv", tmp_path / "d2.csv"
    write_design_csv(first, d)
    back, _ = read_design_csv(first, m)
    assert back.settings.tolist() == [[coded], [-1.0]]
    assert back == d  # settings bytes, so -0.0 for 0.0 fails
    write_design_csv(second, back)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("low, high", [("1e15", "1000000000000001"), ("1e14", "100000000000001")])
def test_design_csv_reads_a_range_narrow_for_its_magnitude_exactly(tmp_path, low, high):
    """On these ranges the text round trip moves a coded value by 0.04 to 0.4, yet -1,
    0.5, 1 and 0 are the shortest coded decimals that write their cells, so they read
    back exactly, and every command that reads a design exits 0."""
    model_path = tmp_path / "narrow.model"
    model_path.write_text(f"factor a continuous {low} {high}\nterms mains_only\n")
    truth_path = tmp_path / "truth.txt"
    truth_path.write_text("y.intercept = 1\ny.coef.a = 2\ny.sigma_epsilon = 1\n")
    m = parse_model_text(model_path.read_text())
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2), settings=[[-1.0], [0.5], [1.0], [0.0]])
    first, second = tmp_path / "d1.csv", tmp_path / "d2.csv"
    write_design_csv(first, d)
    back, _ = read_design_csv(first, m)
    assert back == d
    write_design_csv(second, back)
    assert second.read_bytes() == first.read_bytes()
    data = tmp_path / "data.csv"
    for argv in (["eval", first], ["simulate", first, "--truth", truth_path, "--out", data],
                 ["fit", data], ["profile", data, "--goal", "y:maximize"]):
        assert main([argv[0], str(model_path), *map(str, argv[1:])]) == 0, argv[0]


def test_design_csv_reads_a_range_with_one_decimal_exactly(tmp_path):
    """1e13 to 1e13 + 1: -1, 0, 0.5 and 1 read back exactly."""
    m = build_model([define_factor("a", "continuous", low=1e13, high=1e13 + 1)], "mains_only")
    d = Design(factors=m.factors, whole_plot=(1, 1, 2, 2), settings=[[-1.0], [0.0], [0.5], [1.0]])
    path = tmp_path / "d.csv"
    write_design_csv(path, d)
    back, _ = read_design_csv(path, m)
    assert back.settings.tolist() == [[-1.0], [0.0], [0.5], [1.0]]


def test_design_csv_with_responses(tmp_path):
    d, m = small_design()
    path = tmp_path / "data.csv"
    write_design_csv(path, d, {"y": np.arange(8.0) / 3.0})
    back, responses = read_design_csv(path, m)
    assert list(responses) == ["y"]
    assert responses["y"] == pytest.approx(np.arange(8.0) / 3.0, abs=1e-15)
    assert back.settings == pytest.approx(d.settings)


def bad_csv(text, line=None):
    """A rejected design CSV, and the line its message names (None: no row)."""
    return pytest.param(text, line, id=text)


@pytest.mark.parametrize(
    "text,line",
    [
        bad_csv(""),  # empty file
        bad_csv("run_id,whole_plot,a,b\n"),  # header only
        bad_csv("run,plot,a,b\n1,1,0,0\n"),  # wrong header
        bad_csv("run_id,whole_plot,b,a\n1,1,0,0\n"),  # factor order must match the model
        bad_csv("run_id,whole_plot,a,b,y,y\n1,1,0,0,1,2\n"),  # duplicate response column
        bad_csv("run_id,whole_plot,a,b\n1,1,0\n", 2),  # short row
        bad_csv("run_id,whole_plot,a,b\n1,1,0,0\n1,2,1,1\n"),  # duplicate run_id
        bad_csv("run_id,whole_plot,a,b\none,1,0,0\n", 2),  # non-integer run id
        bad_csv("run_id,whole_plot,a,b\n1,first,0,0\n", 2),  # non-integer whole plot
        bad_csv("run_id,whole_plot,a,b\n1,1,fast,0\n", 2),  # non-numeric factor cell
        bad_csv("run_id,whole_plot,a,b\n1,1,0,nan\n", 2),  # non-finite factor cell
        bad_csv("run_id,whole_plot,a,b\n1,1,0,inf\n", 2),  # non-finite factor cell
        bad_csv("run_id,whole_plot,a,b\n1,1,0,0\n2,1,0,nan\n", 3),  # non-finite, second row
        bad_csv("run_id,whole_plot,a,b\n1,1,0,0\n2,1,0,5\n", 3),  # out of range, second row
        bad_csv("run_id,whole_plot,a,b\n1,1,0,0\n2,3,1,1\n"),  # plot ids skip 2
        bad_csv("run_id,whole_plot,a,b,y\n1,1,0,0,big\n", 2),  # non-numeric response
    ],
)
def test_read_design_csv_rejects(tmp_path, text, line):
    m = build_model(
        [
            define_factor("a", "continuous", hard_to_change=True),
            define_factor("b", "continuous"),
        ],
        "mains_only",
    )
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        read_design_csv(path, m)
    if line is not None:
        assert str(exc.value).startswith(f"{path} line {line}: ")


def test_read_design_csv_rejects_unknown_level(tmp_path):
    m = build_model([define_factor("g", "categorical", levels=("p", "q"))], "mains_only")
    path = tmp_path / "bad.csv"
    path.write_text("run_id,whole_plot,g\n1,1,p\n2,1,r\n")
    with pytest.raises(ValidationError, match="line 3: 'r' is not a level"):
        read_design_csv(path, m)


def test_randomize_run_order_keeps_plots_intact():
    d, _ = small_design()
    shuffled = randomize_run_order(d, np.random.default_rng(12))
    again = randomize_run_order(d, np.random.default_rng(12))
    other = randomize_run_order(d, np.random.default_rng(13))

    rows = lambda des: sorted(
        (des.whole_plot[i], *des.settings[i]) for i in range(des.n_runs)
    )
    assert rows(shuffled) == rows(d)
    assert shuffled.whole_plot == again.whole_plot
    assert np.array_equal(shuffled.settings, again.settings)
    assert shuffled.whole_plot != other.whole_plot or not np.array_equal(
        shuffled.settings, other.settings
    )
    # runs from one plot stay adjacent
    seen = []
    for p in shuffled.whole_plot:
        if not seen or seen[-1] != p:
            seen.append(p)
    assert sorted(seen) == [1, 2, 3, 4]


# ---------------------------------------------------------------- subcommands


def test_plan_command(model_file, tmp_path, capsys):
    prefix = str(tmp_path / "plan_")
    rc = main(["plan", str(model_file), "--out-prefix", prefix])
    out = capsys.readouterr().out
    assert rc == 0
    assert "whole-plot level" in out
    assert "minimum whole plots" in out
    assert "total runs" in out
    wp = (tmp_path / "plan_whole_plot.csv").read_text().splitlines()
    sp = (tmp_path / "plan_subplot.csv").read_text().splitlines()
    assert wp[0] == "source,df"
    assert wp[-1].startswith("minimum_whole_plots,")
    assert sp[0] == "source,df"
    assert sp[-1].startswith("total_runs,")


def test_plan_warns_on_skimpy_error_budget(model_file, capsys):
    rc = main(["plan", str(model_file), "--whole-plots", "6", "--subplot-error-df", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warning: error df below the minimum" in out


def test_design_command_deterministic_bytes(model_file, tmp_path, capsys):
    first = tmp_path / "d1.csv"
    second = tmp_path / "d2.csv"
    args = ["design", str(model_file), "--runs", "8", "--whole-plots", "4",
            "--starts", "3", "--seed", "11"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    err = capsys.readouterr().err
    assert first.read_bytes() == second.read_bytes()
    assert "log D criterion:" in err


@pytest.mark.parametrize("runs, plots, short", [
    ("24", "2", "0 whole-plot"), ("16", "12", "-5 subplot"), ("24", "6", None)])
def test_design_warns_when_a_level_has_no_error_df_left(tmp_path, capsys, runs, plots, short):
    """A design that leaves fewer than 1 error df at a level, which eval, fit and profile
    refuse, gets one warning line after the criterion, naming each short level with its
    df; the exit code and stdout stay as they are.  The README's 24 x 6 tin design
    leaves 4 and 9 df and gets none."""
    model_path = tmp_path / "tin.txt"
    model_path.write_text(TIN_MODEL)
    out = tmp_path / "d.csv"
    args = ["design", str(model_path), "--runs", runs, "--whole-plots", plots,
            "--starts", "2", "--seed", "0", "--out", str(out)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and out.read_text().startswith("run_id,whole_plot,")
    lines = captured.err.splitlines()
    assert lines[0].startswith("log D criterion: ")
    if short is None:
        assert len(lines) == 1 and "warning" not in captured.err
    else:
        assert lines[1:] == [f"warning: this design leaves {short} error df; eval, fit and "
                             f"profile need at least 1 at each level"]


def test_design_command_run_order(model_file, tmp_path):
    m = parse_model_text(TWO_FACTOR_MODEL)
    canonical = tmp_path / "canonical.csv"
    shuffled = tmp_path / "shuffled.csv"
    base = ["design", str(model_file), "--runs", "8", "--whole-plots", "4",
            "--starts", "3", "--seed", "11"]
    assert main(base + ["--no-randomize", "--out", str(canonical)]) == 0
    assert main(base + ["--out", str(shuffled)]) == 0
    d0, _ = read_design_csv(canonical, m)
    d1, _ = read_design_csv(shuffled, m)
    assert d0.whole_plot == (1, 1, 2, 2, 3, 3, 4, 4)
    rows = lambda des: sorted(
        (des.whole_plot[i], *des.settings[i]) for i in range(des.n_runs)
    )
    assert rows(d0) == rows(d1)


def test_design_command_to_stdout(model_file, capsys):
    rc = main(["design", str(model_file), "--runs", "8", "--whole-plots", "4",
               "--starts", "2", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "run_id,whole_plot,a,b"
    assert len(captured.out.splitlines()) == 9


def test_out_dash_prints_what_out_file_writes(model_file, truth_file, tmp_path,
                                              monkeypatch, capsys):
    """design, simulate and profile with --out - print the bytes --out <file>
    writes (profile after its report), and no file named '-' appears."""
    monkeypatch.chdir(tmp_path)
    steps = [
        (["design", str(model_file), "--runs", "8", "--whole-plots", "4",
          "--starts", "2", "--seed", "3"], "design.csv"),
        (["simulate", str(model_file), "design.csv", "--truth", str(truth_file)], "data.csv"),
        (["profile", str(model_file), "data.csv", "--goal", "y:maximize"], "rec.csv"),
    ]
    for argv, name in steps:
        assert main([*argv, "--out", name]) == 0
        to_file = capsys.readouterr().out.encode("utf-8") + (tmp_path / name).read_bytes()
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == to_file, argv[0]
        assert not (tmp_path / "-").exists(), argv[0]


def test_eval_command(model_file, tmp_path, capsys):
    design_path = tmp_path / "design.csv"
    main(["design", str(model_file), "--runs", "8", "--whole-plots", "4",
          "--starts", "3", "--seed", "11", "--out", str(design_path)])
    capsys.readouterr()
    prefix = str(tmp_path / "eval_")
    rc = main(["eval", str(model_file), str(design_path), "--snr", "1.5",
               "--out-prefix", prefix])
    out = capsys.readouterr().out
    assert rc == 0
    assert "power at snr=1.5" in out
    assert "variance inflation" in out
    power = (tmp_path / "eval_power.csv").read_text().splitlines()
    assert power[0] == "term,level,variance_factor,noncentrality,error_df,power"
    assert len(power) == 4  # a, b, a*b
    corr = (tmp_path / "eval_correlation.csv").read_text().splitlines()
    assert len(corr) == 4  # header plus one row per non-intercept column
    vif = (tmp_path / "eval_vif.csv").read_text().splitlines()
    assert len(vif) == 4


def test_simulate_fit_profile_pipeline(model_file, truth_file, tmp_path, capsys):
    design_path = tmp_path / "design.csv"
    data_path = tmp_path / "data.csv"
    main(["design", str(model_file), "--runs", "12", "--whole-plots", "4",
          "--starts", "3", "--seed", "2", "--out", str(design_path)])
    capsys.readouterr()

    rc = main(["simulate", str(model_file), str(design_path),
               "--truth", str(truth_file), "--seed", "7", "--out", str(data_path)])
    assert rc == 0
    header = data_path.read_text().splitlines()[0]
    assert header == "run_id,whole_plot,a,b,y"

    rerun = tmp_path / "data2.csv"
    rc = main(["simulate", str(model_file), str(design_path),
               "--truth", str(truth_file), "--seed", "7", "--out", str(rerun)])
    assert rc == 0
    assert rerun.read_bytes() == data_path.read_bytes()
    capsys.readouterr()

    prefix = str(tmp_path / "fit_")
    rc = main(["fit", str(model_file), str(data_path), "--out-prefix", prefix])
    out = capsys.readouterr().out
    assert rc == 0
    assert "response: y" in out
    assert "term tests" in out
    coef = (tmp_path / "fit_coefficients.csv").read_text().splitlines()
    assert coef[0] == "column,estimate,se"
    assert len(coef) == 5  # intercept, a, b, a*b
    tests = (tmp_path / "fit_tests.csv").read_text().splitlines()
    assert len(tests) == 4
    resid = (tmp_path / "fit_residuals.csv").read_text().splitlines()
    assert len(resid) == 13

    rec_path = tmp_path / "rec.csv"
    rc = main(["profile", str(model_file), str(data_path),
               "--goal", "y:maximize", "--out", str(rec_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recommended settings" in out
    assert "desirability:" in out
    rec = rec_path.read_text().splitlines()
    assert rec[0] == "factor,natural,coded"
    assert len(rec) == 3


def test_fit_flags_a_ratio_at_the_upper_cap(tin_design, tmp_path, capsys):
    y1 = dataclasses.replace(splitplot.default_truth().responses["y1"], sigma_epsilon=1e-5)
    tab = splitplot.simulate(tin_design, splitplot.TruthConfig(responses={"y1": y1}, seed=0))
    model_path = tmp_path / "tin.txt"
    data_path = tmp_path / "data.csv"
    model_path.write_text(TIN_MODEL)
    write_design_csv(data_path, tin_design, tab.responses)
    assert main(["fit", str(model_path), str(data_path)]) == 0
    ratio_line = capsys.readouterr().out.splitlines()[1]
    assert ratio_line.startswith("sigma2_gamma=") and ratio_line.endswith("  (boundary)")


def test_fit_and_profile_refuse_a_design_without_error_df_at_both_levels(tin_design, tmp_path,
                                                                        capsys):
    """The tin data with every run its own whole plot leaves no subplot error df, so
    REML cannot estimate the variance split: fit and profile exit 2 and print nothing."""
    tab = splitplot.simulate(tin_design, splitplot.default_truth(), seed=7)
    one_run_plots = splitplot.Design(factors=tin_design.factors, whole_plot=tuple(range(1, 25)),
                                     settings=tin_design.settings)
    model_path = tmp_path / "tin.txt"
    data_path = tmp_path / "data.csv"
    model_path.write_text(TIN_MODEL)
    write_design_csv(data_path, one_run_plots, tab.responses)
    for argv in (["fit", "--response", "y1"], ["profile", "--goal", "y1:maximize"]):
        assert main([argv[0], str(model_path), str(data_path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "22 whole-plot and -9 subplot error df" in captured.err


def test_simulate_default_truth_on_the_tin(tmp_path, capsys):
    model_path = tmp_path / "tin.txt"
    design_path = tmp_path / "tin.csv"
    model_path.write_text(TIN_MODEL)
    design_path.write_text(TIN_DESIGN_CSV)
    out_path = tmp_path / "tin_data.csv"
    rc = main(["simulate", str(model_path), str(design_path), "--seed", "1",
               "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "run_id,whole_plot,nut_weight,tension,twist,ramp_height,y1,y2"
    assert len(lines) == 9
    assert lines[1].startswith("1,1,light,1.0,no,10.0,")


def test_simulate_refuses_to_clobber_existing_responses(
    model_file, truth_file, tmp_path, capsys
):
    d, _ = small_design()
    data_path = tmp_path / "has_y.csv"
    write_design_csv(data_path, d, {"y": np.zeros(8)})
    rc = main(["simulate", str(model_file), str(data_path), "--truth", str(truth_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_merged_simulation_keeps_existing_columns(model_file, tmp_path, capsys):
    d, _ = small_design()
    data_path = tmp_path / "has_y.csv"
    out_path = tmp_path / "merged.csv"
    write_design_csv(data_path, d, {"y": np.zeros(8)})
    truth_path = tmp_path / "ztruth.txt"
    truth_path.write_text("z.intercept = 1\nz.sigma_epsilon = 0.5\n")
    rc = main(["simulate", str(model_file), str(data_path), "--truth", str(truth_path),
               "--seed", "3", "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    assert out_path.read_text().splitlines()[0] == "run_id,whole_plot,a,b,y,z"


# ---------------------------------------------------------------- exit codes


def test_validation_failures_exit_2(model_file, tmp_path, capsys):
    rc = main(["plan", str(tmp_path / "missing.txt")])
    assert rc == 2
    rc = main(["design", str(model_file), "--runs", "3", "--whole-plots", "4"])
    assert rc == 2  # fewer runs than whole plots cannot form a layout
    d, _ = small_design()
    data_path = tmp_path / "data.csv"
    write_design_csv(data_path, d, {"y": np.zeros(8), "z": np.ones(8)})
    rc = main(["fit", str(model_file), str(data_path)])
    assert rc == 2  # two responses, none selected
    rc = main(["fit", str(model_file), str(data_path), "--response", "nope"])
    assert rc == 2
    rc = main(["profile", str(model_file), str(data_path), "--goal", "justaname"])
    assert rc == 2
    rc = main(["profile", str(model_file), str(data_path), "--goal", "w:maximize"])
    assert rc == 2
    fresh = tmp_path / "no_responses.csv"
    write_design_csv(fresh, d)
    rc = main(["fit", str(model_file), str(fresh)])
    assert rc == 2
    for flags in (["--ratio", "nan"], ["--ratio", "-1"], ["--snr", "nan"]):
        rc = main(["eval", str(model_file), str(fresh), *flags])
        assert rc == 2, flags
    nan_cell = tmp_path / "nan_cell.csv"
    nan_cell.write_text(fresh.read_text().replace(",-0.5\n", ",nan\n", 1))
    rc = main(["eval", str(model_file), str(nan_cell)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "power=" not in captured.out


def test_a_range_whose_width_overflows_is_refused_at_definition(tmp_path, capsys):
    """-1e308 to 1e308 is finite with low < high, but high - low overflows, so coded
    settings would map to nan and inf: define_factor refuses it, and plan and design
    exit 2 and write nothing."""
    with pytest.raises(ValidationError, match="high - low overflows"):
        define_factor("a", "continuous", low=-1e308, high=1e308)
    define_factor("a", "continuous", low=-8e307, high=8e307)  # a width of 1.6e308 is finite
    model_path = tmp_path / "wide.model"
    model_path.write_text("factor a continuous -1e308 1e308\nterms mains_only\n")
    out = tmp_path / "design.csv"
    assert main(["plan", str(model_path)]) == 2
    assert main(["design", str(model_path), "--runs", "8", "--whole-plots", "4",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "high - low overflows" in capsys.readouterr().err


def test_unreadable_files_exit_2(model_file, tmp_path, capsys):
    """A missing or non-UTF-8 input file is invalid input that names the file."""
    latin = tmp_path / "latin1.model"
    latin.write_bytes("factor caf\xe9 continuous -1 1\n".encode("latin-1"))
    assert main(["plan", str(latin)]) == 2
    assert main(["eval", str(model_file), str(tmp_path / "missing.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read model file {latin}: 'utf-8' codec" in err
    assert f"error: cannot read design file {tmp_path / 'missing.csv'}: " in err


def test_unwritable_outputs_exit_2(model_file, tmp_path, capsys):
    """An output that cannot be opened is invalid input that names the file."""
    missing = tmp_path / "missing_dir"
    rc = main(["design", str(model_file), "--runs", "8", "--whole-plots", "4",
               "--out", str(missing / "x.csv")])
    assert rc == 2
    rc = main(["plan", str(model_file), "--out-prefix", str(missing / "p_")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: cannot write output file {missing / 'x.csv'}: " in err
    assert f"error: cannot write output file {missing / 'p_whole_plot.csv'}: " in err
    assert not missing.exists()


def test_unwritable_design_output_fails_before_the_search(
    model_file, tmp_path, capsys, monkeypatch
):
    def no_search(spec):
        raise AssertionError("the design search ran before --out was opened")

    monkeypatch.setattr(splitplot.cli, "generate_design", no_search)
    target = tmp_path / "missing_dir" / "x.csv"
    rc = main(["design", str(model_file), "--runs", "8", "--whole-plots", "4",
               "--out", str(target)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output file {target}: ")


@pytest.mark.parametrize("command", ["plan", "eval", "fit", "profile"])
@pytest.mark.parametrize("failure", ["directory", "missing_dir"])
def test_an_output_that_cannot_be_opened_fails_before_anything_is_printed(
    model_file, truth_file, tmp_path, capsys, command, failure
):
    """Every output is opened before the command computes or prints: where the last one
    is a directory or lies in a missing one, the command exits 2 with empty stdout,
    leaves the earlier outputs' existing files as they were, and names the target,
    not its temporary file."""
    design_path, data_path = tmp_path / "design.csv", tmp_path / "data.csv"
    assert main(["design", str(model_file), "--runs", "12", "--whole-plots", "4",
                 "--starts", "3", "--seed", "2", "--out", str(design_path)]) == 0
    assert main(["simulate", str(model_file), str(design_path), "--truth", str(truth_file),
                 "--out", str(data_path)]) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    prefix = out_dir / "p_" if failure == "directory" else tmp_path / "missing" / "p_"
    argv, names = {
        "plan": (["plan", str(model_file)], ["whole_plot", "subplot"]),
        "eval": (["eval", str(model_file), str(design_path)], ["power", "correlation", "vif"]),
        "fit": (["fit", str(model_file), str(data_path)], ["coefficients", "tests", "residuals"]),
        "profile": (["profile", str(model_file), str(data_path), "--goal", "y:maximize",
                     "--out", f"{prefix}rec.csv"], ["rec"]),
    }[command]
    if command != "profile":
        argv += ["--out-prefix", str(prefix)]
    targets = [prefix.parent / f"p_{name}.csv" for name in names]
    if failure == "directory":
        for target in targets[:-1]:
            target.write_bytes(b"keep these bytes\n")
        targets[-1].mkdir()
    before = sorted((p.name, p.is_dir() or p.read_bytes()) for p in out_dir.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    failed = targets[-1] if failure == "directory" else targets[0]
    assert captured.err.startswith(f"error: cannot write output file {failed}: ")
    assert ".tmp" not in captured.err
    assert sorted((p.name, p.is_dir() or p.read_bytes()) for p in out_dir.iterdir()) == before


def test_negative_seeds_exit_2(model_file, truth_file, tmp_path, capsys):
    rc = main(["design", str(model_file), "--runs", "8", "--whole-plots", "4", "--seed", "-1"])
    assert rc == 2
    d, _ = small_design()
    design_path = tmp_path / "design.csv"
    write_design_csv(design_path, d)
    rc = main(["simulate", str(model_file), str(design_path), "--truth", str(truth_file),
               "--seed", "-3"])
    assert rc == 2
    negative = tmp_path / "negative_truth.txt"
    negative.write_text(TRUTH_TEXT.replace("seed = 4", "seed = -2"))
    rc = main(["simulate", str(model_file), str(design_path), "--truth", str(negative)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: seed must be a non-negative integer") == 3


def test_a_truth_term_that_is_not_finite_exits_2_before_drawing(model_file, tmp_path, capsys,
                                                                monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("simulate drew from a truth with a non-finite term")

    monkeypatch.setattr(splitplot.cli, "simulate", no_draw)
    d, _ = small_design()
    design_path = tmp_path / "design.csv"
    write_design_csv(design_path, d)
    bad = tmp_path / "nan_truth.txt"
    bad.write_text(TRUTH_TEXT.replace("y.coef.a = 3", "y.coef.a = nan"))
    rc = main(["simulate", str(model_file), str(design_path), "--truth", str(bad)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: response 'y': truth coefficient 'a' must be a finite number, not nan\n"
    )


def test_numerical_failures_exit_3(model_file, tmp_path, capsys):
    rows = ["run_id,whole_plot,a,b,y"]
    a_vals = [-1.0, -1.0, 1.0, 1.0, 0.0, 0.0, 0.5, 0.5]
    y_vals = [0.3, -0.2, 1.1, 0.9, 0.1, -0.4, 0.6, 0.2]
    for i in range(8):
        rows.append(f"{i + 1},{i // 2 + 1},{a_vals[i]},{a_vals[i]},{y_vals[i]}")
    data_path = tmp_path / "aliased.csv"
    data_path.write_text("\n".join(rows) + "\n")
    rc = main(["fit", str(model_file), str(data_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "numerical error:" in captured.err


def test_failed_design_keeps_an_existing_output(model_file, tmp_path, capsys, monkeypatch):
    def failing_search(spec):
        raise NumericalError("search failed")

    target = tmp_path / "design.csv"
    target.write_bytes(b"run_id,whole_plot,a,b\r\nkeep these bytes\n")
    before = target.read_bytes()
    monkeypatch.setattr(splitplot.cli, "generate_design", failing_search)
    rc = main(["design", str(model_file), "--runs", "8", "--whole-plots", "4",
               "--out", str(target)])
    assert rc == 3
    assert "numerical error: search failed" in capsys.readouterr().err
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["design.csv", "model.txt"]


def test_no_subcommand_loads_scipy(tmp_path):
    """The six walkthrough steps, eval and fit included, run in one process
    without importing any scipy module."""
    model = tmp_path / "tin.model"
    model.write_text(TIN_MODEL)
    design, data = tmp_path / "design.csv", tmp_path / "data.csv"
    code = (
        "import sys\n"
        "from splitplot.cli import main\n"
        f"assert main(['plan', {str(model)!r}, '--out-prefix', {str(tmp_path / 'plan_')!r}]) == 0\n"
        f"assert main(['design', {str(model)!r}, '--runs', '24', '--whole-plots', '6',\n"
        f"             '--starts', '2', '--out', {str(design)!r}]) == 0\n"
        f"assert main(['eval', {str(model)!r}, {str(design)!r}]) == 0\n"
        f"assert main(['simulate', {str(model)!r}, {str(design)!r}, '--out', {str(data)!r}]) == 0\n"
        f"assert main(['fit', {str(model)!r}, {str(data)!r}, '--response', 'y1']) == 0\n"
        f"assert main(['profile', {str(model)!r}, {str(data)!r}, '--goal', 'y1:maximize']) == 0\n"
        "print('loaded:', *sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = os.path.dirname(os.path.dirname(splitplot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    checks = [line for line in out.stdout.splitlines() if line.startswith("loaded:")]
    assert checks == ["loaded:"]
