"""Closed-form solves and determinants for the block covariance."""

import numpy as np
import pytest
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitplot import (
    CovarianceModel,
    ValidationError,
    VarianceComponents,
    WholePlotLayout,
    log_det_v,
    reml_objective,
    solve_v,
)
from splitplot import inference
from splitplot.covariance import _inv, _slogdet, _solve, build_v, information
from splitplot.inference import _design_part


def random_layout(rng, max_runs=12):
    n = int(rng.integers(2, max_runs + 1))
    r = int(rng.integers(1, n + 1))
    if r > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=r - 1, replace=False))
    else:
        cuts = np.array([], dtype=int)
    sizes = np.diff(np.concatenate([[0], cuts, [n]]))
    return WholePlotLayout(tuple(int(v) for v in np.repeat(np.arange(1, r + 1), sizes)))


# ---------------------------------------------------------------- LAPACK helpers


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(1, 12), st.integers(-12, 12), st.integers(0, 2**32 - 1))
def test_lapack_helpers_round_as_numpy(k, p, decades, seed):
    """_slogdet, _solve and _inv give the bits of np.linalg.slogdet, solve and inv on one
    p x p matrix (k = 0) or a stack of k: solve with a (k, p, 1) right-hand side, and
    with a 1-d one on one matrix.  A matrix with a zero row is exactly singular:
    slogdet's sign is 0 and its log -inf, as numpy's."""
    rng = np.random.default_rng(seed)
    shape = (k, p, p) if k else (p, p)
    a = rng.normal(size=shape) * rng.lognormal(size=shape) * 10.0 ** decades
    rhs = rng.normal(size=(*shape[:-1], 1))
    vector = rng.normal(size=p)
    one = a[0] if k else a
    singular = a.copy()
    singular[..., rng.integers(p), :] = 0.0
    for matrix in (a, one, singular):
        assert all(map(_same_bits, _slogdet(matrix), np.linalg.slogdet(matrix)))
    sign, log = _slogdet(singular)
    assert np.all(sign == 0.0) and np.all(log == -np.inf)
    assume(np.all(np.linalg.slogdet(a)[0] != 0.0))  # solve and inv need a nonsingular a
    assert _same_bits(_solve(a, rhs), np.linalg.solve(a, rhs))
    assert _same_bits(_solve(one, vector), np.linalg.solve(one, vector))
    assert _same_bits(_inv(a), np.linalg.inv(a))


# ---------------------------------------------------------------- layout


def test_layout_sizes_and_indicator():
    layout = WholePlotLayout((1, 1, 1, 2, 2, 3))
    assert layout.n_runs == 6
    assert layout.n_plots == 3
    assert layout.sizes.tolist() == [3, 2, 1]
    z = layout.indicator()
    assert z.shape == (6, 3)
    # Z Z' is exactly the same-plot mask
    a = layout.zero_based
    assert np.array_equal(z @ z.T, (a[:, None] == a[None, :]).astype(float))


@pytest.mark.parametrize(
    "assignment",
    [
        (),
        (0, 1),
        (1, 3),          # plot 2 missing
        (2, 2),          # does not start at 1
        (1.0, 1.0),      # not integers
    ],
)
def test_layout_validation(assignment):
    with pytest.raises(ValidationError):
        WholePlotLayout(assignment)


def test_components_validation():
    assert VarianceComponents(2.0, 4.0).ratio == 0.5
    assert VarianceComponents(0.0, 1.0).ratio == 0.0
    with pytest.raises(ValidationError):
        VarianceComponents(-1.0, 1.0)
    with pytest.raises(ValidationError):
        VarianceComponents(1.0, 0.0)
    with pytest.raises(ValidationError):
        VarianceComponents(float("nan"), 1.0)


# ---------------------------------------------------------------- hand cases


def test_two_run_plot_by_hand():
    # V = [[2, 1], [1, 2]], inverse = [[2, -1], [-1, 2]] / 3
    cov = CovarianceModel(WholePlotLayout((1, 1)), VarianceComponents(1.0, 1.0))
    assert np.array_equal(build_v(cov), [[2.0, 1.0], [1.0, 2.0]])
    out = solve_v(cov, np.array([1.0, 0.0]))
    assert out == pytest.approx([2.0 / 3.0, -1.0 / 3.0], abs=1e-15)
    assert log_det_v(cov) == pytest.approx(np.log(3.0), abs=1e-15)


def test_zero_plot_variance_collapses_to_scaled_identity():
    cov = CovarianceModel(
        WholePlotLayout((1, 1, 2, 2, 2)), VarianceComponents(0.0, 2.5)
    )
    assert np.array_equal(build_v(cov), 2.5 * np.eye(5))
    b = np.arange(5.0)
    assert solve_v(cov, b) == pytest.approx(b / 2.5, abs=1e-15)
    assert log_det_v(cov) == pytest.approx(5 * np.log(2.5), abs=1e-12)


def test_solve_preserves_rhs_shape():
    cov = CovarianceModel(WholePlotLayout((1, 1, 2)), VarianceComponents(1.0, 1.0))
    vec = solve_v(cov, np.ones(3))
    assert vec.shape == (3,)
    mat = solve_v(cov, np.ones((3, 4)))
    assert mat.shape == (3, 4)
    assert np.array_equal(mat[:, 0], vec)
    with pytest.raises(ValidationError):
        solve_v(cov, np.ones(4))


# ---------------------------------------------------------------- dense oracle


def test_closed_form_matches_dense_oracle():
    """solve_v and log_det_v against numpy dense linear algebra."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        layout = random_layout(rng)
        comps = VarianceComponents(
            float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.2, 5.0))
        )
        cov = CovarianceModel(layout, comps)
        v = build_v(cov)
        b = rng.normal(size=(layout.n_runs, 3))
        assert solve_v(cov, b) == pytest.approx(np.linalg.solve(v, b), abs=1e-10)
        sign, ld = np.linalg.slogdet(v)
        assert sign > 0
        assert log_det_v(cov) == pytest.approx(ld, abs=1e-10)


def test_covariance_is_positive_definite():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cov = CovarianceModel(
            random_layout(rng),
            VarianceComponents(float(rng.uniform(0, 10)), float(rng.uniform(0.1, 10))),
        )
        np.linalg.cholesky(build_v(cov))  # raises if not PD


# ---------------------------------------------------------------- kernel properties

# no plot effect, a barely-there one, equal components, plot effect dominant
ETAS = (0.0, 1e-8, 1.0, 1e6)


@st.composite
def layouts(draw):
    """Up to 7 plots of 1..4 runs, always one single-run plot, runs in shuffled order."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=6)) + [1]
    sizes = draw(st.permutations(sizes))
    plots = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    order = draw(st.permutations(range(len(plots))))
    return WholePlotLayout(tuple(int(plots[i]) for i in order))


def unit_v(layout, eta):
    return build_v(CovarianceModel(layout, VarianceComponents(eta, 1.0)))


@settings(max_examples=200, deadline=None)
@given(layouts(), st.sampled_from(ETAS), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_information_matches_dense_oracle(layout, eta, k, seed):
    b = np.random.default_rng(seed).normal(size=(layout.n_runs, k))
    dense = np.linalg.solve(unit_v(layout, eta), b)
    # dense solves lose about cond(V) * eps, cond(V) <= 1 + 4 * 1e6
    unit = CovarianceModel(layout, VarianceComponents(eta, 1.0))
    assert solve_v(unit, b) == pytest.approx(
        dense, abs=1e-8 * (1.0 + float(np.max(np.abs(b))))
    )
    got = information(layout, b, eta)
    assert got.shape == (k, k)
    assert got == pytest.approx(b.T @ dense, abs=1e-8 * (1.0 + float(np.sum(b * b))))


def dense_reml_objective(eta, x, y, layout):
    """-2 restricted log likelihood at the profiled error variance, up to a constant."""
    v = unit_v(layout, eta)
    m = x.T @ np.linalg.solve(v, x)
    beta = np.linalg.solve(m, x.T @ np.linalg.solve(v, y))
    resid = y - x @ beta
    n, p = x.shape
    return (
        np.linalg.slogdet(v)[1]
        + np.linalg.slogdet(m)[1]
        + (n - p) * np.log(resid @ np.linalg.solve(v, resid))
    )


@settings(max_examples=200, deadline=None)
@given(layouts(), st.sampled_from(ETAS), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_reml_objective_matches_dense_formula(layout, eta, p, seed):
    n = layout.n_runs
    assume(n > p)
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    want = dense_reml_objective(eta, x, y, layout)
    assert reml_objective(eta, x, y, layout) == pytest.approx(want, abs=1e-6)


def extended_reml_objective(eta, x, y, layout):
    """dense_reml_objective in 40-digit arithmetic, for ratios where V is ill conditioned."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        v = mp.matrix(unit_v(layout, eta).tolist())
        xm, ym = mp.matrix(x.tolist()), mp.matrix(y.tolist())
        vix = mp.matrix(x.shape[0], x.shape[1])
        for j in range(x.shape[1]):
            vix[:, j] = mp.lu_solve(v, xm[:, j])
        m = xm.T * vix
        beta = mp.lu_solve(m, xm.T * mp.lu_solve(v, ym))
        resid = ym - xm * beta
        n, p = x.shape
        qform = (resid.T * mp.lu_solve(v, resid))[0]
        return float(mp.log(mp.det(v)) + mp.log(mp.det(m)) + (n - p) * mp.log(qform))


def _evaluation_bytes(evaluation):
    return b"".join(np.asarray(part, dtype=float).tobytes() for part in evaluation)


@settings(max_examples=40, deadline=None)
@given(
    layouts(),
    st.integers(1, 3),
    st.lists(st.sampled_from(ETAS + (7.5, 1e8)) | st.floats(0.0, 1e8), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
# M = X' V^{-1} X with lambda_min 4.0e-8 at unit diagonal: log det M is off by 4.95e-9
@example(layout=WholePlotLayout((1, 2, 1, 3)), p=3, etas=[375225.0], seed=3697)
def test_reml_evaluator_carries_nothing_between_ratios(layout, p, etas, seed):
    """The per-fit evaluator reuses one work buffer: at any ratio, in any order and on
    revisits, it must give a fresh evaluator's result bit for bit, and the profiled
    objective must agree with the dense one to 1e-9 (relative to 1 + |obj|) plus the
    closed form's rounding.  Where V = I + eta Z Z' is ill conditioned, each plot's
    1 - m w = 1 / (1 + m eta) is formed by cancellation to about cond(V) * eps, and
    log det M and (n - p) log y'Py carry n such factors in all.  Where M = X' V^{-1} X
    is itself ill conditioned, log det M moves by tr(M^-1 dM) = tr(N^-1 dN) to first
    order, with N = M at unit diagonal; each entry of N, a sum of n products, is off
    by about n eps, so log det M by at most n eps sum_jk |N^-1_jk|.  Where M is well
    conditioned that term is about n eps p, below 1e-12 against the 1e-9 term."""
    n = layout.n_runs
    assume(n > p)
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    evaluate = _design_part(x, layout).evaluator(y)
    dense = {}
    for eta in [0.0, *etas, 1e8, *reversed(etas), 0.0]:
        (got,) = evaluate([eta])
        fresh = _design_part(x, layout).evaluator(y)
        assert _evaluation_bytes(got) == _evaluation_bytes(fresh([eta])[0])
        if eta not in dense:
            dense[eta] = extended_reml_objective(eta, x, y, layout)
        cond = 1.0 + float(layout.sizes.max()) * eta
        root = np.sqrt(np.diagonal(got.information))
        inverse = np.linalg.inv(got.information / np.multiply.outer(root, root))
        slack = 1e-9 * (1.0 + abs(dense[eta])) + n * np.finfo(float).eps * (
            cond + float(np.abs(inverse).sum()))
        assert got.objective == pytest.approx(dense[eta], rel=0, abs=slack)


@settings(max_examples=60, deadline=None)
@given(
    layouts(),
    st.integers(1, 3),
    st.lists(st.sampled_from(ETAS + (7.5, 1e8)) | st.floats(0.0, 1e8), min_size=2, max_size=12),
    st.integers(1, 11),
    st.integers(0, 2**32 - 1),
)
def test_reml_evaluator_rounds_alike_in_any_pass_width(layout, p, etas, chunk, seed):
    """A ratio list scored in one stacked pass, one ratio per pass, or in uneven chunks
    (the cell budget shrunk to fit chunk ratios) gives the same objective, beta,
    X' V^{-1} X and y' P y bit for bit."""
    n = layout.n_runs
    assume(n > p)
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    etas = [0.0, *etas, 1e8]
    results = []
    for width in (len(etas), 1, min(chunk, len(etas))):
        with mock.patch.object(inference, "_PASS_CELLS", width * n * p):
            got = _design_part(x, layout).evaluator(y)(etas)
        assert len(got) == len(etas)
        results.append([_evaluation_bytes(e) for e in got])
    assert results[1] == results[0]
    assert results[2] == results[0]


@settings(max_examples=140, deadline=None)
@given(layouts(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_reml_evaluator_forms_information_with_solve_v_arithmetic(layout, p, seed):
    """Every ratio's X' V^{-1} X is X' times solve_v's V^{-1} X at unit error variance,
    the same stacked matmul, bit for bit: with its ratios stacked in one pass and with
    one ratio per pass."""
    n = layout.n_runs
    assume(n > p)
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    etas = (0.0, 1e-8, 1.0, 7.5, 1e6, 1e8)
    want = [
        np.matmul(x.T, solve_v(CovarianceModel(layout, VarianceComponents(eta, 1.0)), x)[None])[0]
        for eta in etas
    ]
    for width in (len(etas), 1):
        with mock.patch.object(inference, "_PASS_CELLS", width * n * p):
            got = _design_part(x, layout).evaluator(y)(etas)
        assert [e.information.tobytes() for e in got] == [m.tobytes() for m in want]
