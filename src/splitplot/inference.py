"""REML variance components and GLS fixed effects for split-plot data.

The variance ratio eta = sigma2_gamma / sigma2_eps is profiled out of the
restricted likelihood.  Up to constants, minus twice the restricted log
likelihood at the profiled error variance is

    obj(eta) = log det V_eta + log det(X' V_eta^{-1} X)
               + (n - p) * log(y' P_eta y)

with V_eta = I + eta * Z Z' and y' P_eta y the weighted residual sum of
squares of the GLS fit at eta.  A golden-section search on log eta
minimizes obj; if eta = 0 does at least as well as the interior optimum,
or the optimum sits at the upper cap eta = 1e8, the fit is flagged as a
boundary solution.  Then

    sigma2_eps = y' P y / (n - p),   sigma2_gamma = eta * sigma2_eps.

Wald tests use the containment denominator degrees of freedom,
ModelSpec.error_df; their p-values are tails.f_sf.

All fits evaluate obj through one kernel, _evaluator, over a stack of
ratios.  It has a per-design part and a per-response part.  The per-design
part, _design_part, checks that X has full column rank, sums Z'X per plot
(r x p) and lays out the bins of the per-pass residual sums; reml_fit and
gls_fit keep it, with the read-only X and its column labels, in the
design's memo under the ModelSpec (see Design), so Monte Carlo replicates
on one design derive it once, while reml_objective builds it afresh for
the x it is given.  The per-response part holds y and its noise floor,
gathers Z'X to runs and allocates one (k, n, p) buffer for V^{-1} X, with k
the ratios that fit in _PASS_CELLS = 2^16 cells (512 KB), at least one and
at most the 49-point grid plus eta = 0.  reml_fit scores its grid and
eta = 0 in ceil(50 / k) stacked passes: one on the 24-run tin design, and
50 of one ratio at 12 800 runs, where the buffer is the size of X.
gls_fit and reml_objective are passes of one ratio.  Within a pass
V^{-1} X is formed with covariance.solve_v's elementwise arithmetic, and
X' V^{-1} X, slogdet, the solve for beta and y' P y are stacked numpy calls
whose every slice makes the BLAS or LAPACK call of a single ratio, so a
ratio's result does not depend on the pass it is scored in and fitted
output is unchanged.

The grid's X' V^{-1} X and slogdet, at the 49 grid ratios and eta = 0,
depend on the design alone: the first reml_fit on a design keeps them,
read-only, next to its per-design part once every grid pass has passed
its checks, and later fits hand them to their grid passes, which still
form V^{-1} X and check every sign before any solve.  That is 50 p^2
floats whatever n is, 48 KB on the tin model; V^{-1} X is never kept.

Golden section looks ahead.  Which point a step scores next depends only
on the comparisons made so far, so one pass scores the 2^D - 1 points the
next D steps could ask for, one per outcome of the comparisons, and the
walk then takes D steps comparing as a one-point search would; a step
whose bracket is done asks for the midpoint, which is eta-hat.  Ratios
score alike in any pass, so the lookahead moves no fitted digit.  D is the
largest depth whose (2^D - 1) n p cells fit in _LOOKAHEAD_CELLS = 2^11, at
least one: depth 3 and 16 passes per fit on the tin design, and depth 1
(one point per pass, as without lookahead) once n p exceeds 682, from 63
runs of the tin model on; at 12 800 runs a wider pass costs more than
the passes it saves.  Lookahead adds no failure mode: every point lies
inside the grid bracket, whose ends were already scored, and in exact
arithmetic X' V^{-1} X is positive definite at every ratio while y' P y
does not grow with eta, so a point between two ends that passed the rank
and noise-floor checks passes them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import (
    VarianceComponents,
    WholePlotLayout,
    _check_ratio,
    _plot_sums,
)
from .design_gen import Design, column_labels, expand_model_matrix
from .errors import NumericalError, ValidationError
from .model_spec import ModelSpec, SUBPLOT, _check_name
from .tails import f_sf

LOG_ETA_LOW = math.log(1e-8)
LOG_ETA_HIGH = math.log(1e8)
GOLDEN_TOL = 1e-8
# Near eta = 1e8 the objective carries rounding noise of about 1e-6, so on a
# fit pinned to the cap golden section stops up to ~1e-6 below LOG_ETA_HIGH,
# not within GOLDEN_TOL; an optimum within 0.01 % of the cap is the cap.
_CAP_TOL = 1e-4
_GRID_POINTS = 49
# the REML grid: log ratios evenly spaced over [LOG_ETA_LOW, LOG_ETA_HIGH], and the ratios
_GRID_LOG_ETAS = tuple(np.linspace(LOG_ETA_LOW, LOG_ETA_HIGH, _GRID_POINTS).tolist())
_GRID_ETAS = tuple(math.exp(t) for t in _GRID_LOG_ETAS)


@dataclass(frozen=True)
class ResponseTable:
    """Observed responses attached to the design that produced them."""

    design: Design
    responses: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.responses:
            raise ValidationError("at least one response column is required")
        clean = {}
        n = self.design.n_runs
        for name, values in self.responses.items():
            _check_name(name, "response")
            arr = np.asarray(values, dtype=float)
            if arr.shape != (n,):
                raise ValidationError(
                    f"response {name!r} has {arr.shape} values for {n} runs"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"response {name!r} contains non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            clean[name] = arr
        object.__setattr__(self, "responses", clean)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.responses)


class _Evaluation(NamedTuple):
    """The GLS fit at one eta and the profiled objective there."""

    objective: float
    beta: np.ndarray
    information: np.ndarray  # X' V^{-1} X
    qform: float  # y' P y, the weighted residual sum of squares


# cells (ratios x runs x columns) of the V^{-1} X work buffer, 512 KB: a whole
# REML grid on a small design in one pass, one ratio per pass on a large one
_PASS_CELLS = 2**16
# cells of one golden-section lookahead pass; wider passes cost more than they save
_LOOKAHEAD_CELLS = 2**11


def _row_dots(a, b) -> list[float]:
    """[a[i] @ b[i] for each row i], in one stacked matmul.

    Each slice is the dot product of one row pair, so it rounds as the
    per-row @ does; einsum("ij,ij->i") sums in another order and does not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0].tolist()


class _DesignPart(NamedTuple):
    """The per-design part of _evaluator, from _design_part; its arrays are read-only."""

    x: np.ndarray  # of full column rank
    layout: WholePlotLayout
    plot_x: np.ndarray  # Z'X: per-plot column sums, r x p
    width: int  # ratios per pass
    bins: np.ndarray  # run -> (ratio, plot) bin of the residual sums, width x n

    def evaluator(self, y):
        """The per-response part: (etas, grid=None) -> (_Evaluations, pass terms).

        Each eta gets one _Evaluation, in order, from passes of up to width
        ratios (see the module docstring); a pass takes its terms, X' V^{-1} X
        and its slogdet, from grid, an earlier call's, if given.  Within a pass
        the ratios are checked in order: every slogdet sign before any solve,
        then the noise floor.  The buffers live as long as the returned function.
        """
        x, layout, plot_x, width, bins = self
        n, p = x.shape
        a = layout.zero_based
        r = layout.n_plots
        sizes = layout.sizes
        sx = plot_x[a]
        vix = np.empty((width, n, p))
        # residual variation at rounding scale means the data carry no noise
        noise_floor = 1e-24 * float(y @ y)

        def one_pass(eta, terms):
            k = len(eta)
            eta = eta[:, None]
            scaled = sizes * eta
            wa = (eta / (1.0 + scaled))[:, a]  # covariance._shrink per ratio, gathered to runs
            buf = vix[:k]
            np.multiply(wa[..., None], sx, out=buf)
            np.subtract(x, buf, out=buf)
            if terms is None:  # X' V^{-1} X and its slogdet, unless a kept grid hands them in
                m = np.matmul(x.T, buf)
                terms = (m, *np.linalg.slogdet(m))
            m, sign, ldm = terms
            # before the solve, which would raise LinAlgError on a singular slice
            if not ((sign > 0).all() and np.isfinite(ldm).all()):
                raise NumericalError("model matrix is rank deficient on this design")
            rhs = np.matmul(buf.transpose(0, 2, 1), y)
            # an explicit column axis: numpy 1.x and 2.x read a stacked vector differently
            beta = np.linalg.solve(m, rhs[..., None])[..., 0]
            resid = y - np.matmul(x, beta[..., None])[..., 0]
            sums = np.bincount(bins[:k].ravel(), weights=resid.ravel(), minlength=k * r)
            vr = resid - wa * sums.reshape(k, r)[:, a]  # V^{-1} resid, as solve_v forms it
            qform = _row_dots(resid, vr)
            if min(qform) <= noise_floor:
                raise NumericalError("zero residual variation; nothing to estimate")
            log_det_v = np.log1p(scaled).sum(axis=1).tolist()
            objective = [
                ld + d + (n - p) * math.log(q)
                for ld, d, q in zip(log_det_v, ldm.tolist(), qform)
            ]
            return list(map(_Evaluation, objective, beta, m, qform)), terms

        def evaluate(etas, grid=None):
            etas = np.asarray(etas, dtype=float)
            out, passes = [], []
            for i, start in enumerate(range(0, len(etas), width)):
                scored, terms = one_pass(etas[start:start + width], grid and grid[i])
                out += scored
                passes.append(terms)
            return out, passes

        return evaluate


def _design_part(x, layout) -> _DesignPart:
    """Check that X has full column rank and derive what every response on it shares.

    Raises NumericalError if X lacks full column rank.  x itself is kept, so
    a caller that shares the part passes a read-only x.
    """
    n, p = x.shape
    if np.linalg.matrix_rank(x) < p:
        raise NumericalError("model matrix is rank deficient on this design")
    plot_x = _plot_sums(layout, x)
    width = max(1, min(_GRID_POINTS + 1, _PASS_CELLS // (n * p)))
    bins = layout.zero_based + layout.n_plots * np.arange(width)[:, None]
    plot_x.setflags(write=False)
    bins.setflags(write=False)
    return _DesignPart(x, layout, plot_x, width, bins)


def _evaluator(x, y, layout):
    """The REML/GLS kernel: a sequence of etas -> one _Evaluation per eta, in order.

    Raises NumericalError if X lacks full column rank.
    """
    evaluate = _design_part(x, layout).evaluator(y)
    return lambda etas: evaluate(etas)[0]


def reml_objective(eta: float, x: np.ndarray, y: np.ndarray, layout: WholePlotLayout) -> float:
    """Profiled -2 restricted log likelihood, up to an additive constant."""
    _check_ratio(eta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if n - p < 1:
        raise ValidationError("no residual degrees of freedom (n <= p)")
    return _evaluator(x, y, layout)([eta])[0].objective


def _golden_section(score, lo, hi, tol, depth):
    """Minimize a unimodal function on [lo, hi], hi - lo > tol, by golden section.

    score maps a list of points to their _Evaluations.  Each pass scores
    every point the next `depth` steps could ask for (see the module
    docstring); returns the final bracket's midpoint and its _Evaluation.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def step(a, b, c, d, left):
        """The bracket after one comparison, and the point it asks for: c if left, else d."""
        if left:
            b, d = d, c
            c = b - invphi * (b - a)
            return a, b, c, d, c
        a, c = c, d
        d = a + invphi * (b - a)
        return a, b, c, d, d

    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = (e.objective for e in score([c, d]))
    branching = 2 ** (depth - 1) - 1  # nodes above the tree's last level
    while True:
        # breadth first, node k's children are 2k + 1 (reached if fc <= fd at k) and
        # 2k + 2; a node whose bracket is done asks for its midpoint and has no children
        tree, points = [step(a, b, c, d, fc <= fd)], []
        for k in range(2**depth - 1):
            node = tree[k]
            done = node is None or node[1] - node[0] <= tol
            if node is not None:
                points.append((node[0] + node[1]) / 2.0 if done else node[4])
            if k < branching:
                tree += (None, None) if done else (step(*node[:4], True), step(*node[:4], False))
        scored = iter(score(points))
        values = [None if node is None else next(scored) for node in tree]
        k = 0
        for _ in range(depth):
            a, b, c, d = tree[k][:4]
            if b - a <= tol:
                return (a + b) / 2.0, values[k]
            fc, fd = (values[k].objective, fc) if fc <= fd else (fd, values[k].objective)
            k = 2 * k + (1 if fc <= fd else 2)


@dataclass(frozen=True)
class GlsFit:
    """A fitted response: variance components, coefficients, and fit stats."""

    response: str
    model: ModelSpec
    layout: WholePlotLayout
    labels: tuple[str, ...]
    beta: np.ndarray
    cov_beta: np.ndarray
    components: VarianceComponents
    ratio: float
    boundary: bool
    objective: float
    method: str
    y: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    r2: float
    rmse: float
    f_overall: float | None
    df_overall: tuple[int, int] | None

    @property
    def n_runs(self) -> int:
        return self.layout.n_runs

    @property
    def p_overall(self) -> float | None:
        """P-value of the overall F, computed on read: a fit that never reads it pays nothing."""
        return None if self.f_overall is None else f_sf(self.f_overall, *self.df_overall)

    @property
    def error_df(self) -> dict[str, int]:
        return self.model.error_df(self.layout.n_runs, self.layout.n_plots)


def _squared_correlation(y, fitted) -> float:
    dy = y - y.mean()
    df = fitted - fitted.mean()
    denom = float(np.sqrt((dy @ dy) * (df @ df)))
    if denom <= 0:
        return 0.0  # a flat fit (or flat data) explains nothing
    return float(min(1.0, ((dy @ df) / denom) ** 2))


def _prepare(responses: ResponseTable, model: ModelSpec, response):
    if response is None:
        if len(responses.responses) != 1:
            raise ValidationError(
                f"table has responses {responses.names}; pick one"
            )
        response = responses.names[0]
    if response not in responses.responses:
        raise ValidationError(f"unknown response {response!r} (have {responses.names})")
    design = responses.design
    # [part, labels, grid] from the design alone, once per design and model
    entry = design._memo.get(model)
    if entry is None:
        layout = design.layout
        if layout.n_plots < model.whole_plot_model_df:
            raise ValidationError(
                f"{layout.n_plots} whole plots cannot support "
                f"{model.whole_plot_model_df} whole-plot model df"
            )
        x = expand_model_matrix(design, model)
        n, p = x.shape
        if n - p < 1:
            raise ValidationError("no residual degrees of freedom (n <= p)")
        x.setflags(write=False)
        entry = design._memo[model] = [_design_part(x, layout), column_labels(model), None]
    return response, entry, responses.responses[response]


def _wald_f(b, c, df_num) -> float:
    """Wald F = b' C^{-1} b / df_num for estimates b with covariance C."""
    if df_num == 1:
        return float(b[0] * (b[0] / c[0, 0]))  # the 1 x 1 solve's own rounding, without its cost
    return float(b @ np.linalg.solve(c, b)) / df_num


def _finalize(response, model, part, labels, y, eta, boundary, at_eta, method) -> GlsFit:
    x, layout = part.x, part.layout
    n, p = x.shape
    beta = at_eta.beta
    sigma2_eps = at_eta.qform / (n - p)
    components = VarianceComponents(
        sigma2_gamma=eta * sigma2_eps, sigma2_epsilon=sigma2_eps
    )
    cov_beta = sigma2_eps * np.linalg.inv(at_eta.information)
    fitted = x @ beta
    residuals = y - fitted
    r2 = _squared_correlation(y, fitted)
    rmse = math.sqrt(sigma2_eps)

    q = p - 1
    sp_err = model.error_df(n, layout.n_plots)[SUBPLOT]
    f_overall = df_overall = None
    if q >= 1 and sp_err >= 1:
        f_overall = _wald_f(beta[1:], cov_beta[1:, 1:], q)
        df_overall = (q, sp_err)

    for arr in (beta, cov_beta, fitted, residuals):
        arr.setflags(write=False)
    return GlsFit(
        response=response,
        model=model,
        layout=layout,
        labels=labels,
        beta=beta,
        cov_beta=cov_beta,
        components=components,
        ratio=eta,
        boundary=boundary,
        objective=at_eta.objective,
        method=method,
        y=y,
        fitted=fitted,
        residuals=residuals,
        r2=r2,
        rmse=rmse,
        f_overall=f_overall,
        df_overall=df_overall,
    )


def reml_fit(responses: ResponseTable, model: ModelSpec, response: str | None = None) -> GlsFit:
    """Estimate the variance ratio by REML; report the GLS fit at that ratio.

    The search evaluates the profiled objective on a log-spaced grid over
    [1e-8, 1e8] and at eta = 0 in one stacked pass, refines the best bracket
    by golden section, and compares the interior optimum against eta = 0;
    ties go to the boundary.  Golden section scores the points its next D
    steps could ask for in one pass, D from _LOOKAHEAD_CELLS and the size of
    X (see the module docstring); the eta it returns is the one a search
    scoring one point per pass would return.  An optimum at the upper cap
    (the grid minimum is its last point and golden section ends within
    _CAP_TOL of LOG_ETA_HIGH) is flagged as a boundary fit too, with the
    ratio left where golden section put it.  Each evaluation is a GLS fit,
    so the one at the chosen ratio is reported as is.  After the first fit
    on a design, the grid's X' V^{-1} X and log det come from its memo.
    """
    response, entry, y = _prepare(responses, model, response)
    part, labels, kept = entry
    evaluate = part.evaluator(y)
    depth = max(1, (_LOOKAHEAD_CELLS // part.x.size + 1).bit_length() - 1)

    ts = _GRID_LOG_ETAS
    (*grid, zero), passes = evaluate([*_GRID_ETAS, 0.0], kept)
    if kept is None:  # every pass has passed its checks: keep its terms, read-only
        for terms in passes:
            for arr in terms:
                arr.setflags(write=False)
        entry[2] = tuple(passes)
    k = int(np.argmin([e.objective for e in grid]))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    t_star, star = _golden_section(
        lambda points: evaluate([math.exp(t) for t in points])[0], lo, hi, GOLDEN_TOL, depth
    )
    if zero.objective <= star.objective:
        eta_hat, at_eta, boundary = 0.0, zero, True
    else:
        at_cap = bool(k == len(ts) - 1 and LOG_ETA_HIGH - t_star <= _CAP_TOL)
        eta_hat, at_eta, boundary = math.exp(t_star), star, at_cap
    return _finalize(response, model, part, labels, y, eta_hat, boundary, at_eta, "reml")


def gls_fit(
    responses: ResponseTable, model: ModelSpec, ratio: float, response: str | None = None
) -> GlsFit:
    """GLS fit at a known variance ratio (the planning-stage assumption).

    The error variance is still estimated from the weighted residuals, so
    coefficient covariance and RMSE stay data driven.
    """
    _check_ratio(ratio)
    response, (part, labels, _), y = _prepare(responses, model, response)
    (at_ratio,), _ = part.evaluator(y)([ratio])
    return _finalize(response, model, part, labels, y, ratio, ratio == 0.0, at_ratio, "gls")


@dataclass(frozen=True)
class TermTest:
    label: str
    level: str
    df_num: int
    df_den: int
    f_stat: float
    p_value: float


def fixed_effect_tests(fit: GlsFit) -> tuple[TermTest, ...]:
    """Wald F test per model term; for a 1-df term F = (beta / se)^2."""
    err = fit.error_df
    out = []
    for term, cols in zip(fit.model.terms, fit.model.term_columns):
        df_den = err[term.level]
        if df_den < 1:
            raise ValidationError(
                f"no {term.level} error df to test {term.label!r} against"
            )
        stat = _wald_f(fit.beta[cols], fit.cov_beta[cols, cols], term.df)
        out.append(
            TermTest(
                label=term.label,
                level=term.level,
                df_num=term.df,
                df_den=int(df_den),
                f_stat=stat,
                p_value=f_sf(stat, term.df, df_den),
            )
        )
    return tuple(out)


def residual_report(fit: GlsFit) -> tuple[tuple[int, int, float, float, float], ...]:
    """Per-run rows: (run, whole_plot, observed, fitted, residual)."""
    rows = []
    for i in range(fit.n_runs):
        rows.append(
            (
                i + 1,
                int(fit.layout.assignment[i]),
                float(fit.y[i]),
                float(fit.fitted[i]),
                float(fit.residuals[i]),
            )
        )
    return tuple(rows)
