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
ModelSpec.error_df.

All fits evaluate obj through one kernel, _evaluator, over a stack of
ratios.  Per fit it checks that X has full column rank, gathers Z'X to
runs once and allocates one (k, n, p) buffer for V^{-1} X, with k the
ratios that fit in _PASS_CELLS = 2^16 cells (512 KB), at least one and at
most the 49-point grid.  reml_fit scores its whole grid in ceil(49 / k)
stacked passes: one on the 24-run tin design, and 49 of one ratio at
12 800 runs, where the buffer is the size of X.  Golden-section steps,
the eta = 0 check, gls_fit and reml_objective are passes of one ratio.
Within a pass V^{-1} X is formed with covariance.solve_v_unit's
elementwise arithmetic, and X' V^{-1} X, slogdet and the solve for beta
are stacked numpy calls whose every slice makes the BLAS or LAPACK call
of a single ratio, so a ratio's result does not depend on the pass it is
scored in and fitted output is unchanged.
"""

from __future__ import annotations

import functools
import itertools
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

LOG_ETA_LOW = math.log(1e-8)
LOG_ETA_HIGH = math.log(1e8)
GOLDEN_TOL = 1e-8
# Near eta = 1e8 the objective carries rounding noise of about 1e-6, so on a
# fit pinned to the cap golden section stops up to ~1e-6 below LOG_ETA_HIGH,
# not within GOLDEN_TOL; an optimum within 0.01 % of the cap is the cap.
_CAP_TOL = 1e-4
_GRID_POINTS = 49
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_CF_HEAD = 64
_CF_MAX_STEPS = 100_000


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


def _evaluator(x, y, layout):
    """Per-fit evaluator: a sequence of etas -> one _Evaluation per eta, in order.

    Raises NumericalError if X lacks full column rank.  The etas are scored in
    passes of up to len(vix) ratios (see the module docstring).  Within a pass
    the ratios are checked in order: every slogdet sign before any solve, then
    the noise floor.  The buffers live only as long as the returned function.
    """
    n, p = x.shape
    if np.linalg.matrix_rank(x) < p:
        raise NumericalError("model matrix is rank deficient on this design")
    a = layout.zero_based
    r = layout.n_plots
    sizes = layout.sizes
    sx = _plot_sums(layout, x)[a]
    width = max(1, min(_GRID_POINTS, _PASS_CELLS // (n * p)))
    vix = np.empty((width, n, p))
    bins = a + r * np.arange(width)[:, None]  # run -> (ratio, plot) bin of the residual sums
    # residual variation at rounding scale means the data carry no noise
    noise_floor = 1e-24 * float(y @ y)

    def one_pass(eta):
        k = len(eta)
        eta = eta[:, None]
        scaled = sizes * eta
        wa = (eta / (1.0 + scaled))[:, a]  # covariance._shrink per ratio, gathered to runs
        buf = vix[:k]
        np.multiply(wa[..., None], sx, out=buf)
        np.subtract(x, buf, out=buf)
        m = np.matmul(x.T, buf)
        sign, ldm = np.linalg.slogdet(m)
        ldm = ldm.tolist()
        # before the solve, which would raise LinAlgError on a singular slice
        if not all(s > 0 and math.isfinite(d) for s, d in zip(sign.tolist(), ldm)):
            raise NumericalError("model matrix is rank deficient on this design")
        rhs = np.matmul(buf.transpose(0, 2, 1), y)
        # an explicit column axis: numpy 1.x and 2.x read a stacked vector differently
        beta = np.linalg.solve(m, rhs[..., None])[..., 0]
        resid = y - np.matmul(x, beta[..., None])[..., 0]
        sums = np.bincount(bins[:k].ravel(), weights=resid.ravel(), minlength=k * r)
        vr = resid - wa * sums.reshape(k, r)[:, a]  # V^{-1} resid, as solve_v_unit forms it
        qform = [float(resid[i] @ vr[i]) for i in range(k)]
        if min(qform) <= noise_floor:
            raise NumericalError("zero residual variation; nothing to estimate")
        log_det_v = np.log1p(scaled).sum(axis=1).tolist()
        objective = [ld + d + (n - p) * math.log(q) for ld, d, q in zip(log_det_v, ldm, qform)]
        return list(map(_Evaluation, objective, beta, m, qform))

    def evaluate(etas):
        etas = np.asarray(etas, dtype=float)
        out = []
        for start in range(0, len(etas), width):
            out += one_pass(etas[start:start + width])
        return out

    return evaluate


def reml_objective(eta: float, x: np.ndarray, y: np.ndarray, layout: WholePlotLayout) -> float:
    """Profiled -2 restricted log likelihood, up to an additive constant."""
    if not (np.isfinite(eta) and eta >= 0):
        raise ValidationError("eta must be finite and >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if n - p < 1:
        raise ValidationError("no residual degrees of freedom (n <= p)")
    return _evaluator(x, y, layout)([eta])[0].objective


def _golden_section(fun, lo, hi, tol):
    """Minimize a unimodal scalar function on [lo, hi]; returns the final bracket's midpoint."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


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
        return None if self.f_overall is None else _f_sf(self.f_overall, *self.df_overall)

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
    layout = design.layout
    if layout.n_plots < model.whole_plot_model_df:
        raise ValidationError(
            f"{layout.n_plots} whole plots cannot support "
            f"{model.whole_plot_model_df} whole-plot model df"
        )
    x = expand_model_matrix(design, model)
    y = responses.responses[response]
    n, p = x.shape
    if n - p < 1:
        raise ValidationError("no residual degrees of freedom (n <= p)")
    return response, layout, x, y


def _wald_f(b, c, df_num) -> float:
    """Wald F = b' C^{-1} b / df_num for estimates b with covariance C."""
    return float(b @ np.linalg.solve(c, b)) / df_num


def _stirling_remainder(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log sqrt(2 pi)) for z >= 1/2, without the
    cancellation of that difference at large z."""
    if z < 10:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    r = 1 / (z * z)  # Stirling's series; its next term is below 4e-17 at z = 10
    return (1 / 12 + r * (-1 / 360 + r * (1 / 1260 + r * (-1 / 1680 + r * (
        1 / 1188 + r * (-691 / 360360 + r / 156)))))) / z


@functools.lru_cache(maxsize=256)
def _beta_constants(df_num: int, df_den: int):
    """Per-(df_num, df_den) constants of _f_tails: a, b, (a + b) / a, (a + b) / b, the
    continued fraction's switch point (a + 1) / (a + b + 2), and
    sqrt(ab / (2 pi (a + b))) exp(delta(a + b) - delta(a) - delta(b))."""
    a, b = df_den / 2, df_num / 2
    rem = _stirling_remainder(a + b) - _stirling_remainder(a) - _stirling_remainder(b)
    scale = math.sqrt(a * b / (2 * math.pi * (a + b))) * math.exp(rem)
    return a, b, (a + b) / a, (a + b) / b, (a + 1) / (a + b + 2), scale


def _log1pmx(u: float, one_plus_u: float) -> float:
    """log(1 + u) - u, given 1 + u formed without cancellation."""
    if abs(u) > 0.1:  # 1 + u underflows to 0 only where x or y does
        return math.log(one_plus_u) - u if one_plus_u > 0 else -math.inf
    w = u / (2 + u)  # log(1 + u) = 2 atanh(w) and u = 2w / (1 - w); the series ends below 1e-16
    w2 = w * w
    return 2 * w * w2 * (1 / 3 + w2 * (1 / 5 + w2 * (1 / 7 + w2 * (1 / 9 + w2 * (
        1 / 11 + w2 / 13))))) - u * w


def _cf_steps(a: float, b: float, start: int = 1):
    """Steps m = start, start + 1, ... of the even contraction of the continued
    fraction for I_x(a, b) (Numerical Recipes 6.4).  With d_k its k-th coefficient,
    step m is num / (den + ...) with num = -d_(2m-1) d_(2m) and den = 1 + d_(2m) +
    d_(2m+1); it is yielded as (num / x^2, (den - y) / x), y = 1 - x, so that den
    is formed without cancellation where x is near 1."""
    for m in range(start, _CF_MAX_STEPS):
        k = a + 2 * m
        even = m * (b - m) / ((k - 1) * k)
        odd_before = -(a + m - 1) * (a + b + m - 1) / ((k - 2) * (k - 1))
        odd_plus_1 = (a * (2 * m + 1 - b) + m * (3 * m + 2 - b)) / (k * (k + 1))
        yield -odd_before * even, even + odd_plus_1


@functools.lru_cache(maxsize=256)
def _cf_head(a: float, b: float) -> tuple:
    """The first _CF_HEAD steps of _cf_steps(a, b).  With df_num <= 50 no fraction
    took more than 56 steps, at any df_den up to 1e6."""
    return tuple(itertools.islice(_cf_steps(a, b), _CF_HEAD))


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction of I_x(a, b) = x^a y^b / (a B(a, b)) * cf, y = 1 - x,
    for x < (a + 1) / (a + b + 2), by modified Lentz on its even contraction."""
    tiny = 1e-300  # stands in for an exact 0, which would divide by zero
    d = h = 1 / ((y + (1 - b) * x / (a + 1)) or tiny)  # 1 - (a + b) x / (a + 1)
    c = 1 / tiny
    x2 = x * x
    for num, den in itertools.chain(_cf_head(a, b), _cf_steps(a, b, _CF_HEAD + 1)):
        num *= x2
        den = y + den * x
        d = 1 / ((den + num * d) or tiny)
        c = (den + num / c) or tiny
        step = d * c
        h *= step
        if -1e-15 < step - 1 < 1e-15:
            return h
    raise NumericalError(f"incomplete beta at a={a:g}, b={b:g}, x={x:g} did not converge")


def _f_tails(stat: float, df_num: int, df_den: int) -> tuple[float, float, float]:
    """(P(F > stat), P(F <= stat), x^a y^b / B(a, b)) for F ~ F(df_num, df_den) and
    0 < stat < inf, with a = df_den / 2, b = df_num / 2, x = df_den / (df_den + df_num
    stat) and y = 1 - x, so that P(F > stat) = I_x(a, b), the regularized incomplete beta.

    The smaller tail comes from the continued fraction and the other is its
    complement.  The prefactor is formed as in DiDonato and Morris (1992, ACM
    TOMS 18:360, brcomp), without the cancellation of lgamma terms at large df:
    x^a y^b / B(a, b) = sqrt(ab / (2 pi (a + b))) exp(a g(u) + b g(v) + delta(a + b)
    - delta(a) - delta(b)), with g(u) = log(1 + u) - u, u = x / x0 - 1, v = y / y0 - 1,
    x0 = a / (a + b), y0 = b / (a + b) and delta the Stirling remainder of lgamma.
    u and v come straight from the inputs: u = df_num (1 - stat) / (df_den + df_num
    stat) and v = -u df_den / df_num.
    """
    a, b, to_x0, to_y0, switch, scale = _beta_constants(df_num, df_den)
    if stat > 1:  # divide through by stat, so that nothing overflows
        p, q, m = df_den / stat, float(df_num), (1 - stat) / stat
    else:
        p, q, m = float(df_den), df_num * stat, 1 - stat
    den = p + q
    x, y = p / den, q / den
    u, v = df_num * m / den, -df_den * m / den
    front = scale * math.exp(a * _log1pmx(u, x * to_x0) + b * _log1pmx(v, y * to_y0))
    if x < switch:
        sf = front * _beta_cf(a, b, x, y) / a
        return sf, 1 - sf, front
    cdf = front * _beta_cf(b, a, y, x) / b
    return 1 - cdf, cdf, front


def _f_sf(stat, df_num, df_den) -> float:
    """P(F > stat) for F ~ F(df_num, df_den): 1 at stat <= 0, 0 at inf, nan at nan."""
    if stat <= 0:
        return 1.0
    if stat == math.inf:
        return 0.0
    if stat != stat:
        return math.nan
    return _f_tails(stat, df_num, df_den)[0]


def _finalize(response, model, layout, x, y, eta, boundary, at_eta, method) -> GlsFit:
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
        labels=column_labels(model),
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
    [1e-8, 1e8], refines the best bracket by golden section, and compares
    the interior optimum against eta = 0; ties go to the boundary.  An
    optimum at the upper cap (the grid minimum is its last point and golden
    section ends within _CAP_TOL of LOG_ETA_HIGH) is flagged as a boundary
    fit too, with the ratio left where golden section put it.  Each
    evaluation is a GLS fit, so the one at the chosen ratio is reported as is.
    """
    response, layout, x, y = _prepare(responses, model, response)
    evaluate = _evaluator(x, y, layout)

    def obj(t):
        return evaluate([math.exp(t)])[0].objective

    ts = np.linspace(LOG_ETA_LOW, LOG_ETA_HIGH, _GRID_POINTS)
    vals = [e.objective for e in evaluate([math.exp(t) for t in ts])]
    k = int(np.argmin(vals))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    t_star = _golden_section(obj, lo, hi, GOLDEN_TOL)
    star, zero = evaluate([math.exp(t_star), 0.0])
    if zero.objective <= star.objective:
        eta_hat, at_eta, boundary = 0.0, zero, True
    else:
        at_cap = bool(k == len(ts) - 1 and LOG_ETA_HIGH - t_star <= _CAP_TOL)
        eta_hat, at_eta, boundary = math.exp(t_star), star, at_cap
    return _finalize(response, model, layout, x, y, eta_hat, boundary, at_eta, "reml")


def gls_fit(
    responses: ResponseTable, model: ModelSpec, ratio: float, response: str | None = None
) -> GlsFit:
    """GLS fit at a known variance ratio (the planning-stage assumption).

    The error variance is still estimated from the weighted residuals, so
    coefficient covariance and RMSE stay data driven.
    """
    _check_ratio(ratio)
    response, layout, x, y = _prepare(responses, model, response)
    at_ratio = _evaluator(x, y, layout)([ratio])[0]
    return _finalize(response, model, layout, x, y, ratio, ratio == 0.0, at_ratio, "gls")


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
        stat = _wald_f(fit.beta[cols], fit.cov_beta[cols, :][:, cols], term.df)
        out.append(
            TermTest(
                label=term.label,
                level=term.level,
                df_num=term.df,
                df_den=int(df_den),
                f_stat=stat,
                p_value=_f_sf(stat, term.df, df_den),
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
