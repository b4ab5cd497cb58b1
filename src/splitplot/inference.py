"""REML variance components and GLS fixed effects for split-plot data.

The variance ratio eta = sigma2_gamma / sigma2_eps is profiled out of the
restricted likelihood.  Up to constants, minus twice the restricted log
likelihood at the profiled error variance is

    obj(eta) = log det V_eta + log det(X' V_eta^{-1} X)
               + (n - p) * log(y' P_eta y)

with V_eta = I + eta * Z Z' and y' P_eta y the weighted residual sum of
squares of the GLS fit at eta.  A golden-section search on log eta
minimizes obj; if eta = 0 does at least as well as the interior optimum
the fit is flagged as a boundary solution.  Then

    sigma2_eps = y' P y / (n - p),   sigma2_gamma = eta * sigma2_eps.

Wald tests use the containment denominator degrees of freedom,
ModelSpec.error_df.  Products with V^{-1} come from covariance.solve_v_unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import f as f_dist

from .covariance import (
    VarianceComponents,
    WholePlotLayout,
    _check_ratio,
    log_det_v_unit,
    solve_v_unit,
)
from .design_gen import Design, column_labels, expand_model_matrix
from .errors import NumericalError, ValidationError
from .model_spec import ModelSpec, SUBPLOT, _check_name

LOG_ETA_LOW = math.log(1e-8)
LOG_ETA_HIGH = math.log(1e8)
GOLDEN_TOL = 1e-8
_GRID_POINTS = 49


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


def _weighted_ls(x, y, layout, eta):
    """GLS at V = I + eta Z Z'; returns beta, information, weighted RSS, log det M."""
    vix = solve_v_unit(layout, x, eta)
    m = x.T @ vix
    sign, ldm = np.linalg.slogdet(m)
    if sign <= 0 or not np.isfinite(ldm):
        raise NumericalError("model matrix is rank deficient on this design")
    beta = np.linalg.solve(m, vix.T @ y)
    resid = y - x @ beta
    qform = float(resid @ solve_v_unit(layout, resid[:, None], eta)[:, 0])
    return beta, m, qform, float(ldm)


def _check_residual_variation(qform: float, y: np.ndarray) -> None:
    # residual variation at rounding scale means the data carry no noise
    if qform <= 1e-24 * float(y @ y):
        raise NumericalError("zero residual variation; nothing to estimate")


def reml_objective(eta: float, x: np.ndarray, y: np.ndarray, layout: WholePlotLayout) -> float:
    """Profiled -2 restricted log likelihood, up to an additive constant."""
    if not (np.isfinite(eta) and eta >= 0):
        raise ValidationError("eta must be finite and >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if n - p < 1:
        raise ValidationError("no residual degrees of freedom (n <= p)")
    _, _, qform, ldm = _weighted_ls(x, y, layout, eta)
    _check_residual_variation(qform, y)
    return log_det_v_unit(layout, eta) + ldm + (n - p) * math.log(qform)


def _golden_section(fun, lo, hi, tol):
    """Minimize a unimodal scalar function on [lo, hi]."""
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
    mid = (a + b) / 2.0
    return mid, fun(mid)


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
    p_overall: float | None
    df_overall: tuple[int, int] | None

    @property
    def n_runs(self) -> int:
        return self.layout.n_runs

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


def _wald_f(b, c, df_num, df_den) -> tuple[float, float]:
    """Wald F = b' C^{-1} b / df_num for estimates b with covariance C, and its p-value."""
    stat = float(b @ np.linalg.solve(c, b)) / df_num
    return stat, float(f_dist.sf(stat, df_num, df_den))


def _finalize(response, model, layout, x, y, eta, boundary, objective, method) -> GlsFit:
    n, p = x.shape
    beta, m, qform, _ = _weighted_ls(x, y, layout, eta)
    _check_residual_variation(qform, y)
    sigma2_eps = qform / (n - p)
    components = VarianceComponents(
        sigma2_gamma=eta * sigma2_eps, sigma2_epsilon=sigma2_eps
    )
    cov_beta = sigma2_eps * np.linalg.inv(m)
    fitted = x @ beta
    residuals = y - fitted
    r2 = _squared_correlation(y, fitted)
    rmse = math.sqrt(sigma2_eps)

    q = p - 1
    sp_err = model.error_df(n, layout.n_plots)[SUBPLOT]
    f_overall = p_overall = df_overall = None
    if q >= 1 and sp_err >= 1:
        f_overall, p_overall = _wald_f(beta[1:], cov_beta[1:, 1:], q, sp_err)
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
        objective=objective,
        method=method,
        y=y,
        fitted=fitted,
        residuals=residuals,
        r2=r2,
        rmse=rmse,
        f_overall=f_overall,
        p_overall=p_overall,
        df_overall=df_overall,
    )


def reml_fit(responses: ResponseTable, model: ModelSpec, response: str | None = None) -> GlsFit:
    """Estimate the variance ratio by REML, then refit the fixed effects by GLS.

    The search evaluates the profiled objective on a log-spaced grid over
    [1e-8, 1e8], refines the best bracket by golden section, and compares
    the interior optimum against eta = 0; ties go to the boundary.
    """
    response, layout, x, y = _prepare(responses, model, response)

    def obj(eta):
        return reml_objective(eta, x, y, layout)

    ts = np.linspace(LOG_ETA_LOW, LOG_ETA_HIGH, _GRID_POINTS)
    vals = [obj(math.exp(t)) for t in ts]
    k = int(np.argmin(vals))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    t_star, f_star = _golden_section(lambda t: obj(math.exp(t)), lo, hi, GOLDEN_TOL)
    f_zero = obj(0.0)
    if f_zero <= f_star:
        eta_hat, f_hat, boundary = 0.0, f_zero, True
    else:
        eta_hat, f_hat, boundary = math.exp(t_star), f_star, False
    return _finalize(response, model, layout, x, y, eta_hat, boundary, f_hat, "reml")


def gls_fit(
    responses: ResponseTable, model: ModelSpec, ratio: float, response: str | None = None
) -> GlsFit:
    """GLS fit at a known variance ratio (the planning-stage assumption).

    The error variance is still estimated from the weighted residuals, so
    coefficient covariance and RMSE stay data driven.
    """
    _check_ratio(ratio)
    response, layout, x, y = _prepare(responses, model, response)
    objective = reml_objective(ratio, x, y, layout)
    return _finalize(response, model, layout, x, y, ratio, ratio == 0.0, objective, "gls")


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
    start = 1
    for term in fit.model.terms:
        cols = slice(start, start + term.df)
        start += term.df
        df_den = err[term.level]
        if df_den < 1:
            raise ValidationError(
                f"no {term.level} error df to test {term.label!r} against"
            )
        stat, p_value = _wald_f(fit.beta[cols], fit.cov_beta[cols, :][:, cols], term.df, df_den)
        out.append(
            TermTest(
                label=term.label,
                level=term.level,
                df_num=term.df,
                df_den=int(df_den),
                f_stat=stat,
                p_value=p_value,
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
