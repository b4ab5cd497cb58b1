"""Pre-experiment evaluation of a split-plot design.

Power for a single-df effect: with the variance ratio treated as known at
planning time, the GLS estimate has variance sigma2_eps * v_j with
v_j = [(X' V^{-1} X)^{-1}]_jj at unit error variance.  An effect worth
snr error standard deviations then gives a t statistic with noncentrality

    delta = snr / sqrt(v_j)

and the two-sided rejection probability at level alpha is

    power = 1 - F_nct(t_crit; df, delta) + F_nct(-t_crit; df, delta).

Error degrees of freedom follow the containment rule, ModelSpec.error_df.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import nct, t as t_dist

from .covariance import _check_ratio, information
from .design_gen import Design, column_labels, expand_model_matrix, model_matrix
from .errors import NumericalError, ValidationError
from .model_spec import ModelSpec

ALIAS_TOL = 1e-12


def _column_levels(model: ModelSpec) -> list[str]:
    """Testing level of every non-intercept model column, in column order."""
    levels = []
    for t in model.terms:
        levels.extend([t.level] * t.df)
    return levels


def _information_inverse(design: Design, model: ModelSpec, ratio: float) -> np.ndarray:
    _check_ratio(ratio)
    m = information(design.layout, expand_model_matrix(design, model), ratio)
    sign, _ = np.linalg.slogdet(m)
    if sign <= 0:
        raise NumericalError("singular information matrix; the design cannot fit this model")
    return np.linalg.inv(m)


@dataclass(frozen=True)
class PowerRow:
    label: str
    level: str
    variance_factor: float
    noncentrality: float
    error_df: int
    power: float


@dataclass(frozen=True)
class PowerReport:
    ratio: float
    snr: float
    alpha: float
    rows: tuple[PowerRow, ...]


def power_report(
    design: Design,
    model: ModelSpec,
    ratio: float = 1.0,
    snr: float = 1.0,
    alpha: float = 0.05,
) -> PowerReport:
    """Two-sided power for every single-df model column (intercept excluded)."""
    if not (0 < alpha < 1):
        raise ValidationError("alpha must be in (0, 1)")
    if not (np.isfinite(snr) and snr >= 0):
        raise ValidationError("snr must be finite and >= 0")
    dfs = model.error_df(design.n_runs, design.layout.n_plots)
    for level, df in dfs.items():
        if df <= 0 and any(t.level == level for t in model.terms):
            raise ValidationError(
                f"no {level} error df left (have {df}); enlarge the design"
            )
    cinv = _information_inverse(design, model, ratio)
    labels = column_labels(model)
    levels = _column_levels(model)
    rows = []
    for j, level in enumerate(levels, start=1):
        v = float(cinv[j, j])
        if v <= 0:
            raise NumericalError(f"nonpositive variance factor for column {labels[j]!r}")
        delta = snr / np.sqrt(v)
        df = dfs[level]
        t_crit = t_dist.ppf(1 - alpha / 2, df)
        power = 1 - nct.cdf(t_crit, df, delta) + nct.cdf(-t_crit, df, delta)
        rows.append(
            PowerRow(
                label=labels[j],
                level=level,
                variance_factor=v,
                noncentrality=float(delta),
                error_df=int(df),
                power=float(power),
            )
        )
    return PowerReport(ratio=ratio, snr=snr, alpha=alpha, rows=tuple(rows))


@dataclass(frozen=True)
class DiagnosticsReport:
    labels: tuple[str, ...]
    correlation: np.ndarray
    vif: tuple[float, ...]
    alias_warnings: tuple[tuple[str, str], ...]


def term_correlation(design: Design, model: ModelSpec):
    """Pearson correlation of centered model columns, intercept excluded.

    Constant columns get NaN rows instead of raising; pairs with |r| at 1
    (within 1e-12) are reported as aliases.
    """
    x = expand_model_matrix(design, model)[:, 1:]
    labels = column_labels(model)[1:]
    centered = x - x.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    k = x.shape[1]
    corr = np.full((k, k), np.nan)
    ok = norms > 0
    if ok.any():
        u = centered[:, ok] / norms[ok]
        block = np.clip(u.T @ u, -1.0, 1.0)
        idx = np.flatnonzero(ok)
        corr[np.ix_(idx, idx)] = block
    np.fill_diagonal(corr, np.where(ok, 1.0, np.nan))
    aliases = []
    for i in range(k):
        for j in range(i + 1, k):
            if np.isfinite(corr[i, j]) and abs(corr[i, j]) >= 1.0 - ALIAS_TOL:
                aliases.append((labels[i], labels[j]))
    return labels, corr, tuple(aliases)


def vif(design: Design, model: ModelSpec) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Variance inflation factors, VIF_j = 1 / (1 - R2_j), on centered columns."""
    x = expand_model_matrix(design, model)[:, 1:]
    labels = column_labels(model)[1:]
    centered = x - x.mean(axis=0)
    out = []
    for j in range(x.shape[1]):
        yj = centered[:, j]
        ss_tot = float(yj @ yj)
        if ss_tot <= 0:
            out.append(float("nan"))  # constant column carries no information
            continue
        others = np.delete(centered, j, axis=1)
        if others.shape[1] == 0:
            out.append(1.0)
            continue
        resid = yj - others @ np.linalg.lstsq(others, yj, rcond=None)[0]
        r2 = 1.0 - float(resid @ resid) / ss_tot
        out.append(float("inf") if r2 >= 1.0 - ALIAS_TOL else 1.0 / (1.0 - r2))
    return labels, tuple(out)


def diagnostics(design: Design, model: ModelSpec) -> DiagnosticsReport:
    labels, corr, aliases = term_correlation(design, model)
    _, vifs = vif(design, model)
    return DiagnosticsReport(labels=labels, correlation=corr, vif=vifs, alias_warnings=aliases)


def prediction_variance(design: Design, model: ModelSpec, point, ratio: float = 1.0) -> float:
    """Unit-variance prediction variance f(x)' (X' V^{-1} X)^{-1} f(x).

    point is either a settings row in factor order or a mapping from factor
    name to setting (coded value for continuous, level index or label for
    categorical).  Points outside the coded range are allowed but warned
    about: the variance there is an extrapolation.
    """
    if isinstance(point, dict):
        row = []
        for f in design.factors:
            if f.name not in point:
                raise ValidationError(f"point is missing factor {f.name!r}")
            val = point[f.name]
            row.append(f.to_coded(val) if isinstance(val, str) else float(val))
        extra = set(point) - {f.name for f in design.factors}
        if extra:
            raise ValidationError(f"point names unknown factors: {sorted(extra)}")
        row = np.asarray(row)
    else:
        row = np.asarray(point, dtype=float)
        if row.shape != (len(design.factors),):
            raise ValidationError(
                f"point needs {len(design.factors)} settings, got shape {row.shape}"
            )
    for f, val in zip(design.factors, row):
        if not f.is_categorical and not -1.0 <= val <= 1.0:
            warnings.warn(
                f"prediction point leaves the coded range for {f.name!r}; extrapolating",
                stacklevel=2,
            )
    cinv = _information_inverse(design, model, ratio)
    fx = model_matrix(model, row)[0]
    return float(fx @ cinv @ fx)
