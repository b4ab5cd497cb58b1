"""Pre-experiment evaluation of a split-plot design.

Power for a single-df effect: with the variance ratio treated as known at
planning time, the GLS estimate has variance sigma2_eps * v_j with
v_j = [(X' V^{-1} X)^{-1}]_jj at unit error variance.  An effect worth
snr error standard deviations then gives a t statistic with noncentrality

    delta = snr / sqrt(v_j)

and the two-sided rejection probability at level alpha is

    power = 1 - F_nct(t_crit; df, delta) + F_nct(-t_crit; df, delta),

with t_crit the two-sided critical value of a central t at alpha.  Both
the critical value and the noncentral t tails come from
tails.two_sided_power.

Error degrees of freedom follow the containment rule, ModelSpec.error_df.
Correlations, aliases and variance inflation factors of the model columns
come from one entry point, diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import _check_ratio, information
from .design_gen import Design, column_labels, expand_model_matrix, model_matrix
from .errors import NumericalError, ValidationError
from .model_spec import ModelSpec
from .tails import two_sided_power

ALIAS_TOL = 1e-12


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
    rows = []
    powers = {}  # columns of equal variance factor and df share one power
    for term, cols in zip(model.terms, model.term_columns):
        df = dfs[term.level]
        for j in range(cols.start, cols.stop):
            v = float(cinv[j, j])
            if v <= 0:
                raise NumericalError(f"nonpositive variance factor for column {labels[j]!r}")
            delta = snr / np.sqrt(v)
            if (df, delta) not in powers:
                powers[df, delta] = two_sided_power(df, delta, alpha)
            power = powers[df, delta]
            if not 0 <= power <= 1:
                raise NumericalError(
                    f"power for column {labels[j]!r} is not computable "
                    f"(df={df}, noncentrality={delta:.6g}, alpha={alpha:g})"
                )
            rows.append(
                PowerRow(
                    label=labels[j],
                    level=term.level,
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


def diagnostics(design: Design, model: ModelSpec) -> DiagnosticsReport:
    """Correlations, aliases and variance inflation of the centered model columns.

    The intercept is excluded, and the columns are expanded and centered
    once.  correlation is their Pearson correlation; a constant column gets
    NaN rows instead of raising, and pairs with |r| at 1 (within ALIAS_TOL)
    are reported as aliases.  VIF_j = 1 / (1 - R2_j) regresses centered
    column j on the others: NaN for a constant column, inf for an aliased one.
    """
    x = expand_model_matrix(design, model)[:, 1:]
    labels = column_labels(model)[1:]
    centered = x - x.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    k = x.shape[1]
    ok = norms > 0  # constant columns carry no information
    idx = np.flatnonzero(ok)
    corr = np.full((k, k), np.nan)
    u = centered[:, ok] / norms[ok]
    corr[np.ix_(idx, idx)] = np.clip(u.T @ u, -1.0, 1.0)
    np.fill_diagonal(corr, np.where(ok, 1.0, np.nan))
    # nan compares false, so constant columns are never aliases
    pairs = zip(*np.nonzero(np.triu(np.abs(corr) >= 1.0 - ALIAS_TOL, 1)))
    aliases = tuple((labels[i], labels[j]) for i, j in pairs)
    vifs = []
    for j in range(k):
        yj = centered[:, j]
        if not ok[j]:
            vifs.append(float("nan"))
        elif k == 1:
            vifs.append(1.0)
        else:
            others = np.delete(centered, j, axis=1)
            resid = yj - others @ np.linalg.lstsq(others, yj, rcond=None)[0]
            r2 = 1.0 - float(resid @ resid) / float(yj @ yj)
            vifs.append(float("inf") if r2 >= 1.0 - ALIAS_TOL else 1.0 / (1.0 - r2))
    return DiagnosticsReport(labels, corr, tuple(vifs), aliases)


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
    if not np.all(np.isfinite(row)):
        raise ValidationError("prediction point settings must be finite")
    for f, val in zip(design.factors, row):
        if not f.is_categorical and not -1.0 <= val <= 1.0:
            warnings.warn(
                f"prediction point leaves the coded range for {f.name!r}; extrapolating",
                stacklevel=2,
            )
    cinv = _information_inverse(design, model, ratio)
    fx = model_matrix(model, row)[0]
    return float(fx @ cinv @ fx)
