"""Pre-experiment evaluation of a split-plot design.

Power for a single-df effect: with the variance ratio treated as known at
planning time, the GLS estimate has variance sigma2_eps * v_j with
v_j = [(X' V^{-1} X)^{-1}]_jj at unit error variance.  An effect worth
snr error standard deviations then gives a t statistic with noncentrality

    delta = snr / sqrt(v_j)

and the two-sided rejection probability at level alpha is

    power = 1 - F_nct(t_crit; df, delta) + F_nct(-t_crit; df, delta).

F_nct (scipy.special.nctdtr) is nan far out in either tail.  A nan tail
falls back to the reflection F_nct(x; df, delta) = 1 - F_nct(-x; df, -delta),
and a tail that is nan both ways falls back to a bound on it or, where the
bound cannot settle it, to quadrature (see _two_sided_power).

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

ALIAS_TOL = 1e-12
TAIL_TOL = 1e-13  # most a tail set from its bound may add to a power's error


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


def _two_sided_power(df, delta, alpha):
    """P(|T| > t_crit) for T ~ noncentral t(df, delta), delta >= 0; nan if unknown.

    A tail that is nan both directly and by reflection is replaced by 0 or
    1 where a bound puts it within TAIL_TOL; a tail the bound cannot settle
    is integrated (_tail_by_quadrature).  Once the upper tail is
    settled as 1 the power is 1: P(T <= -t) <= P(T <= t) <= TAIL_TOL, and
    nctdtr's finite lower tail there can be wrong by more than a rounding
    (1.4e-14 at df 1e6, delta 37.3, alpha 0.999, against a bound of 1e-304).
    A finite lower tail beside a finite upper one is kept even above its
    bound: there nctdtr's errors in the two tails cancel in their sum.
    With Z standard normal and S = sqrt(chi2_df / df), T = (Z + delta) / S,
    and for t >= 0:
      P(T <= -t) = E[ndtr(-delta - t S)] <= ndtr(-delta) E[exp(-t^2 S^2 / 2)]
                 = ndtr(-delta) (1 + t^2 / df)^(-df / 2),
      P(T <= t) <= P(Z <= -delta / 2) + P(t S >= delta / 2).
    """
    from scipy.special import chdtrc, ndtr, nctdtr, stdtrit  # loaded on first use

    t_crit = stdtrit(df, 1 - alpha / 2)
    upper = 1 - nctdtr(df, delta, t_crit)
    if np.isnan(upper):
        upper = nctdtr(df, -delta, -t_crit)
    lower = nctdtr(df, delta, -t_crit)
    if np.isnan(lower):
        lower = 1 - nctdtr(df, -delta, t_crit)
    with np.errstate(over="ignore"):  # a square that overflows makes its bound 0
        if np.isnan(upper) and (
            ndtr(-delta / 2) + chdtrc(df, df * (delta / (2 * t_crit)) ** 2) <= TAIL_TOL
        ):
            return 1.0
        if np.isnan(lower) and ndtr(-delta) * (1 + t_crit**2 / df) ** (-df / 2) <= TAIL_TOL:
            lower = 0.0
    if np.isnan(upper):
        upper = _tail_by_quadrature(df, delta, t_crit)
        if upper >= 1:  # settled as 1, and so is the power, as by the bound
            return 1.0
    if np.isnan(lower):
        lower = _tail_by_quadrature(df, -delta, t_crit)
    return float(upper + lower)


def _tail_by_quadrature(df, nc, t):
    """P(T > t) = E[ndtr(nc - t S)] for T ~ noncentral t(df, nc) and t > 0, by
    quadrature over y = log S; P(T <= -t) at noncentrality delta is this at -delta.

    With s = e^y the integrand is h(y) = ndtr(nc - t s) f_S(s) s, where
    log f_S(s) s = log 2 + (df/2) log(df/2) - log Gamma(df/2) + df y - (df/2) s^2.
    log h is concave in y, so h has one mode; it is integrated around the mode
    on pieces that double with the curvature width there, which keeps a narrow
    peak (large df or t) from slipping between quadrature nodes.  For nc > 0,
    ndtr(nc - t s) steps down at s = nc / t; the mode can sit on the step, with
    h rising only like s^df to its left, so the range grows (and the pieces
    with it) until h at each end is below e^-50 of its peak, and the step is
    broken at nc - t s = 0, +-1, +-2, ..., +-16.
    """
    from scipy.integrate import quad  # only where nctdtr and the bound both fail
    from scipy.optimize import brentq
    from scipy.special import erfcx, gammaln, log_ndtr

    half = df / 2
    log_norm = np.log(2.0) + half * np.log(half) - gammaln(half)

    def log_h(y):
        s = np.exp(y)
        return log_ndtr(nc - t * s) + log_norm + df * y - half * s * s

    def mills(x):  # ndtr'(x) / ndtr(x), stable for any x
        return np.sqrt(2 / np.pi) / erfcx(-x / np.sqrt(2))

    def slope(y):  # d log h / dy: +df far left, -t * mills < 0 at y = 0
        s = np.exp(y)
        return df - df * s * s - t * s * mills(nc - t * s)

    y_mode = brentq(slope, np.log(1e-300), 0.0, xtol=1e-12)
    s = np.exp(y_mode)
    x = nc - t * s
    m = mills(x)
    # -d2 log h / dy2 at the mode, with mills'(x) = -mills(x) (x + mills(x))
    width = 1 / np.sqrt(2 * df * s * s + t * s * m + t * t * s * s * m * (x + m))
    peak = log_h(y_mode)
    reach = [64 * width, 64 * width]  # below and above the mode
    for side, sign in enumerate((-1, 1)):
        while log_h(y_mode + sign * reach[side]) > peak - 50:
            reach[side] *= 2
    steps = width * 2.0 ** np.arange(round(np.log2(max(reach) / width)))
    points = [y_mode - steps, [y_mode], y_mode + steps]  # quad drops those outside
    if nc > 0:  # the step, about one unit of nc - t s wide
        k = nc + np.array([-16.0, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16])
        points.append(np.log(k[k > 0] / t))
    # a tail can be far below quad's default absolute tolerance, so ask for relative accuracy
    value, _ = quad(
        lambda y: np.exp(log_h(y) - peak),
        y_mode - reach[0],
        y_mode + reach[1],
        points=np.concatenate(points),
        epsabs=0,
        epsrel=1e-10,
        limit=200,
    )
    return value * np.exp(peak)


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
    for term, cols in zip(model.terms, model.term_columns):
        df = dfs[term.level]
        for j in range(cols.start, cols.stop):
            v = float(cinv[j, j])
            if v <= 0:
                raise NumericalError(f"nonpositive variance factor for column {labels[j]!r}")
            delta = snr / np.sqrt(v)
            power = _two_sided_power(df, delta, alpha)
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
