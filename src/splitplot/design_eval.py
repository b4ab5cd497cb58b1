"""Pre-experiment evaluation of a split-plot design.

Power for a single-df effect: with the variance ratio treated as known at
planning time, the GLS estimate has variance sigma2_eps * v_j with
v_j = [(X' V^{-1} X)^{-1}]_jj at unit error variance.  An effect worth
snr error standard deviations then gives a t statistic with noncentrality

    delta = snr / sqrt(v_j)

and the two-sided rejection probability at level alpha is

    power = 1 - F_nct(t_crit; df, delta) + F_nct(-t_crit; df, delta).

Here t_crit solves P(|T| > t) = alpha for a central t (_t_crit) and both
tails of the noncentral t are integrals over the chi distribution of the
error scale (_tail_by_quadrature), with math and numpy only: P(T > t) =
E[Phi(delta - t S)], S = sqrt(chi2_df / df).  The upper tail is integrated
directly while delta < t_crit and as the complement of P(T <= t_crit)
beyond, so that a power whose acceptance probability is below rounding is
exactly 1.

Error degrees of freedom follow the containment rule, ModelSpec.error_df.
Correlations, aliases and variance inflation factors of the model columns
come from one entry point, diagnostics.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import _check_ratio, information
from .design_gen import Design, column_labels, expand_model_matrix, model_matrix
from .errors import NumericalError, ValidationError
from .inference import _HALF_LOG_2PI, _f_tails, _stirling_remainder
from .model_spec import ModelSpec

ALIAS_TOL = 1e-12
_GL_NODES = 20
_NEWTON_STEPS = 50
_REACH_DOUBLINGS = 60
_SQRT2 = math.sqrt(2.0)


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
    """P(|T| > t_crit) for T ~ noncentral t(df, delta), delta >= 0, at level alpha.

    Both tails come from _tail_by_quadrature.  The lower one is P(T <= -t_crit),
    the integral at -delta.  The upper one is P(T > t_crit) directly where
    delta < t_crit, and 1 - P(T <= t_crit) beyond, so that it keeps its relative
    accuracy where it is small and rounds to 1 where its complement is below
    rounding.  An upper tail of 1 settles the power as 1: the lower tail is
    then below its complement.
    """
    delta = float(delta)
    t_crit = _t_crit(df, alpha)
    if delta < t_crit:
        upper = _tail_by_quadrature(df, delta, t_crit)
    else:
        upper = 1 - _tail_by_quadrature(df, -delta, -t_crit)
        if upper == 1:
            return 1.0
    return upper + _tail_by_quadrature(df, -delta, t_crit)


def _t_crit(df, alpha):
    """t > 0 with P(|T| > t) = alpha for T ~ Student t(df).

    T^2 ~ F(1, df), so P(|T| > t) and P(|T| <= t) come from inference._f_tails
    at t^2, whose prefactor is t times the density f_T(t).  Newton steps in log t
    solve for the log of the smaller side, alpha or 1 - alpha, which is nearly
    linear in log t at both ends.  For alpha <= 1/2 they start from Hill's
    approximation (1970, CACM Algorithm 396), with the normal quantile of
    Abramowitz and Stegun 26.2.23 (to 4.5e-4); for alpha > 1/2 from
    2 t f_T(0) = 1 - alpha, which lies below the root.
    """
    if alpha > 0.5:
        t = (1 - alpha) * math.sqrt(df * math.pi) / 2 * math.exp(
            math.lgamma(df / 2) - math.lgamma((df + 1) / 2))
    elif df == 1:
        t = 1 / math.tan(alpha * math.pi / 2)
    elif df == 2:
        t = math.sqrt(2 / (alpha * (2 - alpha)) - 2)
    else:
        r = math.sqrt(-2 * math.log(alpha / 2))  # x: the normal quantile at alpha / 2
        x = (2.515517 + r * (0.802853 + r * 0.010328)) / (
            1 + r * (1.432788 + r * (0.189269 + r * 0.001308))) - r
        a = 1 / (df - 0.5)
        b = 48 / (a * a)
        c = ((20700 * a / b - 98) * a / b - 16) * a / b + 96.36
        d = ((94.5 / (b + c) - 3) / b + 1) * math.sqrt(a * math.pi / 2) * df
        y = (d * alpha) ** (2 / df)
        if y > 0.05 + a:  # about the normal quantile
            if df < 5:
                c += 0.3 * (df - 4.5) * (x + 0.6)
            c += (((0.05 * d * x - 5) * x - 7) * x - 2) * x + b
            y = (((((0.4 * x * x + 6.3) * x * x + 36) * x * x + 94.5) / c
                  - x * x - 3) / b + 1) * x
            y = math.expm1(a * y * y)
        else:
            y = ((1 / (((df + 6) / (df * y) - 0.089 * d - 0.822) * (df + 2) * 3)
                  + 0.5 / (df + 4)) * y - 1) * (df + 1) / (df + 2) + 1 / y
        t = math.sqrt(df * y)
    upper = alpha <= 0.5
    target = math.log(alpha if upper else 1 - alpha)
    for _ in range(_NEWTON_STEPS):
        if not 0 < t * t < math.inf:
            break
        sf, cdf, front = _f_tails(t * t, 1, df)
        tail = sf if upper else cdf
        if not tail > 0:
            break
        step = (math.log(tail) - target) * tail / (2 * front)  # in log t
        t *= math.exp(step if upper else -step)
        if abs(step) <= 1e-12:
            return t
    raise NumericalError(f"no critical t found at df={df}, alpha={alpha:g}")


def _log_ndtr(x: np.ndarray) -> np.ndarray:
    """log Phi(x) elementwise, Phi the standard normal distribution function."""
    near = x >= -30
    out = np.empty_like(x)
    out[near] = np.log(0.5 * np.array(list(map(math.erfc, (x[near] / -_SQRT2).tolist()))))
    far = x[~near]
    out[~near] = -0.5 * far * far - np.log(-far) - _HALF_LOG_2PI + np.log(_tail_series(far))
    return out


def _mills(x: float) -> float:
    """phi(x) / Phi(x), the standard normal density over its distribution function."""
    if x >= -30:
        return math.exp(-0.5 * x * x - _HALF_LOG_2PI) / (0.5 * math.erfc(-x / _SQRT2))
    return -x / _tail_series(x)


def _tail_series(x):
    """Phi(x) |x| / phi(x) by its asymptotic series, whose terms fall below 5e-18 by
    the ninth at x <= -30."""
    r = 1 / (x * x)
    return 1 + r * (-1 + r * (3 + r * (-15 + r * (105 + r * (-945 + r * (
        10395 + r * (-135135 + r * 2027025)))))))


def _expm1mx(z: np.ndarray) -> np.ndarray:
    """exp(z) - 1 - z, from its Taylor series where |z| < 0.1 (to rounding by z^11)."""
    out = np.expm1(z) - z
    small = np.abs(z) < 0.1
    zs = z[small]
    series = np.zeros_like(zs)
    for k in range(11, 2, -1):
        series = zs / k * (1 + series)
    out[small] = zs * zs / 2 * (1 + series)
    return out


def _tail_by_quadrature(df, nc, t):
    """P(T > t) = E[Phi(nc - t S)] for T ~ noncentral t(df, nc) and t != 0, by
    quadrature over y = log S; P(T <= t) is this at -nc and -t.

    With s = e^y the integrand is h(y) = Phi(nc - t s) f_S(s) s, where, with
    half = df / 2 and delta_S Stirling's remainder of lgamma,
        log f_S(s) s = log 2 + half log half - lgamma(half) + df y - half s^2
                     = log(df / pi) / 2 - delta_S(half) - half (exp(2y) - 1 - 2y),
    whose second form does not cancel at large df.  h has one mode: log h is
    concave for t > 0, and for t < 0 its slope crosses zero only downwards,
    since Phi'(x) / Phi(x) > -x.  The mode is found by bisection on that slope.
    h is integrated around the mode on Gauss-Legendre panels (_GL_NODES nodes
    each) that double with the curvature width there, which keeps a narrow peak
    (large df or t) from slipping between nodes.  Where nc / t > 0,
    Phi(nc - t s) steps over s = nc / t; the mode can sit on the step, with h
    changing only like s^df on its far side, so the range grows (and the panels
    with it) until h at each end is below e^-50 of its peak, and the step is
    broken at nc - t s = 0, +-1, +-2, ..., +-16.
    """
    half = df / 2
    log_norm = 0.5 * math.log(df / math.pi) - _stirling_remainder(half)

    def log_h(y):
        with np.errstate(over="ignore"):  # exp(y) or x^2 in log Phi(x), where h is 0
            return _log_ndtr(nc - t * np.exp(y)) + log_norm - half * _expm1mx(2 * y)

    def slope(y):  # d log h / dy: +df far left, -inf far right
        s = math.exp(y)
        return df - df * s * s - t * s * _mills(nc - t * s)

    lo, hi = math.log(1e-300), math.log(1e300)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    y_mode = (lo + hi) / 2
    s = math.exp(y_mode)
    x = nc - t * s
    m = _mills(x)
    # -d2 log h / dy2 at the mode, with mills'(x) = -mills(x) (x + mills(x))
    width = 1 / math.sqrt(2 * df * s * s + t * s * m + t * t * s * s * m * (x + m))
    # h at the mode, then at 64 widths and doublings of that on either side
    probes = 64 * width * 2.0 ** np.arange(_REACH_DOUBLINGS)
    values = log_h(np.concatenate([[y_mode], y_mode - probes, y_mode + probes]))
    peak = values[0]
    if peak < -800:  # even over the widest range, the tail is below the smallest double
        return 0.0
    reach = []  # below and above the mode: the first probe where h < e^-50 of its peak
    for side in values[1:].reshape(2, -1):
        below = np.flatnonzero(side <= peak - 50)
        reach.append(probes[below[0] if below.size else -1])
    lo, hi = y_mode - reach[0], y_mode + reach[1]
    steps = width * 2.0 ** np.arange(round(math.log2(max(reach) / width)))
    edges = [y_mode - steps, [lo, y_mode, hi], y_mode + steps]
    at = (nc + np.array([-16.0, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16])) / t
    edges.append(np.log(at[at > 0]))  # the step, about one unit of nc - t s wide
    edges = np.unique(np.concatenate(edges))
    edges = edges[(edges >= lo) & (edges <= hi)]
    nodes, weights = _gauss_legendre()
    centre, radius = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    y = (centre[:, None] + radius[:, None] * nodes).ravel()
    value = float(np.exp(log_h(y) - peak) @ (radius[:, None] * weights).ravel())
    return value * math.exp(peak)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of _GL_NODES-point Gauss-Legendre quadrature on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # 4 ms of import, paid by eval only

    return leggauss(_GL_NODES)


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
                powers[df, delta] = _two_sided_power(df, delta, alpha)
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
