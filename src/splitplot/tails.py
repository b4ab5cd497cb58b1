"""Tail probabilities of the F and noncentral t distributions, with math and numpy only.

f_sf is the p-value of a Wald F test: P(F > stat) for F ~ F(df_num, df_den)
is the regularized incomplete beta I_x(df_den / 2, df_num / 2) at
x = df_den / (df_den + df_num stat), evaluated by its continued fraction
(_f_tails).

two_sided_power is the rejection probability of a two-sided t test whose
statistic is noncentral t(df, delta).  t_crit solves P(|T| > t) = alpha for a
central t (_t_crit) and both tails of the noncentral t are integrals over the
chi distribution of the error scale (_tail_by_quadrature): P(T > t) =
E[Phi(delta - t S)], S = sqrt(chi2_df / df).  The upper tail is integrated
directly while delta < t_crit and as the complement of P(T <= t_crit)
beyond, so that a power whose acceptance probability is below rounding is
exactly 1.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import NumericalError

_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_CF_HEAD = 64
_CF_MAX_STEPS = 100_000
_GL_NODES = 20
_NEWTON_STEPS = 50
_REACH_DOUBLINGS = 60
_SQRT2 = math.sqrt(2.0)


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


def f_sf(stat, df_num, df_den) -> float:
    """P(F > stat) for F ~ F(df_num, df_den): 1 at stat <= 0, 0 at inf, nan at nan."""
    if stat <= 0:
        return 1.0
    if stat == math.inf:
        return 0.0
    if stat != stat:
        return math.nan
    return _f_tails(stat, df_num, df_den)[0]


def two_sided_power(df, delta, alpha):
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

    T^2 ~ F(1, df), so P(|T| > t) and P(|T| <= t) come from _f_tails at t^2,
    whose prefactor is t times the density f_T(t).  Newton steps in log t solve
    for the log of the smaller side, alpha or 1 - alpha, which is nearly linear
    in log t at both ends.  For alpha <= 1/2 they start from the normal quantile
    at alpha / 2 of Abramowitz and Stegun 26.2.23 (to 4.5e-4); for alpha > 1/2
    from 2 t f_T(0) = 1 - alpha, which lies below the root.
    """
    if alpha > 0.5:
        t = (1 - alpha) * math.sqrt(df * math.pi) / 2 * math.exp(
            math.lgamma(df / 2) - math.lgamma((df + 1) / 2))
    else:
        r = math.sqrt(-2 * math.log(alpha / 2))
        t = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
            1 + r * (1.432788 + r * (0.189269 + r * 0.001308)))
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
    # np.unique's values (no NaN reaches here) without its first call's import of numpy.ma
    edges = np.sort(np.concatenate(edges))
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
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
