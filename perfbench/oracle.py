"""Independent checks of a REML fit, written apart from the program's code.

V = I + eta * Z Z' is inverted plot by plot with the closed form
(I - c_i J) on a plot of size m_i, c_i = eta / (1 + m_i eta), using
``np.bincount`` for the plot sums.  From it the checker rebuilds the profiled
restricted likelihood, the GLS coefficients at the reported ratio and the
Wald statistics, and compares them with what the program returned.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import f as f_dist

# coarse ratios the reported optimum must beat (the program searches 1e-8..1e8)
_GRID = (0.0,) + tuple(10.0 ** k for k in range(-6, 7))
_STEP = 1e-3  # log-ratio step of the local-minimum probe
OBJ_TOL = 1e-9  # relative slack on objective comparisons
BETA_RTOL = 1e-6
P_RTOL = 1e-6


class Gls:
    """GLS pieces of one response on one layout at a given ratio."""

    def __init__(self, x, y, plot):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.plot = np.asarray(plot, dtype=int)
        self.sizes = np.bincount(self.plot).astype(float)

    def _vinv(self, b, eta):
        shrink = eta / (1.0 + self.sizes * eta)
        if b.ndim == 1:
            sums = np.bincount(self.plot, weights=b, minlength=len(self.sizes))
            return b - (shrink * sums)[self.plot]
        sums = np.stack(
            [np.bincount(self.plot, weights=b[:, j], minlength=len(self.sizes))
             for j in range(b.shape[1])],
            axis=1,
        )
        return b - (shrink[:, None] * sums)[self.plot]

    def solve(self, eta):
        """beta, information matrix, weighted RSS at V = I + eta Z Z'."""
        vx = self._vinv(self.x, eta)
        info = self.x.T @ vx
        beta = np.linalg.solve(info, vx.T @ self.y)
        resid = self.y - self.x @ beta
        return beta, info, float(resid @ self._vinv(resid, eta))

    def objective(self, eta):
        n, p = self.x.shape
        _, info, rss = self.solve(eta)
        _, logdet_info = np.linalg.slogdet(info)
        return (float(np.sum(np.log1p(self.sizes * eta))) + float(logdet_info)
                + (n - p) * math.log(rss))


def check_fit(x, y, plot, ratio, beta, tests, term_dfs) -> list[str]:
    """Problems with a reported fit; empty when it agrees with the oracle.

    tests holds (f_stat, p_value, df_num, df_den) per model term in model
    order; term_dfs the column count of each term (intercept excluded).
    """
    gls = Gls(x, y, plot)
    problems = []
    f_hat = gls.objective(ratio)
    slack = OBJ_TOL * (1.0 + abs(f_hat))
    probes = list(_GRID)
    if ratio > 0:
        probes += [ratio * math.exp(-_STEP), ratio * math.exp(_STEP)]
    worse = [eta for eta in probes if gls.objective(eta) < f_hat - slack]
    if worse:
        problems.append(f"ratio {ratio!r} is not the REML optimum (beaten at {worse[0]!r})")

    ref_beta, info, rss = gls.solve(ratio)
    scale = float(np.max(np.abs(ref_beta)))
    if not np.allclose(beta, ref_beta, rtol=BETA_RTOL, atol=BETA_RTOL * scale):
        problems.append("GLS coefficients disagree with the oracle")

    n, p = gls.x.shape
    cov = rss / (n - p) * np.linalg.inv(info)
    start = 1
    for (f_stat, p_value, df_num, df_den), df in zip(tests, term_dfs):
        cols = slice(start, start + df)
        start += df
        b = ref_beta[cols]
        stat = float(b @ np.linalg.solve(cov[cols, cols], b)) / df
        ref_p = float(f_dist.sf(stat, df_num, df_den))
        if not math.isclose(f_stat, stat, rel_tol=P_RTOL, abs_tol=1e-12):
            problems.append(f"F statistic {f_stat!r} != oracle {stat!r}")
        if not math.isclose(p_value, ref_p, rel_tol=P_RTOL, abs_tol=1e-12):
            problems.append(f"p-value {p_value!r} != oracle {ref_p!r}")
    return problems
