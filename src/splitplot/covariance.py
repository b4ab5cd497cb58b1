"""Block covariance for the two-error split-plot model.

Run j inside whole plot i observes

    Y_ij = f(w_i, s_ij)' beta + gamma_i + eps_ij

with a shared plot effect gamma_i ~ N(0, sigma2_gamma) and a run error
eps_ij ~ N(0, sigma2_eps).  Stacking runs gives

    V = sigma2_eps * I + sigma2_gamma * Z Z'

where Z is the run-to-plot indicator.  Within one plot of size m the block
is compound symmetric (sigma2_eps + sigma2_gamma on the diagonal,
sigma2_gamma off it) and both the inverse and the determinant are closed
form, so solves cost O(n) instead of O(n^3):

    block inverse: (1 / sigma2_eps) * (I - c * J),
                   c = sigma2_gamma / (sigma2_eps + m * sigma2_gamma)
    log det V    = sum_i [ (m_i - 1) * log sigma2_eps
                           + log(sigma2_eps + m_i * sigma2_gamma) ]

The rest of the package works at unit error variance, V = I + eta Z Z'
with eta = sigma2_gamma / sigma2_eps, where the block inverse becomes

    V^{-1} B    = B - Z diag(w) S,                S = Z'B,
    B' V^{-1} B = B'B - S' diag(w) S,             w_i = eta / (1 + m_i eta),

and S holds the per-plot column sums of B.  `information` evaluates the
second line; design search and design evaluation score designs with it.
`solve_v` evaluates the first, then divides by sigma2_eps.  The REML/GLS
fit uses the first line too, because it also needs X' V^{-1} y and the
weighted residual sum of squares.  It gathers S = Z'X to runs once per fit
and forms V^{-1} X for a stack of ratios at a time, w[a] * S[a] subtracted
from X in a (k, n, p) buffer with solve_v's elementwise arithmetic; k is as
many ratios as fit in 2^16 cells, up to the whole REML grid.  Each ratio's
slice rounds as solve_v would at unit error variance, so fitted output is
unchanged.  The two lines round differently, and seeded designs and fitted
output are pinned byte for byte, so each consumer keeps the form it has
always used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class WholePlotLayout:
    """Run-to-whole-plot assignment; plot indices are 1..r, every plot nonempty.

    zero_based (plot index per run, from 0), sizes (runs per plot) and
    n_plots are derived once at construction; the arrays are read-only.
    """

    assignment: tuple[int, ...]
    zero_based: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    n_plots: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.assignment) == 0:
            raise ValidationError("layout needs at least one run")
        arr = np.asarray(self.assignment)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError("whole-plot indices must be integers")
        if arr.min() < 1:
            raise ValidationError("whole-plot indices must cover 1..r with no gaps")
        zero_based = arr.astype(int) - 1
        sizes = np.bincount(zero_based)
        if not sizes.all():
            raise ValidationError("whole-plot indices must cover 1..r with no gaps")
        zero_based.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "zero_based", zero_based)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n_plots", len(sizes))

    @property
    def n_runs(self) -> int:
        return len(self.assignment)

    @cached_property
    def plot_rows(self) -> tuple[np.ndarray, ...]:
        """Run indices of each plot, ascending, plot by plot."""
        grouped = np.argsort(self.zero_based, kind="stable")
        return tuple(np.split(grouped, np.cumsum(self.sizes)[:-1]))

    def indicator(self) -> np.ndarray:
        """Z, the n x r run-to-plot indicator matrix."""
        z = np.zeros((self.n_runs, self.n_plots))
        z[np.arange(self.n_runs), self.zero_based] = 1.0
        return z


@dataclass(frozen=True)
class VarianceComponents:
    sigma2_gamma: float
    sigma2_epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma2_gamma) and self.sigma2_gamma >= 0):
            raise ValidationError("sigma2_gamma must be finite and >= 0")
        if not (np.isfinite(self.sigma2_epsilon) and self.sigma2_epsilon > 0):
            raise ValidationError("sigma2_epsilon must be finite and > 0")

    @property
    def ratio(self) -> float:
        """eta = sigma2_gamma / sigma2_epsilon."""
        return self.sigma2_gamma / self.sigma2_epsilon


def _check_ratio(ratio: float) -> None:
    """Reject a variance ratio eta = sigma2_gamma / sigma2_eps that is not finite and >= 0."""
    if not (np.isfinite(ratio) and ratio >= 0):
        raise ValidationError("ratio must be finite and >= 0")


@dataclass(frozen=True)
class CovarianceModel:
    layout: WholePlotLayout
    components: VarianceComponents


def build_v(model: CovarianceModel) -> np.ndarray:
    """Dense n x n covariance matrix; meant for checks and small n."""
    a = model.layout.zero_based
    same_plot = a[:, None] == a[None, :]
    v = model.components.sigma2_gamma * same_plot.astype(float)
    v[np.diag_indices_from(v)] += model.components.sigma2_epsilon
    return v


def _plot_sums(layout: WholePlotLayout, b: np.ndarray) -> np.ndarray:
    """Z' b for an (n, k) array: per-plot column sums, accumulated in run order."""
    k = b.shape[1]
    r = layout.n_plots
    bins = layout.zero_based + r * np.arange(k)[:, None]
    sums = np.bincount(bins.ravel(), weights=b.T.ravel(), minlength=r * k)
    # C order keeps S' diag(w) S on the BLAS path, and so the rounding, that
    # the design search has always had
    return np.ascontiguousarray(sums.reshape(k, r).T)


def _shrink(layout: WholePlotLayout, eta: float) -> np.ndarray:
    """w_i = eta / (1 + m_i eta), the weight V^{-1} puts on plot sums."""
    return eta / (1.0 + layout.sizes * eta)


def information(layout: WholePlotLayout, b: np.ndarray, eta: float) -> np.ndarray:
    """B' V^{-1} B at V = I + eta Z Z', for an (n, k) block B; see the module docstring."""
    s = _plot_sums(layout, b)
    return b.T @ b - s.T @ (s * _shrink(layout, eta)[:, None])


def solve_v(model: CovarianceModel, rhs: np.ndarray) -> np.ndarray:
    """V^{-1} rhs through the per-plot closed form; rhs is (n,) or (n, k)."""
    layout = model.layout
    b = np.asarray(rhs, dtype=float)
    one_dim = b.ndim == 1
    if one_dim:
        b = b[:, None]
    if b.shape[0] != layout.n_runs:
        raise ValidationError(f"rhs has {b.shape[0]} rows, layout has {layout.n_runs} runs")
    a = layout.zero_based
    unit = b - _shrink(layout, model.components.ratio)[a, None] * _plot_sums(layout, b)[a]
    out = unit / model.components.sigma2_epsilon
    return out[:, 0] if one_dim else out


def log_det_v(model: CovarianceModel) -> float:
    sizes = model.layout.sizes
    s2e = model.components.sigma2_epsilon
    s2g = model.components.sigma2_gamma
    return float(np.sum((sizes - 1) * np.log(s2e) + np.log(s2e + sizes * s2g)))
