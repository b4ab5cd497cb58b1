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
fit's exact scores use the first line too, because they also need
X' V^{-1} y and the weighted residual sum of squares.  They sum S = Z'X
once per design and model, and form V^{-1} X for a stack of ratios at a
time as solve_v does: w * S per plot, (w[:, None] * S)[a] gathered to runs
and subtracted from X, in a (k, n, p) buffer; k is as many ratios as fit in
2^16 cells, up to the whole REML grid.  Each ratio's slice is solve_v's at
unit error variance, bit for bit, so fitted output is unchanged.  REML's
grid screen uses a third form, the stratum one,

    B' V^{-1} B = W + sum_i s_i s_i' / (m_i (1 + m_i eta)),

with W the cross-products of B centered by plot means and s_i the rows of
S: both terms are positive semidefinite, so it loses nothing to
cancellation at large eta.  The screen only decides which grid ratios the
first form scores exactly.  The forms round differently, and seeded
designs and fitted output are pinned byte for byte, so each consumer keeps
the form it has always used; the design search keeps each score's S with
its M and forms its screen's V^{-1} X rows from S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ValidationError


# The LAPACK gufuncs behind np.linalg.slogdet, solve and inv, called with the loop those
# wrappers pick for float64, so each result has the wrapper's bits at a fraction of the
# call cost.  They skip the wrappers' checks: the input is a float64 square matrix or a
# stack of them, and solve's and inv's is nonsingular, which every caller has made sure
# of (a slogdet sign > 0 with a finite log, from the same LU, comes first).  Without the
# wrappers' errstate a singular input would warn and give nan instead of raising.
def _slogdet(a):
    """(sign, log |det a|), as np.linalg.slogdet; sign 0 and log -inf where a is singular."""
    return _umath_linalg.slogdet(a, signature="d->dd")


def _solve(a, b):
    """a^-1 b for nonsingular a, as np.linalg.solve: b is (p,) or a stack of (p, k)."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


def _inv(a):
    """a^-1 for nonsingular a, as np.linalg.inv."""
    return _umath_linalg.inv(a, signature="d->d")


@dataclass(frozen=True)
class WholePlotLayout:
    """Run-to-whole-plot assignment; plot indices are 1..r, every plot nonempty.

    zero_based (plot index per run, from 0), sizes (runs per plot) and
    n_plots are derived once at construction; the arrays are read-only.
    _bins keeps the bins index per block count.
    """

    assignment: tuple[int, ...]
    zero_based: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    n_plots: int = field(init=False, repr=False, compare=False)
    _bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def bins(self, k: int) -> np.ndarray:
        """The read-only (k, n) index of k stacked blocks of runs: plot + c * n_plots in
        block c, so one bincount sums every block per plot; kept per k."""
        if k not in self._bins:
            bins = self.zero_based + self.n_plots * np.arange(k)[:, None]
            bins.setflags(write=False)
            self._bins[k] = bins
        return self._bins[k]

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
    k, r = b.shape[1], layout.n_plots
    sums = np.bincount(layout.bins(k).ravel(), weights=b.T.ravel(), minlength=r * k)
    # C order keeps S' diag(w) S on the BLAS path, and so the rounding, that
    # the design search has always had
    return np.ascontiguousarray(sums.reshape(k, r).T)


def _shrink(layout: WholePlotLayout, eta: float) -> np.ndarray:
    """w_i = eta / (1 + m_i eta), the weight V^{-1} puts on plot sums."""
    return eta / (1.0 + layout.sizes * eta)


def _information_sums(layout: WholePlotLayout, b: np.ndarray, eta: float):
    """(B' V^{-1} B, S = Z'B): information and the plot sums it was formed from."""
    s = _plot_sums(layout, b)
    return b.T @ b - s.T @ (s * _shrink(layout, eta)[:, None]), s


def information(layout: WholePlotLayout, b: np.ndarray, eta: float) -> np.ndarray:
    """B' V^{-1} B at V = I + eta Z Z', for an (n, k) block B; see the module docstring."""
    return _information_sums(layout, b, eta)[0]


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
    unit = b - (_shrink(layout, model.components.ratio)[:, None] * _plot_sums(layout, b))[a]
    out = unit / model.components.sigma2_epsilon
    return out[:, 0] if one_dim else out


def log_det_v(model: CovarianceModel) -> float:
    sizes = model.layout.sizes
    s2e = model.components.sigma2_epsilon
    s2g = model.components.sigma2_gamma
    return float(np.sum((sizes - 1) * np.log(s2e) + np.log(s2e + sizes * s2g)))
