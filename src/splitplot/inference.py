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
ModelSpec.error_df; their p-values are tails.f_sf.  reml_fit refuses a
design that leaves fewer than 1 of them at either level: there the fixed
effects absorb a whole stratum and obj does not depend on eta.

All exact scores of obj come from one kernel, _DesignPart.evaluator, over
a stack of ratios.  It has a per-design part and a per-response part.  The
per-design part, a _DesignPart, checks that X has full column rank and sums
Z'X per plot (r x p); the bins, each run's (ratio, plot) row, are the
layout's (WholePlotLayout.bins).  reml_fit and gls_fit keep the part, with
the read-only X and its column labels, as the design's memo entry under
the ModelSpec (see Design), so Monte Carlo replicates on one design derive
it once, while reml_objective builds one without labels for the x it is
given.  The per-response part holds y and its noise floor and allocates one
(k, n, p) buffer for V^{-1} X, with k the ratios that fit in _PASS_CELLS =
2^16 cells (512 KB), at least one and at most the 49-point grid plus eta = 0:
50 on the 24-run tin design, one at 12 800 runs, where the buffer is the
size of X.  gls_fit and reml_objective are passes of one ratio.  A pass
forms V^{-1} X and V^{-1} resid as covariance.solve_v does: w_i times Z'X
and the residual sums per plot, gathered to runs by one take over the
bins.  Its rank check reads the slogdet signs and logs as the lists the
objective is summed from.  X' V^{-1} X, slogdet, the solve for beta and
y' P y are stacked numpy calls whose every slice makes the BLAS or LAPACK
call of a single ratio, so a ratio's result does not depend on the pass it
is scored in and fitted output is unchanged.  slogdet, the solves and the
inverse behind cov_beta call LAPACK's gufuncs through covariance's helpers
(_slogdet, _solve, _inv): the calls np.linalg's wrappers make, with their
bits, without the wrappers' checks and per-call set-up.  They need a
nonsingular input: each solve and inverse takes an X' V^{-1} X that passed
the rank check, or a Wald test's block of its inverse.

The grid serves only to find its argmin k, golden section's seed.  The
first reml_fit on a design reads the part's _Strata, which the part derives
from X alone and keeps, read-only: the screen's stratum terms (W_xx =
X_c' X_c, the H_d of X, X_c and the plot-size classes), its _Coefficients
at the 50 ratios, and log det V + log det(X' V^{-1} X) at the 49 grid
ratios and eta = 0, from the passes a grid scan of k ratios would make, so
they are one_pass's bits, with X' V^{-1} X checked for rank at every ratio
before anything is kept.  Every fit then takes one path.
The screen scores all 50 ratios from stratum sums and keeps as candidates
only the grid ratios that can be the grid minimum.  A lone candidate is
the grid argmin k, without an exact pass; several are scored exactly
together, in passes that each form their own X' V^{-1} X, and k is the
first lowest.  eta = 0 is scored only where the screen cannot rule it out
(below); _RemlSearch.exact_grid counts the candidates scored exactly and
eta = 0 where it is.

The screen.  With B = [X y] and s_i its sums over plot i,

    B' V^{-1} B = W + sum_d H_d / (1 + d eta),   H_d = sum_{m_i = d} s_i s_i' / d,

where W holds the cross-products of B centered by plot means: the
split-plot stratum decomposition (Letsinger, Myers & Lentner 1996; Gilmour
& Goos 2009).  Both parts are positive semidefinite, so nothing cancels at
large eta.  X's block A_xx and its inverse are per design (_Strata.at
forms them at any ratio in p x p work); a fit makes one pass over y for
its plot sums and centered values, then works on 50 p-vectors.  With
beta~ = A_xx^{-1} a_xy from the kept inverse, the screened
y'P y~ = A_yy - a_xy' beta~, and obj~ adds (n - p) log y'P y~ to the kept
log det V and log det(X' V^{-1} X) bits, so obj and obj~ differ only
through y' P y.

The margin bounds that difference to first order in eps = 2^-52.  Let m be
the largest plot size, lambda and kappa the lowest eigenvalue and the
condition number of A_xx scaled to unit diagonal, and
R = |y| + sum_l |beta~_l| |x_l|.
  - The screen's y'P y~ is off by at most
    eps [e S^2 (1 + p (e + 6p + 6) eps / lambda)^2 + (6p + 4) p kappa^2 A_yy],
    e = 2 (n + p + 8 + m^1.5), S = sqrt(A_yy) + sum_l |beta~_l| sqrt(A_ll).
    A is positive semidefinite, so forming its entries from W and H_d
    loses at most e eps of sqrt(A_ii A_jj) each, and the quadratic form
    q(b) = r' A r, r = [-b; 1], moves by at most e eps S(b)^2, with
    S(b) = sqrt(A_yy) + sum_l |b_l| sqrt(A_ll).  y' P y is the least q(b),
    at beta, and the screen's y'P y~ the least formed q(b), at beta~, so
    y'P y~ lies within e eps S(beta~)^2 below and e eps S(beta)^2 above
    y' P y.  beta - beta~ solves A_xx's system with the entry errors
    (e + 6p + 6 with the scaling and eigh) as right-hand side, so
    sum_l |beta_l - beta~_l| sqrt(A_ll) <= p (e + 6p + 6) eps S / lambda:
    S(beta) <= S (1 + p (e + 6p + 6) eps / lambda), the second-order
    factor.  As beta~' A_xx beta~ <= A_yy, S^2 is at most
    (1 + sqrt(p / lambda))^2 A_yy, and on fit-large, with y centered
    (below), it is about A_yy, 25 times less.
    The eigendecomposition behind the inverse and the products move
    a_xy' beta~ by at most the second term.  Near an exact fit A_yy / y'P y
    grows, and so does the margin.
  - one_pass's y' P y is off by at most
    eps y'P y [(m + 1)(1 + m eta) + (n + 1) sqrt(1 + m eta)]: the per-plot
    residual sums cost (m + 1) eps of sum_i w_i (sum_k |resid_k|)^2
    <= |resid|^2 <= (1 + m eta) y' P y, the B'B - S' diag(w) S
    cancellation of covariance, and resid' V^{-1} resid costs
    (n + 1) eps |resid| |V^{-1} resid|, with |V^{-1} resid|^2 <= y' P y.
    Forming resid adds (p + 1) eps R sqrt(y' P y), at most
    (p + 1) eps (R^2 + y' P y) / 2.  A beta that misses its normal
    equations by |g_l| <= 2 (n + p + m) eps R |x_l| adds g' M^-1 g, second
    order, with |M^-1| <= (1 + m eta) / lambda_min of X'X at unit diagonal.
rho, the two bounds over y'P y~ times _SCREEN_SAFETY = 8, is thus per-design
coefficients at each ratio times 1, A_yy / y'P y~, S^2 / y'P y~ and
R^2 / y'P y~.  The
margin is (n - p) rho / (1 - rho), which bounds
(n - p) |log y' P y - log y'P y~|, plus 8 times 4 eps of
|log det V + log det(X' V^{-1} X)| + (n - p) |log y'P y~| for the rounding
of each objective's sums.  It is infinite where rho >= 1/2 or
y'P y~ <= 2 _NOISE_FLOOR y' y.  A grid ratio whose obj~ less its margin
exceeds the least obj~ plus margin is strictly above the exact grid
minimum, so k, the golden-section walk and every fitted byte are those of
a fit that scores all 50.  A ratio whose y' P y may reach the noise
floor is scored exactly too, so a response is refused for zero residual
variation on the same inputs as before, and the rank check sees all 50
ratios before any solve.  Where obj is flat to rounding nothing can be
excluded: on a layout of one-run plots, where V = (1 + eta) I and obj does
not depend on eta, a fit would score all 50, but such a design leaves no
subplot error df, and reml_fit refuses it first.  Nearly every fit leaves
one candidate, which it does not score: over 2 000 mc-power fits of case 0
a fit scores 0.0825 grid ratios and eta = 0 exactly, nearly all of them
eta = 0, in about 7 % of the fits, and no fit-large fit scores any.  Over
random layouts |obj - obj~| stays below an eighth of the margin
(test_the_grid_screen_bounds_the_exact_objective).

Golden section walks one loop, _golden_section, of its own steps, in k's
grid bracket.  Which point a step asks for next depends only on the
comparisons made so far.  The pass width selects only two things: the
length of the exact path, and whether the walk's screen runs.  Where a
pass holds fewer than _PATH_POINTS = 7 ratios (fit-large, the 1 968- and
6 000-run layouts), each exact point is a pass over n, and the walk first
takes every step the stratum screen decides.  y is centered
once per fit by beta~_k, the screen's coefficients there (the exact ones
where several candidates were scored): P X = 0, so y' P y is unchanged in
exact arithmetic, while A_yy / y'P y~, which sets the screen's error,
falls from about 24 to about 1 on fit-large.  One _Strata.at call gives
A_xx, its inverse, log det A_xx and the margin's coefficients at a list of
ratios, and log det V is summed over the plot-size classes: first at c
and d, then, at a step asking for a point not screened yet, at that point
and up to _PATH_POINTS - 1 = 6 more on the path the parabola through the
three lowest screened values predicts, the grid screen's obj~ at k and its
two grid neighbours among them.  Where |obj~(c) - obj~(d)| exceeds the two
margins, the exact comparison has the same sign, and the step is taken
without an exact pass.  From the first comparison the screen cannot
decide on, and always at the step that ends the walk, the walk is exact:
it scores c and d, then the point each step asks for, one point per pass:
a wider pass saves about what it costs.

Where 7 ratios fit one pass (n p up to 9 362, 851 runs of the tin model),
the walk is exact from the start, and each pass scores the point the next
step asks for and up to 6 more on the path a parabola predicts: through
the three lowest values so far, it predicts "left" at a step when its
vertex lies left of (c + d) / 2.  The first pass scores golden section's
first pair, the 7 points of the path the parabola through obj~ at k and
its two grid neighbours predicts, and k itself, 10 ratios, so that every
later parabola reads k's exact value.  Neither a seed nor a prediction
decides a comparison: they shape only which points a pass holds.  The walk
compares as a one-point search would, reads each point scored already,
keyed by its log ratio, and scores a new path where a step asks for one it
lacks; a step whose bracket is done asks for the midpoint, which is eta-hat.

Last, at every width, eta = 0 is scored only where obj~(0) - margin(0),
from the grid screen, does not exceed the walk's final exact objective;
elsewhere obj(0) exceeds it, and zero cannot win
(test_eta_zero_is_left_unscored_only_where_it_loses).  A tin fit makes
about 9 exact passes after its grid screen (9.074 of 57.3 ratios over
2 000 mc-power fits of case 0); a fit-large fit decides about 17.4 of its
40 comparisons on the screen and makes about 24.6 exact one-ratio passes
(fits 1 to 10 of case 0), against 42 golden-section ratios, the grid
argmin and eta = 0 without the screen.  _RemlSearch.passes and ratios
count every exact evaluator pass and ratio after the grid screen, the
candidates and eta = 0 included, and certified the comparisons the screen
decided.  Ratios score alike in any pass and every comparison is golden
section's own, so neither the screen, the prediction nor the pass width
moves a fitted digit: eta-hat, its _Evaluation and every fitted byte are
those of a search that scores one point per pass, at either width
(test_every_fit_equals_the_fit_with_the_screen_off).  Lookahead adds no
failure mode: every point lies inside k's grid bracket, whose ends passed
the rank check when the grid was kept and clear the noise floor, scored
exactly or within the screen's bound, and in exact arithmetic
X' V^{-1} X is positive definite at every ratio while y' P y does not grow
with eta, so a point between two such ends passes both checks too.

The walk's margin is the grid's with three more terms, each times
_SCREEN_SAFETY, where obj~ takes its log dets from the screen too.
  - log det(X' V^{-1} X).  one_pass takes the slogdet of M = X'(X - G), the
    screen log det A_xx from eigh at unit diagonal.  Each is the log det of
    the true X' V^{-1} X with entries off by at most e eps sqrt(A_ii A_jj):
    (n + m + 5)(1 + m eta) for M's products, as |x_k|^2 <= (1 + m eta)
    x_k' V^{-1} x_k; p^2 2^(p - 1) s for slogdet's LU, with s the spread of
    A_xx's diagonal and 2^(p - 1) partial pivoting's growth bound;
    2 (n + p + 8 + m^1.5) for A_xx's sums, as above; 6p + 6 for its scaling
    and eigh.  At unit diagonal that is a perturbation of norm p e eps, so
    each log det moves by at most p^2 e eps / lambda; the (3p + 2) eps
    rounding of their sums of logs is added.  Where p e eps / lambda times
    _SCREEN_SAFETY reaches 1/2 the margin is infinite; below that M is
    positive definite, so the exact pass would pass its rank check.
  - Centering.  y - X beta_k is off by at most (p + 2) eps R, here with
    R = |y| + sum_l (|beta_k,l| + |beta~_l|) |x_l|, and P <= V^{-1} <= I, so
    y' P y moves by at most 2 (p + 2) eps R sqrt(y' P y): rho gains
    2 (p + 2) eps R / sqrt(y'P y~).
  - log det V.  Each log1p(m_i eta) is within eps (1 + log1p(m_i eta)).
    one_pass sums r such terms, within (r - 1) eps of their sum; the screen
    sums the D class terms times their plot counts, within (D + 1) eps.
    So the two differ by at most (2 r + 1) eps (1 + log det V).
rho < 1/2 and y'P y~ > 2 _NOISE_FLOOR y' y still keep the exact y' P y off
the noise floor, so no decided step skips a point where the exact walk
would raise, and a lone grid candidate or eta = 0 left unscored would pass
both exact checks.  On fit-large the margin at eta-hat is about 1.2e-6
(1.5e-5 with the a-priori S^2 bound), against 1.1e-4 with y uncentered,
and |obj - obj~| at most about 6e-11; over random layouts |obj - obj~|
stays below an eighth of the margin
(test_the_walk_screen_bounds_the_exact_objective).  The S^2 term, about
half of rho on fit-large, is three fifths of the margin on 2 000 runs in
plots of 4, and there bounds the 40-digit error of the formed entries
(test_the_walk_margin_carries_the_a_entry_term_on_a_large_layout); every
decision the screen takes is the exact one
(test_one_point_fits_take_from_the_screen_only_what_exact_scores_decide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .covariance import (
    VarianceComponents,
    WholePlotLayout,
    _check_ratio,
    _inv,
    _plot_sums,
    _slogdet,
    _solve,
)
from .design_gen import Design, column_labels, expand_model_matrix
from .errors import NumericalError, ValidationError
from .model_spec import ModelSpec, SUBPLOT, WHOLE_PLOT, _check_name
from .tails import f_sf

LOG_ETA_LOW = math.log(1e-8)
LOG_ETA_HIGH = math.log(1e8)
GOLDEN_TOL = 1e-8
# Near eta = 1e8 the objective carries rounding noise of about 1e-6, so on a
# fit pinned to the cap golden section stops up to ~1e-6 below LOG_ETA_HIGH,
# not within GOLDEN_TOL; an optimum within 0.01 % of the cap is the cap.
_CAP_TOL = 1e-4
_GRID_POINTS = 49
# the REML grid: log ratios evenly spaced over [LOG_ETA_LOW, LOG_ETA_HIGH], and the ratios
_GRID_LOG_ETAS = tuple(np.linspace(LOG_ETA_LOW, LOG_ETA_HIGH, _GRID_POINTS).tolist())
_GRID_ETAS = tuple(math.exp(t) for t in _GRID_LOG_ETAS)


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
# points per predicted golden-section path: per exact pass where that many ratios fit one
# pass, else per _Strata.at call of the walk's screen.  On the tin model 7 tied with 15 and
# beat 3 and 31 at 24 runs, and took 0.49 to 0.85 of one point's time per fit from 96 to
# 768 runs; at 1 968 runs neither 3 nor 7 beat one point per pass.  On fit-large the
# screened steps took 3.2 ms per fit at 1 point, 2.0 at 2, 1.6 at 3 and 1.2 to 1.8 at 4 to
# 12, least at 7, of which the walk reads 79 %
_PATH_POINTS = 7
# the ratios every reml_fit scores: the grid, then eta = 0
_GRID_RATIOS = (*_GRID_ETAS, 0.0)
_EPS = float(np.finfo(float).eps)
# y' P y at or below this share of y' y is rounding: the data carry no noise
_NOISE_FLOOR = 1e-24
# the screen's margin is this multiple of its first-order error bound
_SCREEN_SAFETY = 8.0


def _row_dots(a, b) -> list[float]:
    """[a[i] @ b[i] for each row i], in one stacked matmul.

    Each slice is the dot product of one row pair, so it rounds as the
    per-row @ does; einsum("ij,ij->i") sums in another order and does not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0].tolist()


def _check_rank(signs, logs) -> None:
    """Raise NumericalError unless every X' V^{-1} X slogdet, given as lists of signs
    and logs, is positive and finite (a sum of log dets is finite only if each is)."""
    if not (min(signs) > 0 and math.isfinite(sum(logs))):
        raise NumericalError("model matrix is rank deficient on this design")


class _Coefficients(NamedTuple):
    """The screen's y-free terms at a stack of ratios, from _Strata.at (module docstring)."""

    shrink: np.ndarray  # k x D: 1 / (1 + d eta)
    ainv: np.ndarray  # k x p x p: inverses of A_xx, the stratum form of X' V^{-1} X
    root: np.ndarray  # k x p: sqrt(A_ll), the square roots of A_xx's diagonal
    logdet: np.ndarray  # k: log det A_xx
    # k each: the margin's rho per unit of 1, of A_yy / y'P y~, of S^2 / y'P y~ and of
    # R^2 / y'P y~
    rel: np.ndarray
    per_ayy: np.ndarray
    per_form: np.ndarray
    per_reach: np.ndarray
    gap: np.ndarray  # k: the margin on |log det(X' V^{-1} X) - log det A_xx|, or inf


class _Strata(NamedTuple):
    """The screen's per-design stratum terms and the grid's terms at the 50 _GRID_RATIOS
    (module docstring); its arrays are read-only."""

    xc: np.ndarray  # X centered by plot means, n x p
    classes: np.ndarray  # D x r: 1 where plot i has the d-th distinct size
    sizes: np.ndarray  # D: the distinct plot sizes, ascending
    wxx: np.ndarray  # p x p: X_c' X_c
    between: np.ndarray  # D x p x p: H_d
    x_norms: np.ndarray  # p: column norms of X
    lam_x: float  # lowest eigenvalue of X' X at unit diagonal
    base: np.ndarray  # 50: log det V + log det(X' V^{-1} X) at the grid, as one_pass adds them
    screen: _Coefficients | None = None  # at the grid

    def at(self, ratios) -> _Coefficients:
        """The screen's y-free terms at each of a 1-d array of ratios."""
        n, p = self.xc.shape
        m = float(self.sizes[-1])
        safety = _SCREEN_SAFETY * _EPS
        shrink = 1.0 / (1.0 + np.multiply.outer(ratios, self.sizes))
        axx = self.wxx + (shrink @ self.between.reshape(len(self.sizes), -1)).reshape(-1, p, p)
        root = np.sqrt(np.diagonal(axx, axis1=1, axis2=2))
        scaling = root[:, :, None] * root[:, None, :]
        lam, vectors = np.linalg.eigh(axx / scaling)  # at unit diagonal
        low = lam[:, 0]
        bounded = low > 0  # elsewhere the margin is infinite, whatever the terms hold
        stretch = 1.0 + m * ratios  # bounds resid' resid / y' P y
        exact = (m + 1) * stretch + (n + 1) * np.sqrt(stretch) + (p + 1) / 2
        lam_x = self.lam_x
        quad = p * (2.0 * (n + p + m)) ** 2 * stretch * (1.0 / lam_x if lam_x > 0 else np.inf)
        sums = 2 * (n + p + 8 + m * math.sqrt(m))  # A's entry errors from W and H_d, in eps
        with np.errstate(all="ignore"):
            ainv = np.matmul(vectors / lam[:, None, :], vectors.transpose(0, 2, 1)) / scaling
            tilt = p / low
            # A's entry errors through beta~, with beta - beta~ to second order; eigh's turn
            form = sums * (1.0 + (sums + 6 * p + 6) * _EPS * tilt) ** 2
            turn = (6 * p + 4) * p * (lam[:, -1] / low) ** 2
            # entry errors of one_pass's M and of A_xx, in eps of sqrt(A_ii A_jj): M's
            # products, slogdet's LU at growth 2^(p - 1), A_xx's sums, scaling and eigh
            spread = (np.max(root, axis=1) / np.min(root, axis=1)) ** 2
            entry = (n + m + 5) * stretch + p * p * 2.0 ** (p - 1) * spread + sums + 6 * p + 6
            shift = safety * entry * tilt  # bounds |A_xx^-1 E| at unit diagonal, times safety
            logs, log_root = np.log(lam), np.log(root)
            rounding = (3 * p + 2) * safety * (
                2 * np.abs(log_root).sum(axis=1) + p * np.maximum(np.abs(logs[:, 0]), math.log(p))
            )
        return _Coefficients(
            shrink, ainv, root, 2 * log_root.sum(axis=1) + logs.sum(axis=1),
            np.where(bounded, safety * exact, np.inf), safety * turn, safety * form,
            safety * ((p + 1) / 2 + _EPS * quad),
            np.where(bounded & (shift < 0.5), p * shift + rounding, np.inf),
        )

    def response(self, part, y):
        """y's stratum sums X_c' y_c, y_c' y_c and, per plot size, h_xy and h_yy: one pass."""
        layout = part.layout
        sums = np.bincount(layout.zero_based, weights=y, minlength=layout.n_plots)
        means = sums / layout.sizes
        yc = y - means[layout.zero_based]
        by_size = self.classes * means  # D x r
        return yc @ self.xc, yc @ yc, by_size @ part.plot_x, by_size @ sums


@dataclass(frozen=True, eq=False)
class _DesignPart:
    """The per-design part of the REML kernel; its arrays are read-only.

    Raises NumericalError if x lacks full column rank.  x itself is kept, so
    a caller that shares the part passes a read-only x.
    """

    x: np.ndarray
    layout: WholePlotLayout
    labels: tuple[str, ...] = ()  # X's column labels
    plot_x: np.ndarray = field(init=False)  # Z'X: per-plot column sums, r x p
    width: int = field(init=False)  # ratios per pass

    def __post_init__(self):
        n, p = self.x.shape
        if np.linalg.matrix_rank(self.x) < p:
            raise NumericalError("model matrix is rank deficient on this design")
        plot_x = _plot_sums(self.layout, self.x)
        plot_x.setflags(write=False)
        object.__setattr__(self, "plot_x", plot_x)
        object.__setattr__(self, "width", max(1, min(len(_GRID_RATIOS), _PASS_CELLS // (n * p))))

    def _pass(self, eta, buf):
        """V^{-1} X at a column of k ratios, into buf (k x n x p), as covariance.solve_v
        forms it; returns the shrink weights w (k x r), X' V^{-1} X, its slogdet sign
        and log, and log det V."""
        scaled = self.layout.sizes * eta
        w = eta / (1.0 + scaled)  # covariance._shrink per ratio
        # w_i (Z'X)_i per plot, gathered to runs; the bins are in range by construction, and
        # "clip" spares the copy that out= is buffered through under the default "raise"
        (w[..., None] * self.plot_x).reshape(-1, buf.shape[2]).take(
            self.layout.bins(self.width)[:len(eta)], axis=0, out=buf, mode="clip")
        np.subtract(self.x, buf, out=buf)
        m = np.matmul(self.x.T, buf)
        return (w, m, *_slogdet(m), np.log1p(scaled).sum(axis=1))

    @cached_property
    def strata(self) -> _Strata:
        """The per-design terms of every reml_fit's grid and screens, from X alone,
        derived on first read and kept (see _Strata).

        log det V + log det(X' V^{-1} X) come from the passes a grid scan of
        width ratios would make, so they are the bits one_pass adds.  Raises
        NumericalError, and keeps nothing, if X' V^{-1} X fails the rank check
        at any ratio.
        """
        x, layout, plot_x = self.x, self.layout, self.plot_x
        n, p = x.shape
        ratios = np.asarray(_GRID_RATIOS)
        buf = np.empty((self.width, n, p))
        passes = []
        for start in range(0, len(ratios), self.width):
            eta = ratios[start:start + self.width, None]
            passes.append(self._pass(eta, buf[:len(eta)])[2:])
        sign, ldm, ldv = (np.concatenate(parts) for parts in zip(*passes))
        _check_rank(sign.tolist(), ldm.tolist())

        sizes = layout.sizes
        xc = x - np.take(plot_x / sizes[:, None], layout.zero_based, axis=0)
        distinct, size_class = np.unique(sizes, return_inverse=True)
        classes = (size_class == np.arange(len(distinct))[:, None]).astype(float)
        between = np.matmul(plot_x.T * (classes / sizes)[:, None, :], plot_x)  # H_d
        xtx = x.T @ x
        x_norms = np.sqrt(np.diagonal(xtx))
        lam_x = float(np.linalg.eigvalsh(xtx / np.multiply.outer(x_norms, x_norms))[0])
        strata = _Strata(xc, classes, distinct.astype(float), xc.T @ xc, between, x_norms, lam_x,
                         ldv + ldm)
        strata = strata._replace(screen=strata.at(ratios))
        for arr in (*strata[:6], strata.base, *strata.screen):
            arr.setflags(write=False)
        return strata

    def evaluator(self, y):
        """The per-response part: etas -> one _Evaluation per eta, in order.

        Each eta gets one _Evaluation, from passes of up to width ratios (see
        the module docstring); each pass forms its own X' V^{-1} X, slogdet and
        log det V.  Within a pass the ratios are checked in order: every slogdet
        sign before any solve, then the noise floor.  The buffers live as long
        as the returned function.
        """
        x, layout, width = self.x, self.layout, self.width
        n, p = x.shape
        r = layout.n_plots
        bins = layout.bins(width)
        vix = np.empty((width, n, p))
        noise_floor = _NOISE_FLOOR * float(y @ y)

        def one_pass(eta):
            k = len(eta)
            buf, at = vix[:k], bins[:k]
            w, m, sign, ldm, ldv = self._pass(eta[:, None], buf)
            logs = ldm.tolist()
            _check_rank(sign.tolist(), logs)  # before the solve, whose m must be nonsingular
            rhs = np.matmul(buf.transpose(0, 2, 1), y)
            # an explicit column axis: numpy 1.x and 2.x read a stacked vector differently
            beta = _solve(m, rhs[..., None])[..., 0]
            resid = y - np.matmul(x, beta[..., None])[..., 0]
            sums = np.bincount(at.ravel(), weights=resid.ravel(), minlength=k * r)
            vr = resid - (w * sums.reshape(k, r)).take(at)  # V^{-1} resid, as solve_v forms it
            qform = _row_dots(resid, vr)
            if min(qform) <= noise_floor:
                raise NumericalError("zero residual variation; nothing to estimate")
            objective = [
                ld + d + (n - p) * math.log(q)
                for ld, d, q in zip(ldv.tolist(), logs, qform)
            ]
            return list(map(_Evaluation, objective, beta, m, qform))

        def evaluate(etas):
            etas = np.asarray(etas, dtype=float)
            out = []
            for start in range(0, len(etas), width):
                out += one_pass(etas[start:start + width])
            return out

        return evaluate


def _screen(strata, coef, response, yy, base, fixed, center=None):
    """obj~, its margin and beta~ at coef's ratios, from a response's stratum sums.

    base is log det V + log det(X' V^{-1} X) per ratio and fixed an absolute
    margin to add; center, if given, is |beta| of the coefficients y was
    centered by before its sums were taken, and yy the uncentered y' y.
    Where the bound of the module docstring does not hold, or y'P y~ may be
    at the noise floor, the margin is infinite.
    """
    n, p = strata.xc.shape
    wxy, wyy, hxy, hyy = response
    ax = wxy + np.dot(coef.shrink, hxy)  # X' V^{-1} y, k x p
    ayy = wyy + np.dot(coef.shrink, hyy)  # y' V^{-1} y
    with np.errstate(all="ignore"):  # a ratio without a finite bound is scored exactly
        beta = np.matmul(coef.ainv, ax[:, :, None])[:, :, 0]
        qform = ayy - np.matmul(ax[:, None, :], beta[:, :, None])[:, 0, 0]
        form = np.sqrt(ayy) + (np.abs(beta) * coef.root).sum(axis=1)  # S
        coefs = np.abs(beta) if center is None else np.abs(beta) + center
        reach = math.sqrt(yy) + coefs @ strata.x_norms
        rho = coef.rel + (
            ayy * coef.per_ayy + form * form * coef.per_form + reach * reach * coef.per_reach
        ) / qform
        if center is not None:  # the rounding of y - X beta
            rho = rho + 2 * (p + 2) * _SCREEN_SAFETY * _EPS * reach / np.sqrt(qform)
        logs = (n - p) * np.log(qform)
        objective = base + logs
        rounding = 4 * _EPS * (np.abs(base) + np.abs(logs))  # of each objective's sums
        margin = (n - p) * rho / (1.0 - rho) + _SCREEN_SAFETY * rounding + fixed
        bounded = (qform > 2 * _NOISE_FLOOR * yy) & (rho < 0.5)
    return np.where(bounded, objective, 0.0), np.where(bounded, margin, np.inf), beta


def _walk_screen(part, y, beta):
    """ts -> [(obj~, margin) at eta = exp(t) for t in ts], for golden section's screened
    steps.

    y is centered by beta, the grid argmin's coefficients, in one pass; a list
    of points then costs one _Strata.at call, p x p work per point, and log
    det V summed over the plot-size classes.
    """
    strata = part.strata
    response = strata.response(part, y - part.x @ beta)
    yy = float(y @ y)
    center = np.abs(beta)
    counts = strata.classes.sum(axis=1)  # plots per size class
    slack = (2 * part.layout.n_plots + 1) * _SCREEN_SAFETY * _EPS  # log det V's two sums

    def screen(ts):
        etas = np.array([math.exp(t) for t in ts])  # as reml_fit's exact passes take them
        coef = strata.at(etas)
        ldv = np.log1p(np.multiply.outer(etas, strata.sizes)) @ counts
        fixed = coef.gap + slack * (1.0 + ldv)
        objective, margin, _ = _screen(strata, coef, response, yy, coef.logdet + ldv, fixed,
                                       center)
        return list(zip(objective.tolist(), margin.tolist()))

    return screen


def reml_objective(eta: float, x: np.ndarray, y: np.ndarray, layout: WholePlotLayout) -> float:
    """Profiled -2 restricted log likelihood, up to an additive constant.

    x must be n x p and y of length n, with n the layout's runs, and both finite.
    """
    _check_ratio(eta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(x) != layout.n_runs or y.shape != (len(x),):
        raise ValidationError(f"x {x.shape} and y {y.shape} do not fit {layout.n_runs} runs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("x and y must be finite")
    n, p = x.shape
    if n - p < 1:
        raise ValidationError("no residual degrees of freedom (n <= p)")
    return _DesignPart(x, layout).evaluator(y)([eta])[0].objective


def _vertex(best) -> float:
    """Where the parabola through three (value, point) pairs is lowest; the lowest
    point itself if the parabola opens downward or two points coincide."""
    (f0, x0), (f1, x1), (f2, x2) = sorted(best, key=lambda pair: pair[1])
    if x0 < x1 < x2:
        s0 = (f1 - f0) / (x1 - x0)
        curvature = ((f2 - f1) / (x2 - x1) - s0) / (x2 - x0)
        if curvature > 0:
            return (x0 + x1) / 2.0 - s0 / (2.0 * curvature)
    return min(best)[1]


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_pair(a, b):
    """Golden section's first pair of points, c < d, in the bracket [a, b]."""
    return b - _INVPHI * (b - a), a + _INVPHI * (b - a)


def _golden_step(a, b, c, d, left, tol):
    """Golden section's bracket after one comparison and the point it asks for: c if
    left, else d, and the midpoint once the bracket is done."""
    if left:
        b, d = d, c
        c = b - _INVPHI * (b - a)
    else:
        a, c = c, d
        d = a + _INVPHI * (b - a)
    return a, b, c, d, (a + b) / 2.0 if b - a <= tol else c if left else d


def _path(node, vertex, budget, tol):
    """Golden section's steps from node, a step already taken, up to budget in all: each
    later step goes left where vertex lies left of its bracket's (c + d) / 2, and the
    path ends at the step whose bracket is done."""
    nodes = [node]
    while len(nodes) < budget and nodes[-1][1] - nodes[-1][0] > tol:
        a, b, c, d, _ = nodes[-1]
        nodes.append(_golden_step(a, b, c, d, vertex < (c + d) / 2.0, tol))
    return nodes


def _golden_section(score, lo, hi, tol, budget, seeds, screen=None):
    """Minimize a unimodal function on [lo, hi], hi - lo > tol, by golden section.

    score maps a list of points to their _Evaluations.  seeds are (value,
    point) pairs, screened or exact, the first at the grid argmin, at least
    three where budget > 1; they shape only which points are scored.
    screen, if given, maps a list of points to their (obj~, margin) pairs,
    and the walk first takes every step whose |obj~(c) - obj~(d)| exceeds
    the two margins, up to the first it cannot decide or the step that ends
    the walk.  It screens c and d, then each point a step asks for that is
    not screened yet with up to _PATH_POINTS - 1 more on the path the
    parabola through the three lowest screened values and seeds predicts.
    From there the walk is exact.  Its first pass scores c and d and, where
    budget > 1, the budget points of the path the parabola through the three
    lowest seeds predicts and the first seed's point, so that later
    parabolas read its exact value; each later pass scores the point the
    next step asks for and up to budget - 1 more on the path the parabola
    through the three lowest exact values predicts (see the module
    docstring).  A point scored already is read, not scored again.  Returns
    the final bracket's midpoint, its _Evaluation and the comparisons the
    screen decided.
    """
    a, b = lo, hi
    c, d = _golden_pair(a, b)
    decided = 0
    guide = sorted(seeds)[:3]  # the three lowest screened or exact values
    if screen:
        marks = {}  # (obj~, margin) per screened point

        def mark(points):
            pairs = screen(points)
            marks.update(zip(points, pairs))
            return sorted(guide + [(v, t) for t, (v, m) in zip(points, pairs) if m < math.inf])[:3]

        guide = mark([c, d])
        while True:
            (sc, mc), (sd, md) = marks[c], marks[d]
            node = _golden_step(a, b, c, d, sc < sd, tol)
            if not (abs(sc - sd) > mc + md and node[1] - node[0] > tol):
                break  # undecided, or the step that ends the walk, which is exact
            (a, b, c, d, t), decided = node, decided + 1
            if t not in marks:
                guide = mark([n[4] for n in _path(node, _vertex(guide), _PATH_POINTS, tol)])
    points = [c, d]
    if budget > 1:  # the path the seeds' parabola predicts, and the grid argmin
        vertex = _vertex(guide)
        first = _golden_step(a, b, c, d, vertex < (c + d) / 2.0, tol)
        points += [node[4] for node in _path(first, vertex, budget, tol)] + [seeds[0][1]]
    scored = dict(zip(points, score(points)))  # every exact point, by its log ratio
    best = sorted((e.objective, t) for t, e in scored.items())[:3]
    fc, fd = scored[c].objective, scored[d].objective
    while True:
        left = fc <= fd
        node = a, b, c, d, t = _golden_step(a, b, c, d, left, tol)
        if t not in scored:  # off the predicted path: score the path from here
            vertex = _vertex(best) if budget > 1 else None
            path = [n[4] for n in _path(node, vertex, budget, tol)]
            scored.update(zip(path, score(path)))
            best = sorted(best + [(scored[u].objective, u) for u in path])[:3]
        if b - a <= tol:
            return t, scored[t], decided
        fc, fd = (scored[t].objective, fc) if left else (fd, scored[t].objective)


class _RemlSearch(NamedTuple):
    """How reml_fit found its ratio: GlsFit.search.

    passes and ratios count every exact evaluator pass and ratio the fit makes
    after its grid screen: the grid candidates the screen could not decide,
    golden section's, and eta = 0 where the screen could not rule it out.
    """

    grid_argmin: int  # index of the lowest objective on the 49-point grid
    bracket: tuple[float, float]  # the log-eta bracket golden section refined
    passes: int  # exact evaluator passes after the grid screen
    ratios: int  # ratios those passes scored
    boundary: str | None  # None, "zero" or "cap"
    # grid candidates and eta = 0 scored exactly, of 50: 0 where the screen leaves one
    # grid candidate and rules out eta = 0
    exact_grid: int
    certified: int  # golden-section comparisons the screen decided, without an exact pass


@dataclass(frozen=True)
class GlsFit:
    """A fitted response: variance components, coefficients, and fit stats.

    search, set by reml_fit, records how it found the ratio (_RemlSearch);
    it is None on a gls_fit.  x is the design's read-only model matrix.
    fitted, residuals, r2, the overall F (f_overall, with df_overall and
    p_overall) and error_df are computed on read, from the fields, so a fit
    that never reads them pays nothing for them: a Monte Carlo replicate
    reads only the coefficients and their covariance.
    """

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
    rmse: float
    x: np.ndarray = field(repr=False, compare=False)  # the design's read-only model matrix
    search: _RemlSearch | None = field(default=None, repr=False, compare=False)

    @property
    def n_runs(self) -> int:
        return self.layout.n_runs

    @property
    def r2(self) -> float:
        """Squared correlation of y and the fitted values; 0 for a flat fit or flat data."""
        return _squared_correlation(self.y, self.fitted)

    @property
    def df_overall(self) -> tuple[int, int] | None:
        """(numerator, denominator) df of the overall F: every column but the intercept
        against subplot error; None without either."""
        q = len(self.beta) - 1
        sp_err = self.error_df[SUBPLOT]
        return (q, sp_err) if q >= 1 and sp_err >= 1 else None

    @property
    def f_overall(self) -> float | None:
        """Wald F that every coefficient but the intercept is zero, or None (df_overall)."""
        df = self.df_overall
        return None if df is None else _wald_f(self.beta[1:], self.cov_beta[1:, 1:], df[0])

    @property
    def p_overall(self) -> float | None:
        """P-value of the overall F."""
        df = self.df_overall
        return None if df is None else f_sf(self.f_overall, *df)

    @property
    def fitted(self) -> np.ndarray:
        """X beta, computed on read: a fit keeps no n-length array it can recompute."""
        fitted = self.x @ self.beta
        fitted.setflags(write=False)
        return fitted

    @property
    def residuals(self) -> np.ndarray:
        """y - X beta, computed on read."""
        residuals = self.y - self.fitted
        residuals.setflags(write=False)
        return residuals

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
    # the part, from the design alone, once per design and model
    part = design._memo.get(model)
    if part is None:
        layout = design.layout
        if layout.n_plots < model.whole_plot_model_df:
            raise ValidationError(
                f"{layout.n_plots} whole plots cannot support "
                f"{model.whole_plot_model_df} whole-plot model df"
            )
        x = expand_model_matrix(design, model)
        n, p = x.shape
        if n - p < 1:
            raise ValidationError("no residual degrees of freedom (n <= p)")
        x.setflags(write=False)
        part = design._memo[model] = _DesignPart(x, layout, column_labels(model))
    return response, part, responses.responses[response]


def _wald_f(b, c, df_num) -> float:
    """Wald F = b' C^{-1} b / df_num for estimates b with covariance C."""
    if df_num == 1:
        return float(b[0] * (b[0] / c[0, 0]))  # the 1 x 1 solve's own rounding, without its cost
    return float(b @ _solve(c, b)) / df_num


def _finalize(response, model, part, y, eta, boundary, at_eta, method, search=None) -> GlsFit:
    x, layout = part.x, part.layout
    n, p = x.shape
    beta = at_eta.beta.copy()  # a row of its pass's solve: a fit keeps no pass's arrays
    sigma2_eps = at_eta.qform / (n - p)
    components = VarianceComponents(
        sigma2_gamma=eta * sigma2_eps, sigma2_epsilon=sigma2_eps
    )
    cov_beta = sigma2_eps * _inv(at_eta.information)
    for arr in (beta, cov_beta):
        arr.setflags(write=False)
    return GlsFit(
        response=response,
        model=model,
        layout=layout,
        labels=part.labels,
        beta=beta,
        cov_beta=cov_beta,
        components=components,
        ratio=eta,
        boundary=boundary,
        objective=at_eta.objective,
        method=method,
        y=y,
        rmse=math.sqrt(sigma2_eps),
        x=x,
        search=search,
    )


def reml_fit(responses: ResponseTable, model: ModelSpec, response: str | None = None) -> GlsFit:
    """Estimate the variance ratio by REML; report the GLS fit at that ratio.

    The search scores the profiled objective on a log-spaced grid over
    [1e-8, 1e8] and at eta = 0, refines the best bracket by golden section,
    and compares the interior optimum against eta = 0; ties go to the
    boundary.  The grid is screened with stratum sums in one pass over y,
    against the log dets the design's first fit kept in its memo, and only
    what the screen cannot decide is scored exactly; the margin that
    excludes the rest is derived in the module docstring, so the fit is the
    one a scan that scores all 50 exactly would give.  A lone grid
    candidate is taken from the screen without an exact pass, and several
    are scored in one pass.  Golden section, seeded with the screened
    objective at the grid minimum and its two grid neighbours, scores up to
    _PATH_POINTS per pass on the path a parabola predicts where that many
    fit one pass, and else first takes the steps the stratum screen
    decides; eta = 0 is scored only where the screen cannot rule it out
    (see the module docstring).  The eta it returns is the one a search
    scoring one point per pass would return.  An optimum at
    the upper cap (the grid minimum is its last point and golden section
    ends within _CAP_TOL of LOG_ETA_HIGH) is flagged as a boundary fit too,
    with the ratio left where golden section put it.  Each evaluation is a
    GLS fit, so the one at the chosen ratio is reported as is.  The fit's
    search is a _RemlSearch.

    A design that leaves fewer than 1 containment error df (ModelSpec.error_df)
    at either level is refused with a ValidationError: there the fixed effects
    absorb a whole stratum, the restricted likelihood cannot depend on eta
    (one-run plots, or as many plots as whole-plot model df), and a ratio
    would be picked by rounding.  gls_fit at an assumed ratio still fits.
    """
    response, part, y = _prepare(responses, model, response)
    err = model.error_df(part.layout.n_runs, part.layout.n_plots)
    if min(err.values()) < 1:
        raise ValidationError(
            f"REML needs error df at both levels; this design leaves {err[WHOLE_PLOT]} "
            f"whole-plot and {err[SUBPLOT]} subplot error df"
        )
    strata = part.strata  # the design's first fit derives it
    evaluate = part.evaluator(y)
    passes = ratios = 0  # exact passes and ratios after the grid screen

    def exact(etas):
        nonlocal passes, ratios
        passes, ratios = passes - (-len(etas) // part.width), ratios + len(etas)
        return evaluate(etas)

    # the grid ratios that can be the grid minimum or whose y' P y may be at the noise floor:
    # a lone candidate is k, y centered by its beta~; several are scored in one pass
    objective, margin, coefs = _screen(strata, strata.screen, strata.response(part, y),
                                       float(y @ y), strata.base, 0.0)
    upper, lower = (objective + margin)[:-1], (objective - margin)[:-1]
    at = np.flatnonzero(lower <= upper.min()).tolist()
    if len(at) > 1:
        k, at_k = min(zip(at, exact([_GRID_RATIOS[i] for i in at])),
                      key=lambda pair: pair[1].objective)  # the first lowest
        center = at_k.beta
    else:
        (k,) = at
        center = coefs[k]
    exact_grid = ratios  # the candidates scored exactly
    ts = _GRID_LOG_ETAS
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    i = min(max(k - 1, 0), len(ts) - 3)  # k and two grid neighbours seed the parabola
    seeds = [(float(objective[h]), ts[h]) for h in sorted(range(i, i + 3), key=lambda h: h != k)]
    wide = part.width >= _PATH_POINTS
    t_star, star, decided = _golden_section(
        lambda points: exact([math.exp(t) for t in points]), lo, hi, GOLDEN_TOL,
        _PATH_POINTS if wide else 1, seeds, None if wide else _walk_screen(part, y, center),
    )
    # where obj(0) >= obj~(0) - margin(0) > obj(eta-hat), zero cannot win
    zero = None if objective[-1] - margin[-1] > star.objective else exact([0.0])[0]
    exact_grid += zero is not None
    if zero is not None and zero.objective <= star.objective:
        eta_hat, at_eta, reason = 0.0, zero, "zero"
    else:
        at_cap = k == len(ts) - 1 and LOG_ETA_HIGH - t_star <= _CAP_TOL
        eta_hat, at_eta, reason = math.exp(t_star), star, "cap" if at_cap else None
    search = _RemlSearch(k, (lo, hi), passes, ratios, reason, exact_grid, decided)
    return _finalize(response, model, part, y, eta_hat, reason is not None, at_eta, "reml", search)


def gls_fit(
    responses: ResponseTable, model: ModelSpec, ratio: float, response: str | None = None
) -> GlsFit:
    """GLS fit at a known variance ratio (the planning-stage assumption).

    The error variance is still estimated from the weighted residuals, so
    coefficient covariance and RMSE stay data driven.
    """
    _check_ratio(ratio)
    response, part, y = _prepare(responses, model, response)
    (at_ratio,) = part.evaluator(y)([ratio])
    return _finalize(response, model, part, y, ratio, ratio == 0.0, at_ratio, "gls")


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
        stat = _wald_f(fit.beta[cols], fit.cov_beta[cols, cols], term.df)
        out.append(
            TermTest(
                label=term.label,
                level=term.level,
                df_num=term.df,
                df_den=int(df_den),
                f_stat=stat,
                p_value=f_sf(stat, term.df, df_den),
            )
        )
    return tuple(out)


def residual_report(fit: GlsFit) -> tuple[tuple[int, int, float, float, float], ...]:
    """Per-run rows: (run, whole_plot, observed, fitted, residual)."""
    fitted = fit.fitted
    residuals = fit.y - fitted
    return tuple(
        (i + 1, int(plot), float(observed), float(f), float(resid))
        for i, (plot, observed, f, resid) in enumerate(
            zip(fit.layout.assignment, fit.y, fitted, residuals)
        )
    )
