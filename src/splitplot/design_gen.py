"""D-optimal design generation under restricted randomization.

The run order of a split-plot experiment cannot be fully randomized, so
the design search respects the whole-plot structure from the start: hard
factor settings are decided per whole plot and move jointly for all of its
runs, easy factor settings are decided run by run.  Candidate designs are
scored with the information determinant under the two-error covariance,

    log det( X' V^{-1} X ),   V = I + ratio * Z Z'

where the error variance is fixed at 1 (the criterion ranking only depends
on the variance ratio, not the scale).  X' V^{-1} X comes from
covariance.information; the covariance module docstring gives its closed
form.  Optimization is multi-start coordinate exchange: from a random
feasible design, sweep every coordinate against its candidate values and
keep any strict improvement, until a full sweep improves the criterion by
at most 1e-9.

Both exchangers hold a settings row as one integer code: each factor's
candidate index is a digit of a mixed-radix number, the last factor
fastest (_Search.place), and _Search.decode maps codes back to settings.

Candidates that change one run are screened before they are scored.  With
M = X' V^{-1} X and the plot sums s_i of the incumbent, both kept from the
exact score that accepted it, run r in plot i, u_r = x_r - w_i s_i (row r
of V^{-1} X) and d = x_new - x_r, the new information matrix is

    M' = M + d u_r' + u_r d' + (1 - w_i) d d',

so by the matrix determinant lemma (Arnouts & Goos 2010, CSDA 54:3381)

    det M' / det M = (1 + b + (1 - w_i) a)(1 + b) - a ((1 - w_i) b + e)
                   = (1 + b)^2 + a (1 - w_i - e),
    a = d' M^{-1} d,   b = d' M^{-1} u_r,   e = u_r' M^{-1} u_r.

Both screens form this ratio with the same operations in the same order
(b + 1, its square, a (1 - w_i - e), one add), so they give the same bits.
A candidate is ruled out, and skipped, when

    0 < ratio <= exp(bar - log D - 1e-6),

log D the incumbent's log det and bar the scan's best exact value so far:
up to rounding, its screened log det log D + log(ratio), plus 1e-6, is at
most bar.  Against the incumbent (bar = log D) the bound is exp(-1e-6);
each accept raises it with one exp (_ratio_bound).  A ratio that is not
positive is never ruled out.  Every other candidate is scored exactly, and
the exact log det decides every accept.  So the screen changes no design,
tie or criterion value, only how many candidates are scored exactly.  It
is off, and every candidate is scored exactly, for scans that move a plot
of more than one run, while the incumbent's log det is at most 0, and
while cond_1(M) exceeds 1e8.

One start at a time (_OneStart), the one-run scans on one row in a row (a
run's easy factors, a one-run plot's hard factors) are screened in one call
per incumbent, on the stack of their candidate rows, and a scan whose
candidates are all ruled out against the incumbent is counted as screened
and not entered.  An accept or a restart screens the rest of the group
again.  Each ratio rounds as the scan's own screen would (BLAS may round a
row of a product by how many rows share the call, so the products with
M^-1 and w_r stay one call per scan), so this too changes no design and no
Design.search record.

From _LOCKSTEP_STARTS = 4 starts up the starts run in lockstep
(_Exchanger): each start's settings codes, incumbent, held (M, S), M^-1
(formed at the accept), counts and active flag are rows of stacked arrays,
every coordinate scan screens all active starts in one call, forming the
u_r, w_r and e_r of its one run there, and scores exactly,
in one stacked call, only the (start, candidate) pairs the screen cannot
rule out, and a start drops out after the sweep that converges it.  Each
start keeps its generator (seed, 0, k), its accept, tie and singular-
restart rules and its convergence test, so its settings and Design.search
record are those of the one-start-at-a-time search (_OneStart), which
fewer starts use: there the lockstep's fixed numpy calls per scan cost
more than the scans of the starts they replace (on the tin model the two
break even at three starts at 24 runs in 6 plots, and between three and
four at 128 runs in 32).  Models whose row tables would pass _TABLE_CELLS
floats run one start at a time too.

The two exchangers differ only in how a scan runs.  They share one copy
of each rule a start's record depends on: the settings code, the start
draw and the sweep order (_Search), the convergence test (_converged),
M^-1 with its cond_1 rule (_screen_inverse), the log det of an exact
score (_log_det) and the rule-out bound (_ratio_bound).  _screen_inverse
and _log_det take one M or a stack of them, and each slice of a stack is
the one-M call bit for bit.  The products with M^-1 and w_r and the
ratio's last steps are written in each exchanger, in operations that round
alike.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    WholePlotLayout, _check_ratio, _information_sums, _inv, _slogdet,
    _stacked_information_sums, information,
)
from .errors import NumericalError, ValidationError
from .model_spec import Factor, ModelSpec

EXCHANGE_TOL = 1e-9
_SCREEN_MARGIN = 1e-6  # 0 < ratio <= exp(best so far - log D - margin): skip the exact score
_SCREEN_MAX_COND = 1e8  # above this cond_1(M) the incumbent is scored exactly
_MAX_SWEEPS = 100
_EXCHANGE_GRID = 3  # coded values -1, 0, +1 per continuous factor
_LOCKSTEP_STARTS = 4  # from this many starts up, the starts run in lockstep
_TABLE_CELLS = 1 << 21  # the lockstep's row tables hold at most this many floats


def assign_whole_plot_sizes(n_runs: int, n_whole_plots: int) -> tuple[int, ...]:
    """Split runs over plots as evenly as possible, larger plots first."""
    if n_whole_plots < 1:
        raise ValidationError("need at least one whole plot")
    if n_runs < n_whole_plots:
        raise ValidationError(
            f"{n_runs} runs cannot fill {n_whole_plots} whole plots"
        )
    base, rem = divmod(n_runs, n_whole_plots)
    return tuple([base + 1] * rem + [base] * (n_whole_plots - rem))


@dataclass(frozen=True)
class DesignSpec:
    """Inputs of a design search."""

    model: ModelSpec
    n_runs: int
    n_whole_plots: int
    ratio: float = 1.0
    n_starts: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("n_runs", "n_whole_plots", "n_starts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, not {value!r}")
        if self.n_runs < self.model.n_parameters:
            raise ValidationError(
                f"{self.n_runs} runs cannot estimate {self.model.n_parameters} parameters"
            )
        assign_whole_plot_sizes(self.n_runs, self.n_whole_plots)
        if self.n_whole_plots < self.model.whole_plot_model_df:
            raise ValidationError(
                f"{self.n_whole_plots} whole plots cannot carry "
                f"{self.model.whole_plot_model_df} whole-plot model df"
            )
        _check_ratio(self.ratio)
        if self.n_starts < 1:
            raise ValidationError("n_starts must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


@dataclass(frozen=True)
class Design:
    """A concrete run plan.

    settings holds one row per run and one column per factor: continuous
    factors as coded values in [-1, +1], categorical factors as level
    indices.  Hard-to-change factors are constant within each whole plot.
    search, set by generate_design, holds one (criterion, sweeps,
    exact_evaluations, screened) tuple per start, in start order: the
    start's final log det, its sweeps, the candidates scored exactly
    (the random start included) and the candidates screened by the
    determinant lemma.  It is None otherwise.

    _memo holds what fitting and simulating derive from the settings alone,
    so Monte Carlo replicates on one design derive it once.  It holds two
    kinds of entry.  A ModelSpec key holds that model's inference._DesignPart:
    the read-only model matrix, its column labels and plot sums, and the REML
    grid's terms, which the part derives on the first reml_fit and keeps
    (inference says what they are; what fails a check is kept by neither and
    checked again on the next call).  A tuple key, a truth's intercept and
    then its (label, coefficient) items in order, holds that truth's
    read-only mean surface (simulate fills it; a truth whose coefficients
    change reads under a new key, and an invalid term label raises on every
    call).  The settings are read-only, so no entry goes stale; the memo
    lives as long as the design and is no part of its equality, hash or repr.
    """

    factors: tuple[Factor, ...]
    whole_plot: tuple[int, ...]
    settings: np.ndarray
    criterion: float | None = None
    search: tuple[tuple[float, int, int, int], ...] | None = field(
        default=None, repr=False, compare=False
    )
    layout: WholePlotLayout = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.settings, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "settings", arr)
        layout = WholePlotLayout(tuple(int(w) for w in self.whole_plot))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "whole_plot", layout.assignment)
        if arr.shape != (layout.n_runs, len(self.factors)):
            raise ValidationError(
                f"settings shape {arr.shape} does not match "
                f"{layout.n_runs} runs x {len(self.factors)} factors"
            )
        a0 = layout.zero_based
        per_plot = np.empty(layout.n_plots)
        for j, f in enumerate(self.factors):
            col = arr[:, j]
            if not np.all(np.isfinite(col)):
                raise ValidationError(f"non-finite setting for factor {f.name!r}")
            if f.is_categorical:
                if np.any(col != col.astype(int)) or col.min() < 0 or col.max() > f.n_levels - 1:
                    raise ValidationError(f"invalid level codes for factor {f.name!r}")
            elif col.min() < -1.0 or col.max() > 1.0:
                raise ValidationError(f"coded values for factor {f.name!r} leave [-1, +1]")
            if f.hard_to_change:
                # each plot keeps one of its own values; a run that differs marks its plot
                per_plot[a0] = col
                varies = a0[col != per_plot[a0]]
                if varies.size:
                    raise ValidationError(
                        f"hard-to-change factor {f.name!r} varies inside whole plot "
                        f"{varies.min() + 1}"
                    )

    def _key(self):
        return self.factors, self.whole_plot, self.settings.tobytes(), self.criterion

    def __eq__(self, other):
        """Value equality over factors, whole_plot, settings bytes and criterion."""
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_runs(self) -> int:
        return len(self.whole_plot)


def model_matrix(model: ModelSpec, settings) -> np.ndarray:
    """Expand raw settings (n x n_factors, or a single row) to model columns."""
    s = np.asarray(settings, dtype=float)
    if s.ndim == 1:
        s = s[None, :]
    if s.shape[1] != len(model.factors):
        raise ValidationError(
            f"settings have {s.shape[1]} columns, model has {len(model.factors)} factors"
        )
    cols = {f.name: f.coded_columns(s[:, i]) for i, f in enumerate(model.factors)}
    parts = [np.ones((s.shape[0], 1))]
    for t in model.terms:
        block = cols[t.factors[0]]
        for name in t.factors[1:]:
            other = cols[name]
            # all pairwise column products, row-wise
            block = (block[:, :, None] * other[:, None, :]).reshape(s.shape[0], -1)
        parts.append(block)
    return np.hstack(parts)


def column_labels(model: ModelSpec) -> tuple[str, ...]:
    """One label per model-matrix column, aligned with model_matrix output."""
    def factor_labels(f: Factor) -> list[str]:
        if f.is_categorical and f.n_levels > 2:
            return [f"{f.name}[{lev}]" for lev in f.levels[:-1]]
        return [f.name]

    labels = ["intercept"]
    by_name = {f.name: f for f in model.factors}
    for t in model.terms:
        combo = [""]
        for name in t.factors:
            combo = [f"{a}*{b}" if a else b for a in combo for b in factor_labels(by_name[name])]
        labels.extend(combo)
    return tuple(labels)


def expand_model_matrix(design: Design, model: ModelSpec) -> np.ndarray:
    """Model matrix of a design; column order matches column_labels(model)."""
    if tuple(f.name for f in design.factors) != model.factor_names:
        raise ValidationError("design and model disagree on factors")
    return model_matrix(model, design.settings)


def _check_full_rank(x: np.ndarray) -> None:
    """Raise NumericalError unless the model matrix x has full column rank: the rule that
    evaluation and REML fitting both apply before they invert X' V^{-1} X."""
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise NumericalError("model matrix is rank deficient on this design")


def _log_det(m: np.ndarray):
    """log det of one M, as a float, or of each M of an (S, p, p) stack, as an array: -inf
    unless slogdet's sign is positive and its log finite.  A stack's slices equal one M's
    calls bit for bit."""
    sign, ld = _slogdet(m)
    ok = (sign > 0) & (abs(ld) < np.inf)  # abs(nan) < inf is False
    if m.ndim == 2:  # _OneStart's exact scores: a branch costs a third of np.where here
        return float(ld) if ok else -math.inf
    return np.where(ok, ld, -np.inf)


def _screen_inverse(m: np.ndarray):
    """M^-1 of one held M, or of each M of a stack, and whether cond_1(M) <= _SCREEN_MAX_COND
    lets the screen use it.  Called only at log det > 0: the LU of slogdet found no zero
    pivot in M.  A stack's slices equal one M's calls bit for bit."""
    minv = _inv(m)
    cond = np.abs(m).sum(axis=-2).max(axis=-1) * np.abs(minv).sum(axis=-2).max(axis=-1)
    return minv, cond <= _SCREEN_MAX_COND


def _converged(best, sweep_start):
    """Whether a sweep from sweep_start to best ends a start's search, for one start or an
    array of them: a start still escaping a singular start (log det -inf) keeps sweeping,
    any other stops once a sweep gains at most EXCHANGE_TOL."""
    with np.errstate(invalid="ignore"):  # -inf - -inf
        return (best > -np.inf) & (best - sweep_start <= EXCHANGE_TOL)


def _ratio_bound(gain):
    """The largest determinant ratio ruled out against a bar gain = bar - log D above the
    incumbent's log det: a candidate is ruled out when 0 < ratio <= the bound.  Called only
    where the screen is on (log D > 0, cond_1(M) <= _SCREEN_MAX_COND), where one exchange
    gains far less than the 709 at which exp overflows."""
    return math.exp(gain - _SCREEN_MARGIN)


def d_criterion(design: Design, model: ModelSpec, ratio: float = 1.0) -> float:
    """log det(X' V^{-1} X) at unit error variance; -inf when singular."""
    _check_ratio(ratio)
    return _log_det(information(design.layout, expand_model_matrix(design, model), ratio))


class _Search:
    """What every exchange derives from its model, layout and ratio: the candidates
    per factor, the settings code, the hard and easy factors, one sweep's scans, the
    per-run weights of the screen and the draw of a random start.

    A settings row's code reads its candidate indices as mixed-radix digits, the
    last factor fastest: factor fi's digit is code // place[fi] % counts[fi].
    A sweep scans, in order, each plot's rows for every hard factor, then each run
    for every easy factor; a scan's rows move together.
    """

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        self.model = model
        self.layout = layout
        self.ratio = ratio
        self.cands = [f.candidates(_EXCHANGE_GRID) for f in model.factors]
        self.counts = [len(c) for c in self.cands]
        self.place = [math.prod(self.counts[j + 1:]) for j in range(len(self.counts))]
        # candidate k of factor j at [j, k], padded to the longest list
        self.values = np.array([np.pad(c, (0, max(self.counts) - len(c))) for c in self.cands])
        self.hard = [i for i, f in enumerate(model.factors) if f.hard_to_change]
        self.easy = [i for i, f in enumerate(model.factors) if not f.hard_to_change]
        self.sweep = [(rows, fi) for rows in layout.plot_rows for fi in self.hard]
        self.sweep += [(rows, fi) for rows in np.arange(layout.n_runs)[:, None] for fi in self.easy]
        sizes = layout.sizes[layout.zero_based]  # m_i of each run's plot
        self.run_plot_keep = 1.0 / (1.0 + sizes * ratio)  # 1 - m_i w_i
        self.run_keep = (1.0 + (sizes - 1) * ratio) * self.run_plot_keep  # 1 - w_i

    def draw(self, rng) -> list[int]:
        """A random start: each run's code, from a candidate index per factor, a hard
        factor's per plot.  Python ints: with about 40 factors a code passes 2**63."""
        layout = self.layout
        levels = np.empty((layout.n_runs, len(self.cands)), dtype=np.intp)
        for fi in self.hard:
            levels[:, fi] = rng.choice(self.counts[fi], size=layout.n_plots)[layout.zero_based]
        for fi in self.easy:
            levels[:, fi] = rng.choice(self.counts[fi], size=layout.n_runs)
        return [sum(map(operator.mul, row, self.place)) for row in levels.tolist()]

    def decode(self, codes) -> np.ndarray:
        """The settings row of each code in an array (or list) of them, as a new last axis."""
        # Python ints throughout: numpy reads ints on both sides of 2**63 as floats
        codes = np.asarray(codes, dtype=object)[..., None]
        digits = codes // np.array(self.place, dtype=object) % self.counts
        return self.values[np.arange(len(self.cands)), digits.astype(np.intp)]


class _OneStart(_Search):
    """Coordinate exchange over a fixed layout, one start at a time.

    Each run keeps its code and the model matrix X of its current settings
    and, when a coordinate changes, overwrites only the changed rows.  Rows
    come from cached blocks, shared by every start of the search: the block
    of factor fi and a code, keyed by fi and the code with fi's digit 0, is
    model_matrix of that settings row at each of fi's candidates, and a scan
    tries candidates by their index into it.  model_matrix builds X row by
    row, so a block row equals a rebuilt one byte for byte and every
    criterion value, tie and seeded design is what a full rebuild per
    candidate would give.

    The sweep's scans run in groups (self.groups): consecutive scans of one run,
    that is a run's easy factors or a one-run plot's hard factors, form a
    group, and every other scan is a group of its own.  A group of one run
    is screened with the determinant lemma of the module docstring in one
    _screen call per incumbent, on the stack of its scans' candidate rows
    (_stack, cached per code like the blocks).  criterion keeps the M and S
    it scored, the incumbent holds those of its own exact score, and an
    accept costs the screen one _screen_inverse of the held M; u_r,
    w_r = u_r' M^{-1} (with one refinement step) and e_r are formed per run
    when that run is first screened and kept until the next accept.  Each
    candidate's ratio is a Python float, formed as the lockstep forms its
    arrays.  A scan whose every candidate but the current one is ruled out
    against the incumbent (0 < ratio <= _ratio_bound(0.0)) is counted as
    screened and not entered; in the others a candidate is skipped only
    when it is ruled out against the scan's best exact value so far, the
    rest are scored exactly, and only an exact value is ever accepted.  A
    scan that changes the incumbent ends the group's screen: the rest of
    the group is screened again.  The screen is off while the incumbent's
    log det is <= 0 or cond_1(M) > _SCREEN_MAX_COND, and for scans that
    move a plot of more than one run.
    """

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        super().__init__(model, layout, ratio)
        self.groups = []
        for rows, fi in self.sweep:
            rows = rows.tolist()  # int indices: a row at a time is faster than fancy indexing
            if len(rows) == 1 and self.groups and self.groups[-1][0] == rows:
                self.groups[-1][1].append(fi)
            else:
                self.groups.append((rows, [fi]))
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        self.stacks: dict[tuple[tuple[int, ...], int], tuple] = {}
        self.scored = self.held = None  # (M, S) of the last exact score and of the incumbent
        self.lemma = None  # (M^-1, {r: (w_r, e_r)}) of the incumbent, False if off, None if stale
        self.evaluations = self.screened = 0

    def criterion(self, x: np.ndarray) -> float:
        m, _ = self.scored = _information_sums(self.layout, x, self.ratio)
        return _log_det(m)

    def _block(self, code, fi):
        """model_matrix of code's settings row at each candidate of factor fi, cached."""
        place = self.place[fi]
        key = fi, code - code // place % self.counts[fi] * place  # fi's digit 0
        block = self.blocks.get(key)
        if block is None:
            trial = np.repeat(self.decode([key[1]]), self.counts[fi], axis=0)
            trial[:, fi] = self.cands[fi]
            block = self.blocks[key] = model_matrix(self.model, trial)
        return block

    def _stack(self, code, fis):
        """The candidate rows of the scans of factors fis on one code, cached.

        Returns fis's blocks stacked and, per scan, its factor, its block, its
        first and end row in the stack and the stack row of its current candidate.
        """
        key = tuple(fis), code
        entry = self.stacks.get(key)
        if entry is None:
            blocks, scans, at = [self._block(code, fi) for fi in fis], [], 0
            for fi, block in zip(fis, blocks):
                current = at + code // self.place[fi] % self.counts[fi]
                scans.append((fi, block, at, at + len(block), current))
                at += len(block)
            entry = self.stacks[key] = np.concatenate(blocks), scans
        return entry

    def _set(self, codes, x, rows, fi, blocks, k):
        """Move factor fi of rows to its candidate k and copy row k of each row's block into x."""
        place = self.place[fi]
        step = (k - codes[rows[0]] // place % self.counts[fi]) * place
        for r, block in zip(rows, blocks):
            x[r] = block[k]
            codes[r] += step

    def _screen(self, codes, x, r, fis, best):
        """The scans of factors fis on run r, in sweep order, against the incumbent.

        One (fi, block, ratios, ruled_out) per scan: fi's block of the run's
        code, the determinant ratio of each candidate (None while the screen
        is off) and whether the incumbent's bound rules out every candidate
        but the current one.  Each ratio equals what the scan screened on
        its own would give, and what the lockstep's screen gives: the
        elementwise steps and the row sums run on the stack, the products
        with M^-1 and w_r one scan at a time.
        """
        stack, scans = self._stack(codes[r], fis)
        if best > 0 and self.lemma is None:  # M^-1 of the held M, once per incumbent
            minv, ok = _screen_inverse(self.held[0])
            self.lemma = (minv, {}) if ok else False
        if not best > 0 or not self.lemma:
            return [(fi, block, None, False) for fi, block, _, _, _ in scans]
        minv, terms = self.lemma
        if r not in terms:  # w_r = u_r' M^-1 and e_r, once per run and incumbent
            m, s = self.held
            i = self.layout.zero_based[r]
            # u_r = x_r - w_i s_i, written as (x_r - mean_i) + mean_i / (1 + m_i eta),
            # which keeps plot-constant columns from cancelling at large eta
            mean = s[i] / self.layout.sizes[i]
            u = (x[r] - mean) + mean * self.run_plot_keep[r]
            w = u.dot(minv)  # ndarray.dot: @ dispatches as a ufunc, slower on tiny arrays
            # one refinement step: inv alone leaves w a few ulps off the solve, and
            # about half its entries off the correctly rounded one
            w += (u - w.dot(m)).dot(minv)
            terms[r] = w, float(w.dot(u))
        w_r, e_r = terms[r]
        d = stack - x[r]
        # one product per scan, as each scan's own screen made them: BLAS may round a
        # row by how many rows share its call
        per_scan = [d[lo:hi] for _, _, lo, hi, _ in scans]
        dm = np.concatenate([d_scan.dot(minv) for d_scan in per_scan])
        dw = []
        for d_scan in per_scan:
            dw += d_scan.dot(w_r).tolist()
        keep = float(self.run_keep[r]) - e_r  # a float: numpy scalars are slow in the loop
        # (b + 1)^2 + a keep as the lockstep's screen forms it: b += 1, b * b, a * keep, add
        ratios = [(b1 := b + 1.0) * b1 + a * keep
                  for a, b in zip(np.einsum("ij,ij->i", dm, d).tolist(), dw)]
        bound = _ratio_bound(0.0)
        out = [0 < ratio <= bound for ratio in ratios]
        return [(fi, block, ratios[lo:hi], all(out[lo:current]) and all(out[current + 1:hi]))
                for fi, block, lo, hi, current in scans]

    def _scan(self, codes, x, rows, fi, best, rng, blocks, ratios):
        """Try every candidate for one coordinate; ties keep the incumbent.

        Returns the incumbent's log det and whether the incumbent changed."""
        current = codes[rows[0]] // self.place[fi] % self.counts[fi]
        best_k, best_val, best_held = current, best, self.held
        bound = _ratio_bound(0.0)
        moved = False
        for k in range(self.counts[fi]):
            if k == current:
                continue
            if ratios is not None:
                self.screened += 1
                if 0 < ratios[k] <= bound:
                    continue  # its exact value could not beat best_val
            self._set(codes, x, rows, fi, blocks, k)
            moved = True
            val = self.criterion(x)
            self.evaluations += 1
            if val > best_val:
                best_k, best_val, best_held = k, val, self.scored
                if ratios is not None:
                    bound = _ratio_bound(best_val - best)
        if best_val == float("-inf"):
            # every choice singular: re-randomize to escape the flat region
            best_k, best_held = int(rng.choice(self.counts[fi])), None
        if best_k != current:
            self.held, self.lemma = best_held, None
            moved = True
        if moved:
            self._set(codes, x, rows, fi, blocks, best_k)
        if not best_val >= best:  # exchange never walks downhill
            raise NumericalError(f"exchange criterion must not decrease: {best} -> {best_val}")
        return best_val, best_k != current

    def run(self, rng):
        """One start: its final settings and its Design.search record.

        The record is (criterion, sweeps, exact_evaluations, screened).
        """
        codes = self.draw(rng)
        x = model_matrix(self.model, self.decode(codes))
        best = self.criterion(x)
        self.evaluations, self.screened, self.held, self.lemma = 1, 0, self.scored, None
        for sweeps in range(1, _MAX_SWEEPS + 1):
            sweep_start = best
            for rows, fis in self.groups:
                if len(rows) > 1:  # a plot of several runs: every candidate scored exactly
                    blocks = [self._block(codes[r], fis[0]) for r in rows]
                    best, _ = self._scan(codes, x, rows, fis[0], best, rng, blocks, None)
                    continue
                j = 0
                while j < len(fis):
                    for fi, block, ratios, ruled_out in self._screen(codes, x, rows[0], fis[j:],
                                                                     best):
                        j += 1
                        if ruled_out:  # the scan would score nothing exactly and keep its incumbent
                            self.screened += len(block) - 1
                            continue
                        best, changed = self._scan(codes, x, rows, fi, best, rng, [block],
                                                   ratios)
                        if changed:
                            break  # a new incumbent: screen the rest of the group against it
            if _converged(best, sweep_start):
                break
        return self.decode(codes), (best, sweeps, self.evaluations, self.screened)


class _Exchanger(_Search):
    """Coordinate exchange over a fixed layout, every start of a search in lockstep.

    The search tables once, per code, the model-matrix row and, per factor,
    which candidates differ from the code's own (others), the code at each
    candidate (moves) and that code's row minus the code's own (deltas):
    model_matrix of every candidate combination, which builds X row by row,
    so a table row equals a rebuilt one byte for byte.

    Each start is one row of stacked state: its run codes, its incumbent's
    log det, the held (M, S) of that incumbent's exact score, M^-1 with
    whether cond_1(M) lets it screen, and its counts; only the codes have a
    run axis.  M^-1 is formed at each accept (_hold), in one stacked
    _screen_inverse over the starts that moved to a log det > 0.  A screen
    of run r forms that run's u_r, w_r and e_r only (_terms), as one (1, p)
    slice per start, so each rounds as _OneStart's per-run product.  Starts
    sweep the coordinates in _OneStart's order, and each scan moves every
    active start at once:

    - a one-run scan screens every start's candidates in one call
      (_screen), with _OneStart's rules for when the screen is off, and its
      ratios are _OneStart's bit for bit;
    - the (start, candidate) pairs that no screen rules out against the
      start's incumbent are scored exactly in one _stacked_information_sums
      and _log_det, whose slices round as one start's 2-D calls;
    - each start then takes the outcome _OneStart's scan gives: the first
      strictly best candidate, or the incumbent.  A start that tried more
      than one candidate replays them in order, because each accept raises
      the bound that the next candidate's ratio is held to, and counts only
      the exact scores _OneStart makes; a start with every choice singular
      draws its restart from its own generator.

    A start leaves the lockstep after the sweep that converges it, so each
    start's settings and Design.search record are _OneStart's.
    """

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        super().__init__(model, layout, ratio)
        codes = np.arange(math.prod(self.counts))
        self.table = model_matrix(model, self.decode(codes))
        self.others, self.moves, self.deltas = [], [], []
        for count, place in zip(self.counts, self.place):
            digit = codes // place % count
            self.others.append(digit[:, None] != np.arange(count))
            self.moves.append(codes[:, None] + (np.arange(count) - digit[:, None]) * place)
            self.deltas.append(self.table[self.moves[-1]] - self.table[:, None])

    def _criteria(self, codes):
        """Exact log det (-inf when singular), M and S of each design, one per row of codes."""
        m, s = _stacked_information_sums(self.layout, self.table[codes], self.ratio)
        return _log_det(m), m, s

    def _hold(self, idx):
        """M^-1 and the lemma flag of the starts idx, from the M each now holds.  The flag is
        True exactly for the starts that screen, log D > 0 and cond_1(M) <= _SCREEN_MAX_COND
        (log D only rises, so a start at log D <= 0 has never had an M^-1)."""
        idx = idx[self.best[idx] > 0]
        minv, ok = _screen_inverse(self.m[idx])
        minv[~ok] = 0.0  # a start that may not screen computes on zeros, not on noise
        self.minv[idx], self.lemma[idx] = minv, ok

    def _terms(self, r):
        """w_r = u_r' M^-1 and e_r = w_r' u_r of run r for every start, as (S, 1, p) @
        (S, p, p) slices of the held M, S and M^-1: each rounds as _OneStart's product."""
        i = self.layout.zero_based[r]
        # u_r = x_r - w_i s_i, written as (x_r - mean_i) + mean_i / (1 + m_i eta),
        # which keeps plot-constant columns from cancelling at large eta
        mean = self.s[:, i] / self.layout.sizes[i]
        u = ((self.table[self.codes[:, r]] - mean) + mean * self.run_plot_keep[r])[:, None]
        # one refinement step: inv alone leaves w a few ulps off the solve, and about half
        # its entries off the correctly rounded one
        w = u @ self.minv
        w += (u - w @ self.m) @ self.minv
        return w[:, 0], (w @ np.swapaxes(u, -1, -2))[:, 0, 0]

    def _screen(self, r, fi, c):
        """The determinant ratio of each start's candidates for run r's factor fi, and
        whether the incumbent's bound rules each out; a start whose screen is off rules
        out none."""
        w, e = self._terms(r)
        d = self.deltas[fi][c]
        a = np.einsum("kij,kij->ki", d @ self.minv, d)
        b = (d @ w[:, :, None])[..., 0]
        b += 1.0
        b *= b
        a *= (self.run_keep[r] - e)[:, None]
        a += b  # the determinant ratio (1 + b)^2 + a (1 - w_i - e_r)
        ruled_out = (a > 0) & (a <= _ratio_bound(0.0))
        ruled_out &= self.lemma[:, None]
        self.screened += self.lemma * (self.counts[fi] - 1)
        return a, ruled_out

    def _scan(self, rows, fi):
        """Try every candidate for one coordinate of every start; ties keep the incumbent."""
        best = self.best
        c = self.codes[:, rows[0]]
        ratios = None
        if len(rows) == 1:
            ratios, ruled_out = self._screen(rows[0], fi, c)
            tried = self.others[fi][c] > ruled_out
        else:
            tried = self.others[fi][c]
        ks, js = np.nonzero(tried)
        if not ks.size:
            return
        trial = self.codes[ks]
        trial[:, rows] = self.moves[fi][trial[:, rows], js[:, None]]
        vals, m, s = self._criteria(trial)
        # every tried pair is one exact evaluation; the replay takes back what it skips
        self.evaluations += np.bincount(ks, minlength=len(best))
        moved, to, held, gain = [], [], [], []
        best_l, cur_l = best.tolist(), (c // self.place[fi] % self.counts[fi]).tolist()
        pairs = zip(ks.tolist(), js.tolist(), vals.tolist())
        for k, group in itertools.groupby(enumerate(pairs), key=lambda pair: pair[1][0]):
            # start k's tried candidates in order, as _OneStart's scan takes them: each
            # passed the incumbent's bound, and an accept sets a higher one
            bv, bk, bp, bound = best_l[k], cur_l[k], -1, None
            for pair, (_, j, val) in group:
                if bound is not None and 0 < ratios[k, j] <= bound:
                    self.evaluations[k] -= 1  # an accept raised the bar this ratio must clear
                    continue
                if val > bv:
                    bv, bk, bp = val, j, pair
                    if ratios is not None and self.lemma[k]:
                        bound = _ratio_bound(bv - best_l[k])
            if bv == float("-inf"):
                # every choice singular: re-randomize to escape the flat region
                bk, bp = int(self.rngs[k].choice(self.counts[fi])), -1
            if not bv >= best_l[k]:  # exchange never walks downhill
                raise NumericalError(f"exchange criterion must not decrease: {best_l[k]} -> {bv}")
            if bk != cur_l[k]:
                moved.append(k), to.append(bk), held.append(bp), gain.append(bv)
        if moved:
            moved, to, held = np.array(moved), np.array(to), np.array(held)
            at = moved[:, None], rows
            self.codes[at] = self.moves[fi][self.codes[at], to[:, None]]
            scored = held >= 0  # a restart's candidate may be unscored; its best stays -inf
            self.m[moved[scored]] = m[held[scored]]
            self.s[moved[scored]] = s[held[scored]]
            self.best = best.copy()  # the sweep's start keeps its own
            self.best[moved] = gain
            self._hold(moved)

    def _keep(self, keep):
        """Keep only the starts where keep is True."""
        for name in ("ids", "codes", "best", "m", "s", "minv", "lemma", "evaluations",
                     "screened"):
            setattr(self, name, getattr(self, name)[keep])
        self.rngs = [rng for rng, k in zip(self.rngs, keep.tolist()) if k]

    def _start(self, codes):
        """Stacked state for one start per row of codes (S, n), each scored exactly."""
        n_starts, p = len(codes), self.table.shape[1]
        self.ids, self.codes = np.arange(n_starts), codes
        self.best, self.m, self.s = self._criteria(codes)
        self.minv = np.zeros((n_starts, p, p))
        self.lemma = np.zeros(n_starts, dtype=bool)
        self._hold(self.ids)
        self.evaluations = np.ones(n_starts, dtype=np.intp)
        self.screened = np.zeros(n_starts, dtype=np.intp)

    def run(self, rngs):
        """Every start to convergence, start k drawing from rngs[k].

        Returns the final settings of every start, stacked, and one
        Design.search record per start: (criterion, sweeps,
        exact_evaluations, screened).
        """
        self.rngs = list(rngs)
        self._start(np.array([self.draw(rng) for rng in rngs]))
        n_starts, n = self.codes.shape
        final = np.empty((n_starts, n), dtype=np.intp)
        records = [None] * n_starts
        for sweeps in range(1, _MAX_SWEEPS + 1):
            sweep_start = self.best
            for rows, fi in self.sweep:
                self._scan(rows, fi)
            done = _converged(self.best, sweep_start) | (sweeps == _MAX_SWEEPS)
            for k in np.flatnonzero(done).tolist():
                start = self.ids[k]
                final[start] = self.codes[k]
                records[start] = (float(self.best[k]), sweeps, int(self.evaluations[k]),
                                  int(self.screened[k]))
            if done.all():
                break
            if done.any():
                self._keep(~done)
        return self.decode(final), records


def _table_cells(model: ModelSpec) -> int:
    """Floats in _Exchanger's row tables for a model."""
    counts = [len(f.candidates(_EXCHANGE_GRID)) for f in model.factors]
    return math.prod(counts) * model.n_parameters * (1 + sum(counts))


def generate_design(spec: DesignSpec) -> Design:
    """Multi-start coordinate exchange; returns the best design found.

    Deterministic for a fixed seed: start k draws from a generator seeded
    with (seed, 0, k), and ties between starts keep the earliest one.  From
    _LOCKSTEP_STARTS starts up, and while the model's row tables stay within
    _TABLE_CELLS floats, the starts run in lockstep (_Exchanger); otherwise
    one after another (_OneStart).  Both give every start the same settings
    and Design.search record.
    """
    sizes = assign_whole_plot_sizes(spec.n_runs, spec.n_whole_plots)
    layout = WholePlotLayout(
        tuple(int(i) for i in np.repeat(np.arange(1, spec.n_whole_plots + 1), sizes))
    )
    rngs = [np.random.default_rng((spec.seed, 0, k)) for k in range(spec.n_starts)]
    if spec.n_starts >= _LOCKSTEP_STARTS and _table_cells(spec.model) <= _TABLE_CELLS:
        settings, search = _Exchanger(spec.model, layout, spec.ratio).run(rngs)
    else:
        worker = _OneStart(spec.model, layout, spec.ratio)
        settings, search = zip(*(worker.run(rng) for rng in rngs))
    k = max(range(spec.n_starts), key=lambda k: search[k][0])  # the first of equal bests
    if search[k][0] == float("-inf"):
        raise NumericalError(
            "no nonsingular design found; check the run budget against the model"
        )
    return Design(
        factors=spec.model.factors,
        whole_plot=layout.assignment,
        settings=settings[k],
        criterion=search[k][0],
        search=tuple(search),
    )
