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

Candidates that change one run are screened before they are scored.  With
M = X' V^{-1} X and the plot sums s_i of the incumbent, both kept from the
exact score that accepted it, run r in plot i, u_r = x_r - w_i s_i (row r
of V^{-1} X) and d = x_new - x_r, the new information matrix is

    M' = M + d u_r' + u_r d' + (1 - w_i) d d',

so by the matrix determinant lemma (Arnouts & Goos 2010, CSDA 54:3381)

    det M' / det M = (1 + b + (1 - w_i) a)(1 + b) - a ((1 - w_i) b + e)
                   = (1 + b)^2 + a (1 - w_i - e),
    a = d' M^{-1} d,   b = d' M^{-1} u_r,   e = u_r' M^{-1} u_r.

A candidate whose screened log det plus 1e-6 is at most the scan's best
value so far cannot be accepted and is skipped; every other candidate is
scored exactly, and the exact log det decides every accept.  So the screen
changes no design, tie or criterion value, only how many candidates are
scored exactly.  It is off, and every candidate is scored exactly, for
scans that move a plot of more than one run, while the incumbent's log det
is at most 0, and while cond_1(M) exceeds 1e8.

From _LOCKSTEP_STARTS = 4 starts up the starts run in lockstep
(_Exchanger): each start's settings codes, incumbent, held (M, S), lemma
terms, counts and active flag are rows of stacked arrays, every
coordinate scan screens all active starts in one call and scores exactly,
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
of each rule a start's record depends on: the start draw and the sweep
order (_Search), the convergence test (_converged), M^-1 with its cond_1
rule (_screen_inverse) and the log det of an exact score (_log_det).  The
last two take one M or a stack of them, and each slice of a stack is the
one-M call bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    WholePlotLayout, _check_ratio, _information_sums, _inv, _slogdet,
    _stacked_information_sums, information,
)
from .errors import NumericalError, ValidationError
from .model_spec import Factor, ModelSpec

EXCHANGE_TOL = 1e-9
_SCREEN_MARGIN = 1e-6  # screened log det + margin <= best so far: skip the exact score
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


def d_criterion(design: Design, model: ModelSpec, ratio: float = 1.0) -> float:
    """log det(X' V^{-1} X) at unit error variance; -inf when singular."""
    _check_ratio(ratio)
    return _log_det(information(design.layout, expand_model_matrix(design, model), ratio))


class _Search:
    """What every exchange derives from its model, layout and ratio: the candidates
    per factor, the hard and easy factors, one sweep's scans, the per-run weights of
    the screen and the draw of a random start.

    A sweep scans, in order, each plot's rows for every hard factor, then each run
    for every easy factor; a scan's rows move together.
    """

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        self.model = model
        self.layout = layout
        self.ratio = ratio
        self.cands = [f.candidates(_EXCHANGE_GRID) for f in model.factors]
        self.hard = [i for i, f in enumerate(model.factors) if f.hard_to_change]
        self.easy = [i for i, f in enumerate(model.factors) if not f.hard_to_change]
        self.sweep = [(rows, fi) for rows in layout.plot_rows for fi in self.hard]
        self.sweep += [(rows, fi) for rows in np.arange(layout.n_runs)[:, None] for fi in self.easy]
        sizes = layout.sizes[layout.zero_based]  # m_i of each run's plot
        self.run_plot_keep = 1.0 / (1.0 + sizes * ratio)  # 1 - m_i w_i
        self.run_keep = (1.0 + (sizes - 1) * ratio) * self.run_plot_keep  # 1 - w_i

    def draw(self, rng) -> np.ndarray:
        """A random start: each run's candidate index per factor, a hard factor's per plot."""
        layout = self.layout
        levels = np.empty((layout.n_runs, len(self.cands)), dtype=np.intp)
        for fi in self.hard:
            levels[:, fi] = rng.choice(len(self.cands[fi]), size=layout.n_plots)[layout.zero_based]
        for fi in self.easy:
            levels[:, fi] = rng.choice(len(self.cands[fi]), size=layout.n_runs)
        return levels


class _OneStart(_Search):
    """Coordinate exchange over a fixed layout, one start at a time.

    Each run keeps the model matrix X of its current settings and, when a
    coordinate changes, overwrites only the changed rows.  Rows come from
    cached blocks, shared by every start of the search: the block of a
    settings row and factor fi is model_matrix of that row at each of fi's
    candidates, and a scan tries candidates by their index into it.
    model_matrix builds X row by row, so a block row equals a rebuilt one
    byte for byte and every criterion value, tie and seeded design is what
    a full rebuild per candidate would give.

    A scan of one run first screens its candidates with the determinant
    lemma of the module docstring.  criterion keeps the M and S it scored,
    the incumbent holds those of its own exact score, and an accept costs
    the screen one _screen_inverse of the held M; u_r, w_r = u_r' M^{-1} (with
    one refinement step) and e_r are formed per run when that run is first
    screened and kept until the next accept.  A candidate is skipped only
    when its screened log det + _SCREEN_MARGIN is at most the scan's best
    exact value so far; the rest are scored exactly, and only an exact value
    is ever accepted.  The screen is off while the incumbent's log det is <=
    0 or cond_1(M) > _SCREEN_MAX_COND, and for scans that move a plot of more
    than one run.
    """

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        super().__init__(model, layout, ratio)
        self.cand_index = [{c: k for k, c in enumerate(cands.tolist())} for cands in self.cands]
        self.first_bytes = [cands[:1].tobytes() for cands in self.cands]
        self.blocks: dict[tuple[int, bytes], np.ndarray] = {}
        self.scored = self.held = None  # (M, S) of the last exact score and of the incumbent
        self.lemma = None  # (M^-1, {r: (w_r, e_r)}) of the incumbent, False if off, None if stale
        self.evaluations = self.screened = 0

    def criterion(self, x: np.ndarray) -> float:
        m, _ = self.scored = _information_sums(self.layout, x, self.ratio)
        return _log_det(m)

    def random_start(self, rng) -> np.ndarray:
        levels = self.draw(rng)
        return np.stack([c[levels[:, j]] for j, c in enumerate(self.cands)], -1)

    def _block(self, settings_row, fi):
        """model_matrix of settings_row at each candidate of factor fi, cached."""
        # keyed by fi and the row's bytes with fi's first candidate spliced in; bytes,
        # not values, key the cache: 0.0 and -0.0 never share a block
        raw, at = settings_row.tobytes(), fi * settings_row.itemsize
        key = (fi, raw[:at] + self.first_bytes[fi] + raw[at + settings_row.itemsize:])
        block = self.blocks.get(key)
        if block is None:
            trial = np.tile(np.frombuffer(key[1]), (len(self.cands[fi]), 1))
            trial[:, fi] = self.cands[fi]
            block = self.blocks[key] = model_matrix(self.model, trial)
        return block

    def _set(self, settings, x, rows, fi, k):
        """Set factor fi of rows to its candidate k and copy their block rows into x."""
        for r in rows:
            x[r] = self._block(settings[r], fi)[k]
        settings[rows, fi] = self.cands[fi][k]

    def _screen(self, settings, x, r, fi, best):
        """Screened log det for each candidate of run r's factor fi, or None if off.

        A determinant ratio that is not positive screens as nan, which is
        never skipped.
        """
        if not best > 0:
            return None
        m, s = self.held
        if self.lemma is None:  # M^-1 of the held M, once per incumbent
            minv, ok = _screen_inverse(m)
            self.lemma = (minv, {}) if ok else False
        if self.lemma is False:
            return None
        minv, terms = self.lemma
        if r not in terms:  # w_r = u_r' M^-1 and e_r, once per run and incumbent
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
        d = self._block(settings[r], fi) - x[r]
        keep = self.run_keep[r]
        out = []
        for a, b in zip(np.einsum("ij,ij->i", d.dot(minv), d).tolist(), d.dot(w_r).tolist()):
            det_ratio = (1.0 + b) ** 2 + a * (keep - e_r)
            out.append(best + math.log(det_ratio) if det_ratio > 0 else math.nan)
        return out

    def _scan(self, settings, x, rows, fi, best, rng):
        """Try every candidate for one coordinate; ties keep the incumbent."""
        current = self.cand_index[fi][settings[rows[0], fi]]
        best_k, best_val, best_held = current, best, self.held
        screened = self._screen(settings, x, rows[0], fi, best) if len(rows) == 1 else None
        moved = False
        for k in range(len(self.cands[fi])):
            if k == current:
                continue
            if screened is not None:
                self.screened += 1
                if screened[k] + _SCREEN_MARGIN <= best_val:
                    continue  # its exact value could not beat best_val
            self._set(settings, x, rows, fi, k)
            moved = True
            val = self.criterion(x)
            self.evaluations += 1
            if val > best_val:
                best_k, best_val, best_held = k, val, self.scored
        if best_val == float("-inf"):
            # every choice singular: re-randomize to escape the flat region
            best_k, best_held = int(rng.choice(len(self.cands[fi]))), None
        if best_k != current:
            self.held, self.lemma = best_held, None
            moved = True
        if moved:
            self._set(settings, x, rows, fi, best_k)
        if not best_val >= best:  # exchange never walks downhill
            raise NumericalError(f"exchange criterion must not decrease: {best} -> {best_val}")
        return best_val

    def run(self, rng):
        """One start: its final settings and its Design.search record.

        The record is (criterion, sweeps, exact_evaluations, screened).
        """
        settings = self.random_start(rng)
        x = model_matrix(self.model, settings)
        best = self.criterion(x)
        self.evaluations, self.screened, self.held, self.lemma = 1, 0, self.scored, None
        for sweeps in range(1, _MAX_SWEEPS + 1):
            sweep_start = best
            for rows, fi in self.sweep:
                best = self._scan(settings, x, rows, fi, best, rng)
            if _converged(best, sweep_start):
                break
        return settings, (best, sweeps, self.evaluations, self.screened)


class _Exchanger(_Search):
    """Coordinate exchange over a fixed layout, every start of a search in lockstep.

    A settings row is one candidate index per factor, read as a mixed-radix
    code (_row_tables).  The search tables once, per code, the model-matrix
    row and, per factor, the codes and row differences of its candidates:
    model_matrix of every candidate combination, which builds X row by row,
    so a table row equals a rebuilt one byte for byte.

    Each start is one row of stacked state: its run codes, its incumbent's
    log det, the held (M, S) of that incumbent's exact score, its lemma
    terms and its counts.  The lemma terms (M^-1, whether cond_1(M) lets it
    screen, and every run's w_r and e_r) are formed in _refresh, at the
    first screen after an accept, as one (1, p) slice per run, so each
    rounds as _OneStart's per-run product.  Starts sweep the coordinates in
    _OneStart's order, and each scan moves every active start at once:

    - a one-run scan screens every start's candidates in one call
      (_screen), with _OneStart's rules for when the screen is off;
    - the (start, candidate) pairs that no screen rules out against the
      start's incumbent are scored exactly in one _stacked_information_sums
      and _log_det, whose slices round as one start's 2-D calls;
    - each start then takes the outcome _OneStart's scan gives: the first
      strictly best candidate, or the incumbent.  A start that tried more
      than one candidate replays them in order, because each accept raises
      the bar that the next candidate's screen must clear, and counts only
      the exact scores _OneStart makes; a start with every choice singular
      draws its restart from its own generator.

    A start leaves the lockstep after the sweep that converges it, so each
    start's settings and Design.search record are _OneStart's.
    """

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        super().__init__(model, layout, ratio)
        self.table, self.digits, self.others, self.moves, self.deltas = _row_tables(
            model, self.cands)

    def _criteria(self, codes):
        """Exact log det (-inf when singular), M and S of each design, one per row of codes."""
        m, s = _stacked_information_sums(self.layout, self.table[codes], self.ratio)
        return _log_det(m), m, s

    def _refresh(self):
        """The lemma terms of each start whose incumbent changed, once its log D is > 0.

        Afterwards lemma is True exactly for the starts that screen: log D > 0 and
        cond_1(M) <= _SCREEN_MAX_COND (log D only rises, so a start whose log D
        is <= 0 has never had a lemma)."""
        fresh = self.stale & (self.best > 0)
        if fresh.any():
            idx = np.flatnonzero(fresh)
            m, s, layout = self.m[idx], self.s[idx], self.layout
            minv, ok = _screen_inverse(m)
            if not ok.all():
                minv[~ok] = 0.0  # a start that may not screen computes on zeros, not on noise
            # u_r = x_r - w_i s_i, written as (x_r - mean_i) + mean_i / (1 + m_i eta),
            # which keeps plot-constant columns from cancelling at large eta
            mean = (s / layout.sizes[:, None])[:, layout.zero_based]
            u = (self.table[self.codes[idx]] - mean) + mean * self.run_plot_keep[:, None]
            # (1, p) @ (p, p) slices, one per start and run: each rounds as one run's
            # vector-matrix product.  One refinement step: inv alone leaves w a few ulps
            # off the solve, and about half its entries off the correctly rounded one
            u, minv_r = u[:, :, None], minv[:, None]
            w = u @ minv_r
            w += (u - w @ m[:, None]) @ minv_r
            self.w[idx], self.e[idx] = w[:, :, 0], (w @ np.swapaxes(u, -1, -2))[:, :, 0, 0]
            self.minv[idx], self.lemma[idx] = minv, ok
            self.stale[idx] = False
        self.dirty = False

    def _screen(self, r, fi, c):
        """Screened log det of each start's candidates for run r's factor fi.

        nan where the start's screen is off or a determinant ratio is not
        positive; neither is ever skipped.
        """
        if self.dirty:
            self._refresh()
        d = self.deltas[fi][c]
        a = np.einsum("kij,kij->ki", d @ self.minv, d)
        b = (d @ self.w[:, r, :, None])[..., 0]
        b += 1.0
        b *= b
        a *= (self.run_keep[r] - self.e[:, r])[:, None]
        a += b  # the determinant ratio (1 + b)^2 + a (1 - w_i - e_r)
        on = a > 0
        on &= self.lemma[:, None]
        screened = np.log(a, out=np.full_like(a, np.nan), where=on)
        screened += self.best[:, None]
        self.screened += self.lemma * (len(self.cands[fi]) - 1)
        return screened

    def _scan(self, rows, fi):
        """Try every candidate for one coordinate of every start; ties keep the incumbent."""
        best = self.best
        c = self.codes[:, rows[0]]
        screened = None
        if len(rows) == 1:
            screened = self._screen(rows[0], fi, c)
            tried = self.others[fi][c] > (screened + _SCREEN_MARGIN <= best[:, None])
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
        best_l, cur_l = best.tolist(), self.digits[fi][c].tolist()
        pairs = zip(ks.tolist(), js.tolist(), vals.tolist())
        for k, group in itertools.groupby(enumerate(pairs), key=lambda pair: pair[1][0]):
            # start k's tried candidates in order, as _OneStart's scan takes them
            bv, bk, bp = best_l[k], cur_l[k], -1
            for pair, (_, j, val) in group:
                if screened is not None and bv != best_l[k] and screened[k, j] + _SCREEN_MARGIN <= bv:
                    self.evaluations[k] -= 1  # an accept raised the bar this screen must clear
                    continue
                if val > bv:
                    bv, bk, bp = val, j, pair
            if bv == float("-inf"):
                # every choice singular: re-randomize to escape the flat region
                bk, bp = int(self.rngs[k].choice(len(self.cands[fi]))), -1
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
            self.stale[moved] = True
            self.dirty = True

    def _keep(self, keep):
        """Keep only the starts where keep is True."""
        for name in ("ids", "codes", "best", "m", "s", "minv", "lemma", "stale", "w", "e",
                     "evaluations", "screened"):
            setattr(self, name, getattr(self, name)[keep])
        self.rngs = [rng for rng, k in zip(self.rngs, keep.tolist()) if k]
        self.dirty = True

    def run(self, rngs):
        """Every start to convergence, start k drawing from rngs[k].

        Returns the final settings of every start, stacked, and one
        Design.search record per start: (criterion, sweeps,
        exact_evaluations, screened).
        """
        layout, n_starts = self.layout, len(rngs)
        n, counts = layout.n_runs, [len(c) for c in self.cands]
        self.ids, self.rngs = np.arange(n_starts), list(rngs)
        self.codes = np.stack([self.draw(rng) for rng in rngs]) @ _radix(counts)
        self.best, self.m, self.s = self._criteria(self.codes)
        p = self.table.shape[1]
        self.minv = np.zeros((n_starts, p, p))
        self.lemma = np.zeros(n_starts, dtype=bool)
        self.stale = np.ones(n_starts, dtype=bool)
        self.w, self.e = np.zeros((n_starts, n, p)), np.zeros((n_starts, n))
        self.evaluations = np.ones(n_starts, dtype=np.intp)
        self.screened = np.zeros(n_starts, dtype=np.intp)
        self.dirty = True
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
        settings = np.empty((n_starts, n, len(counts)))
        for j, c in enumerate(self.cands):
            settings[..., j] = c[self.digits[j][final]]
        return settings, records


def _radix(counts):
    """Place value of each factor's candidate index in a settings row's code."""
    return np.array([math.prod(counts[j + 1:]) for j in range(len(counts))])


def _table_cells(model: ModelSpec) -> int:
    """Floats in _row_tables' tables for a model."""
    counts = [len(f.candidates(_EXCHANGE_GRID)) for f in model.factors]
    return math.prod(counts) * model.n_parameters * (1 + sum(counts))


def _row_tables(model: ModelSpec, cands):
    """Lookup tables over every settings row, indexed by its code.

    A row's code reads its candidate indices as mixed-radix digits, the last
    factor fastest.  Returns the model-matrix row of each code, and per
    factor j: each code's candidate index (digits), which candidates differ
    from it (others), the code with j at each candidate (moves) and that
    code's row minus the code's own (deltas).
    """
    counts = [len(c) for c in cands]
    levels = np.indices(counts).reshape(len(counts), -1).T
    table = model_matrix(model, np.stack([c[levels[:, j]] for j, c in enumerate(cands)], -1))
    codes, radix = np.arange(len(table)), _radix(counts)
    digits, others, moves, deltas = [], [], [], []
    for j, nc in enumerate(counts):
        digits.append(levels[:, j])
        others.append(levels[:, j, None] != np.arange(nc))
        moves.append(codes[:, None] + (np.arange(nc) - levels[:, j, None]) * radix[j])
        deltas.append(table[moves[-1]] - table[:, None])
    return table, digits, others, moves, deltas


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
