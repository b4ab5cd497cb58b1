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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    WholePlotLayout, _check_ratio, _information_sums, _inv, _slogdet, information,
)
from .errors import NumericalError, ValidationError
from .model_spec import Factor, ModelSpec

EXCHANGE_TOL = 1e-9
_SCREEN_MARGIN = 1e-6  # screened log det + margin <= best so far: skip the exact score
_SCREEN_MAX_COND = 1e8  # above this cond_1(M) the incumbent is scored exactly
_MAX_SWEEPS = 100
_EXCHANGE_GRID = 3  # coded values -1, 0, +1 per continuous factor


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
    so Monte Carlo replicates on one design derive it once.  A ModelSpec key
    holds that model's per-design REML terms (inference fills it and says
    what they are; what fails a check is checked again on the next call).
    A truth-term label key holds that term's read-only column
    (boomerang_sim fills it; an invalid label raises on every call).  A
    tuple key, a truth's intercept and then its (label, coefficient) items
    in order, holds that truth's read-only mean surface (simulate fills it;
    a truth whose coefficients change reads under a new key).  The settings
    are read-only, so no entry goes stale; the memo lives as long as the
    design and is no part of its equality, hash or repr.
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


def _log_det(m: np.ndarray) -> float:
    sign, ld = _slogdet(m)
    if sign <= 0 or not np.isfinite(ld):
        return float("-inf")
    return float(ld)


def d_criterion(design: Design, model: ModelSpec, ratio: float = 1.0) -> float:
    """log det(X' V^{-1} X) at unit error variance; -inf when singular."""
    _check_ratio(ratio)
    return _log_det(information(design.layout, expand_model_matrix(design, model), ratio))


class _Exchanger:
    """One coordinate-exchange search over a fixed layout.

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
    the screen one inv of the held M; u_r, w_r = u_r' M^{-1} (with one
    refinement step) and e_r are formed per run on first use and kept until
    the next accept.  A candidate is skipped only when its screened log det
    + _SCREEN_MARGIN is at most the scan's best exact value so far; the rest
    are scored exactly, and only an exact value is ever accepted.  The
    screen is off while the incumbent's log det is <= 0 or cond_1(M) >
    _SCREEN_MAX_COND, and for scans that move a plot of more than one run.
    """

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        self.model = model
        self.layout = layout
        self.ratio = ratio
        self.cands = [f.candidates(_EXCHANGE_GRID) for f in model.factors]
        self.cand_index = [{c: k for k, c in enumerate(cands.tolist())} for cands in self.cands]
        self.first_bytes = [cands[:1].tobytes() for cands in self.cands]
        self.hard = [i for i, f in enumerate(model.factors) if f.hard_to_change]
        self.easy = [i for i, f in enumerate(model.factors) if not f.hard_to_change]
        self.run_rows = tuple(np.arange(layout.n_runs)[:, None])
        sizes = layout.sizes[layout.zero_based]  # m_i of each run's plot
        self.run_plot_keep = 1.0 / (1.0 + sizes * ratio)  # 1 - m_i w_i
        self.run_keep = (1.0 + (sizes - 1) * ratio) * self.run_plot_keep  # 1 - w_i
        self.blocks: dict[tuple[int, bytes], np.ndarray] = {}
        self.scored = self.held = None  # (M, S) of the last exact score and of the incumbent
        self.lemma = None  # (M^-1, {r: (w_r, e_r)}) of the incumbent, False if off, None if stale
        self.evaluations = self.screened = 0

    def criterion(self, x: np.ndarray) -> float:
        m, _ = self.scored = _information_sums(self.layout, x, self.ratio)
        return _log_det(m)

    def random_start(self, rng) -> np.ndarray:
        n = self.layout.n_runs
        settings = np.empty((n, len(self.model.factors)))
        for fi in self.hard:
            per_plot = rng.choice(self.cands[fi], size=self.layout.n_plots)
            settings[:, fi] = per_plot[self.layout.zero_based]
        for fi in self.easy:
            settings[:, fi] = rng.choice(self.cands[fi], size=n)
        return settings

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
            minv = _inv(m)  # best > 0: the LU of slogdet found no zero pivot in m
            cond = np.abs(m).sum(axis=0).max() * np.abs(minv).sum(axis=0).max()
            self.lemma = (minv, {}) if cond <= _SCREEN_MAX_COND else False
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
            for rows in self.layout.plot_rows:
                for fi in self.hard:
                    best = self._scan(settings, x, rows, fi, best, rng)
            for rows in self.run_rows:
                for fi in self.easy:
                    best = self._scan(settings, x, rows, fi, best, rng)
            if best == float("-inf"):
                continue  # still escaping a singular start
            if best - sweep_start <= EXCHANGE_TOL:
                break
        return settings, (best, sweeps, self.evaluations, self.screened)


def generate_design(spec: DesignSpec) -> Design:
    """Multi-start coordinate exchange; returns the best design found.

    Deterministic for a fixed seed: start k draws from a generator seeded
    with (seed, 0, k), and ties between starts keep the earliest one.
    """
    sizes = assign_whole_plot_sizes(spec.n_runs, spec.n_whole_plots)
    layout = WholePlotLayout(
        tuple(int(i) for i in np.repeat(np.arange(1, spec.n_whole_plots + 1), sizes))
    )
    worker = _Exchanger(spec.model, layout, spec.ratio)
    best_settings, best_val = None, float("-inf")
    search = []
    for k in range(spec.n_starts):
        rng = np.random.default_rng((spec.seed, 0, k))
        settings, record = worker.run(rng)
        search.append(record)
        if record[0] > best_val:
            best_settings, best_val = settings.copy(), record[0]
    if best_settings is None or best_val == float("-inf"):
        raise NumericalError(
            "no nonsingular design found; check the run budget against the model"
        )
    return Design(
        factors=spec.model.factors,
        whole_plot=layout.assignment,
        settings=best_settings,
        criterion=best_val,
        search=tuple(search),
    )
