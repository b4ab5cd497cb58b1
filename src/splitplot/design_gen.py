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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import WholePlotLayout, _check_ratio, information
from .errors import NumericalError, ValidationError
from .model_spec import Factor, ModelSpec

EXCHANGE_TOL = 1e-9
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
    """

    factors: tuple[Factor, ...]
    whole_plot: tuple[int, ...]
    settings: np.ndarray
    criterion: float | None = None
    layout: WholePlotLayout = field(init=False, repr=False, compare=False)

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
    sign, ld = np.linalg.slogdet(m)
    if sign <= 0 or not np.isfinite(ld):
        return float("-inf")
    return float(ld)


def d_criterion(design: Design, model: ModelSpec, ratio: float = 1.0) -> float:
    """log det(X' V^{-1} X) at unit error variance; -inf when singular."""
    _check_ratio(ratio)
    return _log_det(information(design.layout, expand_model_matrix(design, model), ratio))


class _Exchanger:
    """One coordinate-exchange run over a fixed layout."""

    def __init__(self, model: ModelSpec, layout: WholePlotLayout, ratio: float):
        self.model = model
        self.layout = layout
        self.ratio = ratio
        self.cands = [f.candidates(_EXCHANGE_GRID) for f in model.factors]
        self.hard = [i for i, f in enumerate(model.factors) if f.hard_to_change]
        self.easy = [i for i, f in enumerate(model.factors) if not f.hard_to_change]

    def criterion(self, settings: np.ndarray) -> float:
        return _log_det(information(self.layout, model_matrix(self.model, settings), self.ratio))

    def random_start(self, rng) -> np.ndarray:
        n = self.layout.n_runs
        settings = np.empty((n, len(self.model.factors)))
        for fi in self.hard:
            per_plot = rng.choice(self.cands[fi], size=self.layout.n_plots)
            settings[:, fi] = per_plot[self.layout.zero_based]
        for fi in self.easy:
            settings[:, fi] = rng.choice(self.cands[fi], size=n)
        return settings

    def _scan(self, settings, rows, fi, best, rng):
        """Try every candidate for one coordinate; ties keep the incumbent."""
        current = settings[rows[0], fi]
        best_cand, best_val = current, best
        for cand in self.cands[fi]:
            if cand == current:
                continue
            settings[rows, fi] = cand
            val = self.criterion(settings)
            if val > best_val:
                best_cand, best_val = cand, val
        if best_val == float("-inf"):
            # every choice singular: re-randomize to escape the flat region
            best_cand = rng.choice(self.cands[fi])
        settings[rows, fi] = best_cand
        assert best_val >= best  # exchange never walks downhill
        return best_val

    def run(self, rng):
        settings = self.random_start(rng)
        best = self.criterion(settings)
        for _ in range(_MAX_SWEEPS):
            sweep_start = best
            for rows in self.layout.plot_rows:
                for fi in self.hard:
                    best = self._scan(settings, rows, fi, best, rng)
            for run in range(self.layout.n_runs):
                for fi in self.easy:
                    best = self._scan(settings, np.array([run]), fi, best, rng)
            if best == float("-inf"):
                continue  # still escaping a singular start
            if best - sweep_start <= EXCHANGE_TOL:
                break
        return settings, best


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
    for k in range(spec.n_starts):
        rng = np.random.default_rng((spec.seed, 0, k))
        settings, val = worker.run(rng)
        if val > best_val:
            best_settings, best_val = settings.copy(), val
    if best_settings is None or best_val == float("-inf"):
        raise NumericalError(
            "no nonsingular design found; check the run budget against the model"
        )
    return Design(
        factors=spec.model.factors,
        whole_plot=layout.assignment,
        settings=best_settings,
        criterion=best_val,
    )
