"""Prediction and multi-response optimization over fitted models.

Each response goal maps predictions to a desirability in [0, 1] with the
classic linear ramps: 0 at or beyond the worst bound, 1 at the best bound
(for a target goal, a tent that peaks at the target and hits 0 at the two
flanking bounds).  Goals combine through a weighted geometric mean, so a
candidate that zeroes any goal is out regardless of the others.

The search space is the coded cube crossed with the categorical level
sets.  A full factorial scan over a 21-point grid per continuous factor
finds the neighborhood of the optimum; one coordinate-descent pass with a
finer 201-point axis then polishes it.  Ties keep the earlier candidate
in enumeration order, which makes the recommendation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design_gen import model_matrix
from .errors import ValidationError
from .inference import GlsFit

_GRID = 21
_REFINE_GRID = 201

_DIRECTIONS = ("maximize", "minimize", "target")


@dataclass(frozen=True)
class Goal:
    """What to do with one response: direction, bounds and relative weight."""

    response: str
    direction: str
    target: float | None = None
    bounds: tuple[float, float] | None = None
    weight: float = 1.0

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValidationError(f"direction must be one of {_DIRECTIONS}")
        if self.direction == "target":
            if self.target is None or not np.isfinite(self.target):
                raise ValidationError("a target goal needs a finite target value")
        elif self.target is not None:
            raise ValidationError(f"{self.direction} goal must not carry a target value")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo == hi:
                raise ValidationError("bounds must be two distinct finite values")
        if not (np.isfinite(self.weight) and self.weight > 0):
            raise ValidationError("weight must be finite and > 0")


def predict(fit: GlsFit, settings) -> tuple[float, float]:
    """Point prediction and its standard error at natural-unit settings.

    settings maps every factor name to a natural value: a level label for
    categorical factors, a number inside [low, high] for continuous ones.
    """
    if not isinstance(settings, dict):
        raise ValidationError("settings must map factor names to values")
    extra = set(settings) - set(fit.model.factor_names)
    if extra:
        raise ValidationError(f"settings name unknown factors: {sorted(extra)}")
    row = []
    for f in fit.model.factors:
        if f.name not in settings:
            raise ValidationError(f"settings are missing factor {f.name!r}")
        row.append(f.to_coded(settings[f.name]))
    fx = model_matrix(fit.model, np.asarray(row))[0]
    value = float(fx @ fit.beta)
    se = float(np.sqrt(max(fx @ fit.cov_beta @ fx, 0.0)))
    return value, se


def _resolve_bounds(goal: Goal, fit: GlsFit) -> tuple[float, float]:
    """Explicit bounds, or the observed response range as (worst, best)."""
    if goal.bounds is not None:
        lo, hi = float(goal.bounds[0]), float(goal.bounds[1])
    else:
        ymin, ymax = float(fit.y.min()), float(fit.y.max())
        if ymin == ymax:
            raise ValidationError(
                f"response {goal.response!r} is constant; pass explicit bounds"
            )
        if goal.direction == "maximize":
            lo, hi = ymin, ymax
        elif goal.direction == "minimize":
            lo, hi = ymax, ymin
        else:
            lo, hi = ymin, ymax
    if goal.direction == "target":
        low, high = min(lo, hi), max(lo, hi)
        if not (low < goal.target < high):
            raise ValidationError(
                f"target {goal.target} must sit strictly between the bounds ({low}, {high})"
            )
        return low, high
    return lo, hi


def _desirability(values: np.ndarray, goal: Goal, bounds) -> np.ndarray:
    if goal.direction == "target":
        low, high = bounds
        left = (values - low) / (goal.target - low)
        right = (high - values) / (high - goal.target)
        return np.clip(np.minimum(left, right), 0.0, 1.0)
    worst, best = bounds
    return np.clip((values - worst) / (best - worst), 0.0, 1.0)


@dataclass(frozen=True)
class SettingRecommendation:
    """Optimizer output: one setting per factor plus the predicted responses."""

    settings: tuple[tuple[str, object, float], ...]  # (factor, natural, coded)
    predictions: tuple[tuple[str, float, float], ...]  # (response, value, se)
    desirability: float

    def setting(self, name: str):
        for factor, natural, _ in self.settings:
            if factor == name:
                return natural
        raise ValidationError(f"no factor named {name!r}")


def _overall(points: np.ndarray, fits, goals, bounds_by_goal) -> np.ndarray:
    """Weighted geometric-mean desirability for a batch of settings rows."""
    responses = {}
    for name, fit in fits.items():
        responses[name] = model_matrix(fit.model, points) @ fit.beta
    total_w = sum(g.weight for g in goals)
    with np.errstate(divide="ignore"):
        log_d = np.zeros(points.shape[0])
        for g, bounds in zip(goals, bounds_by_goal):
            d = _desirability(responses[g.response], g, bounds)
            log_d = log_d + (g.weight / total_w) * np.log(d)
    return np.exp(log_d)


def optimize(fits: dict[str, GlsFit], goals) -> SettingRecommendation:
    """Best settings under the combined goals.

    fits maps response names to fitted models sharing one factor list.
    The scan enumerates the full grid (categorical levels crossed with
    _GRID (21) coded points per continuous factor), then runs one refinement
    pass along each axis in factor order.
    """
    goals = tuple(goals)
    if not goals:
        raise ValidationError("at least one goal is required")
    if not fits:
        raise ValidationError("at least one fitted response is required")
    names = {g.response for g in goals}
    missing = names - set(fits)
    if missing:
        raise ValidationError(f"goals reference unfitted responses: {sorted(missing)}")
    items = list(fits.items())
    factors = items[0][1].model.factors
    for _, fit in items[1:]:
        if fit.model.factors != factors:
            raise ValidationError("all fits must share the same factors")
    bounds_by_goal = [_resolve_bounds(g, fits[g.response]) for g in goals]

    mesh = np.meshgrid(*(f.candidates(_GRID) for f in factors), indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    scores = _overall(points, fits, goals, bounds_by_goal)
    best_idx = int(np.argmax(scores))  # first index wins ties
    best = points[best_idx].copy()
    best_score = float(scores[best_idx])

    # one polishing pass, coordinate by coordinate
    for i, f in enumerate(factors):
        cands = f.candidates(_REFINE_GRID)
        trial = np.tile(best, (len(cands), 1))
        trial[:, i] = cands
        vals = _overall(trial, fits, goals, bounds_by_goal)
        j = int(np.argmax(vals))
        if vals[j] > best_score:
            best_score = float(vals[j])
            best = trial[j].copy()

    settings = tuple(
        (f.name, f.to_natural(best[i]), float(best[i])) for i, f in enumerate(factors)
    )
    natural = {name: value for name, value, _ in settings}
    predictions = tuple(
        (name, *predict(fit, natural)) for name, fit in items
    )
    return SettingRecommendation(
        settings=settings, predictions=predictions, desirability=best_score
    )
