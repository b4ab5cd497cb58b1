"""Synthetic data for the rolling-tin teaching experiment.

The apparatus is a tin with a rubber band and a nut suspended inside.  It
rolls down a ramp, runs forward while the band winds up, stops, and rolls
back.  Four factors drive it: the nut weight (swapping it means opening
the tin, so it is hard to change), the band tension, whether the band is
pre-twisted, and the ramp height.  Two distances are measured per run,
the forward run-out y1 and the rollback y2.

Truth here is a linear model on the coded factors plus the two-error
structure: one shared draw per whole plot and one draw per run.  All
coefficients are configuration defaults on a centimeter scale, chosen so
that a two-level study of reasonable size detects the intended pattern
(large effects on y1 from every factor, y2 driven by the nut weight
alone) with comfortable power.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .design_gen import Design
from .errors import ValidationError
from .inference import ResponseTable
from .model_spec import Factor, ModelSpec, build_model, define_factor, _check_name


def boomerang_factors() -> tuple[Factor, ...]:
    """The four standard factors of the rolling-tin exercise."""
    return (
        define_factor("nut_weight", "categorical", levels=("light", "heavy"), hard_to_change=True),
        define_factor("tension", "continuous", low=1.0, high=3.0),
        define_factor("twist", "categorical", levels=("no", "yes")),
        define_factor("ramp_height", "continuous", low=10.0, high=30.0),
    )


def boomerang_model(terms="mains_and_all_2fi") -> ModelSpec:
    return build_model(boomerang_factors(), terms)


@dataclass(frozen=True)
class ResponseTruth:
    """Ground truth for one response: mean surface plus noise sizes (cm)."""

    intercept: float
    coefficients: Mapping[str, float]
    sigma_gamma: float
    sigma_epsilon: float

    def __post_init__(self):
        _check_number(self.intercept, "intercept")
        for label, coef in dict(self.coefficients).items():
            _check_number(coef, f"coefficient {label!r}")
        for name in ("sigma_gamma", "sigma_epsilon"):
            if not _check_number(getattr(self, name), name) >= 0:
                raise ValidationError(f"{name} must be finite and >= 0")
        object.__setattr__(self, "coefficients", dict(self.coefficients))


def _check_number(value, what):
    """value, if it is a finite real number (not a bool); else ValidationError naming what."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValidationError(f"truth {what} must be a finite number, not {value!r}")
    return value


@dataclass(frozen=True)
class TruthConfig:
    responses: Mapping[str, ResponseTruth]
    seed: int = 0

    def __post_init__(self):
        if not self.responses:
            raise ValidationError("truth needs at least one response")
        for name in self.responses:
            _check_name(name, "response")
        object.__setattr__(self, "responses", dict(self.responses))


def default_truth() -> TruthConfig:
    """Calibrated defaults: every factor moves y1, only the nut weight moves y2.

    A heavy nut raises both distances.  The run-level noise matches the
    roughly 60 and 54 cm residual scatter such tins produce; the plot
    effect is set to half the run noise.
    """
    y1 = ResponseTruth(
        intercept=350.0,
        coefficients={
            "nut_weight": 105.0,
            "tension": 70.0,
            "twist": -65.0,
            "ramp_height": 65.0,
        },
        sigma_gamma=30.15,
        sigma_epsilon=60.3,
    )
    y2 = ResponseTruth(
        intercept=180.0,
        coefficients={"nut_weight": 120.0},
        sigma_gamma=26.95,
        sigma_epsilon=53.9,
    )
    return TruthConfig(responses={"y1": y1, "y2": y2}, seed=0)


def _expand_term(design: Design, label: str) -> np.ndarray:
    index = {f.name: i for i, f in enumerate(design.factors)}
    names = [p.strip() for p in label.split("*")]
    if len(set(names)) != len(names):
        raise ValidationError(f"truth term {label!r} repeats a factor")
    col = np.ones(design.n_runs)
    for name in names:
        if name not in index:
            raise ValidationError(f"truth term {label!r} references unknown factor {name!r}")
        f = design.factors[index[name]]
        block = f.coded_columns(design.settings[:, index[name]])
        if block.shape[1] != 1:
            raise ValidationError(
                f"truth coefficient for {label!r} is ambiguous: factor {name!r} "
                f"spans {block.shape[1]} columns"
            )
        col = col * block[:, 0]
    return col


def mean_surface(design: Design, truth: ResponseTruth) -> np.ndarray:
    """Noise-free response values for every run of the design."""
    mean = np.full(design.n_runs, float(truth.intercept))
    for label, coef in truth.coefficients.items():
        mean += float(coef) * _expand_term(design, label)
    return mean


def _mean_column(design: Design, truth: ResponseTruth) -> np.ndarray:
    """mean_surface(design, truth), read-only and memoized on the design under its
    intercept and coefficient items, so a truth whose coefficients change after a
    call never reads the mean of the old ones."""
    key = (float(truth.intercept), *((label, float(c)) for label, c in truth.coefficients.items()))
    mean = design._memo.get(key)
    if mean is None:
        mean = mean_surface(design, truth)
        mean.setflags(write=False)
        design._memo[key] = mean
    return mean


def simulate(design: Design, truth: TruthConfig, seed=None) -> ResponseTable:
    """Draw one replicate of every response in the truth config.

    For each response, in declaration order, the generator draws the r
    whole-plot effects and then the n run errors, so a fixed seed pins the
    whole table bit for bit.  Pass seed as an int or a tuple of ints; a
    tuple like (base_seed, replicate) gives independent replicate streams.
    None falls back to the seed stored in the truth config.  Seeds are
    non-negative integers.
    """
    seed = truth.seed if seed is None else seed
    parts = seed if isinstance(seed, tuple) else (seed,)
    if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in parts):
        raise ValidationError("seed must be a non-negative integer or a tuple of them")
    rng = np.random.default_rng(seed)
    a0 = design.layout.zero_based
    r = design.layout.n_plots
    n = design.n_runs
    columns = {}
    for name, resp in truth.responses.items():
        mean = _mean_column(design, resp)
        gamma = rng.normal(0.0, resp.sigma_gamma, size=r)
        eps = rng.normal(0.0, resp.sigma_epsilon, size=n)
        columns[name] = mean + gamma[a0] + eps
    return ResponseTable(design=design, responses=columns)
