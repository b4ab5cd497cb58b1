"""Factors, model terms and degree-of-freedom accounting for split-plot experiments.

Hard-to-change factors are reset only between whole plots; easy-to-change
factors can move on every run.  A model term counts as a whole-plot term
exactly when every factor in it is hard to change, because such a term is
constant within a whole plot and must be tested against whole-plot error.
Everything else is a subplot term.

Degrees of freedom are budgeted separately per level.  At the whole-plot
level the experimental unit is the plot, so the intercept and the
whole-plot terms consume plot degrees of freedom.  At the subplot level
each whole plot soaks up one degree of freedom (its own mean), the
"takeover", and the remaining run degrees of freedom pay for subplot terms
and subplot error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

WHOLE_PLOT = "whole_plot"
SUBPLOT = "subplot"

_KINDS = ("continuous", "categorical")

# defaults for the error budget at each level
MIN_WHOLE_PLOT_ERROR_DF = 4
MIN_SUBPLOT_ERROR_DF = 5

# characters reserved by the text formats (term labels, CSV, goal flags)
_RESERVED = set(",*:=")


def _check_name(name: str, what: str) -> None:
    if not isinstance(name, str) or not name or name != name.strip():
        raise ValidationError(f"{what} name must be a non-empty trimmed string, got {name!r}")
    if _RESERVED & set(name):
        raise ValidationError(f"{what} name {name!r} may not contain any of , * : =")


@dataclass(frozen=True)
class Factor:
    """One experimental factor.

    Continuous factors live on a coded [-1, +1] scale that maps linearly to
    the natural range [low, high].  Categorical factors are stored as level
    indices 0..k-1 and expand to k-1 effect-coded model columns; with two
    levels that single column is -1 for the first level and +1 for the
    second.
    """

    name: str
    kind: str
    levels: tuple[str, ...] = ()
    low: float = -1.0
    high: float = 1.0
    hard_to_change: bool = False

    def __post_init__(self):
        _check_name(self.name, "factor")
        # tuples keep the factor hashable: fits memoize per ModelSpec on the design
        object.__setattr__(self, "levels", () if self.levels is None else tuple(self.levels))
        if self.kind not in _KINDS:
            raise ValidationError(f"factor kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "categorical":
            if len(self.levels) < 2:
                raise ValidationError(f"categorical factor {self.name!r} needs at least 2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise ValidationError(f"categorical factor {self.name!r} has duplicate levels")
            for lev in self.levels:
                _check_name(lev, f"level of {self.name!r}")
        else:
            if self.levels:
                raise ValidationError(f"continuous factor {self.name!r} must not list levels")
            lo, hi = float(self.low), float(self.high)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValidationError(
                    f"continuous factor {self.name!r} needs a finite range with low < high"
                )

    @property
    def is_categorical(self) -> bool:
        return self.kind == "categorical"

    @property
    def n_levels(self) -> int:
        return len(self.levels) if self.is_categorical else 0

    @property
    def n_columns(self) -> int:
        """Model-matrix columns contributed by the main effect."""
        return len(self.levels) - 1 if self.is_categorical else 1

    def contrast_matrix(self) -> np.ndarray:
        """Effect coding, one row per level: row j is e_j for j < k-1, all -1 for the last."""
        k = len(self.levels)
        c = np.zeros((k, k - 1))
        if k == 2:
            return np.array([[-1.0], [1.0]])
        c[np.arange(k - 1), np.arange(k - 1)] = 1.0
        c[k - 1, :] = -1.0
        return c

    def candidates(self, k: int) -> np.ndarray:
        """Search grid: every level index, or k evenly spaced coded values in [-1, +1]."""
        if self.is_categorical:
            return np.arange(self.n_levels, dtype=float)
        return np.linspace(-1.0, 1.0, k)

    def coded_columns(self, settings: np.ndarray) -> np.ndarray:
        """Expand per-run settings into the factor's model columns (n x n_columns)."""
        x = np.asarray(settings, dtype=float)
        if self.is_categorical:
            idx = x.astype(int)
            if np.any(idx != x) or idx.min(initial=0) < 0 or idx.max(initial=0) >= len(self.levels):
                raise ValidationError(f"invalid level code for factor {self.name!r}")
            return self.contrast_matrix()[idx]
        return x[:, None]

    def to_coded(self, natural) -> float:
        """Natural value or level label -> internal setting.

        A continuous value gives the first round(coded, k), k = 0..16, that
        to_natural maps back to exactly that value, else the clamped coded
        value: the text a design writes reads back as that design.
        """
        if self.is_categorical:
            try:
                return float(self.levels.index(natural))
            except ValueError:
                raise ValidationError(
                    f"{natural!r} is not a level of factor {self.name!r} (levels: {self.levels})"
                ) from None
        try:
            value = float(natural)
        except (TypeError, ValueError):
            raise ValidationError(
                f"value {natural!r} for factor {self.name!r} is not a number"
            ) from None
        if not np.isfinite(value):
            raise ValidationError(f"value {value} for factor {self.name!r} is not finite")
        half = (self.high - self.low) / 2.0
        coded = (value - self.low) / half - 1.0
        # tolerate float fuzz from text round trips, reject real violations
        if coded < -1.0 - 1e-9 or coded > 1.0 + 1e-9:
            raise ValidationError(
                f"value {value} for factor {self.name!r} is outside [{self.low}, {self.high}]"
            )
        coded = min(1.0, max(-1.0, coded))
        for k in range(17):
            snapped = round(coded, k) + 0.0  # + 0.0 folds -0.0
            if self.to_natural(snapped) == value:
                return snapped
        return coded

    def to_natural(self, setting: float):
        """Internal setting -> natural value or level label."""
        if self.is_categorical:
            return self.levels[int(setting)]
        half = (self.high - self.low) / 2.0
        return self.low + (float(setting) + 1.0) * half


def define_factor(name, kind, levels=None, low=-1.0, high=1.0, hard_to_change=False) -> Factor:
    """Convenience constructor; see Factor."""
    return Factor(
        name=name,
        kind=kind,
        levels=tuple(levels) if levels else (),
        low=low,
        high=high,
        hard_to_change=bool(hard_to_change),
    )


@dataclass(frozen=True)
class ModelTerm:
    """A main effect or two-factor interaction, tagged with its testing level."""

    factors: tuple[str, ...]
    level: str
    df: int

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def label(self) -> str:
        return "*".join(self.factors)

    @property
    def order(self) -> int:
        return len(self.factors)


def classify_term(factor_names, factors) -> str:
    """Whole-plot term iff every involved factor is hard to change."""
    by_name = {f.name: f for f in factors}
    for name in factor_names:
        if name not in by_name:
            raise ValidationError(f"term references unknown factor {name!r}")
    hard = all(by_name[name].hard_to_change for name in factor_names)
    return WHOLE_PLOT if hard else SUBPLOT


@dataclass(frozen=True)
class ModelSpec:
    """A factor list plus an ordered term list (mains first, then interactions)."""

    factors: tuple[Factor, ...]
    terms: tuple[ModelTerm, ...]

    def __post_init__(self):
        # tuples keep the spec hashable: fits memoize per ModelSpec on the design
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "terms", tuple(self.terms))
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate factor names")

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    def factor(self, name: str) -> Factor:
        for f in self.factors:
            if f.name == name:
                return f
        raise ValidationError(f"unknown factor {name!r}")

    @property
    def whole_plot_terms(self) -> tuple[ModelTerm, ...]:
        return tuple(t for t in self.terms if t.level == WHOLE_PLOT)

    @property
    def subplot_terms(self) -> tuple[ModelTerm, ...]:
        return tuple(t for t in self.terms if t.level == SUBPLOT)

    @property
    def whole_plot_model_df(self) -> int:
        # intercept is counted here, at the whole-plot level
        return 1 + sum(t.df for t in self.whole_plot_terms)

    @property
    def subplot_model_df(self) -> int:
        return sum(t.df for t in self.subplot_terms)

    @property
    def n_parameters(self) -> int:
        return 1 + sum(t.df for t in self.terms)

    @property
    def term_columns(self) -> tuple[slice, ...]:
        """Model-matrix columns of each term, in term order; column 0 is the intercept."""
        ends = np.cumsum([1, *(t.df for t in self.terms)]).tolist()
        return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))

    def error_df(self, n_runs: int, n_plots: int) -> dict[str, int]:
        """Containment error df per testing level for n_runs runs in n_plots whole plots.

        Whole-plot terms are tested against r - (whole-plot model df), subplot
        terms against n - r - (subplot model df).
        """
        return {
            WHOLE_PLOT: n_plots - self.whole_plot_model_df,
            SUBPLOT: n_runs - n_plots - self.subplot_model_df,
        }


def _term_df(factor_names, by_name) -> int:
    df = 1
    for name in factor_names:
        df *= by_name[name].n_columns
    return df


def build_model(factors, terms="mains_and_all_2fi") -> ModelSpec:
    """Assemble a ModelSpec from factors and a term policy.

    terms may be "mains_and_all_2fi", "mains_only", or an explicit iterable
    of term labels such as "tension" or "tension*twist".  Term order is
    canonical either way: mains in factor order, then pairs sorted by the
    positions of their factors.
    """
    facs = tuple(factors)
    if not facs:
        raise ValidationError("at least one factor is required")
    spec_names = [f.name for f in facs]
    if len(set(spec_names)) != len(spec_names):
        raise ValidationError("duplicate factor names")
    by_name = {f.name: f for f in facs}
    pos = {name: i for i, name in enumerate(spec_names)}

    if terms == "mains_and_all_2fi":
        wanted = [(name,) for name in spec_names]
        wanted += [
            (spec_names[i], spec_names[j])
            for i in range(len(facs))
            for j in range(i + 1, len(facs))
        ]
    elif terms == "mains_only":
        wanted = [(name,) for name in spec_names]
    elif isinstance(terms, str):
        raise ValidationError(f"unknown term policy {terms!r}")
    else:
        wanted = []
        for item in terms:
            parts = tuple(p.strip() for p in item.split("*")) if isinstance(item, str) else tuple(item)
            if not (1 <= len(parts) <= 2):
                raise ValidationError(f"term {item!r} must involve one or two factors")
            if len(set(parts)) != len(parts):
                raise ValidationError(f"term {item!r} repeats a factor")
            for name in parts:
                if name not in by_name:
                    raise ValidationError(f"term {item!r} references unknown factor {name!r}")
            wanted.append(tuple(sorted(parts, key=pos.__getitem__)))
        if len(set(wanted)) != len(wanted):
            raise ValidationError("duplicate terms in explicit term list")
        wanted.sort(key=lambda t: (len(t), tuple(pos[n] for n in t)))

    built = tuple(
        ModelTerm(factors=t, level=classify_term(t, facs), df=_term_df(t, by_name))
        for t in wanted
    )
    return ModelSpec(factors=facs, terms=built)


@dataclass(frozen=True)
class DfReport:
    """Degree-of-freedom budget for one level of the design.

    For the whole-plot level, min_units is the smallest usable number of
    whole plots.  For the subplot level it is the recommended total run
    count, and takeover_df carries the run degrees of freedom absorbed by
    the whole-plot means.
    """

    level: str
    per_term_df: tuple[tuple[str, int], ...]
    model_df: int
    error_df: int
    min_units: int
    takeover_df: int | None = None
    meets_minimum: bool = True


def count_whole_plot_df(model: ModelSpec, min_error_df: int = MIN_WHOLE_PLOT_ERROR_DF) -> DfReport:
    """Whole-plot budget: intercept + whole-plot terms + target error df."""
    if min_error_df < 0:
        raise ValidationError("min_error_df must be >= 0")
    rows = tuple((t.label, t.df) for t in model.whole_plot_terms)
    model_df = model.whole_plot_model_df
    return DfReport(
        level=WHOLE_PLOT,
        per_term_df=rows,
        model_df=model_df,
        error_df=int(min_error_df),
        min_units=model_df + int(min_error_df),
    )


def count_subplot_df(
    model: ModelSpec,
    n_whole_plots: int,
    min_error_df: int = MIN_SUBPLOT_ERROR_DF,
    proposed_error_df: int | None = None,
    min_wp_error_df: int = MIN_WHOLE_PLOT_ERROR_DF,
) -> DfReport:
    """Subplot budget for a given whole-plot count.

    Every whole plot takes one run degree of freedom off the table before
    subplot terms are paid for, so

        total runs = n_whole_plots + subplot model df + subplot error df.

    proposed_error_df overrides the minimum (a larger error budget buys
    power); a proposal below the minimum is allowed but flagged.
    """
    wp = count_whole_plot_df(model, min_wp_error_df)
    if n_whole_plots < wp.min_units:
        raise ValidationError(
            f"{n_whole_plots} whole plots is below the whole-plot minimum of {wp.min_units}"
        )
    if min_error_df < 0:
        raise ValidationError("min_error_df must be >= 0")
    error_df = int(min_error_df if proposed_error_df is None else proposed_error_df)
    if error_df < 0:
        raise ValidationError("proposed_error_df must be >= 0")
    rows = tuple((t.label, t.df) for t in model.subplot_terms)
    takeover = int(n_whole_plots)
    model_df = takeover + model.subplot_model_df
    return DfReport(
        level=SUBPLOT,
        per_term_df=rows,
        model_df=model_df,
        error_df=error_df,
        min_units=model_df + error_df,
        takeover_df=takeover,
        meets_minimum=error_df >= min_error_df,
    )
