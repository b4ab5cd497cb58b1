"""Split-plot design of experiments: planning, generation, evaluation, analysis.

The pieces follow the life of an experiment with hard-to-change factors:
budget degrees of freedom per randomization level (model_spec), search for
a D-optimal design that respects the whole-plot structure (design_gen),
check power and collinearity before running it (design_eval), estimate
variance components and fixed effects afterwards (inference, covariance),
and turn several fitted responses into one recommended setting (profiler).
boomerang_sim ships a simulated version of a classic classroom experiment
so the whole pipeline can be exercised without a lab.
"""

from types import ModuleType as _ModuleType

from .boomerang_sim import (
    ResponseTruth,
    TruthConfig,
    boomerang_factors,
    boomerang_model,
    default_truth,
    mean_surface,
    simulate,
)
from .covariance import (
    CovarianceModel,
    VarianceComponents,
    WholePlotLayout,
    log_det_v,
    solve_v,
)
from .design_eval import (
    DiagnosticsReport,
    PowerReport,
    PowerRow,
    diagnostics,
    power_report,
    prediction_variance,
)
from .design_gen import (
    Design,
    DesignSpec,
    assign_whole_plot_sizes,
    column_labels,
    d_criterion,
    expand_model_matrix,
    generate_design,
    model_matrix,
)
from .errors import NumericalError, SplitPlotError, ValidationError
from .inference import (
    GlsFit,
    ResponseTable,
    TermTest,
    fixed_effect_tests,
    gls_fit,
    reml_fit,
    reml_objective,
    residual_report,
)
from .model_spec import (
    DfReport,
    Factor,
    ModelSpec,
    ModelTerm,
    SUBPLOT,
    WHOLE_PLOT,
    build_model,
    classify_term,
    count_subplot_df,
    count_whole_plot_df,
    define_factor,
)
from .profiler import Goal, SettingRecommendation, optimize, predict

__version__ = "0.1.0"

# the submodules bound by the imports above are not part of the public names
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
