"""Active-subspace uncertainty quantification for expensive black boxes.

Discovers a one-dimensional active subspace of a scalar quantity of
interest from O(m) samples, then exploits it for sensitivity ranking,
output-range estimation, safe-operating-set inversion, and CDF
estimation. A scenario module reproduces the HyShot II inflow
characterization arithmetic.
"""

from .active_subspace import (
    ActiveSubspace,
    BootstrapEnsemble,
    CMatrixEstimate,
    LinearFit,
    SummaryData,
    bootstrap_direction,
    estimate_c_gradient_oracle,
    fit_active_direction,
    sensitivity_ranking,
    summary_data,
)
from .campaign import (
    Campaign,
    CommandEvaluator,
    EvalRequest,
    RunRecord,
    append_run,
    evaluate_campaign,
    load_campaign,
    load_dataset,
    new_campaign,
    ridge_direction,
    save_campaign,
    save_dataset,
    synthetic_ridge,
)
from .errors import (
    DataError,
    DegeneracyError,
    EvaluatorError,
    ToolkitError,
    UsageError,
)
from .param_space import (
    ParameterSpace,
    ParameterSpec,
    hyshot_space,
    sample_hypercube,
    unit_space,
)
from .surrogate import QuadraticSurrogate, fit_quadratic
from .uq_analysis import (
    CdfEstimate,
    InscribedBox,
    RangeEstimate,
    SafeSetResult,
    corner_extrema,
    estimate_cdf,
    estimate_range,
    inscribed_box,
    invert_safe_set,
)

__version__ = "0.1.0"
