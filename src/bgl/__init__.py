"""Numerical toolkit for bilateral grand Lebesgue norms, metric entropy,
generic-chaining maximal bounds, and their martingale and Fourier
applications, verified at desk scale against brute-force oracles."""

from .errors import (
    ConstructionError,
    DomainError,
    EstimationError,
    EvaluationError,
    ModelMismatchError,
    PreconditionError,
    SizeError,
)
from .measure import (
    DiscreteMeasureSpace,
    FunctionFamily,
    SimpleFunction,
    indicator,
    load_family,
    pointwise_max,
    save_family,
)
from .psi import (
    PGrid,
    PsiFunction,
    check_log_convex,
    constant,
    doob_factor,
    from_formula,
    from_table,
    power,
    product_psi,
    psi_doob,
    psi_fourier,
    psi_kappa,
    psi_kappa12,
    ratio,
)
from .norms import (
    MriNormSpec,
    NormResult,
    bgl_norm,
    fatou_check,
    fundamental_function,
    indicator_norm_check,
    lp_norm,
    mri_norm,
    natural_psi,
)
from .entropy import (
    CoveringProfile,
    SemiMetric,
    covering_number,
    covering_profile,
    entropy_dimension,
    family_semimetric,
)
from .chaining import (
    ChainingReport,
    abs_sup,
    chained_product_bound,
    chained_product_bounds,
    entropy_sum_bound,
    exact_sup,
    exp_orlicz_bound,
    generalized_pisier_bound,
    mri_chaining_bound,
    optimize_theta,
    pisier_bound,
    polynomial_entropy_check,
    series_S_beta,
)
from .martingale import (
    MartingaleEnsemble,
    build_walk_ensemble,
    doob_check,
    martingale_block_check,
    norming_identity,
    norming_log,
    norming_log_loglog,
    summability_check,
)
from .fourier import (
    FourierSample,
    fourier_coefficients,
    maximal_partial_sum,
    maximal_ratio_check,
    partial_sum,
    sample_function,
    square_wave_sample,
    trig_poly_sample,
)
from .fixtures import make_rng

__version__ = "0.1.0"
