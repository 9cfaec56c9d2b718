"""Leverage-weighted random Fourier features for kernel ridge regression.

The package approximates the Gaussian kernel with paired cos/sin random
features and concentrates the frequency sample where it matters: pooled
frequencies are scored by a label-driven surrogate of the ridge leverage
function (no matrix inversion involved) and resampled in proportion.
Alongside the samplers live the KRR solver, exact and approximate
leverage baselines, sample-complexity diagnostics, and a benchmark
harness with a CLI.
"""

from .datasets import (
    GIVEN_PARTITION,
    RANDOM_HALF,
    Dataset,
    MinMaxNormalizer,
    load_dataset,
    load_dataset_pair,
    split,
)
from .errors import DataError, NumericalError, UsageError
from .experiments import (
    METHODS,
    ExperimentConfig,
    TrialRecord,
    emit_report,
    generate_features,
    make_sampler,
    read_report,
    render_report,
    run_experiment,
)
from .features import (
    FeatureMatrix,
    FrequencyPool,
    PoolSource,
    approx_kernel_entry,
    feature_map,
    halton,
    sample_mc,
    sample_qmc,
)
from .kernels import (
    KernelSpec,
    SpectralDensity,
    eval_kernel,
    kernel_matrix,
    relative_approx_error,
    spectral_density,
)
from .krr import (
    CvReport,
    KrrModel,
    classify_accuracy,
    cross_validate,
    fit,
    fit_exact,
    predict,
)
from .leverage import (
    LeverageScores,
    ResamplePlan,
    ScoreKind,
    approx_ridge_leverage,
    build_resample_plan,
    degrees_of_freedom,
    erls_baseline_pipeline,
    exact_leverage,
    regularized_factor,
    resample,
    surrogate_dof,
    surrogate_leverage,
    surrogate_pipeline,
)
from .theory import (
    BoundReport,
    DecayRegime,
    classify_decay,
    format_bound_report,
    required_features,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CvReport",
    "DataError",
    "Dataset",
    "DecayRegime",
    "ExperimentConfig",
    "FeatureMatrix",
    "FrequencyPool",
    "GIVEN_PARTITION",
    "KernelSpec",
    "KrrModel",
    "LeverageScores",
    "METHODS",
    "MinMaxNormalizer",
    "NumericalError",
    "PoolSource",
    "RANDOM_HALF",
    "ResamplePlan",
    "ScoreKind",
    "SpectralDensity",
    "TrialRecord",
    "UsageError",
    "approx_kernel_entry",
    "approx_ridge_leverage",
    "build_resample_plan",
    "classify_accuracy",
    "classify_decay",
    "cross_validate",
    "degrees_of_freedom",
    "emit_report",
    "erls_baseline_pipeline",
    "eval_kernel",
    "exact_leverage",
    "feature_map",
    "fit",
    "fit_exact",
    "format_bound_report",
    "generate_features",
    "halton",
    "kernel_matrix",
    "load_dataset",
    "load_dataset_pair",
    "make_sampler",
    "predict",
    "read_report",
    "regularized_factor",
    "relative_approx_error",
    "render_report",
    "required_features",
    "resample",
    "run_experiment",
    "sample_mc",
    "sample_qmc",
    "spectral_density",
    "split",
    "surrogate_dof",
    "surrogate_leverage",
    "surrogate_pipeline",
]
