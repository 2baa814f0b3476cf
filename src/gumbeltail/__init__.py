"""Tail-spacing estimation in the Gumbel max-domain of attraction.

Estimators of the spacing statistic (X_{n,n} - X_{n-k,n}) / log k and the
Hill estimator, a catalog of distribution models with their norming
constants, a seeded Monte Carlo engine verifying the consistency and
Gumbel weak-limit behavior, and a normal-versus-exponential model test.
"""

from .engine import (
    KsReport,
    ReplicateSet,
    RngSpec,
    TableRow,
    gumbel_cdf,
    inverse_transform,
    ks_distance,
    reproduce_table,
    run_replicates,
    sorted_uniforms,
    summarize,
    write_replicates_csv,
)
from .errors import AuxNotVanishing, DomainError, GumbelTailError
from .estimators import (
    KPolicy,
    SortedSample,
    de_haan_resnick,
    de_haan_resnick_log_scale,
    hill,
    select_k,
)
from .models import (
    NormingConstants,
    TailModel,
    get_model,
    iterated_c_n,
    lambda_ratio,
    mean_excess_R,
    model_names,
    norming,
    rho_numeric,
    transform_exp,
    transform_log,
)
from .normal import normal_ppf, normal_sf, normal_upper_quantile
from .select import ModelVerdict, classify, verdict

__version__ = "0.1.0"

__all__ = [
    "AuxNotVanishing",
    "DomainError",
    "GumbelTailError",
    "KPolicy",
    "KsReport",
    "ModelVerdict",
    "NormingConstants",
    "ReplicateSet",
    "RngSpec",
    "SortedSample",
    "TableRow",
    "TailModel",
    "classify",
    "de_haan_resnick",
    "de_haan_resnick_log_scale",
    "get_model",
    "gumbel_cdf",
    "hill",
    "inverse_transform",
    "iterated_c_n",
    "ks_distance",
    "lambda_ratio",
    "mean_excess_R",
    "model_names",
    "normal_ppf",
    "normal_sf",
    "normal_upper_quantile",
    "norming",
    "reproduce_table",
    "rho_numeric",
    "run_replicates",
    "select_k",
    "sorted_uniforms",
    "summarize",
    "transform_exp",
    "transform_log",
    "verdict",
    "write_replicates_csv",
]
