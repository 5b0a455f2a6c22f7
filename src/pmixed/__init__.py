"""Differentially private next-token prediction over a model ensemble.

Private models' output distributions are projected onto a Renyi-divergence
ball around a public model's distribution, averaged, and sampled; a
Renyi-DP accountant sets the ball radius so a fixed query budget is never
exceeded.
"""

from .accounting import (
    AccountantLedger,
    BudgetExhaustedError,
    EpsMode,
    PrivacyParams,
    accountant_record,
    base_eps_for_order,
    beta_infinite_order,
    beta_infinite_order_lower,
    beta_max,
    compose,
    per_query_eps,
    rdp_to_dp,
    solve_beta_star,
    subsampled_eps,
)
from .divergence import INFINITY, Distribution, renyi_divergence, symmetric_renyi
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    PartialEvaluationError,
    perplexity_of_model,
    perplexity_of_protocol,
    run_comparison,
    run_sweep,
    serialize_trace,
    session_accountant_record,
)
from .models import (
    EnsembleAverageModel,
    LanguageModel,
    NGramModel,
    StaticTableModel,
    Vocabulary,
    build_public_model,
    load_corpus,
    load_snapshot,
    partition_corpus,
    predict,
    save_snapshot,
    train_ngram,
)
from .mollifier import MollificationResult, mix, mollifier_membership, solve_lambda, solve_lambdas
from .protocol import PredictionSession, QueryRecord, aggregate, poisson_subsample, sample_token

__version__ = "0.1.0"

__all__ = [
    "AccountantLedger",
    "BudgetExhaustedError",
    "ConfigError",
    "Distribution",
    "EnsembleAverageModel",
    "EpsMode",
    "ExperimentConfig",
    "ExperimentReport",
    "INFINITY",
    "LanguageModel",
    "MollificationResult",
    "NGramModel",
    "PartialEvaluationError",
    "PredictionSession",
    "PrivacyParams",
    "QueryRecord",
    "StaticTableModel",
    "Vocabulary",
    "accountant_record",
    "aggregate",
    "base_eps_for_order",
    "beta_infinite_order",
    "beta_infinite_order_lower",
    "beta_max",
    "build_public_model",
    "compose",
    "load_corpus",
    "load_snapshot",
    "mix",
    "mollifier_membership",
    "partition_corpus",
    "per_query_eps",
    "perplexity_of_model",
    "perplexity_of_protocol",
    "poisson_subsample",
    "predict",
    "rdp_to_dp",
    "renyi_divergence",
    "run_comparison",
    "run_sweep",
    "sample_token",
    "save_snapshot",
    "serialize_trace",
    "session_accountant_record",
    "solve_beta_star",
    "solve_lambda",
    "solve_lambdas",
    "subsampled_eps",
    "symmetric_renyi",
    "train_ngram",
]
