"""Differentially private next-token prediction over a model ensemble.

Private models' output distributions are projected onto a Renyi-divergence
ball around a public model's distribution, averaged, and sampled; a
Renyi-DP accountant sets the ball radius so a fixed query budget is never
exceeded.
"""

from .accounting import (
    Accountant,
    AccountantLedger,
    BudgetExhaustedError,
    EpsMode,
    PrivacyParams,
    base_eps_for_order,
    beta_infinite_order,
    beta_max,
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
    save_snapshot,
    train_ngram,
)
from .mollifier import MollificationResult, mix, mollifier_membership, solve_lambda, solve_lambdas
from .protocol import PredictionSession, QueryRecord

__version__ = "0.1.0"

__all__ = [
    "Accountant",
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
    "base_eps_for_order",
    "beta_infinite_order",
    "beta_max",
    "build_public_model",
    "load_corpus",
    "load_snapshot",
    "mix",
    "mollifier_membership",
    "partition_corpus",
    "per_query_eps",
    "perplexity_of_model",
    "perplexity_of_protocol",
    "rdp_to_dp",
    "renyi_divergence",
    "run_comparison",
    "run_sweep",
    "save_snapshot",
    "serialize_trace",
    "solve_beta_star",
    "solve_lambda",
    "solve_lambdas",
    "subsampled_eps",
    "symmetric_renyi",
    "train_ngram",
]
