"""The private next-token prediction loop.

Each answered query runs the same sequence: Poisson-subsample the ensemble,
project every selected model's distribution toward the public model's
distribution, average the projections, sample one token from the average,
and charge the session ledger.  When the subsample is empty the public
distribution is released unchanged.  One seeded generator per session
drives the subsampling and the token draw in a fixed interleaving, so a
session's full trace is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accounting import (
    AccountantLedger,
    BudgetExhaustedError,
    EpsMode,
    PrivacyParams,
    base_eps_for_order,
    solve_beta_star,
    subsampled_eps,
)
from .divergence import Distribution
from .mollifier import DEFAULT_LAMBDA_TOL, _mix_arrays, solve_lambdas


@dataclass(frozen=True)
class QueryRecord:
    """Audit record of one answered query.

    ``subset`` holds 0-based indices into the session's ensemble list, and
    ``mixing_weights`` has exactly one entry per subset member.
    """

    query_context: tuple[int, ...]
    subset: tuple[int, ...]
    mixing_weights: dict[int, float]
    aggregate: Distribution
    sampled_token: int


def poisson_subsample(n_models: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of models selected independently with probability ``q`` each."""
    if int(n_models) != n_models or n_models < 1:
        raise ValueError(f"ensemble size must be a positive integer, got {n_models!r}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    return np.flatnonzero(rng.random(int(n_models)) < q)


def aggregate(projected: Sequence[Distribution]) -> Distribution:
    """Entrywise arithmetic mean of the projected distributions."""
    if len(projected) == 0:
        raise ValueError("cannot aggregate an empty list; release the public model instead")
    stacked = np.stack([d.probs for d in projected])  # rejects mixed vocabularies
    return Distribution._already_normalized(stacked.mean(axis=0))


def sample_token(dist: Distribution, rng: np.random.Generator) -> int:
    """Ancestral sample from the full distribution; no truncation, no temperature."""
    cum = np.cumsum(dist.probs)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))


class PredictionSession:
    """One budgeted interaction of at most ``params.T`` answered queries.

    The mollifier radius is fixed once at construction (it depends only on
    the parameters, not on any query), and every answered query is charged
    the precomputed amplified per-query loss.  A session owns its ledger
    and its generator; run concurrent sessions on separate instances.
    """

    def __init__(
        self,
        ensemble: Sequence,
        public_model,
        params: PrivacyParams,
        mode: EpsMode = EpsMode.CONSERVATIVE,
        seed: int = 0,
        solver_tol: float = 1e-9,
        lambda_tol: float = DEFAULT_LAMBDA_TOL,
    ):
        if len(ensemble) != params.N:
            raise ValueError(
                f"ensemble has {len(ensemble)} models but params.N = {params.N}"
            )
        self.ensemble = list(ensemble)
        self.public_model = public_model
        self.params = params
        self.mode = mode
        self.lambda_tol = lambda_tol
        self.beta_star = solve_beta_star(params, mode, solver_tol)
        per_query = subsampled_eps(
            params.q,
            params.alpha,
            lambda k: base_eps_for_order(self.beta_star, k, params.N, mode),
        )
        self.ledger = AccountantLedger(params, per_query)
        self.rng_seed = int(seed)
        self.rng = np.random.default_rng(self.rng_seed)

    def respond(self, query: Sequence[int]) -> tuple[int, QueryRecord]:
        """Answer one query: returns the sampled token and the audit record.

        Refuses (without consuming randomness or budget) if the ledger is
        exhausted.  A model failure propagates without charging the ledger,
        since no output is released.
        """
        if self.ledger.remaining_queries <= 0:
            raise BudgetExhaustedError(
                f"query budget exhausted after {self.params.T} answers"
            )
        subset = poisson_subsample(self.params.N, self.params.q, self.rng)
        public_dist = self.public_model.distribution(query)
        if subset.size == 0:
            released, weights = public_dist, {}
        else:
            members = np.stack([self.ensemble[i].distribution(query).probs
                                for i in subset.tolist()])
            lams = solve_lambdas(members, public_dist, self.params.alpha,
                                 self.beta_star, tol=self.lambda_tol)
            projected = _mix_arrays(members, public_dist.probs, lams[:, np.newaxis])
            released = Distribution._already_normalized(projected.mean(axis=0))
            weights = dict(zip(subset.tolist(), lams.tolist()))
        token = sample_token(released, self.rng)
        self.ledger.charge()
        record = QueryRecord(
            query_context=tuple(int(t) for t in query),
            subset=tuple(int(i) for i in subset),
            mixing_weights=weights,
            aggregate=released,
            sampled_token=token,
        )
        return token, record

    def run_session(self, queries: Sequence[Sequence[int]]) -> list[QueryRecord]:
        """Answer queries in order; on budget exhaustion the raised error
        carries the records answered so far in its ``records`` attribute."""
        records: list[QueryRecord] = []
        for query in queries:
            try:
                _, record = self.respond(query)
            except BudgetExhaustedError as err:
                raise BudgetExhaustedError(str(err), records=records) from None
            records.append(record)
        return records
