"""The private next-token prediction loop.

Each answered query runs the same sequence: Poisson-subsample the ensemble,
project every selected model's distribution toward the public model's
distribution, average the projections, sample one token from the average,
and charge the session ledger.  When the subsample is empty the public
distribution is released unchanged.  One seeded generator per session
drives the subsampling and the token draw in a fixed interleaving, so a
session's full trace is reproducible from its seed.

Serving answers one query at a time with ``respond``.  Evaluation answers
a block of queries with ``answer_block``: the block's draws come from one
call on the same generator stream, its (query, member) pairs are projected
in one bisection, and it releases and charges exactly what one ``respond``
per query would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accounting import (
    Accountant,
    AccountantLedger,
    BudgetExhaustedError,
    EpsMode,
    PrivacyParams,
    check_positive_int,
    check_probability,
)
from .divergence import Distribution
from .mollifier import _mix_arrays, solve_lambdas


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
    n = check_positive_int(n_models, "ensemble size")
    check_probability(q, "q", allow_one=True)
    return np.flatnonzero(rng.random(n) < q)


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

    The session's :class:`Accountant` fixes the mollifier radius once at
    construction (it depends only on the parameters, not on any query), and
    every answered query is charged its precomputed amplified per-query
    loss.  A session owns its ledger and its generator; run concurrent
    sessions on separate instances.
    """

    def __init__(
        self,
        ensemble: Sequence,
        public_model,
        params: PrivacyParams,
        mode: EpsMode = EpsMode.CONSERVATIVE,
        seed: int = 0,
    ):
        if len(ensemble) != params.N:
            raise ValueError(
                f"ensemble has {len(ensemble)} models but params.N = {params.N}"
            )
        self.ensemble = list(ensemble)
        self.public_model = public_model
        self.accountant = Accountant(params, mode)
        self.params, self.mode = params, mode
        self.beta_star = self.accountant.beta_star
        self.ledger = AccountantLedger(params, self.accountant.per_query_eps)
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
            lams = solve_lambdas(members, public_dist, self.params.alpha, self.beta_star)
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

    def answer_block(self, queries: Sequence[Sequence[int]]) -> np.ndarray:
        """Answer ``queries`` in order as one block; returns the released
        ``(b, V)`` stack, row ``j`` answering ``queries[j]``.

        Each row equals the aggregate that :meth:`respond` would release for
        that query, and the block draws from the generator and charges the
        ledger exactly as ``b`` calls of :meth:`respond` would: one
        ``rng.random((b, N + 1))`` is the same stream as ``N`` subsample
        uniforms then one token uniform per query.  Tokens are not sampled,
        since an evaluation scores the released distribution itself.  Every
        selected (query, member) pair of the block is projected in one
        :func:`solve_lambdas` call, each row against its own query's public
        distribution.  A block larger than the budget left is refused before
        any draw; a model failure releases and charges nothing in the block.
        """
        n, b = self.params.N, len(queries)
        if b > self.ledger.remaining_queries:
            raise BudgetExhaustedError(
                f"a block of {b} queries exceeds the "
                f"{self.ledger.remaining_queries} answers left of {self.params.T}"
            )
        draws = self.rng.random((b, n + 1))
        owners, members = np.nonzero(draws[:, :n] < self.params.q)
        released = np.stack([self.public_model.distribution(x).probs for x in queries])
        if owners.size:
            rows = np.stack([self.ensemble[m].distribution(queries[i]).probs
                             for i, m in zip(owners.tolist(), members.tolist())])
            refs = released[owners]
            lams = solve_lambdas(rows, refs, self.params.alpha, self.beta_star)
            projected = _mix_arrays(rows, refs, lams[:, np.newaxis])
            answered, counts = np.unique(owners, return_counts=True)
            # np.add.at adds rows one at a time in order, the order that
            # respond's projected.mean(axis=0) sums them in
            sums = np.zeros((b, released.shape[1]))
            np.add.at(sums, owners, projected)
            released[answered] = sums[answered] / counts[:, np.newaxis]
        for _ in range(b):
            self.ledger.charge()
        return released

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
