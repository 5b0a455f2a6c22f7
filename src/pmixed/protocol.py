"""The private next-token prediction loop.

Each answered query runs the same sequence: Poisson-subsample the ensemble,
project every selected model's distribution into the ball around the public
one (at weights the mollifier's one ball predicate accepts), average the
projections, sample one token from the average, and charge the session
ledger.  When the subsample is empty the public distribution is released
unchanged.  One seeded generator per session draws ``N`` subsample uniforms
then one token uniform per query, so a session's full trace is reproducible
from its seed.

These steps live in one place, the private answer path, which serves a
list of queries with one draw, one bisection over the selected (query,
member) pairs whose (public row, member row) object pair the session has
not searched before, one mix of every selected pair, and one charge per
query.  A session keeps each searched pair's weight while it lives: a row's
weight depends only on the row and its reference, so a weight found once is
the weight every later search would find, bit for bit.  ``respond`` runs the
path on one query and samples the token; ``answer_block`` runs it on an
evaluation block and returns the released distributions.
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
    check_nonnegative_int,
)
from .divergence import Distribution
from .models import check_vocabularies, token_ids
from .mollifier import _mix_arrays, _search_lambdas


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


def _token_at(probs: np.ndarray, u: float) -> int:
    """The token whose cumulative-probability interval holds ``u`` in [0, 1)."""
    cum = np.cumsum(probs)
    return int(np.searchsorted(cum, u * cum[-1], side="right"))


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
        check_vocabularies(ensemble, public_model.vocab, "the public model")
        self.rng_seed = check_nonnegative_int(seed, "seed")
        self.ensemble = list(ensemble)
        self.public_model = public_model
        self.accountant = Accountant(params, mode)
        self.params = params
        self.beta_star = self.accountant.beta_star
        self.ledger = AccountantLedger(params, self.accountant.per_query_eps)
        self.rng = np.random.default_rng(self.rng_seed)
        # (id(public row), id(member row)) -> (weight, public row, member row):
        # private operator data, filled as queries are answered, never saved
        self._weights: dict[tuple[int, int], tuple[float, Distribution, Distribution]] = {}

    def _answer(self, queries: Sequence[Sequence[int]]):
        """The one answer path: refuse a request past the budget before any
        draw, draw row ``j`` of ``rng.random((b, N + 1))`` for query ``j``
        (``N`` subsample uniforms, then its token uniform), search in one
        call the selected (query, member) pairs whose (public row, member
        row) object pair this session has not searched before, each such
        pair once and re-checking none of these checked distributions, keep
        their weights once the search returns, mix every selected pair with
        its query's public distribution at its pair's weight, release each
        query's mean projection (its public distribution if none was
        selected) and charge each query once.  A model or search failure
        releases, keeps and charges nothing.
        Returns the released stack, the public distributions, the draws, and
        the selected members and their weights in (query, member) order.
        """
        n, b = self.params.N, len(queries)
        if b > (left := self.ledger.remaining_queries):
            raise BudgetExhaustedError(f"query budget exhausted: {left} of {self.params.T} "
                                       f"answers left, {b} asked")
        draws = self.rng.random((b, n + 1))
        owners, members = np.nonzero(draws[:, :n] < self.params.q)
        publics = [self.public_model.distribution(x) for x in queries]
        released = (np.array([d.probs for d in publics]) if publics
                    else np.empty((0, self.public_model.vocab.size)))
        lams = np.empty(0)
        if owners.size:
            # a row's weight depends only on the row and its reference, so
            # each distinct (public row, member row) object pair is searched
            # once per session: members that never saw a window share one row
            # object.  An entry keeps both rows alive, so no id is reused.
            weights, new, rows, keys = self._weights, {}, [], []
            for i, m in zip(owners.tolist(), members.tolist()):
                row = self.ensemble[m].distribution(queries[i])
                key = (id(publics[i]), id(row))
                if key not in weights:
                    new.setdefault(key, (i, row))
                rows.append(row.probs)
                keys.append(key)
            if new:
                # row j against its own query's public row, for one query too
                found = _search_lambdas(np.array([row.probs for _, row in new.values()]),
                                        released[[i for i, _ in new.values()]],
                                        float(self.params.alpha), self.beta_star)
                for (key, (i, row)), lam in zip(new.items(), found.tolist()):
                    weights[key] = (lam, publics[i], row)
            lams = np.array([weights[key][0] for key in keys])
            projected = _mix_arrays(np.array(rows), released[owners], lams[:, np.newaxis])
            # np.nonzero lists the pairs query by query, so each query's
            # projections are one run of rows, averaged in draw order
            bounds = np.searchsorted(owners, np.arange(b + 1)).tolist()
            for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
                if end > start:
                    released[i] = projected[start:end].mean(axis=0)
        for _ in range(b):
            self.ledger.charge()
        return released, publics, draws, members, lams

    def respond(self, query: Sequence[int]) -> tuple[int, QueryRecord]:
        """Answer one query: returns the sampled token and the audit record.

        The one-query case of :meth:`answer_block`, refused (without drawing
        or charging) once the budget is spent, plus the token drawn from the
        query's token uniform.  A model failure releases and charges nothing,
        and a query id that is not an integer is refused before any draw.
        """
        context = token_ids(query)
        released, publics, draws, subset, lams = self._answer([query])
        # an empty subset releases the public distribution object itself
        dist = Distribution._already_normalized(released[0]) if subset.size else publics[0]
        token = _token_at(released[0], draws[0, self.params.N])
        record = QueryRecord(
            query_context=context,
            subset=tuple(subset.tolist()),
            mixing_weights=dict(zip(subset.tolist(), lams.tolist())),
            aggregate=dist,
            sampled_token=token,
        )
        return token, record

    def answer_block(self, queries: Sequence[Sequence[int]]) -> np.ndarray:
        """Answer ``queries`` in order as one block; returns the released
        ``(b, V)`` stack, row ``j`` answering ``queries[j]``, with the draws
        and charges of ``b`` calls of :meth:`respond`.  Tokens are not
        sampled: an evaluation scores the released distribution itself.  A
        block larger than the budget left is refused before any draw.
        """
        return self._answer(queries)[0]

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
