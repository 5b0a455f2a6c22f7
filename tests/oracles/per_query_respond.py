"""Reference serving: the per-query answer that ``respond`` ran before it
became the one-query case of the block path.

``respond(session, query)`` is that method's body on a session's fields,
with the subsample and the token draw written out as they were: ``N``
subsample uniforms, the subset's stacked rows projected against the one
public distribution, their mean, one token uniform, then the charge.  The
property tests require ``PredictionSession.respond`` to match it bit for
bit, so keep its arithmetic and its order of draws and charges exactly as
they are.
"""

import numpy as np

from pmixed import BudgetExhaustedError, Distribution, QueryRecord, solve_lambdas


def respond(session, query):
    params = session.params
    if session.ledger.remaining_queries <= 0:
        raise BudgetExhaustedError(f"query budget exhausted after {params.T} answers")
    subset = np.flatnonzero(session.rng.random(params.N) < params.q)
    public_dist = session.public_model.distribution(query)
    if subset.size == 0:
        released, weights = public_dist, {}
    else:
        members = np.stack([session.ensemble[i].distribution(query).probs
                            for i in subset.tolist()])
        lams = solve_lambdas(members, public_dist, params.alpha, session.beta_star)
        lam = lams[:, np.newaxis]
        projected = lam * members + (1.0 - lam) * public_dist.probs
        released = Distribution._already_normalized(projected.mean(axis=0))
        weights = dict(zip(subset.tolist(), lams.tolist()))
    cum = np.cumsum(released.probs)
    token = int(np.searchsorted(cum, session.rng.random() * cum[-1], side="right"))
    session.ledger.charge()
    record = QueryRecord(
        query_context=tuple(int(t) for t in query),
        subset=tuple(int(i) for i in subset),
        mixing_weights=weights,
        aggregate=released,
        sampled_token=token,
    )
    return token, record
