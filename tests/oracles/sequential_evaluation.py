"""Reference evaluation: the per-query loop that scored test positions before
they were answered in blocks.

``perplexity_of_protocol`` here is the earlier evaluation loop, one
reference ``respond`` (``per_query_respond``) per position, unchanged except
that it also appends every scored probability to ``probs``.  The property
tests require the block path to match it bit for bit, so keep its arithmetic
and its order of draws and charges exactly as they are.
"""

import math

from pmixed.accounting import BudgetExhaustedError
from pmixed.experiment import PartialEvaluationError

from oracles.per_query_respond import respond


def perplexity_of_protocol(session, test_sequences, probs: list) -> float:
    nll_total = 0.0
    positions = 0
    for seq in test_sequences:
        for t in range(len(seq)):
            try:
                _, record = respond(session, seq[:t])
            except BudgetExhaustedError:
                raise PartialEvaluationError(positions, nll_total) from None
            prob = float(record.aggregate.probs[seq[t]])
            probs.append(prob)
            nll_total += math.inf if prob <= 0.0 else -math.log(prob)
            positions += 1
    if positions == 0:
        raise ValueError("test corpus contains no positions to score")
    return math.exp(nll_total / positions)
