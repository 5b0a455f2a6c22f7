"""Both answer paths against the per-query oracles, and the block's own rules."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_query_respond, sequential_evaluation
import pmixed.protocol as protocol
from pmixed import (BudgetExhaustedError, Distribution, EpsMode, PartialEvaluationError,
                    PredictionSession, PrivacyParams, StaticTableModel, Vocabulary,
                    perplexity_of_protocol, symmetric_renyi, train_ngram)
from pmixed.experiment import QUERY_BLOCK, _target_probabilities


def random_model(draw, rng, vocab, kind):
    """An n-gram model trained on random text or, for ``"empty"``, on none, so
    that every window gets the shared smoothed-uniform row; or a table with
    rows for a few short contexts, which may put zeros in its rows."""
    size = vocab.size
    if kind in ("ngram", "empty"):
        order = draw(st.integers(1, 3))
        text = [rng.integers(0, size, int(rng.integers(0, 30))).tolist()
                for _ in range(6 if kind == "ngram" else 0)]
        return train_ngram(text, order, draw(st.sampled_from([0.01, 0.1, 1.0])), vocab)

    def row():
        probs = rng.dirichlet(np.full(size, 0.5))
        if rng.random() < 0.3:
            probs[rng.integers(0, size)] = 0.0
            probs /= probs.sum()
        return Distribution(probs)

    contexts = {(), *((int(t),) for t in rng.integers(0, size, 3))}
    return StaticTableModel(vocab, {c: row() for c in contexts}, default=row())


@st.composite
def evaluations(draw):
    """Members, a public model, test sequences, privacy parameters and a seed.

    Repeated rows are common: a member may be the public model, an earlier
    member object again, or an n-gram model that saw no window, and a
    sequence may repeat a short pattern, so a block meets its windows again.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = Vocabulary(["<unk>"] + [f"t{i}" for i in range(draw(st.integers(1, 7)))])
    public = random_model(draw, rng, vocab, draw(st.sampled_from(["ngram", "table"])))
    # "public": feasible at weight 1; "again": an earlier member (or the public model)
    kinds = st.sampled_from(["ngram", "table", "public", "again", "empty"])
    members = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "again":
            members.append(draw(st.sampled_from(members or [public])))
        else:
            members.append(public if kind == "public" else random_model(draw, rng, vocab, kind))
    lengths = draw(st.lists(st.integers(0, 2 * QUERY_BLOCK), min_size=1, max_size=4))
    sequences = []
    for n in lengths:
        if draw(st.booleans()):
            sequences.append(rng.integers(0, vocab.size, n).tolist())
        else:
            pattern = rng.integers(0, vocab.size, int(rng.integers(1, 4))).tolist()
            sequences.append((pattern * n)[:n])
    positions = sum(lengths)
    # budgets ending inside a block, on a block boundary, or past the end
    T = draw(st.sampled_from([max(positions, 1), positions + 1, max(positions - 1, 1), QUERY_BLOCK,
                              2 * QUERY_BLOCK, draw(st.integers(1, 3 * QUERY_BLOCK))]))
    params = PrivacyParams(10.0 ** draw(st.floats(-3.0, 2.0)), 1e-5, T, 3,
                           draw(st.sampled_from([0.05, 0.4, 1.0])), len(members))
    return members, public, sequences, params, draw(st.integers(0, 2**31))


def score(evaluate, instance):
    """Run ``evaluate(session, sequences)`` on a fresh session; returns its
    outcome, the ledger count and the generator state afterwards."""
    members, public, sequences, params, seed = instance
    session = PredictionSession(members, public, params, mode=EpsMode.PAPER_FAITHFUL, seed=seed)
    try:
        outcome = evaluate(session, sequences)
    except PartialEvaluationError as err:
        outcome = ("partial", err.positions_scored, err.nll_total)
    except ValueError as err:
        outcome = ("empty", str(err))
    return outcome, session.ledger.queries_answered, session.rng.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(evaluations())
def test_block_path_matches_the_sequential_oracle(instance):
    probs = []
    expected = score(lambda s, seqs: sequential_evaluation.perplexity_of_protocol(s, seqs, probs),
                     instance)
    assert score(perplexity_of_protocol, instance) == expected
    blocked = score(lambda s, seqs: list(_target_probabilities(s, seqs)), instance)
    assert blocked[0] == probs
    assert blocked[1:] == expected[1:]


class RecordingModel:
    """A public model that keeps the distribution object it returned last."""

    def __init__(self, model):
        self.model, self.vocab, self.last = model, model.vocab, None

    def distribution(self, context):
        self.last = self.model.distribution(context)
        return self.last


@settings(max_examples=50, deadline=None)
@given(evaluations())
def test_respond_matches_the_per_query_oracle(instance):
    """Token, subset, weights and aggregate bit for bit, the public object
    itself on an empty subset, and the ledger and generator after every query,
    refusals included."""
    members, public, sequences, params, seed = instance
    queries = [seq[:t] for seq in sequences for t in range(len(seq) + 1)]
    sessions = [PredictionSession(members, RecordingModel(public), params,
                                  mode=EpsMode.PAPER_FAITHFUL, seed=seed) for _ in range(2)]
    answers = (PredictionSession.respond, per_query_respond.respond)
    for query in queries:
        outcomes = []
        for answer, session in zip(answers, sessions):
            try:
                token, record = answer(session, query)
            except BudgetExhaustedError as err:
                assert "budget exhausted" in str(err)
                outcome = "refused"
            else:
                empty = record.subset == ()
                assert (record.aggregate is session.public_model.last) == empty
                outcome = (token, record.query_context, record.subset, record.mixing_weights,
                           record.aggregate.probs.tobytes())
            ledger = session.ledger
            outcomes.append((outcome, ledger.queries_answered, ledger.spent,
                             session.rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]


def selected(session, b):
    """The (query, member) pairs that the session's next request of ``b``
    queries selects: row ``j`` of ``rng.random((b, N + 1))`` holds query
    ``j``'s ``N`` subsample uniforms, read here from a copy of the generator."""
    rng = np.random.Generator(type(session.rng.bit_generator)())
    rng.bit_generator.state = session.rng.bit_generator.state
    n = session.params.N
    owners, members = np.nonzero(rng.random((b, n + 1))[:, :n] < session.params.q)
    return list(zip(owners.tolist(), members.tolist()))


def interleave(session, queries, sizes):
    """Answer ``queries`` in order through both entry points: a size of 0 sends
    the next query to ``respond``, a size ``k > 0`` the next ``k`` to one
    ``answer_block``, and the queries left after ``sizes`` go to ``respond``.
    Yields each request's queries, its selected (query, member) pairs, its
    released rows and, for ``respond``, its token and record (else None)."""
    done = 0
    for size in [*sizes, *[0] * len(queries)]:
        if done == len(queries):
            return
        chunk = queries[done:done + max(size, 1)]
        pairs = selected(session, len(chunk))
        if size:
            yield chunk, pairs, session.answer_block(chunk), None
        else:
            token, record = session.respond(chunk[0])
            yield chunk, pairs, record.aggregate.probs[np.newaxis], (token, record)
        done += len(chunk)


requests = st.lists(st.integers(0, 2 * QUERY_BLOCK), max_size=6)


@settings(max_examples=50, deadline=None)
@given(evaluations(), requests)
def test_each_distinct_row_pair_is_projected_once(instance, sizes):
    """Across a session's interleaved ``respond`` and ``answer_block``
    requests, no (public row, member row) object pair reaches the projection
    search twice: each request searches, in one call whose ``(k, V)`` stack
    of references holds in row ``j`` the public row of pair ``j``'s query,
    exactly the pairs it selected that no earlier request searched, in the
    order they first appear, and makes no call when there are none; and the
    session releases what the per-query oracle releases."""
    members, public, sequences, params, seed = instance
    queries = [seq[:t] for seq in sequences for t in range(len(seq) + 1)][:params.T]

    def session():
        return PredictionSession(members, public, params, mode=EpsMode.PAPER_FAITHFUL, seed=seed)

    reference = session()
    oracle = [per_query_respond.respond(reference, query)[1] for query in queries]
    calls, searched, solve = [], [], protocol._search_lambdas
    with mock.patch.object(protocol, "_search_lambdas",
                           lambda rows, refs, *args: calls.append((rows, refs))
                           or solve(rows, refs, *args)):
        done = 0
        for chunk, pairs, released, answer in interleave(session(), queries, sizes):
            new = {}
            for i, m in pairs:
                key = (id(public.distribution(chunk[i])), id(members[m].distribution(chunk[i])))
                if key not in searched:
                    new.setdefault(key, (chunk[i], m))
            assert len(calls) == (1 if new else 0)
            for rows, refs in calls:
                assert isinstance(refs, np.ndarray)
                assert refs.shape == rows.shape == (len(new), public.vocab.size)
                assert [ref.tobytes() for ref in refs] \
                    == [public.distribution(query).probs.tobytes() for query, _ in new.values()]
                assert [row.tobytes() for row in rows] \
                    == [members[m].distribution(query).probs.tobytes() for query, m in new.values()]
            searched.extend(new)
            del calls[:]
            expected = oracle[done:done + len(chunk)]
            assert [row.tobytes() for row in released] \
                == [record.aggregate.probs.tobytes() for record in expected]
            if answer is not None:
                record = answer[1]
                assert tuple(record.mixing_weights) == record.subset
                assert record.mixing_weights == expected[0].mixing_weights
            done += len(chunk)
    assert len(searched) == len(set(searched))


class FreshRows:
    """A duck-typed model that returns a new ``Distribution`` object, equal to
    its model's row, on every call: a weight kept under the id of a row that
    had died would show when a later row took that id."""

    def __init__(self, model):
        self.model, self.vocab = model, model.vocab

    def distribution(self, context):
        return Distribution._already_normalized(self.model.distribution(context).probs.copy())


@settings(max_examples=50, deadline=None)
@given(evaluations(), requests, st.data())
def test_an_interleaved_session_matches_the_per_query_oracle(instance, sizes, data):
    """Releases, tokens, subsets and weights bit for bit, and the ledger and
    generator after every request, whatever mix of ``respond`` and
    ``answer_block`` requests and of fresh and kept row objects serves it."""
    members, public, sequences, params, seed = instance
    fresh = data.draw(st.lists(st.booleans(), min_size=len(members) + 1,
                               max_size=len(members) + 1))
    public = FreshRows(public) if fresh[0] else public
    members = [FreshRows(m) if f else m for m, f in zip(members, fresh[1:])]
    queries = [seq[:t] for seq in sequences for t in range(len(seq) + 1)][:params.T]
    served, reference = (PredictionSession(members, public, params,
                                           mode=EpsMode.PAPER_FAITHFUL, seed=seed)
                         for _ in range(2))
    for chunk, _, released, answer in interleave(served, queries, sizes):
        expected = [per_query_respond.respond(reference, query) for query in chunk]
        assert [row.tobytes() for row in released] \
            == [record.aggregate.probs.tobytes() for _, record in expected]
        if answer is not None:
            (token, record), (want_token, want) = answer, expected[0]
            assert (token, record.query_context, record.subset, record.mixing_weights) \
                == (want_token, want.query_context, want.subset, want.mixing_weights)
        assert (served.ledger.queries_answered, served.ledger.spent,
                served.rng.bit_generator.state) \
            == (reference.ledger.queries_answered, reference.ledger.spent,
                reference.rng.bit_generator.state)


@pytest.fixture
def vocab():
    return Vocabulary(["<unk>", "a", "b", "c"])


def session_over(vocab, members, T, q=1.0, seed=0):
    public = StaticTableModel(vocab, {})
    params = PrivacyParams(2.0, 1e-5, T, 3, q, len(members))
    return PredictionSession(members, public, params, mode=EpsMode.PAPER_FAITHFUL, seed=seed)


def test_block_past_the_budget_is_refused_before_any_draw(vocab):
    session = session_over(vocab, [StaticTableModel(vocab, {})], T=3)
    state = session.rng.bit_generator.state
    with pytest.raises(BudgetExhaustedError):
        session.answer_block([[1]] * 4)
    assert session.ledger.queries_answered == 0
    assert session.rng.bit_generator.state == state
    assert session.answer_block([[1]] * 3).shape == (3, vocab.size)
    assert session.ledger.queries_answered == 3


def test_empty_block_draws_and_charges_nothing(vocab):
    session = session_over(vocab, [StaticTableModel(vocab, {})], T=1)
    session.respond([1])
    state = session.rng.bit_generator.state
    assert session.answer_block([]).shape == (0, vocab.size)
    assert session.ledger.queries_answered == 1
    assert session.rng.bit_generator.state == state


def test_failed_rows_release_and_charge_nothing_in_their_block(vocab):
    class FailsAfterTokenB(StaticTableModel):
        def distribution(self, context):
            if list(context[-1:]) == [2]:
                raise RuntimeError("inference backend unavailable")
            return super().distribution(context)

    session = session_over(vocab, [FailsAfterTokenB(vocab, {})], T=8)
    session.answer_block([[1], [3]])
    with pytest.raises(RuntimeError, match="inference backend"):
        session.answer_block([[1], [2], [3]])
    assert session.ledger.queries_answered == 2


def test_every_block_row_is_inside_the_ball(vocab):
    rng = np.random.default_rng(5)
    members = [StaticTableModel(vocab, {(t,): Distribution(rng.dirichlet(np.ones(4)))
                                        for t in range(4)}) for _ in range(3)]
    session = session_over(vocab, members, T=64, q=0.5)
    queries = [[int(t)] for t in rng.integers(0, 4, 40)]
    released = session.answer_block(queries)
    assert np.allclose(released.sum(axis=1), 1.0)
    public = session.public_model.distribution([])
    alpha, beta = session.params.alpha, session.beta_star
    for row in released:
        # a mean of in-ball projections stays in the ball: the divergence is
        # jointly quasi-convex
        assert symmetric_renyi(Distribution(row), public, alpha) <= beta * alpha + 1e-12


def test_a_failed_search_keeps_no_weight_and_charges_nothing(vocab):
    rng = np.random.default_rng(3)
    members = [StaticTableModel(vocab, {(t,): Distribution(rng.dirichlet(np.ones(4)))
                                        for t in range(4)}) for _ in range(3)]
    served, reference = (session_over(vocab, members, T=8) for _ in range(2))
    for query in ([1], [2], [1]):
        served.respond(query)
        per_query_respond.respond(reference, query)
    kept = list(served._weights.items())
    with mock.patch.object(protocol, "_search_lambdas", side_effect=RuntimeError("search failed")):
        with pytest.raises(RuntimeError, match="search failed"):
            served.respond([3])
        with pytest.raises(RuntimeError, match="search failed"):
            served.answer_block([[1], [3]])  # [1]'s pairs are kept, [3]'s are not
    assert list(served._weights.items()) == kept
    assert served.ledger.queries_answered == 3
    # the failed requests drew their uniforms, so the oracle skips them too
    reference.rng.bit_generator.state = served.rng.bit_generator.state
    for query in ([3], [1], [3]):
        token, record = served.respond(query)
        want_token, want = per_query_respond.respond(reference, query)
        assert (token, record.subset, record.mixing_weights, record.aggregate.probs.tobytes()) \
            == (want_token, want.subset, want.mixing_weights, want.aggregate.probs.tobytes())
    assert served.ledger.spent == reference.ledger.spent
