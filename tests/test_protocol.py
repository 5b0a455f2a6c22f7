"""Query-loop behavior: subsampling, aggregation, sampling, budget, privacy."""

import math
import re

import numpy as np
import pytest

from pmixed import (
    BudgetExhaustedError,
    Distribution,
    EpsMode,
    PredictionSession,
    PrivacyParams,
    StaticTableModel,
    Vocabulary,
    solve_lambda,
    solve_lambdas,
    symmetric_renyi,
    train_ngram,
)
from pmixed import divergence, mollifier


@pytest.fixture
def vocab():
    return Vocabulary(["<unk>", "a", "b", "c"])


def table_session(dists, public_probs, params, vocab, seed=0, **kwargs):
    members = [StaticTableModel(vocab, {}, default=d) for d in dists]
    public = StaticTableModel(vocab, {}, default=Distribution(public_probs))
    return PredictionSession(members, public, params, seed=seed, **kwargs)


class TestRespondDraws:
    """Subsampling and token sampling as ``respond`` runs them.  Selecting
    everyone at q = 1, the plain mean at lambda = 1, seeded reproducibility
    and bad q are covered in TestSession and test_accounting."""

    def test_mean_subset_size(self, vocab):
        # members equal to the public row need no projection search
        params = PrivacyParams(1.0, 1e-5, 2000, 3, 0.03, 80)
        session = table_session([Distribution([0.25] * 4)] * 80, [0.25] * 4, params,
                                vocab, seed=2)
        sizes = [len(r.subset) for r in session.run_session([[1]] * 2000)]
        stderr = math.sqrt(80 * 0.03 * 0.97 / 2000)
        assert abs(np.mean(sizes) - 2.4) <= 3 * stderr

    def test_token_frequencies_match_the_released_aggregate(self, vocab):
        # members near the public row sit inside the ball: no projection search
        rng = np.random.default_rng(6)
        dists = [Distribution(rng.dirichlet(np.full(4, 40.0))) for _ in range(3)]
        params = PrivacyParams(4000.0, 1e-5, 4000, 3, 0.5, 3)
        session = table_session(dists, [0.25] * 4, params, vocab, seed=6)
        records = session.run_session([[1]] * 4000)
        by_subset = {}
        for r in records:
            by_subset.setdefault(r.subset, []).append(r)
        assert len(by_subset) == 8  # every subset of 3 members, so 8 aggregates
        for group in by_subset.values():
            # one subset, one aggregate: its tokens are draws from that aggregate
            probs = group[0].aggregate.probs
            counts = np.bincount([r.sampled_token for r in group], minlength=4)
            stderr = np.sqrt(len(group) * probs * (1.0 - probs))
            assert np.all(np.abs(counts - len(group) * probs) <= 3 * stderr)

    def test_never_emits_a_zero_probability_token(self, vocab):
        members = [Distribution([0.0, 0.5, 0.5, 0.0]), Distribution([0.0, 0.7, 0.3, 0.0])]
        params = PrivacyParams(500.0, 1e-5, 500, 3, 0.5, 2)
        session = table_session(members, [0.0, 0.6, 0.4, 0.0], params, vocab, seed=7)
        records = session.run_session([[1]] * 500)
        assert {r.sampled_token for r in records} == {1, 2}

    def test_point_mass_aggregate_always_yields_its_token(self, vocab):
        point = Distribution([0.0, 0.0, 0.0, 1.0])
        params = PrivacyParams(1.0, 1e-5, 50, 3, 0.5, 2)
        session = table_session([point] * 2, point.probs, params, vocab, seed=5)
        records = session.run_session([[1]] * 50)
        assert any(r.subset for r in records) and any(not r.subset for r in records)
        assert all(r.sampled_token == 3 for r in records)


class TestSession:
    def test_requires_matching_ensemble_size(self, vocab):
        params = PrivacyParams(1.0, 1e-5, 8, 3, 1.0, 4)
        with pytest.raises(ValueError):
            table_session([Distribution([0.25] * 4)] * 3, [0.25] * 4, params, vocab)

    @pytest.mark.parametrize("seed", [3.5, -1, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, vocab, seed):
        params = PrivacyParams(1.0, 1e-5, 8, 3, 1.0, 2)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            table_session([Distribution([0.25] * 4)] * 2, [0.25] * 4, params, vocab, seed=seed)

    def test_integral_float_seed_is_the_int_seed(self, vocab):
        params = PrivacyParams(1.0, 1e-5, 8, 3, 0.5, 2)
        sessions = [table_session([Distribution([0.25] * 4)] * 2, [0.25] * 4, params, vocab,
                                  seed=seed) for seed in (3, 3.0)]
        assert sessions[1].rng_seed == 3 and type(sessions[1].rng_seed) is int
        assert sessions[0].rng.random(4).tolist() == sessions[1].rng.random(4).tolist()

    def test_empty_subset_releases_public_exactly(self, vocab):
        params = PrivacyParams(1.0, 1e-5, 64, 3, 1e-9, 2)
        session = table_session(
            [Distribution([0.7, 0.1, 0.1, 0.1])] * 2, [0.25] * 4, params, vocab
        )
        public = session.public_model.distribution([1])
        for _ in range(20):
            _, record = session.respond([1])
            if record.subset == ():
                assert record.aggregate is public
                assert record.mixing_weights == {}
                return
        pytest.fail("no empty subset drawn at q = 1e-9")

    def test_negligible_radius_pins_to_public(self, vocab):
        params = PrivacyParams(1e-10, 1e-5, 4, 3, 1.0, 2)
        session = table_session(
            [Distribution([0.9, 0.04, 0.03, 0.03]),
             Distribution([0.05, 0.85, 0.05, 0.05])],
            [0.25] * 4, params, vocab,
        )
        assert session.beta_star < 1e-11
        _, record = session.respond([1])
        assert record.subset == (0, 1)
        assert np.allclose(record.aggregate.probs, 0.25, atol=1e-4)

    def test_slack_constraints_release_the_plain_mean(self, vocab):
        rng = np.random.default_rng(9)
        dists = [Distribution(rng.dirichlet(np.full(4, 5.0))) for _ in range(3)]
        params = PrivacyParams(100.0, 1e-5, 1, 2, 1.0, 3)
        session = table_session(dists, [0.25] * 4, params, vocab)
        _, record = session.respond([2])
        assert record.mixing_weights == {0: 1.0, 1: 1.0, 2: 1.0}
        expected = sum(d.probs for d in dists) / 3.0
        assert np.allclose(record.aggregate.probs, expected, atol=1e-15)

    def test_mixing_weight_independent_of_other_members(self, vocab):
        """Each member's weight depends only on its own distribution."""
        rng = np.random.default_rng(10)
        dists = [Distribution(rng.dirichlet(np.ones(4))) for _ in range(3)]
        public = Distribution([0.25] * 4)
        params = PrivacyParams(0.5, 1e-5, 16, 3, 1.0, 3)
        session = table_session(dists, [0.25] * 4, params, vocab)
        _, record = session.respond([1])
        for i, dist in enumerate(dists):
            alone = solve_lambda(dist, public, 3, session.beta_star)
            assert record.mixing_weights[i] == alone.mixing_weight

    def test_trace_is_reproducible(self, vocab):
        rng = np.random.default_rng(11)
        dists = [Distribution(rng.dirichlet(np.ones(4))) for _ in range(4)]
        params = PrivacyParams(2.0, 1e-5, 32, 3, 0.5, 4)
        queries = [[1], [2, 3], [], [3, 1, 2]] * 8
        first = table_session(dists, [0.25] * 4, params, vocab, seed=99).run_session(queries)
        second = table_session(dists, [0.25] * 4, params, vocab, seed=99).run_session(queries)
        assert len(first) == len(second) == 32
        for a, b in zip(first, second):
            assert a.subset == b.subset
            assert a.mixing_weights == b.mixing_weights
            assert a.sampled_token == b.sampled_token
            assert np.array_equal(a.aggregate.probs, b.aggregate.probs)

    def test_budget_boundary(self, vocab):
        params = PrivacyParams(1.0, 1e-5, 5, 3, 1.0, 2)
        session = table_session(
            [Distribution([0.25] * 4)] * 2, [0.25] * 4, params, vocab
        )
        with pytest.raises(BudgetExhaustedError) as excinfo:
            session.run_session([[1]] * 6)
        assert len(excinfo.value.records) == 5
        assert session.ledger.queries_answered == 5
        assert session.ledger.spent == pytest.approx(5 * session.ledger.per_query_eps)

    def test_empty_query_list(self, vocab):
        params = PrivacyParams(1.0, 1e-5, 5, 3, 1.0, 2)
        session = table_session(
            [Distribution([0.25] * 4)] * 2, [0.25] * 4, params, vocab
        )
        assert session.run_session([]) == []

    def test_failed_inference_does_not_charge(self, vocab):
        class ExplodingModel:
            def __init__(self, vocab):
                self.vocab = vocab

            def distribution(self, context):
                raise RuntimeError("inference backend unavailable")

        params = PrivacyParams(1.0, 1e-5, 5, 3, 1.0, 1)
        public = StaticTableModel(vocab, {}, default=Distribution([0.25] * 4))
        session = PredictionSession([ExplodingModel(vocab)], public, params, seed=0)
        with pytest.raises(RuntimeError, match="inference backend"):
            session.respond([1])
        assert session.ledger.queries_answered == 0

    def test_refuses_a_member_of_another_vocabulary(self, vocab):
        """Refused at construction, naming the member, not by a broadcast
        error inside the first answer's search."""
        wider = Vocabulary([*vocab.tokens, "d"])
        members = [train_ngram([[1, 2]], 2, 0.1, vocab), train_ngram([[1, 2]], 2, 0.1, wider)]
        params = PrivacyParams(1.0, 1e-5, 5, 2, 1.0, 2)
        with pytest.raises(ValueError, match=re.escape(
                "ensemble member 1 has Vocabulary(size=5), not the public model's "
                "Vocabulary(size=4)")):
            PredictionSession(members, train_ngram([[2, 1]], 2, 0.1, vocab), params)
        with pytest.raises(ValueError, match="ensemble member 0 has Vocabulary"):
            PredictionSession(members[::-1], train_ngram([], 2, 0.1, vocab), params)

    def test_serving_makes_no_probability_re_check(self, vocab, monkeypatch):
        """The answer path projects rows of checked distributions, so neither
        ``respond`` nor ``answer_block`` checks a probability vector again;
        the public ``solve_lambdas`` still checks its input."""
        calls = []
        check = divergence.check_probabilities

        def counted(rows, what):
            calls.append(what)
            return check(rows, what)

        for module in (divergence, mollifier):
            monkeypatch.setattr(module, "check_probabilities", counted)
        data = [[1, 2, 3, 1, 2], [3, 3, 1, 2], [2, 1, 1, 3], [1, 3, 2, 2]]
        members = [train_ngram([seq], 2, 0.1, vocab) for seq in data]
        public = train_ngram([[3, 2, 1, 3]], 2, 0.1, vocab)
        params = PrivacyParams(2.0, 1e-5, 64, 3, 1.0, len(members))  # q = 1: all answer
        session = PredictionSession(members, public, params, mode=EpsMode.PAPER_FAITHFUL)
        weights = []
        for query in ([1], [2], [3, 1], [0]):
            weights.extend(session.respond(query)[1].mixing_weights.values())
        session.answer_block([[1], [2, 3], [3], [1, 1], []])
        assert calls == []
        assert min(weights) < 1.0  # the search ran
        solve_lambdas(np.array([[0.7, 0.1, 0.1, 0.1]]), Distribution([0.25] * 4), 3, 0.01)
        assert calls == ["probabilities", "rows"]

    def test_leave_one_out_divergence_within_theorem_bound(self, vocab):
        """Aggregate with and without any single member stays within the
        per-query budget, using the session's own projection path."""
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            eps_ratio = float(10 ** rng.uniform(-3, -1))
            params = PrivacyParams(eps_ratio * 16, 1e-5, 16, 3, 1.0, n)
            dists = [Distribution(rng.dirichlet(np.ones(4))) for _ in range(n)]
            public = Distribution(rng.dirichlet(np.full(4, 3.0)))
            members = [StaticTableModel(vocab, {}, default=d) for d in dists]
            session = PredictionSession(
                members, StaticTableModel(vocab, {}, default=public), params,
                mode=EpsMode.PAPER_FAITHFUL, seed=trial,
            )
            _, record = session.respond([1])
            projections = [
                solve_lambda(d, public, 3, session.beta_star).projected for d in dists
            ]
            full = sum(p.probs for p in projections) / n
            for i in range(n):
                rest = [p.probs for j, p in enumerate(projections) if j != i]
                loo = public.probs if not rest else sum(rest) / len(rest)
                div = symmetric_renyi(Distribution(full), Distribution(loo), 3)
                assert div <= eps_ratio + 1e-6
