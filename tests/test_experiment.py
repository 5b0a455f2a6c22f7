"""Perplexity measurement, the comparison driver, sweeps, and reports."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pmixed import (
    ConfigError,
    Distribution,
    EpsMode,
    ExperimentConfig,
    PartialEvaluationError,
    PredictionSession,
    PrivacyParams,
    StaticTableModel,
    Vocabulary,
    perplexity_of_model,
    perplexity_of_protocol,
    run_comparison,
    run_sweep,
    serialize_trace,
    train_ngram,
)
from pmixed.experiment import _round9


@pytest.fixture
def vocab4():
    return Vocabulary(["<unk>", "a", "b", "c"])


def replay_tables(vocab, sequences):
    """Point-mass rows on the true next token of every position.

    Sequences must be prefix-consistent (no two continue a shared prefix
    with different tokens), so the rows form a deterministic language.
    """
    rows = {}
    for seq in sequences:
        for t in range(len(seq)):
            context = tuple(seq[:t])
            probs = np.zeros(vocab.size)
            probs[seq[t]] = 1.0
            row = Distribution(probs)
            assert rows.setdefault(context, row) == row, "prefix conflict"
    return rows


class TestPerplexityOfModel:
    def test_uniform_model(self, vocab4):
        model = StaticTableModel(vocab4, {})
        assert perplexity_of_model(model, [[1, 2], [3]]) == pytest.approx(4.0, rel=1e-12)

    def test_perfect_replay_scores_one(self, vocab4):
        seqs = [[1, 2, 3], [1, 2]]
        model = StaticTableModel(vocab4, replay_tables(vocab4, seqs))
        assert perplexity_of_model(model, seqs) == pytest.approx(1.0, abs=1e-12)

    def test_bigram_prefers_its_own_text(self, vocab4):
        rng = np.random.default_rng(17)
        own = [[1 + (i + j) % 3 for j in range(20)] for i in range(10)]
        model = train_ngram(own, 2, 0.1, vocab4)
        shuffled = [list(rng.permutation(seq)) for seq in own]
        assert perplexity_of_model(model, own) < perplexity_of_model(model, shuffled)

    def test_empty_test_set_raises(self, vocab4):
        with pytest.raises(ValueError):
            perplexity_of_model(StaticTableModel(vocab4, {}), [])

    def test_public_model_worse_on_shifted_domain(self, tiny_corpus):
        """A model trained on the other domain scores the test text worse
        than a model trained on one private partition."""
        from pmixed import Vocabulary, build_public_model, load_corpus, partition_corpus

        root = tiny_corpus["root"]
        vocab = Vocabulary.from_file(root / "vocab.txt")
        encode = lambda docs: [vocab.encode(d) for d in docs]
        private = encode(load_corpus(root / "private.txt"))
        public = build_public_model(encode(load_corpus(root / "public.txt")), 2, 0.1, vocab)
        member = train_ngram(partition_corpus(private, 4, seed=0)[0], 2, 0.1, vocab)
        test = encode(load_corpus(root / "test.txt"))
        assert perplexity_of_model(public, test) > perplexity_of_model(member, test)


class TestPerplexityOfProtocol:
    def session_over(self, vocab, tables, T=64, eps_g=2.0, q=1.0, n=2, seed=0):
        members = [StaticTableModel(vocab, tables) for _ in range(n)]
        public = StaticTableModel(vocab, tables)
        params = PrivacyParams(eps_g, 1e-5, T, 3, q, n)
        return PredictionSession(members, public, params, seed=seed)

    def test_point_mass_consensus_scores_one(self, vocab4):
        # every model, public included, replays the true token exactly
        seqs = [[1, 2, 3], [1, 2]]
        session = self.session_over(vocab4, replay_tables(vocab4, seqs))
        assert perplexity_of_protocol(session, seqs) == pytest.approx(1.0, abs=1e-12)
        assert session.ledger.queries_answered == 5

    def test_uniform_release_scores_the_vocab_size(self):
        vocab50 = Vocabulary(["<unk>"] + [f"t{i}" for i in range(49)])
        session = self.session_over(vocab50, {}, T=16)
        got = perplexity_of_protocol(session, [[1, 2, 3], [4, 5]])
        assert got == pytest.approx(50.0, rel=1e-12)

    def test_negligible_radius_matches_public_perplexity(self, vocab4):
        rng = np.random.default_rng(23)
        seqs = [[1, 2, 3, 2], [3, 1, 1]]
        rows = {}
        for seq in seqs:
            for t in range(len(seq)):
                rows.setdefault(tuple(seq[:t]), Distribution(rng.dirichlet(np.ones(4))))
        private = {ctx: Distribution(rng.dirichlet(np.ones(4))) for ctx in rows}
        members = [StaticTableModel(vocab4, private) for _ in range(2)]
        public = StaticTableModel(vocab4, rows)
        params = PrivacyParams(1e-9, 1e-5, 16, 3, 1.0, 2)
        session = PredictionSession(members, public, params, seed=3)
        got = perplexity_of_protocol(session, seqs)
        assert got == pytest.approx(perplexity_of_model(public, seqs), rel=1e-4)

    def test_budget_exhaustion_raises_partial_error(self, vocab4):
        seqs = [[1, 2, 3], [1, 2]]
        session = self.session_over(vocab4, replay_tables(vocab4, seqs), T=3)
        with pytest.raises(PartialEvaluationError) as excinfo:
            perplexity_of_protocol(session, seqs)
        assert excinfo.value.positions_scored == 3
        assert excinfo.value.nll_total == pytest.approx(0.0, abs=1e-12)


class TestConfig:
    def test_from_file_round_trip(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        assert config.mode is EpsMode.CONSERVATIVE
        assert config.T == 64
        assert config.params().N == 4

    def test_unknown_field_rejected(self, tiny_corpus):
        bad = dict(tiny_corpus["config"], typo_field=1)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_missing_corpus_path_rejected(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        with pytest.raises(ConfigError):
            config.replace(test_corpus_path="/nonexistent/test.txt").validate()

    def test_bad_privacy_values_rejected(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        with pytest.raises(ConfigError):
            config.replace(q=2.0).validate()
        with pytest.raises(ConfigError, match="mode"):
            config.replace(mode="conservative").validate()

    def test_runs_and_max_seq_len_must_be_positive_integers(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        for bad in ({"runs": 1.5}, {"runs": 0}, {"runs": float("inf")},
                    {"max_seq_len": -3}, {"max_seq_len": 0}, {"max_seq_len": 2.5}):
            with pytest.raises(ConfigError, match="must be a positive integer"):
                config.replace(**bad).validate()
        config.replace(max_seq_len=None).validate()
        config.replace(runs=1, max_seq_len=3).validate()

    @pytest.mark.parametrize("field, value", [("runs", True), ("max_seq_len", True),
                                              ("T", True), ("order", True), ("seed", False),
                                              ("n_models", True)])
    def test_json_booleans_are_not_counts(self, tiny_corpus, field, value):
        """JSON's true and false are refused, not read as 1 and 0."""
        data = dict(tiny_corpus["config"], **{field: value})
        with pytest.raises(ConfigError, match=f"got {value}"):
            ExperimentConfig.from_dict(data).validate()

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("field", ["q", "eps_g", "smoothing_k", "delta"])
    def test_json_booleans_and_text_are_not_numbers(self, tiny_corpus, field, value):
        """JSON's true is refused, not read as 1, in every float field, and
        text is a configuration error, not a TypeError."""
        data = dict(tiny_corpus["config"], **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must .*, got {value!r}"):
            ExperimentConfig.from_dict(data).validate()

    @pytest.mark.parametrize("value, shown", [(1, "1"), (True, "True"), (["a.txt"], "['a.txt']")])
    @pytest.mark.parametrize("field, label", [
        ("private_corpus_path", "private corpus"), ("public_corpus_path", "public corpus"),
        ("test_corpus_path", "test corpus"), ("vocab_path", "vocab"), ("output_path", "output")])
    def test_a_path_is_a_string(self, tiny_corpus, field, label, value, shown):
        """``os.path.exists(1)`` tests file descriptor 1, so a path that is not a
        ``str`` or ``os.PathLike`` is refused before it is looked up."""
        data = dict(tiny_corpus["config"], **{field: value})
        with pytest.raises(ConfigError, match=re.escape(f"{label} path must be a string, "
                                                        f"got {shown}")):
            ExperimentConfig.from_dict(data).validate()

    def test_a_path_may_be_path_like(self, tiny_corpus):
        data = {key: Path(value) if key.endswith("_path") else value
                for key, value in tiny_corpus["config"].items()}
        ExperimentConfig.from_dict(data).validate()


class TestRunComparison:
    def test_three_arms_and_accounting(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        report = run_comparison(config)
        assert set(report.arms) == {"public", "ensemble", "pmixed"}
        assert not any(entry["failed"] for entry in report.arms.values())
        assert report.accountant["composed_eps"] <= config.eps_g + 1e-9
        assert report.seed_schedule == [7, 8]
        assert all(n <= config.T for n in report.arms["pmixed"]["queries"])

    def test_report_is_deterministic(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        assert run_comparison(config).to_jsonl() == run_comparison(config).to_jsonl()

    def test_summary_matches_per_run_values(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        entry = run_comparison(config).arms["pmixed"]
        assert entry["mean"] == pytest.approx(float(np.mean(entry["per_run"])))
        assert entry["stddev"] == pytest.approx(float(np.std(entry["per_run"])))

    def test_deterministic_arms_are_scored_once(self, tiny_corpus, monkeypatch):
        import pmixed.experiment as experiment

        calls = []
        score = experiment.perplexity_of_model
        monkeypatch.setattr(experiment, "perplexity_of_model",
                            lambda model, seqs: calls.append(model) or score(model, seqs))
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(runs=3)
        report = run_comparison(config)
        assert len(calls) == 2  # public and ensemble, once each
        for arm in ("public", "ensemble"):
            per_run = report.arms[arm]["per_run"]
            assert len(per_run) == 3 and len(set(per_run)) == 1
            assert report.arms[arm]["stddev"] == 0.0
            assert report.arms[arm]["mean"] == per_run[0]

    def test_failed_arm_keeps_the_others(self, tiny_corpus):
        # 16 test positions but only 8 budgeted queries
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(T=8)
        report = run_comparison(config)
        assert report.arms["pmixed"]["failed"]
        assert "PartialEvaluationError" in report.arms["pmixed"]["error"]
        assert not report.arms["public"]["failed"]
        assert not report.arms["ensemble"]["failed"]

    def test_writes_output_file(self, tiny_corpus, tmp_path):
        out = tmp_path / "report.jsonl"
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(
            output_path=str(out)
        )
        report = run_comparison(config)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["record"] == "config"
        kinds = {line["record"] for line in lines}
        assert kinds == {"config", "accountant", "arm_run", "arm_summary"}
        assert out.read_text() == report.to_jsonl()


class TestRunSweep:
    def test_budget_axis_rows(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(runs=1)
        report = run_sweep(config, "eps_G", [0.5, 2.0])
        pmixed = [row for row in report.sweep_rows if row["arm"] == "pmixed"]
        assert [row["value"] for row in pmixed] == [0.5, 2.0]
        assert pmixed[0]["beta_star"] < pmixed[1]["beta_star"]
        table = report.sweep_table()
        assert table.splitlines()[0].startswith("axis\tvalue\tarm")
        assert len(table.splitlines()) == 1 + len(report.sweep_rows)

    def test_integer_axis_is_cast(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(runs=1)
        report = run_sweep(config, "T", [32.0])
        assert all(row["value"] == 32 for row in report.sweep_rows)

    def test_fractional_value_on_integer_axis_is_refused_before_any_point(
            self, tiny_corpus, monkeypatch):
        import pmixed.experiment as experiment

        points = []
        monkeypatch.setattr(experiment, "run_comparison", points.append)
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(runs=1)
        for axis in ("T", "N", "alpha"):
            with pytest.raises(ConfigError, match="integer"):
                run_sweep(config, axis, [16, 2.5])
        assert points == []

    def test_shorter_interaction_budget_allows_a_larger_radius(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(runs=1)
        report = run_sweep(config, "T", [16, 64])
        stars = {row["value"]: row["beta_star"]
                 for row in report.sweep_rows if row["arm"] == "pmixed"}
        assert stars[16] > stars[64]

    def test_unknown_axis_rejected(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"])
        with pytest.raises(ConfigError):
            run_sweep(config, "gamma", [1])

    def test_failing_value_recorded_and_sweep_continues(self, tiny_corpus):
        config = ExperimentConfig.from_file(tiny_corpus["config_path"]).replace(runs=1)
        # 1000 models cannot be built from 48 private documents
        report = run_sweep(config, "N", [1000, 4])
        failed = [row for row in report.sweep_rows if row["failed"]]
        ok = [row for row in report.sweep_rows if not row["failed"]]
        assert len(failed) == 1 and failed[0]["value"] == 1000
        assert {row["arm"] for row in ok} == {"public", "ensemble", "pmixed"}


class TestReportSerialization:
    def test_floats_rounded_to_nine_significant_digits(self):
        assert _round9(0.123456789123456) == 0.123456789
        assert _round9({"x": [1.000000000123, 2]}) == {"x": [1.0, 2]}
        assert _round9(math.inf) == math.inf

    def test_trace_export(self, vocab4, tmp_path):
        seqs = [[1, 2], [1, 2, 3]]
        tables = replay_tables(vocab4, seqs)
        members = [StaticTableModel(vocab4, tables) for _ in range(2)]
        public = StaticTableModel(vocab4, tables)
        params = PrivacyParams(2.0, 1e-5, 8, 3, 1.0, 2)
        session = PredictionSession(members, public, params, seed=5)
        records = session.run_session([[1], [1, 2]])
        path = tmp_path / "trace.jsonl"
        serialize_trace(records, path, session)
        header, *lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert header == {"record": "accountant", **_round9(session.accountant.record()),
                          "queries_answered": 2, "spent_eps": _round9(session.ledger.spent)}
        assert len(lines) == 2
        assert lines[0]["record"] == "query"
        assert lines[0]["subset"] == [0, 1]
        assert set(lines[0]["mixing_weights"]) == {"0", "1"}
        assert lines[1]["context"] == [1, 2]
        assert len(lines[0]["aggregate"]) == 4
