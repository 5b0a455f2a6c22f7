"""Vocabulary, n-gram backend, partitioner, and snapshot round trips."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from pmixed import (
    Distribution,
    EnsembleAverageModel,
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


@pytest.fixture
def vocab():
    return Vocabulary(["<unk>", "a", "b", "c"])


class TestVocabulary:
    def test_unknown_token_sits_at_zero(self, vocab):
        assert vocab.unknown_id == 0
        assert vocab.tokens[0] == "<unk>"

    def test_encode_maps_oov_to_unknown(self, vocab):
        assert vocab.encode(["a", "zzz", "c"]) == [1, 0, 3]

    def test_decode_round_trip(self, vocab):
        assert vocab.decode(vocab.encode(["b", "a"])) == ["b", "a"]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(["<unk>", "a", "a"])

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            Vocabulary(["<unk>"])

    def test_from_corpus_orders_by_frequency_then_token(self):
        docs = [["b", "a", "b"], ["c", "a", "b"]]
        built = Vocabulary.from_corpus(docs)
        assert built.tokens == ("<unk>", "b", "a", "c")

    def test_file_round_trip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.to_file(path)
        assert Vocabulary.from_file(path) == vocab


class TestPartition:
    def test_two_way_split_of_four(self):
        docs = [["a"], ["b"], ["c"], ["d"]]
        parts = partition_corpus(docs, 2, seed=0)
        assert sorted(len(p) for p in parts) == [2, 2]
        seen = [tuple(doc) for part in parts for doc in part]
        assert sorted(seen) == sorted(tuple(d) for d in docs)

    def test_singleton_subsets(self):
        docs = [["a"], ["b"], ["c"]]
        parts = partition_corpus(docs, 3, seed=1)
        assert all(len(p) == 1 for p in parts)

    def test_balanced_uneven_split(self):
        docs = [[str(i)] for i in range(103)]
        parts = partition_corpus(docs, 10, seed=7)
        sizes = sorted(len(p) for p in parts)
        assert set(sizes) == {10, 11}
        assert sum(sizes) == 103
        seen = sorted(doc[0] for part in parts for doc in part)
        assert seen == sorted(str(i) for i in range(103))

    def test_deterministic_given_seed(self):
        docs = [[str(i)] for i in range(20)]
        assert partition_corpus(docs, 4, seed=5) == partition_corpus(docs, 4, seed=5)
        assert partition_corpus(docs, 4, seed=5) != partition_corpus(docs, 4, seed=6)

    def test_too_few_documents_raises(self):
        with pytest.raises(ValueError):
            partition_corpus([["a"]], 2, seed=0)


class TestNGram:
    def test_empty_data_predicts_uniform(self, vocab):
        model = train_ngram([], order=2, smoothing_k=0.1, vocab=vocab)
        dist = model.distribution([1])
        assert np.allclose(dist.probs, 0.25)

    def test_hand_counted_bigram(self, vocab):
        # corpus "a b a b": count(a, b) = 2 and count(a, .) = 2
        ids = vocab.encode(["a", "b", "a", "b"])
        model = train_ngram([ids], order=2, smoothing_k=0.01, vocab=vocab)
        p_b_given_a = model.distribution([vocab.id_of("a")]).probs[vocab.id_of("b")]
        assert p_b_given_a == pytest.approx((2 + 0.01) / (2 + 0.01 * 4), rel=1e-12)

    def test_training_is_deterministic(self, vocab):
        data = [vocab.encode("a b c a b".split()), vocab.encode("b c".split())]
        first = train_ngram(data, 2, 0.1, vocab)
        second = train_ngram(data, 2, 0.1, vocab)
        assert first.counts == second.counts
        assert np.array_equal(first.distribution([2]).probs,
                              second.distribution([2]).probs)

    def test_unseen_context_is_uniform(self, vocab):
        data = [vocab.encode("a b".split())]
        model = train_ngram(data, 2, 0.1, vocab)
        assert np.allclose(model.distribution([3]).probs, 0.25)

    def test_short_context_left_pads_with_unknown(self, vocab):
        data = [[0, 2]]  # one window with the unknown token as context
        model = train_ngram(data, 2, 0.1, vocab)
        assert np.array_equal(model.distribution([]).probs,
                              model.distribution([0]).probs)
        assert model.distribution([]).probs[2] > 0.5

    def test_full_support_floor(self, vocab):
        rng = np.random.default_rng(0)
        data = [list(rng.integers(1, 4, size=50)) for _ in range(5)]
        model = train_ngram(data, 2, 0.1, vocab)
        max_total = max(sum(slot.values()) for slot in model.counts.values())
        floor = 0.1 / (max_total + 0.1 * vocab.size)
        for ctx in ([], [1], [2], [3], [1, 2]):
            assert model.distribution(ctx).probs.min() >= floor - 1e-15

    def test_unigram_order_ignores_context(self, vocab):
        data = [vocab.encode("a a b".split())]
        model = train_ngram(data, 1, 0.5, vocab)
        assert np.array_equal(model.distribution([]).probs,
                              model.distribution([3, 2, 1]).probs)
        assert model.distribution([]).probs[1] == pytest.approx(2.5 / 5.0)

    def test_rejects_bad_parameters(self, vocab):
        with pytest.raises(ValueError):
            NGramModel(0, 0.1, vocab)
        with pytest.raises(ValueError):
            NGramModel(2, 0.0, vocab)
        with pytest.raises(ValueError, match="smoothing_k must be finite, got inf"):
            NGramModel(2, math.inf, vocab)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_refuses_a_row_whose_total_is_not_finite(self, vocab):
        model = NGramModel(2, 0.1, vocab, {(1,): {2: 10**308, 3: 10**308}})
        with pytest.raises(ValueError, match=r"counts after \(1,\) total inf, which is not finite"):
            model.distribution([1])
        assert model._cache == {}

    def test_refuses_a_count_that_no_float_holds(self, vocab):
        with pytest.raises(ValueError, match="^token id 2 and count 1000"):
            NGramModel(2, 0.1, vocab, {(1,): {2: 10**309}})

    @pytest.mark.parametrize("count", [-4, 2.5, True])
    def test_a_count_refusal_names_its_window(self, vocab, count):
        """Refused at construction, though no query reaches the window."""
        with pytest.raises(ValueError, match=re.escape(
                f"token id 3 and count {count!r} after window (2, 1) must be integers in "
                f"[0, 4) and [0, float max]")):
            NGramModel(3, 0.1, vocab, {(1, 2): {3: 1}, (2, 1): {3: count}})

    @pytest.mark.parametrize("counts, problem", [
        ({(1,): {4: 1}}, "token id 4 and count 1 after window (1,)"),
        ({(1,): {-1: 1}}, "token id -1 and count 1 after window (1,)"),
        ({(1,): {2.0: 1}}, "token id 2.0 and count 1 after window (1,)"),
        ({(1, 2): {3: 1}}, "window (1, 2) holds 2 token ids, not order - 1 = 1"),
        ({(True,): {3: 1}}, "window (True,) holds True, not an integer token id"),
    ])
    def test_constructor_refuses_bad_tokens_and_windows(self, vocab, counts, problem):
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}"):
            NGramModel(2, 0.1, vocab, counts)

    def test_constructor_keeps_a_checked_copy(self, vocab):
        counts = {(1,): {2: 3}}
        model = NGramModel(2, 0.1, vocab, counts)
        counts[(1,)][2] = -1
        assert model.counts == {(1,): {2: 3}}

    @pytest.mark.parametrize("token", [-1, 4])
    def test_training_refuses_a_token_outside_the_vocabulary(self, vocab, token):
        """Unchecked, -1 would credit the last token by index wraparound."""
        with pytest.raises(ValueError, match=re.escape(f"token ids [{token}] are not in 0..3")):
            train_ngram([[1, 2, 3], [1, token, 2]], 2, 0.1, vocab)

    def test_unseen_windows_share_one_row(self, vocab):
        data = [vocab.encode("a b c".split())]
        public = build_public_model(data, 2, 0.1, vocab)
        members = [train_ngram([[1, 1]], 2, 0.1, vocab), train_ngram([], 3, 0.1, vocab)]
        shared = public.distribution([3])  # no model saw the window (3,)
        assert members[0].distribution([3]) is shared
        assert members[1].distribution([2, 3]) is shared
        assert train_ngram(data, 2, 1.0, vocab).distribution([3]) is not shared
        wider = Vocabulary([*vocab.tokens, "d"])
        assert train_ngram([], 2, 0.1, wider).distribution([3]) is not shared
        # bit for bit the row that the per-window arithmetic builds
        weights = np.full(vocab.size, 0.1)
        probs = weights / weights.sum()
        assert shared.probs.tobytes() == (probs / float(probs.sum())).tobytes()
        seen_empty = NGramModel(2, 0.1, vocab, {(3,): {}}).distribution([3])
        assert seen_empty is not shared
        assert seen_empty.probs.tobytes() == shared.probs.tobytes()

    def test_only_seen_windows_are_cached(self):
        vocab = Vocabulary(["<unk>"] + [f"t{i}" for i in range(20)])
        model = train_ngram([[1, 2, 3]], 3, 0.1, vocab)
        for a in range(10):
            for b in range(10, 20):
                model.distribution([a, b])
        assert model._cache == {}
        seen = model.distribution([1, 2])
        assert model._cache == {(1, 2): seen}

    def test_a_k_whose_unseen_row_total_is_not_finite_is_refused_at_construction(self, vocab):
        """k * |V| past float max leaves no row for an unseen window, so the
        model is refused whole rather than failing each unseen window."""
        problem = "smoothing_k 1e+308 over 4 tokens totals inf, which is not finite"
        with pytest.raises(ValueError, match=re.escape(problem)):
            NGramModel(2, 1e308, vocab)
        with pytest.raises(ValueError, match=re.escape(problem)):
            train_ngram([[1, 2]], 3, 1e308, vocab)
        assert NGramModel(2, 8e307, Vocabulary(["<unk>", "a"])).distribution([1]).probs.tolist() \
            == [0.5, 0.5]

    @pytest.mark.parametrize("token", [1.7, 2.0, "2", np.float64(2.0), np.array(2.5)])
    def test_training_refuses_a_token_id_that_is_not_an_integer(self, vocab, token):
        """Read with int(), 1.7 would count as token 1."""
        with pytest.raises(ValueError, match=re.escape(f"token id {token!r} is not an integer")):
            train_ngram([[1, 2], [1, token, 3]], 2, 0.1, vocab)

    def test_public_model_builder_matches_training(self, vocab):
        data = [vocab.encode("a b c".split())]
        direct = train_ngram(data, 2, 0.1, vocab)
        public = build_public_model(data, 2, 0.1, vocab)
        assert public.counts == direct.counts


class TestStaticTable:
    def test_returns_stored_row_exactly(self, vocab):
        row = Distribution([0.7, 0.1, 0.1, 0.1])
        model = StaticTableModel(vocab, {(1, 2): row})
        assert model.distribution([1, 2]) is row

    def test_falls_back_to_default(self, vocab):
        default = Distribution([0.4, 0.3, 0.2, 0.1])
        model = StaticTableModel(vocab, {}, default=default)
        assert model.distribution([9, 9]) is default


class TestEnsembleAverage:
    def test_uniform_average(self, vocab):
        members = [
            StaticTableModel(vocab, {}, default=Distribution([1.0, 0.0, 0.0, 0.0])),
            StaticTableModel(vocab, {}, default=Distribution([0.0, 1.0, 0.0, 0.0])),
        ]
        model = EnsembleAverageModel(members)
        assert np.allclose(model.distribution([1]).probs, [0.5, 0.5, 0.0, 0.0])

    def test_one_mean_per_window(self, vocab):
        members = [train_ngram([[1, 2, 3, 1], [2, 2, 1]], order, 0.1, vocab) for order in (1, 2, 3)]
        model = EnsembleAverageModel(members)
        assert model.context_width == 2
        first = model.distribution([3, 1, 2])
        assert model.distribution([2, 1, 2]) is first  # same last two tokens
        assert model.distribution([1]) is not model.distribution([0, 1])  # short contexts keep their own key
        for context in ([3, 1, 2], [1], [0, 1], []):
            mean = np.mean([m.distribution(context).probs for m in members], axis=0)
            assert np.array_equal(model.distribution(context).probs, mean)

    def test_table_members_are_averaged_per_context(self, vocab):
        rows = {(1, 2): Distribution([0.1, 0.2, 0.3, 0.4])}
        members = [StaticTableModel(vocab, rows), train_ngram([[1, 2]], 2, 0.1, vocab)]
        model = EnsembleAverageModel(members)
        assert model.context_width is None
        mean = (rows[(1, 2)].probs + members[1].distribution([2]).probs) / 2
        assert np.allclose(model.distribution([1, 2]).probs, mean)
        assert np.allclose(model.distribution([3, 2]).probs,
                           (0.25 + members[1].distribution([2]).probs) / 2)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            EnsembleAverageModel([])

    def test_rejects_a_member_of_another_vocabulary(self, vocab):
        wider = Vocabulary([*vocab.tokens, "d"])
        members = [train_ngram([[1, 2]], 2, 0.1, vocab), train_ngram([[1, 2]], 2, 0.1, wider)]
        with pytest.raises(ValueError, match=re.escape(
                "ensemble member 1 has Vocabulary(size=5), not member 0's Vocabulary(size=4)")):
            EnsembleAverageModel(members)
        renamed = Vocabulary(["<unk>", "a", "b", "z"])
        with pytest.raises(ValueError, match="ensemble member 2 has"):
            EnsembleAverageModel(members[:1] * 2 + [train_ngram([], 2, 0.1, renamed)])


@pytest.mark.parametrize("model", [
    lambda v: train_ngram([[1, 2, 3]], 2, 0.1, v),
    lambda v: train_ngram([[1, 2, 3]], 3, 0.1, v),
    lambda v: StaticTableModel(v, {(1,): Distribution([0.1, 0.2, 0.3, 0.4])}),
    lambda v: EnsembleAverageModel([train_ngram([[1, 2, 3]], 2, 0.1, v)] * 2),
], ids=["bigram", "trigram", "table", "ensemble"])
@pytest.mark.parametrize("token", [1.7, 2.0, "2", np.float64(1.0), np.array(1.5)])
def test_a_context_id_that_is_not_an_integer_is_refused(vocab, model, token):
    """Read with int(), 1.7 would select the row of context id 1."""
    model = model(vocab)
    with pytest.raises(ValueError, match=re.escape(f"token id {token!r} is not an integer")):
        model.distribution([3, token])
    assert model.distribution([3, np.int64(1)]) is model.distribution([3, 1])


class TestCorpusIO:
    def test_one_document_per_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b c\n\nd e\n", encoding="utf-8")
        assert load_corpus(path) == [["a", "b", "c"], ["d", "e"]]


class TestSnapshot:
    def test_round_trip_is_bit_exact(self, vocab, tmp_path):
        rng = np.random.default_rng(42)
        data = [list(rng.integers(1, 4, size=30)) for _ in range(6)]
        members = [train_ngram([doc], 2, 0.1, vocab) for doc in data[:3]]
        public = train_ngram(data[3:], 2, 0.1, vocab)
        path = tmp_path / "snapshot.jsonl"
        save_snapshot(path, vocab, public, members)
        vocab2, public2, members2 = load_snapshot(path)

        assert vocab2 == vocab
        assert len(members2) == 3
        contexts = ([], [1], [2], [3], [1, 3])
        for before, after in zip([public] + members, [public2] + members2):
            assert before.counts == after.counts
            for ctx in contexts:
                assert np.array_equal(before.distribution(ctx).probs,
                                      after.distribution(ctx).probs)

    def test_saving_a_loaded_snapshot_writes_its_bytes(self, vocab, tmp_path):
        """The loader reads only the layout save_snapshot writes, so one
        ensemble has one byte form."""
        rng = np.random.default_rng(7)
        data = [list(rng.integers(0, 4, size=40)) for _ in range(5)]
        path, again = tmp_path / "snapshot.jsonl", tmp_path / "again.jsonl"
        save_snapshot(path, vocab, train_ngram(data[:2], 3, 0.5, vocab),
                      [train_ngram([doc], 3, 0.5, vocab) for doc in data[2:]])
        save_snapshot(again, *load_snapshot(path))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("count", [-4, -1])
    def test_negative_count_is_refused_before_any_charge(self, vocab, tmp_path, count):
        """-4 = -k|V| zeroes the row's total; -1 zeroes one entry.  The loader
        refuses it, so no session is ever opened on it."""
        public = train_ngram([[3, 1]], 2, 1.0, vocab)
        member = train_ngram([[1, 2]], 2, 1.0, vocab)
        path = tmp_path / "snapshot.jsonl"
        save_snapshot(path, vocab, public, [member])
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert records[2]["counts"] == [[[1], [[2, 1]]]]
        records[2]["counts"] = [[[1], [[2, count]]]]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

        problem = f"token id 2 and count {count} after window (1,)"
        with pytest.raises(ValueError, match=re.escape(f"snapshot line 3: {problem}")):
            load_snapshot(path)
        with pytest.raises(ValueError, match=re.escape(problem)):
            NGramModel(2, 1.0, vocab, {(1,): {2: count}})

    @pytest.mark.parametrize("token", [-1, 4])
    def test_out_of_range_token_is_refused_before_any_charge(self, vocab, tmp_path, token):
        """-1 would credit the last token by index wraparound; 4 = |V| is past
        the end.  The loader refuses it, so no session is ever opened on it."""
        public = train_ngram([[3, 1]], 2, 1.0, vocab)
        member = train_ngram([[1, 2]], 2, 1.0, vocab)
        path = tmp_path / "snapshot.jsonl"
        save_snapshot(path, vocab, public, [member])
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        records[2]["counts"] = [[[1], [[token, 5]]]]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

        problem = f"token id {token} and count 5 after window (1,)"
        with pytest.raises(ValueError, match=re.escape(f"snapshot line 3: {problem}")):
            load_snapshot(path)
        with pytest.raises(ValueError, match=re.escape(problem)):
            NGramModel(2, 0.1, vocab, {(1,): {token: 5}})

    def test_rejects_model_before_vocab(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind":"ngram","role":"public","order":1,'
                        '"smoothing_k":0.1,"counts":[]}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_snapshot(path)


def _snapshot_records(vocab, tmp_path, orders=(2, 2, 2), ks=(0.1, 0.1, 0.1)):
    """A three-member snapshot's records, to be edited and written back."""
    public = train_ngram([[3, 1, 2]], 2, 0.1, vocab)
    members = [train_ngram([[1, 2, 3]], order, k, vocab) for order, k in zip(orders, ks)]
    path = tmp_path / "snapshot.jsonl"
    save_snapshot(path, vocab, public, members)
    return path, [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


class TestSnapshotRefusals:
    """The loader fails closed: each malformed snapshot raises a ValueError
    naming the line of the record at fault."""

    @pytest.mark.parametrize("indices, line, problem", [
        ((0, 0, 2), 4, "expected member 1, got member index 0"),
        ((0, 5, 1), 4, "expected member 1, got member index 5"),
        ((1, 2, 3), 3, "expected member 0, got member index 1"),
        ((0, -1, 1), 4, "expected member 1, got member index -1"),
    ])
    def test_member_indices_must_be_exactly_0_to_n_minus_1(self, vocab, tmp_path,
                                                           indices, line, problem):
        path, records = _snapshot_records(vocab, tmp_path)
        for record, index in zip(records[2:], indices):
            record["index"] = index
        with pytest.raises(ValueError, match=f"^snapshot line {line}: {problem}"):
            load_snapshot(_write(path, records))

    def test_every_other_record_order_is_refused(self, vocab, tmp_path):
        """Only the order save_snapshot writes loads: every other permutation
        of the five records, and every record written twice, is refused."""
        path, records = _snapshot_records(vocab, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        load_snapshot(path)
        orders = [list(p) for p in itertools.permutations(lines) if list(p) != lines]
        orders += [lines[:i + 1] + lines[i:] for i in range(len(lines))]
        orders += [lines + lines[i:i + 1] for i in range(len(lines))]
        assert len(orders) == 119 + 5 + 5
        for order in orders:
            path.write_text("".join(order), encoding="utf-8")
            with pytest.raises(ValueError, match=r"^snapshot line \d: expected "):
                load_snapshot(path)

    def test_exactly_one_public_record(self, vocab, tmp_path):
        path, records = _snapshot_records(vocab, tmp_path)
        with pytest.raises(ValueError, match="^snapshot line 6: expected member 3, got kind "
                                             "'ngram' and role 'public'"):
            load_snapshot(_write(path, records + records[1:2]))
        with pytest.raises(ValueError, match="^snapshot line 2: expected the public record, "
                                             "got kind 'ngram' and role 'member'"):
            load_snapshot(_write(path, records[:1] + records[2:]))

    def test_exactly_one_vocab_record(self, vocab, tmp_path):
        path, records = _snapshot_records(vocab, tmp_path)
        with pytest.raises(ValueError, match="^snapshot line 3: expected member 0, got kind "
                                             "'vocab' and role None"):
            load_snapshot(_write(path, records[:2] + records[:1] + records[2:]))

    @pytest.mark.parametrize("role", ["private", None, 0])
    def test_role_is_public_or_member(self, vocab, tmp_path, role):
        path, records = _snapshot_records(vocab, tmp_path)
        records[3]["role"] = role
        with pytest.raises(ValueError, match="^snapshot line 4: expected member 1, got kind "
                                             f"'ngram' and role {role!r}"):
            load_snapshot(_write(path, records))

    @pytest.mark.parametrize("orders, ks", [((2, 3, 2), (0.1, 0.1, 0.1)),
                                            ((2, 2, 2), (0.1, 0.1, 0.2))])
    def test_members_share_order_and_smoothing(self, vocab, tmp_path, orders, ks):
        path, records = _snapshot_records(vocab, tmp_path, orders, ks)
        line = 4 if orders[1] == 3 else 5
        with pytest.raises(ValueError, match=f"^snapshot line {line}: member of order "
                                             f"{orders[line - 3]} and smoothing_k "
                                             f"{ks[line - 3]} differs from member 0's 2 and 0.1"):
            load_snapshot(_write(path, records))

    @pytest.mark.parametrize("tokens, problem", [
        ("abc", "vocab tokens must be a list of strings"),
        (["<unk>", 7, None], "vocab tokens must be a list of strings"),
        (["<unk>"], "vocabulary must contain at least 2 tokens"),
        (["<unk>", "a", "a"], "vocabulary tokens must be distinct"),
    ])
    def test_vocab_tokens_are_a_list_of_distinct_strings(self, vocab, tmp_path, tokens,
                                                         problem):
        path, records = _snapshot_records(vocab, tmp_path)
        records[0]["tokens"] = tokens
        with pytest.raises(ValueError, match=f"^snapshot line 1: {problem}"):
            load_snapshot(_write(path, records))

    @pytest.mark.parametrize("line", [1, 3, 6])
    @pytest.mark.parametrize("blank", ["\n", "  \n"], ids=["empty", "spaces"])
    def test_a_blank_line_is_refused(self, vocab, tmp_path, line, blank):
        """save_snapshot writes none, before, between or after the records."""
        path, _ = _snapshot_records(vocab, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(line - 1, blank)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^snapshot line {line}: expected .*, "
                                             "got a blank line$"):
            load_snapshot(path)

    @pytest.mark.parametrize("line, field, problem", [
        (1, "extra", "vocab record has fields extra that it does not define"),
        (1, "role", "vocab record has fields role that it does not define"),
        (2, "index", "public record has fields index that it does not define"),
        (5, "extra", "member record has fields extra that it does not define"),
    ])
    def test_a_field_its_kind_does_not_define_is_refused(self, vocab, tmp_path, line, field,
                                                          problem):
        path, records = _snapshot_records(vocab, tmp_path)
        records[line - 1][field] = None if field == "role" else 1
        with pytest.raises(ValueError, match=f"^snapshot line {line}: {problem}$"):
            load_snapshot(_write(path, records))

    def test_key_order_and_spacing_are_still_read(self, vocab, tmp_path):
        """Not byte-canonical: a hash of the bytes must hash the re-saved form."""
        path, records = _snapshot_records(vocab, tmp_path)
        expected = path.read_bytes()
        path.write_text("".join(json.dumps(dict(reversed(r.items())), separators=(" ,", " :"))
                                + "\n" for r in records), encoding="utf-8")
        again = tmp_path / "again.jsonl"
        save_snapshot(again, *load_snapshot(path))
        assert again.read_bytes() == expected != path.read_bytes()

    @pytest.mark.parametrize("line, field, problem", [
        (1, "tokens", "vocab record misses tokens"),
        (2, "order", "public record misses order"),
        (2, "counts", "public record misses counts"),
        (3, "index", "member record misses index"),
        (4, "smoothing_k", "member record misses smoothing_k"),
        (5, "kind", "expected member 2, got kind None and role 'member'"),
    ])
    def test_no_record_misses_a_field(self, vocab, tmp_path, line, field, problem):
        path, records = _snapshot_records(vocab, tmp_path)
        del records[line - 1][field]
        with pytest.raises(ValueError, match=f"^snapshot line {line}: {problem}"):
            load_snapshot(_write(path, records))

    @pytest.mark.parametrize("entry, problem", [
        ([3, -1], "token id 3 and count -1 after window (3,)"),
        ([3, 10**309], "token id 3 and count 1000"),
        ([4, 1], "token id 4 and count 1 after window (3,)"),
        ([-1, 1], "token id -1 and count 1 after window (3,)"),
    ])
    def test_a_bad_count_no_query_reaches_is_refused_at_load(self, vocab, tmp_path, entry,
                                                              problem):
        """Every count is checked as it is read, not on the first query that
        builds its row, so a snapshot is refused whole before any answer."""
        path, records = _snapshot_records(vocab, tmp_path)
        records[3]["counts"].append([[3], [[1, 2], entry]])
        with pytest.raises(ValueError, match=f"^snapshot line 4: {re.escape(problem)}"):
            load_snapshot(_write(path, records))

    @pytest.mark.parametrize("field, value, problem", [
        ("counts", 5, "'int' object is not iterable"),
        ("order", 0, "order must be a positive integer, got 0"),
        ("smoothing_k", -0.1, "smoothing_k must be positive, got -0.1"),
        ("smoothing_k", math.inf, "smoothing_k must be finite, got inf"),
        ("counts", [[[1], [[2, math.inf]]]], "token id 2 and count inf after window (1,)"),
        # token ids, window ids and counts are JSON integers, and a window holds order - 1 ids
        ("counts", [[[1], [[2, 1.5]]]], "token id 2 and count 1.5 after window (1,)"),
        # a bool is not an exact int, so true and false are not read as 1 and 0
        ("counts", [[[1], [[2, True]]]], "token id 2 and count True after window (1,)"),
        ("counts", [[[1], [[False, 1]]]], "token id False and count 1 after window (1,)"),
        ("counts", [[[False], [[2, 1]]]], "window [False] holds False, not an integer token id"),
        ("order", True, "order must be a positive integer, got True"),
        ("smoothing_k", True, "smoothing_k must be positive, got True"),
        ("index", False, "expected member 1, got member index False"),
        ("counts", [[[1], [[2, -0.5]]]], "token id 2 and count -0.5 after window (1,)"),
        ("counts", [[[1], [["2", 1]]]], "token id '2' and count 1 after window (1,)"),
        ("counts", [[[1], [[2.7, 1]]]], "token id 2.7 and count 1 after window (1,)"),
        ("counts", [[[1.0], [[2, 1]]]], "window [1.0] holds 1.0, not an integer token id"),
        ("counts", [[[1, 2], [[2, 1]]]], "window [1, 2] holds 2 token ids, not order - 1 = 1"),
        ("counts", [[[], [[2, 1]]]], "window [] holds 0 token ids, not order - 1 = 1"),
        ("smoothing_k", 1e308, "smoothing_k 1e+308 over 4 tokens totals inf"),
    ])
    def test_a_field_of_the_wrong_type_or_range_names_its_line(self, vocab, tmp_path,
                                                               field, value, problem):
        path, records = _snapshot_records(vocab, tmp_path)
        records[3][field] = value
        with pytest.raises(ValueError, match=f"^snapshot line 4: {re.escape(problem)}"):
            load_snapshot(_write(path, records))
