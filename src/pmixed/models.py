"""Desk-scale next-token model backends and corpus handling.

The prediction protocol only needs a deterministic map from a context to a
full-support distribution over a shared vocabulary.  Two backends provide
that here: an add-k smoothed n-gram model trained per corpus partition, and
a static lookup table for tests.  The module also owns the corpus and
vocabulary file formats and the snapshot serialization.

File formats:
  corpus    - plain text, one document per line, whitespace-tokenized
  vocab     - one token per line, line number = token id, line 0 reserved
              for the unknown token
  snapshot  - JSON lines: one vocab record followed by one record per model
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from .divergence import Distribution

UNKNOWN_TOKEN = "<unk>"


class Vocabulary:
    """Ordered token inventory with a reserved unknown token at id 0."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if len(tokens) < 2:
            raise ValueError("vocabulary must contain at least 2 tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be distinct")
        self.tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def unknown_id(self) -> int:
        return 0

    def id_of(self, token: str) -> int:
        return self._ids.get(token, 0)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self._ids.get(tok, 0) for tok in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    @classmethod
    def from_corpus(cls, documents: Iterable[Sequence[str]], unknown_token: str = UNKNOWN_TOKEN) -> "Vocabulary":
        """Build a vocabulary from documents, most frequent tokens first."""
        counts: dict[str, int] = {}
        for doc in documents:
            for tok in doc:
                counts[tok] = counts.get(tok, 0) + 1
        counts.pop(unknown_token, None)
        ordered = sorted(counts, key=lambda tok: (-counts[tok], tok))
        return cls((unknown_token, *ordered))

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")

    def __eq__(self, other):
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.tokens == other.tokens

    def __repr__(self):
        return f"Vocabulary(size={self.size})"


class LanguageModel(ABC):
    """Deterministic next-token predictor over a shared vocabulary."""

    vocab: Vocabulary

    @abstractmethod
    def distribution(self, context: Sequence[int]) -> Distribution:
        """Next-token distribution given a context of token ids."""


def predict(model: LanguageModel, context: Sequence[int]) -> Distribution:
    """Next-token distribution of ``model`` for ``context``."""
    return model.distribution(context)


class NGramModel(LanguageModel):
    """Add-k smoothed n-gram model.

    The probability of token ``w`` after context window ``c`` is
    ``(count(c, w) + k) / (count(c, .) + k * |V|)``, which is strictly
    positive for every token, so divergences from this model are always
    finite.  Contexts shorter than ``order - 1`` are left-padded with the
    unknown token.  Models are immutable after training; distributions are
    cached per context window.
    """

    def __init__(self, order: int, smoothing_k: float, vocab: Vocabulary,
                 counts: dict[tuple[int, ...], dict[int, int]] | None = None):
        if int(order) != order or order < 1:
            raise ValueError(f"order must be a positive integer, got {order!r}")
        if not smoothing_k > 0.0:
            raise ValueError(f"smoothing_k must be positive, got {smoothing_k!r}")
        self.order = int(order)
        self.smoothing_k = float(smoothing_k)
        self.vocab = vocab
        self.counts = counts if counts is not None else {}
        self._cache: dict[tuple[int, ...], Distribution] = {}

    def _window(self, context: Sequence[int]) -> tuple[int, ...]:
        need = self.order - 1
        if need == 0:
            return ()
        window = tuple(int(t) for t in context[-need:])
        if len(window) < need:
            window = (self.vocab.unknown_id,) * (need - len(window)) + window
        return window

    def distribution(self, context: Sequence[int]) -> Distribution:
        window = self._window(context)
        cached = self._cache.get(window)
        if cached is not None:
            return cached
        weights = np.full(self.vocab.size, self.smoothing_k, dtype=np.float64)
        for token, count in self.counts.get(window, {}).items():
            if not count >= 0:
                raise ValueError(f"counts must be nonnegative, got {count!r} after {window!r}")
            weights[token] += count
        # Distribution()'s divisions; the checked counts and k > 0 make it valid
        probs = weights / weights.sum()
        dist = Distribution._already_normalized(probs / float(probs.sum()))
        self._cache[window] = dist
        return dist


def train_ngram(data: Iterable[Sequence[int]], order: int, smoothing_k: float,
                vocab: Vocabulary) -> NGramModel:
    """Train an add-k n-gram model on token-id sequences.

    Counts come from every length-``order`` window contained in a sequence;
    sequences shorter than ``order`` contribute nothing.  Empty data is not
    an error: the model then predicts the uniform add-k distribution
    everywhere.
    """
    model = NGramModel(order, smoothing_k, vocab)
    need = model.order - 1
    for seq in data:
        ids = [int(t) for t in seq]
        for stop in range(need, len(ids)):
            window = tuple(ids[stop - need:stop])
            target = ids[stop]
            slot = model.counts.setdefault(window, {})
            slot[target] = slot.get(target, 0) + 1
    return model


def build_public_model(public_documents: Iterable[Sequence[int]], order: int,
                       smoothing_k: float, vocab: Vocabulary) -> NGramModel:
    """Train the public reference model; its corpus must be disjoint from the
    private corpus by construction of the experiment configuration."""
    return train_ngram(public_documents, order, smoothing_k, vocab)


class StaticTableModel(LanguageModel):
    """Lookup-table backend for tests: context window -> stored distribution."""

    def __init__(self, vocab: Vocabulary, rows: dict[tuple[int, ...], Distribution],
                 default: Distribution | None = None):
        self.vocab = vocab
        self.rows = {tuple(k): v for k, v in rows.items()}
        if default is None:
            default = Distribution(np.full(vocab.size, 1.0 / vocab.size))
        self.default = default

    def distribution(self, context: Sequence[int]) -> Distribution:
        return self.rows.get(tuple(int(t) for t in context), self.default)


class EnsembleAverageModel(LanguageModel):
    """Uniform average of member models; the non-private ensemble baseline."""

    def __init__(self, members: Sequence[LanguageModel]):
        if not members:
            raise ValueError("ensemble must contain at least one model")
        self.members = list(members)
        self.vocab = self.members[0].vocab

    def distribution(self, context: Sequence[int]) -> Distribution:
        stacked = np.stack([m.distribution(context).probs for m in self.members])
        return Distribution._already_normalized(stacked.mean(axis=0))


def partition_corpus(documents: Sequence, n_subsets: int, seed: int) -> list[list]:
    """Split documents into ``n_subsets`` disjoint, balanced subsets.

    Documents are shuffled with the seeded generator and dealt round-robin,
    so every document lands in exactly one subset and sizes differ by at
    most one.
    """
    if int(n_subsets) != n_subsets or n_subsets < 1:
        raise ValueError(f"number of subsets must be a positive integer, got {n_subsets!r}")
    if len(documents) < n_subsets:
        raise ValueError(
            f"need at least {n_subsets} documents to build {n_subsets} subsets, "
            f"got {len(documents)}"
        )
    order = np.random.default_rng(seed).permutation(len(documents))
    subsets: list[list] = [[] for _ in range(int(n_subsets))]
    for position, doc_index in enumerate(order):
        subsets[position % n_subsets].append(documents[int(doc_index)])
    return subsets


def load_corpus(path) -> list[list[str]]:
    """Read a corpus file: one whitespace-tokenized document per line."""
    documents = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                documents.append(tokens)
    return documents


def _model_record(model: NGramModel, role: str, index: int | None = None) -> dict:
    record = {
        "kind": "ngram",
        "role": role,
        "order": model.order,
        "smoothing_k": model.smoothing_k,
        "counts": [
            [list(window), sorted(slot.items())]
            for window, slot in sorted(model.counts.items())
        ],
    }
    if index is not None:
        record["index"] = index
    return record


def _model_from_record(record: dict, vocab: Vocabulary) -> NGramModel:
    counts = {
        tuple(window): {int(tok): int(cnt) for tok, cnt in slot}
        for window, slot in record["counts"]
    }
    return NGramModel(record["order"], record["smoothing_k"], vocab, counts)


def save_snapshot(path, vocab: Vocabulary, public: NGramModel,
                  members: Sequence[NGramModel]) -> None:
    """Write a vocab + ensemble snapshot as JSON lines; the round trip
    through :func:`load_snapshot` reproduces predictions bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "vocab", "tokens": list(vocab.tokens)},
                            sort_keys=True) + "\n")
        fh.write(json.dumps(_model_record(public, "public"), sort_keys=True) + "\n")
        for i, model in enumerate(members):
            fh.write(json.dumps(_model_record(model, "member", i), sort_keys=True) + "\n")


def load_snapshot(path) -> tuple[Vocabulary, NGramModel, list[NGramModel]]:
    vocab = None
    public = None
    members: list[tuple[int, NGramModel]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["kind"] == "vocab":
                vocab = Vocabulary(record["tokens"])
            elif record["kind"] == "ngram":
                if vocab is None:
                    raise ValueError("snapshot model record precedes the vocab record")
                model = _model_from_record(record, vocab)
                if record["role"] == "public":
                    public = model
                else:
                    members.append((record["index"], model))
            else:
                raise ValueError(f"unknown snapshot record kind {record['kind']!r}")
    if vocab is None or public is None:
        raise ValueError("snapshot is missing the vocab or public model record")
    members.sort(key=lambda pair: pair[0])
    return vocab, public, [model for _, model in members]
