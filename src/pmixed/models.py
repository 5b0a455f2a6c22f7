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
import math
import operator
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from .accounting import check_nonnegative_int, check_positive, check_positive_int
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
    def from_corpus(cls, documents: Iterable[Sequence[str]]) -> "Vocabulary":
        """Build a vocabulary from documents, most frequent tokens first."""
        counts: dict[str, int] = {}
        for doc in documents:
            for tok in doc:
                counts[tok] = counts.get(tok, 0) + 1
        counts.pop(UNKNOWN_TOKEN, None)
        ordered = sorted(counts, key=lambda tok: (-counts[tok], tok))
        return cls((UNKNOWN_TOKEN, *ordered))

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
    # How many trailing context tokens the distribution depends on, or None
    # when it may depend on the whole context.
    context_width: int | None = None

    @abstractmethod
    def distribution(self, context: Sequence[int]) -> Distribution:
        """Next-token distribution given a context of token ids."""


class NGramModel(LanguageModel):
    """Add-k smoothed n-gram model.

    The probability of token ``w`` after context window ``c`` is
    ``(count(c, w) + k) / (count(c, .) + k * |V|)``, which is strictly
    positive for every token, so divergences from this model are always
    finite.  ``k`` must be finite.  When a row is first built, a count that
    is not a nonnegative integer a float holds, a token id outside the
    vocabulary, or weights that total a non-finite number refuse the row
    before it is cached or returned.  Contexts shorter than ``order - 1``
    are left-padded with the unknown token.  Models are immutable after
    training; distributions are cached per context window.
    """

    def __init__(self, order: int, smoothing_k: float, vocab: Vocabulary,
                 counts: dict[tuple[int, ...], dict[int, int]] | None = None):
        self.order = check_positive_int(order, "order")
        check_positive(smoothing_k, "smoothing_k")
        if math.isinf(smoothing_k):
            raise ValueError(f"smoothing_k must be finite, got {smoothing_k!r}")
        self.context_width = self.order - 1
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
        size = self.vocab.size
        weights = np.full(size, self.smoothing_k, dtype=np.float64)
        try:
            for token, count in self.counts.get(window, {}).items():
                if not 0 <= token < size:
                    raise ValueError(f"token id {token!r} is outside the vocabulary of {size}")
                weights[token] += check_nonnegative_int(count, "counts")
        except ValueError as err:  # named once per row, not formatted per count
            raise ValueError(f"{err} in the row after {window!r}") from None
        total = weights.sum()
        if not math.isfinite(total):
            raise ValueError(f"counts after {window!r} total {float(total)}, which is not finite")
        # Distribution()'s divisions; the checked counts and finite k > 0 make it valid
        probs = weights / total
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
    """Uniform average of member models; the non-private ensemble baseline.

    When every member declares a ``context_width``, the average depends only
    on the widest member's window of the context, and each window's average
    is computed once and cached, as :class:`NGramModel` caches its rows.
    """

    def __init__(self, members: Sequence[LanguageModel]):
        if not members:
            raise ValueError("ensemble must contain at least one model")
        self.members = list(members)
        self.vocab = self.members[0].vocab
        widths = [getattr(m, "context_width", None) for m in self.members]
        self.context_width = None if None in widths else max(widths)
        self._cache: dict[tuple[int, ...], Distribution] = {}

    def distribution(self, context: Sequence[int]) -> Distribution:
        width = self.context_width
        if width is None:
            return self._average(context)
        key = tuple(int(t) for t in context[max(len(context) - width, 0):])
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._average(context)
        return cached

    def _average(self, context: Sequence[int]) -> Distribution:
        stacked = np.stack([m.distribution(context).probs for m in self.members])
        return Distribution._already_normalized(stacked.mean(axis=0))


def partition_corpus(documents: Sequence, n_subsets: int, seed: int) -> list[list]:
    """Split documents into ``n_subsets`` disjoint, balanced subsets.

    Documents are shuffled with the seeded generator and dealt round-robin,
    so every document lands in exactly one subset and sizes differ by at
    most one.
    """
    n = check_positive_int(n_subsets, "number of subsets")
    if len(documents) < n:
        raise ValueError(
            f"need at least {n} documents to build {n} subsets, got {len(documents)}"
        )
    order = np.random.default_rng(seed).permutation(len(documents))
    subsets: list[list] = [[] for _ in range(n)]
    for position, doc_index in enumerate(order):
        subsets[position % n].append(documents[int(doc_index)])
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
    """The model of a snapshot record, whose window ids, token ids and counts
    must be JSON integers and whose windows must be ``order - 1`` ids long."""
    model = NGramModel(record["order"], record["smoothing_k"], vocab)
    index, width, counts = operator.index, model.context_width, model.counts
    for window, slot in record["counts"]:
        key = tuple(window)
        for token in key:
            index(token)  # a TypeError unless a JSON integer
        if len(key) != width:
            raise ValueError(f"window {window!r} holds {len(key)} token ids, "
                             f"not order - 1 = {width}")
        counts[key] = {index(tok): index(cnt) for tok, cnt in slot}
    return model


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


# The fields each snapshot record must have, by kind and, for models, role
_RECORD_FIELDS = {
    ("vocab", None): ("tokens",),
    ("ngram", "public"): ("order", "smoothing_k", "counts"),
    ("ngram", "member"): ("index", "order", "smoothing_k", "counts"),
}


def load_snapshot(path) -> tuple[Vocabulary, NGramModel, list[NGramModel]]:
    """Read a snapshot written by :func:`save_snapshot`, failing closed.

    A ``ValueError`` naming the offending line refuses a record that is not
    a vocab, public or member record, misses one of its fields or holds one
    of the wrong type or range; a second vocab or public record, or a model
    before the vocab; member indices other than exactly 0..N-1, in any
    order; and members that disagree on order or ``smoothing_k``.  Window
    ids, token ids and counts must be JSON integers, so ``1.5``, ``-0.5``,
    ``"2"`` and ``Infinity`` are refused rather than rounded, and each
    window must hold ``order - 1`` ids; a non-finite ``smoothing_k`` is
    refused too.  A model record holds no ``true`` or ``false``, which
    would otherwise be read as 1 and 0.  The value
    checks of :class:`NGramModel` (negative counts, counts beyond the float
    range, tokens outside the vocabulary, row totals) run when a row is
    first built, and their refusal names the row's window.
    """
    vocab = public = None
    members: dict[int, tuple[int, NGramModel]] = {}  # index -> (line, model)
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            record = json.loads(line)
            where = f"snapshot line {number}"
            kind = record.get("kind") if isinstance(record, dict) else None
            role = record.get("role") if kind == "ngram" else None
            fields = _RECORD_FIELDS.get((kind, role))
            if fields is None:
                raise ValueError(f"{where}: expected a vocab, public or member record, "
                                 f"got kind {kind!r} and role {role!r}")
            if missing := [name for name in fields if name not in record]:
                raise ValueError(f"{where}: {role or kind} record misses {', '.join(missing)}")
            if kind == "vocab":
                if vocab is not None:
                    raise ValueError(f"{where}: a second vocab record")
                vocab = Vocabulary(record["tokens"])
                continue
            if vocab is None:
                raise ValueError(f"{where}: model record precedes the vocab record")
            # operator.index reads a bool as 0 or 1, and no field of a model
            # record is a boolean or free text, so the line is refused whole
            if "true" in line or "false" in line:
                raise ValueError(f"{where}: a model record holds no booleans")
            try:
                model = _model_from_record(record, vocab)
            except (TypeError, ValueError, OverflowError) as err:  # wrong type or range
                raise ValueError(f"{where}: {err}") from None
            if role == "public":
                if public is not None:
                    raise ValueError(f"{where}: a second public record")
                public = model
                continue
            index = check_nonnegative_int(record["index"], f"{where}: member index")
            if index in members:
                raise ValueError(f"{where}: member index {index} repeats line {members[index][0]}")
            if members:
                first_line, first = next(iter(members.values()))
                if (model.order, model.smoothing_k) != (first.order, first.smoothing_k):
                    raise ValueError(f"{where}: member of order {model.order} and smoothing_k "
                                     f"{model.smoothing_k} differs from line {first_line}'s "
                                     f"{first.order} and {first.smoothing_k}")
            members[index] = (number, model)
    if vocab is None or public is None:
        raise ValueError("snapshot is missing the vocab or public model record")
    # distinct nonnegative indices are exactly 0..N-1 when the largest is N-1
    if members and (last := max(members)) != len(members) - 1:
        raise ValueError(f"snapshot line {members[last][0]}: member index {last} is outside "
                         f"0..{len(members) - 1} for {len(members)} members")
    return vocab, public, [members[i][1] for i in range(len(members))]
