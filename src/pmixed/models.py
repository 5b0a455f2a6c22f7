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
  snapshot  - JSON lines: the vocab record, the public model's record, then
              one record per member in index order

Counts are checked once, as ``NGramModel``, ``load_snapshot`` or ``train_ngram``
takes them in.  An n-gram model builds and caches a row only for a window it
saw in training.  Every window it never saw gets the smoothed-uniform row,
which depends only on ``k`` and the vocabulary size, so all models with the
same ``k`` and vocabulary return one shared row object for such windows.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import sys
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from .accounting import check_positive, check_positive_int
from .divergence import Distribution

UNKNOWN_TOKEN = "<unk>"


def check_smoothing(smoothing_k) -> float:
    """Validate an add-k smoothing constant: a finite positive number."""
    check_positive(smoothing_k, "smoothing_k")
    if math.isinf(smoothing_k):
        raise ValueError(f"smoothing_k must be finite, got {smoothing_k!r}")
    return float(smoothing_k)


def _checked_counts(entries, width: int, size: int) -> dict[tuple[int, ...], dict[int, int]]:
    """``(window, [(token, count), ...])`` entries as a dict, checked as it is
    built: ``width`` ids a window, token ids in ``[0, size)`` and counts in
    ``[0, float max]``, each an exact ``int`` (not a bool, float or text)."""
    counts, top = {}, sys.float_info.max
    for window, slot in entries:
        key = tuple(window)
        for token in key:
            if type(token) is not int:
                raise ValueError(f"window {window!r} holds {token!r}, not an integer token id")
        if len(key) != width:
            raise ValueError(f"window {window!r} holds {len(key)} token ids, "
                             f"not order - 1 = {width}")
        counts[key] = row = {}
        for token, count in slot:  # tests spelt out, not all(): this is most of a load
            if not (type(token) is int is type(count) and 0 <= token < size
                    and 0 <= count <= top):
                raise ValueError(f"token id {token!r} and count {count!r} after window "
                                 f"{key!r} must be integers in [0, {size}) and [0, float max]")
            row[token] = count
    return counts


def _normalized(weights: np.ndarray) -> "Distribution | None":
    """Add-k weights divided as ``Distribution()`` divides them (by their
    total, then by the quotient's sum), or None when they total a non-finite
    number; checked counts and a finite ``k > 0`` make the row valid."""
    total = weights.sum()
    if not math.isfinite(total):
        return None
    probs = weights / total
    return Distribution._already_normalized(probs / float(probs.sum()))


@functools.cache
def _smoothed_uniform(smoothing_k: float, size: int) -> "Distribution | None":
    """The row of every window with no counts, shared by all models with the
    same ``(smoothing_k, size)``, or None when its weights total inf."""
    with np.errstate(over="ignore"):  # such a k is refused, not warned of
        return _normalized(np.full(size, smoothing_k, dtype=np.float64))


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


def check_vocabularies(members: Sequence, vocab: Vocabulary, owner: str) -> Vocabulary:
    """Refuse a member whose vocabulary is not ``owner``'s ``vocab``; return ``vocab``."""
    for i, model in enumerate(members):
        if model.vocab != vocab:
            raise ValueError(f"ensemble member {i} has {model.vocab!r}, not {owner}'s {vocab!r}")
    return vocab


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
    finite.  ``counts`` maps windows of ``order - 1`` token ids to token ids
    and counts, checked and copied as :func:`load_snapshot` checks them.
    Contexts shorter than ``order - 1`` are left-padded with the unknown
    token.  Models are immutable after training.  Every window never seen in
    training gets the one shared smoothed-uniform row of ``(k, |V|)``, kept
    when the model is built, so a ``k`` that is not finite or whose ``k *
    |V|`` is not finite is refused then.  A seen window gets its row built
    on first use and cached per model; one whose weights total a non-finite
    number is refused then, before it is cached or returned.
    """

    def __init__(self, order: int, smoothing_k: float, vocab: Vocabulary,
                 counts: dict[tuple[int, ...], dict[int, int]] | None = None):
        self.order = check_positive_int(order, "order")
        self.context_width = self.order - 1
        self.smoothing_k = check_smoothing(smoothing_k)
        self.vocab = vocab
        self._unseen = _smoothed_uniform(self.smoothing_k, vocab.size)
        if self._unseen is None:
            raise ValueError(f"smoothing_k {self.smoothing_k!r} over {vocab.size} tokens "
                             f"totals inf, which is not finite")
        self.counts = _checked_counts(((w, s.items()) for w, s in (counts or {}).items()),
                                      self.context_width, vocab.size)
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
        slot = self.counts.get(window)
        if slot is None:
            return self._unseen
        weights = np.full(self.vocab.size, self.smoothing_k, dtype=np.float64)
        for token, count in slot.items():
            weights[token] += count
        dist = _normalized(weights)
        if dist is None:
            raise ValueError(f"counts after {window!r} total {float(weights.sum())}, "
                             f"which is not finite")
        self._cache[window] = dist
        return dist


def train_ngram(data: Iterable[Sequence[int]], order: int, smoothing_k: float,
                vocab: Vocabulary) -> NGramModel:
    """Train an add-k n-gram model on token-id sequences.

    Counts come from every length-``order`` window contained in a sequence;
    sequences shorter than ``order`` contribute nothing.  Empty data is not
    an error: the model then predicts the uniform add-k distribution
    everywhere.  A token id that is not an integer (``1.7``, ``2.0``,
    ``"2"``) or is outside the vocabulary is refused.
    """
    model = NGramModel(order, smoothing_k, vocab)
    need, known = model.order - 1, frozenset(range(vocab.size))
    for seq in data:
        try:
            ids = list(map(operator.index, seq))
        except TypeError:
            bad = next(t for t in seq if not hasattr(t, "__index__"))
            raise ValueError(f"token id {bad!r} is not an integer") from None
        if not known.issuperset(ids):  # one C-level pass; min() and max() take two
            raise ValueError(f"token ids {sorted({*ids} - known)} are not in 0..{len(known) - 1}")
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
        self.vocab = check_vocabularies(self.members, self.members[0].vocab, "member 0")
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


# The kind, role and fields of a snapshot's records: vocab, public, each member
_RECORDS = (("vocab", None, ("tokens",)),
            ("ngram", "public", ("order", "smoothing_k", "counts")),
            ("ngram", "member", ("index", "order", "smoothing_k", "counts")))


def load_snapshot(path) -> tuple[Vocabulary, NGramModel, list[NGramModel]]:
    """Read a snapshot in the one order :func:`save_snapshot` writes it: the
    vocab record, the public record, then members 0..N-1, failing closed.

    A ``ValueError`` naming the line refuses a record other than the one its
    position requires, a missing field, a field of the wrong type or range
    (vocab tokens that are not distinct strings, or a ``smoothing_k``,
    window, token id or count that :class:`NGramModel` refuses, even in a
    window no query reaches) and a member unlike member 0 in order or ``k``.
    """
    vocab, models = None, []  # the public model, then the members
    with open(path, "r", encoding="utf-8") as fh:
        records = ((number, line) for number, line in enumerate(fh, 1) if line.strip())
        for position, (number, line) in enumerate(records):
            kind, role, fields = _RECORDS[min(position, 2)]
            want = f"member {position - 2}" if role == "member" else f"the {role or kind} record"
            try:  # a refusal of wrong type or range names the line
                record = json.loads(line)
                dct = record if isinstance(record, dict) else {}
                if (got := (dct.get("kind"), dct.get("role"))) != (kind, role):
                    raise ValueError(f"expected {want}, got kind {got[0]!r} and role {got[1]!r}")
                if missing := [name for name in fields if name not in record]:
                    raise ValueError(f"{role or kind} record misses {', '.join(missing)}")
                if kind == "vocab":
                    if not (isinstance(record["tokens"], list)
                            and all(isinstance(t, str) for t in record["tokens"])):
                        raise ValueError("vocab tokens must be a list of strings")
                    vocab = Vocabulary(record["tokens"])  # too few or repeated tokens are refused
                    continue
                if role == "member" and not (type(index := record["index"]) is int
                                             and index == position - 2):
                    raise ValueError(f"expected {want}, got member index {index!r}")
                model = NGramModel(record["order"], record["smoothing_k"], vocab)
                model.counts = _checked_counts(record["counts"], model.context_width, vocab.size)
                first = models[1] if len(models) > 1 else model  # member 0, once there is one
                if (model.order, model.smoothing_k) != (first.order, first.smoothing_k):
                    raise ValueError(f"member of order {model.order} and smoothing_k "
                                     f"{model.smoothing_k} differs from member 0's "
                                     f"{first.order} and {first.smoothing_k}")
                models.append(model)
            except (TypeError, ValueError, OverflowError) as err:
                raise ValueError(f"snapshot line {number}: {err}") from None
    if not models:
        raise ValueError("snapshot is missing the vocab or public model record")
    return vocab, models[0], models[1:]
