"""Experiment driver: corpus ingestion, arm comparison, sweeps, reports.

The comparison evaluates three arms on the same test positions:

  public    - the public model alone (perfectly private, no utility gain)
  ensemble  - the unprojected uniform average of all private models (the
              no-privacy endpoint)
  pmixed    - the private prediction protocol, which sits between the two

The protocol arm scores its positions ``QUERY_BLOCK`` queries at a time;
the constant exists to bound memory, since a block's rows and projection
temporaries are held at once.  The public and ensemble arms do not depend
on the run seed, so each is scored once per comparison.

Reports are line-delimited JSON records with sorted keys and floats rounded
to 9 significant digits, so identical configurations produce byte-identical
report files.  Sweeps additionally emit a flat tab-separated table.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .accounting import (Accountant, EpsMode, PrivacyParams, check_nonnegative_int,
                         check_positive_int)
from .models import (
    EnsembleAverageModel,
    LanguageModel,
    Vocabulary,
    build_public_model,
    check_smoothing,
    load_corpus,
    partition_corpus,
    train_ngram,
)
from .protocol import PredictionSession, QueryRecord

# Stated in every report: scoring a test position releases a distribution,
# so it costs a budgeted query like any user-facing answer would.
BUDGET_POLICY = "every scored test position charges one budgeted query"

# Queries answered per protocol call when scoring test positions.  A block's
# (query, member) rows and the projection's temporaries are held at once,
# so the block is sized to keep the evaluation's peak memory near that of
# one query at a time; larger blocks add memory and save little time.
QUERY_BLOCK = 64

# Sweepable hyperparameters: flag spelling -> config field
SWEEP_AXES = {
    "eps_G": "eps_g",
    "T": "T",
    "N": "n_models",
    "q": "q",
    "alpha": "alpha",
}


class ConfigError(ValueError):
    """An experiment configuration that cannot be run as given."""


def _check_output_path(path, label: str) -> None:
    """Refuse a file to be written whose directory does not exist, or that
    is itself a directory, before any work is done for it."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"{label} directory not found: {directory!r}")
    if os.path.isdir(path):
        raise ConfigError(f"{label} path is a directory: {str(path)!r}")


class PartialEvaluationError(RuntimeError):
    """The privacy budget ran out before all test positions were scored."""

    def __init__(self, positions_scored: int, nll_total: float):
        super().__init__(
            f"budget exhausted after scoring {positions_scored} positions"
        )
        self.positions_scored = positions_scored
        self.nll_total = nll_total


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one comparison; see the README for fields."""

    private_corpus_path: str
    public_corpus_path: str
    test_corpus_path: str
    vocab_path: str | None = None
    order: int = 2
    smoothing_k: float = 0.1
    eps_g: float = 8.0
    delta: float = 1e-5
    T: int = 1024
    alpha: int = 3
    q: float = 0.03
    n_models: int = 80
    mode: EpsMode = EpsMode.CONSERVATIVE
    seed: int = 0
    runs: int = 8
    max_seq_len: int | None = None
    output_path: str | None = None

    def params(self) -> PrivacyParams:
        return PrivacyParams(
            eps_g=self.eps_g,
            delta=self.delta,
            T=self.T,
            alpha=self.alpha,
            q=self.q,
            N=self.n_models,
        )

    def validate(self) -> "ExperimentConfig":
        """Check the paths and values; returns this config with every count
        and the seed as an int, the form a run uses."""
        for label, path in (
            ("private corpus", self.private_corpus_path),
            ("public corpus", self.public_corpus_path),
            ("test corpus", self.test_corpus_path),
        ):
            if not path or not os.path.exists(path):
                raise ConfigError(f"{label} path not found: {path!r}")
        if self.vocab_path is not None and not os.path.exists(self.vocab_path):
            raise ConfigError(f"vocab path not found: {self.vocab_path!r}")
        if self.output_path:
            _check_output_path(self.output_path, "output")
        if not isinstance(self.mode, EpsMode):
            raise ConfigError(f"mode must be an EpsMode, got {self.mode!r}")
        try:
            ints = {"runs": check_positive_int(self.runs, "runs")}
            if self.max_seq_len is not None:
                ints["max_seq_len"] = check_positive_int(self.max_seq_len, "max_seq_len")
            params = self.params()
            check_smoothing(self.smoothing_k)
            ints.update(T=params.T, alpha=params.alpha, n_models=params.N,
                        order=check_positive_int(self.order, "order"),
                        seed=check_nonnegative_int(self.seed, "seed"))
        except ValueError as err:
            raise ConfigError(str(err)) from None
        return self.replace(**ints)

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["mode"] = self.mode.value
        # where the report lands is not part of the experiment's identity
        data.pop("output_path", None)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        mode = data.get("mode", EpsMode.CONSERVATIVE)
        if isinstance(mode, str):
            mode = EpsMode(mode)
        data["mode"] = mode
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = [f.name for f in dataclasses.fields(cls)
                   if f.default is dataclasses.MISSING and f.name not in data]
        if missing:
            raise ConfigError(f"config misses {', '.join(missing)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _round9(value):
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.9g}")
        return value
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round9(v) for v in value]
    return value


def _record_line(record: dict) -> str:
    return json.dumps(_round9(record), sort_keys=True, separators=(",", ":")) + "\n"


def _perplexity(target_probs: Iterator[float], n_positions: int = 0) -> float:
    """exp of the mean negative log-likelihood of the true next tokens, given
    each one's probability; fewer than ``n_positions`` means the budget ran out."""
    nll_total = 0.0
    positions = 0
    for prob in target_probs:
        nll_total += math.inf if prob <= 0.0 else -math.log(prob)
        positions += 1
    if positions < n_positions:
        raise PartialEvaluationError(positions, nll_total)
    if positions == 0:
        raise ValueError("test corpus contains no positions to score")
    return math.exp(nll_total / positions)


def perplexity_of_model(model: LanguageModel, test_sequences: Sequence[Sequence[int]]) -> float:
    """exp of the mean negative log-likelihood over every next-token position."""
    probs = (float(model.distribution(seq[:t]).probs[seq[t]])
             for seq in test_sequences for t in range(len(seq)))
    return _perplexity(probs)


def _target_probabilities(session: PredictionSession,
                          test_sequences: Sequence[Sequence[int]]) -> Iterator[float]:
    """Released probability of each position's true next token, in position
    order, answered ``QUERY_BLOCK`` queries at a time; stops early when the
    session's budget runs out."""
    contexts = [seq[:t] for seq in test_sequences for t in range(len(seq))]
    targets = [seq[t] for seq in test_sequences for t in range(len(seq))]
    done = 0
    while done < len(contexts):
        size = min(QUERY_BLOCK, len(contexts) - done, session.ledger.remaining_queries)
        if size == 0:
            return
        released = session.answer_block(contexts[done:done + size])
        yield from released[np.arange(size), targets[done:done + size]].tolist()
        done += size


def perplexity_of_protocol(session: PredictionSession,
                           test_sequences: Sequence[Sequence[int]]) -> float:
    """Protocol perplexity; every scored position charges one budget unit.

    The released aggregate distribution scores the true next token.  The
    positions are answered in blocks of ``QUERY_BLOCK`` queries through
    :meth:`PredictionSession.answer_block`, which releases, draws and charges
    exactly what one :meth:`~PredictionSession.respond` call per position
    would.  If the session runs out of budget mid-evaluation a
    :class:`PartialEvaluationError` carrying the positions scored so far is
    raised.
    """
    return _perplexity(_target_probabilities(session, test_sequences),
                       sum(len(seq) for seq in test_sequences))


@dataclass
class ExperimentReport:
    """Per-arm results plus accounting, serializable as JSON lines."""

    config: dict
    seed_schedule: list[int]
    accountant: dict | None = None
    arms: dict = field(default_factory=dict)
    sweep_rows: list[dict] = field(default_factory=list)

    def add_arm(self, name: str, per_run: list[float], queries: list[int] | None = None,
                error: str | None = None) -> None:
        entry: dict = {"failed": error is not None}
        if error is not None:
            entry["error"] = error
            entry["per_run"] = []
        else:
            entry["per_run"] = list(per_run)
            if len(set(per_run)) == 1:
                # a deterministic arm; np.std of equal values need not be exactly 0
                entry["mean"], entry["stddev"] = float(per_run[0]), 0.0
            else:
                entry["mean"] = float(np.mean(per_run))
                entry["stddev"] = float(np.std(per_run))
        if queries is not None:
            entry["queries"] = list(queries)
        self.arms[name] = entry

    def to_records(self) -> list[dict]:
        records: list[dict] = [{"record": "config", **self.config,
                                "seed_schedule": self.seed_schedule,
                                "budget_policy": BUDGET_POLICY}]
        if self.accountant is not None:
            records.append({"record": "accountant", **self.accountant})
        for name in sorted(self.arms):
            entry = self.arms[name]
            if not entry["failed"]:
                for r, value in enumerate(entry["per_run"]):
                    run_record = {
                        "record": "arm_run",
                        "arm": name,
                        "run": r,
                        "seed": self.seed_schedule[r],
                        "perplexity": value,
                    }
                    if "queries" in entry:
                        run_record["queries"] = entry["queries"][r]
                    records.append(run_record)
            summary = {"record": "arm_summary", "arm": name, "failed": entry["failed"]}
            for key in ("mean", "stddev", "error"):
                if key in entry:
                    summary[key] = entry[key]
            summary["runs"] = len(entry["per_run"])
            records.append(summary)
        for row in self.sweep_rows:
            records.append({"record": "sweep_row", **row})
        return records

    def to_jsonl(self) -> str:
        return "".join(_record_line(record) for record in self.to_records())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def sweep_table(self) -> str:
        """Flat tab-separated view of the sweep rows."""
        columns = ["axis", "value", "arm", "mean", "stddev", "beta_star",
                   "per_query_eps", "composed_eps", "dp_eps", "failed"]
        lines = ["\t".join(columns)]
        for row in self.sweep_rows:
            rounded = _round9(row)
            lines.append("\t".join(str(rounded.get(col, "")) for col in columns))
        return "\n".join(lines) + "\n"

    def write_sweep_table(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.sweep_table())


def serialize_trace(records: Sequence[QueryRecord], path, session: PredictionSession) -> None:
    """Write a session trace (subset membership and mixing weights) as JSON
    lines, preceded by the session's accounting record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_record_line({"record": "accountant", **session.accountant.record(),
                               "queries_answered": session.ledger.queries_answered,
                               "spent_eps": session.ledger.spent}))
        for t, record in enumerate(records):
            fh.write(_record_line({
                "record": "query",
                "index": t,
                "context": list(record.query_context),
                "subset": list(record.subset),
                "mixing_weights": {str(i): w for i, w in sorted(record.mixing_weights.items())},
                "sampled_token": record.sampled_token,
                "aggregate": [float(p) for p in record.aggregate.probs],
            }))


def _load_inputs(private_path, public_path, vocab_path=None):
    """The vocabulary and the encoded private and public corpora; the
    vocabulary is read from ``vocab_path``, or derived from both corpora."""
    private_docs = load_corpus(private_path)
    public_docs = load_corpus(public_path)
    if vocab_path is not None:
        vocab = Vocabulary.from_file(vocab_path)
    else:
        vocab = Vocabulary.from_corpus(private_docs + public_docs)
    encode = lambda docs: [vocab.encode(doc) for doc in docs]
    return vocab, encode(private_docs), encode(public_docs)


def _train_arms(vocab, private_seqs, public_seqs, n_models, order, smoothing_k, seed):
    """The ``n_models`` members, one per seeded partition of the private
    corpus, and the public model."""
    partitions = partition_corpus(private_seqs, n_models, seed)
    members = [train_ngram(part, order, smoothing_k, vocab) for part in partitions]
    public_model = build_public_model(public_seqs, order, smoothing_k, vocab)
    return members, public_model


def run_comparison(config: ExperimentConfig) -> ExperimentReport:
    """Train the ensemble and evaluate the three arms over seeded repetitions.

    A failing arm is marked failed in the report; the remaining arms are
    still evaluated and reported.
    """
    config = config.validate()
    vocab, private_seqs, public_seqs = _load_inputs(
        config.private_corpus_path, config.public_corpus_path, config.vocab_path)
    test_seqs = [vocab.encode(doc[:config.max_seq_len])
                 for doc in load_corpus(config.test_corpus_path)]
    members, public_model = _train_arms(vocab, private_seqs, public_seqs, config.n_models,
                                        config.order, config.smoothing_k, config.seed)
    params = config.params()
    seeds = [config.seed + r for r in range(config.runs)]
    report = ExperimentReport(config=config.to_dict(), seed_schedule=seeds)
    report.accountant = Accountant(params, config.mode).record()

    def run_arm(name, evaluate, seeded=True):
        # an unseeded arm is deterministic: score it once, report it per run
        try:
            if seeded:
                results = [evaluate(run_seed) for run_seed in seeds]
            else:
                results = [evaluate(None)] * len(seeds)
            report.add_arm(name, [value for value, _ in results],
                           [n_queries for _, n_queries in results])
        except Exception as err:  # record the failure, keep the other arms
            report.add_arm(name, [], error=f"{type(err).__name__}: {err}")

    run_arm("public", lambda s: (perplexity_of_model(public_model, test_seqs), 0),
            seeded=False)
    ensemble_model = EnsembleAverageModel(members)
    run_arm("ensemble", lambda s: (perplexity_of_model(ensemble_model, test_seqs), 0),
            seeded=False)

    def evaluate_pmixed(run_seed):
        session = PredictionSession(members, public_model, params,
                                    mode=config.mode, seed=run_seed)
        value = perplexity_of_protocol(session, test_seqs)
        return value, session.ledger.queries_answered

    run_arm("pmixed", evaluate_pmixed)
    if config.output_path:
        report.write(config.output_path)
    return report


def run_sweep(config: ExperimentConfig, axis: str, values: Sequence) -> ExperimentReport:
    """Repeat the comparison for each value of one hyperparameter.

    ``axis`` is one of ``eps_G``, ``T``, ``N``, ``q``, ``alpha``.  The base
    config is validated before any point, as :func:`run_comparison` would;
    a failing value is recorded as a failed row and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
    field_name = SWEEP_AXES[axis]
    config = config.validate()
    seeds = [config.seed + r for r in range(config.runs)]
    report = ExperimentReport(config=config.to_dict(), seed_schedule=seeds)
    caster = type(getattr(ExperimentConfig, field_name))
    if caster is int:
        fractional = [v for v in values if not float(v).is_integer()]
        if fractional:
            raise ConfigError(f"sweep axis {axis!r} takes integer values, got {fractional}")
    for value in map(caster, values):
        point_config = config.replace(**{field_name: value, "output_path": None})
        try:
            point = run_comparison(point_config)
        except Exception as err:
            report.sweep_rows.append({
                "axis": axis, "value": value, "arm": "", "failed": True,
                "error": f"{type(err).__name__}: {err}",
            })
            continue
        for arm in sorted(point.arms):
            entry = point.arms[arm]
            row = {"axis": axis, "value": value, "arm": arm, "failed": entry["failed"]}
            if entry["failed"]:
                row["error"] = entry["error"]
            else:
                row["mean"] = entry["mean"]
                row["stddev"] = entry["stddev"]
                row.update({k: point.accountant[k] for k in
                            ("beta_star", "per_query_eps", "composed_eps", "dp_eps")})
            report.sweep_rows.append(row)
    if config.output_path:
        report.write(config.output_path)
        report.write_sweep_table(str(config.output_path) + ".tsv")
    return report
