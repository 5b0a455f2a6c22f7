"""The benchmark's workloads: inputs made from a seed, one timed unit, output checks.

A unit is the piece of work timed as a whole.  Its set-up is timed as
``setup_s`` and the rest as ``wall_s``:

  compare             set-up loads the fixture corpora and trains the 80
                      members and the public model; the unit is one
                      ``run_comparison`` call on the fixture config.
  serve-bigram,       set-up loads a snapshot and opens one session; the
  serve-trigram-wide  unit generates 16 tokens from each two-token prompt,
                      feeding every sampled token back, which answers
                      exactly T queries, then sends one more query, which
                      must be refused.

The seed decides everything the program receives: the config seed (which
partitions the private corpus), the session seeds and the prompts.  A
compare run gives every unit the same inputs.  A serve run trains one
snapshot and gives unit ``i`` its own session seed and prompts, drawn from
(seed, i), so that a run covers several draws instead of timing one draw
repeatedly: on serve-trigram-wide the number of bisection projections in a
session moves by about 11% between draws.  Units with the same inputs must
produce the same output digest.

pmixed is reached through module attributes at call time, so the tracer's
wrappers see the calls made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pmixed.accounting as pm_accounting
import pmixed.experiment as pm_experiment
import pmixed.models as pm_models
import pmixed.mollifier as pm_mollifier
import pmixed.protocol as pm_protocol

FIXTURE_CONFIG = "data/twodomain/config.json"
COMPARE_RUNS = 1
STEPS_PER_PROMPT = 16  # T // STEPS_PER_PROMPT prompts per session
PROMPT_LENGTH = 2
# atol for the released aggregate against the mean of the re-derived
# projections: a reordered float64 sum over <= 80 rows stays far below it
AGGREGATE_ATOL = 1e-12
MAX_PROBLEMS = 5


@dataclass
class Unit:
    """Timings and outputs of one unit."""

    inputs: int  # units with equal inputs must produce equal outputs
    setup_s: float
    wall_s: float
    attempted: int  # protocol queries sent, not counting the over-budget probe
    answered: int
    latencies: list[float]
    extras: dict[str, float] = field(default_factory=dict)
    state: object = None


@dataclass
class Verdict:
    digest: str
    problems: list[str]


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config_seed(seed: int) -> int:
    return random.Random(seed).randrange(2**31)


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "pmixed.cli", *args]


@contextlib.contextmanager
def _respond_clock(latencies: list[float]):
    """Time every PredictionSession.respond call made inside the block.

    run_comparison answers its scored positions internally, so this clock
    pair is the only way to see per-query latency on compare; it costs well
    under a microsecond on a call of about 2 ms.
    """
    cls = pm_protocol.PredictionSession
    original = vars(cls)["respond"]
    clock = time.perf_counter

    def respond(self, query):
        start = clock()
        try:
            return original(self, query)
        finally:
            latencies.append(clock() - start)

    cls.respond = respond
    try:
        yield
    finally:
        cls.respond = original


class Compare:
    """The researcher's three-arm evaluation on the committed fixture."""

    name = "compare"

    def __init__(self, seed: int):
        self.config_seed = _config_seed(seed)
        base = pm_experiment.ExperimentConfig.from_file(FIXTURE_CONFIG)
        self.config = base.replace(seed=self.config_seed, runs=COMPARE_RUNS)
        self.positions = sum(len(doc) for doc in pm_models.load_corpus(self.config.test_corpus_path))

    def prepare(self) -> None:
        pass

    def cold_start_argv(self) -> list[str]:
        """A fresh `pmixed compare` that scores one position per test document."""
        return _cli("compare", "--config", FIXTURE_CONFIG, "--runs", "1",
                    "--max-seq-len", "1", "--seed", str(self.config_seed))

    def setup(self, index: int) -> None:
        """What run_comparison does before its arms: load the corpora, train 81 models."""
        config = self.config
        vocab = pm_models.Vocabulary.from_file(config.vocab_path)
        private = [vocab.encode(d) for d in pm_models.load_corpus(config.private_corpus_path)]
        public = [vocab.encode(d) for d in pm_models.load_corpus(config.public_corpus_path)]
        pm_models.load_corpus(config.test_corpus_path)
        parts = pm_models.partition_corpus(private, config.n_models, config.seed)
        members = [pm_models.train_ngram(p, config.order, config.smoothing_k, vocab) for p in parts]
        members.append(pm_models.build_public_model(public, config.order, config.smoothing_k, vocab))

    def execute(self, index: int, clock_queries: bool) -> Unit:
        config = self.config
        start = time.perf_counter()
        self.setup(index)
        ready = time.perf_counter()
        latencies: list[float] = []
        with _respond_clock(latencies) if clock_queries else contextlib.nullcontext():
            report = pm_experiment.run_comparison(config)
        done = time.perf_counter()
        pmixed_arm = report.arms.get("pmixed", {})
        answered = sum(pmixed_arm.get("queries", []))
        text = report.to_jsonl()
        return Unit(inputs=0, setup_s=ready - start, wall_s=done - ready,
                    attempted=self.positions * config.runs, answered=answered,
                    latencies=latencies,
                    extras={"experiment.report_bytes": len(text.encode("utf-8"))},
                    state=(report, text))

    def verify(self, unit: Unit) -> Verdict:
        report, text = unit.state
        problems = []
        for arm in ("public", "ensemble", "pmixed"):
            entry = report.arms.get(arm)
            if entry is None or entry["failed"] or len(entry["per_run"]) != self.config.runs:
                problems.append(f"arm {arm} failed or incomplete: {entry and entry.get('error')}")
        if not problems:
            arms = report.arms
            for run in range(self.config.runs):
                queries = arms["pmixed"]["queries"][run]
                if not 0 < queries <= self.config.T:
                    problems.append(f"run {run}: pmixed answered {queries} queries, T={self.config.T}")
                ppl = {arm: arms[arm]["per_run"][run] for arm in arms}
                if not ppl["ensemble"] < ppl["pmixed"] < ppl["public"]:
                    problems.append(f"run {run}: perplexity order broken {ppl}")
        return Verdict(hashlib.sha256(text.encode("utf-8")).hexdigest(), problems)


@dataclass(frozen=True)
class ServeSpec:
    order: int
    q: float
    eps_g: float
    T: int
    mode: str


SERVE_SPECS = {
    "serve-bigram": ServeSpec(order=2, q=0.03, eps_g=8.0, T=1024, mode="conservative"),
    "serve-trigram-wide": ServeSpec(order=3, q=0.25, eps_g=32.0, T=512, mode="paper-faithful"),
}


class Serve:
    """The `pmixed predict` user: one session of generations from a snapshot."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.spec = spec = SERVE_SPECS[name]
        self.seed = seed
        self.config_seed = _config_seed(seed)
        self.base = pm_experiment.ExperimentConfig.from_file(FIXTURE_CONFIG)
        self.test_docs = [d for d in pm_models.load_corpus(self.base.test_corpus_path)
                          if len(d) >= PROMPT_LENGTH]
        self.snapshot = work_dir / f"snapshot-{name}.jsonl"
        self.trace_path = work_dir / f"trace-{name}.jsonl"
        self.mode = pm_accounting.EpsMode(spec.mode)

    def inputs(self, index: int) -> tuple[int, list[list[str]]]:
        """Session seed and prompts of unit ``index``."""
        rng = random.Random(f"{self.seed}/{index}")
        session_seed = rng.randrange(2**31)
        prompts = []
        for _ in range(self.spec.T // STEPS_PER_PROMPT):
            doc = rng.choice(self.test_docs)
            start = rng.randrange(len(doc) - PROMPT_LENGTH + 1)
            prompts.append(doc[start:start + PROMPT_LENGTH])
        return session_seed, prompts

    def _privacy_flags(self) -> list[str]:
        b, s = self.base, self.spec
        return ["--eps-g", repr(s.eps_g), "--delta", repr(b.delta), "--queries", str(s.T),
                "--alpha", str(b.alpha), "--q", repr(s.q), "--mode", s.mode]

    def prepare(self) -> None:
        """Write the workload's snapshot with `pmixed train`, as a user would."""
        b = self.base
        subprocess.run(_cli("train", "--private-corpus", b.private_corpus_path,
                            "--public-corpus", b.public_corpus_path, "--vocab", b.vocab_path,
                            "--n-models", str(b.n_models), "--order", str(self.spec.order),
                            "--smoothing-k", repr(b.smoothing_k), "--seed", str(self.config_seed),
                            "--output", str(self.snapshot)),
                       check=True, stdout=subprocess.DEVNULL, timeout=120)

    def cold_start_argv(self) -> list[str]:
        """A fresh `pmixed predict --steps 1` with the workload's snapshot and flags."""
        session_seed, prompts = self.inputs(0)
        return _cli("predict", "--snapshot", str(self.snapshot), "--steps", "1",
                    "--context", " ".join(prompts[0]), "--seed", str(session_seed),
                    *self._privacy_flags())

    def setup(self, index: int):
        """Load the snapshot and open the session of unit ``index``."""
        spec, b = self.spec, self.base
        vocab, public, members = pm_models.load_snapshot(self.snapshot)
        params = pm_accounting.PrivacyParams(eps_g=spec.eps_g, delta=b.delta, T=spec.T,
                                             alpha=b.alpha, q=spec.q, N=len(members))
        session = pm_protocol.PredictionSession(members, public, params, mode=self.mode,
                                                seed=self.inputs(index)[0])
        return vocab, public, members, session

    def execute(self, index: int, clock_queries: bool) -> Unit:
        spec = self.spec
        prompts = self.inputs(index)[1]
        clock = time.perf_counter
        start = clock()
        vocab, public, members, session = self.setup(index)
        ready = clock()
        latencies: list[float] = []
        records = []
        ids: list[int] = []
        for prompt in prompts:
            ids = vocab.encode(prompt)
            for _ in range(STEPS_PER_PROMPT):
                sent = clock()
                token, record = session.respond(ids)
                latencies.append(clock() - sent)
                records.append(record)
                ids.append(token)
        try:
            session.respond(ids)
            refused = False
        except pm_accounting.BudgetExhaustedError:
            refused = True
        done = clock()
        return Unit(inputs=index, setup_s=ready - start, wall_s=done - ready, attempted=spec.T,
                    answered=len(records), latencies=latencies,
                    extras={"models.snapshot_bytes": self.snapshot.stat().st_size},
                    state=(public, members, session, records, refused))

    def verify(self, unit: Unit) -> Verdict:
        """Re-derive every release from the public API and check the ledger."""
        public, members, session, records, refused = unit.state
        params = session.params
        alpha, beta = params.alpha, session.beta_star
        problems = []
        for t, record in enumerate(records):
            context = record.query_context
            public_dist = public.distribution(context)
            if sorted(record.mixing_weights) != sorted(record.subset):
                problems.append(f"query {t}: weights {record.mixing_weights} vs subset {record.subset}")
                continue
            if not record.subset:
                expected = public_dist.probs
            else:
                projections = []
                for i in record.subset:
                    weight = record.mixing_weights[i]
                    projected = pm_mollifier.mix(members[i].distribution(context), public_dist, weight)
                    if not pm_mollifier.mollifier_membership(projected, public_dist, alpha, beta):
                        problems.append(f"query {t}: member {i} at weight {weight} is outside the ball")
                    projections.append(projected.probs)
                expected = np.mean(projections, axis=0)
            if not np.allclose(record.aggregate.probs, expected, rtol=0.0, atol=AGGREGATE_ATOL):
                problems.append(f"query {t}: released aggregate is not the mean of the projections")
        ledger = session.ledger
        if ledger.queries_answered != params.T or len(records) != params.T:
            problems.append(f"ledger answered {ledger.queries_answered}, records {len(records)}, T={params.T}")
        if not ledger.spent <= params.eps_g:
            problems.append(f"ledger spent {ledger.spent} > eps_g {params.eps_g}")
        if not refused:
            problems.append(f"query {params.T + 1} was answered past the budget")
        pm_experiment.serialize_trace(records, self.trace_path, session=session)
        return Verdict(_sha256_file(self.trace_path), problems[:MAX_PROBLEMS])


def make(name: str, seed: int, work_dir: Path):
    if name == Compare.name:
        return Compare(seed)
    return Serve(name, seed, work_dir)


NAMES = (Compare.name, *SERVE_SPECS)
