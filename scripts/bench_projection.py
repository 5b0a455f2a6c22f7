"""Record and replay the projection searches of three fixture workloads.

Records every call of the projection search (``mollifier._search_lambdas``,
the unchecked search behind ``solve_lambdas``) that the answer path makes in

  serve-bigram        an order-2 session, q=0.03, eps_g=8, T=1024, conservative
  serve-trigram-wide  an order-3 session, q=0.25, eps_g=32, T=512, paper-faithful
  compare             one ``run_comparison`` of the fixture config (runs=1),
                      whose evaluation blocks project many queries per call

Every call passes a ``(k, V)`` stack of references, row ``j`` the public
row of pair ``j``'s query, and the replays call the search as the answer
path does, so they time that one form without the entry checks of
``solve_lambdas``.

Serve sessions generate 16 tokens from each two-token prompt drawn from the
test corpus, feeding every sampled token back.  The recorded calls are then
replayed and, per workload, the script prints the number of calls, the mean
selected (query, member) pairs per call and the mean rows per call (the
answer path projects each distinct pair of row objects once, so rows can be
fewer than pairs), the ball-test (``_in_ball``) calls per solve, the share of
the rows the predictor was asked about whose predicted walk certified ("-"
where it was asked about none), the share of searched rows (those below
weight 1) in solves past the certify gate, which the predictor never sees,
the ball-test calls per solve that the one-halving loop made after a walk
failed or in place of one, the share of tested mixtures that the exact
divergence kernel decided rather than the power sums, the median over
repeats of the microseconds per solve, a digest of the weights the replayed
calls return, which a change that only makes the search faster must not
move, and a digest of the per-(query, member) weights that each answer
returned, which a change that only removes repeated work must not move.

Usage: python scripts/bench_projection.py [--repeats R] [--seed S]
Run it from the repository root: the fixture config names its corpora by
paths relative to it.
"""

import argparse
import hashlib
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pmixed.mollifier as mollifier  # noqa: E402
import pmixed.protocol as protocol  # noqa: E402
from pmixed.accounting import EpsMode, PrivacyParams  # noqa: E402
from pmixed.experiment import (ExperimentConfig, _load_inputs, _train_arms,  # noqa: E402
                               run_comparison)
from pmixed.models import load_corpus  # noqa: E402

CONFIG = ROOT / "data" / "twodomain" / "config.json"
STEPS_PER_PROMPT = 16
PROMPT_LENGTH = 2
SERVE = {  # name: (order, q, eps_g, T, mode)
    "serve-bigram": (2, 0.03, 8.0, 1024, EpsMode.CONSERVATIVE),
    "serve-trigram-wide": (3, 0.25, 32.0, 512, EpsMode.PAPER_FAITHFUL),
}


def _recording(run) -> tuple[list[tuple], list[np.ndarray]]:
    """The arguments of every search call that ``run()`` makes, and the
    per-(query, member) weights of every answer that selected a member."""
    calls, pairs = [], []
    solve, answer = protocol._search_lambdas, protocol.PredictionSession._answer

    def record(*args):
        calls.append(args)
        return solve(*args)

    def answered(self, queries):
        result = answer(self, queries)
        if result[4].size:
            pairs.append(result[4])
        return result

    protocol._search_lambdas, protocol.PredictionSession._answer = record, answered
    try:
        run()
    finally:
        protocol._search_lambdas, protocol.PredictionSession._answer = solve, answer
    return calls, pairs


def _serve_calls(config: ExperimentConfig, name: str,
                 seed: int) -> tuple[list[tuple], list[np.ndarray]]:
    order, q, eps_g, T, mode = SERVE[name]
    vocab, private, public = _load_inputs(config.private_corpus_path,
                                          config.public_corpus_path, config.vocab_path)
    members, public_model = _train_arms(vocab, private, public, config.n_models, order,
                                        config.smoothing_k, config.seed)
    params = PrivacyParams(eps_g=eps_g, delta=config.delta, T=T, alpha=config.alpha, q=q,
                           N=len(members))
    session = protocol.PredictionSession(members, public_model, params, mode=mode, seed=seed)
    rng = random.Random(seed)
    docs = [d for d in load_corpus(config.test_corpus_path) if len(d) >= PROMPT_LENGTH]

    def run():
        for _ in range(T // STEPS_PER_PROMPT):
            doc = rng.choice(docs)
            start = rng.randrange(len(doc) - PROMPT_LENGTH + 1)
            ids = vocab.encode(doc[start:start + PROMPT_LENGTH])
            for _ in range(STEPS_PER_PROMPT):
                ids.append(session.respond(ids)[0])

    return _recording(run)


def _verdict_calls(calls: list[tuple]) -> tuple[int, int, int, int, int, int, float, str]:
    """Ball-test calls over one replay; the predicted walks; the searched rows;
    the rows the predictor was asked about and those whose predicted grid
    point was their weight, so that one call certified their walk; the
    searched rows of solves past the certify gate; the share of tested
    mixtures that the exact kernel decided; and the digest of the weights."""
    count = walks = searched = asked = certified = gated = tested = exact = 0
    originals = {"_in_ball": mollifier._in_ball, "_renyi_arrays": mollifier._renyi_arrays}
    grid_index = mollifier._grid_index
    named = []

    def in_ball(mixtures, refs, alpha, beta):
        nonlocal count, tested
        count += 1
        tested += mixtures[..., 0].size
        return originals["_in_ball"](mixtures, refs, alpha, beta)

    def kernel(mixtures, refs, alpha, symmetric):
        nonlocal exact
        exact += mixtures[..., 0].size
        return originals["_renyi_arrays"](mixtures, refs, alpha, symmetric)

    def recorded(lam, steps):
        named.append((grid_index(lam, steps), steps))
        return named[-1][0]

    digest = hashlib.sha256()
    mollifier._in_ball, mollifier._renyi_arrays = in_ball, kernel
    mollifier._grid_index = recorded
    try:
        for args in calls:
            named.clear()
            weights = mollifier._search_lambdas(*args)
            digest.update(weights.tobytes())
            below = weights[weights < 1.0]
            searched += below.size
            gated += 0 if named else below.size
            for k, steps in named:
                walks += 1
                asked += k.size
                certified += int(np.sum(k * 0.5**steps == below))
    finally:
        for name, fn in originals.items():
            setattr(mollifier, name, fn)
        mollifier._grid_index = grid_index
    return (count, walks, searched, asked, certified, gated, exact / max(tested, 1),
            digest.hexdigest()[:16])


def _us_per_solve(calls: list[tuple], repeats: int) -> float:
    solve = mollifier._search_lambdas
    clock = time.perf_counter
    totals = []
    for _ in range(repeats):
        start = clock()
        for args in calls:
            solve(*args)
        totals.append(clock() - start)
    return statistics.median(totals) / len(calls) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed replays per workload")
    parser.add_argument("--seed", type=int, default=0, help="serve session and prompt seed")
    args = parser.parse_args(argv)
    config = ExperimentConfig.from_file(CONFIG).replace(runs=1)
    workloads = {name: _serve_calls(config, name, args.seed) for name in SERVE}
    workloads["compare"] = _recording(lambda: run_comparison(config))
    print(f"{'workload':<20} {'calls':>6} {'pairs/call':>10} {'rows/call':>9} "
          f"{'tests/solve':>11} {'certified':>9} {'past gate':>9} {'loop/solve':>10} "
          f"{'exact':>9} {'us/solve':>9}  {'call weights':<16}  pair weights")
    for name, (calls, pairs) in workloads.items():
        rows = np.mean([len(c[0]) for c in calls])
        tests, walks, searched, asked, certified, gated, exact, digest = _verdict_calls(calls)
        # each solve makes one call at weight 1 and one per predicted walk
        loop = (tests - len(calls) - walks) / len(calls)
        us = _us_per_solve(calls, args.repeats)
        pair_digest = hashlib.sha256(b"".join(p.tobytes() for p in pairs)).hexdigest()[:16]
        print(f"{name:<20} {len(calls):>6} {sum(p.size for p in pairs) / len(calls):>10.1f} "
              f"{rows:>9.1f} {tests / len(calls):>11.2f} "
              f"{f'{certified / asked:.3f}' if asked else '-':>9} {gated / max(searched, 1):>9.3f} "
              f"{loop:>10.2f} {exact:>9.2e} {us:>9.1f}  {digest:<16}  {pair_digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
