"""Command-line front end.

Subcommands:
  train    - build the partitioned ensemble and public model, save a snapshot
  predict  - answer next-token queries against a snapshot under a budget
  compare  - run the three-arm comparison experiment
  sweep    - repeat the comparison across one hyperparameter
  account  - print the accounting record for a parameter set, no models

Exit codes: 0 success, 1 runtime failure (including budget refusal),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .accounting import (Accountant, BudgetExhaustedError, EpsMode, PrivacyParams,
                         check_positive_int)
from .experiment import (
    SWEEP_AXES,
    ConfigError,
    ExperimentConfig,
    _load_inputs,
    _record_line,
    _train_arms,
    run_comparison,
    run_sweep,
    serialize_trace,
)
from .models import load_snapshot, save_snapshot
from .protocol import PredictionSession

_CONFIG_OVERRIDES = (
    ("--private-corpus", "private_corpus_path", str),
    ("--public-corpus", "public_corpus_path", str),
    ("--test-corpus", "test_corpus_path", str),
    ("--vocab", "vocab_path", str),
    ("--order", "order", int),
    ("--smoothing-k", "smoothing_k", float),
    ("--eps-g", "eps_g", float),
    ("--delta", "delta", float),
    ("--queries", "T", int),
    ("--alpha", "alpha", int),
    ("--q", "q", float),
    ("--n-models", "n_models", int),
    ("--runs", "runs", int),
    ("--max-seq-len", "max_seq_len", int),
)


def _add_privacy_flags(sub) -> None:
    sub.add_argument("--eps-g", type=float, default=8.0, dest="eps_g",
                     help="global privacy budget in nats")
    sub.add_argument("--delta", type=float, default=1e-5,
                     help="failure probability for the DP conversion")
    sub.add_argument("--queries", type=int, default=1024, dest="T",
                     help="query budget T")
    sub.add_argument("--alpha", type=int, default=3, help="Renyi order (integer >= 2)")
    sub.add_argument("--q", type=float, default=0.03, help="Poisson subsample probability")


def _add_mode_flag(sub) -> None:
    sub.add_argument("--mode", choices=[m.value for m in EpsMode],
                     default=None, help="per-query loss evaluation mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmixed",
        description="Differentially private next-token prediction over a model ensemble.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train and snapshot an ensemble")
    train.add_argument("--private-corpus", required=True)
    train.add_argument("--public-corpus", required=True)
    train.add_argument("--vocab", default=None,
                       help="vocab file; derived from the corpora when omitted")
    train.add_argument("--n-models", type=int, default=80)
    train.add_argument("--order", type=int, default=2)
    train.add_argument("--smoothing-k", type=float, default=0.1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", required=True, help="snapshot path")
    train.set_defaults(handler=_cmd_train)

    predict = commands.add_parser("predict", help="answer queries from a snapshot")
    predict.add_argument("--snapshot", required=True)
    predict.add_argument("--context", action="append", default=None,
                         help="context tokens (repeatable); reads stdin when omitted")
    predict.add_argument("--input", default=None, help="file of contexts, one per line")
    predict.add_argument("--steps", type=int, default=1,
                         help="tokens to generate per context (each costs one query)")
    _add_privacy_flags(predict)
    _add_mode_flag(predict)
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument("--trace", default=None, help="write the session trace here")
    predict.add_argument("--output", default=None, help="write responses here instead of stdout")
    predict.set_defaults(handler=_cmd_predict)

    compare = commands.add_parser("compare", help="run the three-arm comparison")
    _add_config_flags(compare)
    compare.set_defaults(handler=_cmd_compare)

    sweep = commands.add_parser("sweep", help="sweep one hyperparameter")
    _add_config_flags(sweep)
    sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    sweep.add_argument("--values", required=True,
                       help="comma-separated values for the swept hyperparameter")
    sweep.set_defaults(handler=_cmd_sweep)

    account = commands.add_parser("account", help="print the accounting record")
    _add_privacy_flags(account)
    account.add_argument("--n-models", type=int, default=80, dest="n_models")
    _add_mode_flag(account)
    account.add_argument("--output", default=None)
    account.set_defaults(handler=_cmd_account)

    return parser


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    for flag, dest, cast in _CONFIG_OVERRIDES:
        sub.add_argument(flag, dest=dest, type=cast, default=None)
    _add_mode_flag(sub)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--output", dest="output_path", default=None)


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    changes = {}
    for _, dest, _ in _CONFIG_OVERRIDES:
        value = getattr(args, dest, None)
        if value is not None:
            changes[dest] = value
    for dest in ("seed", "output_path"):
        value = getattr(args, dest, None)
        if value is not None:
            changes[dest] = value
    if args.mode is not None:
        changes["mode"] = EpsMode(args.mode)
    return config.replace(**changes)


def _cmd_train(args, out) -> int:
    vocab, private_seqs, public_seqs = _load_inputs(
        args.private_corpus, args.public_corpus, args.vocab)
    members, public = _train_arms(vocab, private_seqs, public_seqs, args.n_models,
                                  args.order, args.smoothing_k, args.seed)
    save_snapshot(args.output, vocab, public, members)
    print(f"wrote snapshot with {len(members)} members to {args.output}", file=out)
    return 0


def _iter_contexts(args):
    if args.context is not None:
        yield from args.context
    elif args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    yield line
    else:
        for line in sys.stdin:
            if line.strip():
                yield line


def _cmd_predict(args, out) -> int:
    check_positive_int(args.steps, "--steps")
    vocab, public, members = load_snapshot(args.snapshot)
    params = PrivacyParams(eps_g=args.eps_g, delta=args.delta, T=args.T,
                           alpha=args.alpha, q=args.q, N=len(members))
    mode = EpsMode(args.mode) if args.mode else EpsMode.CONSERVATIVE
    session = PredictionSession(members, public, params, mode=mode, seed=args.seed)
    sink = open(args.output, "w", encoding="utf-8") if args.output else out
    trace = []
    try:
        for raw in _iter_contexts(args):
            context_tokens = raw.split()
            ids = vocab.encode(context_tokens)
            generated = []
            for _ in range(args.steps):
                token, record = session.respond(ids)
                trace.append(record)
                ids = list(ids) + [token]
                generated.append(vocab.tokens[token])
            sink.write(json.dumps({"context": context_tokens, "generated": generated}) + "\n")
    except BudgetExhaustedError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            serialize_trace(trace, args.trace, session=session)
        if sink is not out:
            sink.close()
    return 0


def _cmd_compare(args, out) -> int:
    config = _config_from_args(args)
    report = run_comparison(config)
    if not config.output_path:
        out.write(report.to_jsonl())
    return 0


def _cmd_sweep(args, out) -> int:
    config = _config_from_args(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must contain at least one value")
    report = run_sweep(config, args.axis, values)
    if not config.output_path:
        out.write(report.to_jsonl())
        out.write(report.sweep_table())
    return 0


def _cmd_account(args, out) -> int:
    params = PrivacyParams(eps_g=args.eps_g, delta=args.delta, T=args.T,
                           alpha=args.alpha, q=args.q, N=args.n_models)
    mode = EpsMode(args.mode) if args.mode else EpsMode.CONSERVATIVE
    line = _record_line({"record": "accountant", **Accountant(params, mode).record()})
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(line)
    else:
        out.write(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, sys.stdout)
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
