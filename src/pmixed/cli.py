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
import dataclasses
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

# Every parameter flag: flag -> (ExperimentConfig field, type, help).  train, predict
# and account default a flag to its field's class default, and require it if there is
# none; compare and sweep default it to None, so only a given flag overrides the config.
_FLAGS = {
    "--private-corpus": ("private_corpus_path", str, None),
    "--public-corpus": ("public_corpus_path", str, None),
    "--test-corpus": ("test_corpus_path", str, None),
    "--vocab": ("vocab_path", str, "vocab file; derived from the corpora when omitted"),
    "--order": ("order", int, None),
    "--smoothing-k": ("smoothing_k", float, None),
    "--eps-g": ("eps_g", float, "global privacy budget in nats"),
    "--delta": ("delta", float, "failure probability for the DP conversion"),
    "--queries": ("T", int, "query budget T"),
    "--alpha": ("alpha", int, "Renyi order (integer >= 2)"),
    "--q": ("q", float, "Poisson subsample probability"),
    "--n-models": ("n_models", int, None),
    "--runs": ("runs", int, None),
    "--max-seq-len": ("max_seq_len", int, None),
    "--mode": ("mode", EpsMode, "per-query loss evaluation mode"),
    "--seed": ("seed", int, None),
    "--output": ("output_path", str, None),
}
_PRIVACY_FLAGS = ("--eps-g", "--delta", "--queries", "--alpha", "--q")
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
             if f.default is not dataclasses.MISSING}


def _add_flags(sub, *flags, from_config: bool = False) -> None:
    for flag in flags:
        dest, cast, text = _FLAGS[flag]
        metavar = "{%s}" % ",".join(m.value for m in cast) if cast is EpsMode else None
        sub.add_argument(flag, dest=dest, type=cast, help=text, metavar=metavar,
                         default=None if from_config else _DEFAULTS.get(dest),
                         required=not from_config and dest not in _DEFAULTS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmixed",
        description="Differentially private next-token prediction over a model ensemble.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train and snapshot an ensemble")
    _add_flags(train, "--private-corpus", "--public-corpus", "--vocab", "--n-models",
               "--order", "--smoothing-k", "--seed")
    train.add_argument("--output", required=True, help="snapshot path")
    train.set_defaults(handler=_cmd_train)

    predict = commands.add_parser("predict", help="answer queries from a snapshot")
    predict.add_argument("--snapshot", required=True)
    predict.add_argument("--context", action="append", default=None,
                         help="context tokens (repeatable); reads stdin when omitted")
    predict.add_argument("--input", default=None, help="file of contexts, one per line")
    predict.add_argument("--steps", type=int, default=1,
                         help="tokens to generate per context (each costs one query)")
    _add_flags(predict, *_PRIVACY_FLAGS, "--mode", "--seed")
    predict.add_argument("--trace", default=None, help="write the session trace here")
    predict.add_argument("--output", default=None, help="write responses here instead of stdout")
    predict.set_defaults(handler=_cmd_predict)

    compare = commands.add_parser("compare", help="run the three-arm comparison")
    compare.add_argument("--config", required=True, help="experiment config JSON")
    _add_flags(compare, *_FLAGS, from_config=True)
    compare.set_defaults(handler=_cmd_compare)

    sweep = commands.add_parser("sweep", help="sweep one hyperparameter")
    sweep.add_argument("--config", required=True, help="experiment config JSON")
    _add_flags(sweep, *_FLAGS, from_config=True)
    sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    sweep.add_argument("--values", required=True,
                       help="comma-separated values for the swept hyperparameter")
    sweep.set_defaults(handler=_cmd_sweep)

    account = commands.add_parser("account", help="print the accounting record")
    _add_flags(account, *_PRIVACY_FLAGS, "--n-models", "--mode")
    account.add_argument("--output", default=None)
    account.set_defaults(handler=_cmd_account)

    return parser


def _config_from_args(args) -> ExperimentConfig:
    changes = {dest: value for dest, _, _ in _FLAGS.values()
               if (value := getattr(args, dest)) is not None}
    return ExperimentConfig.from_file(args.config).replace(**changes)


def _params(args, n_models: int) -> PrivacyParams:
    return PrivacyParams(eps_g=args.eps_g, delta=args.delta, T=args.T,
                         alpha=args.alpha, q=args.q, N=n_models)


def _cmd_train(args, out) -> int:
    vocab, private_seqs, public_seqs = _load_inputs(
        args.private_corpus_path, args.public_corpus_path, args.vocab_path)
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
    session = PredictionSession(members, public, _params(args, len(members)),
                                mode=args.mode, seed=args.seed)
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
    finally:  # a refusal propagates to main after the trace is written
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
    accountant = Accountant(_params(args, args.n_models), args.mode)
    line = _record_line({"record": "accountant", **accountant.record()})
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
