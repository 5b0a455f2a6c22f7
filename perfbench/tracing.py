"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces public names of the pmixed modules with wrappers that
record one span per call: its name, start, end, the span that was open when
it began (its parent), the id of the query it belongs to and one observed
value.  Spans live in memory and are written out when the run ends.  The
wrappers exist only inside ``Tracer.installed()``, so timed runs execute the
package unmodified.  A name that a later refactor removes is reported as
absent, and the metrics that depend on it read 0, instead of failing the run.

A span's name is ``<layer>.<operation>``; the layers are the pmixed modules.
``divergence`` has no public entry point on the hot path, so its time counts
inside ``mollifier.solve_lambda``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

QUERY_SPAN = "protocol.respond"

# (module, attribute path, span name).  A module-level name is patched in the
# module that looks it up at call time: protocol imports solve_lambda and
# solve_beta_star by name, experiment imports train_ngram by name.
HOOKS = (
    ("pmixed.protocol", "PredictionSession.respond", QUERY_SPAN),
    ("pmixed.protocol", "poisson_subsample", "protocol.subsample"),
    ("pmixed.protocol", "aggregate", "protocol.aggregate"),
    ("pmixed.protocol", "sample_token", "protocol.sample"),
    ("pmixed.protocol", "solve_lambda", "mollifier.solve_lambda"),
    ("pmixed.protocol", "solve_beta_star", "accounting.solve_beta_star"),
    ("pmixed.accounting", "solve_beta_star", "accounting.solve_beta_star"),
    ("pmixed.accounting", "AccountantLedger.charge", "accounting.charge"),
    ("pmixed.models", "NGramModel.distribution", "models.distribution"),
    ("pmixed.models", "EnsembleAverageModel.distribution", "models.ensemble_distribution"),
    ("pmixed.models", "load_snapshot", "models.load_snapshot"),
    ("pmixed.models", "train_ngram", "models.train"),
    ("pmixed.experiment", "train_ngram", "models.train"),
    ("pmixed.experiment", "perplexity_of_model", "experiment.score_model"),
    ("pmixed.experiment", "perplexity_of_protocol", "experiment.pmixed_arm"),
)

LAYERS = ("models", "mollifier", "accounting", "protocol", "experiment")


def _ngram_window(args, result):
    model, context = args[0], args[1]
    need = model.order - 1
    window = tuple(int(t) for t in context[-need:]) if need else ()
    return [id(model), [0] * (need - len(window)) + list(window)]


def _arm_of_model(args, result):
    # the public arm scores the public n-gram model; the ensemble arm scores
    # whatever stands for the unprojected ensemble average
    return "public" if type(args[0]).__name__ == "NGramModel" else "ensemble"


# Value kept on each span of a name, computed from the call's arguments and result.
OBSERVERS = {
    "mollifier.solve_lambda": lambda args, result: result.mixing_weight,
    "protocol.subsample": lambda args, result: len(result),
    "models.distribution": _ngram_window,
    "experiment.score_model": _arm_of_model,
}

# Hooked names each per-layer metric needs; a metric reads 0 when one is absent.
NEEDS = {
    "mollifier.": ("mollifier.solve_lambda",),
    "models.distribution_calls": ("models.distribution",),
    "models.distribution_s": ("models.distribution",),
    "models.window_reuse_ratio": ("models.distribution",),
    "models.ensemble_distribution_s": ("models.ensemble_distribution",),
    "models.load_snapshot_s": ("models.load_snapshot",),
    "models.train_s": ("models.train",),
    "accounting.solve_beta_star": ("accounting.solve_beta_star",),
    "accounting.charge_calls": ("accounting.charge",),
    "accounting.refused": (QUERY_SPAN,),
    "protocol.respond": (QUERY_SPAN,),
    "protocol.subsample_s": ("protocol.subsample",),
    "protocol.subset_size_mean": ("protocol.subsample",),
    "protocol.empty_subset_ratio": ("protocol.subsample",),
    "protocol.aggregate_s": ("protocol.aggregate",),
    "protocol.sample_s": ("protocol.sample",),
    "experiment.public_arm_s": ("experiment.score_model",),
    "experiment.ensemble_arm_s": ("experiment.score_model",),
    "experiment.pmixed_arm_s": ("experiment.pmixed_arm",),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = vars(owner).get(name)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Tracer:
    """Span recorder for one traced run; spans are [name, start, end, parent, query, value]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._query = -1
        self._next_query = 0

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hooked name for the duration of the block."""
        originals = []
        try:
            for module_name, path, span in HOOKS:
                found = _resolve(module_name, path)
                if found is None:
                    self.absent.add(span)
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        opens_query = name == QUERY_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if opens_query:
                self._query = self._next_query
                self._next_query += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._query, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = clock()
                span[5] = type(err).__name__
                raise
            else:
                span[2] = clock()
                if observe is not None:
                    span[5] = observe(args, result)
                return result
            finally:
                stack.pop()
                if opens_query:
                    self._query = -1

        return wrapper

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced unit."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    values: dict[str, list] = {}
    respond_self = 0.0
    refused = 0
    for i, (name, start, end, _, _, value) in enumerate(spans):
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        own = duration - covered[i]
        self_s[name.split(".", 1)[0]] += own
        if name == QUERY_SPAN:
            respond_self += own
            refused += value == "BudgetExhaustedError"
        if name in OBSERVERS:
            values.setdefault(name, []).append((value, duration))

    weights = [w for w, _ in values.get("mollifier.solve_lambda", [])]
    windows = [(key[0], tuple(key[1])) for key, _ in values.get("models.distribution", [])]
    sizes = [n for n, _ in values.get("protocol.subsample", [])]
    arms = values.get("experiment.score_model", [])
    beta_calls = calls.get("accounting.solve_beta_star", 0)
    out = {
        "mollifier.solve_lambda_calls": calls.get("mollifier.solve_lambda", 0),
        "mollifier.solve_lambda_s": total.get("mollifier.solve_lambda", 0.0),
        "mollifier.unit_weight_ratio": _share(weights, lambda w: w == 1.0),
        "mollifier.small_weight_ratio": _share(weights, lambda w: w < 1e-3),
        "models.distribution_calls": calls.get("models.distribution", 0),
        "models.distribution_s": total.get("models.distribution", 0.0),
        "models.window_reuse_ratio":
            (len(windows) - len(set(windows))) / len(windows) if windows else 0.0,
        "models.ensemble_distribution_s": total.get("models.ensemble_distribution", 0.0),
        "models.load_snapshot_s": total.get("models.load_snapshot", 0.0),
        "models.train_s": total.get("models.train", 0.0),
        "accounting.solve_beta_star_calls": beta_calls,
        "accounting.solve_beta_star_ms":
            1e3 * total.get("accounting.solve_beta_star", 0.0) / beta_calls if beta_calls else 0.0,
        "accounting.charge_calls": calls.get("accounting.charge", 0),
        "accounting.refused": refused,
        "protocol.respond_s": total.get(QUERY_SPAN, 0.0),
        "protocol.respond_self_s": respond_self,
        "protocol.subsample_s": total.get("protocol.subsample", 0.0),
        "protocol.aggregate_s": total.get("protocol.aggregate", 0.0),
        "protocol.sample_s": total.get("protocol.sample", 0.0),
        "protocol.subset_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "protocol.empty_subset_ratio": _share(sizes, lambda n: n == 0),
        "experiment.public_arm_s": sum(d for arm, d in arms if arm == "public"),
        "experiment.ensemble_arm_s": sum(d for arm, d in arms if arm == "ensemble"),
        "experiment.pmixed_arm_s": total.get("experiment.pmixed_arm", 0.0),
    }
    for layer, seconds in self_s.items():
        out[f"{layer}.self_s"] = seconds
    return out


def solve_lambda_durations(spans: list[list]) -> list[float]:
    return [end - start for name, start, end, *_ in spans if name == "mollifier.solve_lambda"]


def absent_metrics(metric_names, absent_spans: set[str]) -> list[str]:
    """Metrics whose hooked names could not all be found."""
    out = []
    for metric in metric_names:
        for prefix, needed in NEEDS.items():
            if metric.startswith(prefix) and absent_spans.intersection(needed):
                out.append(metric)
                break
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON array per line: name, start, end, parent index, query id, value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "query", "value"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _share(values, predicate) -> float:
    return sum(1 for v in values if predicate(v)) / len(values) if values else 0.0
