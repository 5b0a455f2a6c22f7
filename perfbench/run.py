"""pmixed benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve-bigram --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run repeats the workload's unit (see workloads.py) for ``--seconds``
seconds, at least MIN_UNITS times, in this one process: one closed-loop
client, no threads.  Each unit's outputs are checked and digested after its
timed part.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics
from the traced ones, averaged per unit, plus the tracing overhead.
``--workload all`` runs every workload in its own fresh process and prints
one table.

Human-readable lines and a details object (provenance, digests, sample
counts) come first; the last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A failed output check, or a digest that differs from golden.json on the
golden seed, prints correct=false and exits 1.  Spans and details are
written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")  # relative to ROOT, the working directory of a run
REQUIRED = ("src/pmixed/__init__.py", "data/twodomain/config.json")

MIN_UNITS = 3
# On the 2-vCPU Xeon virtual machine this benchmark was defined on, the
# same unit ran up to 25% faster or slower in spells of 10-20 s, so cold
# starts and extra set-ups are taken between units, spread over the run,
# rather than all at its end.
MIN_COLD_STARTS = 11
SETUPS_PER_UNIT = 2  # set-up alone is cheap, so it gets more samples than the units give
IMPORT_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 60



def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in _benchmark()[kind]}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable: not a git checkout"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _provenance(args, units: int, elapsed: float) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "units": units,
        "elapsed_s": round(elapsed, 3),
    }


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """The units of one run, their checks and digests."""

    def __init__(self, workload, seconds: int):
        self.workload = workload
        self.seconds = seconds
        self.units = []
        self.digests: dict[int, str] = {}  # inputs id -> output digest
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def unit(self, index: int, clock_queries: bool, tracer=None):
        """Execute and verify unit ``index``; None when it raised or failed a check."""
        try:
            if tracer is None:
                unit = self.workload.execute(index, clock_queries)
            else:
                with tracer.installed():
                    unit = self.workload.execute(index, clock_queries)
            verdict = self.workload.verify(unit)
        except Exception as err:  # a crashed unit is a failed run, reported below
            self.problems.append(f"unit {index}: {type(err).__name__}: {err}")
            self.attempted += 1
            self.failed += 1
            return None
        unit.state = None
        self.attempted += unit.attempted
        self.failed += unit.attempted - unit.answered
        problems = list(verdict.problems)
        if self.digests.setdefault(unit.inputs, verdict.digest) != verdict.digest:
            problems.append(f"unit {index}: output digest differs from an earlier unit with the same inputs")
        self.problems.extend(problems)
        self.units.append(unit)
        return None if problems else unit

    def spawn(self, argv: list[str]) -> float | None:
        """Wall time of one fresh process from spawn to exit; None when it failed."""
        start = time.perf_counter()
        try:
            subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                           timeout=SUBPROCESS_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
            self.problems.append(f"fresh process failed: {err}")
            return None
        return time.perf_counter() - start

    def until_done(self, step) -> None:
        """Call step(index) until the run's seconds are spent and MIN_UNITS ran, or a unit fails.

        Unit 0 runs first and is checked but not reported, so that lazy
        imports and first-touch allocation do not land in a sample; the
        first reported unit repeats its inputs.
        """
        start = time.perf_counter()
        if self.unit(0, clock_queries=False) is None:
            return
        self.units.clear()
        index = 0
        while len(self.units) < MIN_UNITS or time.perf_counter() - start < self.seconds:
            if step(index) is None:
                return
            index += 1


def end_to_end(run: Run) -> tuple[dict, dict]:
    workload = run.workload
    cold_argv = workload.cold_start_argv()
    cold, setups = [], []

    def step(index):
        unit = run.unit(index, clock_queries=True)
        if unit is None:
            return None
        setups.append(unit.setup_s)
        for _ in range(SETUPS_PER_UNIT):
            start = time.perf_counter()
            workload.setup(index)
            setups.append(time.perf_counter() - start)
        cold.append(run.spawn(cold_argv))
        return unit if cold[-1] is not None else None

    run.until_done(step)
    while run.units and not run.problems and len(cold) < MIN_COLD_STARTS:
        cold.append(run.spawn(cold_argv))
    if run.problems or not run.units:
        return {}, {}
    units = run.units
    latencies = [x for u in units for x in u.latencies]
    source = "respond calls"
    if not latencies:
        # the program answered without PredictionSession.respond: fall back
        # to each unit's mean time per answered query
        latencies = [u.wall_s / u.answered for u in units]
        source = "unit wall_s / answered"
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u.wall_s for u in units),
        "queries_per_s": statistics.median(u.answered / u.wall_s for u in units),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_p99_ms": 1e3 * _percentile(latencies, 99),
        "cold_start_s": statistics.median(cold),
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answered_ratio": sum(u.answered for u in units) / sum(u.attempted for u in units),
    }
    details = {
        "latency_samples": len(latencies),
        "latency_source": source,
        "cold_start_samples": len(cold),
        "cold_start_argv": cold_argv[1:],
        "wall_s_per_unit": [u.wall_s for u in units],
        "setup_s_samples": setups,
    }
    units = _units("end_to_end")
    return {k: (metrics[k], unit) for k, unit in units.items()}, details


def per_layer(run: Run, workload_name: str) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    plain, traced, sums = [], [], {}
    solve_lambda = []
    kept_spans = None

    def step(index):
        unit = run.unit(index, clock_queries=False)
        if unit is None:
            return None
        plain.append(unit.wall_s)
        unit = run.unit(index, clock_queries=False, tracer=tracer)
        spans = tracer.take()
        if unit is None:
            return None
        nonlocal kept_spans
        kept_spans = kept_spans or spans
        traced.append(unit.wall_s)
        for key, value in {**tracing.summarize(spans), **unit.extras}.items():
            sums[key] = sums.get(key, 0.0) + value
        solve_lambda.extend(tracing.solve_lambda_durations(spans))
        return unit

    run.until_done(step)
    units = _units("per_layer")
    # counts, times and ratios are means over the traced units
    values = {name: sums.get(name, 0.0) / max(len(traced), 1) for name in units}
    values["mollifier.solve_lambda_p50_us"] = 1e6 * statistics.median(solve_lambda) if solve_lambda else 0.0
    imports = [run.spawn([sys.executable, "-c", "import pmixed"]) for _ in range(IMPORT_SAMPLES)]
    if None not in imports:
        values["cli.import_s"] = statistics.median(imports)
    if plain and traced:
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    absent = tracing.absent_metrics(units, tracer.absent)
    spans_path = OUT_DIR / f"spans-{workload_name}.jsonl"
    if kept_spans:
        tracing.write_spans(kept_spans, spans_path)
    details = {
        "traced_units": len(traced),
        "untraced_units": len(plain),
        "absent_hooks": sorted(tracer.absent),
        "absent_metrics": absent,
        "spans_file": str(spans_path),
        "spans_written": len(kept_spans or []),
    }
    return {k: (values.get(k, 0.0), u) for k, u in units.items()}, details


def run_one(args) -> int:
    import workloads

    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    workload.prepare()
    run = Run(workload, args.seconds)
    start = time.perf_counter()
    if args.trace:
        metrics, details = per_layer(run, args.workload)
    else:
        metrics, details = end_to_end(run)
    elapsed = time.perf_counter() - start

    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    if args.seed == golden["seed"] and 0 in run.digests:
        expected = golden["sha256"][args.workload]
        if run.digests[0] != expected:
            run.problems.append(f"output digest {run.digests[0]} of unit 0 differs from golden {expected}")
    correct = not run.problems and bool(run.units)
    details.update(provenance=_provenance(args, len(run.units), elapsed),
                   digests=run.digests, problems=run.problems)
    (OUT_DIR / f"details-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:34s} {value:14.6g} {unit}")
    if "latency_samples" in details:
        print(f"{args.workload:20s} query latency samples {details['latency_samples']}"
              f" ({details['latency_source']}), units {len(run.units)}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-2]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
            return 1
        correct &= result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a pmixed checkout; missing {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # this process and every process it starts run the checkout's source
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    import pmixed
    import workloads

    if Path(pmixed.__file__).resolve().parent != ROOT / "src" / "pmixed":
        print(f"error: imported pmixed from {pmixed.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    OUT_DIR.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
