"""condseq benchmark: one workload, single-client closed loop, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sampling-parity5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's inputs back to back for ``--seconds`` with
nothing wrapped and reports the end-to-end metrics.  ``--trace 1`` runs each
input once with only ``Hmm.step`` counted, then for ``--seconds`` runs each
input untraced and traced in turn, checks that the exact counts agree between
all of these runs, and reports the per-layer metrics.  Every run's output is checked.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md for what each metric means.
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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
TAIL_MIN_RUNS = 100  # from here the percentile with 10 runs beyond it is >= p90
ERROR_NAMES = ("BudgetExceeded", "LearnerInvariantError", "EnumerationCapError",
               "BasisSpanError", "RoundCapExceeded", "CheckFailed")
EXIT_NO_SOURCES = 2
EXIT_COUNTS_DIFFER = 3


class CountMismatch(RuntimeError):
    """An exact count differed between repeats of one input."""


def _use_checkout_sources() -> None:
    """Put this checkout's sources first on the import path."""
    if not (SRC / "condseq" / "__init__.py").is_file():
        print(f"perfbench: no condseq sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCES)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "one process, runs back to back, BLAS threads at most nproc",
    }


# ---------------------------------------------------------------------------
# Running.
# ---------------------------------------------------------------------------


@dataclass
class Record:
    """One run: which input, how long, what it produced."""

    idx: int
    seconds: float
    outcome: object
    step_calls: int | None = None


def _loop(run_one, seconds: float, min_calls: int) -> tuple[list, float]:
    """Closed loop: call ``run_one(k)`` for k = 0, 1, ... back to back.

    Each call returns a list of records.  The loop stops once ``min_calls``
    calls are made and the next call, at the median call time so far, would
    end after ``seconds``.
    """
    records: list[Record] = []
    durations: list[float] = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.extend(run_one(len(durations)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - began
        if len(durations) >= min_calls and elapsed + statistics.median(durations) > seconds:
            return records, elapsed


def _timed(workload, prepared, idx: int) -> Record:
    t0 = time.perf_counter()
    outcome = workload.run(prepared[idx])
    return Record(idx, time.perf_counter() - t0, outcome)


@contextmanager
def _count_calls(cls, attr: str):
    """Count calls of one method, without recording spans."""
    inner = vars(cls)[attr]
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return inner(*args, **kwargs)

    setattr(cls, attr, counted)
    try:
        yield counter
    finally:
        setattr(cls, attr, inner)


def _exact_counts(rec: Record) -> tuple:
    o = rec.outcome
    return (o.queries["exact_queries"], o.queries["sample_queries"],
            o.queries["joint_queries"], o.rounds)


def _check_repeats(records: list, what: str, key) -> None:
    """Every repeat of an input must give the same exact counts."""
    seen: dict[int, object] = {}
    for rec in records:
        value = key(rec)
        if seen.setdefault(rec.idx, value) != value:
            raise CountMismatch(f"{what}: input {rec.idx} gave {value}, "
                                f"earlier {seen[rec.idx]}")


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten runs beyond it, with its label.

    Below ``TAIL_MIN_RUNS`` runs that percentile lies under p90 (with 11 runs
    it is the fastest run), which is no tail, so the slowest run is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < TAIL_MIN_RUNS:
        return ordered[-1], f"max of n={n}; fewer than {TAIL_MIN_RUNS} runs"
    k = n - 10
    return ordered[k - 1], f"p{100.0 * k / n:.0f} of n={n}"


def _queries_per_run(records: list) -> float:
    """Mean oracle queries over the distinct inputs, an exact count."""
    per_input = {r.idx: r.outcome.queries["total"] for r in records}
    return sum(per_input.values()) / len(per_input)


def measure_setup(args) -> float:
    """Median of fresh-process set-ups: interpreter start, imports, instances."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


def _result(records: list, metrics: dict) -> dict:
    failed = sum(1 for r in records if not r.outcome.ok)
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, prepared) -> dict:
    setup_s = measure_setup(args)
    n = len(prepared)
    with workload.session():
        records, window = _loop(lambda k: [_timed(workload, prepared, k % n)],
                                args.seconds, n)
    _check_repeats(records, "untraced repeats", _exact_counts)
    times = [r.seconds for r in records]
    tail, tail_label = _tail(times)
    n_ok = sum(1 for r in records if r.outcome.ok)
    metrics = {
        "run_s.p50": _m(statistics.median(times), "s"),
        "run_s.tail": _m(tail, "s"),
        "runs_per_s": _m(len(records) / window, "1/s"),
        "pass_frac": _m(n_ok / len(records), "ratio"),
        "setup_s": _m(setup_s, "s"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{workload.name}: {len(records)} runs over {n} inputs in {window:.2f} s")
    for name, m in metrics.items():
        label = f"  ({tail_label})" if name == "run_s.tail" else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{label}")
    print(f"  queries_per_run = {_queries_per_run(records):.6g} queries"
          " (exact count; per-layer metric)")
    _print_errors(records)
    return _result(records, metrics)


def _print_errors(records: list) -> None:
    for rec in records:
        if not rec.outcome.ok:
            print(f"  run on input {rec.idx} failed: {rec.outcome.error}")


# ---------------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------------

SAMPLE_QUERY = "oracles.OracleHandle.sample_query"
NEXT_FREQS = "estimation.CondEstimator.next_symbol_freqs"


def _sample_query_probe(args, kwargs):
    """(draws, symbols simulated) of one ``OracleHandle.sample_query`` call."""
    handle, history = args[0], args[1]
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    draws = 1 if size is None else size
    return draws, draws * (handle.horizon - len(history))


PER_LAYER_SELF = (
    "distributions.Hmm.sample_conditional", "oracles.OracleHandle.sample_query",
    "oracles.OracleHandle.sample_joint", "distributions.Hmm.conditional_prob",
    "distributions.Hmm.forward_filter", "oracles.OracleHandle.exact_query",
    "exact_learner.find_counterexample", "exact_learner.solve_operators",
    "exact_learner.process_counterexample", "exact_learner.init_state",
    "estimation.CondEstimator.next_symbol_freqs",
    "estimation.CondEstimator.gated_cond_prob",
    "sampling_learner.draw_basis", "sampling_learner.estimate_sigma_and_q",
    "sampling_learner.estimate_one_step", "sampling_learner.top_eigenspace",
    "sampling_learner.ridge_coefficients", "sampling_learner.assemble_operator",
    "metrics.fidelity_for_bases", "generators.greedy_spanning_bases",
    "distributions.rank_of", "metrics.tv_exact",
    "oom.AnchoredPredictor.next_symbol_probs", "oom.RawPredictor.next_symbol_probs",
    "oom.construct_exact_operators", "metrics.tv_conditional_bound",
    "bench.run_experiment", "bench.build_instance",
)
PER_LAYER_CALLS = (
    "distributions.Hmm.forward_filter", "distributions.Hmm.step",
    "exact_learner.LearnerState.pr", "estimation.CondEstimator.next_symbol_freqs",
    "estimation.CondEstimator.gated_cond_prob",
    "oom.AnchoredPredictor.next_symbol_probs", "oom.RawPredictor.next_symbol_probs",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    from tracer import LAYERS
    names = [(f"{n}.self_s", "s") for n in PER_LAYER_SELF]
    names += [(f"{n}.calls", "count") for n in PER_LAYER_CALLS]
    names += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    names += [("queries_per_run", "queries"), ("oracles.queries.exact", "queries"),
              ("oracles.queries.sample", "queries"), ("oracles.queries.joint", "queries"),
              ("exact_learner.rounds", "count"), ("exact_learner.memo_hit_ratio", "ratio"),
              ("estimation.hist_hit_ratio", "ratio"),
              ("estimation.symbols_read_frac", "ratio")]
    names += [(f"bench.errors.{e}", "count") for e in ERROR_NAMES]
    names += [("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio")]
    return names


def traced(args, workload, prepared) -> dict:
    """Per-layer metrics from traced runs, each paired with an untraced one.

    First every input runs once with only ``Hmm.step`` counted.  Then, for
    ``--seconds``, each input runs untraced and right after traced, so that
    drift in machine speed falls on both sides of the overhead ratio.
    """
    from condseq.distributions import Hmm
    from tracer import Tracer

    n = len(prepared)
    counted = []
    for idx in range(n):
        with _count_calls(Hmm, "step") as calls, workload.session():
            rec = _timed(workload, prepared, idx)
        rec.step_calls = calls[0]
        counted.append(rec)

    tracer = Tracer(probes={SAMPLE_QUERY: _sample_query_probe})

    def pair(k: int) -> list[Record]:
        idx = k % n
        with workload.session():
            plain = _timed(workload, prepared, idx)
        tracer.install()
        try:
            with workload.session(), tracer.root(k):
                traced_rec = _timed(workload, prepared, idx)
        finally:
            tracer.uninstall()
        return [plain, traced_rec]

    records, _ = _loop(pair, args.seconds, n)
    plain, spans = records[0::2], records[1::2]
    step_runs = tracer.calls_per_run("distributions.Hmm.step")
    for k, rec in enumerate(spans):
        rec.step_calls = step_runs.get(k, 0)

    _check_repeats(counted + plain + spans, "counted, untraced and traced runs",
                   _exact_counts)
    _check_repeats(counted + spans, "counted and traced runs", lambda r: r.step_calls)

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
    tracer.dump(dump)
    all_runs = counted + records
    metrics = _layer_metrics(plain, spans, all_runs, tracer)
    print(f"{workload.name}: {len(spans)} traced runs, each paired with an untraced "
          f"one; spans written to {dump}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    _print_errors(all_runs)
    return _result(all_runs, metrics)


def _layer_metrics(plain: list, spans: list, all_runs: list, tracer) -> dict:
    """Per-layer values, per traced run; error counts cover ``all_runs``."""
    from tracer import LAYERS

    summary = tracer.summary()
    self_s, calls = summary["self_s"], summary["calls"]
    n_runs = len(spans)
    values: dict[str, float] = {}
    for name in PER_LAYER_SELF:
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / n_runs
    for name in PER_LAYER_CALLS:
        values[f"{name}.calls"] = calls.get(name, 0) / n_runs
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")) / n_runs

    per_input = {r.idx: r.outcome for r in spans}

    def mean_over_inputs(get) -> float:
        return sum(get(o) for o in per_input.values()) / len(per_input)

    values["queries_per_run"] = _queries_per_run(spans)
    values["oracles.queries.exact"] = mean_over_inputs(lambda o: o.queries["exact_queries"])
    values["oracles.queries.sample"] = mean_over_inputs(lambda o: o.queries["sample_queries"])
    values["oracles.queries.joint"] = mean_over_inputs(lambda o: o.queries["joint_queries"])
    values["exact_learner.rounds"] = mean_over_inputs(lambda o: o.rounds or 0)

    pr_calls = calls.get("exact_learner.LearnerState.pr", 0)
    exact_q = sum(r.outcome.queries["exact_queries"] for r in spans)
    values["exact_learner.memo_hit_ratio"] = 1.0 - exact_q / pr_calls if pr_calls else 0.0
    freq_calls = calls.get(NEXT_FREQS, 0)
    builds = tracer.spans_under(SAMPLE_QUERY, NEXT_FREQS)
    values["estimation.hist_hit_ratio"] = 1.0 - len(builds) / freq_calls if freq_calls else 0.0
    read = sum(tracer.notes[i][0] for i in builds)
    simulated = sum(tracer.notes[i][1] for i in builds)
    values["estimation.symbols_read_frac"] = read / simulated if simulated else 0.0

    for err in ERROR_NAMES:
        values[f"bench.errors.{err}"] = sum(1 for r in all_runs if r.outcome.error == err)

    covered = sum(v for k, v in self_s.items() if not k.startswith("perfbench."))
    values["trace.coverage"] = covered / summary["wall_s"]
    values["trace.overhead_frac"] = (sum(r.seconds for r in spans)
                                     / sum(r.seconds for r in plain) - 1.0)
    return {name: _m(values[name], unit) for name, unit in per_layer_names()}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _run_all(args) -> int:
    """Every workload in turn, each in its own process; one JSON line per workload."""
    from workloads import WORKLOADS
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sampling-parity5, exact-parity20, referee-enum, or all")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the instances, print 'ready', exit "
                             "(used by the set-up measurement)")
    args = parser.parse_args(argv)

    _use_checkout_sources()
    from workloads import WORKLOADS
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]()
    prepared = [workload.prepare(inp) for inp in workload.inputs(args.seed)]
    if args.setup_only:
        print("ready", flush=True)
        return 0

    print("env: " + json.dumps(environment(args)))
    try:
        result = (traced if args.trace else end_to_end)(args, workload, prepared)
    except CountMismatch as err:
        print(f"perfbench: exact counts differ, the tracer or the program is not "
              f"deterministic: {err}", file=sys.stderr)
        return EXIT_COUNTS_DIFFER
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
