"""Configuration-driven experiments: build an instance, learn, evaluate.

Configs and reports are YAML documents.  A config names an instance (one of
the built-in generators or an HMM file), an algorithm, its parameters, and
optional pass/fail thresholds; the runner executes one run per seed with its
own oracle, evaluates the result against enumeration when feasible, and
collects everything into a schema-versioned report.  Reports are
reproducible from (config, seed) except for the ``seconds`` timing fields.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import yaml

from .approx_basis import RoundCapExceeded, find_approx_basis
from .distributions import EnumerationCapError, load_hmm, rank_of
from .exact_learner import LearnerInvariantError, learn_exact
from .generators import (make_full_rank_hmm, make_overcomplete_hmm,
                         make_parity_hmm, make_random_table)
from .metrics import expected_span_residual, tv_conditional_bound, tv_exact
from .oom import OomModel, save_model, to_distribution
from .oracles import BudgetExceeded, OracleHandle
from .sampling_learner import AlgoParams, learn_sampling
from .sequences import seq_count

SCHEMA_VERSION = 1
EVAL_KEYS = frozenset({"tv", "tv_samples", "tv_threshold", "residual_threshold",
                       "min_pass_fraction"})
TV_KINDS = ("auto", "exact", "bound", "none")

# Enumeration-based evaluation is only attempted below this table size.
EVAL_ENUM_LIMIT = 2**16


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------


def _parity(horizon, subset=None, alpha=0.2):
    return make_parity_hmm(horizon, subset, alpha)


def _full_rank(horizon, n_states=2, n_symbols=2, seed=0, sigma_floor=0.15):
    return make_full_rank_hmm(n_states, n_symbols, horizon, seed=seed,
                              sigma_floor=sigma_floor)


def _overcomplete(n_states, horizon, n_symbols=2, seed=0):
    return make_overcomplete_hmm(n_states, n_symbols, horizon, seed=seed)


def _random_table(horizon, n_symbols=2, seed=0, concentration=1.0):
    return make_random_table(n_symbols, horizon, seed=seed,
                             concentration=concentration)


# Instance kind -> builder; the builder's keywords are the kind's keys.  The
# builders call the generators by their names in this module, so a caller that
# rebinds those names (perfbench's tracer) sees every call.
INSTANCE_BUILDERS = {"parity": _parity, "full-rank": _full_rank,
                     "overcomplete": _overcomplete,
                     "random-table": _random_table, "file": load_hmm}


def build_instance(spec: dict):
    """Construct the distribution a config's ``instance`` section describes."""
    builder = INSTANCE_BUILDERS.get(spec.get("kind"))
    if builder is None:
        raise ValueError(f"unknown instance kind {spec.get('kind')!r}")
    return builder(**{k: v for k, v in spec.items() if k != "kind"})


def _keys(fn, supplied=()) -> tuple[frozenset, frozenset]:
    """(accepted, required) keyword names of ``fn``, less the ``supplied`` ones."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.name not in supplied]
    return (frozenset(p.name for p in params),
            frozenset(p.name for p in params if p.default is p.empty))


# (accepted, required) keys of each instance kind and each algorithm's
# ``params``, read off the signatures; the runner supplies the oracle and the
# basis search's seed.
CONFIG_KEYS = {
    "instance": {kind: _keys(fn) for kind, fn in INSTANCE_BUILDERS.items()},
    "params": {algorithm: _keys(fn, ("oracle", "seed")) for algorithm, fn in
               (("exact", learn_exact), ("sampling", AlgoParams),
                ("approx-basis", find_approx_basis))},
}
ALGORITHMS = tuple(CONFIG_KEYS["params"])


def _check_keys(section: str, given, name: str, context: str) -> None:
    accepted, required = CONFIG_KEYS[section][name]
    for problem, keys in (("unknown", set(given) - accepted),
                          ("missing", required - set(given))):
        if keys:
            raise ValueError(f"{problem} config keys: {section} "
                             f"{sorted(keys)} ({context} {name!r})")


def read_config(path) -> dict:
    """The mapping a YAML config file holds."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a mapping")
    return raw


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    instance: dict
    algorithm: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    seeds: list[int] | None = None
    budget: int | None = None
    eval: dict = field(default_factory=dict)
    output: str | None = None
    model_output: str | None = None
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        self._check_types()
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        _check_keys("params", self.params, self.algorithm, "algorithm")
        kind = self.instance.get("kind")
        if kind not in INSTANCE_BUILDERS:
            raise ValueError(
                f"instance kind must be one of {tuple(INSTANCE_BUILDERS)}")
        _check_keys("instance", self.instance.keys() - {"kind"}, kind, "kind")
        unknown = set(self.eval) - EVAL_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: eval {sorted(unknown)}")
        if self.eval.get("tv", "auto") not in TV_KINDS:
            raise ValueError(f"eval.tv must be one of {TV_KINDS}")
        _check_eval_values(self.eval)
        if self.schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {self.schema}")

    def _check_types(self) -> None:
        """Section and seed types, checked before any key is looked up."""
        for key in ("instance", "params", "eval"):
            value = getattr(self, key)
            if not isinstance(value, dict):
                raise ValueError(f"{key} must be a mapping, got {value!r}")
        if not (_is(self.seed, Integral) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.seeds is not None:
            if not isinstance(self.seeds, list):
                raise ValueError(f"seeds must be a list, got {self.seeds!r}")
            if not self.seeds:
                raise ValueError("seeds must be nonempty when given")
            for seed in self.seeds:
                if not (_is(seed, Integral) and seed >= 0):
                    raise ValueError(f"seeds must be integers >= 0, got {seed!r}")
        if self.budget is not None:
            if not _is(self.budget, Integral):
                raise ValueError(f"budget must be an integer, got {self.budget!r}")
            if self.budget <= 0:
                raise ValueError("budget must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config(path))

    def run_seeds(self) -> list[int]:
        return list(self.seeds) if self.seeds is not None else [self.seed]

    def as_dict(self) -> dict:
        return _plain({f.name: getattr(self, f.name) for f in fields(self)})


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_eval_values(eval_cfg: dict) -> None:
    for key in ("tv_threshold", "residual_threshold"):
        if key in eval_cfg and not _is(eval_cfg[key], Real):
            raise ValueError(f"eval.{key} must be a real number, "
                             f"got {eval_cfg[key]!r}")
    samples = eval_cfg.get("tv_samples", 1)
    if not (_is(samples, Integral) and samples >= 1):
        raise ValueError(f"eval.tv_samples must be an integer >= 1, "
                         f"got {samples!r}")
    frac = eval_cfg.get("min_pass_fraction", 1.0)
    if not (_is(frac, Real) and 0.0 <= frac <= 1.0):
        raise ValueError(f"eval.min_pass_fraction must lie in [0, 1], "
                         f"got {frac!r}")


@dataclass
class ExperimentReport:
    """Config echo, per-seed outcomes, and an aggregate verdict."""

    config: dict
    outcomes: list[dict]
    summary: dict
    seconds: float
    schema: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])

    def as_dict(self) -> dict:
        return _plain({
            "schema": self.schema,
            "config": self.config,
            "outcomes": self.outcomes,
            "summary": self.summary,
            "seconds": self.seconds,
        })

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.as_dict(), sort_keys=False)


def _plain(obj):
    """Recursively convert to YAML-safe builtins."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _enumerable(dist) -> bool:
    return seq_count(dist.n_symbols, dist.horizon) <= EVAL_ENUM_LIMIT


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every seed of the config and aggregate an ExperimentReport.

    Per-seed failures from exhausted budgets, enumeration caps, the basis
    search's round cap or a broken exact-learner invariant are recorded in
    that seed's outcome (and fail the aggregate verdict) instead of aborting
    the batch.  When ``output`` or ``model_output`` paths are set the report
    and learned models are written as a side effect.
    """
    started = time.perf_counter()
    dist = build_instance(config.instance)
    seeds = config.run_seeds()
    outcomes = [_run_seed(dist, config, seed) for seed in seeds]
    summary = _summarize(config, dist, outcomes)
    report = ExperimentReport(config=config.as_dict(), outcomes=outcomes,
                              summary=summary,
                              seconds=time.perf_counter() - started)
    if config.output:
        Path(config.output).write_text(report.to_yaml())
    return report


def _run_seed(dist, config: ExperimentConfig, seed: int) -> dict:
    out: dict = {"seed": seed, "algorithm": config.algorithm, "error": None}
    started = time.perf_counter()
    mode = "exact" if config.algorithm == "exact" else "sampling"
    oracle = OracleHandle(dist, mode=mode, seed=seed, budget=config.budget)
    try:
        if config.algorithm == "exact":
            model, info = learn_exact(oracle, **config.params)
            out["rounds"] = info["rounds"]
            out["basis_sizes"] = info["basis_sizes"]
            _evaluate(dist, to_distribution(model, flavor="auto"),
                      config.eval, seed, out)
        elif config.algorithm == "sampling":
            params = AlgoParams(**config.params)
            model, info = learn_sampling(oracle, params)
            out["basis_sizes"] = info["basis_sizes"]
            out["kept_dims"] = [lv.get("kept_dim") for lv in info["levels"]
                                if "kept_dim" in lv]
            _evaluate(dist, to_distribution(model, flavor="raw"),
                      config.eval, seed, out)
        else:
            model = None
            _, info = find_approx_basis(oracle, seed=seed, **config.params)
            out["members"] = info["members"]
            out["rounds"] = len(info["rounds"])
            out["round_cap"] = info["round_cap"]
            if _enumerable(dist):
                out["residual"] = expected_span_residual(dist, info["members"])
        if model is not None and config.model_output:
            save_model(model, _seed_path(config.model_output, seed,
                                         len(config.run_seeds()) > 1))
    except (BudgetExceeded, EnumerationCapError, LearnerInvariantError,
            RoundCapExceeded) as err:
        out["error"] = f"{type(err).__name__}: {err}"
    out["queries"] = oracle.stats.as_dict()
    out["seconds"] = time.perf_counter() - started
    return _plain(out)


def _evaluate(dist, approx, eval_cfg: dict, seed: int, out: dict) -> None:
    kind = eval_cfg.get("tv", "auto")
    if kind == "none":
        return
    if kind == "exact" or (kind == "auto" and _enumerable(dist)):
        out["tv"] = tv_exact(dist, approx)
        out["tv_kind"] = "exact"
    else:
        out["tv"] = tv_conditional_bound(
            dist, approx, n_samples=eval_cfg.get("tv_samples", 2000),
            rng=np.random.default_rng(seed))
        out["tv_kind"] = "bound"


def _seed_path(path: str, seed: int, multi: bool) -> str:
    if not multi:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{seed}{p.suffix}"))


def _summarize(config: ExperimentConfig, dist, outcomes: list[dict]) -> dict:
    summary: dict = {
        "n_seeds": len(outcomes),
        "n_errors": sum(1 for o in outcomes if o["error"] is not None),
    }
    if _enumerable(dist):
        summary["instance_rank"] = rank_of(dist)

    checks: list[bool] = []
    for key in ("tv", "residual"):
        threshold = config.eval.get(f"{key}_threshold")
        if threshold is None:
            continue
        n_pass = sum(1 for o in outcomes
                     if o.get(key) is not None and o[key] <= threshold)
        summary[f"{key}_pass"] = n_pass
        checks.append(n_pass / len(outcomes)
                      >= config.eval.get("min_pass_fraction", 1.0))

    summary["asserted"] = bool(checks)
    summary["passed"] = summary["n_errors"] == 0 and all(checks)
    return _plain(summary)
