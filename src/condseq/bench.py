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
from pathlib import Path

import numpy as np
import yaml

from .approx_basis import RoundCapExceeded, find_approx_basis
from .distributions import EnumerationCapError, load_hmm, rank_of
from .exact_learner import learn_exact
from .generators import (make_full_rank_hmm, make_overcomplete_hmm,
                         make_parity_hmm, make_random_table)
from .metrics import expected_span_residual, tv_conditional_bound, tv_exact
from .oom import OomModel, save_model, to_distribution
from .oracles import BudgetExceeded, OracleHandle
from .sampling_learner import AlgoParams, learn_sampling
from .sequences import seq_count

SCHEMA_VERSION = 1
ALGORITHMS = ("exact", "sampling", "approx-basis")
# The keys each instance kind takes besides ``kind``; build_instance reads them.
INSTANCE_KEYS = {
    "parity": frozenset({"horizon", "subset", "alpha"}),
    "full-rank": frozenset({"n_states", "n_symbols", "horizon", "seed",
                            "sigma_floor"}),
    "overcomplete": frozenset({"n_states", "n_symbols", "horizon", "seed"}),
    "random-table": frozenset({"n_symbols", "horizon", "seed", "concentration"}),
    "file": frozenset({"path"}),
}
INSTANCE_KINDS = tuple(INSTANCE_KEYS)
EVAL_KEYS = frozenset({"tv", "tv_samples", "tv_threshold", "residual_threshold",
                       "min_pass_fraction"})
TV_KINDS = ("auto", "exact", "bound", "none")

# Enumeration-based evaluation is only attempted below this table size.
EVAL_ENUM_LIMIT = 2**16

# The ``params`` keys each algorithm takes; the runner supplies the oracle and,
# for the basis search, the seed.
ALGORITHM_PARAMS = {
    "exact": frozenset(inspect.signature(learn_exact).parameters) - {"oracle"},
    "sampling": frozenset(f.name for f in fields(AlgoParams)),
    "approx-basis": (frozenset(inspect.signature(find_approx_basis).parameters)
                     - {"oracle", "seed"}),
}


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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        unknown = set(self.params) - ALGORITHM_PARAMS[self.algorithm]
        if unknown:
            raise ValueError(f"unknown config keys: params {sorted(unknown)} "
                             f"(algorithm {self.algorithm!r})")
        kind = self.instance.get("kind")
        if kind not in INSTANCE_KINDS:
            raise ValueError(f"instance kind must be one of {INSTANCE_KINDS}")
        unknown = set(self.instance) - {"kind"} - INSTANCE_KEYS[kind]
        if unknown:
            raise ValueError(f"unknown config keys: instance {sorted(unknown)} "
                             f"(kind {kind!r})")
        unknown = set(self.eval) - EVAL_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: eval {sorted(unknown)}")
        if self.eval.get("tv", "auto") not in TV_KINDS:
            raise ValueError(f"eval.tv must be one of {TV_KINDS}")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.seeds is not None and len(self.seeds) == 0:
            raise ValueError("seeds must be nonempty when given")
        if self.schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {self.schema}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a mapping")
        return cls.from_dict(raw)

    def run_seeds(self) -> list[int]:
        return list(self.seeds) if self.seeds is not None else [self.seed]

    def as_dict(self) -> dict:
        return _plain({
            "schema": self.schema,
            "instance": self.instance,
            "algorithm": self.algorithm,
            "params": self.params,
            "seed": self.seed,
            "seeds": self.seeds,
            "budget": self.budget,
            "eval": self.eval,
            "output": self.output,
            "model_output": self.model_output,
        })


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


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------


def build_instance(spec: dict):
    """Construct the distribution a config's ``instance`` section describes."""
    kind = spec.get("kind")
    if kind == "parity":
        subset = spec.get("subset")
        return make_parity_hmm(spec["horizon"],
                               None if subset is None else set(subset),
                               spec.get("alpha", 0.2))
    if kind == "full-rank":
        return make_full_rank_hmm(spec.get("n_states", 2),
                                  spec.get("n_symbols", 2),
                                  spec["horizon"],
                                  seed=spec.get("seed", 0),
                                  sigma_floor=spec.get("sigma_floor", 0.15))
    if kind == "overcomplete":
        return make_overcomplete_hmm(spec["n_states"],
                                     spec.get("n_symbols", 2),
                                     spec["horizon"],
                                     seed=spec.get("seed", 0))
    if kind == "random-table":
        return make_random_table(spec.get("n_symbols", 2), spec["horizon"],
                                 seed=spec.get("seed", 0),
                                 concentration=spec.get("concentration", 1.0))
    if kind == "file":
        return load_hmm(spec["path"])
    raise ValueError(f"unknown instance kind {kind!r}")


def _enumerable(dist) -> bool:
    return seq_count(dist.n_symbols, dist.horizon) <= EVAL_ENUM_LIMIT


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every seed of the config and aggregate an ExperimentReport.

    Per-seed failures from exhausted budgets, enumeration caps, or the basis
    search's round cap are recorded in that seed's outcome (and fail the
    aggregate verdict) instead of aborting the batch.  When ``output`` or
    ``model_output`` paths are set the report and learned models are written
    as a side effect.
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
    except (BudgetExceeded, EnumerationCapError, RoundCapExceeded) as err:
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
    tv_threshold = config.eval.get("tv_threshold")
    if tv_threshold is not None:
        hits = [o for o in outcomes if o.get("tv") is not None]
        n_pass = sum(1 for o in hits if o["tv"] <= tv_threshold)
        summary["tv_pass"] = n_pass
        frac = n_pass / len(outcomes) if outcomes else 0.0
        checks.append(frac >= config.eval.get("min_pass_fraction", 1.0))
    residual_threshold = config.eval.get("residual_threshold")
    if residual_threshold is not None:
        hits = [o for o in outcomes if o.get("residual") is not None]
        n_pass = sum(1 for o in hits if o["residual"] <= residual_threshold)
        summary["residual_pass"] = n_pass
        frac = n_pass / len(outcomes) if outcomes else 0.0
        checks.append(frac >= config.eval.get("min_pass_fraction", 1.0))

    summary["asserted"] = bool(checks)
    summary["passed"] = summary["n_errors"] == 0 and all(checks)
    return _plain(summary)
