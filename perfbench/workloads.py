"""The benchmark's workloads: inputs from a seed, one run, and its check.

A workload seed only chooses inputs (oracle seeds or instance seeds); condseq
receives nothing but those.  One run is one input's learn plus its correctness
check, or one referee batch, and always builds its instances afresh, so no
run reuses state an earlier run left in an instance.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# condseq functions are called through their modules, so that the tracer,
# which rebinds module attributes, sees every call made from here.
from condseq import bench, distributions, generators, metrics, oom
from condseq.bench import ExperimentConfig
from condseq.distributions import EnumerationCapError
from condseq.exact_learner import LearnerInvariantError
from condseq.oom import BasisSpanError
from condseq.oracles import BudgetExceeded

# Errors a run may raise that count as a failed run instead of stopping the
# benchmark.  run_experiment records BudgetExceeded, EnumerationCapError and
# RoundCapExceeded in its outcome itself.
RUN_ERRORS = (BudgetExceeded, LearnerInvariantError, EnumerationCapError,
              BasisSpanError)
CHECK_FAILED = "CheckFailed"


@dataclass
class Outcome:
    """What one run produced: its verdict and its exact counts."""

    ok: bool
    error: str | None
    queries: dict
    rounds: int | None = None


NO_QUERIES = {"exact_queries": 0, "sample_queries": 0, "joint_queries": 0,
              "total": 0}


class Workload:
    name = ""
    why = ""
    n_inputs = 1

    def inputs(self, seed: int) -> list[int]:
        """Per-run seeds drawn from the workload seed."""
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=self.n_inputs)]

    def prepare(self, inp: int):
        """Instance construction for one input, done during set-up."""
        raise NotImplementedError

    def run(self, prepared) -> Outcome:
        raise NotImplementedError

    @contextmanager
    def session(self):
        """Hooks active around all runs of this workload."""
        yield


def _experiment(config: ExperimentConfig) -> Outcome:
    try:
        report = bench.run_experiment(config)
    except RUN_ERRORS as err:
        return Outcome(False, type(err).__name__, dict(NO_QUERIES))
    out = report.outcomes[0]
    queries = {k: out["queries"][k] for k in NO_QUERIES}
    if out["error"] is not None:
        return Outcome(False, out["error"].split(":")[0], queries, out.get("rounds"))
    ok = report.passed and out.get("tv") is not None
    return Outcome(ok, None if ok else CHECK_FAILED, queries, out.get("rounds"))


class SamplingParity5(Workload):
    name = "sampling-parity5"
    why = ("the sampling-oracle learner at acceptance-gate size; nearly all "
           "time is oracle simulation (Hmm.sample_conditional)")
    n_inputs = 4
    INSTANCE = {"kind": "parity", "horizon": 5, "alpha": 0.3}
    TV_MAX = 0.15  # the bar of acceptance criterion 07

    def prepare(self, inp: int) -> ExperimentConfig:
        bench.build_instance(self.INSTANCE)
        return ExperimentConfig(instance=dict(self.INSTANCE), algorithm="sampling",
                                seed=inp, eval={"tv": "exact",
                                                "tv_threshold": self.TV_MAX})

    def run(self, config: ExperimentConfig) -> Outcome:
        return _experiment(config)


class ExactParity20(Workload):
    name = "exact-parity20"
    why = ("the exact-oracle learner at a horizon too long to enumerate: many "
           "small exact queries, long joint draws and the counterexample sweep")
    n_inputs = 3
    INSTANCE = {"kind": "parity", "horizon": 20, "alpha": 0.2}
    TV_MAX = 1e-6
    REL_GAP_MAX = 1e-6
    N_CHECK = 200

    def __init__(self) -> None:
        self._models: list = []

    @contextmanager
    def session(self):
        # run_experiment does not return the learned model, so keep what
        # bench's own learn_exact returns for the joint-probability check.
        inner = bench.learn_exact

        def keep_model(*args, **kwargs):
            model, info = inner(*args, **kwargs)
            self._models.append(model)
            return model, info

        bench.learn_exact = keep_model
        try:
            yield
        finally:
            bench.learn_exact = inner

    def prepare(self, inp: int) -> tuple[ExperimentConfig, np.ndarray]:
        bench.build_instance(self.INSTANCE)
        config = ExperimentConfig(
            instance=dict(self.INSTANCE), algorithm="exact", seed=inp,
            params={"n_override": 200},
            eval={"tv": "bound", "tv_samples": 200, "tv_threshold": self.TV_MAX})
        # Uniform random sequences: half end on the likely parity bit, half
        # on the unlikely one, so both branches of the last step are checked.
        seqs = np.random.default_rng(inp).integers(
            1, 3, size=(self.N_CHECK, self.INSTANCE["horizon"]))
        return config, seqs

    def run(self, prepared) -> Outcome:
        config, seqs = prepared
        self._models.clear()
        outcome = _experiment(config)
        if outcome.ok and not self._joint_probs_match(self._models[-1], seqs):
            outcome.ok, outcome.error = False, CHECK_FAILED
        return outcome

    def _joint_probs_match(self, model, seqs: np.ndarray) -> bool:
        learned = oom.to_distribution(model, flavor="auto")
        T, alpha = self.INSTANCE["horizon"], self.INSTANCE["alpha"]
        subset = set(range(1, T))
        for row in seqs.tolist():
            seq = tuple(row)
            true = generators.parity_joint_prob(seq, subset, alpha)
            if not abs(learned.joint_prob(seq) - true) <= self.REL_GAP_MAX * true:
                return False
        return True


class RefereeEnum(Workload):
    name = "referee-enum"
    why = ("the enumeration referee with no oracle: basis fidelity, exact "
           "operators with tv_exact, and rank_of; the learners take no part")
    n_inputs = 2
    FULL_RANK = (3, 4, 6)  # states, symbols, horizon
    PARITY_OPS_T = 16
    PARITY_RANK_T = 12
    ALPHA = 0.2
    TV_MAX = 1e-9

    def prepare(self, inp: int) -> int:
        generators.make_full_rank_hmm(*self.FULL_RANK, seed=inp)
        return inp

    def run(self, inp: int) -> Outcome:
        try:
            ok = self._batch(inp)
        except RUN_ERRORS as err:
            return Outcome(False, type(err).__name__, dict(NO_QUERIES))
        return Outcome(ok, None if ok else CHECK_FAILED, dict(NO_QUERIES))

    def _batch(self, inp: int) -> bool:
        n_states = self.FULL_RANK[0]
        hmm = generators.make_full_rank_hmm(*self.FULL_RANK, seed=inp)
        bases = generators.greedy_spanning_bases(hmm)
        fidelity = metrics.fidelity_for_bases(hmm, bases)

        parity = generators.make_parity_hmm(self.PARITY_OPS_T, alpha=self.ALPHA)
        model = oom.construct_exact_operators(
            parity, generators.parity_class_bases(self.PARITY_OPS_T))
        tv = metrics.tv_exact(parity, oom.to_distribution(model))

        parity = generators.make_parity_hmm(self.PARITY_RANK_T, alpha=self.ALPHA)
        rank = distributions.rank_of(parity)
        return (all(1 <= len(b) <= n_states for b in bases)
                and all(math.isfinite(s) and s > 0.0 for s in fidelity.sigmas)
                and tv <= self.TV_MAX and rank == 2)


WORKLOADS = {w.name: w for w in (SamplingParity5, ExactParity20, RefereeEnum)}
