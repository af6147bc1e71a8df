import copy
import sys

import numpy as np
import pytest

from condseq.bench import INSTANCE_BUILDERS, ExperimentConfig, run_experiment
from condseq.distributions import Hmm, save_hmm
from condseq.exact_learner import (default_sample_count, find_counterexample,
                                   init_state, learn_exact,
                                   process_counterexample, solve_operators)
from condseq.generators import make_parity_hmm, make_random_table
from condseq.metrics import tv_exact
from condseq.oom import to_distribution
from condseq.oracles import BudgetExceeded, OracleHandle, WrongOracleMode
from condseq.sequences import all_seqs

from _reference import per_sample_counterexample, random_hmm


def _learn(dist, seed=0, **kwargs):
    oracle = OracleHandle(dist, mode="exact", seed=seed)
    model, info = learn_exact(oracle, **kwargs)
    return oracle, model, info


def test_learns_random_hmms_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        hmm = random_hmm(rng, int(rng.integers(2, 4)), 2, 4)
        _, model, info = _learn(hmm, n_override=500)
        assert tv_exact(hmm, to_distribution(model)) <= 1e-7
        assert info["rounds"] <= 2 * 4


def test_parity_learning_recovers_rank_two_bases():
    hmm = make_parity_hmm(5, alpha=0.2)
    oracle, model, info = _learn(hmm, n_override=300)
    assert tv_exact(hmm, to_distribution(model)) <= 1e-9
    assert info["rounds"] <= 2 * 5
    assert model.basis_sizes() == [1, 2, 2, 2, 2, 1]
    assert info["basis_sizes"] == model.basis_sizes()
    assert info["queries"]["total"] == oracle.stats.total
    for entry in info["trace"]:
        assert set(entry) == {"round", "tau", "histories_before",
                              "tests_before", "new_history", "new_test"}
        assert len(entry["new_history"]) == entry["tau"]
        assert entry["new_history"] not in entry["histories_before"]


def test_rank_one_instance_needs_no_counterexamples():
    const = make_random_table(2, 1, seed=0)

    class Product:
        """Independent repeats of a one-step distribution (rank one)."""

        n_symbols, horizon = 2, 3

        def joint_prob(self, seq):
            p = 1.0
            for o in seq:
                p *= const.probs[o - 1]
            return p

        def conditional_prob(self, history, future):
            return self.joint_prob(future)

        def next_symbol_probs(self, history):
            return const.probs.copy()

        def sample_futures(self, history, rng, size, steps=None):
            length = self.horizon - len(history)
            draws = rng.choice(2, size=(size, length), p=const.probs) + 1
            return draws[:, :length if steps is None else steps]

    dist = Product()
    _, model, info = _learn(dist, n_override=50)
    assert info["rounds"] == 0
    assert model.basis_sizes() == [1, 1, 1, 1]
    for seq in all_seqs(2, 3):
        got = to_distribution(model).joint_prob(seq)
        assert got == pytest.approx(dist.joint_prob(seq), abs=1e-9)


def test_anchored_output_is_a_proper_distribution():
    hmm = make_parity_hmm(4, subset={1, 3}, alpha=0.25)
    _, model, _ = _learn(hmm, n_override=200)
    learned = to_distribution(model)
    total = sum(learned.joint_prob(seq) for seq in all_seqs(2, 4))
    assert total == pytest.approx(1.0, abs=1e-9)
    for t in range(4):
        for h in all_seqs(2, t):
            probs = np.asarray(learned.next_symbol_probs(h))
            assert probs.min() >= -1e-12
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_default_sample_count_frozen_value():
    assert default_sample_count(6, 2, 0.05, 0.1) == 15320
    assert default_sample_count(6, 2, 0.1, 0.1) < 15320
    assert default_sample_count(6, 4, 0.05, 0.1) > 15320


@pytest.mark.parametrize("eps", [10.0, 1e150, 1e155, 1e300, sys.float_info.max])
def test_default_sample_count_is_one_at_huge_eps(eps):
    # eps**2 overflowed from about 1.3e154 on
    assert default_sample_count(6, 2, eps, 0.1) == 1


def test_exact_learner_requires_exact_mode():
    hmm = make_parity_hmm(3, alpha=0.2)
    oracle = OracleHandle(hmm, mode="sampling", seed=0)
    with pytest.raises(WrongOracleMode):
        learn_exact(oracle, n_override=10)


def test_budget_exhaustion_propagates():
    hmm = make_parity_hmm(4, alpha=0.2)
    oracle = OracleHandle(hmm, mode="exact", seed=0, budget=25)
    with pytest.raises(BudgetExceeded):
        learn_exact(oracle, n_override=100)


def test_batched_sweep_matches_the_per_sample_sweep():
    """Same counterexample, and the same oracle queries in the same order."""
    T = 8
    oracle = OracleHandle(make_parity_hmm(T, alpha=0.2), mode="exact", seed=3)
    state = init_state(oracle)
    levels = []
    while True:
        operators = solve_operators(state, oracle)
        ref_oracle, ref_state = copy.deepcopy((oracle, state))
        found = find_counterexample(state, operators, oracle, 100)
        assert found == per_sample_counterexample(ref_state, operators,
                                                  ref_oracle, 100)
        assert oracle.stats.as_dict() == ref_oracle.stats.as_dict()
        assert list(state.values) == list(ref_state.values)
        if found is None:
            break
        levels.append(found[1])
        state.rounds += 1
        process_counterexample(state, operators, oracle, found[0])
    assert any(1 < t < T for t in levels)


def test_budget_cuts_the_sweep_where_the_per_sample_sweep_is_cut():
    """Uncharged true values, drawn with the samples, leave the budget's
    cut-off where it was."""
    T = 8
    oracle = OracleHandle(make_parity_hmm(T, alpha=0.2), mode="exact", seed=3)
    state = init_state(oracle)
    operators = solve_operators(state, oracle)
    probe_oracle, probe_state = copy.deepcopy((oracle, state))
    per_sample_counterexample(probe_state, operators, probe_oracle, 100)
    start, used = oracle.stats.total, probe_oracle.stats.total - oracle.stats.total
    assert used > 100  # joint draws and exact queries both
    for budget in range(start + 1, start + used, 11):  # cut in draws and in reads
        ours, ref = copy.deepcopy((oracle, state)), copy.deepcopy((oracle, state))
        ours[0].budget = ref[0].budget = budget
        with pytest.raises(BudgetExceeded):
            find_counterexample(ours[1], operators, ours[0], 100)
        with pytest.raises(BudgetExceeded):
            per_sample_counterexample(ref[1], operators, ref[0], 100)
        assert ours[0].stats.as_dict() == ref[0].stats.as_dict()
        assert list(ours[1].values) == list(ref[1].values)


@pytest.mark.parametrize("kwargs, name", [
    ({"n_override": 0}, "n_override"),
    ({"n_override": -3}, "n_override"),
    ({"eps": 0.0}, "eps"),
    ({"eps": -0.05}, "eps"),
    ({"delta": 0.0}, "delta"),
    ({"delta": -1.0}, "delta"),
    ({"delta": 1.0}, "delta"),
    ({"eq_tol": float("nan")}, "eq_tol"),
    ({"eq_tol": float("inf")}, "eq_tol"),
    ({"eq_tol": -1.0}, "eq_tol"),
    ({"eq_tol": 0.0}, "eq_tol"),
    ({"n_override": 200.0}, "n_override"),
    ({"n_override": True}, "n_override"),
    ({"eps": float("inf")}, "eps"),
    # eps**2 underflows to 0, to a subnormal whose quotient overflows, and to
    # 1e-300, whose count has 305 digits
    ({"eps": 1e-200}, "eps"),
    ({"eps": 1e-160}, "eps"),
    ({"eps": 1e-150}, "eps"),
])
def test_learn_exact_rejects_parameters_that_cannot_work(kwargs, name):
    oracle = OracleHandle(make_parity_hmm(4, alpha=0.2), mode="exact", seed=0)
    with pytest.raises(ValueError, match=name):
        learn_exact(oracle, **kwargs)
    assert oracle.stats.total == 0


def test_learn_exact_cost_guard(monkeypatch):
    """Counted, not timed: parity T=12, n=200, oracle seed 0."""
    calls = {"step": 0, "conditional_prob": 0, "row_conditionals": 0}

    def count(name):
        inner = getattr(Hmm, name)

        def counted(self, *args):
            calls[name] += 1
            return inner(self, *args)

        monkeypatch.setattr(Hmm, name, counted)

    for name in calls:
        count(name)
    oracle, _, info = _learn(make_parity_hmm(12, alpha=0.2), n_override=200)
    assert oracle.stats.total == 20_499
    assert info["rounds"] == 11
    assert oracle.stats.by_history_length == {0: 20_374, **dict.fromkeys(range(1, 11), 12),
                                              11: 4, 12: 1}
    # filtering each query from the root took 28,676 steps; the one-row walk
    # that keeps the previous call's path takes 700 steps under 134
    # conditional_prob calls
    assert calls["step"] <= 1_000
    assert calls["conditional_prob"] <= 300
    # the sweep's true values are forward x backward blocks, not row walks
    assert calls["row_conditionals"] == 0


def test_learn_exact_benchmark_instance(monkeypatch):
    """perfbench's exact-parity20 instance: parity T=20, n=200, oracle seed 0."""
    calls = {"_children": 0, "row_conditionals": 0}

    def count(name):
        inner = getattr(Hmm, name)

        def counted(self, *args):
            calls[name] += 1
            return inner(self, *args)

        monkeypatch.setattr(Hmm, name, counted)

    for name in calls:
        count(name)
    oracle, model, info = _learn(make_parity_hmm(20, alpha=0.2), n_override=200)
    assert oracle.stats.total == 61_353
    assert info["rounds"] == 19
    assert oracle.stats.by_history_length == {0: 61_132, **dict.fromkeys(range(1, 19), 12),
                                              19: 4, 20: 1}
    assert model.basis_sizes() == [1] + [2] * 19 + [1]
    # a sweep's levels share one distinct-prefix walk, one step per symbol
    # of the deepest level it reaches: 229 steps, where one walk per level
    # took 1,749
    assert calls["_children"] <= 250
    assert calls["row_conditionals"] == 0


# Every instance kind at desk scale, including the overcomplete HMMs (S > O)
# whose tables decay naturally; the "file" kind is a saved parity HMM.
CONFORMANCE = [
    {"kind": "parity", "horizon": 6},
    {"kind": "full-rank", "n_states": 3, "n_symbols": 4, "horizon": 5},
    {"kind": "overcomplete", "n_states": 6, "n_symbols": 2, "horizon": 8},
    {"kind": "overcomplete", "n_states": 6, "n_symbols": 3, "horizon": 6},
    {"kind": "random-table", "n_symbols": 2, "horizon": 4},
    {"kind": "random-table", "n_symbols": 3, "horizon": 3},
    {"kind": "file"},
]


def test_conformance_grid_covers_every_instance_kind():
    assert {spec["kind"] for spec in CONFORMANCE} == set(INSTANCE_BUILDERS)


@pytest.mark.parametrize("spec", CONFORMANCE,
                         ids=lambda spec: "-".join(map(str, spec.values())))
def test_exact_learner_conformance(spec, tmp_path):
    if spec["kind"] == "file":
        path = tmp_path / "parity.hmm"
        save_hmm(make_parity_hmm(5, alpha=0.2), path)
        spec = {"kind": "file", "path": str(path)}
    report = run_experiment(ExperimentConfig(
        instance=spec, algorithm="exact", params={"n_override": 200},
        seeds=[0, 1, 2], eval={"tv": "exact", "tv_threshold": 1e-9}))
    assert [o["error"] for o in report.outcomes] == [None] * 3
    assert all(o["tv"] <= 1e-9 for o in report.outcomes)
    assert report.passed
